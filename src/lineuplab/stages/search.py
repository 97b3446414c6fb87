"""The search stages: index, evaluate and compare.

They search the exact index and build or re-rank lineups; nothing here
imports the image features, the failure predictor or the restoration hook.
"""

from __future__ import annotations

from collections import Counter
from pathlib import Path

from lineuplab import lineup as lineup_mod
from lineuplab import simindex
from lineuplab.artifacts import (
    INDEX_FILE,
    MANIFEST_FILE,
    RESULTS_FILE,
    SUMMARY_FILE,
    OutputGuard,
    write_json,
)
from lineuplab.config import PipelineConfig
from lineuplab.errors import ConfigError, DataError
from lineuplab.lineup import (
    AccuracyReport,
    LineupResult,
    NoEligibleSources,
    compare_variants,
    read_lineup_manifest,
    read_results_csv,
    write_lineup_manifest,
    write_results_csv,
)
from lineuplab.report import (
    ComparisonBundle,
    OutcomeTable,
    RankChangeReport,
    change_histogram,
    summarize_outcomes,
    write_comparison,
)
from lineuplab.stages.ingest import load_corpus, original_and_restored


def run_index(config: PipelineConfig) -> Path:
    index = simindex.build_index(load_corpus(config))
    path = config.out(INDEX_FILE)
    with OutputGuard() as guard:
        simindex.save_index(index, guard.track(path))
    return path


def run_evaluate(config: PipelineConfig) -> AccuracyReport | None:
    return evaluate(config, load_corpus(config))


def evaluate(config: PipelineConfig, handle) -> AccuracyReport | None:
    """Lineups, per-lineup results, and an accuracy summary for ``handle``.

    Returns None when no source is eligible; the (empty) artifacts are still
    written and the summary states that explicitly, with each source's skip
    reason, rather than failing.
    """
    index = simindex.build_index(handle)
    try:
        report = lineup_mod.evaluate_corpus(
            handle, index, handle.ids, config.lineup_seed,
            distinct_filler_identities=config.distinct_fillers,
        )
    except NoEligibleSources as exc:
        report, results, skipped = None, [], exc.skipped
        summary = {"accuracy": None, "message": "no eligible sources"}
    else:
        results, skipped = report.results, report.skipped
        summary = {"accuracy": report.accuracy}
    summary.update(skipped=[[sid, reason] for sid, reason in skipped], lineups=len(results),
                   successes=sum(r.success for r in results), sources_total=handle.count)
    with OutputGuard() as guard:
        write_lineup_manifest([r.lineup for r in results], guard.track(config.out(MANIFEST_FILE)))
        write_results_csv(results, guard.track(config.out(RESULTS_FILE)))
        write_json(guard.track(config.out(SUMMARY_FILE)), summary)
    return report


def stored_lineups(config: PipelineConfig) -> list[LineupResult]:
    """The before-results written by ``evaluate``, over the lineups of its
    manifest: the manifest's sources are distinct, and the results hold one
    row per manifest lineup, in manifest order, so ``[r.lineup for r in
    results]`` is the manifest."""
    manifest_path = config.out(MANIFEST_FILE)
    results_path = config.out(RESULTS_FILE)
    if not manifest_path.is_file() or not results_path.is_file():
        raise ConfigError("lineup manifest/results not found (run 'evaluate' first)")
    lineups = read_lineup_manifest(manifest_path)
    sources = [lu.source for lu in lineups]
    repeated = [source for source, n in Counter(sources).items() if n > 1]
    if repeated:
        raise DataError(f"{manifest_path}: lineup source {repeated[0]!r} appears more than once")
    results = read_results_csv(results_path, dict(zip(sources, lineups)))
    if [r.lineup.source for r in results] != sources:
        raise DataError(f"{results_path}: results do not hold one row per lineup of "
                        f"{manifest_path}, in manifest order (rerun 'evaluate')")
    return results


def compare_with_restored(results, original, restored) -> ComparisonBundle:
    """Fixed-membership re-ranking plus the Tables 1-3 style accounting.

    A lineup with a member absent from ``restored`` is a failed
    restoration. The source embedding is always taken from the original
    corpus. Each table covers one sign of the before-rank.
    """
    report = compare_variants(results, original, restored)
    before_rank = {r.lineup.source: r.probe_rank for r in results}

    def table(positive: bool) -> OutcomeTable:
        recs = tuple(r for r in report.per_lineup if (r.rank_before > 0) == positive)
        failed = tuple(s for s in report.failed if (before_rank[s] > 0) == positive)
        before = [r for r in results if (r.probe_rank > 0) == positive]
        return summarize_outcomes(RankChangeReport(recs, change_histogram(recs), failed), before)

    return ComparisonBundle(report, table(True), table(False))


def run_compare(config: PipelineConfig) -> ComparisonBundle:
    """Re-rank every stored lineup against the restored embeddings."""
    results = stored_lineups(config)
    bundle = compare_with_restored(results, *original_and_restored(config))
    with OutputGuard() as guard:
        write_comparison(config, guard, bundle)
    return bundle
