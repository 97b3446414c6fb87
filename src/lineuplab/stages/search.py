"""The search stages: index, evaluate and compare.

They search the exact index and build or re-rank lineups; nothing here
imports the image features, the failure predictor or the restoration hook.
"""

from __future__ import annotations

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
from lineuplab.errors import ConfigError
from lineuplab.lineup import (
    AccuracyReport,
    compare_variants,
    stored_lineups,
    write_lineup_manifest,
    write_results_csv,
)
from lineuplab.report import ComparisonBundle, summarize_outcomes, write_comparison
from lineuplab.stages.ingest import load_corpus, original_and_restored


def run_index(config: PipelineConfig) -> Path:
    index = simindex.build_index(load_corpus(config))
    path = config.out(INDEX_FILE)
    with OutputGuard() as guard:
        simindex.save_index(index, guard.track(path))
    return path


def run_evaluate(config: PipelineConfig) -> AccuracyReport:
    return evaluate(config, load_corpus(config))


def evaluate(config: PipelineConfig, handle) -> AccuracyReport:
    """Lineups, per-lineup results, and an accuracy summary for ``handle``.

    When no source is eligible the (empty) artifacts are still written, and
    the summary states that explicitly, with each source's skip reason,
    rather than failing.
    """
    index = simindex.build_index(handle)
    report = lineup_mod.evaluate_corpus(
        handle, index, handle.ids, config.lineup_seed,
        distinct_filler_identities=config.distinct_fillers,
    )
    results = report.results
    summary = {"accuracy": report.accuracy, "lineups": len(results),
               "skipped": [[sid, reason] for sid, reason in report.skipped],
               "successes": sum(r.success for r in results), "sources_total": handle.count}
    if report.accuracy is None:
        summary["message"] = "no eligible sources"
    with OutputGuard() as guard:
        write_lineup_manifest([r.lineup for r in results], guard.track(config.out(MANIFEST_FILE)))
        write_results_csv(results, guard.track(config.out(RESULTS_FILE)))
        write_json(guard.track(config.out(SUMMARY_FILE)), summary)
    return report


def compare_with_restored(results, original, restored) -> ComparisonBundle:
    """Fixed-membership re-ranking plus the Tables 1-3 style accounting.

    A lineup with a member absent from ``restored`` is a failed
    restoration. The source embedding is always taken from the original
    corpus. The tables summarize the one re-ranking over the before-failures
    and the before-successes.
    """
    report = compare_variants(results, original, restored)
    return ComparisonBundle(report, *(
        summarize_outcomes(report, [r for r in results if r.success == success])
        for success in (False, True)))


def run_compare(config: PipelineConfig) -> ComparisonBundle:
    """Re-rank every stored lineup against the restored embeddings."""
    results = stored_lineups(config)
    if results is None:
        raise ConfigError("lineup manifest and results not found (run 'evaluate' first)")
    bundle = compare_with_restored(results, *original_and_restored(config))
    with OutputGuard() as guard:
        write_comparison(config, guard, bundle)
    return bundle
