"""Rank-change accounting and the report files: the per-lineup rank changes
between embedding variants, the Tables 1-3 style outcome tables, the
comparison JSON and the CSVs rendered from it, and the ``report`` command.

Rank change is rank_before - rank_after, so positive values are
improvements. This module imports no numpy: ``report`` re-renders its CSVs
from ``comparison.json`` with the standard library alone.
"""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass
from pathlib import Path

from lineuplab.artifacts import (
    COMPARISON_FILE,
    OUTCOMES_FP_FILE,
    OUTCOMES_TP_FILE,
    RANK_CHANGES_FILE,
    OutputGuard,
    write_json,
)
from lineuplab.config import PipelineConfig
from lineuplab.errors import ConfigError, DataError, open_text

# Rank change is bounded by the lineup size: ranks live in [0, 5].
CHANGE_RANGE = range(-5, 6)


@dataclass(frozen=True)
class RankChangeRecord:
    lineup_id: str  # the source image id
    rank_before: int
    rank_after: int

    @property
    def change(self) -> int:
        return self.rank_before - self.rank_after


@dataclass(frozen=True)
class RankChangeReport:
    per_lineup: tuple[RankChangeRecord, ...]
    histogram: dict[int, tuple[int, float]]  # change -> (count, percentage)
    failed: tuple[str, ...]                  # lineups missing a restored member


@dataclass(frozen=True)
class OutcomeTable:
    improvements: int
    degradations: int
    unchanged: int
    success_conversions: int
    failed_restorations: int
    total: int
    percentages: dict[str, float]
    mean_improvement: float  # mean positive change, 0.0 when none
    mean_degradation: float  # mean |negative change|, 0.0 when none


@dataclass(frozen=True)
class ComparisonBundle:
    report: RankChangeReport                 # all compared lineups
    table_true_positive: OutcomeTable        # before-failures (rank > 0)
    table_false_positive: OutcomeTable       # before-successes (rank 0)


def change_histogram(records) -> dict[int, tuple[int, float]]:
    total = len(records)
    counts = {c: 0 for c in CHANGE_RANGE}
    for rec in records:
        counts[rec.change] += 1
    return {
        c: (n, 100.0 * n / total if total else 0.0)
        for c, n in counts.items()
    }


def summarize_outcomes(report: RankChangeReport, results_before) -> OutcomeTable:
    """Roll the lineups of ``results_before`` up into the improvement/
    degradation table, from their records in ``report``.

    Every lineup of ``results_before`` must be compared or failed in
    ``report``, so the table partitions the total exactly.
    """
    sources = {r.lineup.source for r in results_before}
    records = [rec for rec in report.per_lineup if rec.lineup_id in sources]
    pos = [rec.change for rec in records if rec.change > 0]
    neg = [-rec.change for rec in records if rec.change < 0]
    counts = {
        "improvements": len(pos),
        "degradations": len(neg),
        "unchanged": len(records) - len(pos) - len(neg),
        "success_conversions": sum(1 for rec in records
                                   if rec.rank_before > 0 and rec.rank_after == 0),
        "failed_restorations": sum(1 for source in report.failed if source in sources),
    }
    total = len(records) + counts["failed_restorations"]
    if len(results_before) != total:
        raise DataError(
            f"outcome accounting mismatch: {len(results_before)} before-results, "
            f"{total} compared+failed"
        )
    return OutcomeTable(
        **counts,
        total=total,
        percentages={k: 100.0 * n / total if total else 0.0 for k, n in counts.items()},
        mean_improvement=sum(pos) / len(pos) if pos else 0.0,
        mean_degradation=sum(neg) / len(neg) if neg else 0.0,
    )


def write_rank_change_csv(report: RankChangeReport, path) -> Path:
    """Histogram CSV, one row per change value from -5 up to +5."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["change", "count", "percentage"])
        for change in sorted(report.histogram):
            count, pct = report.histogram[change]
            writer.writerow([f"{change:+d}" if change else "0", count, f"{pct:.1f}"])
    return path


OUTCOME_ROWS = (
    ("Rank Improvements", "improvements"),
    ("Rank Degradations", "degradations"),
    ("Rank Unchanged", "unchanged"),
    ("Success Conversions (Rank 0)", "success_conversions"),
    ("Failed Restoration", "failed_restorations"),
)


def write_outcome_csv(table: OutcomeTable, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write("category,count,percentage\n")
        for label, attr in OUTCOME_ROWS:
            count = getattr(table, attr)
            fh.write(f"{label},{count},{table.percentages[attr]:.1f}\n")
        fh.write(f"Total Analyzed,{table.total},{100.0 if table.total else 0.0:.1f}\n")
    return path


def write_report_csvs(config: PipelineConfig, guard: OutputGuard,
                      bundle: ComparisonBundle) -> list[Path]:
    """Rank-change CSV and the two outcome tables, tracked by ``guard``."""
    paths = [config.out(name) for name in (RANK_CHANGES_FILE, OUTCOMES_TP_FILE, OUTCOMES_FP_FILE)]
    rank_changes, tp, fp = (guard.track(path) for path in paths)
    write_rank_change_csv(bundle.report, rank_changes)
    write_outcome_csv(bundle.table_true_positive, tp)
    write_outcome_csv(bundle.table_false_positive, fp)
    return paths


def comparison_payload(bundle: ComparisonBundle) -> dict:
    """The comparison detail; each outcome table is stored field for field,
    so ``run_report`` rebuilds it with ``OutcomeTable(**obj)``."""
    return {
        "per_lineup": [
            {"source": r.lineup_id, "rank_before": r.rank_before,
             "rank_after": r.rank_after, "change": r.change}
            for r in bundle.report.per_lineup
        ],
        "failed": list(bundle.report.failed),
        "histogram": [
            {"change": c, "count": bundle.report.histogram[c][0],
             "percentage": bundle.report.histogram[c][1]}
            for c in sorted(bundle.report.histogram)
        ],
        "true_positive_table": asdict(bundle.table_true_positive),
        "false_positive_table": asdict(bundle.table_false_positive),
    }


def write_comparison(config: PipelineConfig, guard: OutputGuard,
                     bundle: ComparisonBundle) -> None:
    """The report CSVs and ``comparison.json`` for ``bundle``, tracked by
    ``guard``."""
    write_report_csvs(config, guard, bundle)
    write_json(guard.track(config.out(COMPARISON_FILE)), comparison_payload(bundle))


def _check(ok: bool, path: Path, name: str, what: str) -> None:
    if not ok:
        raise DataError(f"{path}: {name} must be {what}")


def _is_count(value) -> bool:
    return type(value) is int and value >= 0


def _is_number(value, high) -> bool:
    """A JSON number from 0 to ``high``; nan and the bools are not."""
    return type(value) in (int, float) and 0 <= value <= high


def _outcome_table(obj, path: Path, name: str) -> OutcomeTable:
    """The stored table ``name``: its counts non-negative ints, its
    percentages numbers from 0 to 100 and its mean rank changes numbers
    from 0 to 5."""
    for attr in (*(attr for _, attr in OUTCOME_ROWS), "total"):
        _check(_is_count(obj[attr]), path, f"{name}.{attr}", "a non-negative integer")
    percentages = obj["percentages"]
    _check(isinstance(percentages, dict), path, f"{name}.percentages", "an object")
    for _, attr in OUTCOME_ROWS:
        _check(_is_number(percentages[attr], 100), path, f"{name}.percentages.{attr}",
               "a number from 0 to 100")
    for attr in ("mean_improvement", "mean_degradation"):
        _check(_is_number(obj[attr], 5), path, f"{name}.{attr}", "a number from 0 to 5")
    return OutcomeTable(**obj)


def _comparison_bundle(payload, path: Path) -> ComparisonBundle:
    """The bundle ``payload`` stores. A value of the wrong type or range
    raises ``DataError`` naming its field; a missing or extra field raises
    ``KeyError`` or ``TypeError``."""
    records = []
    for i, obj in enumerate(payload["per_lineup"]):
        _check(isinstance(obj["source"], str), path, f"per_lineup[{i}].source", "a string")
        for key in ("rank_before", "rank_after"):
            _check(type(obj[key]) is int and 0 <= obj[key] <= 5, path,
                   f"per_lineup[{i}].{key}", "an integer from 0 to 5")
        records.append(RankChangeRecord(obj["source"], obj["rank_before"], obj["rank_after"]))
    failed = payload["failed"]
    _check(isinstance(failed, list) and all(isinstance(s, str) for s in failed), path,
           "failed", "a list of strings")
    return ComparisonBundle(
        RankChangeReport(tuple(records), change_histogram(records), tuple(failed)),
        _outcome_table(payload["true_positive_table"], path, "true_positive_table"),
        _outcome_table(payload["false_positive_table"], path, "false_positive_table"),
    )


def run_report(config: PipelineConfig) -> list[Path]:
    """Re-render the CSV reports from a stored comparison JSON."""
    comparison_path = config.out(COMPARISON_FILE)
    if not comparison_path.is_file():
        raise ConfigError(f"comparison detail not found: {comparison_path} (run 'compare' first)")
    try:
        with open_text(comparison_path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{comparison_path}: malformed JSON ({exc.msg})") from None
    try:
        bundle = _comparison_bundle(payload, comparison_path)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{comparison_path}: incomplete comparison detail ({exc!r})") from None
    with OutputGuard() as guard:
        return write_report_csvs(config, guard, bundle)
