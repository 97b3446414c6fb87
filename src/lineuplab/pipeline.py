"""Batch orchestration: configuration, end-to-end runs, restoration hook,
and deterministic report emission.

Configuration is a JSON file of nested sections; every leaf value can be
overridden on the command line by a flag carrying the same dotted name.
Reports contain no timestamps and serialize floats through repr, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import csv
import json
import os
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from lineuplab import corpus as corpus_mod
from lineuplab import lineup as lineup_mod
from lineuplab import simindex
from lineuplab.corpus import CurationConfig, ImageId, ingest_embeddings, ingest_landmarks
from lineuplab.errors import ConfigError, DataError, HookError, open_text
from lineuplab.failpred.ensemble import (
    EnsembleConfig,
    dataset_from_arrays,
    evaluate_classifier,
    stratified_split,
    train_ensemble,
)
from lineuplab.failpred.model_io import load_model, save_model, save_training_report
from lineuplab.imgfeat import assemble_feature_vector, read_feature_csv, write_feature_csv
from lineuplab.imgfeat.features import FeatureVector
from lineuplab.lineup import (
    AccuracyReport,
    Lineup,
    LineupResult,
    NoEligibleSources,
    OutcomeTable,
    RankChangeReport,
    change_histogram,
    compare_variants,
    read_lineup_manifest,
    read_results_csv,
    summarize_outcomes,
    write_lineup_manifest,
    write_rank_change_csv,
    write_results_csv,
)

# Canonical artifact names inside the output directory.
MANIFEST_FILE = "lineup_manifest.jsonl"
RESULTS_FILE = "lineup_results.csv"
SUMMARY_FILE = "accuracy_summary.json"
FEATURES_FILE = "features.csv"
MODEL_FILE = "model.json"
TRAIN_REPORT_FILE = "training_report.json"
PREDICTIONS_FILE = "predictions.csv"
HOOK_STATUS_FILE = "hook_status.json"
RANK_CHANGES_FILE = "rank_changes.csv"
OUTCOMES_TP_FILE = "outcomes_true_positive.csv"
OUTCOMES_FP_FILE = "outcomes_false_positive.csv"
COMPARISON_FILE = "comparison.json"
CURATED_FILE = "curated_embeddings.bin"
CURATION_REPORT_FILE = "curation_report.json"
INDEX_FILE = "search.index"


@dataclass(frozen=True)
class PipelineConfig:
    embeddings_original: str | None = None
    embeddings_restored: str | None = None
    images: str | None = None
    landmarks: str | None = None
    output: str = "out"
    model: str | None = None
    lineup_seed: int = 0
    distinct_fillers: bool = False
    dark_threshold: float = 30.0
    bright_threshold: float = 225.0
    blur_threshold: float = 15.0
    train_seed: int = 0
    estimators: int = 100
    target: str = "source"  # which lineup image feeds failure prediction
    threshold_override: float | None = None
    hook_command: str | None = None
    hook_timeout: float = 60.0
    hook_failure_threshold: float = 1.0  # exceeding this fraction exits 3
    parallelism: int = 1

    def __post_init__(self):
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.target not in ("source", "probe"):
            raise ConfigError(f"train.target must be 'source' or 'probe', got {self.target!r}")
        if self.threshold_override is not None and not 0.25 <= self.threshold_override <= 0.75:
            raise ConfigError(
                f"predict.threshold must lie in [0.25, 0.75], got {self.threshold_override}"
            )
        if not self.hook_timeout > 0:
            raise ConfigError(f"hook.timeout must be > 0, got {self.hook_timeout}")
        if not 0.0 <= self.hook_failure_threshold <= 1.0:
            raise ConfigError(
                f"hook.failure_threshold must lie in [0, 1], got {self.hook_failure_threshold}"
            )

    def curation_rules(self) -> CurationConfig:
        return CurationConfig(
            dark_threshold=self.dark_threshold,
            bright_threshold=self.bright_threshold,
            blur_threshold=self.blur_threshold,
        )

    def out(self, name: str) -> Path:
        return Path(self.output) / name


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_optional_float(text: str):
    return None if text.strip().lower() in ("none", "null", "") else float(text)


# dotted config name -> (dataclass attribute, parser for CLI strings)
CONFIG_LEAVES = {
    "paths.embeddings_original": ("embeddings_original", str),
    "paths.embeddings_restored": ("embeddings_restored", str),
    "paths.images": ("images", str),
    "paths.landmarks": ("landmarks", str),
    "paths.output": ("output", str),
    "paths.model": ("model", str),
    "lineup.seed": ("lineup_seed", int),
    "lineup.distinct_fillers": ("distinct_fillers", _parse_bool),
    "curation.dark_threshold": ("dark_threshold", float),
    "curation.bright_threshold": ("bright_threshold", float),
    "curation.blur_threshold": ("blur_threshold", float),
    "train.seed": ("train_seed", int),
    "train.estimators": ("estimators", int),
    "train.target": ("target", str),
    "predict.threshold": ("threshold_override", _parse_optional_float),
    "hook.command": ("hook_command", str),
    "hook.timeout": ("hook_timeout", float),
    "hook.failure_threshold": ("hook_failure_threshold", float),
    "parallelism": ("parallelism", int),
}


# leaf parser -> (JSON types a non-string value may have, their description).
# A bool is not a number here, although Python counts it as an int.
_JSON_TYPES = {
    str: ((), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    _parse_bool: ((bool,), "a boolean"),
    _parse_optional_float: ((int, float), "a number or null"),
}


def _flatten(obj, prefix="") -> dict:
    out = {}
    for key, value in obj.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten(value, dotted))
        else:
            out[dotted] = value
    return out


def _parse_leaf(dotted: str, value, origin: str = ""):
    """(attribute, value) for one dotted leaf; strings are parsed by the
    leaf's declared type, other values must already have that type (null
    only where the leaf defaults to null)."""
    if dotted not in CONFIG_LEAVES:
        raise ConfigError(f"{origin}unknown config key {dotted!r}")
    attr, parser = CONFIG_LEAVES[dotted]
    if isinstance(value, str):
        try:
            value = parser(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{origin}{dotted}: {exc}") from None
    else:
        types, description = _JSON_TYPES[parser]
        nullable = getattr(PipelineConfig, attr) is None
        if type(value) not in types and not (value is None and nullable):
            raise ConfigError(f"{origin}{dotted}: expected {description}, got {value!r}")
    return attr, value


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build config from an optional JSON file plus dotted-name overrides.

    Override values arrive as strings (from CLI flags); string values, from
    either source, are parsed by the leaf's declared type.
    """
    fields = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open_text(path, ConfigError) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be an object")
        for dotted, value in _flatten(raw).items():
            attr, value = _parse_leaf(dotted, value, f"{path}: ")
            fields[attr] = value
    for dotted, text in (overrides or {}).items():
        attr, value = _parse_leaf(dotted, text)
        fields[attr] = value
    try:
        return PipelineConfig(**fields)
    except TypeError as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def _require(config: PipelineConfig, attr: str, dotted: str) -> Path:
    value = getattr(config, attr)
    if value is None:
        raise ConfigError(f"config value {dotted} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{dotted}: path does not exist: {path}")
    return path


class _OutputGuard:
    """Commit-on-success artifact writes.

    ``track`` hands out a sibling temp path to write instead of the final
    name. A clean exit moves every temp file onto its final name with
    ``os.replace``; an exception, Ctrl-C included, removes the temp files
    and leaves the previous artifacts untouched.
    """

    def __init__(self):
        self.pending: dict[Path, Path] = {}

    def track(self, path: Path) -> Path:
        path = Path(path)
        temp = path.with_name(path.name + ".tmp")
        self.pending[path] = temp
        return temp

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for path, temp in self.pending.items():
                    os.replace(temp, path)
        finally:
            for temp in self.pending.values():
                try:
                    temp.unlink(missing_ok=True)
                except OSError:
                    pass
        return False


def _write_json(path: Path, payload) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path


# ---------------------------------------------------------------------------
# Restoration hook


@dataclass(frozen=True)
class HookRecord:
    image_id: ImageId
    ok: bool
    detail: str


@dataclass(frozen=True)
class RestorationHook:
    """External per-image command; {input} and {output} are substituted
    token-wise after shell-style splitting of the template."""

    template: str
    timeout: float = 60.0

    def __post_init__(self):
        if "{input}" not in self.template or "{output}" not in self.template:
            raise ConfigError("hook command must contain {input} and {output} placeholders")

    def run(self, image_id: ImageId, input_path: Path, output_path: Path) -> HookRecord:
        argv = [
            token.replace("{input}", str(input_path)).replace("{output}", str(output_path))
            for token in shlex.split(self.template)
        ]
        try:
            proc = subprocess.run(argv, capture_output=True, timeout=self.timeout)
        except subprocess.TimeoutExpired:
            return HookRecord(image_id, False, f"timeout after {self.timeout}s")
        except OSError as exc:
            return HookRecord(image_id, False, f"spawn failed: {exc}")
        if proc.returncode != 0:
            return HookRecord(image_id, False, f"exit {proc.returncode}")
        return HookRecord(image_id, True, "exit 0")


# ---------------------------------------------------------------------------
# Evaluate


def run_evaluate(config: PipelineConfig) -> AccuracyReport | None:
    """Lineups, per-lineup results, and an accuracy summary for one corpus.

    Returns None when no source is eligible; the summary still states that
    explicitly rather than failing.
    """
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    handle = ingest_embeddings(embeddings_path)
    index = simindex.build_index(handle)
    Path(config.output).mkdir(parents=True, exist_ok=True)
    with _OutputGuard() as guard:
        manifest_path = guard.track(config.out(MANIFEST_FILE))
        results_path = guard.track(config.out(RESULTS_FILE))
        summary_path = guard.track(config.out(SUMMARY_FILE))
        try:
            report = lineup_mod.evaluate_corpus(
                handle, index, handle.ids, config.lineup_seed,
                distinct_filler_identities=config.distinct_fillers,
            )
        except NoEligibleSources:
            write_lineup_manifest([], manifest_path)
            write_results_csv([], results_path)
            _write_json(summary_path, {
                "accuracy": None,
                "lineups": 0,
                "successes": 0,
                "skipped": [],
                "sources_total": handle.count,
                "message": "no eligible sources",
            })
            return None
        write_lineup_manifest([r.lineup for r in report.results], manifest_path)
        write_results_csv(report.results, results_path)
        _write_json(summary_path, {
            "accuracy": report.accuracy,
            "lineups": len(report.results),
            "successes": sum(r.success for r in report.results),
            "skipped": [[sid, reason] for sid, reason in report.skipped],
            "sources_total": handle.count,
        })
    return report


def run_lineups(config: PipelineConfig):
    """Build the lineup manifest only (no ranking)."""
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    handle = ingest_embeddings(embeddings_path)
    index = simindex.build_index(handle)
    lineups = []
    skipped = []
    for source in sorted(handle.ids):
        try:
            lineups.append(lineup_mod.build_lineup(
                index, handle, source, config.lineup_seed,
                distinct_filler_identities=config.distinct_fillers,
            ))
        except DataError as exc:
            skipped.append((source, str(exc)))
    Path(config.output).mkdir(parents=True, exist_ok=True)
    with _OutputGuard() as guard:
        write_lineup_manifest(lineups, guard.track(config.out(MANIFEST_FILE)))
    return lineups, skipped


# ---------------------------------------------------------------------------
# Features


def _feature_one(handle, landmarks, images_dir, key: ImageId, target: ImageId):
    img = corpus_mod.load_grayscale_image(corpus_mod.image_path(images_dir, target))
    fv = assemble_feature_vector(handle.record(target), img, landmarks.get(target))
    return FeatureVector(image_id=key, values=fv.values)


def extract_features(config: PipelineConfig, handle, landmarks, items) -> list[FeatureVector]:
    """items: list of (key, target image id). Output preserves item order
    regardless of the parallelism degree."""
    images_dir = _require(config, "images", "paths.images")
    if config.parallelism > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            return list(pool.map(
                lambda it: _feature_one(handle, landmarks, images_dir, it[0], it[1]), items
            ))
    return [_feature_one(handle, landmarks, images_dir, key, tgt) for key, tgt in items]


def run_features(config: PipelineConfig) -> Path:
    """Feature CSV for lineups (when a manifest exists) or all corpus images.

    With a manifest, each row is keyed by the lineup's source id and built
    from the configured target image (source by default, probe optionally);
    labels come from the results CSV when present (1 = lineup failure).
    """
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    landmarks_path = _require(config, "landmarks", "paths.landmarks")
    handle = ingest_embeddings(embeddings_path)
    landmarks = ingest_landmarks(landmarks_path)
    manifest_path = config.out(MANIFEST_FILE)
    results_path = config.out(RESULTS_FILE)
    labels: dict[str, int] = {}
    if manifest_path.is_file():
        lineups = read_lineup_manifest(manifest_path)
        items = [
            (lu.source, lu.source if config.target == "source" else lu.probe)
            for lu in lineups
        ]
        if results_path.is_file():
            by_source = {lu.source: lu for lu in lineups}
            for result in read_results_csv(results_path, by_source):
                labels[result.lineup.source] = 0 if result.success else 1
    else:
        items = [(image_id, image_id) for image_id in sorted(handle.ids)]
    vectors = extract_features(config, handle, landmarks, items)
    full_labels = {fv.image_id: labels.get(fv.image_id, 0) for fv in vectors}
    Path(config.output).mkdir(parents=True, exist_ok=True)
    path = config.out(FEATURES_FILE)
    with _OutputGuard() as guard:
        write_feature_csv(vectors, full_labels, guard.track(path))
    return path


# ---------------------------------------------------------------------------
# Train / predict


def _model_path(config: PipelineConfig) -> Path:
    return Path(config.model) if config.model else config.out(MODEL_FILE)


def run_train(config: PipelineConfig):
    features_path = config.out(FEATURES_FILE)
    if not features_path.is_file():
        raise ConfigError(f"feature file not found: {features_path} (run 'features' first)")
    ids, labels, matrix = read_feature_csv(features_path)
    data = dataset_from_arrays(matrix, labels, ids)
    train, val, test = stratified_split(data, seed=config.train_seed)
    ens_config = EnsembleConfig.default(config.train_seed).scaled(config.estimators)
    model = train_ensemble(train, val, config=ens_config)
    if config.threshold_override is not None:
        model = replace(model, threshold=config.threshold_override)
    metrics = evaluate_classifier(model, test)
    with _OutputGuard() as guard:
        save_model(model, guard.track(_model_path(config)))
        save_training_report(model, val, guard.track(config.out(TRAIN_REPORT_FILE)))
    return model, metrics


def _load_model_with_override(config: PipelineConfig):
    path = _model_path(config)
    if not path.is_file():
        raise ConfigError(f"model artifact not found: {path} (run 'train' first)")
    model = load_model(path)
    if config.threshold_override is not None:
        model = replace(model, threshold=config.threshold_override)
    return model


def run_predict(config: PipelineConfig):
    """Per-lineup failure probabilities and decisions from stored features."""
    features_path = config.out(FEATURES_FILE)
    if not features_path.is_file():
        raise ConfigError(f"feature file not found: {features_path} (run 'features' first)")
    model = _load_model_with_override(config)
    ids, _, matrix = read_feature_csv(features_path)
    proba = model.predict_proba(matrix)
    predicted = proba >= model.threshold
    Path(config.output).mkdir(parents=True, exist_ok=True)
    with _OutputGuard() as guard:
        with open(guard.track(config.out(PREDICTIONS_FILE)), "w", encoding="utf-8",
                  newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(("source_id", "probability", "predicted_failure"))
            for sid, p, flag in zip(ids, proba, predicted):
                writer.writerow((sid, repr(float(p)), "true" if flag else "false"))
    return list(zip(ids, proba.tolist(), predicted.tolist()))


# ---------------------------------------------------------------------------
# Restore / compare


def run_hook(config: PipelineConfig, member_ids) -> dict[ImageId, HookRecord]:
    """Invoke the restoration hook once per unique member image."""
    if not config.hook_command:
        return {}
    images_dir = _require(config, "images", "paths.images")
    hook = RestorationHook(config.hook_command, config.hook_timeout)
    restored_dir = config.out("restored_images")
    restored_dir.mkdir(parents=True, exist_ok=True)
    records: dict[ImageId, HookRecord] = {}
    for image_id in sorted(set(member_ids)):
        records[image_id] = hook.run(
            image_id,
            corpus_mod.image_path(images_dir, image_id),
            corpus_mod.image_path(restored_dir, image_id),
        )
    with _OutputGuard() as guard:
        _write_json(guard.track(config.out(HOOK_STATUS_FILE)), {
            "records": [
                {"image_id": r.image_id, "ok": r.ok, "detail": r.detail}
                for r in records.values()
            ],
            "failed": sum(not r.ok for r in records.values()),
            "total": len(records),
        })
    return records


@dataclass(frozen=True)
class ComparisonBundle:
    report: RankChangeReport                 # all compared lineups
    table_true_positive: OutcomeTable        # before-failures (rank > 0)
    table_false_positive: OutcomeTable       # before-successes (rank 0)
    results_before: tuple[LineupResult, ...]


def compare_with_restored(results_before, original, restored,
                          hook_failed=()) -> ComparisonBundle:
    """Fixed-membership re-ranking plus the Tables 1-3 style accounting.

    ``hook_failed`` lists lineup sources whose restoration command failed;
    they are excluded from re-ranking and counted as failed restorations.
    The source embedding is always taken from the original corpus.
    """
    hook_failed = set(hook_failed)
    compared_input = [r for r in results_before if r.lineup.source not in hook_failed]
    report = compare_variants(compared_input, original, restored)
    failed_all = tuple(sorted(set(report.failed) | hook_failed))
    records = report.per_lineup
    full = RankChangeReport(
        per_lineup=records,
        histogram=change_histogram(records),
        failed=failed_all,
    )
    before_rank = {r.lineup.source: r.probe_rank for r in results_before}
    missing = [s for s in failed_all if s not in before_rank]
    if missing:
        raise DataError(f"failed lineup {missing[0]!r} has no before-result")

    def split(positive: bool) -> tuple[RankChangeReport, list]:
        recs = tuple(r for r in records if (r.rank_before > 0) == positive)
        failed = tuple(s for s in failed_all if (before_rank[s] > 0) == positive)
        rep = RankChangeReport(recs, change_histogram(recs), failed)
        kept = {x.lineup_id for x in recs}.union(failed)
        before = [r for r in results_before
                  if (r.probe_rank > 0) == positive and r.lineup.source in kept]
        return rep, before

    tp_report, tp_before = split(True)
    fp_report, fp_before = split(False)
    return ComparisonBundle(
        report=full,
        table_true_positive=summarize_outcomes(tp_report, tp_before),
        table_false_positive=summarize_outcomes(fp_report, fp_before),
        results_before=tuple(compared_input),
    )


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


def emit_reports(config: PipelineConfig, bundle: ComparisonBundle) -> list[Path]:
    """Rank-change CSV, the two outcome tables, and the full JSON detail."""
    Path(config.output).mkdir(parents=True, exist_ok=True)
    names = (RANK_CHANGES_FILE, OUTCOMES_TP_FILE, OUTCOMES_FP_FILE, COMPARISON_FILE)
    paths = [config.out(name) for name in names]
    with _OutputGuard() as guard:
        rank_changes, tp, fp, detail = (guard.track(path) for path in paths)
        write_rank_change_csv(bundle.report, rank_changes)
        write_outcome_csv(bundle.table_true_positive, tp)
        write_outcome_csv(bundle.table_false_positive, fp)
        _write_json(detail, comparison_payload(bundle))
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


def run_compare(config: PipelineConfig, hook_failed=()) -> ComparisonBundle:
    """Compare stored before-results against restored embeddings."""
    original_path = _require(config, "embeddings_original", "paths.embeddings_original")
    restored_path = _require(config, "embeddings_restored", "paths.embeddings_restored")
    manifest_path = config.out(MANIFEST_FILE)
    results_path = config.out(RESULTS_FILE)
    if not manifest_path.is_file() or not results_path.is_file():
        raise ConfigError("lineup manifest/results not found (run 'evaluate' first)")
    lineups = {lu.source: lu for lu in read_lineup_manifest(manifest_path)}
    results = read_results_csv(results_path, lineups)
    original = ingest_embeddings(original_path)
    restored = ingest_embeddings(restored_path)
    bundle = compare_with_restored(results, original, restored, hook_failed=hook_failed)
    emit_reports(config, bundle)
    return bundle


def run_predict_and_restore(config: PipelineConfig) -> ComparisonBundle:
    """Classify every lineup source; restore and re-rank predicted failures.

    The flow: evaluate (if results are missing), extract features (if
    missing), predict, run the hook over predicted-failure lineup members
    (sources are never restored), then re-rank those lineups against the
    externally re-embedded restored corpus and emit the report set.
    """
    original_path = _require(config, "embeddings_original", "paths.embeddings_original")
    restored_path = _require(config, "embeddings_restored", "paths.embeddings_restored")
    manifest_path = config.out(MANIFEST_FILE)
    results_path = config.out(RESULTS_FILE)
    if not manifest_path.is_file() or not results_path.is_file():
        run_evaluate(config)
    if not config.out(FEATURES_FILE).is_file():
        run_features(config)
    predictions = run_predict(config)
    flagged = {sid for sid, _, is_failure in predictions if is_failure}
    lineups = {lu.source: lu for lu in read_lineup_manifest(manifest_path)}
    results = read_results_csv(results_path, lineups)
    selected = [r for r in results if r.lineup.source in flagged]
    hook_failed: set[ImageId] = set()
    hook_records: dict[ImageId, HookRecord] = {}
    if config.hook_command:
        members = [m for r in selected for m in r.lineup.members]
        hook_records = run_hook(config, members)
        for result in selected:
            if any(not hook_records[m].ok for m in result.lineup.members):
                hook_failed.add(result.lineup.source)
    original = ingest_embeddings(original_path)
    restored = ingest_embeddings(restored_path)
    bundle = compare_with_restored(selected, original, restored, hook_failed=hook_failed)
    emit_reports(config, bundle)
    if hook_records:
        failures = sum(not r.ok for r in hook_records.values())
        fraction = failures / len(hook_records)
        if fraction > config.hook_failure_threshold:
            raise HookError(
                f"hook failed for {failures}/{len(hook_records)} images "
                f"({fraction:.0%} > threshold {config.hook_failure_threshold:.0%})"
            )
    return bundle


# ---------------------------------------------------------------------------
# Curate / ingest / index


def run_curate(config: PipelineConfig):
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    landmarks_path = _require(config, "landmarks", "paths.landmarks")
    images_dir = _require(config, "images", "paths.images")
    handle = ingest_embeddings(embeddings_path)
    landmarks = ingest_landmarks(landmarks_path)
    report = corpus_mod.curate(handle, landmarks, images_dir, config.curation_rules())
    Path(config.output).mkdir(parents=True, exist_ok=True)
    with _OutputGuard() as guard:
        corpus_mod.write_embeddings(report.retained, guard.track(config.out(CURATED_FILE)))
        _write_json(guard.track(config.out(CURATION_REPORT_FILE)), {
            "removed": [[sid, reason] for sid, reason in report.removed],
            "counts": report.counts,
            "retained": report.retained.count,
            "total": handle.count,
        })
    return report


def run_ingest(config: PipelineConfig, fmt: str = "binary") -> Path:
    """Validate a corpus and persist it in the requested container format."""
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    handle = ingest_embeddings(embeddings_path)
    Path(config.output).mkdir(parents=True, exist_ok=True)
    path = config.out("embeddings.bin" if fmt == "binary" else "embeddings.jsonl")
    with _OutputGuard() as guard:
        corpus_mod.write_embeddings(handle, guard.track(path), fmt=fmt)
    return path


def run_index(config: PipelineConfig) -> Path:
    embeddings_path = _require(config, "embeddings_original", "paths.embeddings_original")
    handle = ingest_embeddings(embeddings_path)
    index = simindex.build_index(handle)
    Path(config.output).mkdir(parents=True, exist_ok=True)
    path = config.out(INDEX_FILE)
    with _OutputGuard() as guard:
        simindex.save_index(index, guard.track(path))
    return path


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

    paths = [config.out(name) for name in (RANK_CHANGES_FILE, OUTCOMES_TP_FILE, OUTCOMES_FP_FILE)]
    try:
        records = tuple(
            lineup_mod.RankChangeRecord(o["source"], o["rank_before"], o["rank_after"])
            for o in payload["per_lineup"]
        )
        report = RankChangeReport(records, change_histogram(records), tuple(payload["failed"]))
        with _OutputGuard() as guard:
            rank_changes, tp, fp = (guard.track(path) for path in paths)
            write_rank_change_csv(report, rank_changes)
            write_outcome_csv(OutcomeTable(**payload["true_positive_table"]), tp)
            write_outcome_csv(OutcomeTable(**payload["false_positive_table"]), fp)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{comparison_path}: incomplete comparison detail ({exc!r})") from None
    return paths
