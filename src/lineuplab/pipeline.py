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
from collections import Counter
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
from lineuplab.failpred.model_io import load_model, save_model, training_report
from lineuplab.imgfeat import (
    CLASSICAL_FEATURE_COUNT,
    assemble_feature_vector,
    read_feature_csv,
    write_feature_csv,
)
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

# subprocess waits on a hook through poll(), whose timeout is a signed 32-bit
# count of milliseconds; a longer hook.timeout overflows it.
MAX_HOOK_TIMEOUT_S = 2_147_483


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
    dark_threshold: float = CurationConfig.dark_threshold
    bright_threshold: float = CurationConfig.bright_threshold
    blur_threshold: float = CurationConfig.blur_threshold
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
        if self.estimators < 1:
            raise ConfigError(f"train.estimators must be >= 1, got {self.estimators}")
        # nan compares false with everything and would switch its rule off;
        # inf stays allowed and means "never" or "always".
        for leaf in ("dark_threshold", "bright_threshold", "blur_threshold"):
            if np.isnan(getattr(self, leaf)):
                raise ConfigError(f"curation.{leaf} must be a number, got nan")
        if self.train_seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.train_seed}")
        if self.target not in ("source", "probe"):
            raise ConfigError(f"train.target must be 'source' or 'probe', got {self.target!r}")
        if self.threshold_override is not None and not 0.25 <= self.threshold_override <= 0.75:
            raise ConfigError(
                f"predict.threshold must lie in [0.25, 0.75], got {self.threshold_override}"
            )
        if not self.hook_timeout > 0:
            raise ConfigError(f"hook.timeout must be > 0, got {self.hook_timeout}")
        if not self.hook_timeout <= MAX_HOOK_TIMEOUT_S:
            raise ConfigError(
                f"hook.timeout must be at most {MAX_HOOK_TIMEOUT_S} s, got {self.hook_timeout}"
            )
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


def _require(config: PipelineConfig, dotted: str) -> Path:
    value = getattr(config, CONFIG_LEAVES[dotted][0])
    if value is None:
        raise ConfigError(f"config value {dotted} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{dotted}: path does not exist: {path}")
    return path


def _corpus(config: PipelineConfig, dotted: str = "paths.embeddings_original"):
    return ingest_embeddings(_require(config, dotted))


class _OutputGuard:
    """Commit-on-success artifact writes.

    ``track`` creates the artifact's directory and hands out a sibling temp
    path to write instead of the final name. A clean exit moves every temp
    file onto its final name with ``os.replace``; an exception, Ctrl-C
    included, removes the temp files and leaves the previous artifacts
    untouched.
    """

    def __init__(self):
        self.pending: dict[Path, Path] = {}

    def track(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
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
        try:
            shlex.split(self.template)
        except ValueError as exc:
            raise ConfigError(f"hook command {self.template!r} cannot be split: {exc}") from None

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

    Returns None when no source is eligible; the (empty) artifacts are still
    written and the summary states that explicitly, with each source's skip
    reason, rather than failing.
    """
    handle = _corpus(config)
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
    with _OutputGuard() as guard:
        write_lineup_manifest([r.lineup for r in results], guard.track(config.out(MANIFEST_FILE)))
        write_results_csv(results, guard.track(config.out(RESULTS_FILE)))
        _write_json(guard.track(config.out(SUMMARY_FILE)), summary)
    return report


# ---------------------------------------------------------------------------
# Features


def extract_features(config: PipelineConfig, handle, landmarks, targets) -> np.ndarray:
    """One feature row per target image id, in target order, whatever the
    parallelism degree: the (len(targets), dim + 42) float64 matrix."""
    images_dir = _require(config, "paths.images")
    matrix = np.empty((len(targets), handle.dim + CLASSICAL_FEATURE_COUNT))

    def fill(i: int) -> None:
        target = targets[i]
        img = corpus_mod.load_grayscale_image(corpus_mod.image_path(images_dir, target))
        matrix[i] = assemble_feature_vector(handle.vector(target), img, landmarks.get(target))

    if config.parallelism > 1:
        with ThreadPoolExecutor(max_workers=config.parallelism) as pool:
            list(pool.map(fill, range(len(targets))))
    else:
        for i in range(len(targets)):
            fill(i)
    return matrix


def run_features(config: PipelineConfig) -> Path:
    """Feature CSV for lineups (when a manifest exists) or all corpus images.

    With a manifest, each row is keyed by the lineup's source id and built
    from the configured target image (source by default, probe optionally);
    labels come from the results CSV when present (1 = lineup failure).
    """
    return _write_features(config)[0]


def _write_features(config: PipelineConfig):
    """``run_features``'s path and the ``(ids, labels, matrix)`` triple it
    wrote, which is what ``read_feature_csv`` returns for the file: the CSV
    holds ``repr`` of finite values, so parsing it gives the same bits."""
    handle = _corpus(config)
    landmarks = ingest_landmarks(_require(config, "paths.landmarks"))
    manifest_path = config.out(MANIFEST_FILE)
    failed: set[str] = set()
    if manifest_path.is_file():
        if config.out(RESULTS_FILE).is_file():
            lineups, results = _stored_lineups(config)
            failed = {r.lineup.source for r in results if not r.success}
        else:
            lineups = read_lineup_manifest(manifest_path)
        ids = [lu.source for lu in lineups]
        targets = ids if config.target == "source" else [lu.probe for lu in lineups]
    else:
        ids = targets = sorted(handle.ids)
    labels = np.array([int(i in failed) for i in ids], dtype=np.int64)
    matrix = extract_features(config, handle, landmarks, targets)
    path = config.out(FEATURES_FILE)
    with _OutputGuard() as guard:
        write_feature_csv(ids, labels, matrix, guard.track(path))
    return path, (ids, labels, matrix)


# ---------------------------------------------------------------------------
# Train / predict


def _model_path(config: PipelineConfig) -> Path:
    return Path(config.model) if config.model else config.out(MODEL_FILE)


def _stored_features(config: PipelineConfig):
    """``read_feature_csv`` of the stored feature CSV. A file ``features``
    wrote holds only finite values (extraction maps nan and inf to 0), so a
    non-finite cell marks a malformed file."""
    path = config.out(FEATURES_FILE)
    if not path.is_file():
        raise ConfigError(f"feature file not found: {path} (run 'features' first)")
    ids, labels, matrix = read_feature_csv(path)
    bad = ~np.isfinite(matrix).all(axis=1)
    if bad.any():
        raise DataError(f"{path}: non-finite feature value in row {ids[int(bad.argmax())]!r}")
    return ids, labels, matrix


def run_train(config: PipelineConfig):
    ids, labels, matrix = _stored_features(config)
    data = dataset_from_arrays(matrix, labels, ids)
    train, val, test = stratified_split(data, seed=config.train_seed)
    model = train_ensemble(
        train, val, EnsembleConfig.default(config.train_seed, config.estimators))
    if config.threshold_override is not None:
        model = replace(model, threshold=config.threshold_override)
    metrics = evaluate_classifier(model, test)
    with _OutputGuard() as guard:
        save_model(model, guard.track(_model_path(config)))
        _write_json(guard.track(config.out(TRAIN_REPORT_FILE)), training_report(model, val))
    return model, metrics


def _load_model_with_override(config: PipelineConfig):
    path = _model_path(config)
    if not path.is_file():
        raise ConfigError(f"model artifact not found: {path} (run 'train' first)")
    model = load_model(path)
    if config.threshold_override is not None:
        model = replace(model, threshold=config.threshold_override)
    return model


def _predict(model, features):
    """(source id, failure probability, predicted failure) per row of
    ``features``, a ``read_feature_csv`` triple."""
    ids, _, matrix = features
    proba = model.predict_proba(matrix)
    return list(zip(ids, proba.tolist(), (proba >= model.threshold).tolist()))


def _write_predictions(config: PipelineConfig, guard: _OutputGuard, predictions) -> None:
    with open(guard.track(config.out(PREDICTIONS_FILE)), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("source_id", "probability", "predicted_failure"))
        for sid, p, flag in predictions:
            writer.writerow((sid, repr(p), "true" if flag else "false"))


def run_predict(config: PipelineConfig):
    """Per-lineup failure probabilities and decisions from stored features."""
    features = _stored_features(config)
    predictions = _predict(_load_model_with_override(config), features)
    with _OutputGuard() as guard:
        _write_predictions(config, guard, predictions)
    return predictions


# ---------------------------------------------------------------------------
# Restore / compare


def run_hook(config: PipelineConfig, hook: RestorationHook,
             member_ids) -> dict[ImageId, HookRecord]:
    """Invoke the restoration hook once per unique member image."""
    images_dir = _require(config, "paths.images")
    restored_dir = config.out("restored_images")
    restored_dir.mkdir(parents=True, exist_ok=True)
    records: dict[ImageId, HookRecord] = {}
    for image_id in sorted(set(member_ids)):
        records[image_id] = hook.run(
            image_id,
            corpus_mod.image_path(images_dir, image_id),
            corpus_mod.image_path(restored_dir, image_id),
        )
    return records


@dataclass(frozen=True)
class ComparisonBundle:
    report: RankChangeReport                 # all compared lineups
    table_true_positive: OutcomeTable        # before-failures (rank > 0)
    table_false_positive: OutcomeTable       # before-successes (rank 0)


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


def _write_report_csvs(config: PipelineConfig, guard: _OutputGuard,
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


def _stored_lineups(config: PipelineConfig) -> tuple[list[Lineup], list[LineupResult]]:
    """The lineup manifest and before-results written by ``evaluate``: the
    manifest's sources are distinct, and the results hold one row per
    manifest lineup, in manifest order."""
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
    return lineups, results


def _rerank(config: PipelineConfig, results, predictions=None,
            hook: RestorationHook | None = None) -> ComparisonBundle:
    """Re-rank ``results`` against the restored corpus and commit the report
    set. ``predictions``, the rows of ``_predict``, marks the restore call:
    they are committed with the reports. A ``hook`` first runs over every
    member image; an image whose run failed is left out of the restored
    corpus, and the hook status is committed with the reports too."""
    original = _corpus(config)
    restored = _corpus(config, "paths.embeddings_restored")
    if restored.dim != original.dim:
        raise DataError(f"{config.embeddings_restored}: restored embeddings have dimension "
                        f"{restored.dim}, the original corpus {original.dim}")
    records = None
    if hook is not None:
        records = run_hook(config, hook, [m for r in results for m in r.lineup.members])
        failed = {image_id for image_id, record in records.items() if not record.ok}
        if failed:
            restored = restored.subset([i for i in restored.ids if i not in failed])
    bundle = compare_with_restored(results, original, restored)
    with _OutputGuard() as guard:
        _write_report_csvs(config, guard, bundle)
        _write_json(guard.track(config.out(COMPARISON_FILE)), comparison_payload(bundle))
        if predictions is not None:
            _write_predictions(config, guard, predictions)
        if records is not None:
            _write_json(guard.track(config.out(HOOK_STATUS_FILE)), {
                "records": [
                    {"image_id": r.image_id, "ok": r.ok, "detail": r.detail}
                    for r in records.values()
                ],
                "failed": len(failed),
                "total": len(records),
            })
    if records and len(failed) / len(records) > config.hook_failure_threshold:
        raise HookError(
            f"hook failed for {len(failed)}/{len(records)} images "
            f"({len(failed) / len(records):.0%} > threshold "
            f"{config.hook_failure_threshold:.0%})"
        )
    return bundle


def run_compare(config: PipelineConfig) -> ComparisonBundle:
    """Re-rank every stored lineup against the restored embeddings."""
    return _rerank(config, _stored_lineups(config)[1])


def _read_checked_features(config: PipelineConfig, lineups, results):
    """``read_feature_csv`` of a reused feature CSV, which must hold the rows
    ``run_features`` would write now: one per lineup source in manifest
    order, labelled 1 for a failed lineup."""
    ids, labels, _ = features = _stored_features(config)
    failed = {r.lineup.source for r in results if not r.success}
    if (ids != [lu.source for lu in lineups]
            or labels.tolist() != [int(lu.source in failed) for lu in lineups]):
        raise DataError(f"{config.out(FEATURES_FILE)} does not match the stored lineups "
                        f"and results (rerun 'features')")
    return features


def run_predict_and_restore(config: PipelineConfig) -> ComparisonBundle:
    """Classify every lineup source; restore and re-rank predicted failures.

    The flow: evaluate (if results are missing), extract features (if
    missing), predict, then run the hook over the predicted-failure lineups'
    members (sources are never restored) and re-rank those lineups against
    the externally re-embedded restored corpus, as ``compare`` does. The
    predictions are committed with the comparison reports, so a re-ranking
    that fails leaves the previous ``predictions.csv`` in place.
    """
    # before evaluate or features commit anything
    _require(config, "paths.embeddings_restored")
    hook = None
    if config.hook_command:
        hook = RestorationHook(config.hook_command, config.hook_timeout)
        _require(config, "paths.images")
    if not config.out(FEATURES_FILE).is_file():
        _require(config, "paths.landmarks")
    model = _load_model_with_override(config)
    if not config.out(MANIFEST_FILE).is_file() or not config.out(RESULTS_FILE).is_file():
        run_evaluate(config)
    lineups, results = _stored_lineups(config)
    if config.out(FEATURES_FILE).is_file():
        features = _read_checked_features(config, lineups, results)
    else:
        features = _write_features(config)[1]
    predictions = _predict(model, features)
    flagged = {sid for sid, _, is_failure in predictions if is_failure}
    return _rerank(config, [r for r in results if r.lineup.source in flagged], predictions,
                   hook)


# ---------------------------------------------------------------------------
# Curate / ingest / index


def run_curate(config: PipelineConfig):
    handle = _corpus(config)
    landmarks = ingest_landmarks(_require(config, "paths.landmarks"))
    images_dir = _require(config, "paths.images")
    report = corpus_mod.curate(handle, landmarks, images_dir, config.curation_rules())
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
    handle = _corpus(config)
    path = config.out("embeddings.bin" if fmt == "binary" else "embeddings.jsonl")
    with _OutputGuard() as guard:
        corpus_mod.write_embeddings(handle, guard.track(path), fmt=fmt)
    return path


def run_index(config: PipelineConfig) -> Path:
    index = simindex.build_index(_corpus(config))
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
    try:
        records = tuple(
            lineup_mod.RankChangeRecord(o["source"], o["rank_before"], o["rank_after"])
            for o in payload["per_lineup"]
        )
        bundle = ComparisonBundle(
            RankChangeReport(records, change_histogram(records), tuple(payload["failed"])),
            OutcomeTable(**payload["true_positive_table"]),
            OutcomeTable(**payload["false_positive_table"]),
        )
        with _OutputGuard() as guard:
            return _write_report_csvs(config, guard, bundle)
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{comparison_path}: incomplete comparison detail ({exc!r})") from None
