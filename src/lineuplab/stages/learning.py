"""The learning stages: features, train, predict, restore and the
restoration hook.

Only these stages import the image features, the failure predictor,
``subprocess``, ``shlex`` and ``concurrent.futures``.
"""

from __future__ import annotations

import csv
import shlex
import subprocess
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np

from lineuplab import corpus as corpus_mod
from lineuplab.artifacts import (
    FEATURES_FILE,
    HOOK_STATUS_FILE,
    MANIFEST_FILE,
    MODEL_FILE,
    PREDICTIONS_FILE,
    RESULTS_FILE,
    TRAIN_REPORT_FILE,
    OutputGuard,
    write_json,
)
from lineuplab.config import PipelineConfig, require_path
from lineuplab.corpus import ImageId, ingest_landmarks
from lineuplab.errors import ConfigError, DataError, HookError
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
from lineuplab.lineup import read_lineup_manifest
from lineuplab.report import ComparisonBundle, write_comparison
from lineuplab.stages.ingest import load_corpus, original_and_restored
from lineuplab.stages.search import compare_with_restored, run_evaluate, stored_lineups

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


def run_hook(config: PipelineConfig, hook: RestorationHook,
             member_ids) -> dict[ImageId, HookRecord]:
    """Invoke the restoration hook once per unique member image."""
    images_dir = require_path(config, "paths.images")
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


# ---------------------------------------------------------------------------
# Features


def extract_features(config: PipelineConfig, handle, landmarks, targets) -> np.ndarray:
    """One feature row per target image id, in target order, whatever the
    parallelism degree: the (len(targets), dim + 42) float64 matrix."""
    images_dir = require_path(config, "paths.images")
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
    handle = load_corpus(config)
    landmarks = ingest_landmarks(require_path(config, "paths.landmarks"))
    manifest_path = config.out(MANIFEST_FILE)
    failed: set[str] = set()
    if manifest_path.is_file():
        if config.out(RESULTS_FILE).is_file():
            lineups, results = stored_lineups(config)
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
    with OutputGuard() as guard:
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
    with OutputGuard() as guard:
        save_model(model, guard.track(_model_path(config)))
        write_json(guard.track(config.out(TRAIN_REPORT_FILE)), training_report(model, val))
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


def _write_predictions(config: PipelineConfig, guard: OutputGuard, predictions) -> None:
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
    with OutputGuard() as guard:
        _write_predictions(config, guard, predictions)
    return predictions


# ---------------------------------------------------------------------------
# Restore


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
    the externally re-embedded restored corpus, as ``compare`` does. A member
    whose hook run failed is left out of the restored corpus. The
    predictions and the hook status are committed with the comparison
    reports, so a re-ranking that fails leaves the previous
    ``predictions.csv`` in place.
    """
    # every input is checked before evaluate or features commit anything
    hook = None
    if config.hook_command:
        hook = RestorationHook(config.hook_command, config.hook_timeout)
        require_path(config, "paths.images")
    if not config.out(FEATURES_FILE).is_file():
        require_path(config, "paths.landmarks")
    model = _load_model_with_override(config)
    original, restored = original_and_restored(config)
    if not config.out(MANIFEST_FILE).is_file() or not config.out(RESULTS_FILE).is_file():
        run_evaluate(config)
    lineups, results = stored_lineups(config)
    if config.out(FEATURES_FILE).is_file():
        features = _read_checked_features(config, lineups, results)
    else:
        features = _write_features(config)[1]
    predictions = _predict(model, features)
    flagged = {sid for sid, _, is_failure in predictions if is_failure}
    results = [r for r in results if r.lineup.source in flagged]
    records = None
    if hook is not None:
        records = run_hook(config, hook, [m for r in results for m in r.lineup.members])
        failed = {image_id for image_id, record in records.items() if not record.ok}
        if failed:
            restored = restored.subset([i for i in restored.ids if i not in failed])
    bundle = compare_with_restored(results, original, restored)
    with OutputGuard() as guard:
        write_comparison(config, guard, bundle)
        _write_predictions(config, guard, predictions)
        if records is not None:
            write_json(guard.track(config.out(HOOK_STATUS_FILE)), {
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
