"""The restore stage and the restoration hook.

``restore`` loads each input once and runs the evaluate, features and
predict stage functions over the loaded values, so it imports those stage
modules; only this module imports ``subprocess`` and ``shlex``.
"""

from __future__ import annotations

import shlex
import subprocess
from dataclasses import dataclass
from pathlib import Path

from lineuplab import corpus as corpus_mod
from lineuplab.artifacts import (
    FEATURES_FILE,
    HOOK_STATUS_FILE,
    MANIFEST_FILE,
    RESULTS_FILE,
    OutputGuard,
    write_json,
)
from lineuplab.config import PipelineConfig, require_path
from lineuplab.corpus import ImageId, ingest_landmarks
from lineuplab.errors import ConfigError, DataError, HookError
from lineuplab.report import ComparisonBundle, write_comparison
from lineuplab.stages.features import write_features
from lineuplab.stages.ingest import original_and_restored
from lineuplab.stages.predictor import (
    load_model_with_override,
    predict_rows,
    stored_features,
    write_predictions,
)
from lineuplab.stages.search import compare_with_restored, evaluate, stored_lineups

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
# Restore


def run_predict_and_restore(config: PipelineConfig) -> ComparisonBundle:
    """Classify every lineup source; restore and re-rank predicted failures.

    Each input is loaded once, before anything commits: the hook,
    ``paths.images`` (when the hook or extraction reads it), the landmarks
    (when ``features.csv`` is absent), the model and both corpora. Over those
    values it evaluates (if results are missing), extracts features (if
    missing), predicts, runs the hook over the predicted-failure lineups'
    members (sources are never restored) and re-ranks those lineups against
    the externally re-embedded restored corpus, as ``compare`` does. A member
    whose hook run failed is left out of the restored corpus. The predictions
    and the hook status are committed with the comparison reports, so a
    re-ranking that fails leaves the previous ``predictions.csv`` in place.
    """
    hook = (RestorationHook(config.hook_command, config.hook_timeout)
            if config.hook_command else None)
    extract = not config.out(FEATURES_FILE).is_file()
    if hook is not None or extract:
        require_path(config, "paths.images")
    landmarks = ingest_landmarks(require_path(config, "paths.landmarks")) if extract else None
    model = load_model_with_override(config)
    original, restored = original_and_restored(config)
    if config.out(MANIFEST_FILE).is_file() and config.out(RESULTS_FILE).is_file():
        results = stored_lineups(config)
    else:
        report = evaluate(config, original)
        results = report.results if report else ()
    if extract:
        features = write_features(config, original, landmarks, [r.lineup for r in results],
                                  results)
    else:
        features = stored_features(config)
        if (features[0] != [r.lineup.source for r in results]
                or features[1].tolist() != [int(not r.success) for r in results]):
            raise DataError(f"{config.out(FEATURES_FILE)} does not match the stored lineups "
                            f"and results (rerun 'features')")
    predictions = predict_rows(model, features)
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
        write_predictions(config, guard, predictions)
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
