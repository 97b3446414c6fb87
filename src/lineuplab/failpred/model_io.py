"""Single-file JSON model artifact.

Layout (version 1):
    format: "lineup-failure-ensemble"
    version: 1
    seed, threshold
    standardizer: {mean: [...], std: [...]}
    cohorts: {precision: [model...], recall: [model...]}

Each model entry echoes its rebalance spec and config for audit, plus the
fitted parameters. Floats serialize through Python's repr, which round-trips
float64 exactly, so a save/load cycle preserves predictions bit for bit.
"""

from __future__ import annotations

import json
from dataclasses import asdict
from pathlib import Path

import numpy as np

from lineuplab.errors import DataError, open_text
from lineuplab.failpred.ensemble import (
    BaseClassifierConfig,
    EnsembleModel,
    RebalanceSpec,
    TrainedClassifier,
)
from lineuplab.failpred.learners import BoostedModel, ForestModel, LogisticModel, Tree
from lineuplab.imgfeat.standardize import Standardizer

FORMAT_TAG = "lineup-failure-ensemble"
VERSION = 1


def _tree_to_obj(tree: Tree) -> dict:
    return {
        "feature": tree.feature.tolist(),
        "threshold": tree.threshold.tolist(),
        "left": tree.left.tolist(),
        "right": tree.right.tolist(),
        "value": tree.value.tolist(),
    }


def _tree_from_obj(obj: dict) -> Tree:
    return Tree(
        feature=np.asarray(obj["feature"], dtype=np.int32),
        threshold=np.asarray(obj["threshold"], dtype=np.float64),
        left=np.asarray(obj["left"], dtype=np.int32),
        right=np.asarray(obj["right"], dtype=np.int32),
        value=np.asarray(obj["value"], dtype=np.float64),
    )


def _model_to_obj(model) -> dict:
    if isinstance(model, LogisticModel):
        return {
            "kind": "logistic",
            "coef": model.coef.tolist(),
            "intercept": model.intercept,
        }
    if isinstance(model, ForestModel):
        return {"kind": "forest", "trees": [_tree_to_obj(t) for t in model.trees]}
    if isinstance(model, BoostedModel):
        return {
            "kind": "boosted",
            "f0": model.f0,
            "learning_rate": model.learning_rate,
            "trees": [_tree_to_obj(t) for t in model.trees],
        }
    raise DataError(f"cannot serialize model of type {type(model).__name__}")


def _model_from_obj(obj: dict):
    kind = obj.get("kind")
    if kind == "logistic":
        return LogisticModel(
            coef=np.asarray(obj["coef"], dtype=np.float64),
            intercept=float(obj["intercept"]),
        )
    if kind == "forest":
        return ForestModel(trees=tuple(_tree_from_obj(t) for t in obj["trees"]))
    if kind == "boosted":
        return BoostedModel(
            f0=float(obj["f0"]),
            learning_rate=float(obj["learning_rate"]),
            trees=tuple(_tree_from_obj(t) for t in obj["trees"]),
        )
    raise DataError(f"unknown model kind {kind!r} in artifact")


def _classifier_to_obj(tc: TrainedClassifier) -> dict:
    return {
        "rebalance": asdict(tc.spec),
        "config": asdict(tc.config),
        "params": _model_to_obj(tc.model),
    }


def _classifier_from_obj(obj: dict) -> TrainedClassifier:
    return TrainedClassifier(
        spec=RebalanceSpec(**obj["rebalance"]),
        config=BaseClassifierConfig(**obj["config"]),
        model=_model_from_obj(obj["params"]),
    )


def save_model(model: EnsembleModel, path) -> Path:
    path = Path(path)
    payload = {
        "format": FORMAT_TAG,
        "version": VERSION,
        "seed": model.seed,
        "threshold": model.threshold,
        "standardizer": {
            "mean": model.standardizer.mean.tolist(),
            "std": model.standardizer.std.tolist(),
        },
        "cohorts": {
            "precision": [_classifier_to_obj(tc) for tc in model.precision_models],
            "recall": [_classifier_to_obj(tc) for tc in model.recall_models],
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return path


def load_model(path) -> EnsembleModel:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"model artifact not found: {path}")
    try:
        with open_text(path) as fh:
            payload = json.load(fh)
    except json.JSONDecodeError as exc:
        raise DataError(f"{path}: malformed model artifact ({exc.msg})") from None
    if payload.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: not a model artifact")
    if payload.get("version") != VERSION:
        raise DataError(f"{path}: unsupported artifact version {payload.get('version')}")
    try:
        standardizer = Standardizer(
            mean=np.asarray(payload["standardizer"]["mean"], dtype=np.float64),
            std=np.asarray(payload["standardizer"]["std"], dtype=np.float64),
        )
        return EnsembleModel(
            precision_models=tuple(
                _classifier_from_obj(o) for o in payload["cohorts"]["precision"]
            ),
            recall_models=tuple(
                _classifier_from_obj(o) for o in payload["cohorts"]["recall"]
            ),
            standardizer=standardizer,
            threshold=float(payload["threshold"]),
            seed=int(payload["seed"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise DataError(f"{path}: incomplete model artifact ({exc})") from None


def _metrics_obj(m) -> dict:
    return {
        "precision": m.precision, "recall": m.recall, "f1": m.f1,
        "tp": m.tp, "fp": m.fp, "fn": m.fn, "tn": m.tn,
    }


def save_training_report(model: EnsembleModel, val, path) -> Path:
    """Chosen threshold, grid scores, and per-model validation metrics.

    Base-model rows are scored at the conventional 0.5 boundary; the
    ensemble row uses the tuned threshold.
    """
    from lineuplab.failpred.ensemble import binary_metrics, evaluate_classifier

    path = Path(path)
    Z = model.standardizer.transform(val.matrix)

    def model_rows(cohort):
        rows = []
        for tc in cohort:
            m = binary_metrics(val.labels, tc.predict_proba(Z) >= 0.5)
            rows.append({
                "family": tc.config.family,
                "ratio": tc.spec.ratio,
                "class_weight": tc.config.class_weight,
                "max_depth": tc.config.max_depth,
                "val": _metrics_obj(m),
            })
        return rows

    payload = {
        "threshold": model.threshold,
        "grid_scores": [{"threshold": t, "score": s} for t, s in model.grid_scores],
        "ensemble_val": _metrics_obj(evaluate_classifier(model, val)),
        "models": {
            "precision": model_rows(model.precision_models),
            "recall": model_rows(model.recall_models),
        },
    }
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
