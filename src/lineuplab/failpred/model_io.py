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
import math
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np

from lineuplab.errors import DataError, open_text
from lineuplab.failpred.ensemble import (
    BaseClassifierConfig,
    EnsembleModel,
    RebalanceSpec,
    TrainedClassifier,
    binary_metrics,
    evaluate_classifier,
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


# the JSON types a stored tree's entries may have: bool is not an int here
_TREE_ENTRY_TYPES = {"feature": {int}, "left": {int}, "right": {int},
                     "threshold": {int, float}, "value": {int, float}}


def _number(value, name: str) -> float:
    """A finite JSON number: a bool or a numeric string would otherwise load
    as some number, and a nan or inf would make every prediction nan."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise DataError(f"{name} must be a finite JSON number, got {value!r} (rerun 'train')")
    return float(value)


def _numbers(values, name: str) -> np.ndarray:
    """A list of finite JSON numbers, as float64."""
    if not isinstance(values, list) or not {type(v) for v in values} <= {int, float}:
        raise DataError(f"{name} entries must be JSON numbers (rerun 'train')")
    array = np.asarray(values, dtype=np.float64)
    if not np.isfinite(array).all():
        raise DataError(f"{name} entries must be finite (rerun 'train')")
    return array


def _tree_from_obj(obj: dict, dim: int) -> Tree:
    """A stored tree whose descent ends: every split node reads a feature
    in [0, dim) and sends both children to later nodes, the order in which
    ``grow_tree`` allocates them. Indices are JSON integers and thresholds
    and values JSON numbers; a fractional, string or boolean entry would
    otherwise load as some other number."""
    for name, types in _TREE_ENTRY_TYPES.items():
        entries = obj[name]
        if not isinstance(entries, list) or not {type(e) for e in entries} <= types:
            kind = "integers" if types == {int} else "numbers"
            raise DataError(f"tree {name} entries must be JSON {kind} (rerun 'train')")
    tree = Tree(
        feature=np.asarray(obj["feature"], dtype=np.int32),
        threshold=np.asarray(obj["threshold"], dtype=np.float64),
        left=np.asarray(obj["left"], dtype=np.int32),
        right=np.asarray(obj["right"], dtype=np.int32),
        value=np.asarray(obj["value"], dtype=np.float64),
    )
    size = tree.feature.size
    if size < 1 or any(getattr(tree, f.name).shape != (size,) for f in fields(Tree)):
        raise DataError("tree arrays must share one length of at least 1 (rerun 'train')")
    if np.any((tree.feature < -1) | (tree.feature >= dim)):
        raise DataError(f"tree splits on a feature outside [0, {dim}) (rerun 'train')")
    split = np.flatnonzero(tree.feature >= 0)
    for child in (tree.left[split], tree.right[split]):
        if np.any((child <= split) | (child >= size)):
            raise DataError("tree child does not index a later node (rerun 'train')")
    return tree


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


def _model_from_obj(obj: dict, dim: int):
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "logistic":
        coef = _numbers(obj["coef"], "logistic coef")
        if coef.shape != (dim,):
            raise DataError(f"logistic coef has shape {coef.shape}, the standardizer "
                            f"{dim} dimensions (rerun 'train')")
        return LogisticModel(coef=coef, intercept=_number(obj["intercept"], "logistic intercept"))
    if kind == "forest":
        if not obj["trees"]:
            raise DataError("forest learner has no trees (rerun 'train')")
        return ForestModel(trees=tuple(_tree_from_obj(t, dim) for t in obj["trees"]))
    if kind == "boosted":
        return BoostedModel(
            f0=_number(obj["f0"], "boosted f0"),
            learning_rate=_number(obj["learning_rate"], "boosted learning_rate"),
            trees=tuple(_tree_from_obj(t, dim) for t in obj["trees"]),
        )
    raise DataError(f"unknown model kind {kind!r} in artifact (rerun 'train')")


def _classifier_to_obj(tc: TrainedClassifier) -> dict:
    return {
        "rebalance": asdict(tc.spec),
        "config": asdict(tc.config),
        "params": _model_to_obj(tc.model),
    }


def _from_echo(cls, echo: dict):
    """Rebuild a rebalance spec or learner config from its echo, which must
    hold exactly the dataclass's fields."""
    names = {f.name for f in fields(cls)}
    for problem, keys in (("unknown", set(echo) - names), ("missing", names - set(echo))):
        if keys:
            raise DataError(f"learner {cls.__name__} has {problem} key {min(keys)!r}: the "
                            "model was written by another version; rerun 'train'")
    return cls(**echo)


def _classifier_from_obj(obj: dict, dim: int) -> TrainedClassifier:
    return TrainedClassifier(
        spec=_from_echo(RebalanceSpec, obj["rebalance"]),
        config=_from_echo(BaseClassifierConfig, obj["config"]),
        model=_model_from_obj(obj["params"], dim),
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
    # one dumps call runs the C encoder; json.dump always runs the Python one
    text = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text + "\n")
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
    if not isinstance(payload, dict) or payload.get("format") != FORMAT_TAG:
        raise DataError(f"{path}: not a model artifact")
    if payload.get("version") != VERSION:
        raise DataError(f"{path}: unsupported artifact version {payload.get('version')}")
    try:
        standardizer = Standardizer(
            mean=_numbers(payload["standardizer"]["mean"], "standardizer mean"),
            std=_numbers(payload["standardizer"]["std"], "standardizer std"),
        )
        dim = standardizer.dim
        if standardizer.mean.shape != (dim,) or standardizer.std.shape != (dim,):
            raise DataError(f"standardizer mean has shape {standardizer.mean.shape} and std "
                            f"{standardizer.std.shape}; they must match (rerun 'train')")
        if type(payload["seed"]) is not int:
            raise DataError(f"seed must be a JSON integer, got {payload['seed']!r} "
                            "(rerun 'train')")
        cohorts = payload["cohorts"]
        return EnsembleModel(
            precision_models=tuple(_classifier_from_obj(o, dim) for o in cohorts["precision"]),
            recall_models=tuple(_classifier_from_obj(o, dim) for o in cohorts["recall"]),
            standardizer=standardizer,
            threshold=_number(payload["threshold"], "threshold"),
            seed=payload["seed"],
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise DataError(f"{path}: incomplete model artifact ({exc}); rerun 'train'") from None
    except DataError as exc:
        raise DataError(f"{path}: {exc}") from None


def training_report(model: EnsembleModel, val) -> dict:
    """Chosen threshold, grid scores, and per-model validation metrics.

    Base-model rows are scored at the conventional 0.5 boundary; the
    ensemble row uses the tuned threshold.
    """
    Z = model.standardizer.transform(val.matrix)

    def model_rows(cohort):
        return [{
            "family": tc.config.family,
            "ratio": tc.spec.ratio,
            "class_weight": tc.config.class_weight,
            "max_depth": tc.config.max_depth,
            "val": asdict(binary_metrics(val.labels, tc.predict_proba(Z) >= 0.5)),
        } for tc in cohort]

    return {
        "threshold": model.threshold,
        "grid_scores": [{"threshold": t, "score": s} for t, s in model.grid_scores],
        "ensemble_val": asdict(evaluate_classifier(model, val)),
        "models": {
            "precision": model_rows(model.precision_models),
            "recall": model_rows(model.recall_models),
        },
    }
