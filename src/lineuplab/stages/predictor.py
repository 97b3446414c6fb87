"""The predictor stages: train and predict, from the stored feature CSV.

They load the failure predictor and the feature-CSV reader only: no image
features, corpus, lineups, search index or restoration hook.
"""

from __future__ import annotations

import csv
from dataclasses import replace
from pathlib import Path

import numpy as np

from lineuplab.artifacts import (
    FEATURES_FILE,
    MODEL_FILE,
    PREDICTIONS_FILE,
    TRAIN_REPORT_FILE,
    OutputGuard,
    write_json,
)
from lineuplab.config import PipelineConfig
from lineuplab.errors import ConfigError, DataError
from lineuplab.failpred.ensemble import (
    EnsembleConfig,
    dataset_from_arrays,
    evaluate_classifier,
    stratified_split,
    train_ensemble,
)
from lineuplab.failpred.model_io import load_model, save_model, training_report
from lineuplab.imgfeat.table import read_feature_csv


def _model_path(config: PipelineConfig) -> Path:
    return Path(config.model) if config.model else config.out(MODEL_FILE)


def stored_features(config: PipelineConfig):
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
    ids, labels, matrix = stored_features(config)
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


def load_model_with_override(config: PipelineConfig):
    path = _model_path(config)
    if not path.is_file():
        raise ConfigError(f"model artifact not found: {path} (run 'train' first)")
    model = load_model(path)
    if config.threshold_override is not None:
        model = replace(model, threshold=config.threshold_override)
    return model


def predict_rows(model, features):
    """(source id, failure probability, predicted failure) per row of
    ``features``, a ``read_feature_csv`` triple."""
    ids, _, matrix = features
    proba = model.predict_proba(matrix)
    return list(zip(ids, proba.tolist(), (proba >= model.threshold).tolist()))


def write_predictions(config: PipelineConfig, guard: OutputGuard, predictions) -> None:
    with open(guard.track(config.out(PREDICTIONS_FILE)), "w", encoding="utf-8",
              newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(("source_id", "probability", "predicted_failure"))
        for sid, p, flag in predictions:
            writer.writerow((sid, repr(p), "true" if flag else "false"))


def run_predict(config: PipelineConfig):
    """Per-lineup failure probabilities and decisions from stored features."""
    features = stored_features(config)
    predictions = predict_rows(load_model_with_override(config), features)
    with OutputGuard() as guard:
        write_predictions(config, guard, predictions)
    return predictions
