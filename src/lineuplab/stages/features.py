"""The features stage: one feature row per lineup (or per corpus image).

It needs the image features and the stored lineups, not the failure
predictor or the restoration hook. ``concurrent.futures`` is imported only
when extraction runs on more than one thread.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lineuplab import corpus as corpus_mod
from lineuplab.artifacts import FEATURES_FILE, MANIFEST_FILE, RESULTS_FILE, OutputGuard
from lineuplab.config import PipelineConfig, require_path
from lineuplab.corpus import ingest_landmarks
from lineuplab.imgfeat.features import (
    CLASSICAL_FEATURE_COUNT,
    assemble_feature_vector,
    write_feature_csv,
)
from lineuplab.lineup import read_lineup_manifest
from lineuplab.stages.ingest import load_corpus
from lineuplab.stages.search import stored_lineups


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
        from concurrent.futures import ThreadPoolExecutor

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
    handle = load_corpus(config)
    landmarks = ingest_landmarks(require_path(config, "paths.landmarks"))
    lineups = results = None
    if config.out(RESULTS_FILE).is_file() and config.out(MANIFEST_FILE).is_file():
        results = stored_lineups(config)
        lineups = [r.lineup for r in results]
    elif config.out(MANIFEST_FILE).is_file():
        lineups = read_lineup_manifest(config.out(MANIFEST_FILE))
    write_features(config, handle, landmarks, lineups, results)
    return config.out(FEATURES_FILE)


def write_features(config: PipelineConfig, handle, landmarks, lineups, results):
    """Commit the feature CSV of ``lineups`` (every corpus image when None),
    labelled by ``results``; return the ``(ids, labels, matrix)`` triple
    that ``read_feature_csv`` would parse back from it, bit for bit."""
    if lineups is None:
        ids = targets = sorted(handle.ids)
    else:
        ids = [lu.source for lu in lineups]
        targets = ids if config.target == "source" else [lu.probe for lu in lineups]
    failed = {r.lineup.source for r in results or () if not r.success}
    labels = np.array([int(i in failed) for i in ids], dtype=np.int64)
    matrix = extract_features(config, handle, landmarks, targets)
    with OutputGuard() as guard:
        write_feature_csv(ids, labels, matrix, guard.track(config.out(FEATURES_FILE)))
    return ids, labels, matrix
