"""The features stage: one feature row per lineup (or per corpus image).

It needs the image features and the stored lineups, not the failure
predictor or the restoration hook. ``concurrent.futures`` is imported only
when extraction runs on more than one thread.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

from lineuplab import corpus as corpus_mod
from lineuplab.artifacts import FEATURES_FILE, OutputGuard
from lineuplab.config import PipelineConfig, require_path
from lineuplab.corpus import ingest_landmarks
from lineuplab.filters import Workspace
from lineuplab.imgfeat.features import (
    CLASSICAL_FEATURE_COUNT,
    assemble_feature_vector,
    write_feature_csv,
)
from lineuplab.lineup import stored_lineups
from lineuplab.stages.ingest import load_corpus


def extract_features(config: PipelineConfig, handle, landmarks, targets) -> np.ndarray:
    """One feature row per target image id, in target order, whatever the
    parallelism degree: the (len(targets), dim + 42) float64 matrix.

    It runs no more workers than there are targets. Each worker builds its
    images' planes in one workspace of its own, so once it has seen its
    largest image it allocates no plane-sized array; what it still
    allocates per image is small or grows with the image's edge candidates
    (Canny's hysteresis lists).
    """
    images_dir = require_path(config, "paths.images")
    matrix = np.empty((len(targets), handle.dim + CLASSICAL_FEATURE_COUNT))

    def fill(rows: range) -> None:
        work = Workspace()
        for i in rows:
            target = targets[i]
            img = corpus_mod.load_grayscale_image(corpus_mod.image_path(images_dir, target))
            matrix[i] = assemble_feature_vector(handle.vector(target), img,
                                                landmarks.get(target), work)

    workers = min(config.parallelism, len(targets))
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=workers) as pool:
            list(pool.map(fill, [range(k, len(targets), workers) for k in range(workers)]))
    else:
        fill(range(len(targets)))
    return matrix


def run_features(config: PipelineConfig) -> Path:
    """Feature CSV for the stored lineups, or for all corpus images when
    neither the lineup manifest nor the results are stored.

    With the stored lineups, each row is keyed by the lineup's source id and
    built from the configured target image (source by default, probe
    optionally), and labelled 1 when the lineup failed.
    """
    handle = load_corpus(config)
    landmarks = ingest_landmarks(require_path(config, "paths.landmarks"))
    write_features(config, handle, landmarks, stored_lineups(config))
    return config.out(FEATURES_FILE)


def write_features(config: PipelineConfig, handle, landmarks, results):
    """Commit the feature CSV of the lineups of ``results``, labelled by
    their failures (every corpus image, labelled 0, when None); return the
    ``(ids, labels, matrix)`` triple that ``read_feature_csv`` would parse
    back from it, bit for bit."""
    if results is None:
        ids = targets = sorted(handle.ids)
        labels = np.zeros(len(ids), dtype=np.int64)
    else:
        ids = [r.lineup.source for r in results]
        targets = ids if config.target == "source" else [r.lineup.probe for r in results]
        labels = np.array([int(not r.success) for r in results], dtype=np.int64)
    matrix = extract_features(config, handle, landmarks, targets)
    with OutputGuard() as guard:
        write_feature_csv(ids, labels, matrix, guard.track(config.out(FEATURES_FILE)))
    return ids, labels, matrix
