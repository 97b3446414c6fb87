#!/usr/bin/env python3
"""Train the dual-cohort failure predictor on an imbalanced synthetic set:
stratified split, per-learner rebalancing, threshold tuning on the grid,
and a save/load round trip.

Run: python3 demos/03_failure_prediction.py
"""

import tempfile
from pathlib import Path

import numpy as np

from lineuplab.failpred import (
    EnsembleConfig,
    RebalanceSpec,
    THRESHOLD_GRID,
    binary_metrics,
    cross_validate,
    dataset_from_arrays,
    load_model,
    rebalance,
    save_model,
    stratified_split,
    train_ensemble,
)


def main(workdir: Path) -> None:
    rng = np.random.default_rng(42)

    # 2,000 lineups, 15% failures. Failed lineups drift away from the success
    # cloud by two units per feature dimension.
    n, failures, dim = 2000, 300, 6
    X = rng.normal(size=(n, dim))
    X[:failures] += 2.0
    y = np.concatenate([np.ones(failures, np.int8), np.zeros(n - failures, np.int8)])
    order = rng.permutation(n)
    data = dataset_from_arrays(X[order], y[order])

    train, val, test = stratified_split(data, fractions=(0.72, 0.08, 0.20), seed=3)
    print(f"split: {train.size} train / {val.size} val / {test.size} test")
    print(f"failure share: {float(train.labels.mean()):.3f} in train")

    # Rebalancing controls how many successes each base learner sees per
    # failure. A high ratio keeps the learner precise; a low one makes it eager.
    for ratio, objective in ((2.0, "precision"), (0.7, "recall")):
        subset = rebalance(train, RebalanceSpec(ratio=ratio, seed=1, objective=objective))
        share = 100.0 * float(np.mean(subset.labels == 1))
        print(f"  ratio {ratio}: {subset.size} rows, {share:.1f}% failures ({objective} cohort)")

    # Full ensemble: ten precision-leaning and ten recall-leaning learners,
    # fused by the geometric mean of the two cohort averages.
    model = train_ensemble(train, val, EnsembleConfig.default(3, 16))
    print(f"\ntrained 10+10 learners; threshold {model.threshold:.4f} "
          f"picked from a {len(THRESHOLD_GRID)}-point grid "
          f"[{THRESHOLD_GRID[0]:.2f}, {THRESHOLD_GRID[-1]:.2f}]")

    held_out = binary_metrics(test.labels, model.classify(test.matrix))
    print(f"held-out: precision {held_out.precision:.3f}  "
          f"recall {held_out.recall:.3f}  f1 {held_out.f1:.3f}")

    # Artifacts round-trip bitwise: floats are serialized by repr.
    path = save_model(model, workdir / "model.json")
    clone = load_model(path)
    same = np.array_equal(model.predict_proba(test.matrix), clone.predict_proba(test.matrix))
    print(f"model saved to {path}; reloaded predictions identical: {same}")

    stability = cross_validate(EnsembleConfig.default(3, 16), data, folds=5, seed=3)
    print(f"\n5-fold stability: CoV precision {stability.cov_precision:.4f}, "
          f"CoV recall {stability.cov_recall:.4f}")
    for i, fold in enumerate(stability.per_fold):
        print(f"  fold {i}: precision {fold.precision:.3f}  recall {fold.recall:.3f}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="lineuplab_demo_") as tmp:
        main(Path(tmp))
