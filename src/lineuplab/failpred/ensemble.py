"""Dual-cohort failure-prediction ensemble.

Twenty base classifiers: ten trained on conservatively rebalanced data
(success:failure ratios 1.2 to 2.0) for precision, ten on aggressively
rebalanced data (0.7 to 1.1) for recall. ``COHORTS`` holds each cohort's
constants, and ``cohort_specs`` turns one entry into its ten learner plans;
four learner families rotate round-robin across each cohort's ten datasets.
The ensemble probability is the geometric mean of the two cohort means, and
the decision threshold is tuned on validation data over a 50-point grid from
0.25 to 0.75.

Every row cut is one stratified cut, ``_stratified_parts``: the
train/val/test split, the cross-validation folds and each fold's validation
carve-out differ only in the part sizes they deal each class into.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from lineuplab.errors import DataError
from lineuplab.failpred import learners
from lineuplab.failpred.learners import TreeParams, class_sample_weights, one_class
from lineuplab.imgfeat.standardize import Standardizer, fit_standardizer

SPLIT_FRACTIONS = (0.72, 0.08, 0.20)
THRESHOLD_GRID = np.linspace(0.25, 0.75, 50)

# objective -> the cohort's constants. Learner i takes ratio i and class
# weight i, family i and depth i round-robin, and the shared learner fields.
COHORTS = {
    "precision": {
        "ratios": np.linspace(1.2, 2.0, 10),
        "families": ("logistic", "gradient_boosting", "random_forest", "xgb_style"),
        "depths": (3, 4, 5, 6, 7, 8),
        "class_weights": np.full(10, 1.2),
        "learner": {"C": 1.0, "min_split": 20, "min_leaf": 10, "learning_rate": 0.1},
    },
    "recall": {
        "ratios": np.linspace(0.7, 1.1, 10),
        "families": ("logistic", "extra_trees", "random_forest", "xgb_style"),
        "depths": (8, 9, 10),
        "class_weights": np.linspace(1.5, 2.5, 10),
        "learner": {"C": 0.1, "min_split": 10, "min_leaf": 5, "learning_rate": 0.05},
    },
}

TREE_ESTIMATOR_CAP = 100


@dataclass(frozen=True)
class LabeledDataset:
    """Feature rows with binary labels; label 1 marks a lineup failure."""

    ids: tuple[str, ...]
    matrix: np.ndarray        # (n, d) float64
    labels: np.ndarray        # (n,) int8

    def __post_init__(self):
        if self.matrix.shape[0] != self.labels.shape[0] or len(self.ids) != self.labels.shape[0]:
            raise DataError("dataset rows, labels, and ids must align")

    @property
    def size(self) -> int:
        return int(self.labels.shape[0])

    def take(self, rows) -> "LabeledDataset":
        rows = np.asarray(rows)
        return LabeledDataset(
            ids=tuple(self.ids[i] for i in rows),
            matrix=self.matrix[rows],
            labels=self.labels[rows],
        )


def dataset_from_arrays(matrix, labels, ids=None) -> LabeledDataset:
    matrix = np.asarray(matrix, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.int8)
    if matrix.ndim != 2:
        raise DataError("feature matrix must be 2-D")
    if ids is None:
        ids = tuple(str(i) for i in range(matrix.shape[0]))
    return LabeledDataset(ids=tuple(ids), matrix=matrix, labels=labels)


# ---------------------------------------------------------------------------
# Splitting and rebalancing


def _largest_remainder(n: int, fractions) -> list[int]:
    """Integer allocation of n by fractions; remainders break ties by order."""
    exact = [n * f for f in fractions]
    floors = [int(math.floor(e)) for e in exact]
    short = n - sum(floors)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:short]:
        floors[i] += 1
    return floors


def _stratified_parts(labels: np.ndarray, rng: np.random.Generator, sizes,
                      minimum: int) -> list[np.ndarray]:
    """The sorted row indices of each part. For class 0 and then class 1,
    the class's rows in ``rng.permutation`` order are dealt into consecutive
    runs of ``sizes(count)`` rows, one run per part."""
    runs = []
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        if rows.size < minimum:
            raise DataError(f"class {cls} has {rows.size} samples, need at least {minimum}")
        runs.append(np.split(rng.permutation(rows), np.cumsum(sizes(rows.size))[:-1]))
    return [np.sort(np.concatenate(part)) for part in zip(*runs)]


def stratified_split(data: LabeledDataset, fractions=SPLIT_FRACTIONS, seed: int = 0):
    """Split preserving per-class proportions within one sample.

    Classes are allocated independently by largest remainder, then shuffled
    deterministically and dealt into (train, val, test).
    """
    if abs(sum(fractions) - 1.0) > 1e-9:
        raise DataError(f"split fractions must sum to 1, got {sum(fractions)}")
    parts = _stratified_parts(data.labels, np.random.default_rng(seed),
                              lambda n: _largest_remainder(n, fractions), 3)
    return tuple(data.take(rows) for rows in parts)


@dataclass(frozen=True)
class RebalanceSpec:
    ratio: float      # successes kept per failure
    seed: int
    objective: str    # "precision" | "recall"

    def __post_init__(self):
        if self.ratio <= 0:
            raise DataError(f"rebalance ratio must be positive, got {self.ratio}")


def rebalance(train: LabeledDataset, spec: RebalanceSpec) -> LabeledDataset:
    """Undersample successes to round(ratio * failures); failures all stay.

    Rounding is half-up for cross-platform stability. Kept rows preserve
    their original order, so downstream training is order-deterministic.
    """
    failures = np.flatnonzero(train.labels == 1)
    successes = np.flatnonzero(train.labels == 0)
    if failures.size == 0:
        raise DataError("rebalance needs at least one failure sample")
    want = int(math.floor(spec.ratio * failures.size + 0.5))
    if want > successes.size:
        raise DataError(
            f"rebalance ratio {spec.ratio} needs {want} successes, only {successes.size} available"
        )
    rng = np.random.default_rng(spec.seed)
    kept = rng.choice(successes, size=want, replace=False)
    rows = np.sort(np.concatenate([failures, kept]))
    return train.take(rows)


# ---------------------------------------------------------------------------
# Base classifier configuration


@dataclass(frozen=True)
class BaseClassifierConfig:
    family: str
    seed: int
    C: float = 1.0
    n_estimators: int = TREE_ESTIMATOR_CAP
    max_depth: int = 6
    min_split: int = 20
    min_leaf: int = 10
    class_weight: float = 1.0   # loss weight on the failure class
    learning_rate: float = 0.1
    leaf_penalty: float = 1.0   # L2 leaf regularization (xgb_style only)

    def tree_params(self) -> TreeParams:
        return TreeParams(
            max_depth=self.max_depth,
            min_split=self.min_split,
            min_leaf=self.min_leaf,
            random_thresholds=self.family == "extra_trees",
        )


def cohort_specs(objective: str, seeds, n_estimators: int):
    """The ten (rebalance spec, learner config) pairs of one ``COHORTS``
    entry; ``seeds`` holds each learner's (rebalance, learner) seed pair."""
    c = COHORTS[objective]
    return tuple(
        (RebalanceSpec(float(ratio), rebalance_seed, objective), BaseClassifierConfig(
            family=c["families"][i % len(c["families"])],
            seed=learner_seed,
            n_estimators=n_estimators,
            max_depth=c["depths"][i % len(c["depths"])],
            class_weight=float(c["class_weights"][i]),
            **c["learner"],
        ))
        for i, (ratio, (rebalance_seed, learner_seed)) in enumerate(zip(c["ratios"], seeds))
    )


def _spawn_seed_pairs(seed: int, count: int):
    """Deterministic (rebalance_seed, learner_seed) integer pairs."""
    children = np.random.SeedSequence(seed).spawn(count)
    return [tuple(int(s) for s in child.generate_state(2)) for child in children]


@dataclass(frozen=True)
class EnsembleConfig:
    seed: int = 0
    precision: tuple = ()
    recall: tuple = ()

    @staticmethod
    def default(seed: int = 0, n_estimators: int = TREE_ESTIMATOR_CAP) -> "EnsembleConfig":
        """The twenty-learner plan; tree learners grow ``n_estimators``
        trees, capped at 100."""
        pairs = _spawn_seed_pairs(seed, 20)
        budget = min(n_estimators, TREE_ESTIMATOR_CAP)
        return EnsembleConfig(
            seed=seed,
            precision=cohort_specs("precision", pairs[:10], budget),
            recall=cohort_specs("recall", pairs[10:], budget),
        )


# ---------------------------------------------------------------------------
# Training


@dataclass(frozen=True)
class TrainedClassifier:
    spec: RebalanceSpec
    config: BaseClassifierConfig
    model: object  # LogisticModel | ForestModel | BoostedModel

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return self.model.predict_proba(X)


def train_base(config: BaseClassifierConfig, X: np.ndarray, y: np.ndarray):
    """Fit one base learner on standardized features."""
    y = np.asarray(y)
    if one_class(y):
        raise DataError("base training set must contain both classes")
    w = class_sample_weights(y, config.class_weight)
    if config.family == "logistic":
        return learners.fit_logistic(X, y, w, C=config.C)
    if config.family in ("random_forest", "extra_trees"):
        rng = np.random.default_rng(config.seed)
        return learners.fit_forest(X, y, w, config.n_estimators, config.tree_params(), rng)
    if config.family == "gradient_boosting":
        return learners.fit_gradient_boosting(
            X, y, w, config.n_estimators, config.learning_rate, config.tree_params()
        )
    if config.family == "xgb_style":
        return learners.fit_regularized_boosting(
            X, y, w, config.n_estimators, config.learning_rate, config.tree_params(),
            lam=config.leaf_penalty,
        )
    raise DataError(f"unknown learner family {config.family!r}")


@dataclass(frozen=True)
class EnsembleModel:
    precision_models: tuple[TrainedClassifier, ...]
    recall_models: tuple[TrainedClassifier, ...]
    standardizer: Standardizer
    threshold: float
    seed: int = 0
    grid_scores: tuple = field(default=(), repr=False)

    def __post_init__(self):
        if not 0.25 <= self.threshold <= 0.75:
            raise DataError(f"threshold {self.threshold} outside [0.25, 0.75]")
        if not (self.precision_models and self.recall_models):
            raise DataError("each cohort needs at least one learner")

    def _cohort_mean(self, models, Z: np.ndarray) -> np.ndarray:
        acc = np.zeros(Z.shape[0])
        for tc in models:
            acc += tc.predict_proba(Z)
        return acc / len(models)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        """Geometric mean of the cohort means; X is raw (unstandardized)."""
        X = np.atleast_2d(np.asarray(X, dtype=np.float64))
        Z = self.standardizer.transform(X)
        p_prec = self._cohort_mean(self.precision_models, Z)
        p_rec = self._cohort_mean(self.recall_models, Z)
        return np.sqrt(p_prec * p_rec)

    def classify(self, X: np.ndarray) -> np.ndarray:
        """Predicted failure when the probability reaches the threshold."""
        return self.predict_proba(X) >= self.threshold


def train_ensemble(train: LabeledDataset, val: LabeledDataset,
                   config: EnsembleConfig) -> EnsembleModel:
    standardizer = fit_standardizer(train.matrix)
    Xtr = standardizer.transform(train.matrix)
    train_std = LabeledDataset(train.ids, Xtr, train.labels)
    cohorts = []
    for cohort in (config.precision, config.recall):
        if len(cohort) != 10:
            raise DataError(f"each cohort needs 10 specs, got {len(cohort)}")
        fitted = []
        for spec, base_cfg in cohort:
            subset = rebalance(train_std, spec)
            model = train_base(base_cfg, subset.matrix, subset.labels)
            fitted.append(TrainedClassifier(spec=spec, config=base_cfg, model=model))
        cohorts.append(tuple(fitted))
    model = EnsembleModel(
        precision_models=cohorts[0],
        recall_models=cohorts[1],
        standardizer=standardizer,
        threshold=float(THRESHOLD_GRID[0]),
        seed=config.seed,
    )
    threshold, grid_scores = optimize_threshold(model, val)
    return replace(model, threshold=threshold, grid_scores=grid_scores)


# ---------------------------------------------------------------------------
# Threshold and metrics


@dataclass(frozen=True)
class Metrics:
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    fn: int
    tn: int


def binary_metrics(labels: np.ndarray, predicted: np.ndarray) -> Metrics:
    labels = np.asarray(labels).astype(bool)
    predicted = np.asarray(predicted).astype(bool)
    tp = int(np.count_nonzero(labels & predicted))
    fp = int(np.count_nonzero(~labels & predicted))
    fn = int(np.count_nonzero(labels & ~predicted))
    tn = int(np.count_nonzero(~labels & ~predicted))
    precision = tp / (tp + fp) if tp + fp > 0 else 0.0
    recall = tp / (tp + fn) if tp + fn > 0 else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall > 0 else 0.0
    return Metrics(precision, recall, f1, tp, fp, fn, tn)


def threshold_score(m: Metrics) -> float:
    """F1 when both precision and recall clear 0.5, else F1 - 1."""
    if m.precision >= 0.5 and m.recall >= 0.5:
        return m.f1
    return m.f1 - 1.0


def optimize_threshold(model: EnsembleModel, val: LabeledDataset):
    """Best grid threshold on validation data, ties to the lowest value, and
    the ``(threshold, score)`` pair of every grid point."""
    if val.size == 0:
        raise DataError("threshold optimization needs a non-empty validation set")
    proba = model.predict_proba(val.matrix)
    scores = []
    recalls = []
    for t in THRESHOLD_GRID:
        m = binary_metrics(val.labels, proba >= t)
        scores.append(threshold_score(m))
        recalls.append(m.recall)
    # Raising the threshold can only shrink the predicted-positive set.
    diffs = np.diff(recalls)
    if np.any(diffs > 0):
        raise AssertionError("recall increased along the ascending threshold grid")
    best = int(np.argmax(scores))  # first maximum = lowest threshold
    threshold = float(THRESHOLD_GRID[best])
    return threshold, tuple(zip(map(float, THRESHOLD_GRID), map(float, scores)))


def evaluate_classifier(model: EnsembleModel, test: LabeledDataset) -> Metrics:
    if test.size == 0:
        raise DataError("evaluation needs a non-empty dataset")
    return binary_metrics(test.labels, model.classify(test.matrix))


# ---------------------------------------------------------------------------
# Cross-validation


@dataclass(frozen=True)
class StabilityReport:
    per_fold: tuple[Metrics, ...]
    cov_precision: float
    cov_recall: float


def _cov(values) -> float:
    values = np.asarray(values, dtype=np.float64)
    mean = values.mean()
    if mean == 0.0:
        return 0.0
    return float(values.std() / mean)


def cross_validate(config: EnsembleConfig, data: LabeledDataset,
                   folds: int = 5, seed: int = 0) -> StabilityReport:
    """Stratified k-fold stability check.

    Each fold's training portion donates a deterministic 10% validation
    carve-out for threshold tuning; metrics come from the held-out fold.
    """
    if folds < 2:
        raise DataError(f"cross-validation needs at least 2 folds, got {folds}")
    fold_indices = _stratified_parts(
        data.labels, np.random.default_rng(seed),
        lambda n: [n // folds + (i < n % folds) for i in range(folds)], folds)
    metrics: list[Metrics] = []
    for held in range(folds):
        train_rows = np.sort(np.concatenate(
            [fold_indices[i] for i in range(folds) if i != held]
        ))
        fit_part = data.take(train_rows)
        inner_train, inner_val = _carve_validation(fit_part, rng_seed=seed + held + 1)
        model = train_ensemble(inner_train, inner_val, config=config)
        metrics.append(evaluate_classifier(model, data.take(fold_indices[held])))
    return StabilityReport(
        per_fold=tuple(metrics),
        cov_precision=_cov([m.precision for m in metrics]),
        cov_recall=_cov([m.recall for m in metrics]),
    )


def _carve_sizes(n: int) -> list[int]:
    val = min(n, max(1, int(math.floor(n * 0.1 + 0.5))))
    return [val, n - val]


def _carve_validation(part: LabeledDataset, rng_seed: int):
    """Stratified 90/10 train/val carve-out inside one CV fold."""
    val, rest = _stratified_parts(part.labels, np.random.default_rng(rng_seed),
                                  _carve_sizes, 0)
    return part.take(rest), part.take(val)
