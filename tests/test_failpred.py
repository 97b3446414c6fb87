"""Failure-prediction tests: splitting, rebalancing, learners, the
dual-cohort ensemble, threshold tuning, and the model artifact."""

import gc
import hashlib
import json
import weakref
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from conftest import traced_peak
from lineuplab.errors import DataError
from lineuplab.failpred import (
    BaseClassifierConfig,
    EnsembleConfig,
    EnsembleModel,
    RebalanceSpec,
    THRESHOLD_GRID,
    cohort_specs,
    cross_validate,
    dataset_from_arrays,
    evaluate_classifier,
    load_model,
    optimize_threshold,
    rebalance,
    save_model,
    stratified_split,
    train_base,
    train_ensemble,
    training_report,
)
from lineuplab.failpred.ensemble import Metrics, binary_metrics, threshold_score
from lineuplab.failpred import ensemble, learners, model_io
from lineuplab.failpred.learners import (
    Tree,
    TreeParams,
    class_sample_weights,
    fit_gradient_boosting,
)
from lineuplab.imgfeat.standardize import Standardizer
from lineuplab.stages.predictor import predict_rows

FAMILIES = ("logistic", "gradient_boosting", "random_forest", "xgb_style", "extra_trees")


def labeled_blobs(rng, n, failures, d=4, sep=2.0):
    """Separable two-class data: failure rows shifted by sep per dimension."""
    labels = np.zeros(n, dtype=np.int8)
    labels[:failures] = 1
    X = rng.normal(size=(n, d))
    X[labels == 1] += sep
    perm = rng.permutation(n)
    return dataset_from_arrays(X[perm], labels[perm])


# ---------------------------------------------------------------------------
# Stratified split


def test_split_preserves_class_proportions_exactly():
    data = labeled_blobs(np.random.default_rng(1), n=200, failures=100)
    train, val, test = stratified_split(data, seed=0)
    for part, want in zip((train, val, test), (144, 16, 40)):
        assert part.size == want
        assert int(np.sum(part.labels == 1)) == want // 2


def test_split_allocation_within_one_of_exact():
    # 37 failures / 53 successes: neither class divides evenly.
    data = labeled_blobs(np.random.default_rng(2), n=90, failures=37)
    parts = stratified_split(data, seed=5)
    for cls, cls_n in ((1, 37), (0, 53)):
        counts = [int(np.sum(p.labels == cls)) for p in parts]
        assert sum(counts) == cls_n
        for count, frac in zip(counts, (0.72, 0.08, 0.20)):
            assert abs(count - cls_n * frac) < 1.0


def test_split_parts_partition_the_dataset():
    data = labeled_blobs(np.random.default_rng(3), n=117, failures=41)
    parts = stratified_split(data, seed=9)
    ids = [i for p in parts for i in p.ids]
    assert sorted(ids) == sorted(data.ids)
    assert len(set(ids)) == data.size
    for part in parts:
        rows = [int(i) for i in part.ids]
        assert rows == sorted(rows)  # take() keeps original row order


def test_split_deterministic_per_seed():
    data = labeled_blobs(np.random.default_rng(4), n=80, failures=30)
    first = stratified_split(data, seed=7)
    second = stratified_split(data, seed=7)
    for a, b in zip(first, second):
        assert a.ids == b.ids
    shuffled = stratified_split(data, seed=8)
    assert any(a.ids != b.ids for a, b in zip(first, shuffled))


def test_split_rejects_tiny_class():
    data = labeled_blobs(np.random.default_rng(5), n=20, failures=2)
    with pytest.raises(DataError, match="class 1 has 2"):
        stratified_split(data, seed=0)


def test_split_rejects_bad_fractions():
    data = labeled_blobs(np.random.default_rng(6), n=20, failures=8)
    with pytest.raises(DataError, match="sum to 1"):
        stratified_split(data, fractions=(0.5, 0.2, 0.2), seed=0)


# ---------------------------------------------------------------------------
# Rebalancing


def test_rebalance_counts():
    data = labeled_blobs(np.random.default_rng(7), n=600, failures=100)
    conservative = rebalance(data, RebalanceSpec(2.0, seed=1, objective="precision"))
    assert int(np.sum(conservative.labels == 0)) == 200
    assert int(np.sum(conservative.labels == 1)) == 100
    aggressive = rebalance(data, RebalanceSpec(0.7, seed=1, objective="recall"))
    assert int(np.sum(aggressive.labels == 0)) == 70


def test_rebalance_rounds_half_up():
    # 2 failures at ratio 1.25 ask for 2.5 successes; half-up keeps 3.
    data = labeled_blobs(np.random.default_rng(8), n=7, failures=2)
    out = rebalance(data, RebalanceSpec(1.25, seed=0, objective="precision"))
    assert int(np.sum(out.labels == 0)) == 3


def test_rebalance_keeps_every_failure_and_row_order():
    data = labeled_blobs(np.random.default_rng(9), n=300, failures=60)
    spec = RebalanceSpec(1.5, seed=42, objective="precision")
    out = rebalance(data, spec)
    failure_ids = {i for i, y in zip(data.ids, data.labels) if y == 1}
    kept_failures = {i for i, y in zip(out.ids, out.labels) if y == 1}
    assert kept_failures == failure_ids
    rows = [int(i) for i in out.ids]
    assert rows == sorted(rows)
    again = rebalance(data, spec)
    assert again.ids == out.ids


def test_rebalance_shortage_raises():
    data = labeled_blobs(np.random.default_rng(10), n=100, failures=45)
    with pytest.raises(DataError, match="only 55 available"):
        rebalance(data, RebalanceSpec(2.0, seed=0, objective="precision"))


def test_rebalance_needs_failures():
    data = dataset_from_arrays(np.zeros((4, 2)), [0, 0, 0, 0])
    with pytest.raises(DataError, match="at least one failure"):
        rebalance(data, RebalanceSpec(1.0, seed=0, objective="recall"))


def test_rebalance_spec_rejects_nonpositive_ratio():
    with pytest.raises(DataError, match="positive"):
        RebalanceSpec(0.0, seed=0, objective="recall")


# ---------------------------------------------------------------------------
# Base learners


@pytest.mark.parametrize("family", FAMILIES)
def test_family_separates_shifted_blobs(family):
    rng = np.random.default_rng(77)
    labels = np.zeros(500, dtype=np.int8)
    labels[:250] = 1
    X = rng.normal(size=(500, 2))
    X[labels == 1, 0] += 4.0
    perm = rng.permutation(500)
    X, labels = X[perm], labels[perm]
    config = BaseClassifierConfig(family=family, seed=9, n_estimators=30)
    model = train_base(config, X[:300], labels[:300])
    acc = float(np.mean((model.predict_proba(X[300:]) >= 0.5) == labels[300:]))
    assert acc >= 0.9

    again = train_base(config, X[:300], labels[:300])
    assert np.array_equal(model.predict_proba(X[300:]), again.predict_proba(X[300:]))


PRIOR_TOLERANCE = {
    "logistic": 1e-6,
    "gradient_boosting": 1e-9,
    "xgb_style": 1e-9,
    # forest leaves hold bootstrap means, so the prior is only approached
    "random_forest": 0.05,
    "extra_trees": 0.05,
}


@pytest.mark.parametrize("family", FAMILIES)
def test_constant_features_predict_weighted_prior(family):
    y = np.zeros(200, dtype=np.int8)
    y[:60] = 1
    X = np.zeros((200, 3))
    config = BaseClassifierConfig(family=family, seed=3, n_estimators=25, class_weight=2.0)
    model = train_base(config, X, y)
    prior = 2.0 * 60 / (2.0 * 60 + 140)
    proba = model.predict_proba(np.zeros((5, 3)))
    assert proba == pytest.approx([prior] * 5, abs=PRIOR_TOLERANCE[family])


def logistic_objective_and_gradient(model, X, y, w, C):
    """The fitted objective and the norm of its gradient in (coef, intercept)."""
    z = X @ model.coef + model.intercept
    loss = np.logaddexp(0.0, z) - y * z
    err = w * (0.5 * (1.0 + np.tanh(0.5 * z)) - y)
    grad = np.append(X.T @ err + model.coef / C, err.sum())
    return float(w @ loss + model.coef @ model.coef / (2.0 * C)), float(np.linalg.norm(grad))


# n < d and n == d take the (n + 1) kernel system, n > d the (d + 1) primal one.
LOGISTIC_SHAPES = [(10, 554), (80, 80), (300, 40)]


@pytest.mark.parametrize("C", [1.0, 0.1])
@pytest.mark.parametrize("shape", LOGISTIC_SHAPES, ids=lambda s: f"{s[0]}x{s[1]}")
def test_logistic_reaches_the_primal_newton_optimum(shape, C, monkeypatch):
    n, d = shape
    rng = np.random.default_rng(n * d)
    X = rng.normal(size=(n, d))
    y = (X[:, 0] + X[:, 1] + rng.normal(scale=1.5, size=n) > 0).astype(np.int8)
    w = rng.uniform(0.5, 2.5, size=n)
    solve, sizes = np.linalg.solve, []
    monkeypatch.setattr(np.linalg, "solve", lambda A, b: sizes.append(len(A)) or solve(A, b))
    model = learners.fit_logistic(X, y, w, C=C)
    monkeypatch.undo()
    # A handful of Newton steps, each in the smaller of n and d.
    assert 0 < len(sizes) <= 12 and set(sizes) == {min(n, d) + 1}

    objective, grad_norm = logistic_objective_and_gradient(model, X, y, w, C)
    assert grad_norm <= 1e-9 * objective
    coef, intercept = oracles.logistic_newton_primal(X, y, w, C)
    want = np.append(coef, intercept)
    got = np.append(model.coef, model.intercept)
    assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)

    again = learners.fit_logistic(X, y, w, C=C)
    assert np.array_equal(again.coef, model.coef) and again.intercept == model.intercept


@pytest.mark.parametrize("shape", [(12, 30), (60, 4)], ids=["kernel", "primal"])
@pytest.mark.parametrize("scale", [1.0, 1e3])
def test_logistic_fits_well_separated_data_without_warning(shape, scale):
    # The suite turns every warning into an error, so a fit that overflows,
    # divides by zero or meets a singular system fails here.
    n, d = shape
    rng = np.random.default_rng(5)
    y = np.arange(n) % 2
    X = rng.normal(size=(n, d))
    X[:, 0] += np.where(y == 1, 20.0, -20.0)
    model = learners.fit_logistic(scale * X, y, class_sample_weights(y, 2.0), C=1.0)
    assert np.isfinite(model.coef).all() and np.isfinite(model.intercept)
    assert np.array_equal(model.predict_proba(scale * X) >= 0.5, y == 1)


def test_logistic_fits_duplicate_rows():
    # Six distinct rows, each three times: K = X X^T has rank 6 of 18, but
    # diag(s) K + I/C stays nonsingular.
    rng = np.random.default_rng(8)
    X = np.repeat(rng.normal(size=(6, 25)), 3, axis=0)
    y = np.repeat(np.array([0, 1, 0, 1, 1, 0]), 3)
    w = class_sample_weights(y, 1.5)
    model = learners.fit_logistic(X, y, w, C=1.0)
    objective, grad_norm = logistic_objective_and_gradient(model, X, y, w, 1.0)
    assert grad_norm <= 1e-9 * objective
    tripled = learners.fit_logistic(X[::3], y[::3], 3.0 * w[::3], C=1.0)
    assert np.allclose(model.coef, tripled.coef, rtol=1e-8, atol=1e-10)


def test_train_base_rejects_single_class():
    X = np.random.default_rng(0).normal(size=(10, 2))
    with pytest.raises(DataError, match="both classes"):
        train_base(BaseClassifierConfig(family="logistic", seed=0), X, np.ones(10, dtype=np.int8))


@pytest.mark.parametrize("labels", [[], [1] * 10, [0] * 10],
                         ids=["empty", "all_failures", "all_successes"])
@pytest.mark.parametrize("fit, message", [
    ("train_base", "base training set must contain both classes"),
    ("fit_logistic", "logistic training needs both classes"),
    ("fit_forest", "forest training needs both classes"),
])
def test_single_class_labels_are_refused(fit, message, labels):
    y = np.array(labels, dtype=np.int8)
    X = np.random.default_rng(0).normal(size=(y.size, 2))
    w = np.ones(y.size)
    with pytest.raises(DataError, match=f"^{message}$"):
        if fit == "train_base":
            train_base(BaseClassifierConfig(family="random_forest", seed=0), X, y)
        elif fit == "fit_logistic":
            learners.fit_logistic(X, y, w)
        else:
            learners.fit_forest(X, y, w, 2, TreeParams(max_depth=2, min_split=2, min_leaf=1),
                                np.random.default_rng(0))


def test_train_base_rejects_unknown_family():
    X = np.zeros((6, 1))
    y = np.array([0, 0, 0, 1, 1, 1], dtype=np.int8)
    with pytest.raises(DataError, match="unknown learner family"):
        train_base(BaseClassifierConfig(family="svm", seed=0), X, y)


def test_class_sample_weights():
    y = np.array([0, 1, 1, 0])
    assert class_sample_weights(y, 2.5).tolist() == [1.0, 2.5, 2.5, 1.0]


def test_tree_sends_boundary_value_left():
    tree = Tree(
        feature=np.array([0, -1, -1], dtype=np.int32),
        threshold=np.array([1.0, 0.0, 0.0]),
        left=np.array([1, -1, -1], dtype=np.int32),
        right=np.array([2, -1, -1], dtype=np.int32),
        value=np.array([0.5, 0.0, 1.0]),
    )
    X = np.array([[0.5], [1.0], [1.0000001]])
    assert tree.predict(X).tolist() == [0.0, 0.0, 1.0]


def _split_problem(criterion: str, n: int = 40):
    """Seeded rows whose label follows a rounded, heavily tied column, next to
    a continuous, a constant and an integer-valued column; plus the criterion
    and the (a, b) statistics the oracle scores."""
    rng = np.random.default_rng(11)
    X = np.column_stack([
        rng.normal(size=n),
        np.round(rng.normal(size=n)),
        np.full(n, 2.0),
        rng.integers(0, 3, size=n).astype(np.float64),
        rng.normal(size=n),
    ])
    y = (X[:, 1] + 0.5 * rng.normal(size=n) > 0.3).astype(np.float64)
    # Rows ordered by label: inside a run of tied values the row order alone
    # would separate the classes, so a boundary between ties must never win.
    order = np.argsort(-y, kind="stable")
    X, y = X[order], y[order]
    w = rng.uniform(0.5, 2.0, size=n)
    p = 0.4
    if criterion == "gini":
        return X, learners._gini(y, w), y, w
    if criterion == "lsq":
        return X, learners._least_squares(y - p, np.full(n, p * (1 - p)), w), y - p, w
    g, h = w * (p - y), w * p * (1 - p)
    return X, learners._second_order(g, h, 1.0), g, h


@pytest.mark.parametrize("min_leaf", [1, 18])
@pytest.mark.parametrize("criterion", ["gini", "lsq", "second_order"])
def test_depth_one_tree_matches_exhaustive_split_oracle(criterion, min_leaf):
    X, crit, a, b = _split_problem(criterion)
    xt, sorted_ids = np.ascontiguousarray(X.T), learners.presort_columns(X)
    params = TreeParams(max_depth=1, min_split=2, min_leaf=min_leaf)
    tree = learners.grow_tree(xt, sorted_ids, crit, params, None)
    feature, threshold, gain = oracles.best_split(X, a, b, criterion, min_leaf)
    assert gain > learners.SPLIT_EPS
    assert (tree.feature[0], tree.threshold[0]) == (feature, threshold)
    left = X[:, feature] <= threshold
    got = crit.gain(crit.s1[left].sum(), crit.s2[left].sum(), crit.s1.sum(), crit.s2.sum())
    assert float(got) == pytest.approx(gain, rel=1e-9)
    assert min(left.sum(), (~left).sum()) >= min_leaf


def _golden_problem(n: int = 150):
    """Seeded 150 x 12 rows: two rounded, heavily tied columns, a constant
    column and nine continuous ones; the label follows the tied columns."""
    rng = np.random.default_rng(2033)
    X = rng.normal(size=(n, 12))
    X[:, 2] = np.round(X[:, 2])
    X[:, 5] = np.round(2.0 * X[:, 5]) / 2.0
    X[:, 8] = 3.0
    score = X[:, 2] + X[:, 5] + 0.8 * rng.normal(size=n)
    y = (score > np.quantile(score, 0.7)).astype(np.int8)
    return X, y


# sha256 of the sorted-key JSON of each tree learner's serialized model, and
# of one 4-estimator ensemble's model.json, as written by the engine these
# digests were recorded with. A change to the tree engine must keep them.
GOLDEN_DIGESTS = {
    "random_forest-s3-leaf1-cw1":
        "48f13e75e5ec8d443d5cf3c30ddab582c1d8b899a231169f74aed22119e99b1a",
    "random_forest-s3-leaf1-cw2":
        "969d8a69e793267785300e2c89352581dad8f70de56d1cc0fbd26e9e80f308ab",
    "random_forest-s3-leaf10-cw1":
        "ed69712b1f5c5244933feb9f1a50bac41e5400e729d566cec346acc624fc21c4",
    "random_forest-s3-leaf10-cw2":
        "9492c43c92218bd75d5bf801ea396de94bfec1f0fff3df17e4de65399439372b",
    "random_forest-s8-leaf1-cw1":
        "0a39b1735c2e90f09d50f5c08efeb5d05a5fa3bbed3542e658912573b4c5f768",
    "random_forest-s8-leaf1-cw2":
        "be4220b5ab48ff27a74f0905f440951f5416693efb01f202d67092e547189a3f",
    "random_forest-s8-leaf10-cw1":
        "bc02a4ac444122042e5cc5f6625522d9c74f00eb55e68bec2d6438e9fce043b1",
    "random_forest-s8-leaf10-cw2":
        "40f59e85fad99036fc6fba3dba9fd250e1446a98d599cf57a58844d2d0189fdf",
    "extra_trees-s3-leaf1-cw1":
        "040157bd219015d003a38660869c3822388c8758353b8e35e9b912c2baea0e7f",
    "extra_trees-s3-leaf1-cw2":
        "2c4c43974ea1b4230152126032e714365e8015271491232d540aa1d3a6445293",
    "extra_trees-s3-leaf10-cw1":
        "5dfe1a2a7c7a74e0cf61cea3671a393b01109a9dcbae269864bc6a1f9a150cee",
    "extra_trees-s3-leaf10-cw2":
        "473831afc156b9ae8d249c3cda29f3df25ccf79fe582ce715a4c5fb0607fa46c",
    "extra_trees-s8-leaf1-cw1":
        "f121852915d1f3841db59bc6fa498880deec6fb4fed393a15a159bac3646869f",
    "extra_trees-s8-leaf1-cw2":
        "9602c2a45ae5d2e94ba8d4c4fb71c0dac72031906218d81bae457e99d4b50747",
    "extra_trees-s8-leaf10-cw1":
        "30d30a921da33269b1a4fb0060ac0e9a93bd11d06e77289cbe9f1602fdc64c2d",
    "extra_trees-s8-leaf10-cw2":
        "9b23b4bf2521412cd5d0858638fb841e0d1995391611a41d4d24d1036fef8aab",
    "gradient_boosting-s3-leaf1-cw1":
        "c98627f1f1c01042767df0e65d222c1d432276b8943fb602f71522b35af114ae",
    "gradient_boosting-s3-leaf1-cw2":
        "ba9849dfd4cf6e4400897c34461e2326c3a86549fbc177fc7e93802f70ff2fcb",
    "gradient_boosting-s3-leaf10-cw1":
        "6dadf6b4a79b4d6dbfc6624d487a5ba5b21bf75d0741c25337d984fad574dda9",
    "gradient_boosting-s3-leaf10-cw2":
        "c6d13d1feffebc21c0ff1b40cbd5b20ac662040e5f66dff27e36354b5f7cc1c9",
    "gradient_boosting-s8-leaf1-cw1":
        "c98627f1f1c01042767df0e65d222c1d432276b8943fb602f71522b35af114ae",
    "gradient_boosting-s8-leaf1-cw2":
        "ba9849dfd4cf6e4400897c34461e2326c3a86549fbc177fc7e93802f70ff2fcb",
    "gradient_boosting-s8-leaf10-cw1":
        "6dadf6b4a79b4d6dbfc6624d487a5ba5b21bf75d0741c25337d984fad574dda9",
    "gradient_boosting-s8-leaf10-cw2":
        "c6d13d1feffebc21c0ff1b40cbd5b20ac662040e5f66dff27e36354b5f7cc1c9",
    "xgb_style-s3-leaf1-cw1":
        "c1605d17542bde0f3335fd7dd3db4592aba4eeb941ad77c81202f722eb132962",
    "xgb_style-s3-leaf1-cw2":
        "a24a005600bf630f47000cb4ade908741062465959bb0220c8178b30f4c87ef1",
    "xgb_style-s3-leaf10-cw1":
        "0dfb6c4a88d3ed8555454d98b370844bdc646870a6ed227f41d9472a449e539f",
    "xgb_style-s3-leaf10-cw2":
        "dc69c004b786b52ae9bcb2b5df204e4504416397686bcdafeaf20372678d6b6b",
    "xgb_style-s8-leaf1-cw1":
        "c1605d17542bde0f3335fd7dd3db4592aba4eeb941ad77c81202f722eb132962",
    "xgb_style-s8-leaf1-cw2":
        "a24a005600bf630f47000cb4ade908741062465959bb0220c8178b30f4c87ef1",
    "xgb_style-s8-leaf10-cw1":
        "0dfb6c4a88d3ed8555454d98b370844bdc646870a6ed227f41d9472a449e539f",
    "xgb_style-s8-leaf10-cw2":
        "dc69c004b786b52ae9bcb2b5df204e4504416397686bcdafeaf20372678d6b6b",
    "ensemble":
        "cd1784e8b0463b9d4c3045720681653046fcdd2c3e6b40346f8fd68228017ba4",
}

def test_grow_tree_frees_its_inputs_on_return():
    """No reference cycle outlives ``grow_tree``: the feature-major copy and
    the criterion arrays are freed when the caller drops them, without
    waiting for the cyclic collector."""
    X, crit = _split_problem("gini")[:2]
    xt, sorted_ids = np.ascontiguousarray(X.T), learners.presort_columns(X)
    refs = [weakref.ref(xt), weakref.ref(crit.s1), weakref.ref(crit.s2)]
    gc.disable()
    try:
        tree = learners.grow_tree(xt, sorted_ids, crit,
                                  TreeParams(max_depth=4, min_split=2, min_leaf=1), None)
        del xt, crit
        assert [ref() is None for ref in refs] == [True, True, True]
    finally:
        gc.enable()
    assert tree.feature.size > 1


TREE_FAMILIES = ("random_forest", "extra_trees", "gradient_boosting", "xgb_style")
GOLDEN_CASES = [
    f"{family}-s{seed}-leaf{min_leaf}-cw{class_weight}"
    for family in TREE_FAMILIES for seed in (3, 8) for min_leaf in (1, 10)
    for class_weight in (1, 2)
] + ["ensemble"]


def _golden_bytes(case: str, tmp_path) -> bytes:
    X, y = _golden_problem()
    if case == "ensemble":
        data = dataset_from_arrays(X, y)
        train, val, _ = stratified_split(data, seed=4)
        path = save_model(train_ensemble(train, val, EnsembleConfig.default(6, 4)),
                          tmp_path / "model.json")
        return path.read_bytes()
    family, seed, min_leaf, class_weight = case.split("-")
    config = BaseClassifierConfig(
        family=family, seed=int(seed[1:]), n_estimators=3, max_depth=5, min_split=4,
        min_leaf=int(min_leaf[4:]), class_weight=float(class_weight[2:]))
    obj = model_io._model_to_obj(train_base(config, X, y))
    return json.dumps(obj, sort_keys=True).encode()


@pytest.mark.parametrize("case", GOLDEN_CASES)
def test_tree_learners_match_golden_digest(case, tmp_path):
    digest = hashlib.sha256(_golden_bytes(case, tmp_path)).hexdigest()
    assert digest == GOLDEN_DIGESTS[case]


def test_grown_tree_threshold_is_left_boundary_value():
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    y = np.array([0, 0, 1, 1], dtype=np.int8)
    params = TreeParams(max_depth=1, min_split=2, min_leaf=1)
    model = fit_gradient_boosting(X, y, np.ones(4), 1, 1.0, params)
    tree = model.trees[0]
    assert tree.feature[0] == 0
    assert tree.threshold[0] == 1.0  # largest value routed left


@pytest.mark.parametrize("block_values", [1, 300])
@pytest.mark.parametrize("family", TREE_FAMILIES)
def test_split_blocks_grow_the_one_block_trees(monkeypatch, family, block_values):
    """One feature per block, or two at the 150-row root, grows the trees
    that one block of every drawn feature grows: forests draw their mtry
    features, and extra trees their thresholds, once per node either way."""
    X, y = _golden_problem()
    config = BaseClassifierConfig(family=family, seed=5, n_estimators=3, max_depth=5,
                                  min_split=4, min_leaf=2, class_weight=2.0)

    def fit():
        return json.dumps(model_io._model_to_obj(train_base(config, X, y)), sort_keys=True)

    monkeypatch.setattr(learners, "BLOCK_VALUES", 2 ** 40)
    want = fit()
    monkeypatch.setattr(learners, "BLOCK_VALUES", block_values)
    assert fit() == want


def test_split_tie_across_a_block_boundary_picks_the_lower_feature(monkeypatch):
    X, crit = _split_problem("gini")[:2]
    # features 1 and 2 are the label's column twice, in blocks {0, 1} and {2, 3}
    X = np.column_stack([X[:, 4], X[:, 1], X[:, 1], X[:, 0]])
    monkeypatch.setattr(learners, "BLOCK_VALUES", 2 * X.shape[0])
    xt, sorted_ids = np.ascontiguousarray(X.T), learners.presort_columns(X)
    split = learners._best_split(xt, sorted_ids, crit,
                                 TreeParams(max_depth=1, min_split=2, min_leaf=1), None)
    assert split[0] == 1


def test_split_scores_one_feature_per_block_past_the_budget(monkeypatch):
    X, crit = _split_problem("second_order")[:2]
    xt, sorted_ids = np.ascontiguousarray(X.T), learners.presort_columns(X)
    params = TreeParams(max_depth=1, min_split=2, min_leaf=3)
    want = learners._best_split(xt, sorted_ids, crit, params, None)
    scored = []

    def gain(*sums):
        scored.append(sums[0].shape[0])
        return crit.gain(*sums)

    monkeypatch.setattr(learners, "BLOCK_VALUES", X.shape[0] - 1)
    got = learners._best_split(xt, sorted_ids, replace(crit, gain=gain), params, None)
    assert scored == [1] * X.shape[1]
    assert got[:2] == want[:2] and np.array_equal(got[2], want[2])


def test_split_search_memory_does_not_grow_with_the_features(rng):
    n, d = 2_000, 554
    X = rng.normal(size=(n, d))
    sorted_ids, peak = traced_peak(lambda: learners.presort_columns(X))
    assert peak <= sorted_ids.nbytes + 2**20
    xt = np.ascontiguousarray(X.T)
    y = (X[:, 0] > 0).astype(np.float64)
    crit = learners._second_order(0.4 - y, np.full(n, 0.24), 1.0)
    params = TreeParams(max_depth=6, min_split=4, min_leaf=1)
    (feature, _, left), peak = traced_peak(
        lambda: learners._best_split(xt, sorted_ids, crit, params, None))
    assert feature == 0
    # the (d, n) mask it returns, plus split temporaries that do not grow with d
    assert peak <= left.nbytes + 2 * 2**20


def _rebalanced_rows(X, y, ratio=1.3):
    """The ascending rows ``rebalance`` keeps of the numbered (X, y)."""
    numbered = dataset_from_arrays(X, y, ids=range(len(y)))
    return np.asarray(rebalance(numbered, RebalanceSpec(ratio, seed=2, objective="recall")).ids)


def test_restricted_order_is_the_subsets_own_stable_sort():
    X, y = _golden_problem()
    X[:, 0] = np.round(X[:, 0])  # more ties; column 8 is constant
    rows = _rebalanced_rows(X, y)
    got = learners.restrict_order(learners.presort_columns(X), rows)
    assert got.dtype == np.int32
    assert np.array_equal(got, learners.presort_columns(X[rows]))


@pytest.mark.parametrize("family", TREE_FAMILIES)
def test_learner_fitted_from_the_shared_order_matches_its_own_presort(family):
    """A learner given the training set's sort restricted to its rebalanced
    rows writes the bytes of one that sorts those rows itself."""
    X, y = _golden_problem()
    rows = _rebalanced_rows(X, y)
    config = BaseClassifierConfig(family=family, seed=7, n_estimators=3, max_depth=6,
                                  min_split=4, min_leaf=2, class_weight=1.5)

    def fit(*order):
        return json.dumps(model_io._model_to_obj(train_base(config, X[rows], y[rows], *order)),
                          sort_keys=True)

    order = learners.restrict_order(learners.presort_columns(X), rows)
    assert fit(order) == fit()


def test_train_ensemble_sorts_the_training_rows_once(monkeypatch):
    X, y = _golden_problem()
    train, val, _ = stratified_split(dataset_from_arrays(X, y), seed=4)
    calls = []

    def presort(matrix):
        calls.append(matrix.shape)
        return presort_columns(matrix)

    presort_columns = learners.presort_columns
    monkeypatch.setattr(learners, "presort_columns", presort)
    train_ensemble(train, val, EnsembleConfig.default(6, 2))
    assert calls == [train.matrix.shape]


def test_forest_nodes_read_only_the_feature_rows_they_drew():
    """Every feature row of the order that no node of a forest tree drew is
    replaced by out-of-range ids: the tree must not change, so no node read
    a row it did not draw."""
    rng = np.random.default_rng(17)
    n, d = 120, 300
    X = rng.normal(size=(n, d))
    X[:, 1::2] = np.round(X[:, 1::2])
    y = (X[:, :40].sum(axis=1) + rng.normal(size=n) > 0).astype(np.float64)
    counts = np.bincount(rng.choice(n, size=n), minlength=n).astype(np.float64)
    xt, order = np.ascontiguousarray(X.T), learners.presort_columns(X)
    params = TreeParams(max_depth=4, min_split=4, min_leaf=2, mtry=3)
    drawn = set()

    class Recording:
        """The generator, recording the features each node draws."""

        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)

        def choice(self, *args, **kwargs):
            feats = self.rng.choice(*args, **kwargs)
            drawn.update(feats.tolist())
            return feats

        def uniform(self, *args):
            return self.rng.uniform(*args)

    for random_thresholds in (False, True):
        params = replace(params, random_thresholds=random_thresholds)
        drawn.clear()
        want = learners.grow_tree(xt, order, learners._gini(y, counts), params,
                                  Recording(5), counts > 0)
        assert want.feature.size > 7 and len(drawn) < d // 2
        poisoned = order.copy()
        poisoned[sorted(set(range(d)) - drawn)] = n + 1
        got = learners.grow_tree(xt, poisoned, learners._gini(y, counts), params,
                                 np.random.default_rng(5), counts > 0)
        assert json.dumps(model_io._tree_to_obj(got)) == json.dumps(model_io._tree_to_obj(want))


# ---------------------------------------------------------------------------
# Ensemble probability and threshold


class _FixedProba:
    """Stand-in base model returning a preset probability per row."""

    def __init__(self, values):
        self._values = np.asarray(values, dtype=np.float64)

    def predict_proba(self, Z):
        assert Z.shape[0] == self._values.shape[0]
        return self._values.copy()


def stub_ensemble(precision_probas, recall_probas, threshold=0.5, d=1):
    identity = Standardizer(mean=np.zeros(d), std=np.ones(d))
    return EnsembleModel(
        precision_models=tuple(_FixedProba(p) for p in precision_probas),
        recall_models=tuple(_FixedProba(p) for p in recall_probas),
        standardizer=identity,
        threshold=threshold,
    )


def test_probability_is_geometric_mean_of_cohort_means():
    model = stub_ensemble(
        precision_probas=([0.2, 0.9], [0.6, 0.9]),  # means 0.4, 0.9
        recall_probas=([0.9, 0.1],),
    )
    got = model.predict_proba(np.zeros((2, 1)))
    assert got == pytest.approx([0.6, 0.3], rel=1e-12)
    assert np.array_equal(got, model.predict_proba(np.zeros((2, 1))))


def test_classify_threshold_is_inclusive():
    # 0.5 and 0.25 square and root exactly, so the boundary case is exact.
    model = stub_ensemble(([0.5, 0.25],), ([0.5, 0.25],), threshold=0.5)
    assert model.classify(np.zeros((2, 1))).tolist() == [True, False]


def test_model_rejects_threshold_outside_range():
    with pytest.raises(DataError, match="outside"):
        stub_ensemble(([0.5],), ([0.5],), threshold=0.1)


def test_threshold_grid_shape():
    assert THRESHOLD_GRID.shape == (50,)
    assert float(THRESHOLD_GRID[0]) == 0.25
    assert float(THRESHOLD_GRID[-1]) == 0.75
    assert np.all(np.diff(THRESHOLD_GRID) > 0)


def _manual_best_threshold(labels, proba):
    """Independent scan: F1 when precision and recall both reach 0.5,
    F1 - 1 otherwise; first maximum wins."""
    best_score, best_t = -np.inf, None
    for t in np.linspace(0.25, 0.75, 50):
        pred = proba >= t
        tp = int(np.sum((labels == 1) & pred))
        fp = int(np.sum((labels == 0) & pred))
        fn = int(np.sum((labels == 1) & ~pred))
        p = tp / (tp + fp) if tp + fp else 0.0
        r = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * p * r / (p + r) if p + r else 0.0
        score = f1 if (p >= 0.5 and r >= 0.5) else f1 - 1.0
        if score > best_score:
            best_score, best_t = score, float(t)
    return best_t


def test_optimize_threshold_matches_manual_scan(rng):
    labels = (rng.random(40) < 0.4).astype(np.int8)
    labels[:2] = 1  # make both classes certain
    labels[2:4] = 0
    raw = np.clip(0.5 * labels + rng.normal(0, 0.25, size=40), 0.01, 0.99)
    model = stub_ensemble((raw,), (raw,))
    val = dataset_from_arrays(np.zeros((40, 1)), labels)
    proba = model.predict_proba(val.matrix)
    assert optimize_threshold(model, val)[0] == _manual_best_threshold(labels, proba)


def test_optimize_threshold_penalizes_low_precision():
    # Best reachable point has precision 0.25, so every score is negative
    # and the first grid value above 0.26 wins.
    labels = np.array([1, 0, 0, 0, 0], dtype=np.int8)
    proba = np.array([0.7, 0.7, 0.7, 0.7, 0.26])
    model = stub_ensemble((proba,), (proba,))
    val = dataset_from_arrays(np.zeros((5, 1)), labels)
    threshold, scored = optimize_threshold(model, val)
    assert threshold == float(THRESHOLD_GRID[1])
    assert max(s for _, s in scored) == pytest.approx(0.4 - 1.0)


def test_optimize_threshold_tie_takes_lowest():
    # Two operating regions share the best score (F1 = 2/3); the lower
    # threshold region starts at grid index 5.
    labels = np.array([1, 1, 0, 0, 0, 0], dtype=np.int8)
    proba = np.array([0.6, 0.45, 0.45, 0.45, 0.3, 0.3])
    model = stub_ensemble((proba,), (proba,))
    val = dataset_from_arrays(np.zeros((6, 1)), labels)
    threshold, scored = optimize_threshold(model, val)
    best = max(s for _, s in scored)
    assert best == pytest.approx(2.0 / 3.0)
    assert sum(1 for _, s in scored if s == best) > 1
    assert threshold == float(THRESHOLD_GRID[5])


def test_optimize_threshold_empty_validation():
    model = stub_ensemble(([0.5],), ([0.5],))
    empty = dataset_from_arrays(np.zeros((0, 1)), [])
    with pytest.raises(DataError, match="non-empty"):
        optimize_threshold(model, empty)


def test_binary_metrics_hand_counts():
    m = binary_metrics([1, 1, 1, 0, 0], [1, 0, 1, 1, 0])
    assert (m.tp, m.fp, m.fn, m.tn) == (2, 1, 1, 1)
    assert m.precision == pytest.approx(2 / 3)
    assert m.recall == pytest.approx(2 / 3)
    assert m.f1 == pytest.approx(2 / 3)


def test_binary_metrics_zero_division_guards():
    m = binary_metrics([1, 1, 0], [0, 0, 0])
    assert (m.precision, m.recall, m.f1) == (0.0, 0.0, 0.0)


def test_threshold_score_penalty():
    balanced = Metrics(0.6, 0.7, 0.646, 0, 0, 0, 0)
    assert threshold_score(balanced) == 0.646
    lopsided = Metrics(0.4, 0.9, 0.554, 0, 0, 0, 0)
    assert threshold_score(lopsided) == 0.554 - 1.0


# ---------------------------------------------------------------------------
# Cohort plans


def test_precision_cohort_plan():
    pairs = [(i, 1000 + i) for i in range(10)]
    specs = cohort_specs("precision", pairs, 100)
    assert len(specs) == 10
    families = ("logistic", "gradient_boosting", "random_forest", "xgb_style")
    for i, (spec, cfg) in enumerate(specs):
        assert spec.ratio == pytest.approx(1.2 + 0.8 * i / 9)
        assert spec.objective == "precision"
        assert (spec.seed, cfg.seed) == (i, 1000 + i)
        assert cfg.family == families[i % 4]
        assert cfg.C == 1.0
        assert cfg.class_weight == 1.2
        assert cfg.max_depth == (3, 4, 5, 6, 7, 8)[i % 6]
        assert (cfg.min_split, cfg.min_leaf) == (20, 10)
        assert cfg.learning_rate == 0.1


def test_recall_cohort_plan():
    pairs = [(2 * i, 2 * i + 1) for i in range(10)]
    specs = cohort_specs("recall", pairs, 100)
    assert len(specs) == 10
    families = ("logistic", "extra_trees", "random_forest", "xgb_style")
    for i, (spec, cfg) in enumerate(specs):
        assert spec.ratio == pytest.approx(0.7 + 0.4 * i / 9)
        assert spec.objective == "recall"
        assert cfg.family == families[i % 4]
        assert cfg.C == 0.1
        assert cfg.class_weight == pytest.approx(1.5 + i / 9)
        assert cfg.max_depth == (8, 9, 10)[i % 3]
        assert (cfg.min_split, cfg.min_leaf) == (10, 5)
        assert cfg.learning_rate == 0.05


def test_default_config_is_deterministic_in_seed():
    a = EnsembleConfig.default(7)
    b = EnsembleConfig.default(7)
    other = EnsembleConfig.default(8)
    seeds = lambda cfg: [(s.seed, c.seed) for s, c in cfg.precision + cfg.recall]
    assert seeds(a) == seeds(b)
    assert seeds(a) != seeds(other)
    assert len(a.precision) == len(a.recall) == 10


def test_scaled_caps_estimators():
    config = EnsembleConfig.default(0, 6)
    assert all(c.n_estimators == 6 for _, c in config.precision + config.recall)
    huge = EnsembleConfig.default(0, 500)
    assert all(c.n_estimators == 100 for _, c in huge.precision + huge.recall)


# ---------------------------------------------------------------------------
# End-to-end training


@pytest.fixture(scope="module")
def trained():
    data = labeled_blobs(np.random.default_rng(51), n=400, failures=100, sep=2.5)
    train, val, test = stratified_split(data, seed=3)
    config = EnsembleConfig.default(11, 16)
    model = train_ensemble(train, val, config=config)
    return SimpleNamespace(model=model, train=train, val=val, test=test, config=config)


def test_train_ensemble_end_to_end(trained):
    model = trained.model
    assert len(model.precision_models) == 10
    assert len(model.recall_models) == 10
    assert any(model.threshold == float(t) for t in THRESHOLD_GRID)
    assert len(model.grid_scores) == 50
    metrics = evaluate_classifier(model, trained.test)
    assert metrics.f1 >= 0.9


def test_train_ensemble_deterministic(trained):
    again = train_ensemble(trained.train, trained.val, config=trained.config)
    probe = trained.test.matrix
    assert again.threshold == trained.model.threshold
    assert np.array_equal(again.predict_proba(probe), trained.model.predict_proba(probe))


def test_train_ensemble_overwrite_input_fits_the_same_model_in_place(trained):
    train = replace(trained.train, matrix=trained.train.matrix.copy())
    model = train_ensemble(train, trained.val, config=trained.config, overwrite_input=True)
    assert np.array_equal(train.matrix, model.standardizer.transform(trained.train.matrix))
    probe = trained.test.matrix
    assert model.threshold == trained.model.threshold
    assert np.array_equal(model.predict_proba(probe), trained.model.predict_proba(probe))


def test_train_ensemble_requires_ten_specs(trained):
    bad = EnsembleConfig(seed=0, precision=(), recall=())
    with pytest.raises(DataError, match="10 specs"):
        train_ensemble(trained.train, trained.val, config=bad)


def test_train_ensemble_surfaces_rebalance_shortage():
    # 40 failures against 60 successes cannot feed the 2.0-ratio dataset.
    data = labeled_blobs(np.random.default_rng(52), n=100, failures=40)
    val = labeled_blobs(np.random.default_rng(53), n=20, failures=8)
    with pytest.raises(DataError, match="successes"):
        train_ensemble(data, val, config=EnsembleConfig.default(0, 2))


# ---------------------------------------------------------------------------
# Model artifact


def test_model_round_trip_preserves_predictions_bitwise(trained, tmp_path):
    path = tmp_path / "model.json"
    save_model(trained.model, path)
    loaded = load_model(path)
    assert loaded.threshold == trained.model.threshold
    assert loaded.seed == trained.model.seed
    assert np.array_equal(loaded.standardizer.mean, trained.model.standardizer.mean)
    probe = np.random.default_rng(99).normal(size=(64, trained.train.matrix.shape[1]))
    assert np.array_equal(loaded.predict_proba(probe), trained.model.predict_proba(probe))
    assert np.array_equal(loaded.classify(probe), trained.model.classify(probe))


def test_load_model_file_errors(trained, tmp_path):
    with pytest.raises(DataError, match="not found"):
        load_model(tmp_path / "absent.json")

    garbage = tmp_path / "garbage.json"
    garbage.write_text("{not json")
    with pytest.raises(DataError, match="malformed"):
        load_model(garbage)

    other = tmp_path / "other.json"
    other.write_text('{"format": "something-else"}\n')
    with pytest.raises(DataError, match="not a model artifact"):
        load_model(other)

    saved = tmp_path / "model.json"
    save_model(trained.model, saved)
    payload = json.loads(saved.read_text())
    payload["version"] = 99
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="version"):
        load_model(saved)

    payload["version"] = 1
    del payload["standardizer"]
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="incomplete.*rerun 'train'"):
        load_model(saved)

    # A config echo from another version names the stale key.
    payload = json.loads(save_model(trained.model, saved).read_text())
    echo = payload["cohorts"]["precision"][0]["config"]
    echo["max_iter"] = 2000
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="unknown key 'max_iter'.*rerun 'train'"):
        load_model(saved)
    del echo["max_iter"], echo["leaf_penalty"]
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="missing key 'leaf_penalty'.*rerun 'train'"):
        load_model(saved)

    # A forest without trees would predict 0/0.
    payload = json.loads(save_model(trained.model, saved).read_text())
    forest = next(o for o in payload["cohorts"]["precision"]
                  if o["params"]["kind"] == "forest")
    forest["params"]["trees"] = []
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="no trees"):
        load_model(saved)

    # Neither can a cohort without learners.
    payload = json.loads(save_model(trained.model, saved).read_text())
    payload["cohorts"]["recall"] = []
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match="at least one learner"):
        load_model(saved)


@pytest.mark.parametrize("value", [[], "model", 7, None])
@pytest.mark.parametrize("where, message", [("top_level", "not a model artifact"),
                                            ("params", "unknown model kind None")])
def test_load_model_refuses_json_of_the_wrong_type(trained, tmp_path, where, message, value):
    saved = save_model(trained.model, tmp_path / "model.json")
    payload = json.loads(saved.read_text())
    if where == "top_level":
        payload = value
    else:
        payload["cohorts"]["precision"][0]["params"] = value
    saved.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=message) as raised:
        load_model(saved)
    assert where == "top_level" or "rerun 'train'" in str(raised.value)


def test_training_report_contents(trained):
    report = training_report(trained.model, trained.val)
    assert report["threshold"] == trained.model.threshold
    grid = [row["threshold"] for row in report["grid_scores"]]
    assert len(grid) == 50 and grid == sorted(grid)
    assert set(report["models"]) == {"precision", "recall"}
    assert len(report["models"]["precision"]) == 10
    assert len(report["models"]["recall"]) == 10
    for row in report["models"]["precision"]:
        assert {"family", "ratio", "class_weight", "max_depth", "val"} <= set(row)
    assert {"precision", "recall", "f1", "tp", "fp", "fn", "tn"} <= set(report["ensemble_val"])


# ---------------------------------------------------------------------------
# Cross-validation


def test_cross_validate_stability_and_shape():
    data = labeled_blobs(np.random.default_rng(60), n=150, failures=45)
    config = EnsembleConfig.default(5, 4)
    report = cross_validate(config, data, folds=3, seed=2)
    assert len(report.per_fold) == 3
    fold_total = sum(m.tp + m.fp + m.fn + m.tn for m in report.per_fold)
    assert fold_total == data.size
    precisions = np.array([m.precision for m in report.per_fold])
    assert report.cov_precision == pytest.approx(precisions.std() / precisions.mean())
    assert report.cov_recall >= 0.0

    again = cross_validate(config, data, folds=3, seed=2)
    assert again.per_fold == report.per_fold


def test_cross_validate_rejects_small_class():
    data = labeled_blobs(np.random.default_rng(61), n=63, failures=3)
    with pytest.raises(DataError, match="need at least 5"):
        cross_validate(EnsembleConfig.default(0), data, folds=5, seed=0)
    with pytest.raises(DataError, match="at least 2 folds"):
        cross_validate(EnsembleConfig.default(0), data, folds=1, seed=0)


# ---------------------------------------------------------------------------
# One stratified cut: split, folds and carve-out against the per-class loops


def _cut_label_vectors():
    """40 seeded label vectors of 10 to 90 rows with at least 5 rows per
    class, then one vector per class and count 2, 3 and 5: a class exactly at
    the minimum of the split (3) and of 2, 3 and 5 folds."""
    vectors = []
    for seed in range(40):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 91))
        failures = int(rng.integers(5, n - 4))
        vectors.append(rng.permutation(np.arange(n) < failures).astype(np.int8))
    rng = np.random.default_rng(40)
    for small in (2, 3, 5):
        for cls in (0, 1):
            labels = np.full(small + 13, 1 - cls, dtype=np.int8)
            labels[:small] = cls
            vectors.append(rng.permutation(labels))
    return vectors


CUT_LABELS = _cut_label_vectors()


def _rows(part) -> list[int]:
    return [int(i) for i in part.ids]


def _assert_cut_matches(cut, oracle):
    """Both raise for a class under the minimum, or both give the same rows."""
    try:
        want = oracle()
    except ValueError as exc:
        with pytest.raises(DataError, match=str(exc)):
            cut()
        return
    assert cut() == [rows.tolist() for rows in want]


def test_stratified_split_matches_the_per_class_loop():
    for seed, labels in enumerate(CUT_LABELS):
        data = dataset_from_arrays(np.zeros((labels.size, 1)), labels)
        _assert_cut_matches(
            lambda: [_rows(part) for part in stratified_split(data, seed=seed)],
            lambda: oracles.stratified_split_rows(labels, (0.72, 0.08, 0.20), seed))


@pytest.mark.parametrize("folds", [2, 3, 5])
def test_cross_validate_folds_and_carve_outs_match_the_per_class_loops(folds, monkeypatch):
    fits = []  # (inner train, inner val, held-out fold) per fold
    monkeypatch.setattr(ensemble, "train_ensemble", lambda train, val, config: (train, val))

    def record(parts, test):
        fits.append((*parts, test))
        return Metrics(1.0, 1.0, 1.0, 1, 0, 0, 0)

    monkeypatch.setattr(ensemble, "evaluate_classifier", record)
    config = EnsembleConfig.default(0, 1)
    for seed, labels in enumerate(CUT_LABELS):
        data = dataset_from_arrays(np.zeros((labels.size, 1)), labels)
        fits.clear()

        def cut():
            cross_validate(config, data, folds=folds, seed=seed)
            return [_rows(test) for _, _, test in fits]

        _assert_cut_matches(cut, lambda: oracles.fold_rows(labels, folds, seed))
        for held, (inner_train, inner_val, test) in enumerate(fits):
            fit_rows = np.setdiff1d(np.arange(labels.size), _rows(test))
            want_train, want_val = oracles.carve_rows(labels[fit_rows], seed + held + 1)
            assert _rows(inner_train) == fit_rows[want_train].tolist()
            assert _rows(inner_val) == fit_rows[want_val].tolist()


def test_carve_validation_matches_the_per_class_loop():
    # An empty class and a one-row class have at most their own rows to give.
    edge = [np.zeros(12, np.int8), np.ones(7, np.int8), np.array([1] + [0] * 9, np.int8)]
    for seed, labels in enumerate(CUT_LABELS + edge):
        data = dataset_from_arrays(np.zeros((labels.size, 1)), labels)
        _assert_cut_matches(
            lambda: [_rows(part) for part in ensemble._carve_validation(data, rng_seed=seed)],
            lambda: oracles.carve_rows(labels, seed))


def test_predict_rows_standardizes_the_matrix_it_consumes(rng):
    n, d = 2_000, 300
    X = rng.normal(size=(n, d))
    score = X[:, 0] + rng.normal(size=n)
    y = (score > np.quantile(score, 0.7)).astype(np.int8)
    train, val, _ = stratified_split(dataset_from_arrays(X[:200], y[:200]), seed=1)
    model = train_ensemble(train, val, EnsembleConfig.default(2, 2))
    want = model.predict_proba(X)
    matrix = X.copy()
    rows, peak = traced_peak(
        lambda: predict_rows(model, ([f"r{i}" for i in range(n)], None, matrix)))
    assert [p for _, p, _ in rows] == want.tolist()
    assert np.array_equal(matrix, model.standardizer.transform(X))
    assert peak <= 0.1 * matrix.nbytes
