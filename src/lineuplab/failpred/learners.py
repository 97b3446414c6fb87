"""Base learners: weighted logistic regression and four tree families.

Everything is numpy on float64. Logistic regression is fitted by damped
Newton steps, each one linear solve in the smaller of n and d: the ridge
penalizes only the coefficients, so they lie in the row space of X, and when
n <= d the step is solved in n + 1 unknowns through K = X X^T.

Every tree grows through one engine, ``grow_tree``, driven by a split
criterion: gini for classification forests, weighted least squares on
residuals for gradient boosting, and second-order gain with an L2 leaf
penalty for the regularized boosting family. Both boosting families run one
stagewise log-loss loop, ``_boost``, and differ only in the criterion it
builds from the labels and the current probabilities each round.

Sorted layout: the data is held feature-major, ``xt`` of shape
(d, n_total), beside ``order``, a (d, n_total) int32 array whose row f lists
the row ids ascending by feature f (``presort_columns``). It is sorted once
per training set: a learner on a subset of ascending rows takes
``restrict_order`` of it, which equals the subset's own stable sort. A node
takes one of two forms, by the ``mtry < d`` rule:

- A node that scores every feature (both boosting families) holds its own
  (d, n) block of ``order``. Its split search slices the block a few
  features at a time (about BLOCK_VALUES entries, so the temporaries stay
  cache-sized whatever d is): gather their values and the criterion's two
  per-row statistics, take prefix sums along each row, score every
  boundary and keep each feature's best. The split's row mask then
  partitions every row of the block stably, so the children's rows stay
  sorted and no per-node sorting happens.
- A node that draws mtry < d features (forests) holds only its boolean row
  mask over the tree's rows, the bootstrap's drawn rows at the root. Its
  split search reads only the drawn features' rows of ``order`` and keeps
  the entries of the node's rows, which is the block the first form would
  hold for those features; a split is two masks, not two (d, n) blocks.

Determinism: every stochastic choice (bootstrap, feature subsets, random
thresholds) draws from a generator seeded through the model config, and
trees grow sequentially, so identical inputs give bit-identical models.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np

from lineuplab.errors import DataError

SPLIT_EPS = 1e-12
# (feature, sample) entries in one block of split or presort temporaries:
# 128 KiB of float64
BLOCK_VALUES = 2 ** 14


def sigmoid(z: np.ndarray) -> np.ndarray:
    out = np.empty_like(z, dtype=np.float64)
    pos = z >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-z[pos]))
    ez = np.exp(z[~pos])
    out[~pos] = ez / (1.0 + ez)
    return out


def class_sample_weights(y: np.ndarray, failure_weight: float) -> np.ndarray:
    """Per-sample loss weights: failures (label 1) carry the class weight."""
    return np.where(y == 1, failure_weight, 1.0)


def one_class(y) -> bool:
    """Whether ``y`` holds fewer than two distinct labels; ``np.unique``
    would also tell, but its first call imports ``numpy.ma``."""
    y = np.asarray(y)
    return y.size == 0 or bool((y == y.flat[0]).all())


# ---------------------------------------------------------------------------
# Logistic regression: damped Newton in the smaller of n and d.

NEWTON_STEP_CAP = 100
NEWTON_HALVINGS = 50
GRAD_RTOL = 1e-10
TRUST_RTOL = 1e-10


@dataclass(frozen=True)
class LogisticModel:
    coef: np.ndarray
    intercept: float

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(X @ self.coef + self.intercept)


def _logistic_objective(z, y, w, coef, inv_c):
    # log(1 + e^z) - y*z, the negative log-likelihood for y in {0, 1}, is
    # log(1 + e^-z) when y = 1; this form does not cancel at large |z|.
    loss = np.logaddexp(0.0, np.where(y == 1, -z, z))
    return float(np.dot(w, loss) + 0.5 * inv_c * np.dot(coef, coef))


def _newton_system(X, K, s, inv_c, Xs):
    """The Newton matrix at curvature weights s: the bordered kernel system
    [diag(s)K + I/C, s; s^T K, sum s] in (alpha, intercept) when K is given,
    else the primal X~^T S X~ + diag(1/C, ..., 1/C, 0) in (coef, intercept),
    with S X written to the buffer ``Xs``."""
    m = X.shape[1] if K is None else K.shape[0]
    A = np.empty((m + 1, m + 1))
    if K is None:
        np.multiply(X, s[:, None], out=Xs)
        A[:m, :m] = X.T @ Xs
        A[:m, m] = A[m, :m] = Xs.sum(axis=0)
    else:
        np.multiply(s[:, None], K, out=A[:m, :m])
        A[:m, m] = s
        A[m, :m] = s @ K
    A[np.diag_indices(m)] += inv_c
    A[m, m] = s.sum()
    return A


def fit_logistic(X: np.ndarray, y: np.ndarray, w: np.ndarray, C: float = 1.0) -> LogisticModel:
    """Minimize sum(w_i * logloss_i) + ||coef||^2 / (2C); intercept unpenalized.

    Damped Newton. The ridge penalizes only coef, so the optimum has
    coef = X^T alpha; when n <= d each step solves the (n+1) system in
    (alpha, intercept) with K = X X^T formed once, else the (d+1) primal
    system. A step is halved until the objective does not increase, unless
    its predicted gain is below TRUST_RTOL times the objective: there the
    objective's rounding cannot confirm a gain, and the full step is taken.
    The fit stops when the gradient norm is at most GRAD_RTOL times the
    objective, when no halving keeps the objective from increasing, or when
    such an unconfirmed step did not lower the gradient norm either.
    """
    n, d = X.shape
    if one_class(y):
        raise DataError("logistic training needs both classes")
    inv_c = 1.0 / C
    K = X @ X.T if n <= d else None
    Xs = np.empty_like(X) if K is None else None  # reused by every primal step
    alpha = np.zeros(n)
    coef = np.zeros(d)
    intercept = 0.0
    z = np.zeros(n)
    obj = _logistic_objective(z, y, w, coef, inv_c)
    last_norm, unconfirmed = np.inf, False
    for _ in range(NEWTON_STEP_CAP):
        err = w * (sigmoid(z) - y)
        grad_coef = X.T @ err + inv_c * coef
        grad_int = float(err.sum())
        norm = float(np.sqrt(np.dot(grad_coef, grad_coef) + grad_int * grad_int))
        if norm <= GRAD_RTOL * obj or (unconfirmed and norm >= last_norm):
            break
        # w * p * (1 - p), written so that it does not round to 0 for |z| > 37
        e = np.exp(-np.abs(z))
        A = _newton_system(X, K, w * e / (1.0 + e) ** 2, inv_c, Xs)
        if K is not None:
            step = np.linalg.solve(A, -np.append(err + inv_c * alpha, grad_int))
            d_coef = X.T @ step[:n]
        else:
            step = np.linalg.solve(A, -np.append(grad_coef, grad_int))
            d_coef = step[:d]
        d_int = float(step[-1])
        # The Newton decrement; the step's predicted gain is half of it.
        trusted = -(np.dot(grad_coef, d_coef) + grad_int * d_int) <= TRUST_RTOL * obj
        t = 1.0
        for _ in range(NEWTON_HALVINGS):
            new_coef = coef + t * d_coef
            new_int = intercept + t * d_int
            new_z = X @ new_coef + new_int
            new_obj = _logistic_objective(new_z, y, w, new_coef, inv_c)
            if trusted or new_obj <= obj:
                break
            t *= 0.5
        else:
            break
        if K is not None:
            alpha += t * step[:n]
        last_norm, unconfirmed = norm, trusted or new_obj == obj
        coef, intercept, z, obj = new_coef, new_int, new_z, new_obj
    return LogisticModel(coef=coef, intercept=intercept)


# ---------------------------------------------------------------------------
# Tree engine


@dataclass(frozen=True)
class Tree:
    feature: np.ndarray    # int32, -1 at leaves
    threshold: np.ndarray  # float64; descend left when x <= threshold
    left: np.ndarray       # int32 child ids
    right: np.ndarray
    value: np.ndarray      # float64 leaf payload

    def predict(self, X: np.ndarray) -> np.ndarray:
        node = np.zeros(X.shape[0], dtype=np.int32)
        active = self.feature[node] >= 0
        while active.any():
            idx = np.flatnonzero(active)
            nd = node[idx]
            go_left = X[idx, self.feature[nd]] <= self.threshold[nd]
            node[idx] = np.where(go_left, self.left[nd], self.right[nd])
            active[idx] = self.feature[node[idx]] >= 0
        return self.value[node]


@dataclass(frozen=True)
class TreeParams:
    max_depth: int
    min_split: int
    min_leaf: int
    mtry: int | None = None        # None scans every feature
    random_thresholds: bool = False


@dataclass(frozen=True)
class _Criterion:
    """A split criterion: two per-row statistics whose prefix sums score a
    boundary, the gain of each boundary from its left sums (l1, l2) and the
    node totals (t1, t2), and the leaf value of a set of row ids."""

    s1: np.ndarray
    s2: np.ndarray
    gain: Callable[[np.ndarray, np.ndarray, np.ndarray, np.ndarray], np.ndarray]
    leaf: Callable[[np.ndarray], float]


def _gini(y: np.ndarray, w: np.ndarray) -> _Criterion:
    """Weighted gini impurity decrease; leaves hold the weighted failure rate."""

    def gain(lw, lwy, tw, twy):
        rw = tw - lw
        rwy = twy - lwy
        child = 2.0 * (lwy * (lw - lwy) / lw + rwy * (rw - rwy) / rw)
        return 2.0 * twy * (tw - twy) / tw - child

    def leaf(ids):
        ws = w[ids]
        return float(np.dot(ws, y[ids]) / ws.sum())

    return _Criterion(w, w * y, gain, leaf)


def _least_squares(residual: np.ndarray, hess: np.ndarray, w: np.ndarray) -> _Criterion:
    """Weighted least squares on residuals: the gain in sum of squares
    explained. Leaves take one Newton step."""

    def gain(lw, ls, tw, ts):
        rs = ts - ls
        return ls * ls / lw + rs * rs / (tw - lw) - ts * ts / tw

    def leaf(ids):
        ws = w[ids]
        den = float(np.dot(ws, hess[ids]))
        if den < 1e-12:
            return 0.0
        return float(np.dot(ws, residual[ids]) / den)

    return _Criterion(w, w * residual, gain, leaf)


def _second_order(g: np.ndarray, h: np.ndarray, lam: float) -> _Criterion:
    """Second-order gain with L2 leaf penalty lambda; leaves are -G/(H + lambda)."""

    def gain(lg, lh, tg, th):
        rg = tg - lg
        return 0.5 * (lg * lg / (lh + lam) + rg * rg / (th - lh + lam) - tg * tg / (th + lam))

    def leaf(ids):
        den = float(h[ids].sum()) + lam
        return float(-g[ids].sum() / den)

    return _Criterion(g, h, gain, leaf)


def _best_split(xt: np.ndarray, order: np.ndarray, criterion: _Criterion,
                params: TreeParams, rng: np.random.Generator | None,
                rows: np.ndarray | None = None):
    """Best split of one node: (feature, threshold, boolean (n_total,) mask
    of the node's rows that go left), or None when no split gains more than
    SPLIT_EPS.

    A node that scores every feature passes its own (d, n) block as
    ``order``. A node that draws mtry < d features passes the tree's order
    and its row mask ``rows`` (None: every row of ``order``); only the drawn
    features' rows of ``order`` are read, filtered down to the node's rows.

    The candidate features are scored in blocks of about BLOCK_VALUES
    (feature, sample) entries, since prefix sums run along each feature's
    samples alone; only each feature's best (gain, position, threshold)
    outlives its block, so the scoring temporaries do not grow with the
    number of features."""
    d, n_total = xt.shape
    drawn = params.mtry is not None and params.mtry < d
    if drawn:
        feats = rng.choice(d, size=params.mtry, replace=False)
        cand = np.take(order, feats, axis=0)
        if rows is not None:
            cand = cand[np.take(rows, cand)].reshape(feats.size, -1)
    else:
        feats, cand = np.arange(d), order
    n = cand.shape[1]
    lo, hi = params.min_leaf, n - params.min_leaf
    if params.random_thresholds:
        # One draw per feature that varies in this node, in feature order.
        first, last = xt[feats, cand[:, 0]], xt[feats, cand[:, -1]]
        varies = first != last
        thr = first.copy()
        thr[varies] = rng.uniform(first[varies], last[varies])
    else:
        thr = np.empty(feats.size)
    best = np.empty(feats.size)
    pos = np.empty(feats.size, dtype=np.intp)
    step = max(1, BLOCK_VALUES // n)
    for start in range(0, feats.size, step):
        part = slice(start, start + step)
        ids = cand[part]
        xs = np.take(xt, ids + feats[part, None] * n_total)  # xt[feats[part, None], ids]
        c1 = np.cumsum(np.take(criterion.s1, ids), axis=1)
        c2 = np.cumsum(np.take(criterion.s2, ids), axis=1)
        # Column k scores the boundary with lo + k samples on the left; a
        # boundary between equal values is no split.
        gain = criterion.gain(c1[:, lo - 1:hi], c2[:, lo - 1:hi], c1[:, -1:], c2[:, -1:])
        gain[xs[:, lo - 1:hi] >= xs[:, lo:hi + 1]] = -np.inf
        i = np.arange(len(ids))
        if params.random_thresholds:
            at = np.count_nonzero(xs <= thr[part, None], axis=1)
            usable = varies[part] & (at >= lo) & (at <= hi)
            best[part] = -np.inf
            best[start + i[usable]] = gain[i[usable], at[usable] - lo]
        else:
            at = np.argmax(gain, axis=1) + lo
            best[part] = gain[i, at - lo]
            thr[part] = xs[i, at - 1]
        pos[part] = at
    # The first feature with the largest gain above SPLIT_EPS wins.
    best[~(best > SPLIT_EPS)] = -np.inf
    j = int(np.argmax(best))
    if best[j] == -np.inf:
        return None
    # The sorted prefix is exactly the x <= threshold set, for drawn
    # thresholds as well as boundary values.
    go_left = np.zeros(n_total, dtype=bool)
    go_left[cand[j, :pos[j]]] = True
    return int(feats[j]), float(thr[j]), go_left


def grow_tree(xt: np.ndarray, order: np.ndarray, criterion: _Criterion,
              params: TreeParams, rng: np.random.Generator | None,
              rows: np.ndarray | None = None) -> Tree:
    """Build one tree.

    xt: (d, n_total) float64 feature-major copy of the dataset.
    order: (d, n_total) int32 ``presort_columns`` of it; row f lists every
    row id ascending by feature f.
    rows: boolean (n_total,) mask of the tree's rows; None takes them all.

    A node that scores every feature holds its (d, n) block of ``order``,
    and its split partitions the block stably into the children's blocks.
    A node that draws mtry < d features (forests) holds only its row mask.
    Its leaf value sums over its rows in ascending order rather than by
    feature 0; forest leaves sum integer bootstrap counts, which any order
    sums exactly.
    """
    d, n_total = xt.shape
    masked = params.mtry is not None and params.mtry < d
    if masked:
        root = np.ones(n_total, dtype=bool) if rows is None else rows
    else:
        root = order if rows is None else order[np.take(rows, order)].reshape(d, -1)
    # One row per node: [feature, threshold, left, right, value]. Both child
    # ids are allocated before either subtree grows; numbering the nodes
    # depth-first instead would change every saved model.
    nodes = [[-1, 0.0, -1, -1, 0.0]]
    # (node, row mask or block, depth) still to grow. The left child is
    # popped first, so nodes are split, and rng drawn, in the order a
    # recursive build takes.
    stack = [(0, root, 0)]
    while stack:
        node, part, depth = stack.pop()
        ids = np.flatnonzero(part) if masked else part[0]
        n = ids.size
        nodes[node][4] = criterion.leaf(ids)
        if depth >= params.max_depth or n < params.min_split or n < 2 * params.min_leaf:
            continue
        if masked:
            split = _best_split(xt, order, criterion, params, rng, part)
        else:
            split = _best_split(xt, part, criterion, params, rng)
        if split is None:
            continue
        feature, threshold, go_left = split
        lid, rid = len(nodes), len(nodes) + 1
        nodes.extend(([-1, 0.0, -1, -1, 0.0], [-1, 0.0, -1, -1, 0.0]))
        nodes[node][:4] = feature, threshold, lid, rid
        if masked:
            left, right = go_left, part & ~go_left
        else:
            goes = np.take(go_left, part)
            left, right = part[goes].reshape(d, -1), part[~goes].reshape(d, -1)
        stack.append((rid, right, depth + 1))
        stack.append((lid, left, depth + 1))
    feature, threshold, left, right, value = zip(*nodes)
    return Tree(
        feature=np.asarray(feature, dtype=np.int32),
        threshold=np.asarray(threshold),
        left=np.asarray(left, dtype=np.int32),
        right=np.asarray(right, dtype=np.int32),
        value=np.asarray(value),
    )


def presort_columns(X: np.ndarray) -> np.ndarray:
    """Each feature's stable ascending row ids of X, shape (d, n) int32.
    Each feature sorts alone, so the ids are sorted in blocks of about
    BLOCK_VALUES entries into the int32 array."""
    n, d = X.shape
    order = np.empty((d, n), dtype=np.int32)
    step = max(1, BLOCK_VALUES // max(n, 1))
    for start in range(0, d, step):
        order[start:start + step] = np.argsort(X[:, start:start + step], axis=0,
                                               kind="stable").T
    return order


def restrict_order(order: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """``presort_columns(X[rows])`` from ``order = presort_columns(X)``, for
    ascending ``rows``: a stable sort keeps tied rows in row order, so each
    feature's entries for ``rows``, renumbered 0..len(rows)-1 in place, are
    the subset's own stable order. Built in blocks of about BLOCK_VALUES
    entries."""
    d, n = order.shape
    number = np.full(n, -1, dtype=np.int32)
    number[rows] = np.arange(rows.size, dtype=np.int32)
    out = np.empty((d, rows.size), dtype=np.int32)
    step = max(1, BLOCK_VALUES // max(n, 1))
    for start in range(0, d, step):
        kept = np.take(number, order[start:start + step])
        out[start:start + step] = kept[kept >= 0].reshape(-1, rows.size)
    return out


# ---------------------------------------------------------------------------
# Forests


@dataclass(frozen=True)
class ForestModel:
    trees: tuple[Tree, ...]

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        acc = np.zeros(X.shape[0])
        for tree in self.trees:
            acc += tree.predict(X)
        return acc / len(self.trees)


def fit_forest(X: np.ndarray, y: np.ndarray, w: np.ndarray, n_estimators: int,
               params: TreeParams, rng: np.random.Generator,
               order: np.ndarray | None = None) -> ForestModel:
    """Bagged gini trees. The bootstrap draws rows with probability
    proportional to the sample weights, which is how class weighting enters;
    inside each tree the bootstrap multiplicities act as weights, and the
    rows drawn at least once are the root's row mask. An unset mtry scans
    sqrt(d) features per node. ``order`` is ``presort_columns(X)``, computed
    here when not given."""
    n, d = X.shape
    if one_class(y):
        raise DataError("forest training needs both classes")
    xt = np.ascontiguousarray(X.T)
    if order is None:
        order = presort_columns(X)
    prob = w / w.sum()
    if params.mtry is None:
        params = replace(params, mtry=max(1, int(np.sqrt(d))))
    y_float = y.astype(np.float64)
    trees = []
    for _ in range(n_estimators):
        counts = np.bincount(rng.choice(n, size=n, replace=True, p=prob),
                             minlength=n).astype(np.float64)
        trees.append(grow_tree(xt, order, _gini(y_float, counts), params, rng, counts > 0))
    return ForestModel(trees=tuple(trees))


# ---------------------------------------------------------------------------
# Boosting


@dataclass(frozen=True)
class BoostedModel:
    f0: float
    learning_rate: float
    trees: tuple[Tree, ...]

    def decision(self, X: np.ndarray) -> np.ndarray:
        z = np.full(X.shape[0], self.f0)
        for tree in self.trees:
            z += self.learning_rate * tree.predict(X)
        return z

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        return sigmoid(self.decision(X))


def _prior_log_odds(y: np.ndarray, w: np.ndarray) -> float:
    wy = float(np.dot(w, y))
    wn = float(w.sum() - wy)
    if wy <= 0.0 or wn <= 0.0:
        raise DataError("boosting training needs both classes")
    return float(np.log(wy / wn))


def _boost(X: np.ndarray, y: np.ndarray, w: np.ndarray, n_estimators: int,
           learning_rate: float, params: TreeParams,
           criterion: Callable[[np.ndarray, np.ndarray], _Criterion],
           order: np.ndarray | None) -> BoostedModel:
    """Stagewise log-loss boosting from the weighted prior log-odds: each
    round grows one tree on criterion(y, p) at the current probabilities p
    and adds learning_rate times its output to the decision. ``order`` is
    ``presort_columns(X)``, computed here when not given."""
    xt = np.ascontiguousarray(X.T)
    if order is None:
        order = presort_columns(X)
    y_float = y.astype(np.float64)
    f0 = _prior_log_odds(y_float, w)
    z = np.full(X.shape[0], f0)
    trees: list[Tree] = []
    for _ in range(n_estimators):
        tree = grow_tree(xt, order, criterion(y_float, sigmoid(z)), params, None)
        trees.append(tree)
        if tree.feature[0] < 0 and tree.value[0] == 0.0:
            break  # nothing left to move; later rounds would repeat this
        z += learning_rate * tree.predict(X)
    return BoostedModel(f0=f0, learning_rate=learning_rate, trees=tuple(trees))


def fit_gradient_boosting(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                          n_estimators: int, learning_rate: float,
                          params: TreeParams, order: np.ndarray | None = None) -> BoostedModel:
    """Log-loss boosting: least-squares trees on residuals, Newton leaves."""
    return _boost(X, y, w, n_estimators, learning_rate, params,
                  lambda y, p: _least_squares(y - p, p * (1.0 - p), w), order)


def fit_regularized_boosting(X: np.ndarray, y: np.ndarray, w: np.ndarray,
                             n_estimators: int, learning_rate: float,
                             params: TreeParams, lam: float = 1.0,
                             order: np.ndarray | None = None) -> BoostedModel:
    """Second-order boosting: gain splits and -G/(H + lambda) leaves."""
    return _boost(X, y, w, n_estimators, learning_rate, params,
                  lambda y, p: _second_order(w * (p - y), w * p * (1.0 - p), lam), order)
