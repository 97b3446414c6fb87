"""Independent reference implementations used to cross-check the library.

Everything here is written as plain loops and direct formulas on purpose:
the library computes the same quantities with vectorized code, and the tests
only trust values that both implementations agree on. Nothing in this module
imports from lineuplab.
"""

from __future__ import annotations

import csv
import math

import numpy as np

DARK = 50
BRIGHT = 200


def _at(a: np.ndarray, i: int, j: int) -> float:
    """Pixel access with edge replication."""
    h, w = a.shape
    return float(a[min(max(i, 0), h - 1), min(max(j, 0), w - 1)])


def conv3(a: np.ndarray, kernel) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    k = [[float(kernel[u][v]) for v in range(3)] for u in range(3)]
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            s = 0.0
            for u in (-1, 0, 1):
                for v in (-1, 0, 1):
                    s += k[u + 1][v + 1] * _at(a, i + u, j + v)
            out[i, j] = s
    return out


SOBEL_X = ((-1, 0, 1), (-2, 0, 2), (-1, 0, 1))
SOBEL_Y = ((-1, -2, -1), (0, 0, 0), (1, 2, 1))
LAPLACIAN = ((0, 1, 0), (1, -4, 1), (0, 1, 0))
ONES3 = tuple(tuple(1.0 for _ in range(3)) for _ in range(3))


def sobel(a):
    return conv3(a, SOBEL_X), conv3(a, SOBEL_Y)


def median3(a: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    h, w = a.shape
    out = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            window = sorted(
                _at(a, i + u, j + v) for u in (-1, 0, 1) for v in (-1, 0, 1)
            )
            out[i, j] = window[4]
    return out


def popstd(values) -> float:
    values = [float(v) for v in np.asarray(values).ravel()]
    n = len(values)
    mean = math.fsum(values) / n
    return math.sqrt(math.fsum((v - mean) ** 2 for v in values) / n)


def popvar(values) -> float:
    return popstd(values) ** 2


def histogram256(pixels: np.ndarray) -> list[float]:
    counts = [0] * 256
    for v in np.asarray(pixels, dtype=np.int64).ravel():
        counts[int(v)] += 1
    total = float(pixels.size)
    return [c / total for c in counts]


def entropy(hist) -> float:
    return -math.fsum(p * math.log(p) for p in hist if p > 0.0)


def percentile(values, p: float) -> float:
    """Linear interpolation between order statistics."""
    xs = sorted(float(v) for v in np.asarray(values).ravel())
    rank = (len(xs) - 1) * p / 100.0
    lo = int(math.floor(rank))
    hi = int(math.ceil(rank))
    if lo == hi:
        return xs[lo]
    frac = rank - lo
    return xs[lo] * (1.0 - frac) + xs[hi] * frac


def dft_centered_magnitude(a: np.ndarray) -> np.ndarray:
    """|DFT2| with the zero frequency moved to (h//2, w//2).

    Built from explicit DFT matrices, not an FFT routine.
    """
    a = np.asarray(a, dtype=np.float64)
    h, w = a.shape
    jr = np.arange(h)
    jc = np.arange(w)
    wh = np.exp(-2j * np.pi * np.outer(jr, jr) / h)
    ww = np.exp(-2j * np.pi * np.outer(jc, jc) / w)
    f = wh @ a.astype(complex) @ ww
    centered = np.empty_like(f)
    for u in range(h):
        for v in range(w):
            centered[u, v] = f[(u - h // 2) % h, (v - w // 2) % w]
    return np.abs(centered)


def canny(a: np.ndarray, low: float = 50.0, high: float = 150.0) -> np.ndarray:
    """Loop-based Canny mirror: L2 magnitude, four-sector non-maximum
    suppression (out-of-bounds neighbor = 0, plateaus kept), double
    threshold, 8-connected hysteresis."""
    gx, gy = sobel(a)
    h, w = gx.shape
    mag = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            mag[i, j] = math.hypot(gx[i, j], gy[i, j])

    def mag_at(i, j):
        return mag[i, j] if 0 <= i < h and 0 <= j < w else 0.0

    nms = np.zeros((h, w))
    for i in range(h):
        for j in range(w):
            angle = math.degrees(math.atan2(gy[i, j], gx[i, j])) % 180.0
            if angle < 22.5 or angle >= 157.5:
                n1, n2 = mag_at(i, j + 1), mag_at(i, j - 1)
            elif angle < 67.5:
                n1, n2 = mag_at(i + 1, j + 1), mag_at(i - 1, j - 1)
            elif angle < 112.5:
                n1, n2 = mag_at(i + 1, j), mag_at(i - 1, j)
            else:
                n1, n2 = mag_at(i + 1, j - 1), mag_at(i - 1, j + 1)
            if mag[i, j] >= n1 and mag[i, j] >= n2:
                nms[i, j] = mag[i, j]

    strong = [(i, j) for i in range(h) for j in range(w) if nms[i, j] >= high]
    weak = {(i, j) for i in range(h) for j in range(w) if low <= nms[i, j] < high}
    edges = np.zeros((h, w), dtype=bool)
    stack = list(strong)
    for i, j in strong:
        edges[i, j] = True
    while stack:
        i, j = stack.pop()
        for di in (-1, 0, 1):
            for dj in (-1, 0, 1):
                ii, jj = i + di, j + dj
                if (ii, jj) in weak and 0 <= ii < h and 0 <= jj < w and not edges[ii, jj]:
                    edges[ii, jj] = True
                    stack.append((ii, jj))
    return edges


# ---------------------------------------------------------------------------
# Feature category oracles. Each returns a plain list of floats in the same
# order the library documents.


def oracle_lighting(px: np.ndarray) -> list[float]:
    a = np.asarray(px, dtype=np.float64)
    n = a.size
    mean = math.fsum(a.ravel()) / n
    hist = histogram256(px)
    dark = sum(1 for v in px.ravel() if v < DARK) / n
    bright = sum(1 for v in px.ravel() if v > BRIGHT) / n
    return [mean, popstd(a), entropy(hist), dark, bright, popvar(conv3(a, LAPLACIAN))]


def oracle_quality(px: np.ndarray) -> list[float]:
    a = np.asarray(px, dtype=np.float64)
    gx, gy = sobel(a)
    combined = np.abs(gx) + np.abs(gy)
    hist = histogram256(px)
    mu = math.fsum(i * hist[i] for i in range(256))
    global_contrast = math.sqrt(math.fsum((i - mu) ** 2 * hist[i] for i in range(256)))
    p5 = percentile(a, 5.0)
    p95 = percentile(a, 95.0)
    imax, imin = float(a.max()), float(a.min())
    michelson = (imax - imin) / (imax + imin) if imax + imin > 0 else 0.0
    mean = math.fsum(a.ravel()) / a.size
    rms = math.sqrt(math.fsum((v - mean) ** 2 for v in a.ravel()) / a.size)
    return [popvar(combined), global_contrast, p95 - p5, entropy(hist),
            michelson, rms, popstd(a)]


def oracle_noise(px: np.ndarray) -> list[float]:
    a = np.asarray(px, dtype=np.float64)
    h, w = a.shape
    diffs = [a[i, j] - a[i + 1, j + 1] for i in range(h - 1) for j in range(w - 1)]
    sigma = popstd(diffs)
    mean_sq = math.fsum(v * v for v in a.ravel()) / a.size
    if sigma == 0.0:
        snr = 1e6
    elif mean_sq == 0.0:
        snr = -1e6
    else:
        snr = min(max(10.0 * math.log10(mean_sq / sigma**2), -1e6), 1e6)
    nsr = sigma**2 / mean_sq if mean_sq > 0.0 else 0.0
    residual = a - median3(a)
    abs_mean = math.fsum(abs(v) for v in residual.ravel()) / residual.size
    return [sigma, snr, nsr, popstd(residual), abs_mean]


def oracle_sharpness(px: np.ndarray) -> list[float]:
    a = np.asarray(px, dtype=np.float64)
    gx, gy = sobel(a)
    mags = [math.hypot(gx[i, j], gy[i, j])
            for i in range(a.shape[0]) for j in range(a.shape[1])]
    mag_mean = math.fsum(mags) / len(mags)
    lap_var = popvar(conv3(a, LAPLACIAN))
    spec = dft_centered_magnitude(a)
    h, w = a.shape
    radius = min(h, w) / 4.0
    high_vals = [spec[i, j] for i in range(h) for j in range(w)
                 if math.hypot(i - h // 2, j - w // 2) >= radius]
    log_mean = math.fsum(math.log1p(v) for v in spec.ravel()) / spec.size
    return [mag_mean, popstd(mags), lap_var,
            math.fsum(high_vals) / len(high_vals), log_mean, lap_var]


def oracle_texture(px: np.ndarray) -> list[float]:
    a = np.asarray(px, dtype=np.float64)
    # Sum first, divide once: a constant window then averages to exactly
    # that constant and the variance below cancels to exactly zero.
    mean_sq = conv3(a * a, ONES3) / 9.0
    mean = conv3(a, ONES3) / 9.0
    local_var = mean_sq - mean * mean
    density = float(np.count_nonzero(canny(a))) / a.size
    return [math.fsum(local_var.ravel()) / local_var.size, density]


LEFT_EYE = (36, 37, 38, 39, 40, 41)
RIGHT_EYE = (42, 43, 44, 45, 46, 47)
SYM_PAIRS = (
    (0, 16), (1, 15), (2, 14), (3, 13), (4, 12), (5, 11), (6, 10), (7, 9),
    (17, 26), (18, 25), (19, 24), (20, 23), (21, 22),
    (36, 45), (37, 44), (38, 43), (39, 42), (40, 47), (41, 46),
    (48, 54), (49, 53), (50, 52), (59, 55),
)


def _d(p, q) -> float:
    return math.hypot(p[0] - q[0], p[1] - q[1])


def aspect_ratio(pts, p1, p2, p3, p4, p5, p6) -> float:
    c = _d(pts[p1], pts[p4])
    if c <= 0.0:
        return 0.0
    return (_d(pts[p2], pts[p6]) + _d(pts[p3], pts[p5])) / (2.0 * c)


def oracle_geometry(pts: np.ndarray | None, face_count: int, dims) -> list[float]:
    if pts is None:
        return [0.0] * 16
    width, height = dims
    xs = [p[0] for p in pts]
    ys = [p[1] for p in pts]
    bw, bh = max(xs) - min(xs), max(ys) - min(ys)
    cx, cy = (max(xs) + min(xs)) / 2.0, (max(ys) + min(ys)) / 2.0
    lc = (math.fsum(pts[i][0] for i in LEFT_EYE) / 6.0,
          math.fsum(pts[i][1] for i in LEFT_EYE) / 6.0)
    rc = (math.fsum(pts[i][0] for i in RIGHT_EYE) / 6.0,
          math.fsum(pts[i][1] for i in RIGHT_EYE) / 6.0)
    inter = _d(lc, rc)
    ear_l = aspect_ratio(pts, *LEFT_EYE)
    ear_r = aspect_ratio(pts, *RIGHT_EYE)
    if inter > 0.0:
        dev = math.fsum(
            abs(_d(pts[l], pts[27]) - _d(pts[r], pts[27])) for l, r in SYM_PAIRS
        ) / len(SYM_PAIRS)
        symmetry = min(max(1.0 - dev / inter, 0.0), 1.0)
        yaw = (pts[30][0] - (lc[0] + rc[0]) / 2.0) / inter
    else:
        symmetry = 0.0
        yaw = 0.0
    roll = math.degrees(math.atan2(rc[1] - lc[1], rc[0] - lc[0]))
    mouth_y = math.fsum(pts[i][1] for i in range(48, 68)) / 20.0
    pitch = (mouth_y - pts[30][1]) / bh if bh > 0.0 else 0.0
    return [
        1.0, float(face_count), bw * bh / (width * height),
        (cx - width / 2.0) / width, (cy - height / 2.0) / height,
        ear_l, ear_r, (ear_l + ear_r) / 2.0, abs(ear_l - ear_r),
        aspect_ratio(pts, 60, 61, 63, 64, 65, 67),
        symmetry, roll, yaw, pitch, bw / width, bh / height,
    ]


def oracle_classical(px: np.ndarray, pts, face_count: int, dims) -> np.ndarray:
    return np.array(
        oracle_lighting(px) + oracle_quality(px) + oracle_noise(px)
        + oracle_sharpness(px) + oracle_texture(px)
        + oracle_geometry(pts, face_count, dims)
    )


# ---------------------------------------------------------------------------
# Search and lineup oracles


def naive_search(ids, identities, matrix, query, k, skip=None) -> list[tuple[str, float]]:
    """Top-k by per-row dot product and an explicit (-score, id) sort."""
    skip = skip or (lambda i: False)
    scored = []
    for row, image_id in enumerate(ids):
        if skip(row):
            continue
        scored.append((image_id, float(np.dot(query, matrix[row]))))
    scored.sort(key=lambda t: (-t[1], t[0]))
    return scored[:k]


def rescore_lineup(source_vec, member_vecs: dict, probe: str) -> int:
    """Probe rank by per-member dot products, ties to the smaller id."""
    sv = np.asarray(source_vec, dtype=np.float64)
    sv = sv / math.sqrt(float(np.dot(sv, sv)))
    scores = []
    for vec in member_vecs.values():
        v = np.asarray(vec, dtype=np.float64)
        v = v / math.sqrt(float(np.dot(v, v)))
        scores.append(float(np.dot(sv, v)))
    return probe_rank_from_scores(scores, list(member_vecs), probe)


def probe_rank_from_scores(scores, member_ids, probe: str) -> int:
    """Probe rank from given member scores: the members sorted by (-score, id)."""
    ranked = sorted(zip(member_ids, scores), key=lambda t: (-t[1], t[0]))
    return [m for m, _ in ranked].index(probe)


# ---------------------------------------------------------------------------
# Tree split oracle


def _split_score(criterion: str, rows, a, b, lam: float) -> float:
    """Score of one row set; a split gains score(left) + score(right) - score(all).

    gini: a is the 0/1 label, b the row weight; the score is minus the
    weighted impurity 2 * W1 * (W - W1) / W.
    lsq: a is the residual, b the row weight; the score is (sum b*a)^2 / sum b.
    second_order: a is the gradient, b the hessian; the score is
    0.5 * G^2 / (H + lam).
    """
    if criterion == "gini":
        total = math.fsum(float(b[i]) for i in rows)
        pos = math.fsum(float(b[i] * a[i]) for i in rows)
        return -2.0 * pos * (total - pos) / total
    if criterion == "lsq":
        total = math.fsum(float(b[i]) for i in rows)
        s = math.fsum(float(b[i] * a[i]) for i in rows)
        return s * s / total
    g = math.fsum(float(a[i]) for i in rows)
    h = math.fsum(float(b[i]) for i in rows)
    return 0.5 * g * g / (h + lam)


def best_split(X: np.ndarray, a, b, criterion: str, min_leaf: int,
               lam: float = 1.0) -> tuple[int, float, float]:
    """Exhaustive best (feature, threshold, gain) over every feature and every
    distinct value as threshold (x <= threshold goes left), keeping only
    splits with at least min_leaf rows on each side. Ties go to the lower
    feature, then the lower threshold."""
    n, d = X.shape
    everything = list(range(n))
    parent = _split_score(criterion, everything, a, b, lam)
    best = (-1, 0.0, -math.inf)
    for f in range(d):
        for threshold in sorted(set(X[:, f].tolist()))[:-1]:
            left = [i for i in everything if X[i, f] <= threshold]
            right = [i for i in everything if X[i, f] > threshold]
            if len(left) < min_leaf or len(right) < min_leaf:
                continue
            gain = (_split_score(criterion, left, a, b, lam)
                    + _split_score(criterion, right, a, b, lam) - parent)
            if gain > best[2]:
                best = (f, threshold, gain)
    return best


# ---------------------------------------------------------------------------
# Logistic regression


def logistic_newton_primal(X: np.ndarray, y, w, C: float,
                           steps: int = 30) -> tuple[np.ndarray, float]:
    """(coef, intercept) minimizing sum(w_i * logloss_i) + ||coef||^2 / (2C)
    with the intercept unpenalized: full Newton steps on the primal system in
    beta = (coef, intercept), A = [X 1], S = diag(w * p * (1 - p)):
    (A^T S A + diag(1/C, ..., 1/C, 0)) step = gradient."""
    n, d = X.shape
    A = np.hstack([X, np.ones((n, 1))])
    ridge = np.full(d + 1, 1.0 / C)
    ridge[d] = 0.0
    beta = np.zeros(d + 1)
    for _ in range(steps):
        p = 0.5 * (1.0 + np.tanh(0.5 * (A @ beta)))  # the sigmoid, without overflow
        grad = A.T @ (w * (p - y)) + ridge * beta
        hess = A.T @ (A * (w * p * (1.0 - p))[:, None]) + np.diag(ridge)
        beta = beta - np.linalg.solve(hess, grad)
    return beta[:d], float(beta[d])


# ---------------------------------------------------------------------------
# Standardization


def standardize_where(values, mean, std) -> np.ndarray:
    """Z-scores by three full-size arrays: the centred values, their
    quotient by the nonzero stds, and ``np.where``'s +0.0 for every
    zero-std column."""
    values = np.asarray(values, dtype=np.float64)
    out = values - mean
    nonzero = std > 0.0
    return np.where(nonzero, out / np.where(nonzero, std, 1.0), 0.0)


# ---------------------------------------------------------------------------
# Stratified row cuts: one per-class shuffle-and-deal loop per cut, each
# returning sorted row indices. A class below the minimum raises ValueError.


def largest_remainder(n: int, fractions) -> list[int]:
    exact = [n * f for f in fractions]
    floors = [int(math.floor(e)) for e in exact]
    short = n - sum(floors)
    order = sorted(range(len(fractions)), key=lambda i: (-(exact[i] - floors[i]), i))
    for i in order[:short]:
        floors[i] += 1
    return floors


def stratified_split_rows(labels, fractions, seed: int) -> list[np.ndarray]:
    """(train, val, test) rows: each class allocated by largest remainder."""
    rng = np.random.default_rng(seed)
    parts: list[list[np.ndarray]] = [[], [], []]
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        if rows.size < 3:
            raise ValueError(f"class {cls} has {rows.size} samples, need at least 3")
        rows = rng.permutation(rows)
        counts = largest_remainder(rows.size, fractions)
        start = 0
        for part, count in zip(parts, counts):
            part.append(rows[start : start + count])
            start += count
    return [np.sort(np.concatenate(part)) for part in parts]


def fold_rows(labels, folds: int, seed: int) -> list[np.ndarray]:
    """Cross-validation folds: each class dealt by ``np.array_split``."""
    rng = np.random.default_rng(seed)
    chunks_per_fold: list[list[np.ndarray]] = [[] for _ in range(folds)]
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        if rows.size < folds:
            raise ValueError(f"class {cls} has {rows.size} samples, need at least {folds}")
        rows = rng.permutation(rows)
        for i, chunk in enumerate(np.array_split(rows, folds)):
            chunks_per_fold[i].append(chunk)
    return [np.sort(np.concatenate(chunks)) for chunks in chunks_per_fold]


def carve_rows(labels, rng_seed: int) -> tuple[np.ndarray, np.ndarray]:
    """(train, val) rows of a fold's 90/10 carve-out: half-up 10% of each
    class, at least one row, goes to val."""
    rng = np.random.default_rng(rng_seed)
    val_rows = []
    for cls in (0, 1):
        rows = np.flatnonzero(labels == cls)
        count = max(1, int(math.floor(rows.size * 0.1 + 0.5)))
        val_rows.append(rng.permutation(rows)[:count])
    val_mask = np.zeros(labels.size, dtype=bool)
    val_mask[np.concatenate(val_rows)] = True
    return np.flatnonzero(~val_mask), np.flatnonzero(val_mask)


# ---------------------------------------------------------------------------
# Feature CSV


def read_feature_csv(path) -> tuple[list[str], np.ndarray, np.ndarray]:
    """The feature CSV read with ``csv.reader`` and one ``float()`` per cell.
    A fault raises ``ValueError`` carrying the library's ``DataError`` text."""
    try:
        with open(path, encoding="utf-8", newline="") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader, None)
            except csv.Error:
                header = None
            if not header or header[:2] != ["image_id", "label"]:
                raise ValueError(f"{path}: missing or malformed feature header")
            ids, labels, rows = [], [], []
            lineno = 1
            try:
                for row in reader:
                    lineno += 1
                    if len(row) != len(header):
                        raise ValueError(
                            f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
                    if row[1] not in ("0", "1"):
                        raise ValueError(f"{path}:{lineno}: label must be 0 or 1, got {row[1]!r}")
                    try:
                        values = [float(x) for x in row[2:]]
                    except ValueError:
                        raise ValueError(f"{path}:{lineno}: non-numeric value") from None
                    ids.append(row[0])
                    labels.append(int(row[1]))
                    rows.append(values)
            except csv.Error as exc:
                raise ValueError(f"{path}:{lineno + 1}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not ids:
        raise ValueError(f"{path}: no feature rows")
    matrix = np.zeros((len(rows), len(header) - 2))
    for i, values in enumerate(rows):
        for j, x in enumerate(values):
            matrix[i, j] = x
    return ids, np.array(labels, dtype=np.int64), matrix
