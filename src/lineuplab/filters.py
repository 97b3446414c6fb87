"""Small-kernel image operations shared by feature extraction and curation.

All operations take a 2-D array of grayscale intensities, work in float64,
use replicated edges, and produce an output value at every pixel. Kernels are
applied as correlations (no kernel flip), which matches the usual image
processing convention; the Sobel/Laplacian kernels used here are either
symmetric or only ever consumed through magnitudes, so the distinction does
not leak into any feature value.
"""

from __future__ import annotations

import numpy as np

SOBEL_X = np.array([[-1.0, 0.0, 1.0], [-2.0, 0.0, 2.0], [-1.0, 0.0, 1.0]])
SOBEL_Y = np.array([[-1.0, -2.0, -1.0], [0.0, 0.0, 0.0], [1.0, 2.0, 1.0]])
LAPLACIAN = np.array([[0.0, 1.0, 0.0], [1.0, -4.0, 1.0], [0.0, 1.0, 0.0]])


def correlate3x3(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate a 2-D field with a 3x3 kernel, edges replicated."""
    a = np.asarray(field, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if a.ndim != 2 or a.shape[0] < 3 or a.shape[1] < 3:
        raise ValueError("field must be 2-D with both sides >= 3")
    if k.shape != (3, 3):
        raise ValueError("kernel must be 3x3")
    h, w = a.shape
    p = np.pad(a, 1, mode="edge")
    out = np.zeros((h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            if k[di, dj] != 0.0:
                out += k[di, dj] * p[di : di + h, dj : dj + w]
    return out


def sobel_gradients(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses (gx, gy)."""
    return correlate3x3(field, SOBEL_X), correlate3x3(field, SOBEL_Y)


def laplacian(field: np.ndarray) -> np.ndarray:
    """4-neighbor Laplacian response."""
    return correlate3x3(field, LAPLACIAN)


def laplacian_variance(field: np.ndarray) -> float:
    """Population variance of the Laplacian response, a sharpness proxy."""
    return float(np.var(laplacian(field)))


def box_mean3(field: np.ndarray) -> np.ndarray:
    """3x3 box average, edges replicated.

    Summing the window before a single division keeps the average of a
    constant patch bit-exact, so variance-style features built on this
    filter are exactly zero on constant images.
    """
    return correlate3x3(field, np.ones((3, 3))) / 9.0


# Paeth's median-of-9 exchange network (Graphics Gems, 1990).
_MEDIAN9_NETWORK = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)


def median3(field: np.ndarray) -> np.ndarray:
    """3x3 median filter, edges replicated.

    Paeth's 19-exchange median-of-9 network over the nine shifted views; the
    median ends in slot 4. On finite inputs min/max select exactly the values
    a sort would, so the result equals the sorted window's middle element.
    """
    a = np.asarray(field, dtype=np.float64)
    h, w = a.shape
    p = np.pad(a, 1, mode="edge")
    v = [p[di : di + h, dj : dj + w] for di in range(3) for dj in range(3)]
    for i, j in _MEDIAN9_NETWORK:
        v[i], v[j] = np.minimum(v[i], v[j]), np.maximum(v[i], v[j])
    return v[4]


def canny_edges(field: np.ndarray, low: float = 50.0, high: float = 150.0) -> np.ndarray:
    """Boolean edge mask from a Canny detector built on 3x3 Sobel gradients.

    Definition used throughout the package (and mirrored by the test oracle):
    L2 gradient magnitude, non-maximum suppression over four quantized
    directions with out-of-bounds neighbors treated as zero and plateaus kept
    (>= comparison on both sides), double threshold with strong = mag >= high
    and weak = low <= mag < high, then 8-connected hysteresis from strong
    pixels through weak ones.

    Hysteresis labels the 8-connected components of the strong and weak
    pixels and keeps every component that holds a strong pixel, which is the
    set a search from the strong pixels through weak ones would reach.
    """
    gx, gy = sobel_gradients(field)
    mag = np.hypot(gx, gy)
    h, w = mag.shape

    angle = np.degrees(np.arctan2(gy, gx)) % 180.0
    p = np.pad(mag, 1, mode="constant")

    def shifted(di: int, dj: int) -> np.ndarray:
        return p[1 + di : 1 + di + h, 1 + dj : 1 + dj + w]

    sector0 = (angle < 22.5) | (angle >= 157.5)
    sector45 = (angle >= 22.5) & (angle < 67.5)
    sector90 = (angle >= 67.5) & (angle < 112.5)
    # remaining pixels fall in the 135 degree sector

    n1 = np.where(
        sector0, shifted(0, 1),
        np.where(sector45, shifted(1, 1), np.where(sector90, shifted(1, 0), shifted(1, -1))),
    )
    n2 = np.where(
        sector0, shifted(0, -1),
        np.where(sector45, shifted(-1, -1), np.where(sector90, shifted(-1, 0), shifted(-1, 1))),
    )
    nms = np.where((mag >= n1) & (mag >= n2), mag, 0.0)

    strong = nms >= high
    weak = (nms >= low) & ~strong

    return _hysteresis(strong, strong | weak)


# 8-connected neighbour offsets that point forward in raster order; together
# with their mirror images they cover all eight neighbours.
_FORWARD_NEIGHBOURS = ((0, 1), (1, 0), (1, 1), (1, -1))


def _hysteresis(strong: np.ndarray, candidate: np.ndarray) -> np.ndarray:
    """Candidate pixels whose 8-connected candidate component holds a strong
    pixel.

    Components are labeled by hooking and pointer jumping (Shiloach and
    Vishkin, 1982): every round hooks the larger of two adjacent roots onto
    the smaller one, then jumps pointers until each candidate points at its
    root. The rounds stop when no neighbour pair spans two roots.
    """
    h, w = candidate.shape
    n = int(np.count_nonzero(candidate))
    ids = np.full((h, w), -1, dtype=np.intp)
    ids[candidate] = np.arange(n)
    us, vs = [], []
    for di, dj in _FORWARD_NEIGHBOURS:
        a = ids[: h - di, max(0, -dj) : w - max(0, dj)]
        b = ids[di:, max(0, dj) : w - max(0, -dj)]
        both = (a >= 0) & (b >= 0)
        us.append(a[both])
        vs.append(b[both])
    u, v = np.concatenate(us), np.concatenate(vs)

    parent = np.arange(n)
    while True:
        ru, rv = parent[u], parent[v]
        spans = ru != rv
        if not spans.any():
            break
        ru, rv = ru[spans], rv[spans]
        np.minimum.at(parent, np.maximum(ru, rv), np.minimum(ru, rv))
        while True:
            jumped = parent[parent]
            if np.array_equal(jumped, parent):
                break
            parent = jumped

    seeded = np.zeros(n, dtype=bool)
    seeded[parent[strong[candidate]]] = True
    edges = np.zeros((h, w), dtype=bool)
    edges[candidate] = seeded[parent]
    return edges
