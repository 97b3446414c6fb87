"""Small-kernel image operations shared by feature extraction and curation.

All operations take a 2-D array of grayscale intensities, use replicated
edges and produce an output value at every pixel; the filtered planes are
float64. Kernels are applied as correlations (no kernel flip), which
matches the usual image processing convention; the Sobel/Laplacian kernels
used here are either symmetric or only ever consumed through magnitudes, so
the distinction does not leak into any feature value.

The Sobel and box kernels run as separable sums and the Laplacian as a
5-point sum, in int32 on integer input of at most 16 bits (8-bit pixels
and their squares) and in float64 otherwise. Every sum over such integers,
or over integer-valued floats of that size, is an integer far below 2**53,
which float64 holds exactly in any summation order: the results equal a
float64 3x3 correlation (``correlate3x3``) bit for bit. On other float
input they agree with it up to rounding.
"""

from __future__ import annotations

import numpy as np


def correlate3x3(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate a 2-D field with a 3x3 kernel in float64, edges replicated."""
    a = np.asarray(field, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if k.shape != (3, 3):
        raise ValueError("kernel must be 3x3")
    p = _padded(a)
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            if k[di, dj] != 0.0:
                out += k[di, dj] * p[di : di + h, dj : dj + w]
    return out


def _padded(field: np.ndarray) -> np.ndarray:
    """``field`` with a replicated one-pixel border, as int32 when it holds
    integers of at most 16 bits (no sum here then exceeds 9 * 65535 in
    magnitude) and as float64 otherwise."""
    a = np.asarray(field)
    if a.ndim != 2 or a.shape[0] < 3 or a.shape[1] < 3:
        raise ValueError("field must be 2-D with both sides >= 3")
    return np.pad(a.astype(np.int32 if _small_int(a) else np.float64), 1, mode="edge")


def _small_int(a: np.ndarray) -> bool:
    return a.dtype.kind in "ui" and a.dtype.itemsize <= 2


def sobel_gradients(field: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses (gx, gy)."""
    p = _padded(field)
    # [1, 2, 1] smoothing across the derivative, then the central difference
    down = p[:-2] + 2 * p[1:-1] + p[2:]
    across = p[:, :-2] + 2 * p[:, 1:-1] + p[:, 2:]
    gx = down[:, 2:] - down[:, :-2]
    gy = across[2:] - across[:-2]
    return gx.astype(np.float64, copy=False), gy.astype(np.float64, copy=False)


def laplacian(field: np.ndarray) -> np.ndarray:
    """4-neighbor Laplacian response."""
    p = _padded(field)
    lap = p[:-2, 1:-1] + p[2:, 1:-1] + p[1:-1, :-2] + p[1:-1, 2:] - 4 * p[1:-1, 1:-1]
    return lap.astype(np.float64, copy=False)


def laplacian_variance(field: np.ndarray) -> float:
    """Population variance of the Laplacian response, a sharpness proxy."""
    return float(np.var(laplacian(field)))


def box_mean3(field: np.ndarray) -> np.ndarray:
    """3x3 box average, edges replicated.

    Summing the window before a single division keeps the average of a
    constant patch bit-exact, so variance-style features built on this
    filter are exactly zero on constant images.
    """
    p = _padded(field)
    rows = p[:, :-2] + p[:, 1:-1] + p[:, 2:]
    return (rows[:-2] + rows[1:-1] + rows[2:]) / 9.0


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
    Integer input of at most 16 bits runs the network in its own dtype.
    """
    a = np.asarray(field)
    if not _small_int(a):
        a = a.astype(np.float64)
    h, w = a.shape
    p = np.pad(a, 1, mode="edge")
    v = [p[di : di + h, dj : dj + w] for di in range(3) for dj in range(3)]
    for i, j in _MEDIAN9_NETWORK:
        v[i], v[j] = np.minimum(v[i], v[j]), np.maximum(v[i], v[j])
    return v[4].astype(np.float64, copy=False)


def gradient_sectors(gx: np.ndarray, gy: np.ndarray) -> tuple[np.ndarray, ...]:
    """Boolean masks of the gradient directions quantized to 0, 45, 90 and
    135 degrees, in that order; every pixel is in exactly one.

    With the angle ``degrees(arctan2(gy, gx)) % 180``, the sectors are
    below 22.5 or from 157.5, [22.5, 67.5), [67.5, 112.5) and [112.5,
    157.5). They are decided here without a tangent: 0 when
    (|gx| + |gy|)**2 <= 2 gx**2 (which takes in the zero gradient), 90 when
    |gy| > |gx| and (|gy| - |gx|)**2 > 2 gx**2, otherwise 45 or 135 by the
    sign of gx * gy. For integer gradients both sides of each comparison are
    exact integers and neither boundary is reachable (tan 22.5 and tan 67.5
    are irrational), so the masks equal the arctan2 sectors; the tests check
    this on every Sobel pair of 8-bit input. For other input these
    comparisons are the definition.
    """
    ax, ay = np.abs(gx), np.abs(gy)
    two_gx2 = 2 * gx * gx
    total = ax + ay
    flat = total * total <= two_gx2
    rise = ay - ax
    steep = (rise > 0) & (rise * rise > two_gx2)
    diagonal = ~(flat | steep)
    rising = (gx > 0) == (gy > 0)
    return flat, diagonal & rising, steep, diagonal & ~rising


# Neighbour offset along each sector's gradient direction, in sector order.
_SECTOR_STEPS = ((0, 1), (1, 1), (1, 0), (1, -1))


def canny_edges(field: np.ndarray, low: float = 50.0, high: float = 150.0,
                gradients: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None
                ) -> np.ndarray:
    """Boolean edge mask from a Canny detector built on 3x3 Sobel gradients.

    Definition used throughout the package (and mirrored by the test oracle):
    L2 gradient magnitude, non-maximum suppression over four quantized
    directions (``gradient_sectors``) with out-of-bounds neighbors treated
    as zero and plateaus kept (>= comparison on both sides), double
    threshold with strong = mag >= high and weak = low <= mag < high, then
    8-connected hysteresis from strong pixels through weak ones.

    ``gradients`` takes ``field``'s Sobel (gx, gy) and their ``np.hypot``
    when the caller already holds them.

    Hysteresis labels the 8-connected components of the strong and weak
    pixels and keeps every component that holds a strong pixel, which is the
    set a search from the strong pixels through weak ones would reach.
    """
    if gradients is None:
        gx, gy = sobel_gradients(field)
        mag = np.hypot(gx, gy)
    else:
        gx, gy, mag = gradients
    h, w = mag.shape
    p = np.pad(mag, 1, mode="constant")
    kept = np.zeros((h, w), dtype=bool)
    for sector, (di, dj) in zip(gradient_sectors(gx, gy), _SECTOR_STEPS):
        ahead = p[1 + di : 1 + di + h, 1 + dj : 1 + dj + w]
        behind = p[1 - di : 1 - di + h, 1 - dj : 1 - dj + w]
        kept |= sector & (mag >= ahead) & (mag >= behind)
    nms = np.where(kept, mag, 0.0)
    strong = nms >= high
    return _hysteresis(strong, strong | (nms >= low))


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
    # The candidates sit in a frame with an empty column on either side and
    # an empty row below, so a forward step from any pixel stays inside the
    # frame and never wraps onto a pixel of the next row: the neighbour
    # pairs are found with O(candidates) flat lookups.
    width = w + 2
    frame = np.zeros((h + 1, width), dtype=bool)
    frame[:h, 1:-1] = candidate
    flat = frame.ravel()
    pos = np.flatnonzero(flat)
    n = pos.size
    ids = np.empty(flat.size, dtype=np.intp)  # read at candidate positions only
    ids[pos] = np.arange(n)
    us, vs = [], []
    for di, dj in _FORWARD_NEIGHBOURS:
        step = di * width + dj
        linked = flat[pos + step]
        us.append(np.flatnonzero(linked))
        vs.append(ids[pos[linked] + step])
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
    flat[pos] = seeded[parent]
    return frame[:h, 1:-1]
