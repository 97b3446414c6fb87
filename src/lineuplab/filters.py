"""Small-kernel image operations shared by feature extraction and curation.

All operations take a 2-D array of grayscale intensities, use replicated
edges and produce an output value at every pixel; the filtered planes are
float64, unless a caller asks ``sobel_gradients`` for its exact int16
responses of 8-bit input. Kernels are applied as correlations (no kernel
flip), which matches the usual image processing convention; the
Sobel/Laplacian kernels used here are either symmetric or only ever
consumed through magnitudes, so the distinction does not leak into any
feature value.

The Sobel and box kernels run as separable sums and the Laplacian as a
5-point sum, in the narrowest integer dtype that holds them exactly: int16
on 8-bit input (no sum here exceeds 9 * 255 in magnitude), int32 on 16-bit
input such as squared pixels (at most 9 * 65535), and float64 otherwise.
Every sum over such integers, or over integer-valued floats of that size,
is an integer far below 2**53, which float64 holds exactly in any summation
order: the results equal a float64 3x3 correlation (``correlate3x3``) bit
for bit. On other float input they agree with it up to rounding.

Every kernel but ``correlate3x3`` takes its scratch planes from a
``Workspace`` instead of allocating them, and the filters write their
result into ``out``, so a caller that passes the same workspace and output
planes for image after image stops allocating once it has seen its largest
image. A kernel called without them gets a fresh workspace and a new
result.
"""

from __future__ import annotations

import math

import numpy as np


class Workspace:
    """Scratch planes that one caller reuses from image to image.

    ``plane(slot, shape, dtype)`` returns a C-contiguous array over the bytes
    kept under ``slot``. Those bytes grow to the largest plane the slot has
    been asked for and are never handed back, so a smaller image gets a view
    into them and, once the largest image has been seen, no plane allocates.
    Every request for a slot views the same bytes: a plane stays valid until
    its slot is asked for again.

    The kernels of this module share the slots ``pad``, ``kernel.*``,
    ``median.*`` and ``canny.beyond``, which hold nothing from one call to
    the next. The planes they return live in slots named after them:
    ``sobel.gx`` and ``sobel.gy``, ``sectors.0`` to ``sectors.3`` (which
    ``canny_edges`` also overwrites) and ``canny.frame``. A workspace
    belongs to one thread.
    """

    def __init__(self) -> None:
        self._slots: dict[str, np.ndarray] = {}

    def plane(self, slot: str, shape: tuple[int, ...], dtype=np.float64) -> np.ndarray:
        dtype = np.dtype(dtype)
        nbytes = math.prod(shape) * dtype.itemsize
        buffer = self._slots.get(slot)
        if buffer is None or buffer.size < nbytes:
            buffer = self._slots[slot] = np.empty(nbytes, dtype=np.uint8)
        return buffer[:nbytes].view(dtype).reshape(shape)


def variance(a: np.ndarray, out: np.ndarray) -> np.float64:
    """``np.var(a)`` of a contiguous float64 array, bit for bit, with the
    deviations written to ``out`` (``a`` itself when it may be overwritten)
    instead of a new array: numpy's own steps, mean, deviation, square in
    place, sum, in the same order."""
    deviations = np.subtract(a, a.sum() / a.size, out=out)
    return np.square(deviations, out=deviations).sum() / a.size


def correlate3x3(field: np.ndarray, kernel: np.ndarray) -> np.ndarray:
    """Correlate a 2-D field with a 3x3 kernel in float64, edges replicated."""
    a = np.asarray(field, dtype=np.float64)
    k = np.asarray(kernel, dtype=np.float64)
    if k.shape != (3, 3):
        raise ValueError("kernel must be 3x3")
    p = _padded(a, Workspace())
    h, w = a.shape
    out = np.zeros((h, w), dtype=np.float64)
    for di in range(3):
        for dj in range(3):
            if k[di, dj] != 0.0:
                out += k[di, dj] * p[di : di + h, dj : dj + w]
    return out


def _padded(field: np.ndarray, work: Workspace, dtype=None) -> np.ndarray:
    """``field`` with a replicated one-pixel border, in the ``pad`` slot.

    ``dtype`` defaults to the exact sum dtype: int16 for 8-bit integers,
    int32 for 16-bit ones and float64 otherwise.
    """
    a = np.asarray(field)
    if a.ndim != 2 or a.shape[0] < 3 or a.shape[1] < 3:
        raise ValueError("field must be 2-D with both sides >= 3")
    if dtype is None:
        dtype = (np.int16 if a.dtype.itemsize == 1 else np.int32) if _small_int(a) else np.float64
    p = work.plane("pad", (a.shape[0] + 2, a.shape[1] + 2), dtype)
    p[1:-1, 1:-1] = a
    p[0, 1:-1] = a[0]
    p[-1, 1:-1] = a[-1]
    p[:, 0] = p[:, 1]
    p[:, -1] = p[:, -2]
    return p


def _small_int(a: np.ndarray) -> bool:
    return a.dtype.kind in "ui" and a.dtype.itemsize <= 2


def _smooth121(a: np.ndarray, b: np.ndarray, c: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``a + 2 * b + c``, summed in that order, into ``out``."""
    np.multiply(b, 2, out=out)
    out += a
    out += c
    return out


def sobel_gradients(field: np.ndarray, work: Workspace | None = None, dtype=np.float64
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Horizontal and vertical Sobel responses (gx, gy), the ``sobel.gx``
    and ``sobel.gy`` planes of ``work``, in ``dtype``; int16 holds them
    exactly on 8-bit input (at most 1020 in magnitude)."""
    work = Workspace() if work is None else work
    p = _padded(field, work)
    h, w = p.shape[0] - 2, p.shape[1] - 2
    gx = work.plane("sobel.gx", (h, w), dtype)
    gy = work.plane("sobel.gy", (h, w), dtype)
    # [1, 2, 1] smoothing across the derivative, then the central difference
    down = _smooth121(p[:-2], p[1:-1], p[2:], work.plane("kernel.0", (h, w + 2), p.dtype))
    np.subtract(down[:, 2:], down[:, :-2], out=gx)
    across = _smooth121(p[:, :-2], p[:, 1:-1], p[:, 2:],
                        work.plane("kernel.0", (h + 2, w), p.dtype))
    np.subtract(across[2:], across[:-2], out=gy)
    return gx, gy


def _result(field: np.ndarray, out: np.ndarray | None) -> np.ndarray:
    return np.empty(np.shape(field)) if out is None else out


def laplacian(field: np.ndarray, work: Workspace | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """4-neighbor Laplacian response."""
    work = Workspace() if work is None else work
    p = _padded(field, work)
    h, w = p.shape[0] - 2, p.shape[1] - 2
    ring = np.add(p[:-2, 1:-1], p[2:, 1:-1], out=work.plane("kernel.0", (h, w), p.dtype))
    ring += p[1:-1, :-2]
    ring += p[1:-1, 2:]
    center = np.multiply(p[1:-1, 1:-1], 4, out=work.plane("kernel.1", (h, w), p.dtype))
    return np.subtract(ring, center, out=_result(field, out))


def laplacian_variance(field: np.ndarray, work: Workspace | None = None,
                       out: np.ndarray | None = None) -> float:
    """Population variance of the Laplacian response, a sharpness proxy;
    ``out`` takes the response and is overwritten."""
    lap = laplacian(field, work, out)
    return float(variance(lap, out=lap))


def box_mean3(field: np.ndarray, work: Workspace | None = None,
              out: np.ndarray | None = None) -> np.ndarray:
    """3x3 box average, edges replicated.

    Summing the window before a single division keeps the average of a
    constant patch bit-exact, so variance-style features built on this
    filter are exactly zero on constant images.
    """
    work = Workspace() if work is None else work
    p = _padded(field, work)
    h, w = p.shape[0] - 2, p.shape[1] - 2
    rows = np.add(p[:, :-2], p[:, 1:-1], out=work.plane("kernel.0", (h + 2, w), p.dtype))
    rows += p[:, 2:]
    window = np.add(rows[:-2], rows[1:-1], out=work.plane("kernel.1", (h, w), p.dtype))
    window += rows[2:]
    return np.divide(window, 9.0, out=_result(field, out))


# Paeth's median-of-9 exchange network (Graphics Gems, 1990).
_MEDIAN9_NETWORK = (
    (1, 2), (4, 5), (7, 8), (0, 1), (3, 4), (6, 7), (1, 2), (4, 5), (7, 8),
    (0, 3), (5, 8), (4, 7), (3, 6), (1, 4), (2, 5), (4, 7), (4, 2), (6, 4),
    (4, 2),
)


def median3(field: np.ndarray, work: Workspace | None = None,
            out: np.ndarray | None = None) -> np.ndarray:
    """3x3 median filter, edges replicated.

    Paeth's 19-exchange median-of-9 network over the nine shifted views; the
    median ends in slot 4. On finite inputs min/max select exactly the values
    a sort would, so the result equals the sorted window's middle element.
    Integer input of at most 16 bits runs the network in its own dtype.
    """
    work = Workspace() if work is None else work
    a = np.asarray(field)
    p = _padded(a, work, a.dtype if _small_int(a) else np.float64)
    h, w = a.shape
    v = []
    for di in range(3):
        for dj in range(3):
            v.append(work.plane(f"median.{len(v)}", (h, w), p.dtype))
            v[-1][...] = p[di : di + h, dj : dj + w]
    spare = work.plane("median.9", (h, w), p.dtype)
    for i, j in _MEDIAN9_NETWORK:
        np.minimum(v[i], v[j], out=spare)
        np.maximum(v[i], v[j], out=v[j])
        v[i], spare = spare, v[i]
    out = _result(a, out)
    out[...] = v[4]
    return out


def gradient_sectors(gx: np.ndarray, gy: np.ndarray, work: Workspace | None = None
                     ) -> tuple[np.ndarray, ...]:
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

    int16 gradients, the Sobel responses of 8-bit pixels (at most 1020 in
    magnitude), are compared in int32, which holds these products exactly
    up to 23170; other gradients are compared in their own dtype. The masks
    are the ``sectors.0`` to ``sectors.3`` planes of ``work``.
    """
    work = Workspace() if work is None else work
    shape = gx.shape
    dtype = np.result_type(gx, gy)
    if dtype == np.int16:
        dtype = np.dtype(np.int32)
    rising = np.greater(gx, 0, out=work.plane("sectors.1", shape, bool))
    np.equal(rising, np.greater(gy, 0, out=work.plane("sectors.3", shape, bool)), out=rising)
    ax = np.abs(gx, out=work.plane("kernel.0", shape, dtype))
    ay = np.abs(gy, out=work.plane("kernel.1", shape, dtype))
    two_gx2 = np.multiply(ax, 2, out=work.plane("kernel.2", shape, dtype))
    two_gx2 *= ax
    total = np.add(ax, ay, out=work.plane("kernel.3", shape, dtype))
    total *= total
    flat = np.less_equal(total, two_gx2, out=work.plane("sectors.0", shape, bool))
    rise = np.subtract(ay, ax, out=ay)
    steep = np.greater(rise, 0, out=work.plane("sectors.2", shape, bool))
    rise *= rise
    steep &= np.greater(rise, two_gx2, out=work.plane("sectors.3", shape, bool))
    diagonal = np.logical_or(flat, steep, out=work.plane("sectors.3", shape, bool))
    np.logical_not(diagonal, out=diagonal)
    falling = np.logical_not(rising, out=work.plane("kernel.0", shape, bool))
    np.logical_and(diagonal, rising, out=rising)
    np.logical_and(diagonal, falling, out=diagonal)
    return flat, rising, steep, diagonal


# Neighbour offset along each sector's gradient direction, in sector order.
_SECTOR_STEPS = ((0, 1), (1, 1), (1, 0), (1, -1))


def canny_edges(field: np.ndarray, low: float = 50.0, high: float = 150.0,
                gradients: tuple[np.ndarray, np.ndarray, np.ndarray] | None = None,
                work: Workspace | None = None) -> np.ndarray:
    """Boolean edge mask from a Canny detector built on 3x3 Sobel gradients.

    Definition used throughout the package (and mirrored by the test oracle):
    L2 gradient magnitude, non-maximum suppression over four quantized
    directions (``gradient_sectors``) with out-of-bounds neighbors treated
    as zero and plateaus kept (>= comparison on both sides), double
    threshold with strong = mag >= high and weak = low <= mag < high, then
    8-connected hysteresis from strong pixels through weak ones.

    ``gradients`` takes ``field``'s Sobel (gx, gy) and their ``np.hypot``
    when the caller already holds them; otherwise they are computed in int16
    on 8-bit ``field``. The mask is the ``canny.frame`` plane of ``work``,
    cut to the image.

    Hysteresis labels the 8-connected components of the strong and weak
    pixels and keeps every component that holds a strong pixel, which is the
    set a search from the strong pixels through weak ones would reach.
    """
    work = Workspace() if work is None else work
    if gradients is None:
        a = np.asarray(field)
        eight_bit = a.dtype.kind in "ui" and a.dtype.itemsize == 1
        gx, gy = sobel_gradients(a, work, np.int16 if eight_bit else np.float64)
        mag = np.hypot(gx, gy, dtype=np.float64)
    else:
        gx, gy, mag = gradients
    sectors = gradient_sectors(gx, gy, work)
    w = mag.shape[1]
    beyond = work.plane("canny.beyond", mag.shape, bool)
    # Each pixel is compared with the neighbours at a flat offset, which
    # keeps every comparison contiguous. A pixel with no neighbour there
    # (past the last row, or where the step wraps to the next row) passes;
    # its neighbour is 0.0, and mag >= 0.0 is applied to every pixel below.
    flat_mag, flat_beyond = np.ravel(mag), beyond.ravel()
    for sector, (di, dj) in zip(sectors, _SECTOR_STEPS):
        for si, sj in ((di, dj), (-di, -dj)):
            k = si * w + sj
            if k > 0:
                np.greater_equal(flat_mag[:-k], flat_mag[k:], out=flat_beyond[:-k])
                flat_beyond[-k:] = True
            else:
                np.greater_equal(flat_mag[-k:], flat_mag[:k], out=flat_beyond[-k:])
                flat_beyond[:-k] = True
            if sj:
                beyond[:, -1 if sj > 0 else 0] = True
            sector &= beyond
    kept = sectors[0]
    for sector in sectors[1:]:
        kept |= sector
    # Within the border, mag >= a neighbour's magnitude implies mag >= 0.0.
    kept &= np.greater_equal(mag, 0.0, out=beyond)
    # strong and candidate are where(kept, mag, 0.0) >= high and >= low,
    # in two sector planes that are free now
    strong, candidate = sectors[1], sectors[2]
    for plane, level in ((strong, high), (candidate, low)):
        np.greater_equal(mag, level, out=plane)
        if 0.0 >= level:
            plane |= np.logical_not(kept, out=beyond)
        else:
            plane &= kept
    candidate |= strong
    return _hysteresis(strong, candidate, work)


# 8-connected neighbour offsets that point forward in raster order; together
# with their mirror images they cover all eight neighbours.
_FORWARD_NEIGHBOURS = ((0, 1), (1, 0), (1, 1), (1, -1))


def _neighbour_pairs(flat: np.ndarray, pos: np.ndarray, ids: np.ndarray, width: int
                     ) -> tuple[np.ndarray, np.ndarray]:
    """The ids (u, v) of every pair of 8-connected candidates, ``flat`` being
    the framed candidate mask, ``pos`` its candidate positions and ``ids``
    the id at each of them."""
    us, vs = [], []
    for di, dj in _FORWARD_NEIGHBOURS:
        step = di * width + dj
        linked = flat[pos + step]
        us.append(np.flatnonzero(linked))
        vs.append(ids[pos[linked] + step])
    return np.concatenate(us), np.concatenate(vs)


def _hysteresis(strong: np.ndarray, candidate: np.ndarray, work: Workspace) -> np.ndarray:
    """Candidate pixels whose 8-connected candidate component holds a strong
    pixel, as a view of the ``canny.frame`` plane.

    Components are labeled by hooking and pointer jumping (Shiloach and
    Vishkin, 1982): every round hooks the larger of two adjacent roots onto
    the smaller one, then jumps pointers until each candidate points at its
    root. The rounds stop when no neighbour pair spans two roots. Component
    ids are int32.
    """
    h, w = candidate.shape
    # The candidates sit in a frame with an empty column on either side and
    # an empty row below, so a forward step from any pixel stays inside the
    # frame and never wraps onto a pixel of the next row: the neighbour
    # pairs are found with O(candidates) flat lookups.
    width = w + 2
    frame = work.plane("canny.frame", (h + 1, width), bool)
    frame[h] = False
    frame[:h, 0] = frame[:h, -1] = False
    frame[:h, 1:-1] = candidate
    flat = frame.ravel()
    pos = np.flatnonzero(flat)
    n = pos.size
    # read at candidate positions only
    ids = work.plane("kernel.0", (flat.size,), np.int32)
    ids[pos] = np.arange(n, dtype=np.int32)
    u, v = _neighbour_pairs(flat, pos, ids, width)

    parent = np.arange(n, dtype=np.int32)
    while True:
        ru, rv = parent[u], parent[v]
        spans = ru != rv
        if not spans.any():
            break
        # an edge within one component never spans two again
        u, v, ru, rv = u[spans], v[spans], ru[spans], rv[spans]
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
