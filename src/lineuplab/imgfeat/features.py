"""Pixel-statistics features, feature-row assembly and the feature CSV.

``classical_features`` builds each image's shared intermediates
(``ImagePlanes``) once and passes them to the five category functions,
which take planes only. The planes, and every plane-sized temporary of the
categories, are written into a ``filters.Workspace`` that a caller may
keep from image to image, so extraction stops allocating once it has seen
its largest image. The Sobel, Laplacian, box and median kernels run in
exact integer arithmetic on the 8-bit pixels, and everything else in
float64 on the raw 0..255 intensities, through numpy's own reductions on
contiguous float64 planes; every value equals the all-float64 computation
bit for bit. Standard deviations are
population (ddof 0) throughout; histograms use 256 bins and natural-log
entropy with 0*ln(0) taken as 0; percentiles interpolate linearly between
order statistics. Kernel operations replicate edges and produce a value at
every pixel. The FFT is the unnormalized forward transform with a centered
spectrum.

Feature rows have one in-memory form, the ``(ids, labels, matrix)`` triple:
image ids, 0/1 int64 labels and a float64 matrix whose row is the embedding
followed by the 42 classical features. ``write_feature_csv`` writes exactly
the triple ``read_feature_csv`` returns; the reader lives in
``lineuplab.imgfeat.table``, which does not import the image code.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from lineuplab import filters
from lineuplab.corpus import ImageGray, LandmarkSet
from lineuplab.errors import DataError
from lineuplab.imgfeat.geometry import GEOMETRY_FEATURE_NAMES, geometry_features
from lineuplab.imgfeat.table import read_feature_csv  # re-exported

DARK_THRESHOLD = 50
BRIGHT_THRESHOLD = 200
CLIP_LIMIT = 1e6

LIGHTING_NAMES = (
    "light_mean", "light_std", "light_entropy",
    "light_dark_ratio", "light_bright_ratio", "light_laplacian_var",
)
QUALITY_NAMES = (
    "qual_local_contrast", "qual_global_contrast", "qual_dynamic_range",
    "qual_entropy", "qual_michelson", "qual_rms_contrast", "qual_std",
)
NOISE_NAMES = (
    "noise_sigma", "noise_snr_db", "noise_nsr",
    "noise_residual_std", "noise_residual_absmean",
)
SHARPNESS_NAMES = (
    "sharp_grad_mean", "sharp_grad_std", "sharp_laplacian_var",
    "sharp_highfreq_energy", "sharp_log_magnitude", "sharp_laplacian_var_dup",
)
TEXTURE_NAMES = ("tex_local_variance", "tex_edge_density")

CLASSICAL_FEATURE_NAMES = (
    LIGHTING_NAMES + QUALITY_NAMES + NOISE_NAMES
    + SHARPNESS_NAMES + TEXTURE_NAMES + GEOMETRY_FEATURE_NAMES
)
CLASSICAL_FEATURE_COUNT = len(CLASSICAL_FEATURE_NAMES)
assert CLASSICAL_FEATURE_COUNT == 42


@dataclass(frozen=True)
class ImagePlanes:
    """One image's intermediates, built once and shared by the categories.

    ``width`` is the image width, as on ``ImageGray``. The gradient planes
    are the exact Sobel responses of the pixels, in int16. The planes live
    in ``work``, whose ``scratch.*`` slots the categories use, so they stay
    valid until ``work`` builds the next image's planes.
    """

    width: int
    pixels: np.ndarray      # (h, w) uint8
    field: np.ndarray       # the pixels as float64
    field_std: float        # field.std()
    counts: np.ndarray      # 256-bin histogram
    hist: np.ndarray        # the same, normalized
    gx: np.ndarray          # (h, w) int16
    gy: np.ndarray
    magnitude: np.ndarray   # np.hypot(gx, gy) in float64
    laplacian_var: float
    work: filters.Workspace


def image_planes(img: ImageGray, work: filters.Workspace | None = None) -> ImagePlanes:
    """The planes of ``img``, the one input of the five category functions,
    built in ``work`` (a fresh workspace by default)."""
    work = filters.Workspace() if work is None else work
    pixels = img.pixels
    gx, gy = filters.sobel_gradients(pixels, work, np.int16)
    field = work.plane("field", pixels.shape)
    field[...] = pixels
    # bincount would otherwise copy the bytes to intp itself
    codes = work.plane("scratch.0", pixels.shape, np.intp)
    codes[...] = pixels
    counts = np.bincount(codes.ravel(), minlength=256)
    scratch = work.plane("scratch.0", pixels.shape)  # the codes are spent
    return ImagePlanes(
        width=img.width,
        pixels=pixels,
        field=field,
        field_std=_std(field, scratch),
        counts=counts,
        hist=counts / pixels.size,
        gx=gx,
        gy=gy,
        magnitude=np.hypot(gx, gy, out=work.plane("magnitude", pixels.shape), dtype=np.float64),
        laplacian_var=filters.laplacian_variance(pixels, work, scratch),
        work=work,
    )


def _scratch(planes: ImagePlanes, k: int, shape=None, dtype=np.float64) -> np.ndarray:
    """Scratch plane ``k`` of ``planes.work``, by default float64 of the
    image's shape; a category's scratch holds nothing after it returns."""
    return planes.work.plane(f"scratch.{k}", planes.field.shape if shape is None else shape,
                             dtype)


def _std(a: np.ndarray, out: np.ndarray) -> np.float64:
    """``a.std()``, bit for bit, through ``out``."""
    return np.sqrt(filters.variance(a, out))


def _entropy(hist: np.ndarray) -> float:
    nz = hist[hist > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def lighting_features(planes: ImagePlanes) -> np.ndarray:
    field, counts = planes.field, planes.counts
    return np.array([
        field.mean(),
        planes.field_std,
        _entropy(planes.hist),
        counts[:DARK_THRESHOLD].sum() / field.size,
        counts[BRIGHT_THRESHOLD + 1 :].sum() / field.size,
        planes.laplacian_var,
    ])


def quality_features(planes: ImagePlanes) -> np.ndarray:
    field, hist = planes.field, planes.hist
    combined = np.abs(planes.gx, out=_scratch(planes, 0))
    combined += np.abs(planes.gy, out=_scratch(planes, 1))
    mu = field.mean()
    levels = np.arange(256, dtype=np.float64)
    global_contrast = float(np.sqrt(np.sum((levels - mu) ** 2 * hist)))
    ordered = _scratch(planes, 1)
    ordered[...] = field
    p5, p95 = np.percentile(ordered, [5, 95], overwrite_input=True)
    imax, imin = field.max(), field.min()
    michelson = (imax - imin) / (imax + imin) if imax + imin > 0 else 0.0
    return np.array([
        filters.variance(combined, combined),
        global_contrast,
        p95 - p5,
        _entropy(hist),
        michelson,
        # the RMS contrast sqrt(mean((field - mu) ** 2)) is numpy's std, step for step
        planes.field_std,
        planes.field_std,
    ])


def noise_features(planes: ImagePlanes) -> np.ndarray:
    field = planes.field
    h, w = field.shape
    diag = np.subtract(field[:-1, :-1], field[1:, 1:], out=_scratch(planes, 0, (h - 1, w - 1)))
    sigma = float(_std(diag, diag))
    mean_sq = float(np.square(field, out=_scratch(planes, 0)).mean())
    if sigma == 0.0:
        snr = CLIP_LIMIT
    elif mean_sq == 0.0:
        snr = -CLIP_LIMIT
    else:
        snr = float(np.clip(10.0 * np.log10(mean_sq / sigma**2), -CLIP_LIMIT, CLIP_LIMIT))
    nsr = sigma**2 / mean_sq if mean_sq > 0.0 else 0.0
    residual = filters.median3(planes.pixels, planes.work, _scratch(planes, 1))
    np.subtract(field, residual, out=residual)
    absmean = np.abs(residual, out=_scratch(planes, 0)).mean()
    return np.array([
        sigma,
        snr,
        nsr,
        _std(residual, residual),
        absmean,
    ])


@lru_cache(maxsize=8)
def _high_frequencies(h: int, w: int) -> np.ndarray:
    """Read-only raster indices of the centered spectrum's bins at least a
    quarter of the shorter side from the zero frequency; images share a few
    shapes."""
    rows = np.arange(h, dtype=np.float64)[:, None] - h // 2
    cols = np.arange(w, dtype=np.float64)[None, :] - w // 2
    high = np.flatnonzero(np.hypot(rows, cols) >= min(h, w) / 4.0)
    high.flags.writeable = False
    return high


def _fftshift(a: np.ndarray, out: np.ndarray) -> np.ndarray:
    """``np.fft.fftshift(a)`` of a 2-D array, as four quadrant copies into
    ``out``."""
    h, w = a.shape
    rows = ((slice(h // 2, None), slice(None, h - h // 2)),
            (slice(None, h // 2), slice(h - h // 2, None)))
    cols = ((slice(w // 2, None), slice(None, w - w // 2)),
            (slice(None, w // 2), slice(w - w // 2, None)))
    for to_rows, from_rows in rows:
        for to_cols, from_cols in cols:
            out[to_rows, to_cols] = a[from_rows, from_cols]
    return out


def sharpness_features(planes: ImagePlanes) -> np.ndarray:
    field, magnitude = planes.field, planes.magnitude
    # The transform runs in place on a complex copy, as fft2 of the real
    # field would on the copy it makes itself; the centered spectrum then
    # takes the transform's place. abs commutes with the shift, which only
    # moves bins.
    transform = _scratch(planes, 0, dtype=np.complex128)
    transform[...] = field
    np.fft.fft2(transform, out=transform)
    spectrum = _fftshift(np.abs(transform, out=_scratch(planes, 1)), _scratch(planes, 0))
    high = _high_frequencies(*field.shape)
    high_energy = np.take(spectrum.ravel(), high, out=_scratch(planes, 1, high.shape),
                          mode="clip").mean()
    return np.array([
        magnitude.mean(),
        _std(magnitude, _scratch(planes, 1)),
        planes.laplacian_var,
        high_energy,
        np.log1p(spectrum, out=spectrum).mean(),
        planes.laplacian_var,
    ])


def texture_features(planes: ImagePlanes) -> np.ndarray:
    pixels, work = planes.pixels, planes.work
    square_of_mean = filters.box_mean3(pixels, work, _scratch(planes, 0))
    square_of_mean *= square_of_mean
    squares = np.square(pixels, dtype=np.uint16, out=_scratch(planes, 2, dtype=np.uint16))
    local_var = filters.box_mean3(squares, work, _scratch(planes, 1))
    local_var -= square_of_mean
    edges = filters.canny_edges(pixels, gradients=(planes.gx, planes.gy, planes.magnitude),
                                work=work)
    return np.array([
        local_var.mean(),
        np.count_nonzero(edges) / pixels.size,
    ])


def classical_features(img: ImageGray, landmarks: LandmarkSet | None,
                       work: filters.Workspace | None = None) -> np.ndarray:
    """The 42 classical features in the fixed category order; ``work`` is
    the workspace to build the planes in (a fresh one by default)."""
    planes = image_planes(img, work)
    return np.concatenate([
        lighting_features(planes),
        quality_features(planes),
        noise_features(planes),
        sharpness_features(planes),
        texture_features(planes),
        geometry_features(landmarks, (img.width, img.height)),
    ])


def sanitize(values: np.ndarray) -> np.ndarray:
    """NaN and infinities become 0.0, then everything clips to +/-1e6."""
    out = np.asarray(values, dtype=np.float64).copy()
    out[~np.isfinite(out)] = 0.0
    np.clip(out, -CLIP_LIMIT, CLIP_LIMIT, out=out)
    return out


def assemble_feature_vector(vector: np.ndarray, img: ImageGray,
                            landmarks: LandmarkSet | None,
                            work: filters.Workspace | None = None) -> np.ndarray:
    """Embedding ``vector`` plus classical features (built in ``work``),
    sanitized into one read-only row."""
    values = sanitize(np.concatenate([np.asarray(vector, dtype=np.float64),
                                      classical_features(img, landmarks, work)]))
    values.flags.writeable = False
    return values


# ---------------------------------------------------------------------------
# Feature CSV: image_id, label, embedding columns, classical columns.


def feature_csv_header(embedding_dim: int) -> list[str]:
    return (
        ["image_id", "label"]
        + [f"emb_{i}" for i in range(embedding_dim)]
        + list(CLASSICAL_FEATURE_NAMES)
    )


def write_feature_csv(ids, labels, matrix, path) -> Path:
    """Write the ``(ids, labels, matrix)`` triple ``read_feature_csv``
    returns; labels are 0/1 (1 = lineup failure)."""
    path = Path(path)
    if not ids:
        raise DataError("no feature vectors to write")
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(feature_csv_header(matrix.shape[1] - CLASSICAL_FEATURE_COUNT))
        # tolist() gives Python floats, whose repr is the shortest round-trip text
        for image_id, label, row in zip(ids, labels, matrix.tolist()):
            writer.writerow([image_id, int(label), *map(repr, row)])
    return path
