"""Pixel-statistics features, feature-row assembly and the feature CSV.

``classical_features`` builds each image's shared intermediates
(``ImagePlanes``) once and passes them to the five category functions,
which take planes only. The Sobel, Laplacian, box and
median kernels run in exact integer arithmetic on the 8-bit pixels, and
everything else in float64 on the raw 0..255 intensities; every value
equals the all-float64 computation bit for bit. Standard deviations are
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
    are float64 holding the exact integer Sobel responses of the pixels.
    """

    width: int
    pixels: np.ndarray      # (h, w) uint8
    field: np.ndarray       # the pixels as float64
    hist: np.ndarray        # 256-bin histogram, normalized
    gx: np.ndarray
    gy: np.ndarray
    magnitude: np.ndarray   # np.hypot(gx, gy)
    laplacian_var: float


def image_planes(img: ImageGray) -> ImagePlanes:
    """The planes of ``img``, the one input of the five category functions."""
    pixels = img.pixels
    gx, gy = filters.sobel_gradients(pixels)
    return ImagePlanes(
        width=img.width,
        pixels=pixels,
        field=pixels.astype(np.float64),
        hist=np.bincount(pixels.ravel(), minlength=256) / pixels.size,
        gx=gx,
        gy=gy,
        magnitude=np.hypot(gx, gy),
        laplacian_var=filters.laplacian_variance(pixels),
    )


def _entropy(hist: np.ndarray) -> float:
    nz = hist[hist > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def lighting_features(planes: ImagePlanes) -> np.ndarray:
    field = planes.field
    return np.array([
        field.mean(),
        field.std(),
        _entropy(planes.hist),
        np.count_nonzero(planes.pixels < DARK_THRESHOLD) / field.size,
        np.count_nonzero(planes.pixels > BRIGHT_THRESHOLD) / field.size,
        planes.laplacian_var,
    ])


def quality_features(planes: ImagePlanes) -> np.ndarray:
    field, hist = planes.field, planes.hist
    combined = np.abs(planes.gx) + np.abs(planes.gy)
    mu = field.mean()
    levels = np.arange(256, dtype=np.float64)
    global_contrast = float(np.sqrt(np.sum((levels - mu) ** 2 * hist)))
    p5, p95 = np.percentile(field, [5, 95])
    imax, imin = field.max(), field.min()
    michelson = (imax - imin) / (imax + imin) if imax + imin > 0 else 0.0
    rms = float(np.sqrt(np.mean((field - mu) ** 2)))
    return np.array([
        combined.var(),
        global_contrast,
        p95 - p5,
        _entropy(hist),
        michelson,
        rms,
        field.std(),
    ])


def noise_features(planes: ImagePlanes) -> np.ndarray:
    field = planes.field
    diag = field[:-1, :-1] - field[1:, 1:]
    sigma = float(diag.std())
    mean_sq = float(np.mean(field**2))
    if sigma == 0.0:
        snr = CLIP_LIMIT
    elif mean_sq == 0.0:
        snr = -CLIP_LIMIT
    else:
        snr = float(np.clip(10.0 * np.log10(mean_sq / sigma**2), -CLIP_LIMIT, CLIP_LIMIT))
    nsr = sigma**2 / mean_sq if mean_sq > 0.0 else 0.0
    residual = field - filters.median3(planes.pixels)
    return np.array([
        sigma,
        snr,
        nsr,
        residual.std(),
        np.abs(residual).mean(),
    ])


@lru_cache(maxsize=8)
def _high_frequencies(h: int, w: int) -> np.ndarray:
    """Read-only mask of the centered spectrum's bins at least a quarter of
    the shorter side from the zero frequency; images share a few shapes."""
    rows = np.arange(h, dtype=np.float64)[:, None] - h // 2
    cols = np.arange(w, dtype=np.float64)[None, :] - w // 2
    high = np.hypot(rows, cols) >= min(h, w) / 4.0
    high.flags.writeable = False
    return high


def sharpness_features(planes: ImagePlanes) -> np.ndarray:
    field, magnitude = planes.field, planes.magnitude
    spectrum = np.abs(np.fft.fftshift(np.fft.fft2(field)))
    return np.array([
        magnitude.mean(),
        magnitude.std(),
        planes.laplacian_var,
        spectrum[_high_frequencies(*field.shape)].mean(),
        np.log1p(spectrum).mean(),
        planes.laplacian_var,
    ])


def texture_features(planes: ImagePlanes) -> np.ndarray:
    pixels = planes.pixels
    mean = filters.box_mean3(pixels)
    mean_sq = filters.box_mean3(np.square(pixels, dtype=np.uint16))
    local_var = mean_sq - mean**2
    edges = filters.canny_edges(pixels, gradients=(planes.gx, planes.gy, planes.magnitude))
    return np.array([
        local_var.mean(),
        np.count_nonzero(edges) / pixels.size,
    ])


def classical_features(img: ImageGray, landmarks: LandmarkSet | None) -> np.ndarray:
    """The 42 classical features in the fixed category order."""
    planes = image_planes(img)
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
                            landmarks: LandmarkSet | None) -> np.ndarray:
    """Embedding ``vector`` plus classical features, sanitized into one
    read-only row."""
    values = sanitize(np.concatenate([np.asarray(vector, dtype=np.float64),
                                      classical_features(img, landmarks)]))
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
        for image_id, label, row in zip(ids, labels, matrix):
            writer.writerow([image_id, int(label), *(repr(float(x)) for x in row)])
    return path
