"""Pixel-statistics features and feature-vector assembly.

All computations run in float64 on the raw 0..255 intensities. Standard
deviations are population (ddof 0) throughout; histograms use 256 bins and
natural-log entropy with 0*ln(0) taken as 0; percentiles interpolate
linearly between order statistics. Kernel operations replicate edges and
produce a value at every pixel. The FFT is the unnormalized forward
transform with a centered spectrum.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lineuplab import filters
from lineuplab.corpus import EmbeddingRecord, ImageGray, LandmarkSet
from lineuplab.errors import DataError, open_text
from lineuplab.imgfeat.geometry import GEOMETRY_FEATURE_NAMES, geometry_features

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
class FeatureVector:
    image_id: str
    values: np.ndarray  # embedding followed by the 42 classical features


def _field(img: ImageGray) -> np.ndarray:
    return img.pixels.astype(np.float64)


def _histogram(pixels: np.ndarray) -> np.ndarray:
    counts = np.bincount(pixels.ravel(), minlength=256).astype(np.float64)
    return counts / pixels.size


def _entropy(hist: np.ndarray) -> float:
    nz = hist[hist > 0.0]
    return float(-np.sum(nz * np.log(nz)))


def lighting_features(img: ImageGray) -> np.ndarray:
    field = _field(img)
    hist = _histogram(img.pixels)
    return np.array([
        field.mean(),
        field.std(),
        _entropy(hist),
        np.count_nonzero(img.pixels < DARK_THRESHOLD) / field.size,
        np.count_nonzero(img.pixels > BRIGHT_THRESHOLD) / field.size,
        filters.laplacian_variance(field),
    ])


def quality_features(img: ImageGray) -> np.ndarray:
    field = _field(img)
    gx, gy = filters.sobel_gradients(field)
    combined = np.abs(gx) + np.abs(gy)
    hist = _histogram(img.pixels)
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


def noise_features(img: ImageGray) -> np.ndarray:
    field = _field(img)
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
    residual = field - filters.median3(field)
    return np.array([
        sigma,
        snr,
        nsr,
        residual.std(),
        np.abs(residual).mean(),
    ])


def sharpness_features(img: ImageGray) -> np.ndarray:
    field = _field(img)
    gx, gy = filters.sobel_gradients(field)
    magnitude = np.hypot(gx, gy)
    lap_var = filters.laplacian_variance(field)
    spectrum = np.abs(np.fft.fftshift(np.fft.fft2(field)))
    h, w = field.shape
    rows = np.arange(h, dtype=np.float64)[:, None] - h // 2
    cols = np.arange(w, dtype=np.float64)[None, :] - w // 2
    high = np.hypot(rows, cols) >= min(h, w) / 4.0
    return np.array([
        magnitude.mean(),
        magnitude.std(),
        lap_var,
        spectrum[high].mean(),
        np.log1p(spectrum).mean(),
        lap_var,
    ])


def texture_features(img: ImageGray) -> np.ndarray:
    field = _field(img)
    mean = filters.box_mean3(field)
    mean_sq = filters.box_mean3(field**2)
    local_var = mean_sq - mean**2
    edges = filters.canny_edges(field)
    return np.array([
        local_var.mean(),
        np.count_nonzero(edges) / field.size,
    ])


def classical_features(img: ImageGray, landmarks: LandmarkSet | None) -> np.ndarray:
    """The 42 classical features in the fixed category order."""
    return np.concatenate([
        lighting_features(img),
        quality_features(img),
        noise_features(img),
        sharpness_features(img),
        texture_features(img),
        geometry_features(landmarks, (img.width, img.height)),
    ])


def sanitize(values: np.ndarray) -> np.ndarray:
    """NaN and infinities become 0.0, then everything clips to +/-1e6."""
    out = np.asarray(values, dtype=np.float64).copy()
    out[~np.isfinite(out)] = 0.0
    np.clip(out, -CLIP_LIMIT, CLIP_LIMIT, out=out)
    return out


def assemble_feature_vector(embedding: EmbeddingRecord, img: ImageGray,
                            landmarks: LandmarkSet | None,
                            expected_dim: int | None = None) -> FeatureVector:
    """Embedding plus classical features, sanitized into one vector."""
    emb = np.asarray(embedding.vector, dtype=np.float64)
    if expected_dim is not None and emb.size != expected_dim:
        raise DataError(
            f"embedding for {embedding.image_id!r} has dimension {emb.size}, "
            f"expected {expected_dim}"
        )
    values = sanitize(np.concatenate([emb, classical_features(img, landmarks)]))
    values.flags.writeable = False
    return FeatureVector(image_id=embedding.image_id, values=values)


# ---------------------------------------------------------------------------
# Feature CSV: image_id, label, embedding columns, classical columns.


def feature_csv_header(embedding_dim: int) -> list[str]:
    return (
        ["image_id", "label"]
        + [f"emb_{i}" for i in range(embedding_dim)]
        + list(CLASSICAL_FEATURE_NAMES)
    )


def write_feature_csv(vectors, labels, path) -> Path:
    """``labels`` maps image_id -> integer label (1 = lineup failure)."""
    path = Path(path)
    vectors = list(vectors)
    if not vectors:
        raise DataError("no feature vectors to write")
    dim = vectors[0].values.size - CLASSICAL_FEATURE_COUNT
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(feature_csv_header(dim))
        for fv in vectors:
            if fv.values.size != dim + CLASSICAL_FEATURE_COUNT:
                raise DataError(f"feature vector {fv.image_id!r} has inconsistent length")
            row = [fv.image_id, int(labels[fv.image_id])]
            row.extend(repr(float(x)) for x in fv.values)
            writer.writerow(row)
    return path


def read_feature_csv(path):
    """Returns (image_ids, labels, matrix) with float64 features."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"feature file not found: {path}")
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header or header[:2] != ["image_id", "label"]:
            raise DataError(f"{path}: missing or malformed feature header")
        width = len(header) - 2
        ids: list[str] = []
        labels: list[int] = []
        rows: list[list[float]] = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != len(header):
                raise DataError(f"{path}:{lineno}: expected {len(header)} columns, got {len(row)}")
            ids.append(row[0])
            try:
                labels.append(int(row[1]))
                rows.append([float(x) for x in row[2:]])
            except ValueError:
                raise DataError(f"{path}:{lineno}: non-numeric value") from None
    if not ids:
        raise DataError(f"{path}: no feature rows")
    return ids, np.asarray(labels, dtype=np.int64), np.asarray(rows, dtype=np.float64).reshape(len(ids), width)
