"""The integer kernels agree with float64 arithmetic bit for bit.

On 8-bit pixels every 3x3 kernel sum is an integer of magnitude at most
9 * 255**2, so float64 computes it exactly in any summation order, and the
integer kernels must give the very same numbers. These tests hold them to
``np.array_equal`` (not a tolerance) against the loop oracles, and pin the
bytes of the 42 classical features over a fixed image set.
"""

import hashlib

import numpy as np
import pytest

import oracles
from lineuplab import filters
from lineuplab.corpus import ImageGray
from lineuplab.imgfeat import classical_features

# sha256 of the concatenated ``classical_features(img, None).tobytes()`` over
# ``golden_images()``.
GOLDEN_FEATURE_DIGEST = "e1f5dfc53472f9ed13e8c283538e6810041ba661d83ef69cc4db0c99058c88f6"


def _serpentine(rng, n: int) -> np.ndarray:
    """A 3 px stripe (125 on 100) snaking down the image: one long chain of
    weak edges, seeded by a strong patch at its start."""
    field = np.full((n, n), 100.0)
    rows = list(range(4, n - 6, 8))
    for i, r in enumerate(rows):
        field[r : r + 3, 4 : n - 4] = 125.0
        if i + 1 < len(rows):
            c = n - 7 if i % 2 == 0 else 4
            field[r : rows[i + 1] + 3, c : c + 3] = 125.0
    field[4:7, 4:10] = 175.0
    return np.clip(np.round(field + rng.normal(0.0, 1.0, size=field.shape)), 0, 255)


def _blur(px: np.ndarray) -> np.ndarray:
    """Rounded 3x3 mean with replicated edges."""
    h, w = px.shape
    p = np.pad(px, 1, mode="edge")
    return (sum(p[i : i + h, j : j + w] for i in range(3) for j in range(3)) + 4) // 9


def golden_images() -> list[np.ndarray]:
    """Seeded uint8 images from 3x3 to 250 px: constant, binary, ramp,
    noise, blurred noise and serpentine weak chains."""
    rng = np.random.default_rng(8)
    shapes = ((3, 3), (3, 17), (19, 4), (16, 16), (31, 47), (64, 64),
              (112, 112), (97, 250), (250, 250))
    images = []
    for h, w in shapes:
        rows, cols = np.indices((h, w))
        noise = rng.integers(0, 256, size=(h, w))
        images += [
            np.full((h, w), rng.integers(0, 256)),
            rng.integers(0, 2, size=(h, w)) * 255,
            (rows * int(rng.integers(1, 9)) + cols * int(rng.integers(0, 9))) % 256,
            noise,
            _blur(_blur(noise)),
        ]
    images += [_serpentine(rng, 80), _serpentine(rng, 250)]
    return [np.asarray(px).astype(np.uint8) for px in images]


def test_classical_features_match_the_float64_digest():
    """The digest was captured at the parent commit of the integer kernels
    (ec9f47c), where every filter and feature ran in float64."""
    digest = hashlib.sha256()
    for px in golden_images():
        digest.update(classical_features(ImageGray(px.shape[1], px.shape[0], px), None).tobytes())
    assert digest.hexdigest() == GOLDEN_FEATURE_DIGEST


def test_sector_masks_equal_arctan2_on_every_8bit_sobel_pair():
    # Sobel responses of 8-bit pixels lie in [-1020, 1020] on both axes.
    g = np.arange(-1020, 1021, dtype=np.float64)
    for start in range(0, g.size, 256):
        gy, gx = np.meshgrid(g[start : start + 256], g, indexing="ij")
        angle = np.degrees(np.arctan2(gy, gx)) % 180.0
        want = np.select([(angle < 22.5) | (angle >= 157.5), angle < 67.5, angle < 112.5],
                         [0, 1, 2], 3)
        masks = np.stack(filters.gradient_sectors(gx, gy))
        assert (masks.sum(axis=0) == 1).all()
        assert np.array_equal(masks.argmax(axis=0), want)


def _kernel_inputs():
    rng = np.random.default_rng(31)
    shapes = ((3, 3), (3, 11), (9, 4), (17, 23))
    images = [rng.integers(0, 256, size=shape) for shape in shapes]
    images += [rng.integers(0, 2, size=(12, 15)) * 255, np.full((5, 7), 255),
               np.add.outer(np.arange(10) * 29, np.arange(13) * 17) % 256]
    return [px.astype(np.uint8) for px in images]


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_kernels_equal_the_loop_oracles_exactly(dtype):
    for px in _kernel_inputs():
        field = px.astype(dtype)
        gx, gy = filters.sobel_gradients(field)
        want_gx, want_gy = oracles.sobel(px)
        assert gx.dtype == gy.dtype == np.float64
        assert np.array_equal(gx, want_gx) and np.array_equal(gy, want_gy)
        assert np.array_equal(filters.laplacian(field), oracles.conv3(px, oracles.LAPLACIAN))
        assert np.array_equal(filters.box_mean3(field), oracles.conv3(px, oracles.ONES3) / 9.0)
        assert np.array_equal(filters.median3(field), oracles.median3(px))
        assert filters.median3(field).dtype == np.float64


def test_box_mean_of_squared_pixels_equals_the_oracle_exactly():
    # texture_features squares the pixels into uint16 before the box filter
    for px in _kernel_inputs():
        squares = np.square(px, dtype=np.uint16)
        want = oracles.conv3(px.astype(np.float64) ** 2, oracles.ONES3) / 9.0
        assert np.array_equal(filters.box_mean3(squares), want)
        assert np.array_equal(filters.box_mean3(squares.astype(np.float64)), want)


@pytest.mark.parametrize("dtype", [np.uint8, np.float64])
def test_canny_equals_the_loop_oracle_exactly(dtype):
    rng = np.random.default_rng(47)
    images = _kernel_inputs() + [rng.integers(0, 256, size=(20, 20)).astype(np.uint8)
                                 for _ in range(3)]
    for px in images:
        for low, high in ((50.0, 150.0), (0.0, 100.0), (120.0, 60.0), (300.0, 600.0)):
            want = oracles.canny(px.astype(np.float64), low, high)
            assert np.array_equal(filters.canny_edges(px.astype(dtype), low, high), want)


def test_canny_reuses_the_callers_gradients():
    px = golden_images()[-2]
    gx, gy = filters.sobel_gradients(px)
    mag = np.hypot(gx, gy)
    edges = filters.canny_edges(px, gradients=(gx, gy, mag))
    assert edges.any()
    assert np.array_equal(edges, filters.canny_edges(px.astype(np.float64)))
