"""Feature extraction reuses one workspace per worker, bit for bit.

``extract_features`` builds every image's planes in a workspace that it
keeps from image to image, so a plane that one image leaves behind must
never leak into the next one's features, whatever the order of the shapes
and the number of workers. These tests also pin what the benchmark's span
tracer and its memory bound read: the shared filters run once per image,
the category functions take the planes alone, and after its first image a
workspace allocates no plane-sized array.
"""

from __future__ import annotations

import inspect
from types import SimpleNamespace

import numpy as np
import pytest

from conftest import traced_peak
from lineuplab import filters
from lineuplab.config import load_config
from lineuplab.corpus import ImageGray, write_pgm
from lineuplab.imgfeat import features
from lineuplab.stages.features import extract_features

CATEGORIES = ("lighting", "quality", "noise", "sharpness", "texture")


def _textured(rng, h: int, w: int) -> np.ndarray:
    """Shaded background, three discs and noise: edges of every strength."""
    y, x = np.mgrid[0:h, 0:w].astype(np.float64)
    field = 100.0 + 40.0 * x / w + 20.0 * y / h
    for contrast in (-60.0, 30.0, 60.0):
        r = rng.uniform(0.1, 0.3) * min(h, w)
        cy, cx = rng.uniform(0, h), rng.uniform(0, w)
        field += np.where((x - cx) ** 2 + (y - cy) ** 2 < r * r, contrast, 0.0)
    field += rng.normal(0.0, 12.0, size=field.shape)
    return np.clip(np.round(field), 0, 255).astype(np.uint8)


def _image(rng, h: int, w: int) -> ImageGray:
    return ImageGray(w, h, _textured(rng, h, w))


SHAPES = ((250, 250), (112, 112), (97, 131), (3, 3))


@pytest.fixture(scope="module")
def images():
    """Two images of each shape, keyed by id."""
    rng = np.random.default_rng(27)
    return {f"{h}x{w}_{k}": _image(rng, h, w) for k in range(2) for h, w in SHAPES}


@pytest.mark.parametrize("parallelism", [1, 3])
@pytest.mark.parametrize("order", ["large_first", "small_first"])
def test_extract_features_rows_equal_fresh_planes_over_interleaved_shapes(
        tmp_path, images, parallelism, order):
    ids = sorted(images)
    # interleaved shapes: the workspace grows mid-run and smaller images reuse it
    targets = [ids[k] for k in (0, 4, 7, 2, 1, 5, 3, 6)]
    if order == "small_first":
        targets.reverse()
    for image_id in targets:
        write_pgm(images[image_id], tmp_path / f"{image_id}.pgm")
    config = load_config(None, {"paths.images": str(tmp_path),
                                "parallelism": str(parallelism)})
    vectors = {image_id: np.full(2, float(i)) for i, image_id in enumerate(targets)}
    handle = SimpleNamespace(dim=2, vector=vectors.__getitem__)
    matrix = extract_features(config, handle, {}, targets)
    for row, image_id in zip(matrix, targets):
        fresh = features.assemble_feature_vector(vectors[image_id], images[image_id], None)
        assert row.tobytes() == fresh.tobytes(), image_id


def test_workspace_planes_view_the_largest_buffer_so_far():
    work = filters.Workspace()
    big = work.plane("a", (4, 5))
    small = work.plane("a", (2, 3), np.int32)
    assert small.flags.c_contiguous and small.shape == (2, 3) and small.dtype == np.int32
    assert np.shares_memory(big, small)
    assert not np.shares_memory(big, work.plane("b", (4, 5)))
    grown = work.plane("a", (5, 5))
    assert not np.shares_memory(big, grown)
    assert np.shares_memory(grown, work.plane("a", (4, 5)))


def test_variance_equals_numpy_var_bit_for_bit(rng):
    for shape in ((3, 3), (97, 131), (250, 250), (1_000,)):
        for a in (rng.normal(100.0, 40.0, size=shape), rng.integers(0, 256, size=shape) * 1.0):
            out = np.empty_like(a)
            assert filters.variance(a, out) == np.var(a)
            assert filters.variance(a.copy(), out) == np.var(a)
            a_copy = a.copy()
            assert filters.variance(a_copy, a_copy) == np.var(a)


def test_fftshift_quadrants_equal_numpy(rng):
    for shape in ((3, 3), (4, 7), (97, 131), (112, 112)):
        a = rng.normal(size=shape)
        assert np.array_equal(features._fftshift(a, np.empty(shape)), np.fft.fftshift(a))


def test_classical_features_call_each_shared_filter_once_per_image(monkeypatch, images):
    """``filters.*.per_image`` in the benchmark's layer metrics counts these
    calls inside ``classical_features``; each reads 1.0."""
    calls = dict.fromkeys(("sobel_gradients", "laplacian", "canny_edges"), 0)
    for name in calls:
        original = getattr(filters, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            calls[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(filters, name, counted)
    work = filters.Workspace()
    for img in images.values():
        features.classical_features(img, None, work)
    assert calls == dict.fromkeys(calls, len(images))


def test_category_functions_take_the_planes_alone(monkeypatch, images):
    """The benchmark's tracer reads ``planes.width`` from the one argument
    ``classical_features`` passes each category function."""
    seen = []
    for category in CATEGORIES:
        name = f"{category}_features"
        original = getattr(features, name)
        assert list(inspect.signature(original).parameters) == ["planes"]

        def recorded(*args, _original=original, **kwargs):
            seen.append((args, kwargs))
            return _original(*args, **kwargs)

        monkeypatch.setattr(features, name, recorded)
    img = images["97x131_0"]
    features.classical_features(img, None, filters.Workspace())
    assert len(seen) == len(CATEGORIES)
    for args, kwargs in seen:
        assert kwargs == {} and len(args) == 1
        assert isinstance(args[0], features.ImagePlanes) and args[0].width == img.width == 131


def test_a_warm_workspace_allocates_no_plane_for_the_next_image():
    """Before the workspace, the second of two 250 x 250 images traced a
    6.9 MiB peak; a quarter of that leaves room for the hysteresis lists and
    small arrays, not for one more plane set."""
    rng = np.random.default_rng(5)
    first, second = _image(rng, 250, 250), _image(rng, 250, 250)
    work = filters.Workspace()
    features.classical_features(first, None, work)
    got, peak = traced_peak(lambda: features.classical_features(second, None, work))
    assert got.tobytes() == features.classical_features(second, None).tobytes()
    assert peak <= 6.9 * 2**20 / 4
