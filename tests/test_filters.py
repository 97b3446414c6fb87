import numpy as np
import pytest

import oracles
from lineuplab import filters


def test_correlate_matches_loop_oracle(rng):
    field = rng.uniform(0, 255, size=(9, 13))
    kernel = rng.normal(size=(3, 3))
    got = filters.correlate3x3(field, kernel)
    want = oracles.conv3(field, kernel)
    assert np.allclose(got, want, rtol=1e-12, atol=1e-9)


def test_correlate_rejects_bad_inputs():
    with pytest.raises(ValueError):
        filters.correlate3x3(np.zeros((2, 5)), np.zeros((3, 3)))
    with pytest.raises(ValueError):
        filters.correlate3x3(np.zeros((5, 5)), np.zeros((2, 2)))


def test_sobel_on_horizontal_ramp():
    # Column ramp: gx is the ramp slope times the kernel weight sum per side,
    # gy vanishes. Interior of a ramp with unit step: gx = 8.
    field = np.tile(np.arange(8, dtype=np.float64), (6, 1))
    gx, gy = filters.sobel_gradients(field)
    assert np.allclose(gx[:, 1:-1], 8.0)
    assert np.allclose(gy, 0.0)
    # Replicated edges halve the one-sided difference at the border columns.
    assert np.allclose(gx[:, 0], 4.0)
    assert np.allclose(gx[:, -1], 4.0)


def test_laplacian_of_impulse():
    field = np.zeros((5, 5))
    field[2, 2] = 1.0
    lap = filters.laplacian(field)
    assert lap[2, 2] == -4.0
    assert lap[1, 2] == lap[3, 2] == lap[2, 1] == lap[2, 3] == 1.0
    assert lap[0, 0] == 0.0


def test_laplacian_variance_constant_zero():
    assert filters.laplacian_variance(np.full((6, 6), 77.0)) == 0.0


def test_box_and_median_match_oracles(rng):
    field = rng.uniform(0, 255, size=(11, 7))
    assert np.allclose(filters.box_mean3(field),
                       oracles.conv3(field, oracles.ONES3) / 9.0,
                       rtol=1e-12, atol=1e-9)
    assert np.array_equal(filters.median3(field), oracles.median3(field))
    # Non-square shapes down to one window, real values and heavy ties.
    for shape in ((3, 3), (3, 17), (19, 4), (9, 26)):
        for field in (rng.normal(0.0, 50.0, size=shape),
                      rng.integers(0, 4, size=shape).astype(np.float64)):
            assert np.array_equal(filters.median3(field), oracles.median3(field))


def test_median_flattens_salt_noise():
    field = np.full((7, 7), 10.0)
    field[3, 3] = 255.0
    assert np.array_equal(filters.median3(field), np.full((7, 7), 10.0))


def test_canny_constant_image_has_no_edges():
    assert not filters.canny_edges(np.full((16, 16), 200.0)).any()
    # No candidate pixels at all: a gentle ramp (|gradient| = 8 < low) and
    # the smallest image the kernels accept.
    ramp = np.add.outer(np.arange(12.0), np.arange(15.0))
    for field in (ramp, np.full((3, 3), 9.0)):
        edges = filters.canny_edges(field)
        assert not edges.any()
        assert np.array_equal(edges, oracles.canny(field))


def test_canny_vertical_step_edge():
    field = np.zeros((16, 16))
    field[:, 8:] = 255.0
    edges = filters.canny_edges(field)
    assert np.array_equal(edges, oracles.canny(field))
    # The step produces edge responses in full columns only.
    cols = np.nonzero(edges.any(axis=0))[0]
    assert len(cols) > 0
    for c in cols:
        assert edges[:, c].all()


def test_canny_matches_loop_oracle_on_random_images(rng):
    for _ in range(10):
        field = rng.integers(0, 256, size=(16, 16)).astype(np.float64)
        assert np.array_equal(filters.canny_edges(field), oracles.canny(field))


def test_canny_hysteresis_links_weak_to_strong():
    # One strong pixel adjacent to a weak ridge: the ridge survives only
    # through connectivity.
    field = np.zeros((9, 9))
    field[4, :] = 30.0   # weak ridge across the row
    field[4, 4] = 60.0   # strong bump in the middle
    edges = filters.canny_edges(field, low=50.0, high=150.0)
    assert np.array_equal(edges, oracles.canny(field, 50.0, 150.0))


def _serpentine(n: int, seed_value: float) -> np.ndarray:
    """A 3 px stripe (125 on 100) that snakes down the image, so its borders
    are one long chain of weak edges; its first cells hold ``seed_value``."""
    field = np.full((n, n), 100.0)
    rows = list(range(4, n - 6, 8))
    for i, r in enumerate(rows):
        field[r : r + 3, 4 : n - 4] = 125.0
        if i + 1 < len(rows):
            c = n - 7 if i % 2 == 0 else 4
            field[r : rows[i + 1] + 3, c : c + 3] = 125.0
    field[4:7, 4:10] = seed_value
    noise = np.random.default_rng(3).normal(0.0, 1.0, size=field.shape)
    return np.round(field + noise)


def test_canny_hysteresis_follows_serpentine_weak_chain():
    field = _serpentine(80, seed_value=175.0)
    edges = filters.canny_edges(field)
    assert np.array_equal(edges, oracles.canny(field))
    # Every turn of the stripe, down to the far end, is linked to the seed.
    for r in range(4, 74, 8):
        assert edges[r - 1 : r + 4, 8:72].any()
    # Without the strong seed the same chain is all weak and vanishes.
    unseeded = _serpentine(80, seed_value=125.0)
    assert not filters.canny_edges(unseeded).any()


def test_canny_hysteresis_keeps_only_seeded_components():
    # Four separate weak ridges and a weak X of two diagonal lines; only the
    # first and third ridges and one arm of the X carry a strong bump.
    field = np.zeros((40, 72))
    for r in (5, 15, 25, 35):
        field[r, 2:28] = 30.0
    field[5, 20] = field[25, 10] = 60.0
    for k in range(2, 38):
        field[k, 32 + k] = field[k, 69 - k] = 30.0
    field[8, 40] = 90.0
    edges = filters.canny_edges(field)
    assert np.array_equal(edges, oracles.canny(field))
    candidates = filters.canny_edges(field, 50.0, 50.0)
    for r, seeded in ((5, True), (15, False), (25, True), (35, False)):
        assert candidates[r - 1 : r + 2, :30].any()
        assert edges[r - 1 : r + 2, :30].any() == seeded
    # The X links only through diagonal neighbours, out to the far ends of
    # both arms.
    assert edges[34:40, 62:72].any()
    assert edges[0:6, 62:72].any()
    assert edges[34:40, 30:40].any()


def test_canny_hysteresis_on_borders_and_corners():
    # Random values on the outermost ring only: every border holds strong
    # pixels and kept weak pixels, three hold dropped weak pixels, and every
    # corner is an edge, so links run along the first and last rows and
    # columns and turn the corners.
    field = np.zeros((14, 19))
    ring = np.ones(field.shape, dtype=bool)
    ring[1:-1, 1:-1] = False
    field[ring] = np.random.default_rng(128).choice([0.0, 15.0, 30.0, 45.0], size=ring.sum())
    edges = filters.canny_edges(field)
    assert np.array_equal(edges, oracles.canny(field))
    strong = filters.canny_edges(field, 150.0, 150.0)
    candidates = filters.canny_edges(field, 50.0, 50.0)

    def borders(mask):
        return mask[0], mask[-1], mask[:, 0], mask[:, -1]

    assert all(b.any() for b in borders(strong))
    assert all(b.any() for b in borders(edges & ~strong))
    assert sum(b.any() for b in borders(candidates & ~edges)) >= 3
    assert edges[0, 0] and edges[0, -1] and edges[-1, 0] and edges[-1, -1]
