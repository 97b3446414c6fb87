import csv
import math
import tracemalloc

import numpy as np
import pytest

import oracles
from lineuplab.corpus import ImageGray, LandmarkSet
from lineuplab.errors import DataError
from lineuplab.imgfeat import (
    CLASSICAL_FEATURE_NAMES,
    assemble_feature_vector,
    classical_features,
    feature_csv_header,
    fit_standardizer,
    geometry_features,
    lighting_features,
    noise_features,
    quality_features,
    read_feature_csv,
    sharpness_features,
    texture_features,
    write_feature_csv,
)
from lineuplab.imgfeat import table as table_mod
from lineuplab.imgfeat.features import image_planes, sanitize
from lineuplab.imgfeat.geometry import SYMMETRY_PAIRS, eye_aspect_ratio, mouth_aspect_ratio


def gray(px):
    px = np.asarray(px, dtype=np.uint8)
    return ImageGray(px.shape[1], px.shape[0], px)


def planes(px):
    return image_planes(gray(px))


def rand_image(rng, h=32, w=32):
    return gray(rng.integers(0, 256, size=(h, w), dtype=np.uint8))


def test_feature_name_layout():
    assert len(CLASSICAL_FEATURE_NAMES) == 42
    assert len(set(CLASSICAL_FEATURE_NAMES)) == 42
    prefixes = [n.split("_")[0] for n in CLASSICAL_FEATURE_NAMES]
    # 6 lighting, 7 quality, 5 noise, 6 sharpness, 2 texture, 16 geometry
    counts = {p: prefixes.count(p) for p in dict.fromkeys(prefixes)}
    assert list(counts.values()) == [6, 7, 5, 6, 2, 16]


# ---------------------------------------------------------------------------
# Spec-point examples


def test_lighting_constant_image():
    values = lighting_features(planes(np.full((8, 8), 128)))
    assert values.tolist() == [128.0, 0.0, 0.0, 0.0, 0.0, 0.0]


def test_lighting_threshold_semantics():
    dark = lighting_features(planes(np.full((8, 8), 10)))
    assert dark[3] == 1.0 and dark[4] == 0.0
    # Thresholds are strict inequalities.
    at_dark = lighting_features(planes(np.full((8, 8), 50)))
    assert at_dark[3] == 0.0
    at_bright = lighting_features(planes(np.full((8, 8), 200)))
    assert at_bright[4] == 0.0


def test_quality_constant_image():
    assert quality_features(planes(np.full((8, 8), 128))).tolist() == [0.0] * 7


def test_michelson_extremes():
    half = np.zeros((8, 8), dtype=np.uint8)
    half[:, 4:] = 255
    assert quality_features(planes(half))[4] == 1.0
    assert quality_features(planes(np.zeros((8, 8), dtype=np.uint8)))[4] == 0.0


def test_noise_constant_image():
    assert noise_features(planes(np.full((8, 8), 90))).tolist() == [0.0, 1e6, 0.0, 0.0, 0.0]


def test_noise_checkerboard_diagonal_blindspot():
    # Diagonal neighbors share parity on a checkerboard, so sigma is 0 and
    # the SNR clip rule fires even though the image is far from constant.
    idx = np.indices((8, 8)).sum(axis=0)
    board = np.where(idx % 2 == 0, 0, 255).astype(np.uint8)
    values = noise_features(planes(board))
    assert values[0] == 0.0
    assert values[1] == 1e6


def test_noise_all_zero_image():
    values = noise_features(planes(np.zeros((8, 8), dtype=np.uint8)))
    assert values[0] == 0.0
    assert values[1] == 1e6  # sigma rule precedes the zero-signal rule
    assert values[2] == 0.0


def test_sharpness_constant_image():
    values = sharpness_features(planes(np.full((8, 8), 60)))
    # Gradient stats, Laplacian variance, and high-frequency energy vanish.
    # Mean log-magnitude does not: the DC bin still holds the image sum.
    assert [values[i] for i in (0, 1, 2, 3, 5)] == [0.0] * 5
    assert values[4] == pytest.approx(math.log1p(60 * 64) / 64, rel=1e-12)


def test_sharpness_impulse_matches_dft_oracle():
    px = np.zeros((8, 8), dtype=np.uint8)
    px[3, 5] = 255
    got = sharpness_features(planes(px))
    want = oracles.oracle_sharpness(px)
    assert np.allclose(got, want, rtol=1e-9)


def test_texture_constant_image():
    assert texture_features(planes(np.full((8, 8), 128))).tolist() == [0.0, 0.0]


def test_texture_step_edge_density():
    px = np.zeros((16, 16), dtype=np.uint8)
    px[:, 8:] = 255
    got = texture_features(planes(px))
    want = oracles.oracle_texture(px)
    assert got[1] == want[1]
    assert got[1] > 0.0


def test_redundant_sharpness_equals_laplacian_variance(rng):
    p = image_planes(rand_image(rng))
    values = sharpness_features(p)
    assert values[2] == values[5]
    assert values[2] == lighting_features(p)[5]


def test_entropy_duplicated_between_categories(rng):
    p = image_planes(rand_image(rng))
    assert lighting_features(p)[2] == quality_features(p)[3]


# ---------------------------------------------------------------------------
# Random-image oracle agreement (the acceptance suite runs the full sweep;
# these are smaller smoke-level slices per category)


def test_category_oracles_on_random_images(rng):
    for _ in range(5):
        px = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
        assert np.allclose(lighting_features(planes(px)), oracles.oracle_lighting(px), rtol=1e-6)
        assert np.allclose(quality_features(planes(px)), oracles.oracle_quality(px), rtol=1e-6)
        assert np.allclose(noise_features(planes(px)), oracles.oracle_noise(px), rtol=1e-6)
        assert np.allclose(sharpness_features(planes(px)), oracles.oracle_sharpness(px), rtol=1e-5)
        assert np.allclose(texture_features(planes(px)), oracles.oracle_texture(px), rtol=1e-6)


def test_entropy_bounds(rng):
    for _ in range(5):
        entropy = lighting_features(image_planes(rand_image(rng, 8, 8)))[2]
        assert 0.0 <= entropy <= math.log(256)


# ---------------------------------------------------------------------------
# Geometry


def _synthetic_landmarks(rng):
    pts = rng.uniform(4.0, 28.0, size=(68, 2))
    return LandmarkSet("x", pts, 1)


def test_geometry_absent_landmarks():
    assert geometry_features(None, (32, 32)).tolist() == [0.0] * 16


def test_geometry_against_oracle(rng):
    for _ in range(10):
        lm = _synthetic_landmarks(rng)
        got = geometry_features(lm, (32, 32))
        want = oracles.oracle_geometry(lm.points, lm.face_count, (32, 32))
        assert np.allclose(got, want, rtol=1e-9, atol=1e-12)


def test_ear_known_value():
    # Vertical gaps 2 and 2 over a horizontal span of 4: EAR = 0.5.
    pts = np.zeros((68, 2))
    pts[36] = (0.0, 0.0)
    pts[39] = (4.0, 0.0)
    pts[37] = (1.0, -1.0)
    pts[41] = (1.0, 1.0)
    pts[38] = (3.0, -1.0)
    pts[40] = (3.0, 1.0)
    assert eye_aspect_ratio(pts, (36, 37, 38, 39, 40, 41)) == pytest.approx(0.5)


def test_ear_mar_similarity_invariance(rng):
    lm = _synthetic_landmarks(rng)
    base_ear = eye_aspect_ratio(lm.points, (36, 37, 38, 39, 40, 41))
    base_mar = mouth_aspect_ratio(lm.points)
    theta = np.radians(30.0)
    rot = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    moved = (lm.points - lm.points.mean(axis=0)) @ rot.T * 2.5 + np.array([100.0, -40.0])
    assert eye_aspect_ratio(moved, (36, 37, 38, 39, 40, 41)) == pytest.approx(base_ear, abs=1e-9)
    assert mouth_aspect_ratio(moved) == pytest.approx(base_mar, abs=1e-9)


def test_roll_reads_eye_line_angle():
    pts = np.zeros((68, 2))
    pts[list(range(36, 42))] = (0.0, 0.0)
    # Right eye raised: atan2 measures the eye-line angle in image coords.
    for i, off in zip(range(42, 48), np.zeros((6, 2))):
        pts[i] = (10.0, 10.0 * np.tan(np.radians(30.0)))
    pts[27] = (5.0, -5.0)
    pts[30] = (5.0, 0.0)
    values = geometry_features(LandmarkSet("x", pts, 1), (32, 32))
    assert values[11] == pytest.approx(30.0, abs=1e-6)


def test_degenerate_landmarks_guarded():
    # All points coincide: every denominator guard fires, nothing blows up.
    pts = np.full((68, 2), 7.0)
    values = geometry_features(LandmarkSet("x", pts, 1), (32, 32))
    assert np.isfinite(values).all()
    assert values[5] == 0.0 and values[9] == 0.0 and values[10] == 0.0


def test_symmetry_pair_count():
    assert len(SYMMETRY_PAIRS) == 23
    assert len({p for pair in SYMMETRY_PAIRS for p in pair}) == 46


def test_symmetry_of_mirror_layout():
    # Perfectly mirrored points about x = 10 give symmetry exactly 1.
    pts = np.zeros((68, 2))
    rng = np.random.default_rng(5)
    for left, right in SYMMETRY_PAIRS:
        y = rng.uniform(0, 20)
        dx = rng.uniform(1, 8)
        pts[left] = (10.0 - dx, y)
        pts[right] = (10.0 + dx, y)
    pts[27] = (10.0, 5.0)
    for i in range(68):  # fill non-pair landmarks somewhere harmless
        if not pts[i].any():
            pts[i] = (10.0, float(i))
    values = geometry_features(LandmarkSet("x", pts, 1), (32, 32))
    assert values[10] == pytest.approx(1.0, abs=1e-12)


# ---------------------------------------------------------------------------
# Assembly and serialization


def test_assemble_layout_and_dimension_check(rng):
    img = rand_image(rng)
    vector = rng.normal(size=16).astype(np.float32)
    values = assemble_feature_vector(vector, img, None)
    assert values.shape == (16 + 42,)
    assert np.isfinite(values).all()
    assert not values.flags.writeable
    # Embedding occupies the head of the vector.
    assert np.allclose(values[:16], vector.astype(np.float64))


def test_sanitize_rules():
    values = sanitize(np.array([1.0, np.nan, np.inf, -np.inf, 1e9, -1e9]))
    assert values.tolist() == [1.0, 0.0, 0.0, 0.0, 1e6, -1e6]


def test_feature_csv_round_trip(tmp_path, rng):
    img = rand_image(rng)
    rows = np.stack([
        assemble_feature_vector(rng.normal(size=8).astype(np.float32), img, None)
        for _ in range(4)
    ])
    path = write_feature_csv([f"id{i}" for i in range(4)], [i % 2 for i in range(4)], rows,
                             tmp_path / "f.csv")
    header = path.read_text().splitlines()[0].split(",")
    assert header == feature_csv_header(8)
    assert header[:2] == ["image_id", "label"]
    assert len(header) == 2 + 8 + 42
    ids, got_labels, matrix = read_feature_csv(path)
    assert list(ids) == [f"id{i}" for i in range(4)]
    assert got_labels.tolist() == [0, 1, 0, 1]
    assert np.array_equal(matrix, rows)  # repr round-trip is exact


HEADER = "image_id,label,a,b\n"

# (name, file content, whether the row loop has to read it again); every
# input must give the oracle's arrays bit for bit or its error text
FEATURE_CSV_CASES = [
    ("plain", HEADER + "x,1,1.5,-2\ny,0,3,4\n", False),
    ("empty_line_middle", HEADER + "x,1,1,2\n\ny,0,3,4\n", True),
    ("empty_line_trailing", HEADER + "x,1,1,2\n\n", True),
    ("only_empty_lines", HEADER + "\n\n", True),
    ("empty_crlf_line", HEADER + "x,1,1,2\r\n\r\ny,0,3,4\r\n", True),
    ("whitespace_line", HEADER + "x,1,1,2\n \ny,0,3,4\n", True),
    ("short_row", HEADER + "x,1,1,2\ny,0,3\n", True),
    ("long_row", HEADER + "x,1,1,2,5\n", True),
    ("trailing_comma", HEADER + "x,1,1,2,\n", True),
    ("quoted_comma", HEADER + '"x,y",1,1,2\n', False),
    ("quoted_quote", HEADER + '"x""y",0,1,2\n', False),
    ("quoted_newline", HEADER + '"x\ny",1,1,2\nz,0,3,4\n', True),
    ("quoted_crlf", HEADER + '"x\r\ny",1,1,2\r\nz,0,3,4\r\n', True),
    ("quoted_empty_line", HEADER + '"x\n\ny",1,1,2\n', True),
    ("crlf", HEADER.replace("\n", "\r\n") + "x,1,1,2\r\ny,0,3,4\r\n", False),
    ("bare_cr", HEADER.replace("\n", "\r") + "x,1,1,2\ry,0,3,4\r", False),
    ("no_final_newline", HEADER + "x,1,1,2\ny,0,3,4", False),
    ("hash_id", HEADER + "#x,1,1,2\n#y,0,3,4\n", False),
    ("bom_in_id", HEADER + "\ufeffx,1,1,2\n", False),
    ("bom_before_header", "\ufeff" + HEADER + "x,1,1,2\n", False),
    ("underscore_digits", HEADER + "x,1,1_0,2\n", True),
    ("arabic_digits", HEADER + "x,1,\u0661\u0662,2\n", True),
    ("empty_cell", HEADER + "x,1,,2\n", True),
    ("hex_value", HEADER + "x,1,0x10,2\n", True),
    ("label_space_before", HEADER + "x, 1,1,2\n", True),
    ("label_space_after", HEADER + "x,1 ,1,2\n", True),
    ("label_quoted", HEADER + 'x,"1",1,2\n', False),
    ("label_two", HEADER + "x,2,1,2\n", True),
    ("special_values", HEADER + "x,1,nan,-inf\ny,0,-0,1e400\nz,1,-nan, 1.5 \n", False),
    ("no_rows", HEADER, True),
    ("no_header", "", False),
    ("id_over_csv_field_limit", HEADER + "x" * (csv.field_size_limit() + 1) + ",1,1,2\n", True),
    ("cell_over_csv_field_limit_across_lines",
     HEADER + 'x,1,"' + " " * 70_000 + "\n" + " " * 70_000 + '1.5",2\n', True),
    # past the text decoder's first chunk, so the header reads cleanly
    ("undecodable_past_first_line",
     (HEADER + "".join(f"x{i},1,1,2\n" for i in range(2_000))).encode() + b"y,0,\xff,2\n", True),
]


@pytest.mark.parametrize("content, loop_expected",
                         [case[1:] for case in FEATURE_CSV_CASES],
                         ids=[case[0] for case in FEATURE_CSV_CASES])
def test_read_feature_csv_matches_row_loop_oracle(tmp_path, monkeypatch, content, loop_expected):
    path = tmp_path / "f.csv"
    if isinstance(content, str):
        path.write_text(content, encoding="utf-8", newline="")
    else:
        path.write_bytes(content)
    loops = []
    row_loop = table_mod._read_rows

    def counting_loop(*args):
        loops.append(args[0])
        return row_loop(*args)

    monkeypatch.setattr(table_mod, "_read_rows", counting_loop)
    try:
        want = oracles.read_feature_csv(path)
    except ValueError as exc:
        with pytest.raises(DataError) as got:
            read_feature_csv(path)
        assert str(got.value) == str(exc)
    else:
        ids, labels, matrix = read_feature_csv(path)
        assert type(ids) is list and ids == want[0]
        assert labels.dtype == np.int64 and labels.tolist() == want[1].tolist()
        assert matrix.dtype == np.float64 and matrix.flags.c_contiguous
        assert matrix.shape == want[2].shape
        assert matrix.view(np.int64).tolist() == want[2].view(np.int64).tolist()
    assert bool(loops) == loop_expected


def test_feature_csv_round_trip_is_bitwise_for_random_doubles(tmp_path, rng, monkeypatch):
    monkeypatch.setattr(table_mod, "_read_rows", None)  # the numpy pass only
    bits = rng.integers(0, 2**64, size=2_100 * 50, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:2_000 * 50].reshape(2_000, 50)
    values[0, :4] = [0.0, -0.0, 5e-324, -1.7976931348623157e308]
    want_ids = [f"id{i}" for i in range(2_000)]
    path = write_feature_csv(want_ids, np.arange(2_000) % 2, values, tmp_path / "f.csv")
    ids, labels, matrix = read_feature_csv(path)
    assert ids == want_ids
    assert labels.tolist() == [i % 2 for i in range(2_000)]
    assert np.array_equal(matrix.view(np.int64), values.view(np.int64))
    assert np.array_equal(oracles.read_feature_csv(path)[2].view(np.int64), values.view(np.int64))


# ---------------------------------------------------------------------------
# Standardizer


def test_standardizer_example():
    s = fit_standardizer(np.array([[0.0], [2.0]]))
    assert s.mean.tolist() == [1.0] and s.std.tolist() == [1.0]
    assert s.transform(np.array([[0.0]])).tolist() == [[-1.0]]


def test_standardizer_zero_std_dimension():
    s = fit_standardizer(np.array([[5.0, 1.0], [5.0, 3.0]]))
    z = s.transform(np.array([[99.0, 2.0]]))
    assert z[0, 0] == 0.0
    assert z[0, 1] == 0.0  # (2 - 2) / 1


def test_standardizer_self_consistency(rng):
    X = rng.normal(size=(50, 6)) * rng.uniform(0.5, 4.0, size=6) + rng.normal(size=6)
    s = fit_standardizer(X)
    Z = s.transform(X)
    assert np.all(np.abs(Z.mean(axis=0)) < 1e-9)
    assert np.allclose(Z.std(axis=0), 1.0, atol=1e-9)


def test_standardizer_on_feature_vectors(rng):
    img = rand_image(rng)
    vectors = [
        assemble_feature_vector(rng.normal(size=4).astype(np.float32), img, None)
        for _ in range(6)
    ]
    s = fit_standardizer(np.stack(vectors))
    assert s.dim == vectors[0].size


def test_standardizer_empty_raises():
    with pytest.raises(DataError):
        fit_standardizer([])


def _bits(a: np.ndarray) -> bytes:
    return np.ascontiguousarray(a, dtype=np.float64).tobytes()


def _with_constant_columns(rng, n: int, d: int) -> np.ndarray:
    X = rng.normal(size=(n, d)) * rng.uniform(1e-3, 1e3, size=d) + rng.normal(size=d)
    # an integer sums exactly, so these columns' std is exactly 0
    X[:, rng.choice(d, size=max(1, d // 4), replace=False)] = rng.integers(-9, 10)
    return X


@pytest.mark.parametrize("n, d", [(1, 1), (2, 3), (40, 7), (257, 31)])
def test_transform_matches_where_oracle_bit_for_bit(rng, n, d):
    X = _with_constant_columns(rng, n, d)
    s = fit_standardizer(X)
    assert (s.std == 0.0).any()
    # rows the fit never saw, with signed zeros, huge and non-finite cells
    probe = np.vstack([X, rng.normal(size=(3, d)) * 1e300,
                       np.full((1, d), -0.0), np.full((1, d), np.inf),
                       np.full((1, d), np.nan)])
    got = s.transform(probe)
    assert _bits(got) == _bits(oracles.standardize_where(probe, s.mean, s.std))
    zero = got[:, s.std == 0.0]
    assert np.all(zero == 0.0) and not np.signbit(zero).any()


def test_transform_of_one_row_vector(rng):
    X = _with_constant_columns(rng, 30, 9)
    s = fit_standardizer(X)
    row = rng.normal(size=9)
    got = s.transform(row)
    assert got.shape == (9,)
    assert _bits(got) == _bits(oracles.standardize_where(row, s.mean, s.std))
    assert _bits(got) == _bits(s.transform(row[None, :])[0])
    assert not np.signbit(got[s.std == 0.0]).any()


def test_transform_never_writes_its_input(rng):
    X = _with_constant_columns(rng, 50, 12)
    s = fit_standardizer(X)
    before = X.tobytes()
    Z = s.transform(X)
    assert X.tobytes() == before
    assert not np.shares_memory(Z, X)
    X.flags.writeable = False
    assert _bits(s.transform(X)) == _bits(Z)


def test_transform_allocates_one_output(rng):
    n, d = 2000, 160
    X = _with_constant_columns(rng, n, d)
    s = fit_standardizer(X)
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        start = tracemalloc.get_traced_memory()[0]
        Z = s.transform(X)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert Z.nbytes == n * d * 8
    assert peak <= 1.1 * n * d * 8
