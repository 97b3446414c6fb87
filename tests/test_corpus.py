import json

import numpy as np
import pytest

from conftest import make_corpus, random_records, write_jsonl_corpus
from lineuplab import corpus, simindex
from lineuplab.config import PipelineConfig
from lineuplab.corpus import (
    NO_FACE,
    NO_IMAGE,
    TOO_BLURRY,
    TOO_BRIGHT,
    TOO_DARK,
    ImageGray,
    curate,
    image_path,
    ingest_embeddings,
    ingest_landmarks,
    load_grayscale_image,
    read_container,
    write_embeddings,
    write_pgm,
)
from lineuplab.errors import DataError
from lineuplab.simindex import build_index, save_index


def test_jsonl_ingest_basic(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=3, per_identity=2, dim=8)
    assert handle.count == 6
    assert handle.dim == 8
    assert "p0000_i0" in handle
    assert "nope" not in handle
    assert handle.identity_of("p0001_i1") == "p0001"
    assert set(handle.identity_index["p0002"]) == {"p0002_i0", "p0002_i1"}
    assert handle.matrix.dtype == np.float32
    assert not handle.matrix.flags.writeable


def test_ingest_preserves_row_order_and_values(tmp_path, rng):
    records = random_records(rng, 2, 2, 4)
    path = write_jsonl_corpus(tmp_path / "c.jsonl", records)
    handle = ingest_embeddings(path)
    assert handle.ids == tuple(r[0] for r in records)
    for image_id, _, vector in records:
        assert np.array_equal(
            handle.vector(image_id), np.asarray(vector, dtype=np.float32)
        )


def test_ingest_rejects_duplicate_id(tmp_path):
    path = write_jsonl_corpus(tmp_path / "c.jsonl", [
        ("a", "p1", [1.0, 0.0]),
        ("a", "p2", [0.0, 1.0]),
    ])
    with pytest.raises(DataError, match="duplicate"):
        ingest_embeddings(path)


def test_ingest_rejects_empty_id(tmp_path):
    path = write_jsonl_corpus(tmp_path / "c.jsonl", [("", "p1", [1.0, 0.0])])
    with pytest.raises(DataError):
        ingest_embeddings(path)


def test_ingest_rejects_dimension_drift(tmp_path):
    path = write_jsonl_corpus(tmp_path / "c.jsonl", [
        ("a", "p1", [1.0, 0.0]),
        ("b", "p1", [1.0, 0.0, 0.0]),
    ])
    with pytest.raises(DataError, match="dimension"):
        ingest_embeddings(path)


def test_ingest_rejects_non_finite(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text(json.dumps(
        {"image_id": "a", "identity_id": "p", "vector": [1.0, float("nan")]}
    ) + "\n")
    with pytest.raises(DataError):
        ingest_embeddings(path)


def test_ingest_rejects_malformed_json(tmp_path):
    path = tmp_path / "c.jsonl"
    path.write_text('{"image_id": "a"\n')
    with pytest.raises(DataError, match="malformed"):
        ingest_embeddings(path)


def test_ingest_missing_file(tmp_path):
    with pytest.raises(DataError, match="not found"):
        ingest_embeddings(tmp_path / "absent.jsonl")


def test_binary_round_trip_bit_exact(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=4, per_identity=3, dim=12)
    out = write_embeddings(handle, tmp_path / "c.bin")
    back = ingest_embeddings(out)
    assert back.ids == handle.ids
    assert back.identities == handle.identities
    assert back.matrix.tobytes() == handle.matrix.tobytes()


def test_jsonl_round_trip(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=6)
    out = write_embeddings(handle, tmp_path / "again.jsonl", fmt="jsonl")
    back = ingest_embeddings(out)
    assert back.ids == handle.ids
    assert np.array_equal(back.matrix, handle.matrix)


def test_binary_rejects_trailing_bytes(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=4)
    out = write_embeddings(handle, tmp_path / "c.bin")
    out.write_bytes(out.read_bytes() + b"\x00")
    with pytest.raises(DataError, match="trailing"):
        ingest_embeddings(out)


def test_binary_rejects_truncation(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=4)
    out = write_embeddings(handle, tmp_path / "c.bin")
    data = out.read_bytes()
    out.write_bytes(data[: len(data) - 3])
    with pytest.raises(DataError):
        ingest_embeddings(out)


def test_binary_rejects_header_larger_than_file(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=4)
    out = write_embeddings(handle, tmp_path / "c.bin")
    data = bytearray(out.read_bytes())
    corpus._HEADER.pack_into(data, len(corpus.BINARY_MAGIC), 4, 2**40)
    out.write_bytes(bytes(data))
    with pytest.raises(DataError, match="more than the file holds"):
        ingest_embeddings(out)


def test_every_truncated_container_is_a_data_error(tmp_path, rng):
    """Both containers share one reader: every proper prefix of a small
    embedding file and of a small index file is rejected."""
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=3)
    containers = (
        (write_embeddings(handle, tmp_path / "c.bin").read_bytes(), ingest_embeddings),
        (save_index(build_index(handle), tmp_path / "c.index").read_bytes(),
         lambda path: read_container(path, simindex.INDEX_MAGIC, simindex._HEADER, "<f8")),
    )
    cut = tmp_path / "cut"
    for data, load in containers:
        for size in range(len(data)):
            cut.write_bytes(data[:size])
            with pytest.raises(DataError):
                load(cut)


def test_container_write_of_an_overlong_id_leaves_no_file(tmp_path):
    handle = corpus._make_handle(["a", "x" * 65_536], ["p", "p"],
                                 np.eye(2, dtype=np.float32), "mem")
    with pytest.raises(DataError, match="65535"):
        write_embeddings(handle, tmp_path / "c.bin")
    assert list(tmp_path.iterdir()) == []


def test_subset_preserves_order(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=3, per_identity=2, dim=4)
    sub = handle.subset(["p0002_i1", "p0000_i0"])
    assert sub.ids == ("p0000_i0", "p0002_i1")
    with pytest.raises(DataError):
        handle.subset(["ghost"])


# ---------------------------------------------------------------------------
# Images


def test_pgm_round_trip(tmp_path, rng):
    px = rng.integers(0, 256, size=(5, 7), dtype=np.uint8)
    img = ImageGray(7, 5, px)
    path = write_pgm(img, tmp_path / "x.pgm")
    back = load_grayscale_image(path)
    assert back.width == 7 and back.height == 5
    assert np.array_equal(back.pixels, px)


def test_pgm_comment_header(tmp_path):
    body = bytes(range(9))
    (tmp_path / "c.pgm").write_bytes(b"P5\n# a comment\n3 3\n255\n" + body)
    img = load_grayscale_image(tmp_path / "c.pgm")
    assert img.pixels[2, 2] == 8


def test_pgm_rejects_wrong_magic(tmp_path):
    (tmp_path / "x.pgm").write_bytes(b"P2\n3 3\n255\n" + bytes(9))
    with pytest.raises(DataError, match="P5"):
        load_grayscale_image(tmp_path / "x.pgm")


def test_pgm_rejects_wrong_maxval(tmp_path):
    (tmp_path / "x.pgm").write_bytes(b"P5\n3 3\n65535\n" + bytes(18))
    with pytest.raises(DataError, match="maxval"):
        load_grayscale_image(tmp_path / "x.pgm")


def test_pgm_rejects_truncated_and_trailing(tmp_path):
    (tmp_path / "short.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(5))
    with pytest.raises(DataError, match="truncated"):
        load_grayscale_image(tmp_path / "short.pgm")
    (tmp_path / "long.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(12))
    with pytest.raises(DataError, match="trailing"):
        load_grayscale_image(tmp_path / "long.pgm")


def test_image_path_rejects_ids_that_leave_the_directory(tmp_path):
    assert image_path(tmp_path, "a..b") == tmp_path / "a..b.pgm"
    for bad in ("", ".", "..", "../../etc/x", "a/b", "/abs", "a\\b", "a\0b"):
        with pytest.raises(DataError, match="image id"):
            image_path(tmp_path, bad)


def test_image_must_fit_kernel():
    with pytest.raises(DataError, match="3x3"):
        ImageGray(2, 2, np.zeros((2, 2), dtype=np.uint8))


# ---------------------------------------------------------------------------
# Landmarks


def _write_landmarks(path, entries):
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, points, face_count in entries:
            fh.write(json.dumps({
                "image_id": image_id,
                "points": np.asarray(points).tolist(),
                "face_count": face_count,
            }) + "\n")
    return path


def test_landmark_ingest(tmp_path, rng):
    pts = rng.uniform(0, 10, size=(68, 2))
    path = _write_landmarks(tmp_path / "lm.jsonl", [("a", pts, 1)])
    table = ingest_landmarks(path)
    assert np.allclose(table["a"].points, pts)
    assert table["a"].face_count == 1
    assert not table["a"].points.flags.writeable


def test_landmark_duplicates_keep_first_and_count(tmp_path, rng):
    first = rng.uniform(0, 10, size=(68, 2))
    second = rng.uniform(0, 10, size=(68, 2))
    path = _write_landmarks(tmp_path / "lm.jsonl", [("a", first, 1), ("a", second, 1)])
    table = ingest_landmarks(path)
    assert np.allclose(table["a"].points, first)
    assert table["a"].face_count == 2


def test_landmark_rejects_wrong_shape(tmp_path, rng):
    path = _write_landmarks(tmp_path / "lm.jsonl", [("a", rng.uniform(size=(60, 2)), 1)])
    with pytest.raises(DataError, match="68"):
        ingest_landmarks(path)


@pytest.mark.parametrize("line, message", [
    ('{"image_id": "a", "points": POINTS, "face_count": "x"}', "face_count"),
    ('{"image_id": "a", "points": POINTS, "face_count": [1]}', "face_count"),
    ('{"image_id": "a", "points": "abc", "face_count": 1}', "points"),
    ('{"image_id": "a", "points": [[1, 2], [3]], "face_count": 1}', "points"),
    ('{"image_id": ["a"], "points": POINTS, "face_count": 1}', "image_id"),
    ('[1, 2]', "object"),
    ('{"image_id": "a", "points": POINTS, "face_count": 2.7}', "face_count"),
    ('{"image_id": "a", "points": POINTS, "face_count": true}', "face_count"),
    ('{"image_id": "a", "points": POINTS, "face_count": -3}', "face_count"),
    ('{"image_id": "a", "points": POINTS, "face_count": 0}', "face_count"),
    ('{"image_id": "a", "points": POINTS, "face_count": "2"}', "face_count"),
], ids=["face_count_text", "face_count_list", "points_text", "points_ragged",
        "image_id_list", "not_an_object", "face_count_fraction", "face_count_bool",
        "face_count_negative", "face_count_zero", "face_count_numeric_text"])
def test_landmark_rejects_malformed_values(tmp_path, line, message):
    path = tmp_path / "lm.jsonl"
    good = json.dumps({"image_id": "b", "points": [[1.0, 2.0]] * 68, "face_count": 1})
    path.write_text(good + "\n" + line.replace("POINTS", json.dumps([[1.0, 2.0]] * 68)) + "\n")
    with pytest.raises(DataError, match=rf"lm\.jsonl:2: .*{message}"):
        ingest_landmarks(path)


def test_landmark_face_count_defaults_to_one(tmp_path):
    path = tmp_path / "lm.jsonl"
    path.write_text(json.dumps({"image_id": "a", "points": [[1.0, 2.0]] * 68}) + "\n")
    assert ingest_landmarks(path)["a"].face_count == 1


def test_landmark_rejects_non_finite(tmp_path, rng):
    pts = rng.uniform(size=(68, 2))
    pts[3, 1] = np.inf
    path = _write_landmarks(tmp_path / "lm.jsonl", [("a", pts, 1)])
    with pytest.raises(DataError, match="non-finite"):
        ingest_landmarks(path)


# ---------------------------------------------------------------------------
# Curation


def _curation_fixture(tmp_path, rng):
    """Six-image corpus covering every removal reason plus one keeper."""
    records = [(name, "p0", rng.normal(size=4)) for name in
               ("dark", "bright", "blurry", "missing", "faceless", "good")]
    handle = ingest_embeddings(write_jsonl_corpus(tmp_path / "c.jsonl", records))
    images = tmp_path / "imgs"
    images.mkdir()

    textured = rng.integers(60, 200, size=(16, 16), dtype=np.uint8)
    write_pgm(ImageGray(16, 16, np.full((16, 16), 5, dtype=np.uint8)), image_path(images, "dark"))
    write_pgm(ImageGray(16, 16, np.full((16, 16), 250, dtype=np.uint8)), image_path(images, "bright"))
    write_pgm(ImageGray(16, 16, np.full((16, 16), 128, dtype=np.uint8)), image_path(images, "blurry"))
    write_pgm(ImageGray(16, 16, textured), image_path(images, "faceless"))
    write_pgm(ImageGray(16, 16, textured), image_path(images, "good"))

    pts = rng.uniform(2, 14, size=(68, 2))
    landmarks = _write_landmarks(tmp_path / "lm.jsonl", [
        (name, pts, 1) for name in ("dark", "bright", "blurry", "good")
    ])
    return handle, ingest_landmarks(landmarks), images


def test_curation_reasons_and_partition(tmp_path, rng):
    handle, table, images = _curation_fixture(tmp_path, rng)
    report = curate(handle, table, images, PipelineConfig())
    reasons = dict(report.removed)
    assert reasons == {
        "dark": TOO_DARK,
        "bright": TOO_BRIGHT,
        "blurry": TOO_BLURRY,
        "missing": NO_IMAGE,
        "faceless": NO_FACE,
    }
    assert report.retained.ids == ("good",)
    assert len(report.removed) + report.retained.count == handle.count
    assert sum(report.counts.values()) == len(report.removed)


def test_curation_reason_precedence(tmp_path, rng):
    # A dark image with no landmarks: the landmark gate fires first.
    handle, table, images = _curation_fixture(tmp_path, rng)
    report = curate(handle, {}, images, PipelineConfig())
    reasons = dict(report.removed)
    assert reasons["dark"] == NO_FACE
    assert reasons["missing"] == NO_IMAGE


def test_curation_idempotent(tmp_path, rng):
    handle, table, images = _curation_fixture(tmp_path, rng)
    first = curate(handle, table, images, PipelineConfig())
    second = curate(first.retained, table, images, PipelineConfig())
    assert second.removed == ()
    assert second.retained.ids == first.retained.ids


def test_curation_threshold_config(tmp_path, rng):
    handle, table, images = _curation_fixture(tmp_path, rng)
    lax = PipelineConfig(dark_threshold=0.0, bright_threshold=255.0, blur_threshold=0.0)
    report = curate(handle, table, images, lax)
    assert dict(report.removed) == {"missing": NO_IMAGE, "faceless": NO_FACE}
