import struct

import numpy as np
import pytest

import oracles
from conftest import make_corpus, write_jsonl_corpus
from lineuplab import simindex
from lineuplab.corpus import ingest_embeddings
from lineuplab.errors import DataError
from lineuplab.simindex import (
    ExcludeIdentity,
    NoExclusion,
    brute_force_topk,
    build_index,
    l2_normalize,
    load_index,
    save_index,
    score_kernel,
    search_batch,
)


def test_build_index_normalizes_rows(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=5, per_identity=2, dim=8)
    index = build_index(handle)
    norms = np.linalg.norm(index.matrix, axis=1)
    assert np.allclose(norms, 1.0, atol=1e-12)
    assert index.count == handle.count
    assert index.corpus.ids == handle.ids


def test_build_index_names_zero_vector(tmp_path):
    path = write_jsonl_corpus(tmp_path / "c.jsonl", [
        ("ok", "p", [1.0, 0.0]),
        ("null_row", "p", [0.0, 0.0]),
    ])
    with pytest.raises(DataError, match="null_row"):
        build_index(ingest_embeddings(path))


def test_score_kernel_matches_per_row_dot(rng):
    q = rng.normal(size=(3, 16))
    c = rng.normal(size=(10, 16))
    scores = score_kernel(q, c)
    for i in range(3):
        for j in range(10):
            assert scores[i, j] == pytest.approx(float(np.dot(q[i], c[j])), rel=1e-12)


def test_search_matches_naive_oracle(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=8, per_identity=3, dim=8)
    index = build_index(handle)
    queries = [(i, index.query_vector(i)) for i in handle.ids[:6]]
    results = search_batch(index, queries, 5)
    for (qid, qvec), res in zip(queries, results):
        want = oracles.naive_search(handle.ids, handle.identities, index.matrix, qvec, 5)
        got = [(h.image_id, h.score) for h in res.hits]
        assert [g[0] for g in got] == [w[0] for w in want]
        assert np.allclose([g[1] for g in got], [w[1] for w in want], rtol=1e-12)
        assert res.query_id == qid


def test_search_equals_brute_force(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=3, dim=16)
    index = build_index(handle)
    queries = [(i, index.query_vector(i)) for i in handle.ids]
    batch = search_batch(index, queries, 6)
    for (qid, qvec), res in zip(queries, batch):
        ref = brute_force_topk(index, qvec, 6, query_id=qid)
        assert res == ref  # ids, identities, and bitwise scores


def test_tied_scores_order_by_ascending_id(tmp_path):
    v = [0.6, 0.8]
    path = write_jsonl_corpus(tmp_path / "c.jsonl", [
        ("b", "p1", v), ("a", "p2", v), ("c", "p3", v), ("z", "p4", [1.0, 0.0]),
    ])
    index = build_index(ingest_embeddings(path))
    res = search_batch(index, np.asarray([v]), 3)[0]
    assert [h.image_id for h in res.hits] == ["a", "b", "c"]
    # A tie crossing the k boundary resolves by id as well.
    res2 = search_batch(index, np.asarray([v]), 2)[0]
    assert [h.image_id for h in res2.hits] == ["a", "b"]


def test_k_exceeding_eligible_names_query(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=4)
    index = build_index(handle)
    qid = handle.ids[0]
    with pytest.raises(DataError, match=f"query '{qid}'"):
        search_batch(index, [(qid, index.query_vector(qid))], 10)
    # Exclusion shrinks the eligible pool below k.
    with pytest.raises(DataError, match="eligible"):
        search_batch(index, [(qid, index.query_vector(qid))], 3,
                     exclude=ExcludeIdentity(handle.identity_of(qid)))


def test_exclude_identity(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=4, per_identity=3, dim=8)
    index = build_index(handle)
    res = search_batch(index, np.eye(8)[:1], 9, exclude=ExcludeIdentity("p0001"))[0]
    assert all(h.identity_id != "p0001" for h in res.hits)


def test_no_exclusion_is_default(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=3, per_identity=2, dim=4)
    index = build_index(handle)
    queries = [(handle.ids[0], index.query_vector(handle.ids[0]))]
    assert search_batch(index, queries, 3) == search_batch(index, queries, 3,
                                                           exclude=NoExclusion())


def test_batch_size_invariance(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=12, per_identity=3, dim=16)
    index = build_index(handle)
    queries = [(i, index.query_vector(i)) for i in handle.ids]
    base = search_batch(index, queries, 6, batch_size=256)
    for bs in (1, 7, 13):
        assert search_batch(index, queries, 6, batch_size=bs) == base


def test_query_order_invariance(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=2, dim=8)
    index = build_index(handle)
    queries = [(i, index.query_vector(i)) for i in handle.ids]
    by_id = {r.query_id: r for r in search_batch(index, queries, 4)}
    perm = [queries[i] for i in rng.permutation(len(queries))]
    for res in search_batch(index, perm, 4, batch_size=3):
        assert res == by_id[res.query_id]


def test_hits_sorted_descending(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=2, dim=8)
    index = build_index(handle)
    res = search_batch(index, [(handle.ids[3], index.query_vector(handle.ids[3]))], 10)[0]
    scores = [h.score for h in res.hits]
    assert scores == sorted(scores, reverse=True)


def test_invalid_arguments(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=2, dim=4)
    index = build_index(handle)
    queries = [(handle.ids[0], index.query_vector(handle.ids[0]))]
    with pytest.raises(DataError, match="k must be positive"):
        search_batch(index, queries, 0)
    with pytest.raises(DataError, match="batch size"):
        search_batch(index, queries, 1, batch_size=0)
    with pytest.raises(DataError, match="dimension"):
        search_batch(index, np.ones((1, 7)), 1)


def test_search_rejects_entries_that_are_not_id_vector_pairs(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=3, per_identity=2, dim=4)
    index = build_index(handle)
    qid = handle.ids[0]
    vec = index.query_vector(qid)
    for queries, position in [([(qid, vec), vec], 1), ([(qid, vec, "extra")], 0)]:
        with pytest.raises(DataError, match=f"query #{position}: expected an"):
            search_batch(index, queries, 3)


def test_l2_normalize_zero_vector_raises():
    with pytest.raises(DataError, match="zero vector \\(image 'b'\\)"):
        l2_normalize(np.array([[1.0, 0.0, 0.0], [0.0, 0.0, 0.0]]), ["a", "b"])


def test_index_save_load_round_trip(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=6, per_identity=3, dim=8)
    index = build_index(handle)
    path = save_index(index, tmp_path / "x.index")
    loaded = load_index(path)
    assert loaded.corpus.ids == index.corpus.ids
    assert np.array_equal(loaded.matrix, index.matrix)
    queries = [(i, index.query_vector(i)) for i in handle.ids[:4]]
    assert search_batch(loaded, queries, 5) == search_batch(index, queries, 5)


@pytest.mark.parametrize("flags", [0, 2])
def test_load_index_rejects_flags_other_than_unit(tmp_path, rng, flags):
    handle = make_corpus(tmp_path, rng, n_identities=3, per_identity=2, dim=4)
    path = save_index(build_index(handle), tmp_path / "x.index")
    data = bytearray(path.read_bytes())
    data[4 + simindex._HEADER.size - 1] = flags  # the header's last byte
    path.write_bytes(bytes(data))
    with pytest.raises(DataError, match=f"flags {flags} unsupported"):
        load_index(path)


def test_load_index_rejects_garbage(tmp_path):
    bad = tmp_path / "bad.index"
    bad.write_bytes(b"NOPE" + bytes(16))
    with pytest.raises(DataError, match="not an index"):
        load_index(bad)
    truncated = tmp_path / "short.index"
    truncated.write_bytes(b"LNUI\x01\x00")
    with pytest.raises(DataError):
        load_index(truncated)
    oversized = tmp_path / "oversized.index"
    oversized.write_bytes(simindex.INDEX_MAGIC + simindex._HEADER.pack(4, 2**40, 1) + bytes(64))
    with pytest.raises(DataError, match="more than the file holds"):
        load_index(oversized)

    def index_file(name, dim, records):
        body = b"".join(
            struct.pack("<H", len(image_id)) + image_id.encode() + struct.pack("<H", 1) + b"p"
            + np.asarray(vector, dtype="<f8").tobytes()
            for image_id, vector in records
        )
        path = tmp_path / name
        path.write_bytes(simindex.INDEX_MAGIC + simindex._HEADER.pack(dim, len(records), 1) + body)
        return path

    for name, dim, records, message in [
        ("duplicate", 2, [("a", [1.0, 0.0]), ("b", [0.0, 1.0]), ("a", [0.6, 0.8])],
         "record 2: duplicate image_id 'a'"),
        ("nan", 2, [("a", [1.0, 0.0]), ("b", [np.nan, 1.0])], "record 1: .* non-finite"),
        ("dim0", 0, [("a", []), ("b", [])], "dimension 0"),
        ("empty", 2, [], "no records"),
    ]:
        with pytest.raises(DataError, match=message):
            load_index(index_file(f"{name}.index", dim, records))
