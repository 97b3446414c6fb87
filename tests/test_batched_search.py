"""The blocked shortlist search and the batched lineup paths against their
references: the shortlist margin under worst-case rounding, non-finite
queries, the gathered score kernel, and evaluate/compare over corpora that
span several query and lineup blocks."""

import numpy as np
import pytest

import oracles
from conftest import write_jsonl_corpus
from lineuplab import lineup as lineup_mod
from lineuplab import simindex
from lineuplab.corpus import ingest_embeddings
from lineuplab.errors import DataError
from lineuplab.lineup import FILLER_COUNT, compare_variants, draw_probe, evaluate_corpus
from lineuplab.simindex import (
    ExcludeIdentity,
    ExcludeOwnIdentity,
    brute_force_topk,
    build_index,
    score_kernel,
    search_batch,
)

# ---------------------------------------------------------------------------
# Shortlist margin


@pytest.mark.parametrize("dim", [8, 512])
@pytest.mark.parametrize("qnorm", [1.0, 3.0])
def test_shortlist_keeps_true_top_k_under_worst_case_rounding(dim, qnorm):
    """Each kernel may sit gamma_d |q| from the exact product, so BLAS and
    einsum may differ by 2 gamma_d |q|. Push every true top-k row down by
    that much and k decoys just below the k-th score up by as much: the
    shortlist must still hold every true row."""
    u = 2.0 ** -53
    push = 2.0 * (dim * u / (1.0 - dim * u)) * qnorm
    rng = np.random.default_rng(dim)
    k, n = 5, 40
    for _ in range(50):
        exact = rng.uniform(-0.5, 0.0, size=n) * qnorm
        rows = rng.choice(n, size=2 * k, replace=False)
        top, decoys = rows[:k], rows[k:]
        tau = 0.25 * qnorm
        exact[top] = tau + rng.uniform(0.0, 2.0, size=k) * push
        exact[top[0]] = tau
        exact[decoys] = tau - rng.uniform(0.05, 0.5, size=k) * push
        approx = exact.copy()
        approx[top] -= push
        approx[decoys] += push
        kept = simindex._shortlist(approx, k, dim, qnorm)
        assert set(top.tolist()) <= set(kept.tolist())


def test_score_kernel_gathered_rows_match_full_scores():
    """The per-query gather form and a gathered corpus reduce each pair with
    the same inner loop as the full kernel: equal bit for bit."""
    rng = np.random.default_rng(5)
    for dim in (8, 33, 512):
        corpus = simindex.l2_normalize(rng.normal(size=(200, dim)), range(200))
        queries = rng.normal(size=(30, dim))
        full = score_kernel(queries, corpus)
        picks = rng.integers(0, 200, size=(30, 7))
        assert np.array_equal(score_kernel(queries, corpus[picks]),
                              np.take_along_axis(full, picks, axis=1))
        assert np.array_equal(score_kernel(queries[3:4], corpus[picks[3]])[0], full[3, picks[3]])


# ---------------------------------------------------------------------------
# Non-finite queries


def test_non_finite_query_names_the_query(tmp_path):
    rng = np.random.default_rng(11)
    records = [(f"i{n}", f"p{n % 5}", rng.normal(size=8)) for n in range(20)]
    index = build_index(ingest_embeddings(write_jsonl_corpus(tmp_path / "c.jsonl", records)))
    good = index.query_vector("i3")
    for bad_value in (np.nan, np.inf, -np.inf):
        bad = good.copy()
        bad[2] = bad_value
        with pytest.raises(DataError, match="query 'q7': non-finite"):
            search_batch(index, [("q0", good), ("q7", bad)], 3)
        with pytest.raises(DataError, match="query #1: non-finite"):
            search_batch(index, np.vstack([good, bad]), 3)
        with pytest.raises(DataError, match="query 'q7': non-finite"):
            brute_force_topk(index, bad, 3, query_id="q7")
    # Finite components whose squared norm overflows float64.
    with pytest.raises(DataError, match="query 'big': non-finite"):
        search_batch(index, [("big", good * 1e200)], 3)


# ---------------------------------------------------------------------------
# Batched lineups against per-source references


DIM = 64


def _tie_heavy_records(rng):
    """~1,200 x 64 rows: clustered identities of 1-5 images, four groups of
    seven identical vectors spread over seven identities (exact ties on the
    five-filler boundary), and a 25-image identity packed around one source
    so that distinct-identity fillers need k = 40."""
    records = []
    pid = 0
    while len(records) < 1100:
        base = rng.normal(size=DIM)
        for j in range(int(rng.integers(1, 6))):
            records.append([f"p{pid:04d}_i{j}", f"p{pid:04d}", base + 0.7 * rng.normal(size=DIM)])
        pid += 1
    multi = sorted({r[1] for r in records if r[0].endswith("_i1")})
    firsts = {r[1]: r for r in records if r[0].endswith("_i0")}
    chosen = rng.choice(len(multi), size=28, replace=False).reshape(4, 7)
    for group in chosen:
        shared = firsts[multi[group[0]]][2]
        for g in group:
            firsts[multi[g]][2] = shared.copy()
    hub = rng.normal(size=DIM)
    records.append(["hub_src", "hub", hub])
    records.append(["hub_mate", "hub", rng.normal(size=DIM)])
    records.extend([f"crowd_{j:02d}", "crowd", hub + 0.01 * rng.normal(size=DIM)] for j in range(25))
    order = rng.permutation(len(records))
    return [tuple(records[i]) for i in order]


@pytest.fixture(scope="module")
def tie_corpus(tmp_path_factory):
    rng = np.random.default_rng(20261018)
    path = write_jsonl_corpus(tmp_path_factory.mktemp("tie") / "c.jsonl", _tie_heavy_records(rng))
    handle = ingest_embeddings(path)
    return handle, build_index(handle)


def _reference_report(handle, index, seed, distinct):
    """Per source: the lineup checks, brute-force fillers (widening k by
    doubling in distinct mode), the hash probe, and the dot-product rank."""
    results, skipped = [], []
    for source in sorted(handle.ids):
        identity = handle.identity_of(source)
        same = handle.identity_index[identity]
        eligible = handle.count - len(same)
        if len(same) < 2 or eligible < FILLER_COUNT:
            skipped.append(source)
            continue
        k = FILLER_COUNT
        while True:
            hits = brute_force_topk(index, index.query_vector(source), k,
                                    exclude=ExcludeIdentity(identity), query_id=source).hits
            fillers, labels = [], set()
            for h in hits:
                if not distinct or h.identity_id not in labels:
                    labels.add(h.identity_id)
                    fillers.append(h.image_id)
            if len(fillers) >= FILLER_COUNT or k >= eligible:
                break
            k = min(2 * k, eligible)
        fillers = tuple(fillers[:FILLER_COUNT])
        probe = draw_probe([i for i in same if i != source], seed, source)
        members = {m: handle.vector(m) for m in fillers + (probe,)}
        rank = oracles.rescore_lineup(handle.vector(source), members, probe)
        results.append((source, fillers, probe, rank))
    return results, skipped


@pytest.mark.parametrize("distinct", [False, True])
def test_evaluate_corpus_matches_per_source_reference(tie_corpus, monkeypatch, distinct):
    handle, index = tie_corpus
    widths = []
    search = simindex.search_batch

    def recording_search(index, queries, k, **kwargs):
        widths.append(k)
        return search(index, queries, k, **kwargs)

    monkeypatch.setattr(simindex, "search_batch", recording_search)
    report = evaluate_corpus(handle, index, handle.ids, seed=3,
                             distinct_filler_identities=distinct)
    # Several query blocks and more than one lineup block.
    assert handle.count > 2 * (simindex.BLOCK_VALUES // handle.count)
    assert len(report.results) > simindex.BLOCK_VALUES // (lineup_mod.LINEUP_SIZE * DIM)
    want_results, want_skipped = _reference_report(handle, index, 3, distinct)
    got = [(r.lineup.source, r.lineup.fillers, r.lineup.probe, r.probe_rank)
           for r in report.results]
    assert got == want_results
    assert [s for s, _ in report.skipped] == want_skipped
    assert len({r[3] for r in got}) > 1
    if distinct:
        assert max(widths) >= 4 * FILLER_COUNT  # the crowd forced two doublings or more
        hub = next(r for r in report.results if r.lineup.source == "hub_src")
        assert len({handle.identity_of(f) for f in hub.lineup.fillers}) == FILLER_COUNT
    else:
        assert widths == [FILLER_COUNT]


def test_compare_variants_matches_rescore_oracle(tie_corpus, tmp_path):
    handle, index = tie_corpus
    report = evaluate_corpus(handle, index, handle.ids, seed=9)
    rng = np.random.default_rng(4)
    dropped = report.results[7].lineup.fillers[2]
    restored_rows = [
        (image_id, handle.identity_of(image_id),
         handle.vector(image_id) + 0.3 * rng.normal(size=DIM))
        for image_id in handle.ids if image_id != dropped
    ]
    restored = ingest_embeddings(write_jsonl_corpus(tmp_path / "r.jsonl", restored_rows))
    change = compare_variants(report.results, handle, restored)
    failed = [r.lineup.source for r in report.results if dropped in r.lineup.members]
    assert report.results[7].lineup.source in failed
    assert list(change.failed) == failed
    compared = [r for r in report.results if dropped not in r.lineup.members]
    assert [rec.lineup_id for rec in change.per_lineup] == [r.lineup.source for r in compared]
    for rec, before in zip(change.per_lineup, compared):
        lu = before.lineup
        members = {m: restored.vector(m) for m in lu.members}
        assert rec.rank_before == before.probe_rank
        assert rec.rank_after == oracles.rescore_lineup(handle.vector(lu.source), members, lu.probe)
    assert any(rec.change != 0 for rec in change.per_lineup)


def test_exclude_own_identity_matches_identity_rule(tie_corpus):
    handle, index = tie_corpus
    sources = list(handle.ids[::37])
    got = search_batch(index, [(s, index.query_vector(s)) for s in sources], 6,
                       exclude=ExcludeOwnIdentity())
    for source, result in zip(sources, got):
        assert result == brute_force_topk(index, index.query_vector(source), 6,
                                          exclude=ExcludeIdentity(handle.identity_of(source)),
                                          query_id=source)
    with pytest.raises(DataError, match="image id"):
        search_batch(index, index.matrix[:2], 3, exclude=ExcludeOwnIdentity())
