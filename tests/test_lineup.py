import hashlib
import json

import numpy as np
import pytest

import oracles
from conftest import make_corpus, write_jsonl_corpus
from lineuplab import lineup as lineup_mod
from lineuplab import simindex
from lineuplab.corpus import ingest_embeddings
from lineuplab.errors import DataError
from lineuplab.lineup import (
    CHANGE_RANGE,
    Lineup,
    LineupResult,
    RankChangeRecord,
    RankChangeReport,
    build_lineup,
    change_histogram,
    compare_variants,
    draw_probe,
    evaluate_corpus,
    rank_probe,
    read_lineup_manifest,
    read_results_csv,
    summarize_outcomes,
    write_lineup_manifest,
    write_rank_change_csv,
    write_results_csv,
)
from lineuplab.simindex import ExcludeIdentity, brute_force_topk, build_index


def unit(*values):
    v = np.asarray(values, dtype=np.float64)
    return v / np.linalg.norm(v)


# ---------------------------------------------------------------------------
# Probe draw


def test_draw_probe_matches_hash_oracle():
    pool = [f"img{i}" for i in range(7)]
    for seed in (0, 1, 99):
        for source in ("a", "b", "x_1"):
            digest = hashlib.sha256(f"{seed}:{source}".encode("utf-8")).digest()
            want = sorted(pool)[int.from_bytes(digest[:8], "big") % len(pool)]
            assert draw_probe(pool, seed, source) == want


def test_draw_probe_deterministic_and_order_free(rng):
    pool = [f"c{i}" for i in range(5)]
    shuffled = [pool[i] for i in rng.permutation(5)]
    assert draw_probe(pool, 3, "s") == draw_probe(shuffled, 3, "s")


def test_draw_probe_covers_all_candidates():
    pool = [f"c{i}" for i in range(4)]
    picks = {draw_probe(pool, seed, "s") for seed in range(200)}
    assert picks == set(pool)


def test_draw_probe_empty_pool():
    with pytest.raises(DataError, match="no other image"):
        draw_probe([], 0, "s")


# ---------------------------------------------------------------------------
# Construction


def test_build_lineup_invariants(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=8, per_identity=3, dim=8)
    index = build_index(handle)
    lu = build_lineup(index, handle, handle.ids[0], seed=5)
    assert lu.source == handle.ids[0]
    assert len(lu.fillers) == 5
    assert len(set(lu.members)) == 6
    source_identity = handle.identity_of(lu.source)
    for f in lu.fillers:
        assert handle.identity_of(f) != source_identity
    assert handle.identity_of(lu.probe) == source_identity
    assert lu.probe != lu.source
    assert lu.seed == 5


def test_fillers_are_top5_outside_identity(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=3, dim=16)
    index = build_index(handle)
    source = handle.ids[4]
    lu = build_lineup(index, handle, source, seed=0)
    ref = brute_force_topk(index, index.query_vector(source), 5,
                           exclude=ExcludeIdentity(handle.identity_of(source)))
    assert lu.fillers == tuple(h.image_id for h in ref.hits)


def test_build_lineup_needs_probe_candidate(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=7, per_identity=1, dim=8)
    index = build_index(handle)
    with pytest.raises(DataError, match="no other image"):
        build_lineup(index, handle, handle.ids[0], seed=0)


def test_build_lineup_needs_five_outside_images(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=2, per_identity=3, dim=8)
    index = build_index(handle)
    with pytest.raises(DataError, match="need 5 fillers"):
        build_lineup(index, handle, handle.ids[0], seed=0)


def test_distinct_filler_identities_flag(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=12, per_identity=4, dim=4,
                         cluster=0.98)
    index = build_index(handle)
    source = handle.ids[0]
    plain = build_lineup(index, handle, source, seed=0)
    distinct = build_lineup(index, handle, source, seed=0,
                            distinct_filler_identities=True)
    # Clustered identities make the plain top five collapse onto few labels.
    assert len({handle.identity_of(f) for f in plain.fillers}) < 5
    assert len({handle.identity_of(f) for f in distinct.fillers}) == 5
    # The distinct picks are each label's best-ranked representative, in
    # ranked order.
    seen = []
    for hit in brute_force_topk(index, index.query_vector(source), handle.count - 4,
                                exclude=ExcludeIdentity(handle.identity_of(source))).hits:
        if hit.identity_id not in {s[1] for s in seen}:
            seen.append((hit.image_id, hit.identity_id))
    assert distinct.fillers == tuple(s[0] for s in seen[:5])


def test_distinct_fillers_impossible(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=4, per_identity=4, dim=8)
    index = build_index(handle)
    with pytest.raises(DataError, match="distinct filler identities"):
        build_lineup(index, handle, handle.ids[0], seed=0,
                     distinct_filler_identities=True)


def test_lineup_validation():
    with pytest.raises(DataError, match="5 fillers"):
        Lineup("s", ("f1", "f2"), "p", 0)
    with pytest.raises(DataError, match="distinct"):
        Lineup("s", ("f1", "f1", "f2", "f3", "f4"), "p", 0)
    with pytest.raises(DataError, match="differ from the source"):
        Lineup("s", ("f1", "f2", "f3", "f4", "f5"), "s", 0)
    with pytest.raises(DataError, match="differ from the source"):
        Lineup("s", ("f1", "f2", "s", "f4", "f5"), "p", 0)


# ---------------------------------------------------------------------------
# Ranking


def _ranked_fixture(tmp_path):
    """Six members with hand-chosen cosine scores against the source."""
    rows = [
        ("src", "A", unit(1, 0, 0)),
        ("probe", "A", unit(0.8, 0.6, 0)),   # score 0.8 -> rank 1
        ("f1", "B", unit(0.9, np.sqrt(1 - 0.81), 0)),  # 0.9 -> rank 0
        ("f2", "C", unit(0.7, np.sqrt(1 - 0.49), 0)),  # 0.7
        ("f3", "D", unit(0.5, np.sqrt(1 - 0.25), 0)),  # 0.5
        ("f4", "E", unit(0.3, np.sqrt(1 - 0.09), 0)),  # 0.3
        ("f5", "F", unit(0.1, np.sqrt(1 - 0.01), 0)),  # 0.1
    ]
    path = write_jsonl_corpus(tmp_path / "ranked.jsonl", rows)
    return ingest_embeddings(path)


def test_rank_probe_known_order(tmp_path):
    handle = _ranked_fixture(tmp_path)
    lu = Lineup("src", ("f1", "f2", "f3", "f4", "f5"), "probe", 0)
    result = rank_probe(lu, handle)
    assert result.probe_rank == 1
    assert result.success is False


def test_rank_probe_success_at_rank_zero(tmp_path):
    # Filler order in the lineup must not affect the rank.
    handle = _ranked_fixture(tmp_path)
    reordered = Lineup("src", ("f2", "f3", "f4", "f5", "f1"), "probe", 0)
    assert rank_probe(reordered, handle).probe_rank == 1

    rows = [
        ("src", "A", unit(1, 0, 0)),
        ("probe", "A", unit(0.99, np.sqrt(1 - 0.9801), 0)),
        ("g1", "B", unit(0.6, 0.8, 0)),
        ("g2", "C", unit(0.5, np.sqrt(0.75), 0)),
        ("g3", "D", unit(0.4, np.sqrt(1 - 0.16), 0)),
        ("g4", "E", unit(0.2, np.sqrt(1 - 0.04), 0)),
        ("g5", "F", unit(0.0, 1.0, 0)),
    ]
    handle2 = ingest_embeddings(write_jsonl_corpus(tmp_path / "r2.jsonl", rows))
    res = rank_probe(Lineup("src", ("g1", "g2", "g3", "g4", "g5"), "probe", 0), handle2)
    assert res.probe_rank == 0
    assert res.success is True


def test_rank_probe_tie_breaks_by_member_id(tmp_path):
    v = unit(0.5, 0.5, 0.1)
    rows = [("src", "A", unit(1, 0, 0)), ("zz_probe", "A", v),
            ("aa", "B", v), ("bb", "C", v), ("cc", "D", v), ("dd", "E", v), ("ee", "F", v)]
    handle = ingest_embeddings(write_jsonl_corpus(tmp_path / "tie.jsonl", rows))
    res = rank_probe(Lineup("src", ("aa", "bb", "cc", "dd", "ee"), "zz_probe", 0), handle)
    assert res.probe_rank == 5  # identical scores, probe id sorts last


def test_rank_probe_missing_member(tmp_path):
    handle = _ranked_fixture(tmp_path)
    lu = Lineup("src", ("f1", "f2", "f3", "f4", "ghost"), "probe", 0)
    with pytest.raises(DataError, match="ghost"):
        rank_probe(lu, handle)


# ---------------------------------------------------------------------------
# Score block and rank rule


def _tie_blocks(rng):
    """Score rows with exact ties, and lineups whose probe id falls before,
    between and after its filler ids: all six members tied, ties straddling
    the probe, and random rows drawn from three score levels."""
    ids = ["b", "d", "f", "h", "k", "m"]
    rows, lineups = [], []
    for trial in range(240):
        members = [ids[i] for i in rng.permutation(6)]
        if trial % 4 == 0:
            row = [0.5] * 6
        elif trial % 4 == 1:  # two fillers above the probe, two tied, one below
            row = [0.9, 0.7, 0.7, 0.9, 0.1, 0.7]
        else:
            row = rng.choice([-0.25, 0.0, 0.25], size=6).tolist()
        rows.append(row)
        lineups.append(Lineup("s", tuple(members[:5]), members[5], 0))
    return np.array(rows), lineups


def test_ranks_from_scores_match_the_oracle_on_exact_ties(rng):
    scores, lineups = _tie_blocks(rng)
    want = [oracles.probe_rank_from_scores(row, lu.members, lu.probe)
            for row, lu in zip(scores.tolist(), lineups)]
    assert lineup_mod.ranks_from_scores(scores, lineups) == want
    assert set(want) == set(range(6))
    # all six tied: the rank is the number of filler ids below the probe id
    for lu, rank in zip(lineups[::4], want[::4]):
        assert rank == sum(f < lu.probe for f in lu.fillers)
    assert lineup_mod.ranks_from_scores(np.empty((0, 6)), []) == []


def test_lineup_scores_do_not_depend_on_the_block_size(tmp_path, rng, monkeypatch):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=3, dim=8, cluster=0.9)
    lineups = [r.lineup for r in evaluate_corpus(handle, build_index(handle), handle.ids,
                                                 seed=0).results]
    one_at_a_time = np.vstack([lineup_mod._lineup_scores([lu], handle, handle)
                               for lu in lineups])
    for lu, row in zip(lineups, one_at_a_time):  # fillers first, the probe last
        src = simindex.l2_normalize(handle.vector(lu.source)[None, :], [lu.source])[0]
        mem = simindex.l2_normalize(np.array([handle.vector(m) for m in lu.members]), lu.members)
        assert np.allclose(row, mem @ src, rtol=0, atol=1e-12)
    for lineups_per_block in (1, 2, 7, len(lineups)):
        monkeypatch.setattr(simindex, "BLOCK_VALUES", lineups_per_block * 6 * handle.dim)
        block = lineup_mod._lineup_scores(lineups, handle, handle)
        assert block.dtype == np.float64 and block.shape == (len(lineups), 6)
        assert block.tobytes() == one_at_a_time.tobytes()


def test_ranking_calls_the_score_kernel_once_per_lineup_block(tmp_path, rng, monkeypatch):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=3, dim=8, cluster=0.9)
    index = build_index(handle)
    kernel = simindex.score_kernel
    member_blocks = []

    def counted(queries, corpus):
        if np.ndim(corpus) == 3:  # a lineup block, not the search's rescoring
            member_blocks.append(len(queries))
        return kernel(queries, corpus)

    monkeypatch.setattr(simindex, "score_kernel", counted)
    monkeypatch.setattr(simindex, "BLOCK_VALUES", 4 * 6 * handle.dim)
    results = evaluate_corpus(handle, index, handle.ids, seed=0).results
    n = len(results)
    assert n == handle.count
    want = [4] * (n // 4) + [n % 4] * (n % 4 > 0)
    assert member_blocks == want
    member_blocks.clear()
    report = compare_variants(results, handle, handle)
    assert member_blocks == want
    assert [rec.change for rec in report.per_lineup] == [0] * n


def test_result_validation():
    lu = Lineup("s", ("f1", "f2", "f3", "f4", "f5"), "p", 0)
    with pytest.raises(DataError, match="out of range"):
        LineupResult(lu, 6, False)
    with pytest.raises(DataError, match="mirror"):
        LineupResult(lu, 0, False)


# ---------------------------------------------------------------------------
# Corpus evaluation


def test_evaluate_corpus_accuracy_and_order(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=10, per_identity=3, dim=8,
                         cluster=0.9)
    index = build_index(handle)
    report = evaluate_corpus(handle, index, handle.ids, seed=0)
    assert len(report.results) == handle.count
    sources = [r.lineup.source for r in report.results]
    assert sources == sorted(sources)
    manual = sum(r.success for r in report.results) / len(report.results)
    assert report.accuracy == manual


def test_evaluate_corpus_skips_and_reports(tmp_path, rng):
    # One identity has a single image: its source is skipped, not fatal.
    records = [("solo", "lonely", rng.normal(size=8))]
    for pid in range(8):
        for j in range(2):
            records.append((f"p{pid}_i{j}", f"p{pid}", rng.normal(size=8)))
    handle = ingest_embeddings(write_jsonl_corpus(tmp_path / "c.jsonl", records))
    index = build_index(handle)
    report = evaluate_corpus(handle, index, handle.ids, seed=0)
    assert len(report.results) == handle.count - 1
    assert len(report.skipped) == 1
    assert report.skipped[0][0] == "solo"
    assert "no other image" in report.skipped[0][1]


def test_evaluate_corpus_no_eligible_sources(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=6, per_identity=1, dim=8)
    index = build_index(handle)
    report = evaluate_corpus(handle, index, handle.ids, seed=0)
    assert report.accuracy is None
    assert report.results == ()
    assert [sid for sid, _ in report.skipped] == sorted(handle.ids)
    assert all("no other image" in reason for _, reason in report.skipped)


# ---------------------------------------------------------------------------
# Restoration comparison


def _before_after_fixture(tmp_path):
    before_rows = [
        ("src", "A", unit(1, 0, 0)),
        ("probe", "A", unit(0.8, 0.6, 0)),
        ("f1", "B", unit(0.9, np.sqrt(1 - 0.81), 0)),
        ("f2", "C", unit(0.7, np.sqrt(1 - 0.49), 0)),
        ("f3", "D", unit(0.5, np.sqrt(0.75), 0)),
        ("f4", "E", unit(0.3, np.sqrt(1 - 0.09), 0)),
        ("f5", "F", unit(0.1, np.sqrt(1 - 0.01), 0)),
    ]
    after_rows = [
        ("src", "A", unit(0, 1, 0)),                  # must be ignored
        ("probe", "A", unit(0.95, np.sqrt(1 - 0.9025), 0)),  # now beats f1
        ("f1", "B", unit(0.9, np.sqrt(1 - 0.81), 0)),
        ("f2", "C", unit(0.7, np.sqrt(1 - 0.49), 0)),
        ("f3", "D", unit(0.5, np.sqrt(0.75), 0)),
        ("f4", "E", unit(0.3, np.sqrt(1 - 0.09), 0)),
        ("f5", "F", unit(0.1, np.sqrt(1 - 0.01), 0)),
    ]
    original = ingest_embeddings(write_jsonl_corpus(tmp_path / "before.jsonl", before_rows))
    restored = ingest_embeddings(write_jsonl_corpus(tmp_path / "after.jsonl", after_rows))
    lu = Lineup("src", ("f1", "f2", "f3", "f4", "f5"), "probe", 0)
    before = rank_probe(lu, original)
    assert before.probe_rank == 1
    return original, restored, before


def test_compare_variants_rank_change(tmp_path):
    original, restored, before = _before_after_fixture(tmp_path)
    report = compare_variants([before], original, restored)
    assert report.failed == ()
    rec = report.per_lineup[0]
    assert (rec.rank_before, rec.rank_after, rec.change) == (1, 0, 1)


def test_compare_variants_source_vector_from_original(tmp_path):
    # The restored corpus flips the source vector to be orthogonal; if the
    # comparison wrongly adopted it, every member score would collapse and
    # the probe could not reach rank 0 on similarity to the old source.
    original, restored, before = _before_after_fixture(tmp_path)
    report = compare_variants([before], original, restored)
    assert report.per_lineup[0].rank_after == 0
    # Sanity: ranking against the restored source vector would put f-members
    # with larger second components on top instead.
    flipped = compare_variants([before], restored, restored)
    assert flipped.per_lineup[0].rank_after != 0


def test_compare_variants_missing_member_fails_soft(tmp_path):
    original, restored, before = _before_after_fixture(tmp_path)
    reduced = restored.subset([i for i in restored.ids if i != "f3"])
    report = compare_variants([before], original, reduced)
    assert report.per_lineup == ()
    assert report.failed == ("src",)


def test_compare_variants_sorts_failed_lineups(tmp_path):
    original, restored, _ = _before_after_fixture(tmp_path)
    before = [_result_with_rank(source, 1) for source in ("c", "b", "a")]
    assert compare_variants(before, original, restored).failed == ("a", "b", "c")


def test_change_histogram_bins():
    records = [RankChangeRecord("a", 3, 1), RankChangeRecord("b", 1, 3),
               RankChangeRecord("c", 2, 2), RankChangeRecord("d", 5, 0)]
    hist = change_histogram(records)
    assert set(hist) == set(CHANGE_RANGE)
    assert hist[2] == (1, 25.0)
    assert hist[-2] == (1, 25.0)
    assert hist[0] == (1, 25.0)
    assert hist[5] == (1, 25.0)
    assert sum(count for count, _ in hist.values()) == 4
    empty = change_histogram([])
    assert all(v == (0, 0.0) for v in empty.values())


def _result_with_rank(source, rank):
    fillers = tuple(f"{source}_f{i}" for i in range(5))
    return LineupResult(Lineup(source, fillers, f"{source}_p", 0), rank, rank == 0)


def test_summarize_outcomes_accounting():
    records = (
        RankChangeRecord("a", 2, 0),   # improvement + conversion
        RankChangeRecord("b", 3, 1),   # improvement
        RankChangeRecord("c", 1, 4),   # degradation
        RankChangeRecord("d", 2, 2),   # unchanged
        RankChangeRecord("e", 0, 0),   # unchanged (was already a success)
    )
    report = RankChangeReport(records, change_histogram(records), failed=("f",))
    before = [_result_with_rank(s, r) for s, r in
              [("a", 2), ("b", 3), ("c", 1), ("d", 2), ("e", 0), ("f", 5)]]
    table = summarize_outcomes(report, before)
    assert (table.improvements, table.degradations, table.unchanged) == (2, 1, 2)
    assert table.success_conversions == 1
    assert table.failed_restorations == 1
    assert table.total == 6
    assert table.improvements + table.degradations + table.unchanged \
        + table.failed_restorations == table.total
    assert table.success_conversions <= table.improvements
    assert table.percentages["improvements"] == pytest.approx(100 * 2 / 6)
    assert table.mean_improvement == pytest.approx(2.0)
    assert table.mean_degradation == pytest.approx(3.0)


def test_summarize_outcomes_over_a_subset():
    records = (RankChangeRecord("a", 2, 0), RankChangeRecord("b", 0, 1),
               RankChangeRecord("c", 3, 1), RankChangeRecord("d", 1, 4))
    report = RankChangeReport(records, change_histogram(records), failed=("e", "f"))
    subset = [_result_with_rank(s, r) for s, r in [("a", 2), ("c", 3), ("f", 4)]]
    kept = (records[0], records[2])
    alone = RankChangeReport(kept, change_histogram(kept), failed=("f",))
    table = summarize_outcomes(report, subset)
    assert table == summarize_outcomes(alone, subset)
    assert (table.improvements, table.degradations, table.success_conversions,
            table.failed_restorations, table.total) == (2, 0, 1, 1, 3)


def test_summarize_outcomes_detects_mismatch():
    records = (RankChangeRecord("a", 2, 0),)
    report = RankChangeReport(records, change_histogram(records), failed=())
    with pytest.raises(DataError, match="accounting mismatch"):
        summarize_outcomes(report, [_result_with_rank("a", 2), _result_with_rank("b", 1)])


# ---------------------------------------------------------------------------
# Interchange files


def test_manifest_round_trip(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=8, per_identity=3, dim=8)
    index = build_index(handle)
    report = evaluate_corpus(handle, index, handle.ids, seed=7)
    lineups = [r.lineup for r in report.results]
    path = write_lineup_manifest(lineups, tmp_path / "manifest.jsonl")
    assert read_lineup_manifest(path) == lineups


def test_results_round_trip(tmp_path, rng):
    handle = make_corpus(tmp_path, rng, n_identities=8, per_identity=3, dim=8)
    index = build_index(handle)
    report = evaluate_corpus(handle, index, handle.ids, seed=7)
    path = write_results_csv(report.results, tmp_path / "results.csv")
    lineups = [r.lineup for r in report.results]
    assert tuple(read_results_csv(path, lineups)) == report.results


def test_rank_change_csv_layout(tmp_path):
    records = [RankChangeRecord("a", 3, 1)] * 2 + [RankChangeRecord("b", 1, 2)]
    report = RankChangeReport(tuple(records), change_histogram(records), ())
    path = write_rank_change_csv(report, tmp_path / "rc.csv")
    lines = path.read_text().splitlines()
    assert lines[0] == "change,count,percentage"
    assert lines[1] == "-5,0,0.0"
    assert lines[6] == "0,0,0.0"
    assert lines[5] == "-1,1,33.3"
    assert lines[8] == "+2,2,66.7"
    assert len(lines) == 12


def test_read_results_rejects_unknown_lineup(tmp_path):
    path = tmp_path / "r.csv"
    path.write_text("source_id,probe_rank,success\nghost,0,true\n")
    with pytest.raises(DataError, match="unknown lineup"):
        read_results_csv(path, [])


def test_read_manifest_and_results_reject_non_integer_fields(tmp_path):
    lineup = {"source": "s", "fillers": ["f1", "f2", "f3", "f4", "f5"], "probe": "p"}
    manifest = tmp_path / "m.jsonl"
    manifest.write_text(json.dumps({**lineup, "seed": 1}) + "\n"
                        + json.dumps({**lineup, "seed": "abc"}) + "\n")
    with pytest.raises(DataError, match=r"m\.jsonl:2: malformed lineup entry"):
        read_lineup_manifest(manifest)
    results = tmp_path / "r.csv"
    results.write_text("source_id,probe_rank,success\ns,0,true\ns,x,false\n")
    lineups = [Lineup("s", ("f1", "f2", "f3", "f4", "f5"), "p", 1)] * 2
    with pytest.raises(DataError, match=r"r\.csv:3: probe_rank 'x'"):
        read_results_csv(results, lineups)
