"""Six-image lineup construction, scoring, and before/after rank comparison.

A lineup pairs a source image with five fillers (the most similar images
from OTHER identities) and one probe (a deterministically drawn image of the
SAME identity). Recognition succeeds when the probe outranks every filler in
similarity to the source.

Rank change between embedding variants is rank_before - rank_after, so
positive values are improvements.
"""

from __future__ import annotations

import csv
import hashlib
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lineuplab import simindex
from lineuplab.corpus import CorpusHandle, ImageId, json_objects
from lineuplab.errors import DataError, open_text
from lineuplab.report import (  # re-exported: rank-change accounting lives in report
    CHANGE_RANGE,
    OutcomeTable,
    RankChangeRecord,
    RankChangeReport,
    change_histogram,
    summarize_outcomes,
    write_rank_change_csv,
)
from lineuplab.simindex import SearchIndex

FILLER_COUNT = 5
LINEUP_SIZE = 6


class NoEligibleSources(DataError):
    """No source in the requested set could form a lineup. ``skipped`` holds
    each source's reason, as ``AccuracyReport.skipped`` does."""

    def __init__(self, skipped: tuple[tuple[ImageId, str], ...]):
        super().__init__("no source was eligible for a lineup")
        self.skipped = skipped


@dataclass(frozen=True)
class Lineup:
    source: ImageId
    fillers: tuple[ImageId, ...]
    probe: ImageId
    seed: int

    def __post_init__(self):
        if len(self.fillers) != FILLER_COUNT:
            raise DataError(f"lineup needs {FILLER_COUNT} fillers, got {len(self.fillers)}")
        members = set(self.fillers) | {self.probe}
        if len(members) != LINEUP_SIZE:
            raise DataError("lineup members must be pairwise distinct")
        if self.probe == self.source:
            raise DataError("probe must differ from the source image")

    @property
    def members(self) -> tuple[ImageId, ...]:
        return self.fillers + (self.probe,)


@dataclass(frozen=True)
class LineupResult:
    lineup: Lineup
    probe_rank: int
    success: bool

    def __post_init__(self):
        if not 0 <= self.probe_rank < LINEUP_SIZE:
            raise DataError(f"probe rank {self.probe_rank} out of range")
        if self.success != (self.probe_rank == 0):
            raise DataError("success flag must mirror probe_rank == 0")


@dataclass(frozen=True)
class AccuracyReport:
    accuracy: float
    results: tuple[LineupResult, ...]
    skipped: tuple[tuple[ImageId, str], ...]


def draw_probe(candidates, seed: int, source: ImageId) -> ImageId:
    """Uniform deterministic pick keyed by (seed, source id).

    The draw hashes the key and reduces the first 8 digest bytes modulo the
    candidate count, so it is stable across platforms and run order.
    """
    pool = sorted(candidates)
    if not pool:
        raise DataError(f"source {source!r}: identity has no other image to use as probe")
    digest = hashlib.sha256(f"{seed}:{source}".encode("utf-8")).digest()
    return pool[int.from_bytes(digest[:8], "big") % len(pool)]


def _identity_group(corpus: CorpusHandle, source: ImageId) -> list[ImageId]:
    """The source's identity group; raises when the source cannot form a lineup."""
    identity = corpus.identity_of(source)
    same = corpus.identity_index[identity]
    if len(same) < 2:
        raise DataError(f"source {source!r}: identity {identity!r} has no other image to use as probe")
    outside = corpus.count - len(same)
    if outside < FILLER_COUNT:
        raise DataError(
            f"source {source!r}: only {outside} images outside identity {identity!r}, "
            f"need {FILLER_COUNT} fillers"
        )
    return same


def build_lineup(index: SearchIndex, corpus: CorpusHandle, source: ImageId, seed: int,
                 distinct_filler_identities: bool = False) -> Lineup:
    """Construct the lineup for one source image.

    Fillers are the top five most similar images drawn from outside the
    source's identity; with ``distinct_filler_identities`` each filler must
    also come from a different identity.
    """
    lineup = _build_lineups(index, corpus, [source], seed, distinct_filler_identities)[0]
    if isinstance(lineup, DataError):
        raise lineup
    return lineup


def _build_lineups(index: SearchIndex, corpus: CorpusHandle, sources, seed: int,
                   distinct: bool) -> list[Lineup | DataError]:
    """One lineup per source, in order, with every filler search batched; a
    DataError stands in for each source that cannot form a lineup."""
    built: list = [None] * len(sources)
    groups: dict[int, list[ImageId]] = {}
    for pos, source in enumerate(sources):
        try:
            groups[pos] = _identity_group(corpus, source)
        except DataError as exc:
            built[pos] = exc
    picked = _pick_fillers(index, [sources[pos] for pos in groups], distinct)
    for (pos, same), fillers in zip(groups.items(), picked):
        source = sources[pos]
        if fillers is None:
            built[pos] = DataError(f"source {source!r}: fewer than {FILLER_COUNT} distinct "
                                   f"filler identities available")
        else:
            probe = draw_probe([i for i in same if i != source], seed, source)
            built[pos] = Lineup(source=source, fillers=fillers, probe=probe, seed=seed)
    return built


def _pick_fillers(index: SearchIndex, sources, distinct: bool) -> list[tuple[ImageId, ...] | None]:
    """Fillers for every source, from batched searches outside its identity.

    With ``distinct`` each filler must come from its own identity: a source
    whose ranked prefix holds fewer than five labels is searched again at
    twice the k, alone with the other sources that still need it, until it
    has five or k covers every eligible image (then its entry is None). Each
    label contributes its best-ranked image, in ranked order.
    """
    own = simindex.ExcludeOwnIdentity()
    corpus = index.corpus
    picked: list[tuple[ImageId, ...] | None] = [None] * len(sources)
    pending = {pos: FILLER_COUNT for pos in range(len(sources))}
    while pending:
        groups: dict[int, list[int]] = {}
        for pos, k in pending.items():
            groups.setdefault(k, []).append(pos)
        for k, positions in groups.items():
            queries = [(sources[p], index.query_vector(sources[p])) for p in positions]
            for pos, result in zip(positions, simindex.search_batch(index, queries, k, exclude=own)):
                chosen = _first_fillers(result.hits, distinct)
                eligible = corpus.count - len(
                    corpus.identity_index[corpus.identity_of(sources[pos])])
                if len(chosen) == FILLER_COUNT:
                    picked[pos] = tuple(chosen)
                    del pending[pos]
                elif k >= eligible:
                    del pending[pos]
                else:
                    pending[pos] = min(k * 2, eligible)
    return picked


def _first_fillers(hits, distinct: bool) -> list[ImageId]:
    """Up to five filler ids from ranked hits, one per identity if ``distinct``."""
    chosen: list[ImageId] = []
    seen: set[str] = set()
    for h in hits:
        if not distinct or h.identity_id not in seen:
            seen.add(h.identity_id)
            chosen.append(h.image_id)
            if len(chosen) == FILLER_COUNT:
                break
    return chosen


def _rows(corpus: CorpusHandle, ids) -> np.ndarray:
    for image_id in ids:
        if image_id not in corpus:
            raise DataError(f"embedding missing for image {image_id!r}")
    return np.fromiter((corpus.row(i) for i in ids), dtype=np.intp, count=len(ids))


def _probe_ranks(lineups, source_corpus: CorpusHandle, member_corpus: CorpusHandle) -> list[int]:
    """Probe rank of each lineup: its members sorted by descending cosine
    similarity to the source, ties to the smaller image id.

    Sources come from ``source_corpus``, members from ``member_corpus``.
    Lineups are scored in blocks of at most ``simindex.BLOCK_VALUES``
    gathered member values. Raises naming any id whose embedding is absent.
    """
    step = max(1, simindex.BLOCK_VALUES // (LINEUP_SIZE * member_corpus.dim))
    return [rank for start in range(0, len(lineups), step)
            for rank in _rank_block(lineups[start:start + step], source_corpus, member_corpus)]


def _rank_block(block, source_corpus: CorpusHandle, member_corpus: CorpusHandle) -> list[int]:
    sources = [lu.source for lu in block]
    members = [m for lu in block for m in lu.members]
    src = simindex.l2_normalize(source_corpus.matrix[_rows(source_corpus, sources)], sources)
    mem = simindex.l2_normalize(member_corpus.matrix[_rows(member_corpus, members)], members)
    scores = simindex.score_kernel(src, mem.reshape(len(block), LINEUP_SIZE, -1))
    fillers, probe = scores[:, :FILLER_COUNT], scores[:, FILLER_COUNT:]
    # The probe is the last member; the fillers that sort before it set its rank.
    smaller_id = np.array([[f < lu.probe for f in lu.fillers] for lu in block])
    before = (fillers > probe) | ((fillers == probe) & smaller_id)
    return before.sum(axis=1).tolist()


def rank_probe(lineup: Lineup, embeddings: CorpusHandle) -> LineupResult:
    """Rank lineup members by similarity to the source and locate the probe."""
    probe_rank = _probe_ranks([lineup], embeddings, embeddings)[0]
    return LineupResult(lineup=lineup, probe_rank=probe_rank, success=probe_rank == 0)


def evaluate_corpus(corpus: CorpusHandle, index: SearchIndex, sources, seed: int,
                    distinct_filler_identities: bool = False) -> AccuracyReport:
    """Build and score a lineup per source; accuracy is the success fraction.

    Sources that cannot form a lineup (no probe candidate, too few fillers)
    are skipped and reported, not fatal. Results are ordered by source id.
    ``index`` must be built over ``corpus``: one batched search picks every
    source's fillers and the lineups are ranked in blocks.
    """
    ordered = sorted(sources)
    built = _build_lineups(index, corpus, ordered, seed, distinct_filler_identities)
    lineups = [lu for lu in built if isinstance(lu, Lineup)]
    skipped = tuple((source, str(lu)) for source, lu in zip(ordered, built)
                    if isinstance(lu, DataError))
    if not lineups:
        raise NoEligibleSources(skipped)
    results = tuple(
        LineupResult(lineup=lu, probe_rank=rank, success=rank == 0)
        for lu, rank in zip(lineups, _probe_ranks(lineups, corpus, corpus))
    )
    accuracy = sum(r.success for r in results) / len(results)
    return AccuracyReport(accuracy=accuracy, results=results, skipped=skipped)


def compare_variants(results_before, original: CorpusHandle,
                     restored: CorpusHandle) -> RankChangeReport:
    """Re-rank each already-built lineup against restored member embeddings.

    Lineup membership stays fixed from the before-pass. Member vectors come
    from ``restored``; the source vector always comes from ``original``
    (sources are not restored). A lineup whose member is absent from
    ``restored`` is recorded as failed rather than raising; ``failed`` is
    sorted by source id.
    """
    compared: list[LineupResult] = []
    failed: list[ImageId] = []
    for result in results_before:
        if any(m not in restored for m in result.lineup.members):
            failed.append(result.lineup.source)
        else:
            compared.append(result)
    ranks = _probe_ranks([r.lineup for r in compared], original, restored)
    records = [
        RankChangeRecord(lineup_id=r.lineup.source, rank_before=r.probe_rank, rank_after=rank)
        for r, rank in zip(compared, ranks)
    ]
    return RankChangeReport(
        per_lineup=tuple(records),
        histogram=change_histogram(records),
        failed=tuple(sorted(failed)),
    )


# ---------------------------------------------------------------------------
# On-disk interchange


def write_lineup_manifest(lineups, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8") as fh:
        for lu in lineups:
            fh.write(json.dumps({
                "source": lu.source,
                "fillers": list(lu.fillers),
                "probe": lu.probe,
                "seed": lu.seed,
            }) + "\n")
    return path


# manifest field -> (check, what the field must be)
_MANIFEST_FIELDS = {
    "source": (lambda v: isinstance(v, str), "a string"),
    "fillers": (lambda v: isinstance(v, list) and all(isinstance(f, str) for f in v),
                "a list of strings"),
    "probe": (lambda v: isinstance(v, str), "a string"),
    "seed": (lambda v: type(v) is int, "an integer"),  # a bool is not one
}


def read_lineup_manifest(path) -> list[Lineup]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"lineup manifest not found: {path}")
    out: list[Lineup] = []
    for where, obj in json_objects(path):
        try:
            for name, (ok, description) in _MANIFEST_FIELDS.items():
                if not ok(obj[name]):
                    raise DataError(f"{name!r} must be {description}, got {obj[name]!r}")
            out.append(Lineup(
                source=obj["source"],
                fillers=tuple(obj["fillers"]),
                probe=obj["probe"],
                seed=obj["seed"],
            ))
        except (KeyError, DataError) as exc:
            raise DataError(f"{where}: malformed lineup entry ({exc})") from None
    return out


def write_results_csv(results, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "probe_rank", "success"])
        for r in results:
            writer.writerow([r.lineup.source, r.probe_rank, "true" if r.success else "false"])
    return path


def read_results_csv(path, lineups_by_source: dict[ImageId, Lineup]) -> list[LineupResult]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"results file not found: {path}")
    out: list[LineupResult] = []
    with open_text(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header != ["source_id", "probe_rank", "success"]:
            raise DataError(f"{path}: unexpected results header {header}")
        for row in reader:
            if len(row) != 3:
                raise DataError(f"{path}: malformed row {row}")
            source, rank, success = row
            if source not in lineups_by_source:
                raise DataError(f"{path}: result for unknown lineup {source!r}")
            try:
                probe_rank = int(rank)
            except ValueError:
                raise DataError(
                    f"{path}:{reader.line_num}: probe_rank {rank!r} is not an integer"
                ) from None
            out.append(LineupResult(
                lineup=lineups_by_source[source],
                probe_rank=probe_rank,
                success=success == "true",
            ))
    return out
