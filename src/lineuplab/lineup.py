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
import importlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from lineuplab.artifacts import MANIFEST_FILE, RESULTS_FILE
from lineuplab.corpus import CorpusHandle, ImageId, json_objects
from lineuplab.errors import ConfigError, DataError, open_text

if TYPE_CHECKING:
    from lineuplab.config import PipelineConfig
    from lineuplab.report import RankChangeReport
    from lineuplab.simindex import SearchIndex

FILLER_COUNT = 5
LINEUP_SIZE = 6

# Rank-change accounting lives in ``report``; these names are re-exported
# from it on first use (PEP 562), and the search index is imported only by
# the functions that search or score. So reading the stored lineups, as
# ``features`` does, loads neither module.
_REPORT_EXPORTS = frozenset((
    "CHANGE_RANGE",
    "OutcomeTable",
    "RankChangeRecord",
    "RankChangeReport",
    "change_histogram",
    "summarize_outcomes",
    "write_rank_change_csv",
))


def __getattr__(name):
    if name not in _REPORT_EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module("lineuplab.report"), name)


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
        if self.source in members:
            raise DataError("lineup members must differ from the source image")

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
    results: tuple[LineupResult, ...]
    skipped: tuple[tuple[ImageId, str], ...]

    @property
    def accuracy(self) -> float | None:  # None when no source could form a lineup
        return sum(r.success for r in self.results) / len(self.results) if self.results else None


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
    from lineuplab import simindex

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


def _lineup_scores(lineups, source_corpus: CorpusHandle,
                   member_corpus: CorpusHandle) -> np.ndarray:
    """The (n, 6) float64 cosine scores of each lineup's members against its
    source, fillers first and the probe last.

    Sources come from ``source_corpus``, members from ``member_corpus``.
    Lineups are scored in blocks of at most ``simindex.BLOCK_VALUES``
    gathered member values, one ``simindex.score_kernel`` call per block.
    Raises naming any id whose embedding is absent.
    """
    from lineuplab import simindex

    def gather(corpus: CorpusHandle, ids) -> np.ndarray:
        return simindex.l2_normalize(corpus.matrix[[corpus.row(i) for i in ids]], ids)

    scores = np.empty((len(lineups), LINEUP_SIZE))
    step = max(1, simindex.BLOCK_VALUES // (LINEUP_SIZE * member_corpus.dim))
    for start in range(0, len(lineups), step):
        block = lineups[start:start + step]
        members = [m for lu in block for m in lu.members]
        scores[start:start + len(block)] = simindex.score_kernel(  # no gather outlives its block
            gather(source_corpus, [lu.source for lu in block]),
            gather(member_corpus, members).reshape(len(block), LINEUP_SIZE, -1))
    return scores


def ranks_from_scores(scores: np.ndarray, lineups) -> list[int]:
    """Probe rank of each lineup from its row of ``scores``: its members
    sorted by descending score, ties to the smaller image id."""
    # The probe is the last member; the fillers that sort before it set its rank.
    fillers, probe = scores[:, :FILLER_COUNT], scores[:, FILLER_COUNT:]
    before = fillers > probe
    for row, col in zip(*np.nonzero(fillers == probe)):  # a tie goes to the smaller id
        before[row, col] = lineups[row].fillers[col] < lineups[row].probe
    return before.sum(axis=1).tolist()


def _probe_ranks(lineups, source_corpus: CorpusHandle, member_corpus: CorpusHandle) -> list[int]:
    return ranks_from_scores(_lineup_scores(lineups, source_corpus, member_corpus), lineups)


def rank_probe(lineup: Lineup, embeddings: CorpusHandle) -> LineupResult:
    """Rank lineup members by similarity to the source and locate the probe."""
    probe_rank = _probe_ranks([lineup], embeddings, embeddings)[0]
    return LineupResult(lineup=lineup, probe_rank=probe_rank, success=probe_rank == 0)


def evaluate_corpus(corpus: CorpusHandle, index: SearchIndex, sources, seed: int,
                    distinct_filler_identities: bool = False) -> AccuracyReport:
    """Build and score a lineup per source.

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
    results = tuple(LineupResult(lineup=lu, probe_rank=rank, success=rank == 0)
                    for lu, rank in zip(lineups, _probe_ranks(lineups, corpus, corpus)))
    return AccuracyReport(results=results, skipped=skipped)


def compare_variants(results_before, original: CorpusHandle,
                     restored: CorpusHandle) -> RankChangeReport:
    """Re-rank each already-built lineup against restored member embeddings.

    Lineup membership stays fixed from the before-pass. Member vectors come
    from ``restored``; the source vector always comes from ``original``
    (sources are not restored). A lineup whose member is absent from
    ``restored`` is recorded as failed rather than raising; ``failed`` is
    sorted by source id.
    """
    from lineuplab.report import RankChangeRecord, RankChangeReport, change_histogram

    compared = [r for r in results_before if all(m in restored for m in r.lineup.members)]
    failed = [r.lineup.source for r in results_before
              if not all(m in restored for m in r.lineup.members)]
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
    """The manifest's lineups, in file order; their sources are distinct."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"lineup manifest not found: {path}")
    out: list[Lineup] = []
    sources: set[ImageId] = set()
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
        if out[-1].source in sources:
            raise DataError(f"{where}: lineup source {out[-1].source!r} appears more than once")
        sources.add(out[-1].source)
    return out


def stored_lineups(config: PipelineConfig) -> tuple[LineupResult, ...] | None:
    """The results ``evaluate`` wrote over its manifest's lineups; None if neither is stored."""
    manifest_path = config.out(MANIFEST_FILE)
    results_path = config.out(RESULTS_FILE)
    stored = manifest_path.is_file() + results_path.is_file()
    if stored == 1:
        raise ConfigError("lineup manifest/results not found (run 'evaluate' first)")
    return read_results_csv(results_path, read_lineup_manifest(manifest_path)) if stored else None


def write_results_csv(results, path) -> Path:
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["source_id", "probe_rank", "success"])
        for r in results:
            writer.writerow([r.lineup.source, r.probe_rank, "true" if r.success else "false"])
    return path


def read_results_csv(path, lineups) -> tuple[LineupResult, ...]:
    """The results of ``lineups``: one row per lineup, row k holding the
    result of ``lineups[k]``. A faulty row raises naming ``file:line``."""
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
            where = f"{path}:{reader.line_num}"
            if len(row) != 3:
                raise DataError(f"{where}: malformed row {row}")
            source, rank, success = row
            if len(out) == len(lineups):
                raise DataError(f"{where}: result for unknown lineup {source!r}: the results "
                                f"hold one row per lineup, and there are {len(lineups)}")
            lineup = lineups[len(out)]
            if source != lineup.source:
                raise DataError(f"{where}: result for {source!r} where lineup "
                                f"{lineup.source!r} is due: the results hold one row per "
                                f"lineup, in manifest order")
            try:
                # a flag other than true/false reads None, which fails the mirror check
                out.append(LineupResult(lineup=lineup, probe_rank=int(rank),
                                        success={"true": True, "false": False}.get(success)))
            except ValueError:
                raise DataError(f"{where}: probe_rank {rank!r} is not an integer") from None
            except DataError as exc:
                raise DataError(f"{where}: {exc}") from None
    if len(out) != len(lineups):
        raise DataError(f"{path}: {len(out)} rows for {len(lineups)} lineups: the results "
                        f"hold one row per lineup")
    return tuple(out)
