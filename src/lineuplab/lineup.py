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
from lineuplab.simindex import ExcludeIdentity, SearchIndex

FILLER_COUNT = 5
LINEUP_SIZE = 6

# Rank change is bounded by the lineup size: ranks live in [0, 5].
CHANGE_RANGE = range(-5, 6)


class NoEligibleSources(DataError):
    """No source in the requested set could form a lineup."""


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


@dataclass(frozen=True)
class RankChangeRecord:
    lineup_id: ImageId  # the source image id
    rank_before: int
    rank_after: int

    @property
    def change(self) -> int:
        return self.rank_before - self.rank_after


@dataclass(frozen=True)
class RankChangeReport:
    per_lineup: tuple[RankChangeRecord, ...]
    histogram: dict[int, tuple[int, float]]  # change -> (count, percentage)
    failed: tuple[ImageId, ...]              # lineups missing a restored member


@dataclass(frozen=True)
class OutcomeTable:
    improvements: int
    degradations: int
    unchanged: int
    success_conversions: int
    failed_restorations: int
    total: int
    percentages: dict[str, float]
    mean_improvement: float  # mean positive change, 0.0 when none
    mean_degradation: float  # mean |negative change|, 0.0 when none


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


def build_lineup(index: SearchIndex, corpus: CorpusHandle, source: ImageId, seed: int,
                 distinct_filler_identities: bool = False) -> Lineup:
    """Construct the lineup for one source image.

    Fillers are the top five most similar images drawn from outside the
    source's identity; with ``distinct_filler_identities`` each filler must
    also come from a different identity.
    """
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
    fillers = _pick_fillers(index, corpus, source, identity, distinct_filler_identities)
    probe = draw_probe([i for i in same if i != source], seed, source)
    return Lineup(source=source, fillers=fillers, probe=probe, seed=seed)


def _pick_fillers(index, corpus, source, identity, distinct) -> tuple[ImageId, ...]:
    query = [(source, index.query_vector(source))]
    exclude = ExcludeIdentity(identity)
    eligible = corpus.count - len(corpus.identity_index[identity])
    if not distinct:
        hits = simindex.search_batch(index, query, FILLER_COUNT, exclude=exclude)[0].hits
        return tuple(h.image_id for h in hits)
    # Distinct identities: widen k until five different labels appear in the
    # ranked prefix, then keep the best-ranked image of each label.
    k = FILLER_COUNT
    while True:
        hits = simindex.search_batch(index, query, k, exclude=exclude)[0].hits
        chosen: list[ImageId] = []
        seen: set[str] = set()
        for h in hits:
            if h.identity_id not in seen:
                seen.add(h.identity_id)
                chosen.append(h.image_id)
                if len(chosen) == FILLER_COUNT:
                    return tuple(chosen)
        if k >= eligible:
            raise DataError(
                f"source {source!r}: fewer than {FILLER_COUNT} distinct filler identities available"
            )
        k = min(k * 2, eligible)


def rank_probe(lineup: Lineup, embeddings: CorpusHandle) -> LineupResult:
    """Rank lineup members by similarity to the source and locate the probe."""
    ranked = _rank_members(lineup.source, lineup.members, embeddings, embeddings)
    probe_rank = ranked.index(lineup.probe)
    return LineupResult(lineup=lineup, probe_rank=probe_rank, success=probe_rank == 0)


def _rank_members(source: ImageId, members, source_corpus: CorpusHandle,
                  member_corpus: CorpusHandle) -> list[ImageId]:
    """Member ids sorted by descending cosine similarity to the source.

    Ties break toward the smaller image id. Raises naming any id whose
    embedding is absent.
    """
    for image_id in (source, *members):
        corpus = source_corpus if image_id == source else member_corpus
        if image_id not in corpus:
            raise DataError(f"embedding missing for image {image_id!r}")
    src = simindex.l2_normalize(source_corpus.vector(source).astype(np.float64))
    mat = simindex.l2_normalize(
        np.vstack([member_corpus.vector(m).astype(np.float64) for m in members])
    )
    scores = simindex.score_kernel(src[None, :], mat)[0]
    order = np.lexsort((np.asarray(members, dtype=object), -scores))
    return [members[i] for i in order]


def evaluate_corpus(corpus: CorpusHandle, index: SearchIndex, sources, seed: int,
                    distinct_filler_identities: bool = False) -> AccuracyReport:
    """Build and score a lineup per source; accuracy is the success fraction.

    Sources that cannot form a lineup (no probe candidate, too few fillers)
    are skipped and reported, not fatal. Results are ordered by source id.
    """
    results: list[LineupResult] = []
    skipped: list[tuple[ImageId, str]] = []
    for source in sorted(sources):
        try:
            lineup = build_lineup(index, corpus, source, seed,
                                  distinct_filler_identities=distinct_filler_identities)
        except DataError as exc:
            skipped.append((source, str(exc)))
            continue
        results.append(rank_probe(lineup, corpus))
    if not results:
        raise NoEligibleSources("no source was eligible for a lineup")
    accuracy = sum(r.success for r in results) / len(results)
    return AccuracyReport(accuracy=accuracy, results=tuple(results), skipped=tuple(skipped))


def compare_variants(results_before, original: CorpusHandle,
                     restored: CorpusHandle) -> RankChangeReport:
    """Re-rank each already-built lineup against restored member embeddings.

    Lineup membership stays fixed from the before-pass. Member vectors come
    from ``restored``; the source vector always comes from ``original``
    (sources are not restored). A lineup whose member is absent from
    ``restored`` is recorded as failed rather than raising.
    """
    records: list[RankChangeRecord] = []
    failed: list[ImageId] = []
    for result in results_before:
        lineup = result.lineup
        if any(m not in restored for m in lineup.members):
            failed.append(lineup.source)
            continue
        ranked = _rank_members(lineup.source, lineup.members, original, restored)
        records.append(RankChangeRecord(
            lineup_id=lineup.source,
            rank_before=result.probe_rank,
            rank_after=ranked.index(lineup.probe),
        ))
    return RankChangeReport(
        per_lineup=tuple(records),
        histogram=change_histogram(records),
        failed=tuple(failed),
    )


def change_histogram(records) -> dict[int, tuple[int, float]]:
    total = len(records)
    counts = {c: 0 for c in CHANGE_RANGE}
    for rec in records:
        counts[rec.change] += 1
    return {
        c: (n, 100.0 * n / total if total else 0.0)
        for c, n in counts.items()
    }


def summarize_outcomes(report: RankChangeReport, results_before) -> OutcomeTable:
    """Roll a rank-change report up into the improvement/degradation table.

    ``results_before`` anchors the accounting: every before-result must end
    up compared or failed, so the table partitions the total exactly.
    """
    changes = [rec.change for rec in report.per_lineup]
    improvements = sum(1 for c in changes if c > 0)
    degradations = sum(1 for c in changes if c < 0)
    unchanged = sum(1 for c in changes if c == 0)
    conversions = sum(
        1 for rec in report.per_lineup if rec.rank_before > 0 and rec.rank_after == 0
    )
    failed = len(report.failed)
    total = len(report.per_lineup) + failed
    if results_before is not None and len(results_before) != total:
        raise DataError(
            f"outcome accounting mismatch: {len(results_before)} before-results, "
            f"{total} compared+failed"
        )
    pos = [c for c in changes if c > 0]
    neg = [-c for c in changes if c < 0]
    pct = lambda n: 100.0 * n / total if total else 0.0
    return OutcomeTable(
        improvements=improvements,
        degradations=degradations,
        unchanged=unchanged,
        success_conversions=conversions,
        failed_restorations=failed,
        total=total,
        percentages={
            "improvements": pct(improvements),
            "degradations": pct(degradations),
            "unchanged": pct(unchanged),
            "success_conversions": pct(conversions),
            "failed_restorations": pct(failed),
        },
        mean_improvement=sum(pos) / len(pos) if pos else 0.0,
        mean_degradation=sum(neg) / len(neg) if neg else 0.0,
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


def read_lineup_manifest(path) -> list[Lineup]:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"lineup manifest not found: {path}")
    out: list[Lineup] = []
    for where, obj in json_objects(path):
        try:
            out.append(Lineup(
                source=obj["source"],
                fillers=tuple(obj["fillers"]),
                probe=obj["probe"],
                seed=int(obj["seed"]),
            ))
        except (KeyError, TypeError, ValueError) as exc:
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


def write_rank_change_csv(report: RankChangeReport, path) -> Path:
    """Histogram CSV, one row per change value from -5 up to +5."""
    path = Path(path)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["change", "count", "percentage"])
        for change in sorted(report.histogram):
            count, pct = report.histogram[change]
            writer.writerow([f"{change:+d}" if change else "0", count, f"{pct:.1f}"])
    return path
