"""Exact inner-product similarity search over L2-normalized embeddings.

Scores are float64 and come from one kernel, ``score_kernel``, an einsum
contraction. Its accumulation order for one (query, row) pair is the same
whether the pair is scored alone, inside a batch, or after gathering the
row out of the corpus, so results are invariant to batch boundaries and the
batched search, the brute-force reference and lineup ranking agree bit for
bit. Candidates are ranked by descending score; exact score ties break
toward the lexicographically smaller image id.

``search_batch`` does not run that kernel over the whole corpus. For each
block of queries a BLAS matmul (``@``, after FAISS's exact flat search)
scores every row, excluded rows drop to -inf, and each query keeps every row
whose BLAS score is at least tau - 4 gamma_d |q| |r|, where tau is its k-th
best BLAS score, gamma_d = d u / (1 - d u) and u is the unit roundoff. Only
that shortlist is rescored with ``score_kernel`` and ranked with the id
tie-break. The margin is a bound, not a heuristic: both kernels lie within
gamma_d |q| |r| of the exact product (Higham, *Accuracy and Stability of
Numerical Algorithms*, section 3.1), so they differ by at most
2 gamma_d |q| |r| per row. The k rows at or above tau under BLAS are at or
above tau - 2 gamma_d |q| |r| under einsum, so the k-th best einsum score is
too; a row that reaches it under einsum is within a further 2 gamma_d |q| |r|
of it under BLAS. The bound applies once to tau and once to the row, hence
the factor 4. |r| is 1: index rows come only from ``l2_normalize``, and
gamma is taken for d + 1 roundings, which covers their deviation from unit
length and forming the threshold.
BLAS scores never decide a rank: they round differently from einsum, so
ties and near-ties would change.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lineuplab.corpus import CorpusHandle, ImageId, write_container
from lineuplab.errors import DataError

INDEX_MAGIC = b"LNUI"
_HEADER = struct.Struct("<IQB")  # dim, count, flags (1: unit-normalized)

DEFAULT_BATCH_SIZE = 256
# float64 values (2 MiB) in one block of BLAS scores or gathered lineup rows
BLOCK_VALUES = 2 ** 18
_UNIT_ROUNDOFF = 2.0 ** -53


def l2_normalize(matrix: np.ndarray, ids) -> np.ndarray:
    """Row-normalize a (n, d) matrix to unit L2 length in float64.

    A zero row raises, naming its image id, ``ids[row]``.
    """
    out = np.array(matrix, dtype=np.float64)
    norms = np.sqrt(np.einsum("nd,nd->n", out, out))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"cannot normalize zero vector (image {ids[int(zero[0])]!r})")
    out /= norms[:, None]
    return out


def score_kernel(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Inner products of each query with corpus rows, float64, shape (q, n).

    ``corpus`` is either (n, d), scored against every query, or (q, n, d),
    a separate row set per query. einsum is used deliberately: both forms
    reduce each pair with the same inner loop, whatever the batch or the
    gather, which keeps search and ranking invariant to batching. Use
    ``@`` only to shortlist candidates, never to decide a rank.
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(corpus, dtype=np.float64)
    return np.einsum("qd,qnd->qn" if c.ndim == 3 else "qd,nd->qn", q, c)


# ---------------------------------------------------------------------------
# Exclusion rules
#
# ``mask(index, query_ids)`` gives a (queries, rows) boolean array of the rows
# each query must not return, or None when it excludes nothing.


def _require_ids(query_ids, rule: str) -> None:
    if any(q is None for q in query_ids):
        raise DataError(f"{rule} needs the query's image id")


@dataclass(frozen=True)
class NoExclusion:
    def mask(self, index: "SearchIndex", query_ids) -> np.ndarray | None:
        return None


@dataclass(frozen=True)
class ExcludeIdentity:
    """Drop every candidate bearing the given identity label."""

    identity_id: str

    def mask(self, index: "SearchIndex", query_ids) -> np.ndarray | None:
        members = index.corpus.identity_index.get(self.identity_id)
        if not members:
            return None
        code = index.identity_codes[index.corpus.row(members[0])]
        return np.broadcast_to(index.identity_codes == code, (len(query_ids), index.count))


@dataclass(frozen=True)
class ExcludeOwnIdentity:
    """Drop every candidate sharing the query image's identity label."""

    def mask(self, index: "SearchIndex", query_ids) -> np.ndarray | None:
        _require_ids(query_ids, "exclude-own-identity")
        codes = index.identity_codes[[index.corpus.row(q) for q in query_ids]]
        return index.identity_codes[None, :] == codes[:, None]


ExclusionRule = NoExclusion | ExcludeIdentity | ExcludeOwnIdentity


@dataclass(frozen=True)
class SearchHit:
    image_id: ImageId
    identity_id: str
    score: float


@dataclass(frozen=True)
class TopKResult:
    query_id: ImageId | None
    hits: tuple[SearchHit, ...]


@dataclass(frozen=True)
class SearchIndex:
    """Flat exact index over a normalized copy of the corpus."""

    corpus: CorpusHandle
    matrix: np.ndarray          # (count, dim) float64, unit rows, read-only
    id_order: np.ndarray        # rank of each row's image id in ascending id sort
    identity_codes: np.ndarray  # small integer per row, equal iff the identities are

    @property
    def count(self) -> int:
        return self.corpus.count

    @property
    def dim(self) -> int:
        return self.corpus.dim

    def query_vector(self, image_id: ImageId) -> np.ndarray:
        return self.matrix[self.corpus.row(image_id)]


def build_index(corpus: CorpusHandle) -> SearchIndex:
    """Normalize every corpus vector and index it in corpus order."""
    matrix = l2_normalize(corpus.matrix, corpus.ids)
    ids = corpus.ids
    id_order = np.empty(len(ids), dtype=np.int64)
    id_order[np.argsort(np.asarray(ids, dtype=object), kind="stable")] = np.arange(len(ids))
    code_of = {identity: code for code, identity in enumerate(corpus.identity_index)}
    identity_codes = np.fromiter((code_of[t] for t in corpus.identities), dtype=np.int64,
                                 count=len(ids))
    for array in (matrix, id_order, identity_codes):
        array.flags.writeable = False
    return SearchIndex(corpus=corpus, matrix=matrix, id_order=id_order,
                       identity_codes=identity_codes)


def _shortlist(approx: np.ndarray, k: int, dim: int, scale: float) -> np.ndarray:
    """Rows that can still be in one query's exact top k, ascending.

    ``approx`` holds the query's BLAS scores, excluded rows at -inf, with at
    least k finite entries; ``scale`` is |q| (rows are unit). Keeps every
    row within 4 gamma scale of the k-th best score (see the module
    docstring).
    """
    n = approx.shape[0]
    steps = (dim + 1) * _UNIT_ROUNDOFF
    gamma = steps / (1.0 - steps)
    tau = np.partition(approx, n - k)[n - k]
    return np.flatnonzero(approx >= tau - 4.0 * gamma * scale)


def _query_label(query_id, position: int) -> str:
    return repr(query_id) if query_id is not None else f"#{position}"


def _normalize_queries(queries, dim: int):
    """Query ids and float64 rows from [(id, vector), ...] or a 2-D array;
    the rows are a 2-D array or a list of 1-D arrays."""
    if isinstance(queries, np.ndarray):
        rows = np.asarray(queries, dtype=np.float64)
        if rows.ndim != 2 or (rows.shape[0] and rows.shape[1] != dim):
            raise DataError(f"query array of shape {rows.shape} is not (queries, index "
                            f"dimension {dim})")
        return [None] * rows.shape[0], rows
    ids, rows = [], []
    for entry in queries:
        if not (isinstance(entry, tuple) and len(entry) == 2):
            raise DataError(f"query #{len(ids)}: expected an (image_id, vector) pair")
        qid, vec = entry
        vec = np.asarray(vec, dtype=np.float64)
        if vec.shape != (dim,):
            raise DataError(f"query {_query_label(qid, len(ids))}: shape {vec.shape} "
                            f"does not match index dimension {dim}")
        ids.append(qid)
        rows.append(vec)
    return ids, rows


def _query_norms(block: np.ndarray, ids, start: int) -> np.ndarray:
    """|q| of each query row. Raises naming the first query with a NaN or
    infinite component, or a norm too large for float64: the shortlist
    margin cannot bound the scores of such a query."""
    norms = np.sqrt(np.einsum("qd,qd->q", block, block))
    bad = np.flatnonzero(~np.isfinite(norms))
    if bad.size:
        j = int(bad[0])
        raise DataError(f"query {_query_label(ids[j], start + j)}: non-finite components or norm")
    return norms


def search_batch(index: SearchIndex, queries, k: int,
                 exclude: ExclusionRule = NoExclusion(),
                 batch_size: int = DEFAULT_BATCH_SIZE) -> list[TopKResult]:
    """Exact top-k search for a block of queries.

    ``queries`` takes one of two forms: a list of (image_id, vector) pairs,
    or a (queries, dim) array of anonymous queries, whose results carry
    ``query_id`` None. Any other list entry raises, naming its position as
    ``#<position>``. Queries are processed in blocks of at most
    ``batch_size``, fewer when the corpus is large (each block's BLAS scores
    fill at most ``BLOCK_VALUES``); results are invariant to the blocking. A
    query with a NaN or infinite component, or a norm that overflows
    float64, raises.
    """
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    if batch_size < 1:
        raise DataError(f"batch size must be positive, got {batch_size}")
    ids, rows = _normalize_queries(queries, index.dim)
    if not ids:
        return []
    corpus = index.matrix
    step = max(1, min(batch_size, BLOCK_VALUES // index.count, len(ids)))
    buffer = np.empty((step, index.count))  # one block's BLAS scores, reused
    results: list[TopKResult] = []
    for start in range(0, len(ids), step):
        block_ids = ids[start:start + step]
        block = np.array(rows[start:start + step], dtype=np.float64)
        norms = _query_norms(block, block_ids, start)
        approx = np.matmul(block, corpus.T, out=buffer[:len(block_ids)])
        excluded = exclude.mask(index, block_ids)
        eligible = np.full(len(block_ids), index.count)
        if excluded is not None:
            approx[excluded] = -np.inf
            eligible -= excluded.sum(axis=1)
        short = np.flatnonzero(eligible < k)
        if short.size:
            j = int(short[0])
            raise DataError(f"query {_query_label(block_ids[j], start + j)}: "
                            f"k={k} exceeds {eligible[j]} eligible candidates")
        for j, qid in enumerate(block_ids):
            cand = _shortlist(approx[j], k, index.dim, norms[j])
            scores = score_kernel(block[j:j + 1], corpus[cand])[0]
            top = np.lexsort((index.id_order[cand], -scores))[:k]
            results.append(TopKResult(query_id=qid, hits=_hits(index, cand[top], scores[top])))
    return results


def brute_force_topk(index: SearchIndex, query: np.ndarray, k: int,
                     exclude: ExclusionRule = NoExclusion(),
                     query_id: ImageId | None = None) -> TopKResult:
    """Reference search: scores every row and sorts them all by (-score, id).

    It shares the score kernel and the sort rule with search_batch but skips
    the shortlist, so agreement between the two checks the shortlist. The
    sort rule itself is checked against ``naive_search`` in the test
    oracles.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise DataError("brute force takes a single query vector")
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    _query_norms(query[None, :], [query_id], 0)
    scores = score_kernel(query[None, :], index.matrix)[0]
    excluded = exclude.mask(index, [query_id])
    if excluded is not None:
        scores = scores.copy()
        scores[excluded[0]] = -np.inf
        eligible = index.count - int(excluded[0].sum())
    else:
        eligible = index.count
    if k > eligible:
        raise DataError(f"query {_query_label(query_id, 0)}: k={k} exceeds {eligible} "
                        f"eligible candidates")
    top = np.lexsort((index.id_order, -scores))[:k]
    return TopKResult(query_id=query_id, hits=_hits(index, top, scores[top]))


def _hits(index: SearchIndex, rows: np.ndarray, scores: np.ndarray) -> tuple[SearchHit, ...]:
    ids = index.corpus.ids
    identities = index.corpus.identities
    return tuple(SearchHit(ids[r], identities[r], float(s)) for r, s in zip(rows, scores))


# ---------------------------------------------------------------------------
# Index persistence


def save_index(index: SearchIndex, path) -> Path:
    return write_container(path, INDEX_MAGIC, _HEADER.pack(index.dim, index.count, 1),
                           index.corpus.ids, index.corpus.identities, index.matrix, "<f8")
