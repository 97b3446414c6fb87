"""Exact inner-product similarity search over L2-normalized embeddings.

Scores are computed in float64 by a single shared kernel so that the batched
search path and the brute-force reference path produce bitwise-identical
values. The kernel is an einsum contraction rather than a BLAS matmul:
gemm-on-a-batch and gemv-on-a-row can round differently, while the einsum
accumulation for one query row does not depend on how many queries share the
call. That keeps results invariant to batch boundaries.

Candidates are ranked by descending score; exact score ties break toward the
lexicographically smaller image id.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from lineuplab.corpus import CorpusHandle, ImageId, _make_handle
from lineuplab.errors import DataError

INDEX_MAGIC = b"LNUI"
_HEADER = struct.Struct("<IQB")
_U16 = struct.Struct("<H")

DEFAULT_BATCH_SIZE = 256


def l2_normalize(matrix: np.ndarray) -> np.ndarray:
    """Row-normalize to unit L2 length in float64. Zero rows raise."""
    out = np.asarray(matrix, dtype=np.float64)
    squeeze = out.ndim == 1
    if squeeze:
        out = out[None, :]
    norms = np.sqrt(np.einsum("nd,nd->n", out, out))
    if np.any(norms == 0.0):
        bad = int(np.flatnonzero(norms == 0.0)[0])
        raise DataError(f"cannot normalize zero vector (row {bad})")
    out = out / norms[:, None]
    return out[0] if squeeze else out


def score_kernel(queries: np.ndarray, corpus: np.ndarray) -> np.ndarray:
    """Inner products of every query against every corpus row, float64.

    einsum is used deliberately: its accumulation order for one query row is
    identical whether the row arrives alone or inside a batch, which keeps
    search results invariant to batching. Do not replace with ``@``.
    """
    q = np.asarray(queries, dtype=np.float64)
    c = np.asarray(corpus, dtype=np.float64)
    return np.einsum("qd,nd->qn", q, c)


# ---------------------------------------------------------------------------
# Exclusion rules


@dataclass(frozen=True)
class NoExclusion:
    def mask(self, index: "SearchIndex", query_id: ImageId | None) -> np.ndarray | None:
        return None


@dataclass(frozen=True)
class ExcludeSelfId:
    """Drop the candidate whose image id equals the query's own id."""

    def mask(self, index: "SearchIndex", query_id: ImageId | None) -> np.ndarray | None:
        if query_id is None:
            raise DataError("exclude-self-id needs the query's image id")
        out = np.zeros(index.count, dtype=bool)
        if query_id in index.corpus:
            out[index.corpus.row(query_id)] = True
        return out


@dataclass(frozen=True)
class ExcludeIdentity:
    """Drop every candidate bearing the given identity label."""

    identity_id: str

    def mask(self, index: "SearchIndex", query_id: ImageId | None) -> np.ndarray | None:
        return index.identity_mask(self.identity_id)


ExclusionRule = NoExclusion | ExcludeSelfId | ExcludeIdentity


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
    normalized: np.ndarray   # (count, dim) float64, unit rows, read-only
    id_order: np.ndarray     # rank of each row's image id in ascending id sort

    @property
    def count(self) -> int:
        return self.corpus.count

    @property
    def dim(self) -> int:
        return self.corpus.dim

    @property
    def matrix(self) -> np.ndarray:
        return self.normalized

    @property
    def row_ids(self) -> tuple[ImageId, ...]:
        return self.corpus.ids

    @property
    def row_identity(self) -> tuple[str, ...]:
        return self.corpus.identities

    def identity_mask(self, identity_id: str) -> np.ndarray:
        out = np.zeros(self.count, dtype=bool)
        for image_id in self.corpus.identity_index.get(identity_id, ()):
            out[self.corpus.row(image_id)] = True
        return out

    def query_vector(self, image_id: ImageId) -> np.ndarray:
        return self.normalized[self.corpus.row(image_id)]


def _id_rank_order(ids) -> np.ndarray:
    order = np.empty(len(ids), dtype=np.int64)
    order[np.argsort(np.asarray(ids, dtype=object), kind="stable")] = np.arange(len(ids))
    order.flags.writeable = False
    return order


def build_index(corpus: CorpusHandle) -> SearchIndex:
    """Normalize every corpus vector and index it in corpus order."""
    raw = np.asarray(corpus.matrix, dtype=np.float64)
    norms = np.sqrt(np.einsum("nd,nd->n", raw, raw))
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise DataError(f"cannot index zero vector for image {corpus.ids[int(zero[0])]!r}")
    normalized = np.ascontiguousarray(raw / norms[:, None])
    normalized.flags.writeable = False
    return SearchIndex(corpus=corpus, normalized=normalized,
                       id_order=_id_rank_order(corpus.ids))


def _top_k_rows(scores: np.ndarray, id_order: np.ndarray, k: int,
                excluded: np.ndarray | None, query_label) -> np.ndarray:
    """Row indices of the exact top k for one query's score vector.

    Selection partitions on score alone, then resolves the boundary: every
    candidate tied with the k-th score competes by ascending image id. The
    result matches a full sort by (-score, id).
    """
    n = scores.shape[0]
    if excluded is not None:
        scores = scores.copy()
        scores[excluded] = -np.inf
        eligible = n - int(excluded.sum())
    else:
        eligible = n
    if k > eligible:
        raise DataError(
            f"query {query_label}: k={k} exceeds {eligible} eligible candidates"
        )
    if k == n:
        chosen = np.arange(n)
    else:
        part = np.argpartition(scores, n - k)
        chosen = part[n - k:]
        threshold = scores[chosen].min()
        # Pull in every candidate tied with the boundary score, then let the
        # id tie-break decide which of them survive.
        if np.count_nonzero(scores == threshold) > np.count_nonzero(
            scores[chosen] == threshold
        ):
            chosen = np.flatnonzero(scores >= threshold)
    ranked = chosen[np.lexsort((id_order[chosen], -scores[chosen]))]
    return ranked[:k]


def _normalize_queries(queries):
    """Accept [(id, vector), ...], a bare vector, or a 2-D array."""
    if isinstance(queries, np.ndarray):
        arr = queries if queries.ndim == 2 else queries[None, :]
        return [None] * arr.shape[0], np.asarray(arr, dtype=np.float64)
    ids = []
    rows = []
    for entry in queries:
        if isinstance(entry, tuple) and len(entry) == 2:
            qid, vec = entry
        else:
            qid, vec = None, entry
        ids.append(qid)
        rows.append(np.asarray(vec, dtype=np.float64))
    if not rows:
        return [], np.empty((0, 0))
    return ids, np.vstack(rows)


def search_batch(index: SearchIndex, queries, k: int,
                 exclude: ExclusionRule | None = None,
                 batch_size: int = DEFAULT_BATCH_SIZE) -> list[TopKResult]:
    """Exact top-k search for a block of queries.

    ``queries`` is a list of (image_id, unit_vector) pairs; bare vectors or
    a 2-D array work for anonymous queries. Queries are processed in batches
    of ``batch_size``; results are invariant to the batching.
    """
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    if batch_size < 1:
        raise DataError(f"batch size must be positive, got {batch_size}")
    ids, matrix = _normalize_queries(queries)
    if not ids:
        return []
    if matrix.shape[1] != index.dim:
        raise DataError(f"query dimension {matrix.shape[1]} != index dimension {index.dim}")
    rule = exclude if exclude is not None else NoExclusion()
    results: list[TopKResult] = []
    for start in range(0, matrix.shape[0], batch_size):
        stop = min(start + batch_size, matrix.shape[0])
        scores = score_kernel(matrix[start:stop], index.normalized)
        for j in range(stop - start):
            qi = start + j
            label = repr(ids[qi]) if ids[qi] is not None else f"#{qi}"
            excluded = rule.mask(index, ids[qi])
            rows = _top_k_rows(scores[j], index.id_order, k, excluded, label)
            results.append(TopKResult(query_id=ids[qi], hits=_hits(index, rows, scores[j])))
    return results


def brute_force_topk(index: SearchIndex, query: np.ndarray, k: int,
                     exclude: ExclusionRule | None = None,
                     query_id: ImageId | None = None) -> TopKResult:
    """Reference search: full sort over all candidates, no partitioning.

    Shares the score kernel with search_batch but selects by a complete
    lexicographic sort, so agreement between the two checks the partition
    logic rather than a shared shortcut.
    """
    query = np.asarray(query, dtype=np.float64)
    if query.ndim != 1:
        raise DataError("brute force takes a single query vector")
    if k < 1:
        raise DataError(f"k must be positive, got {k}")
    scores = score_kernel(query[None, :], index.normalized)[0]
    rule = exclude if exclude is not None else NoExclusion()
    excluded = rule.mask(index, query_id)
    if excluded is not None:
        scores = scores.copy()
        scores[excluded] = -np.inf
        eligible = index.count - int(excluded.sum())
    else:
        eligible = index.count
    if k > eligible:
        label = repr(query_id) if query_id is not None else "#0"
        raise DataError(f"query {label}: k={k} exceeds {eligible} eligible candidates")
    order = np.lexsort((index.id_order, -scores))
    return TopKResult(query_id=query_id, hits=_hits(index, order[:k], scores))


def _hits(index: SearchIndex, rows: np.ndarray, scores: np.ndarray) -> tuple[SearchHit, ...]:
    ids = index.corpus.ids
    identities = index.corpus.identities
    return tuple(SearchHit(ids[r], identities[r], float(scores[r])) for r in rows)


# ---------------------------------------------------------------------------
# Index persistence: the embedding container layout plus a flags byte whose
# low bit marks vectors as already unit-normalized.


def save_index(index: SearchIndex, path) -> Path:
    path = Path(path)
    parts = [INDEX_MAGIC, _HEADER.pack(index.dim, index.count, 1)]
    for image_id, identity, row in zip(
        index.corpus.ids, index.corpus.identities, index.normalized
    ):
        id_b = image_id.encode("utf-8")
        ident_b = identity.encode("utf-8")
        parts.append(_U16.pack(len(id_b)))
        parts.append(id_b)
        parts.append(_U16.pack(len(ident_b)))
        parts.append(ident_b)
        parts.append(np.ascontiguousarray(row, dtype="<f8").tobytes())
    path.write_bytes(b"".join(parts))
    return path


def load_index(path) -> SearchIndex:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"index file not found: {path}")
    data = path.read_bytes()
    if data[:4] != INDEX_MAGIC:
        raise DataError(f"{path}: not an index file")
    if len(data) < 4 + _HEADER.size:
        raise DataError(f"{path}: truncated header")
    dim, count, flags = _HEADER.unpack_from(data, 4)
    pre_normalized = bool(flags & 1)
    offset = 4 + _HEADER.size
    vec_bytes = 8 * dim
    # Every record holds two length prefixes and its vector.
    if count * (4 + vec_bytes) > len(data) - offset:
        raise DataError(f"{path}: header declares {count} records of dimension {dim}, "
                        f"more than the file holds")
    ids: list[str] = []
    identities: list[str] = []
    matrix = np.empty((count, dim), dtype=np.float64)
    for n in range(count):
        try:
            (id_len,) = _U16.unpack_from(data, offset)
            offset += 2
            image_id = data[offset : offset + id_len].decode("utf-8")
            offset += id_len
            (ident_len,) = _U16.unpack_from(data, offset)
            offset += 2
            identity = data[offset : offset + ident_len].decode("utf-8")
            offset += ident_len
            if len(data) < offset + vec_bytes:
                raise struct.error
            matrix[n] = np.frombuffer(data, dtype="<f8", count=dim, offset=offset)
            offset += vec_bytes
        except (struct.error, UnicodeDecodeError):
            raise DataError(f"{path} record {n}: truncated or malformed") from None
        ids.append(image_id)
        identities.append(identity)
    if offset != len(data):
        raise DataError(f"{path}: trailing bytes after last record")
    handle = _make_handle(ids, identities, matrix.astype(np.float32), str(path))
    if not pre_normalized:
        return build_index(handle)
    normalized = np.ascontiguousarray(matrix)
    normalized.flags.writeable = False
    return SearchIndex(corpus=handle, normalized=normalized,
                       id_order=_id_rank_order(ids))
