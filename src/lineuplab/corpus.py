"""Corpus ingestion, validation, curation, and persistence.

The canonical data model: embeddings arrive as JSONL or as the LNUP binary
container, landmarks as JSONL sidecars, and images as 8-bit binary PGM (P5).
A loaded corpus is immutable and safe for concurrent reads.

File formats
------------
Embedding JSONL: one object per line,
    {"image_id": str, "identity_id": str, "vector": [float, ...]}

Binary containers: the embedding file ("LNUP", ``embeddings.bin`` and
``curated_embeddings.bin``) and the search index ("LNUI", ``search.index``)
share one layout, written and read only by ``write_container`` and
``read_container``. Each file is 4 magic bytes, a little-endian header
starting with u32 dim and u64 count, then per record a u16 id length, the id
bytes (UTF-8), a u16 identity length, the identity bytes, and dim
little-endian floats.

    format  header                   vectors
    LNUP    <IQ  dim, count          float32 (<f4)
    LNUI    <IQB dim, count, flags   float64 (<f8); flags is 1: the
                                     vectors are unit-normalized. No other
                                     value loads.

Round-trips are bit-exact.

Landmark JSONL: {"image_id": str, "points": [[x, y] x 68], "face_count": int}
with ``face_count`` a JSON integer >= 1, 1 when absent.

Image: binary PGM (P5), maxval 255. The file for an image id is expected at
``<directory>/<image_id>.pgm``; an id that could name a file outside the
directory is rejected.
"""

from __future__ import annotations

import json
import struct
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from lineuplab.config import CurationConfig
from lineuplab.errors import DataError, open_text

ImageId = str

BINARY_MAGIC = b"LNUP"
_HEADER = struct.Struct("<IQ")
_U16 = struct.Struct("<H")

LANDMARK_POINT_COUNT = 68

# Removal reason codes emitted by curate(), in precedence order.
NO_IMAGE = "NO_IMAGE"
NO_FACE = "NO_FACE"
TOO_DARK = "TOO_DARK"
TOO_BRIGHT = "TOO_BRIGHT"
TOO_BLURRY = "TOO_BLURRY"


@dataclass(frozen=True)
class ImageGray:
    """8-bit grayscale image, row-major. Both sides must fit a 3x3 kernel."""

    width: int
    height: int
    pixels: np.ndarray  # (height, width) uint8

    def __post_init__(self):
        if self.width < 3 or self.height < 3:
            raise DataError(f"image must be at least 3x3, got {self.width}x{self.height}")
        if self.pixels.shape != (self.height, self.width):
            raise DataError("pixel grid does not match declared dimensions")
        if self.pixels.dtype != np.uint8:
            raise DataError("pixels must be 8-bit")


@dataclass(frozen=True)
class LandmarkSet:
    """68-point landmark annotation for one image.

    ``face_count`` records how many faces the upstream detector reported; the
    stored points always describe the first detected face.
    """

    image_id: ImageId
    points: np.ndarray  # (68, 2) float64
    face_count: int


LandmarkTable = dict[ImageId, LandmarkSet]


@dataclass(frozen=True)
class CorpusHandle:
    """Immutable embedding corpus: row order is ingestion order."""

    ids: tuple[ImageId, ...]
    identities: tuple[str, ...]
    matrix: np.ndarray  # (count, dim) float32, read-only
    identity_index: dict[str, list[ImageId]]
    source: str
    _row_of: dict[ImageId, int] = field(repr=False, default_factory=dict)

    @property
    def count(self) -> int:
        return len(self.ids)

    @property
    def dim(self) -> int:
        return self.matrix.shape[1]

    def __contains__(self, image_id: ImageId) -> bool:
        return image_id in self._row_of

    def row(self, image_id: ImageId) -> int:
        try:
            return self._row_of[image_id]
        except KeyError:
            raise DataError(f"image id {image_id!r} not in corpus") from None

    def vector(self, image_id: ImageId) -> np.ndarray:
        return self.matrix[self.row(image_id)]

    def identity_of(self, image_id: ImageId) -> str:
        return self.identities[self.row(image_id)]

    def subset(self, keep_ids) -> "CorpusHandle":
        """New handle restricted to ``keep_ids``, preserving corpus order."""
        keep = set(keep_ids)
        rows = [i for i, image_id in enumerate(self.ids) if image_id in keep]
        missing = keep - {self.ids[i] for i in rows}
        if missing:
            raise DataError(f"subset ids not in corpus: {sorted(missing)[:5]}")
        return _make_handle(
            [self.ids[i] for i in rows],
            [self.identities[i] for i in rows],
            self.matrix[rows].copy(),
            self.source,
        )


def _make_handle(ids, identities, matrix, source: str) -> CorpusHandle:
    matrix = np.ascontiguousarray(matrix, dtype=np.float32)
    matrix.flags.writeable = False
    identity_index: dict[str, list[ImageId]] = {}
    row_of: dict[ImageId, int] = {}
    for i, (image_id, identity) in enumerate(zip(ids, identities)):
        identity_index.setdefault(identity, []).append(image_id)
        row_of[image_id] = i
    return CorpusHandle(tuple(ids), tuple(identities), matrix, identity_index, source, row_of)


def _validate_block(ids, matrix: np.ndarray, label) -> None:
    """Reject empty ids, duplicate ids and non-finite rows over a whole
    corpus at once; ``label(n)`` names record n, the first bad one."""
    if "" in ids:
        raise DataError(f"{label(ids.index(''))}: empty image_id")
    if len(set(ids)) != len(ids):
        seen: set[str] = set()
        for n, image_id in enumerate(ids):
            if image_id in seen:
                raise DataError(f"{label(n)}: duplicate image_id {image_id!r}")
            seen.add(image_id)
    bad = np.flatnonzero(~np.isfinite(matrix).all(axis=1))
    if bad.size:
        n = int(bad[0])
        raise DataError(f"{label(n)}: record {ids[n]!r} has non-finite components")


def ingest_embeddings(path) -> CorpusHandle:
    """Load an embedding corpus from JSONL or the LNUP binary container.

    The format is sniffed from the magic bytes. Duplicate image ids,
    non-finite components, and dimension drift all raise DataError.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"embedding file not found: {path}")
    with open(path, "rb") as fh:
        magic = fh.read(4)
    if magic == BINARY_MAGIC:
        _, ids, identities, matrix = read_container(path, BINARY_MAGIC, _HEADER, "<f4")
    else:
        ids, identities, matrix = _read_jsonl(path)
    return _make_handle(ids, identities, matrix, str(path))


def json_objects(path: Path):
    """(location, object) for each non-blank line of a JSONL file."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            where = f"{path}:{lineno}"
            try:
                obj = json.loads(line)
            except json.JSONDecodeError as exc:
                raise DataError(f"{where}: malformed JSON ({exc.msg})") from None
            if not isinstance(obj, dict):
                raise DataError(f"{where}: expected an object per line")
            yield where, obj


def _read_jsonl(path: Path):
    ids: list[str] = []
    identities: list[str] = []
    vectors: list[np.ndarray] = []
    wheres: list[str] = []
    dim: int | None = None
    for where, obj in json_objects(path):
        try:
            image_id = obj["image_id"]
            identity = obj["identity_id"]
            raw = obj["vector"]
        except KeyError as exc:
            raise DataError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(image_id, str) or not isinstance(identity, str):
            raise DataError(f"{where}: image_id and identity_id must be strings")
        try:
            vec = np.asarray(raw, dtype=np.float32)
        except (TypeError, ValueError):
            raise DataError(f"{where}: vector is not a numeric array") from None
        if vec.ndim != 1 or vec.size == 0:
            raise DataError(f"{where}: record {image_id!r} has no vector components")
        if dim is None:
            dim = vec.size
        elif vec.size != dim:
            raise DataError(
                f"{where}: record {image_id!r} has dimension {vec.size}, expected {dim}"
            )
        ids.append(image_id)
        identities.append(identity)
        vectors.append(vec)
        wheres.append(where)
    if not ids:
        raise DataError(f"{path}: no records")
    matrix = np.vstack(vectors)
    _validate_block(ids, matrix, lambda n: wheres[n])
    return ids, identities, matrix


def write_container(path, magic: bytes, header_bytes: bytes, ids, identities,
                    matrix, dtype) -> Path:
    """Write a binary container: ``magic``, the packed header, then one
    record per row of ``matrix``, its vector stored as ``dtype``.

    Records stream straight to the file, so no second copy of the vectors
    is held; a record that cannot be stored removes the partial file.
    """
    path = Path(path)
    try:
        with open(path, "wb") as fh:
            fh.write(magic + header_bytes)
            for n, (image_id, identity, row) in enumerate(
                zip(ids, identities, np.ascontiguousarray(matrix, dtype=dtype))
            ):
                id_b = image_id.encode("utf-8")
                ident_b = identity.encode("utf-8")
                if len(id_b) > 0xFFFF or len(ident_b) > 0xFFFF:
                    raise DataError(f"record {n} ({image_id[:40]!r}): id or identity longer "
                                    f"than 65535 UTF-8 bytes")
                fh.write(_U16.pack(len(id_b)) + id_b + _U16.pack(len(ident_b)) + ident_b)
                fh.write(row)
    except BaseException:
        path.unlink(missing_ok=True)
        raise
    return path


def read_container(path, magic: bytes, header: struct.Struct, dtype):
    """Parse a binary container into (header fields, ids, identities, matrix).

    The header must start with dim and count. The loop reads only the two
    length-prefixed strings of each record and gathers the vectors into one
    buffer, which becomes the (count, dim) ``dtype`` matrix.
    """
    path = Path(path)
    data = path.read_bytes()
    if data[:4] != magic:
        raise DataError(f"{path}: not a {magic.decode('ascii')} container")
    if len(data) < 4 + header.size:
        raise DataError(f"{path}: truncated header")
    fields = header.unpack_from(data, 4)
    dim, count = fields[:2]
    if dim == 0:
        raise DataError(f"{path}: header declares dimension 0")
    offset = 4 + header.size
    vec_bytes = np.dtype(dtype).itemsize * dim
    # Every record holds two length prefixes and its vector.
    if count * (4 + vec_bytes) > len(data) - offset:
        raise DataError(f"{path}: header declares {count} records of dimension {dim}, "
                        f"more than the file holds")
    ids: list[str] = []
    identities: list[str] = []
    block = np.empty(count * vec_bytes, dtype=np.uint8)
    src, dst = memoryview(data), memoryview(block)
    for n in range(count):
        try:
            (id_len,) = _U16.unpack_from(data, offset)
            start, offset = offset + 2, offset + 2 + id_len
            ids.append(data[start:offset].decode("utf-8"))
            (ident_len,) = _U16.unpack_from(data, offset)
            start, offset = offset + 2, offset + 2 + ident_len
            if offset + vec_bytes > len(data):
                raise struct.error
            identities.append(data[start:offset].decode("utf-8"))
        except (struct.error, UnicodeDecodeError):
            raise DataError(f"{path} record {n}: truncated or malformed") from None
        dst[n * vec_bytes : (n + 1) * vec_bytes] = src[offset : offset + vec_bytes]
        offset += vec_bytes
    if offset != len(data):
        raise DataError(f"{path}: {len(data) - offset} trailing bytes after last record")
    if count == 0:
        raise DataError(f"{path}: no records")
    # Free the file bytes before the checks allocate their temporaries, so
    # the peak stays at the file plus one vector block.
    del src, data
    matrix = np.frombuffer(block, dtype=dtype).reshape(count, dim)
    _validate_block(ids, matrix, lambda n: f"{path} record {n}")
    return fields, ids, identities, matrix


def write_embeddings(corpus: CorpusHandle, path, fmt: str = "binary") -> Path:
    """Persist a corpus as the LNUP binary container or as JSONL."""
    path = Path(path)
    if fmt == "binary":
        write_container(path, BINARY_MAGIC, _HEADER.pack(corpus.dim, corpus.count),
                        corpus.ids, corpus.identities, corpus.matrix, "<f4")
    elif fmt == "jsonl":
        with open(path, "w", encoding="utf-8") as fh:
            for image_id, identity, row in zip(corpus.ids, corpus.identities, corpus.matrix):
                fh.write(json.dumps({
                    "image_id": image_id,
                    "identity_id": identity,
                    "vector": [float(x) for x in row],
                }) + "\n")
    else:
        raise ValueError(f"unknown format {fmt!r}")
    return path


def ingest_landmarks(path) -> LandmarkTable:
    """Load landmark sidecars. Repeated ids keep the first point set and bump
    the face count; images absent from the file count as "no face detected".
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"landmark file not found: {path}")
    table: LandmarkTable = {}
    entries_seen: dict[str, int] = {}
    for where, obj in json_objects(path):
        try:
            image_id = obj["image_id"]
            raw_points = obj["points"]
        except KeyError as exc:
            raise DataError(f"{where}: missing field {exc.args[0]!r}") from None
        if not isinstance(image_id, str):
            raise DataError(f"{where}: image_id must be a string")
        declared = obj.get("face_count", 1)
        if type(declared) is not int or declared < 1:
            raise DataError(f"{where}: face_count must be an integer >= 1, got {declared!r}")
        try:
            points = np.asarray(raw_points, dtype=np.float64)
        except (TypeError, ValueError):
            raise DataError(f"{where}: points are not a numeric array") from None
        if points.shape != (LANDMARK_POINT_COUNT, 2):
            raise DataError(
                f"{where}: image {image_id!r} has {points.shape[0] if points.ndim else 0} "
                f"points, expected {LANDMARK_POINT_COUNT}"
            )
        if not np.all(np.isfinite(points)):
            raise DataError(f"{where}: image {image_id!r} has non-finite coordinates")
        entries_seen[image_id] = entries_seen.get(image_id, 0) + 1
        if image_id in table:
            prev = table[image_id]
            count = max(prev.face_count, declared, entries_seen[image_id])
            table[image_id] = LandmarkSet(image_id, prev.points, count)
        else:
            points.flags.writeable = False
            table[image_id] = LandmarkSet(image_id, points, declared)
    return table


def load_grayscale_image(path) -> ImageGray:
    """Read a binary PGM (P5, maxval 255) file."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"image file not found: {path}")
    data = path.read_bytes()
    if data[:2] != b"P5":
        raise DataError(f"{path}: unsupported format (want binary PGM 'P5')")
    pos = 2
    fields: list[int] = []
    while len(fields) < 3:
        if pos >= len(data):
            raise DataError(f"{path}: truncated header")
        c = data[pos : pos + 1]
        if c.isspace():
            pos += 1
        elif c == b"#":
            while pos < len(data) and data[pos : pos + 1] not in (b"\n", b"\r"):
                pos += 1
        elif c.isdigit():
            start = pos
            while pos < len(data) and data[pos : pos + 1].isdigit():
                pos += 1
            fields.append(int(data[start:pos]))
        else:
            raise DataError(f"{path}: malformed header")
    width, height, maxval = fields
    if maxval != 255:
        raise DataError(f"{path}: maxval {maxval} unsupported (want 255)")
    pos += 1  # single whitespace byte after maxval
    expected = width * height
    payload = data[pos:]
    if len(payload) < expected:
        raise DataError(f"{path}: truncated payload ({len(payload)} of {expected} bytes)")
    if len(payload) > expected:
        raise DataError(f"{path}: {len(payload) - expected} trailing bytes")
    pixels = np.frombuffer(payload, dtype=np.uint8).reshape(height, width).copy()
    pixels.flags.writeable = False
    return ImageGray(width=width, height=height, pixels=pixels)


def write_pgm(img: ImageGray, path) -> Path:
    path = Path(path)
    header = f"P5\n{img.width} {img.height}\n255\n".encode("ascii")
    path.write_bytes(header + img.pixels.tobytes())
    return path


def image_path(directory, image_id: ImageId) -> Path:
    """``<directory>/<image_id>.pgm``. An id that is empty, ``.`` or ``..``,
    or holds a path separator or NUL, could name a file outside
    ``directory`` and is a DataError."""
    if image_id in ("", ".", "..") or any(c in image_id for c in "/\\\0"):
        raise DataError(f"image id {image_id!r} cannot name a file in {directory}")
    return Path(directory) / f"{image_id}.pgm"


@dataclass(frozen=True)
class CurationReport:
    removed: tuple[tuple[ImageId, str], ...]
    retained: CorpusHandle
    counts: dict[str, int]


def curate(corpus: CorpusHandle, landmarks: LandmarkTable, images_dir,
           rules: CurationConfig) -> CurationReport:
    """Apply mechanical curation rules and return survivors plus removals.

    Each removed image carries exactly one reason code, checked in order:
    NO_IMAGE (file missing), NO_FACE (no landmark entry), TOO_DARK,
    TOO_BRIGHT, TOO_BLURRY. Curation is idempotent: re-curating the
    survivors removes nothing.
    """
    images_dir = Path(images_dir)
    removed: list[tuple[ImageId, str]] = []
    kept: list[ImageId] = []
    for image_id in corpus.ids:
        reason = _curation_reason(image_id, landmarks, images_dir, rules)
        if reason is None:
            kept.append(image_id)
        else:
            removed.append((image_id, reason))
    counts: dict[str, int] = {}
    for _, reason in removed:
        counts[reason] = counts.get(reason, 0) + 1
    return CurationReport(tuple(removed), corpus.subset(kept), counts)


def _curation_reason(image_id, landmarks, images_dir, rules) -> str | None:
    from lineuplab import filters  # only curation needs the image kernels

    path = image_path(images_dir, image_id)
    if not path.is_file():
        return NO_IMAGE
    if image_id not in landmarks:
        return NO_FACE
    img = load_grayscale_image(path)
    pixels = img.pixels.astype(np.float64)
    mean = float(pixels.mean())
    if mean < rules.dark_threshold:
        return TOO_DARK
    if mean > rules.bright_threshold:
        return TOO_BRIGHT
    if filters.laplacian_variance(pixels) < rules.blur_threshold:
        return TOO_BLURRY
    return None
