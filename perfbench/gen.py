"""Seeded input generators for the three benchmark workloads.

Each generator writes the files the ``lineuplab`` CLI reads (embedding JSONL,
PGM images, landmark JSONL, feature CSVs) and returns the in-memory truth the
output checks compare against. The same seed always produces byte-identical
files. Nothing here imports ``lineuplab``: the inputs are plain files, written
to the formats the README documents.
"""

from __future__ import annotations

import json
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

DIM = 512

# Classical feature column names, in the order the feature CSV header uses.
CLASSICAL_NAMES = (
    "light_mean", "light_std", "light_entropy",
    "light_dark_ratio", "light_bright_ratio", "light_laplacian_var",
    "qual_local_contrast", "qual_global_contrast", "qual_dynamic_range",
    "qual_entropy", "qual_michelson", "qual_rms_contrast", "qual_std",
    "noise_sigma", "noise_snr_db", "noise_nsr",
    "noise_residual_std", "noise_residual_absmean",
    "sharp_grad_mean", "sharp_grad_std", "sharp_laplacian_var",
    "sharp_highfreq_energy", "sharp_log_magnitude", "sharp_laplacian_var_dup",
    "tex_local_variance", "tex_edge_density",
    "geo_face_detected", "geo_face_count", "geo_area_ratio",
    "geo_offset_x", "geo_offset_y",
    "geo_ear_left", "geo_ear_right", "geo_ear_mean", "geo_ear_diff",
    "geo_mar", "geo_symmetry", "geo_roll", "geo_yaw", "geo_pitch",
    "geo_bbox_w_ratio", "geo_bbox_h_ratio",
)
FEATURE_WIDTH = DIM + len(CLASSICAL_NAMES)

# search_corpus
SEARCH_IMAGES = 1500
TIE_GROUPS = 3          # groups of TIE_GROUP_SIZE identical vectors across identities
TIE_GROUP_SIZE = 7      # one more than the filler count, so ties sit on the top-5 boundary

# image_chain
CHAIN_IMAGES = 48
CHAIN_SIZES = (112, 250)
WEAK_CHAIN_IMAGES = 4   # long serpentine chains of weak edges
CURATED_OUT = {"NO_FACE": 2, "TOO_DARK": 2, "TOO_BLURRY": 2}
HOOK_TEMPLATE = "cp {input} {output}"

# train_predict
TRAIN_ROWS = 300
PREDICT_UNIQUE_ROWS = 750
PREDICT_REPEATS = 4
FAILURE_FRACTION = 0.3
SIGNAL_COLUMNS = (3, 200, DIM + 13, DIM + 25)  # emb_3, emb_200, noise_sigma, tex_edge_density


@dataclass
class Inputs:
    """What one generator wrote, plus the truth the checks need."""

    files: dict[str, Path]
    lineup_seed: int = 0
    ids: list[str] = field(default_factory=list)
    identities: list[str] = field(default_factory=list)
    original: np.ndarray | None = None   # float32, what the program parses
    restored: np.ndarray | None = None
    expected_removed: dict[str, str] = field(default_factory=dict)
    tie_sources: list[str] = field(default_factory=list)
    train_rows: int = 0


def rng_for(workload: str, seed: int) -> np.random.Generator:
    return np.random.default_rng([seed, zlib.crc32(workload.encode("ascii"))])


def _identity_sizes(rng, total: int, low: int, high: int) -> list[int]:
    sizes = []
    while sum(sizes) < total:
        sizes.append(int(rng.integers(low, high + 1)))
    sizes[-1] -= sum(sizes) - total
    if sizes[-1] == 0:
        sizes.pop()
    return sizes


def _clustered_vectors(rng, sizes, hard_count: int, easy_noise: float, hard_noise: float):
    """Identity centres plus per-image noise, rounded to 4 decimals.

    Exactly ``hard_count`` identities get ``hard_noise``: their images sit
    farther from each other than from the nearest strangers, so their
    lineups fail. The restored variant pulls hard images toward their centre
    and jitters easy ones slightly.
    """
    n_ident = len(sizes)
    hard = np.zeros(n_ident, dtype=bool)
    hard[rng.choice(n_ident, size=hard_count, replace=False)] = True
    centres = rng.normal(size=(n_ident, DIM))
    owner = np.repeat(np.arange(n_ident), sizes)
    noise = rng.normal(size=(owner.size, DIM))
    scale = np.where(hard[owner], hard_noise, easy_noise)[:, None]
    original = centres[owner] + scale * noise
    restored = np.where(
        hard[owner][:, None],
        centres[owner] + 0.3 * scale * noise,
        original + 0.1 * rng.normal(size=original.shape),
    )
    return owner, hard, np.round(original, 4), np.round(restored, 4)


def _write_jsonl(path: Path, ids, identities, matrix) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for image_id, identity, row in zip(ids, identities, matrix.tolist()):
            fh.write(json.dumps({"image_id": image_id, "identity_id": identity,
                                 "vector": row}) + "\n")


def _corpus(rng, total, low, high, hard_fraction, easy_noise, hard_noise, prefix):
    sizes = _identity_sizes(rng, total, low, high)
    hard_count = int(round(hard_fraction * len(sizes)))
    owner, hard, original, restored = _clustered_vectors(
        rng, sizes, hard_count, easy_noise, hard_noise)
    ids = [f"{prefix}{i:05d}" for i in range(owner.size)]
    identities = [f"person{k:04d}" for k in owner]
    return sizes, owner, hard, ids, identities, original, restored


def search_corpus(seed: int, dest: Path) -> Inputs:
    """About 1,500 x 512 embeddings in identity groups of 1-8 images.

    Singletons cannot form a lineup and are skipped. TIE_GROUPS groups of
    identical vectors, each spread over TIE_GROUP_SIZE identities, put exact
    score ties on the five-filler boundary, where the ascending-id rule
    decides. Records are shuffled so corpus order differs from id order.
    """
    rng = rng_for("search_corpus", seed)
    sizes, owner, hard, ids, identities, original, restored = _corpus(
        rng, SEARCH_IMAGES, 1, 8, 0.25, 0.5, 3.5, "img")
    first_row = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    paired = [k for k in np.flatnonzero(np.asarray(sizes) >= 2) if not hard[k]]
    chosen = rng.choice(paired, size=TIE_GROUPS * TIE_GROUP_SIZE, replace=False)
    tie_sources = []
    for group in chosen.reshape(TIE_GROUPS, TIE_GROUP_SIZE):
        rows = first_row[group]
        original[rows] = original[rows[0]]
        restored[rows] = restored[rows[0]]
        tie_sources.extend(ids[r] for r in rows)
        tie_sources.append(ids[rows[0] + 1])  # an identity-mate of the shared vector
    order = rng.permutation(len(ids))
    ids = [ids[i] for i in order]
    identities = [identities[i] for i in order]
    original, restored = original[order], restored[order]
    dest.mkdir(parents=True, exist_ok=True)
    files = {"corpus": dest / "corpus.jsonl", "restored": dest / "restored.jsonl"}
    _write_jsonl(files["corpus"], ids, identities, original)
    _write_jsonl(files["restored"], ids, identities, restored)
    return Inputs(files=files, lineup_seed=int(rng.integers(1 << 31)), ids=ids,
                  identities=identities, original=original.astype(np.float32),
                  restored=restored.astype(np.float32), tie_sources=sorted(tie_sources))


# ---------------------------------------------------------------------------
# Images


def _pgm_bytes(pixels: np.ndarray) -> bytes:
    h, w = pixels.shape
    return f"P5\n{w} {h}\n255\n".encode("ascii") + pixels.astype(np.uint8).tobytes()


def _textured(rng, n: int, noise: float) -> np.ndarray:
    """Shaded background, six overlapping discs inside the frame, noise.

    Every image gets the same six radii and six contrasts in a random
    pairing and at random places, so the amount of edge per image, and with
    it the Canny cost, varies little from seed to seed.
    """
    y, x = np.mgrid[0:n, 0:n].astype(np.float64)
    field = 100.0 + 40.0 * x / n + 20.0 * y / n
    radii = rng.permutation(np.linspace(n / 10, n / 4, 6))
    contrasts = rng.permutation(np.array([-60.0, -40.0, -20.0, 20.0, 40.0, 60.0]))
    for r, contrast in zip(radii, contrasts):
        cx, cy = rng.uniform(r, n - r, size=2)
        field += np.where((x - cx) ** 2 + (y - cy) ** 2 < r * r, contrast, 0.0)
    field += rng.normal(0.0, noise, size=field.shape)
    return np.clip(np.round(field), 0, 255)


def _weak_chain(rng, n: int) -> np.ndarray:
    """One serpentine stripe whose borders are weak edges (gradient ~100),
    joined to a strong disc at its start: hysteresis must follow the whole
    stripe from that one seed."""
    field = np.full((n, n), 100.0)
    step = 8
    rows = list(range(4, n - 6, step))
    for i, r in enumerate(rows):
        field[r : r + 3, 4 : n - 4] = 125.0
        if i + 1 < len(rows):
            c = n - 7 if i % 2 == 0 else 4
            field[r : rows[i + 1] + 3, c : c + 3] = 125.0
    y, x = np.mgrid[0:n, 0:n]
    field[(x - 5) ** 2 + (y - 5) ** 2 <= 9] = 200.0
    field += rng.normal(0.0, 3.0, size=field.shape)
    return np.clip(np.round(field), 0, 255)


def _landmarks(rng, image_id: str, n: int, faces: int) -> str:
    points = np.round(rng.uniform(0.25 * n, 0.75 * n, size=(68, 2)), 2)
    return json.dumps({"image_id": image_id, "points": points.tolist(), "face_count": faces})


def image_chain(seed: int, dest: Path) -> Inputs:
    """48 PGM images (half 112 px, half 250 px) of 16 identities, with
    landmarks, embeddings and a restored corpus.

    Most images are textured and noisy; the images of the three hard
    identities are noisier, so image features carry some signal about
    lineup failure. One image from each of 10 easy identities is special:
    four hold long chains of weak edges and six are dark, blurry or have no
    landmarks, so curation must remove them. Every group is split evenly
    between the two sizes, which keeps the feature cost alike across seeds.
    """
    rng = rng_for("image_chain", seed)
    sizes, owner, hard, ids, identities, original, restored = _corpus(
        rng, CHAIN_IMAGES, 3, 3, 0.2, 0.5, 4.0, "face")
    n = len(ids)
    kinds = np.array(["textured"] * n, dtype=object)
    special = ["weak_chain"] * WEAK_CHAIN_IMAGES + [
        kind for kind, count in CURATED_OUT.items() for _ in range(count)]
    chosen = rng.choice(np.flatnonzero(~hard), size=len(special), replace=False)
    first_row = np.concatenate([[0], np.cumsum(sizes)[:-1]])
    kinds[first_row[chosen] + rng.integers(0, 3, size=len(special))] = special
    group = np.where(kinds == "textured", np.where(hard[owner], "hard", "easy"), kinds)
    side = np.empty(n, dtype=np.int64)
    for name in sorted(set(group)):
        rows = np.flatnonzero(group == name)
        side[rows] = np.array(CHAIN_SIZES)[rng.permutation(np.arange(rows.size) % 2)]
    images = dest / "images"
    images.mkdir(parents=True, exist_ok=True)
    landmark_lines = []
    expected_removed = {}
    for i, image_id in enumerate(ids):
        size, kind = int(side[i]), kinds[i]
        if kind == "weak_chain":
            pixels = _weak_chain(rng, size)
        elif kind == "TOO_DARK":
            pixels = np.clip(np.round(rng.normal(15.0, 4.0, size=(size, size))), 0, 255)
        elif kind == "TOO_BLURRY":
            pixels = np.round(np.linspace(110.0, 140.0, size)[None, :].repeat(size, axis=0))
        else:
            pixels = _textured(rng, size, 16.0 if hard[owner[i]] else 12.0)
        (images / f"{image_id}.pgm").write_bytes(_pgm_bytes(pixels))
        if kind in CURATED_OUT:
            expected_removed[image_id] = kind
        if kind != "NO_FACE":
            landmark_lines.append(_landmarks(rng, image_id, size, 2 if i % 10 == 0 else 1))
    files = {"corpus": dest / "corpus.jsonl", "restored": dest / "restored.jsonl",
             "landmarks": dest / "landmarks.jsonl", "images": images}
    _write_jsonl(files["corpus"], ids, identities, original)
    _write_jsonl(files["restored"], ids, identities, restored)
    files["landmarks"].write_text("".join(line + "\n" for line in landmark_lines),
                                  encoding="utf-8")
    return Inputs(files=files, lineup_seed=int(rng.integers(1 << 31)), ids=ids,
                  identities=identities, original=original.astype(np.float32),
                  restored=restored.astype(np.float32), expected_removed=expected_removed)


# ---------------------------------------------------------------------------
# Feature CSVs


def _feature_rows(rng, rows: int):
    failures = int(round(FAILURE_FRACTION * rows))
    labels = rng.permutation(np.r_[np.ones(failures, int), np.zeros(rows - failures, int)])
    matrix = rng.normal(size=(rows, FEATURE_WIDTH))
    matrix[:, list(SIGNAL_COLUMNS)] += 1.2 * labels[:, None]
    fmt = ",".join(["%.4f"] * FEATURE_WIDTH)
    return labels, [fmt % tuple(row) for row in matrix.tolist()]


def _write_feature_csv(path: Path, ids, labels, bodies) -> None:
    header = ["image_id", "label", *(f"emb_{i}" for i in range(DIM)), *CLASSICAL_NAMES]
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        for image_id, label, body in zip(ids, labels, bodies):
            fh.write(f"{image_id},{label},{body}\n")


def train_predict(seed: int, dest: Path) -> Inputs:
    """A 300 x 554 training CSV with 30% failures and four signal columns,
    and a 3,000-row CSV to score: 750 distinct rows repeated four times
    under distinct ids."""
    rng = rng_for("train_predict", seed)
    dest.mkdir(parents=True, exist_ok=True)
    files = {"train": dest / "train_features.csv", "predict": dest / "predict_features.csv"}
    labels, bodies = _feature_rows(rng, TRAIN_ROWS)
    _write_feature_csv(files["train"], [f"t{i:05d}" for i in range(TRAIN_ROWS)], labels, bodies)
    labels, bodies = _feature_rows(rng, PREDICT_UNIQUE_ROWS)
    predict_ids = [f"q{r}_{i:05d}" for r in range(PREDICT_REPEATS)
                   for i in range(PREDICT_UNIQUE_ROWS)]
    _write_feature_csv(files["predict"], predict_ids,
                       list(labels) * PREDICT_REPEATS, bodies * PREDICT_REPEATS)
    return Inputs(files=files, train_rows=TRAIN_ROWS)


GENERATORS = {
    "search_corpus": search_corpus,
    "image_chain": image_chain,
    "train_predict": train_predict,
}
