"""Output checks, one per command, independent of the code they check.

Each check reads the artifacts a command wrote and returns a list of
problems (empty when the output is right). Expected values come from the
generator's in-memory truth and from small reference computations here:
float64 dot products for lineups and ranks, a separate reader for the
binary container, and a separate ensemble scorer for predictions. None of
them imports ``lineuplab``.
"""

from __future__ import annotations

import csv
import hashlib
import json
import struct
from pathlib import Path

import numpy as np

from gen import CLASSICAL_NAMES, DIM, FEATURE_WIDTH, Inputs

FILLERS = 5
THRESHOLD_GRID = np.linspace(0.25, 0.75, 50)
SAMPLE_LINEUPS = 40
REPORT_FILES = ("rank_changes.csv", "outcomes_true_positive.csv", "outcomes_false_positive.csv")


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def digests(root: Path) -> dict[str, str]:
    """sha256 of every file under ``root``, keyed by relative path."""
    root = Path(root)
    return {str(p.relative_to(root)): sha256(p) for p in sorted(root.rglob("*")) if p.is_file()}


# ---------------------------------------------------------------------------
# Readers written from the documented formats


def read_lnup(path: Path):
    """(dim, ids, identities, float32 matrix) from an LNUP container."""
    data = Path(path).read_bytes()
    if data[:4] != b"LNUP":
        raise ValueError("bad magic")
    dim, count = struct.unpack_from("<IQ", data, 4)
    offset = 16
    ids, identities, rows = [], [], []
    for _ in range(count):
        for out in (ids, identities):
            (length,) = struct.unpack_from("<H", data, offset)
            out.append(data[offset + 2 : offset + 2 + length].decode("utf-8"))
            offset += 2 + length
        rows.append(np.frombuffer(data, dtype="<f4", count=dim, offset=offset))
        offset += 4 * dim
    if offset != len(data):
        raise ValueError("trailing bytes")
    return dim, ids, identities, np.vstack(rows)


def read_manifest(path: Path) -> list[dict]:
    return [json.loads(line) for line in Path(path).read_text(encoding="utf-8").splitlines()
            if line.strip()]


def read_results(path: Path) -> list[tuple[str, int, str]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["source_id", "probe_rank", "success"]:
        raise ValueError("bad results header")
    return [(s, int(r), ok) for s, r, ok in rows[1:]]


# ---------------------------------------------------------------------------
# Reference lineup computation


class Reference:
    """Float64 lineup recomputation for a corpus the generator wrote."""

    def __init__(self, ids, identities, original, restored=None):
        self.ids = list(ids)
        self.identities = np.asarray(identities)
        self.row = {image_id: i for i, image_id in enumerate(self.ids)}
        self.id_rank = np.empty(len(self.ids), dtype=np.int64)
        self.id_rank[np.argsort(np.asarray(self.ids, dtype=object), kind="stable")] = \
            np.arange(len(self.ids))
        self.unit = self._unit(original)
        self.unit_restored = None if restored is None else self._unit(restored)

    @staticmethod
    def _unit(matrix):
        m = np.asarray(matrix, dtype=np.float64)
        return m / np.sqrt((m * m).sum(axis=1))[:, None]

    def _ranked(self, source_row: int, rows) -> list[int]:
        rows = np.asarray(rows)
        scores = (self.unit[rows] * self.unit[source_row]).sum(axis=1)
        return list(rows[np.lexsort((self.id_rank[rows], -scores))])

    def lineup(self, source: str, seed: int):
        """(fillers, probe) or None when the source cannot form a lineup."""
        i = self.row[source]
        same = self.identities == self.identities[i]
        mates = sorted(self.ids[j] for j in np.flatnonzero(same) if j != i)
        others = np.flatnonzero(~same)
        if not mates or others.size < FILLERS:
            return None
        fillers = tuple(self.ids[j] for j in self._ranked(i, others)[:FILLERS])
        digest = hashlib.sha256(f"{seed}:{source}".encode("utf-8")).digest()
        probe = mates[int.from_bytes(digest[:8], "big") % len(mates)]
        return fillers, probe

    def probe_ranks(self, manifest, restored=False) -> list[int]:
        """Rank of each lineup's probe among its members by similarity to
        the source, ties toward the smaller id; members from ``restored``
        when asked, the source always from the original corpus."""
        unit = self.unit_restored if restored else self.unit
        members = np.array([[self.row[m] for m in (*e["fillers"], e["probe"])]
                            for e in manifest]).reshape(-1, FILLERS + 1)
        sources = np.array([self.row[e["source"]] for e in manifest], dtype=np.int64)
        scores = (unit[members] * self.unit[sources][:, None, :]).sum(axis=2)
        order = np.lexsort((self.id_rank[members], -scores), axis=1)
        return np.argmax(order == FILLERS, axis=1).tolist()


def sample_sources(sources, inputs: Inputs, count: int = SAMPLE_LINEUPS) -> list[str]:
    """A fixed sample: every planted tie source plus evenly spaced others."""
    sources = sorted(sources)
    step = max(1, len(sources) // count)
    return sorted(set(sources[::step]) | (set(inputs.tie_sources) & set(sources)))


# ---------------------------------------------------------------------------
# Per-command checks


def check_container(path: Path, ids, identities, matrix) -> list[str]:
    try:
        dim, got_ids, got_identities, got = read_lnup(path)
    except (OSError, ValueError, struct.error) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if dim != DIM or got_ids != list(ids) or got_identities != list(identities):
        return [f"{path.name}: header, ids or identities differ from the input"]
    if not np.array_equal(got, matrix):
        return [f"{path.name}: vectors differ from the input"]
    return []


def check_index(out: Path, inputs: Inputs) -> list[str]:
    data = (out / "search.index").read_bytes()
    if data[:4] != b"LNUI":
        return ["search.index: bad magic"]
    dim, count, flags = struct.unpack_from("<IQB", data, 4)
    expected = 4 + 13 + sum(4 + len(a.encode()) + len(b.encode()) + 8 * DIM
                            for a, b in zip(inputs.ids, inputs.identities))
    if (dim, count, flags, len(data)) != (DIM, len(inputs.ids), 1, expected):
        return ["search.index: header or size does not match the corpus"]
    # The first record's vector must be the unit-normalized input row.
    offset = 17 + 2 + len(inputs.ids[0].encode()) + 2 + len(inputs.identities[0].encode())
    first = np.frombuffer(data, dtype="<f8", count=DIM, offset=offset)
    if not np.allclose(first, Reference._unit(inputs.original[:1])[0], rtol=0, atol=1e-12):
        return ["search.index: first vector is not the normalized input row"]
    return []


def check_evaluate(out: Path, inputs: Inputs, ref: Reference, sources) -> list[str]:
    problems = []
    manifest = read_manifest(out / "lineup_manifest.jsonl")
    results = read_results(out / "lineup_results.csv")
    summary = json.loads((out / "accuracy_summary.json").read_text(encoding="utf-8"))
    if [m["source"] for m in manifest] != [r[0] for r in results]:
        problems.append("manifest and results list different sources")
    if [r[0] for r in results] != sorted(r[0] for r in results):
        problems.append("results are not ordered by source id")
    successes = sum(rank == 0 for _, rank, _ in results)
    if any((rank == 0) != (ok == "true") for _, rank, ok in results):
        problems.append("a success flag disagrees with its probe rank")
    if summary["lineups"] != len(results) or summary["successes"] != successes:
        problems.append("summary counts disagree with the results CSV")
    if summary["accuracy"] != successes / len(results):
        problems.append("accuracy != successes / lineups")
    if summary["lineups"] + len(summary["skipped"]) != summary["sources_total"] \
            or summary["sources_total"] != len(sources):
        problems.append("lineups + skipped != sources_total")
    by_source = {m["source"]: m for m in manifest}
    skipped = {s for s, _ in summary["skipped"]}
    for source in sample_sources(sources, inputs):
        expected = ref.lineup(source, inputs.lineup_seed)
        if expected is None:
            if source not in skipped:
                problems.append(f"{source}: should have been skipped")
            continue
        got = by_source.get(source)
        if got is None or (tuple(got["fillers"]), got["probe"]) != expected:
            problems.append(f"{source}: lineup differs from the reference")
    if ref.probe_ranks(manifest) != [rank for _, rank, _ in results]:
        problems.append("a probe rank differs from the reference ranking")
    return problems


def _outcome_problems(out: Path, comparison: dict, expected_total: int) -> list[str]:
    problems = []
    totals = 0
    for key, name in (("true_positive_table", "outcomes_true_positive.csv"),
                      ("false_positive_table", "outcomes_false_positive.csv")):
        table = comparison[key]
        parts = (table["improvements"] + table["degradations"] + table["unchanged"]
                 + table["failed_restorations"])
        if parts != table["total"]:
            problems.append(f"{key} does not partition its total")
        last = (out / name).read_text(encoding="utf-8").splitlines()[-1]
        if last.split(",")[:2] != ["Total Analyzed", str(table["total"])]:
            problems.append(f"{name}: total row disagrees with comparison.json")
        totals += table["total"]
    if totals != expected_total:
        problems.append("outcome tables do not cover every compared lineup")
    with open(out / "rank_changes.csv", encoding="utf-8", newline="") as fh:
        counted = sum(int(row[1]) for row in list(csv.reader(fh))[1:])
    if counted != len(comparison["per_lineup"]):
        problems.append("rank_changes.csv does not count every re-ranked lineup")
    return problems


def check_compare(out: Path, inputs: Inputs, ref: Reference, compared) -> list[str]:
    """``compared``: the sources whose lineups should have been re-ranked."""
    comparison = json.loads((out / "comparison.json").read_text(encoding="utf-8"))
    rank_of = {s: rank for s, rank, _ in read_results(out / "lineup_results.csv")}
    by_source = {m["source"]: m for m in read_manifest(out / "lineup_manifest.jsonl")}
    problems = []
    per = comparison["per_lineup"]
    if {r["source"] for r in per} != set(compared) or comparison["failed"]:
        problems.append("comparison does not cover exactly the expected lineups")
    if any(r["rank_before"] != rank_of[r["source"]] for r in per):
        problems.append("rank_before disagrees with the results CSV")
    after = ref.probe_ranks([by_source[r["source"]] for r in per], restored=True)
    if after != [r["rank_after"] for r in per]:
        problems.append("a rank_after differs from the reference ranking")
    return problems + _outcome_problems(out, comparison, len(compared))


def check_report(out: Path, before: dict[str, str]) -> list[str]:
    """``report`` re-renders the CSVs ``compare``/``restore`` wrote, byte for byte."""
    changed = [name for name in REPORT_FILES if sha256(out / name) != before.get(name)]
    return [f"report changed {name}" for name in changed]


def check_curate(out: Path, inputs: Inputs) -> list[str]:
    report = json.loads((out / "curation_report.json").read_text(encoding="utf-8"))
    removed = {image_id: reason for image_id, reason in report["removed"]}
    problems = []
    if removed != inputs.expected_removed:
        problems.append("curation removed a different set or gave other reasons")
    kept = [i for i, image_id in enumerate(inputs.ids) if image_id not in inputs.expected_removed]
    problems += check_container(out / "curated_embeddings.bin",
                                [inputs.ids[i] for i in kept],
                                [inputs.identities[i] for i in kept], inputs.original[kept])
    return problems


def read_feature_rows(path: Path):
    """(header, ids, labels, float64 matrix) parsed line by line."""
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        ids, labels, rows = [], [], []
        for line in fh:
            image_id, label, values = line.rstrip("\n").split(",", 2)
            ids.append(image_id)
            labels.append(int(label))
            rows.append(np.fromstring(values, dtype=np.float64, sep=","))
    return header, ids, labels, np.vstack(rows)


def check_features(out: Path, inputs: Inputs) -> list[str]:
    header, ids, labels, matrix = read_feature_rows(out / "features.csv")
    results = read_results(out / "lineup_results.csv")
    problems = []
    if header[2:] != [f"emb_{i}" for i in range(DIM)] + list(CLASSICAL_NAMES):
        problems.append("features.csv header is not the 554 documented columns")
    if ids != [s for s, _, _ in results]:
        problems.append("features.csv does not hold one row per lineup, in lineup order")
    if labels != [0 if rank == 0 else 1 for _, rank, _ in results]:
        problems.append("feature labels disagree with lineup outcomes")
    if matrix.shape[1] != FEATURE_WIDTH or not np.all(np.isfinite(matrix)):
        problems.append("feature rows are not finite and 554 wide")
    row = {image_id: i for i, image_id in enumerate(inputs.ids)}
    if ids and not np.array_equal(matrix[:, :DIM], inputs.original[[row[s] for s in ids]]):
        problems.append("embedding columns differ from the source embeddings")
    return problems


def check_model(out: Path) -> list[str]:
    model = json.loads((out / "model.json").read_text(encoding="utf-8"))
    json.loads((out / "training_report.json").read_text(encoding="utf-8"))
    problems = []
    if model.get("format") != "lineup-failure-ensemble":
        problems.append("model.json is not a model artifact")
    if [len(model["cohorts"][c]) for c in ("precision", "recall")] != [10, 10]:
        problems.append("model.json does not hold two cohorts of ten learners")
    if model["threshold"] not in THRESHOLD_GRID.tolist():
        problems.append("model threshold is not a grid point")
    return problems


# ---------------------------------------------------------------------------
# Reference ensemble scoring


def _sigmoid(z):
    return 1.0 / (1.0 + np.exp(-np.clip(z, -700.0, 700.0)))


def _tree(tree: dict, Z: np.ndarray) -> np.ndarray:
    feature = np.asarray(tree["feature"])
    threshold = np.asarray(tree["threshold"], dtype=np.float64)
    left, right = np.asarray(tree["left"]), np.asarray(tree["right"])
    node = np.zeros(Z.shape[0], dtype=np.int64)
    rows = np.arange(Z.shape[0])
    for _ in range(feature.size):
        f = feature[node]
        inner = f >= 0
        if not inner.any():
            break
        go_left = Z[rows, np.where(inner, f, 0)] <= threshold[node]
        node = np.where(inner, np.where(go_left, left[node], right[node]), node)
    return np.asarray(tree["value"], dtype=np.float64)[node]


def _learner(params: dict, Z: np.ndarray) -> np.ndarray:
    if params["kind"] == "logistic":
        return _sigmoid(Z @ np.asarray(params["coef"]) + params["intercept"])
    if params["kind"] == "forest":
        return sum(_tree(t, Z) for t in params["trees"]) / len(params["trees"])
    z = np.full(Z.shape[0], params["f0"])
    for t in params["trees"]:
        z = z + params["learning_rate"] * _tree(t, Z)
    return _sigmoid(z)


def ensemble_proba(model: dict, X: np.ndarray) -> np.ndarray:
    mean = np.asarray(model["standardizer"]["mean"])
    std = np.asarray(model["standardizer"]["std"])
    Z = np.where(std > 0.0, (X - mean) / np.where(std > 0.0, std, 1.0), 0.0)
    cohort = [sum(_learner(c["params"], Z) for c in model["cohorts"][name]) / 10.0
              for name in ("precision", "recall")]
    return np.sqrt(cohort[0] * cohort[1])


def check_predictions(predictions: Path, model_path: Path, features: Path) -> list[str]:
    """Re-score every row from model.json; decisions must follow the threshold."""
    model = json.loads(model_path.read_text(encoding="utf-8"))
    _, ids, _, matrix = read_feature_rows(features)
    with open(predictions, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if rows[0] != ["source_id", "probability", "predicted_failure"]:
        return ["predictions.csv: bad header"]
    rows = rows[1:]
    if [r[0] for r in rows] != ids:
        return ["predictions.csv does not score every feature row in order"]
    got = np.array([float(r[1]) for r in rows])
    problems = []
    if not np.allclose(got, ensemble_proba(model, matrix), rtol=1e-9, atol=1e-12):
        problems.append("probabilities differ from the reference scorer")
    if any((r[2] == "true") != (p >= model["threshold"]) for r, p in zip(rows, got)):
        problems.append("a decision does not follow the model threshold")
    return problems


def flagged_sources(predictions: Path) -> list[str]:
    with open(predictions, encoding="utf-8", newline="") as fh:
        return [r[0] for r in list(csv.reader(fh))[1:] if r[2] == "true"]


def check_restore(out: Path, inputs: Inputs, ref: Reference) -> list[str]:
    problems = check_predictions(out / "predictions.csv", out / "model.json",
                                 out / "features.csv")
    flagged = flagged_sources(out / "predictions.csv")
    by_source = {m["source"]: m for m in read_manifest(out / "lineup_manifest.jsonl")}
    members = sorted({m for s in flagged
                      for m in by_source[s]["fillers"] + [by_source[s]["probe"]]})
    status = json.loads((out / "hook_status.json").read_text(encoding="utf-8"))
    if status["total"] != len(members) or status["failed"] != 0 \
            or [r["image_id"] for r in status["records"]] != members:
        problems.append("hook_status.json does not cover each flagged member once, cleanly")
    images = inputs.files["images"]
    for image_id in members:
        copy = out / "restored_images" / f"{image_id}.pgm"
        if not copy.is_file() or sha256(copy) != sha256(images / f"{image_id}.pgm"):
            problems.append(f"restored image {image_id} is not the hook's copy")
            break
    return problems + check_compare(out, inputs, ref, flagged)
