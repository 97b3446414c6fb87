"""Seeded mutation probe of the commands' file inputs.

A small valid workspace (two embedding corpora, landmarks, images, the
lineups and results ``evaluate`` wrote, the ``features.csv`` ``features``
wrote) and a model ``train`` made from synthetic feature rows are damaged in
seeded ways: truncation, byte flips, a ragged row, a ``nan`` cell, a bad
label, a wrong width, and JSON values of the wrong type (a whole JSONL line
or one value in it). Each damaged file goes to the commands that read it:
``features.csv`` to ``train`` and ``predict``, ``model.json`` to
``predict``, the landmarks to ``features`` and a fresh-directory
``restore``, the manifest and results to ``features``, ``compare`` and
``restore``, the original corpus to ``evaluate``, ``compare`` and a
fresh-directory ``restore``, and the restored corpus to the last two. Every
run must exit 0, 1 or 2; a run that fails must print one stderr line, no
traceback, and leave every byte of the output directory as it was.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from lineuplab import cli
from lineuplab.artifacts import FEATURES_FILE, MANIFEST_FILE, MODEL_FILE, RESULTS_FILE
from lineuplab.corpus import ImageGray, write_pgm
from lineuplab.imgfeat import CLASSICAL_FEATURE_COUNT, write_feature_csv

SEED = 20_260_117
MUTANTS_PER_KIND = 4
ROWS, FAILURES, EMBEDDING_DIM = 60, 20, 4
IDENTITIES, PER_IDENTITY = 6, 2
WRONG_TYPES = (None, True, "0.5", [], {}, [1.0, "x"], -1, 1.5)


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    """An output directory after a good ``train`` and ``predict``."""
    out = tmp_path_factory.mktemp("mutations") / "base"
    out.mkdir()
    rng = np.random.default_rng(SEED)
    labels = np.zeros(ROWS, dtype=np.int64)
    labels[:FAILURES] = 1
    matrix = rng.normal(size=(ROWS, EMBEDDING_DIM + CLASSICAL_FEATURE_COUNT))
    matrix[:, :3] += 1.5 * labels[:, None]
    write_feature_csv([f"s{i:03d}" for i in range(ROWS)], labels, matrix, out / FEATURES_FILE)
    for command in ("train", "predict"):
        assert cli.main([command, *_args(out)]) == 0
    return out


def _args(out) -> list[str]:
    return ["--paths.output", str(out), "--train.estimators", "2"]


def _snapshot(out) -> dict[str, bytes]:
    return {path.name: path.read_bytes() for path in sorted(out.iterdir())}


@pytest.fixture(scope="module")
def workspace(trained, tmp_path_factory):
    """A corpus workspace whose features fit ``trained``'s model, and an
    output directory after a good ``evaluate`` and ``features``."""
    root = tmp_path_factory.mktemp("mutations_ws")
    rng = np.random.default_rng([SEED, 1])
    (root / "images").mkdir()
    corpus, restored, landmarks = [], [], []
    for pid in range(IDENTITIES):
        base = rng.normal(size=EMBEDDING_DIM)
        for j in range(PER_IDENTITY):
            image_id, vector = f"p{pid}x{j}", base + 0.1 * rng.normal(size=EMBEDDING_DIM)
            corpus.append({"image_id": image_id, "identity_id": f"p{pid}",
                           "vector": vector.tolist()})
            restored.append({**corpus[-1], "vector": (0.5 * (vector + base)).tolist()})
            landmarks.append({"image_id": image_id,
                              "points": rng.uniform(2.0, 14.0, size=(68, 2)).tolist()})
            pixels = rng.integers(0, 256, size=(16, 16), dtype=np.uint8)
            write_pgm(ImageGray(16, 16, pixels), root / "images" / f"{image_id}.pgm")
    for name, records in (("original.jsonl", corpus), ("restored.jsonl", restored),
                          ("landmarks.jsonl", landmarks)):
        (root / name).write_text("".join(json.dumps(r) + "\n" for r in records))
    (root / "config.json").write_text(json.dumps({"paths": {
        "embeddings_original": str(root / "original.jsonl"),
        "embeddings_restored": str(root / "restored.jsonl"),
        "images": str(root / "images"),
        "landmarks": str(root / "landmarks.jsonl"),
        "model": str(trained / MODEL_FILE),
    }}))
    out = root / "base"
    out.mkdir()
    for command in ("evaluate", "features"):
        assert cli.main([command, "--config", str(root / "config.json"),
                         "--paths.output", str(out)]) == 0
    return root


def _csv_mutant(data: bytes, kind: str, rng) -> bytes:
    if kind == "truncate":
        return data[:int(rng.integers(len(data)))]
    if kind == "byte_flip":
        out = bytearray(data)
        for at in rng.integers(len(data), size=int(rng.integers(1, 4))):
            out[at] ^= int(rng.integers(1, 256))
        return bytes(out)
    lines = data.decode().splitlines(keepends=True)
    if kind == "wrong_width":  # every line, the header included, one column short
        return "".join(line.rsplit(",", 1)[0] + "\n" for line in lines).encode()
    row = int(rng.integers(1, len(lines)))
    cells = lines[row].rstrip("\n").split(",")
    if kind == "ragged_row":
        del cells[int(rng.integers(len(cells)))]
    elif kind == "nan_cell":
        cells[int(rng.integers(2, len(cells)))] = "nan"
    else:  # bad_label
        cells[1] = str(rng.choice(["2", "-1", "x", "", "0.5", "01"]))
    lines[row] = ",".join(cells) + "\n"
    return "".join(lines).encode()


def _json_mutant(data: bytes, kind: str, rng) -> bytes:
    if kind in ("truncate", "byte_flip"):
        return _csv_mutant(data, kind, rng)
    payload = json.loads(data)
    if kind == "wrong_top_level":
        return json.dumps(WRONG_TYPES[int(rng.integers(len(WRONG_TYPES)))]).encode()
    # wrong_type: one value somewhere in the document is replaced
    parent, key = None, None
    node = payload
    while isinstance(node, (dict, list)) and node and (parent is None or rng.random() < 0.8):
        key = (str(rng.choice(sorted(node))) if isinstance(node, dict)
               else int(rng.integers(len(node))))
        parent, node = node, node[key]
    parent[key] = WRONG_TYPES[int(rng.integers(len(WRONG_TYPES)))]
    return json.dumps(payload).encode()


CSV_KINDS = ("truncate", "byte_flip", "ragged_row", "nan_cell", "bad_label", "wrong_width")
JSON_KINDS = ("truncate", "byte_flip", "wrong_top_level", "wrong_type")
CASES = (
    [("train", FEATURES_FILE, kind) for kind in CSV_KINDS]
    + [("predict", FEATURES_FILE, kind) for kind in CSV_KINDS]
    + [("predict", MODEL_FILE, kind) for kind in JSON_KINDS]
)
# every mutant of these kinds is malformed, whatever the seed draws
ALWAYS_FAILS = {"ragged_row", "nan_cell", "bad_label", "wrong_top_level"}


@pytest.mark.parametrize("command, name, kind", CASES,
                         ids=[f"{c}-{n.split('.')[1]}-{k}" for c, n, k in CASES])
def test_damaged_input_fails_cleanly(trained, tmp_path, capsys, command, name, kind):
    rng = np.random.default_rng([SEED, CASES.index((command, name, kind))])
    mutate = _json_mutant if name == MODEL_FILE else _csv_mutant
    # predict's model expects the full width; train learns any width
    must_fail = kind in ALWAYS_FAILS or (command, kind) == ("predict", "wrong_width")
    for i in range(MUTANTS_PER_KIND):
        out = tmp_path / f"m{i}"
        shutil.copytree(trained, out)
        (out / name).write_bytes(mutate((trained / name).read_bytes(), kind, rng))
        before = _snapshot(out)
        capsys.readouterr()
        code = cli.main([command, *_args(out)])
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 0:
            assert not must_fail, f"mutant {i} was accepted"
            continue
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("error: " if code == 1 else "data error: "), err
        assert _snapshot(out) == before, f"mutant {i} changed the output directory"


def _jsonl_mutant(data: bytes, kind: str, rng) -> bytes:
    """A JSONL file damaged as a whole (truncate, byte_flip) or in one line."""
    if kind in ("truncate", "byte_flip"):
        return _csv_mutant(data, kind, rng)
    lines = data.decode().splitlines(keepends=True)
    at = int(rng.integers(len(lines)))
    lines[at] = _json_mutant(lines[at].encode(), kind, rng).decode() + "\n"
    return "".join(lines).encode()


# input -> (the commands that read it; a fresh restore starts from an empty
# output directory, the others from the one evaluate and features left)
WORKSPACE_INPUTS = {
    "landmarks.jsonl": ("features", "restore_fresh"),
    MANIFEST_FILE: ("features", "compare", "restore"),
    RESULTS_FILE: ("features", "compare", "restore"),
    "original.jsonl": ("evaluate", "compare", "restore_fresh"),
    "restored.jsonl": ("compare", "restore_fresh"),
}
# the leaf each corpus-side input overrides; the manifest and results live
# in the output directory
INPUT_LEAVES = {"landmarks.jsonl": "paths.landmarks",
                "original.jsonl": "paths.embeddings_original",
                "restored.jsonl": "paths.embeddings_restored"}
WORKSPACE_CASES = [
    (command, name, kind)
    for name, commands in WORKSPACE_INPUTS.items()
    for command in commands
    for kind in (("truncate", "byte_flip", "ragged_row") if name == RESULTS_FILE
                 else JSON_KINDS)
]


@pytest.mark.parametrize("command, name, kind", WORKSPACE_CASES,
                         ids=[f"{c}-{n.split('.')[0]}-{k}" for c, n, k in WORKSPACE_CASES])
def test_damaged_workspace_input_fails_cleanly(workspace, tmp_path, capsys,
                                               command, name, kind):
    rng = np.random.default_rng([SEED, 2, WORKSPACE_CASES.index((command, name, kind))])
    mutate = _csv_mutant if name == RESULTS_FILE else _jsonl_mutant
    source = workspace / (name if name in INPUT_LEAVES else f"base/{name}")
    for i in range(MUTANTS_PER_KIND):
        out = tmp_path / f"m{i}"
        if command in ("evaluate", "restore_fresh"):
            out.mkdir()
        else:
            shutil.copytree(workspace / "base", out)
        damaged = tmp_path / f"{i}-{name}" if name in INPUT_LEAVES else out / name
        damaged.write_bytes(mutate(source.read_bytes(), kind, rng))
        args = [command.split("_")[0], "--config", str(workspace / "config.json"),
                "--paths.output", str(out)]
        if name in INPUT_LEAVES:
            args += [f"--{INPUT_LEAVES[name]}", str(damaged)]
        before = _snapshot(out)
        capsys.readouterr()
        code = cli.main(args)
        err = capsys.readouterr().err
        assert code in (0, 1, 2), err
        if code == 0:
            assert kind not in ALWAYS_FAILS, f"mutant {i} was accepted"
            continue
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("error: " if code == 1 else "data error: "), err
        assert _snapshot(out) == before, f"mutant {i} changed the output directory"
