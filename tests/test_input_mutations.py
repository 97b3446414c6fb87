"""Seeded mutation probe of the predictor commands' inputs.

A small valid ``features.csv`` and the model ``train`` makes from it are
damaged in seeded ways: truncation, byte flips, a ragged row, a ``nan``
cell, a bad label, a wrong width, and JSON values of the wrong type. Each
damaged file goes to the command that reads it (``features.csv`` to
``train`` and ``predict``, ``model.json`` to ``predict``). Every run must
exit 0, 1 or 2; a run that fails must print one stderr line, no traceback,
and leave every byte of the output directory as it was.
"""

from __future__ import annotations

import json
import shutil

import numpy as np
import pytest

from lineuplab import cli
from lineuplab.artifacts import FEATURES_FILE, MODEL_FILE
from lineuplab.imgfeat import CLASSICAL_FEATURE_COUNT, write_feature_csv

SEED = 20_260_117
MUTANTS_PER_KIND = 4
ROWS, FAILURES, EMBEDDING_DIM = 60, 20, 4
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
