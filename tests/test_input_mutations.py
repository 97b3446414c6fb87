"""Seeded mutation probe of the commands' file inputs.

A small valid workspace (two embedding corpora, one of them also as the
binary ``embeddings.bin``, landmarks, images, the lineups and results
``evaluate`` wrote, the ``features.csv`` ``features`` wrote, a config file)
and a model ``train`` made from synthetic feature rows are damaged in seeded
ways: truncation, byte flips, a ragged row, a ``nan`` cell, a bad label, a
wrong width, no feature column at all, JSON values of the wrong type (a whole JSONL line or one value
in it) and a binary header field replaced. Each damaged file goes to the
commands that read it: ``features.csv`` to ``train`` and ``predict``,
``model.json`` to ``predict``, the landmarks to ``features`` and a
fresh-directory ``restore``, the manifest and results to ``features``,
``compare`` and ``restore``, the original corpus to ``evaluate``,
``compare`` and a fresh-directory ``restore``, the restored corpus to the
last two, ``embeddings.bin`` to ``index``, ``evaluate`` and ``compare``, and
the config to every command, ``comparison.json`` to ``report``, and one
PGM image (truncated, header bytes flipped, a maxval other than 255, or a
2 x 2 image) to ``curate`` and ``features``. Every run must exit 0, 1 or 2;
a run that fails must print one stderr line, no traceback, and leave every
byte of the output directory as it was.
"""

from __future__ import annotations

import json
import shutil
import struct

import numpy as np
import pytest

from lineuplab import cli
from lineuplab.artifacts import (
    COMPARISON_FILE,
    FEATURES_FILE,
    MANIFEST_FILE,
    MODEL_FILE,
    OUTCOMES_FP_FILE,
    OUTCOMES_TP_FILE,
    RESULTS_FILE,
)
from lineuplab.corpus import ImageGray, ingest_embeddings, write_embeddings, write_pgm
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


def _run_mutant(capsys, args, out, i) -> int:
    """Run one command on mutant ``i``: its exit code, after checking that
    it is 0, 1 or 2 and that a failed run printed one stderr line, no
    traceback, and left every byte of ``out`` as it was."""
    before = _snapshot(out)
    capsys.readouterr()
    code = cli.main(args)
    err = capsys.readouterr().err
    assert code in (0, 1, 2), err
    if code:
        assert err.count("\n") == 1 and "Traceback" not in err, err
        assert err.startswith("error: " if code == 1 else "data error: "), err
        assert _snapshot(out) == before, f"mutant {i} changed the output directory"
    return code


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
    write_embeddings(ingest_embeddings(root / "original.jsonl"), root / "embeddings.bin")
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
    if kind == "no_features":  # every line cut to its id and label
        return "".join(",".join(line.split(",", 2)[:2]) + "\n" for line in lines).encode()
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
    + [(command, FEATURES_FILE, "no_features") for command in ("train", "predict")]
)
# every mutant of these kinds is malformed, whatever the seed draws
ALWAYS_FAILS = {"ragged_row", "nan_cell", "bad_label", "wrong_top_level", "no_features"}


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
        if _run_mutant(capsys, [command, *_args(out)], out, i) == 0:
            assert not must_fail, f"mutant {i} was accepted"


def _jsonl_mutant(data: bytes, kind: str, rng) -> bytes:
    """A JSONL file damaged as a whole (truncate, byte_flip) or in one line."""
    if kind in ("truncate", "byte_flip"):
        return _csv_mutant(data, kind, rng)
    lines = data.decode().splitlines(keepends=True)
    at = int(rng.integers(len(lines)))
    lines[at] = _json_mutant(lines[at].encode(), kind, rng).decode() + "\n"
    return "".join(lines).encode()


def _bin_mutant(data: bytes, kind: str, rng) -> bytes:
    """A binary container damaged as a whole (truncate, byte_flip), or with
    its dimension or record count replaced (header)."""
    if kind in ("truncate", "byte_flip"):
        return _csv_mutant(data, kind, rng)
    fields = list(struct.unpack_from("<IQ", data, 4))
    at = int(rng.integers(2))
    fields[at] = int(rng.choice([0, 1, fields[at] - 1, fields[at] + 1, 2**32 - 1]))
    return data[:4] + struct.pack("<IQ", *fields) + data[16:]


# input -> (the commands that read it; a fresh restore starts from an empty
# output directory, the others from the one evaluate and features left)
WORKSPACE_INPUTS = {
    "landmarks.jsonl": ("features", "restore_fresh"),
    MANIFEST_FILE: ("features", "compare", "restore"),
    RESULTS_FILE: ("features", "compare", "restore"),
    "original.jsonl": ("evaluate", "compare", "restore_fresh"),
    "restored.jsonl": ("compare", "restore_fresh"),
    "embeddings.bin": ("index", "evaluate", "compare"),
}
# the leaf each corpus-side input overrides; the manifest and results live
# in the output directory
INPUT_LEAVES = {"landmarks.jsonl": "paths.landmarks",
                "original.jsonl": "paths.embeddings_original",
                "restored.jsonl": "paths.embeddings_restored",
                "embeddings.bin": "paths.embeddings_original"}
INPUT_KINDS = {RESULTS_FILE: ("truncate", "byte_flip", "ragged_row"),
               "embeddings.bin": ("truncate", "byte_flip", "header")}
MUTATORS = {RESULTS_FILE: _csv_mutant, "embeddings.bin": _bin_mutant}
WORKSPACE_CASES = [
    (command, name, kind)
    for name, commands in WORKSPACE_INPUTS.items()
    for command in commands
    for kind in INPUT_KINDS.get(name, JSON_KINDS)
]


@pytest.mark.parametrize("command, name, kind", WORKSPACE_CASES,
                         ids=[f"{c}-{n.split('.')[0]}-{k}" for c, n, k in WORKSPACE_CASES])
def test_damaged_workspace_input_fails_cleanly(workspace, tmp_path, capsys,
                                               command, name, kind):
    rng = np.random.default_rng([SEED, 2, WORKSPACE_CASES.index((command, name, kind))])
    mutate = MUTATORS.get(name, _jsonl_mutant)
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
        if _run_mutant(capsys, args, out, i) == 0:
            assert kind not in ALWAYS_FAILS, f"mutant {i} was accepted"


CONFIG_COMMANDS = ("ingest", "curate", "index", "evaluate", "features", "train", "predict",
                   "restore", "compare", "report")
CONFIG_CASES = [(command, kind) for command in CONFIG_COMMANDS for kind in JSON_KINDS]


@pytest.fixture(scope="module")
def configured(workspace, trained):
    """A config with a leaf in every section, and an output directory in
    which every command runs clean under it. The config names no
    ``paths.model`` and the command line sets ``paths.output``, so no
    mutant can move a write out of the output directory."""
    paths = json.loads((workspace / "config.json").read_text())["paths"]
    del paths["model"]
    config = workspace / "full.json"
    config.write_text(json.dumps({
        "paths": paths,
        "lineup": {"seed": 3, "distinct_fillers": False},
        "curation": {"dark_threshold": 1.0, "bright_threshold": 254.0, "blur_threshold": 0.0},
        "train": {"seed": 1, "estimators": 2, "target": "source"},
        "predict": {"threshold": None},
        "hook": {"timeout": 60.0, "failure_threshold": 1.0},
        "parallelism": 1,
    }))
    full = workspace / "full"
    shutil.copytree(workspace / "base", full)
    shutil.copy(trained / MODEL_FILE, full)
    assert cli.main(["compare", "--config", str(config), "--paths.output", str(full)]) == 0
    # the corpus workspace's lineups all succeed, so train and predict run
    # on the synthetic feature rows
    bases = {command: trained if command in ("train", "predict") else full
             for command in CONFIG_COMMANDS}
    for command, base in bases.items():
        clean = workspace / f"clean-{command}"
        shutil.copytree(base, clean)
        assert cli.main([command, "--config", str(config), "--paths.output", str(clean)]) == 0
    return config, bases


@pytest.mark.parametrize("command, kind", CONFIG_CASES,
                         ids=[f"{c}-config-{k}" for c, k in CONFIG_CASES])
def test_damaged_config_fails_cleanly(configured, tmp_path, capsys, command, kind):
    config, bases = configured
    rng = np.random.default_rng([SEED, 3, CONFIG_CASES.index((command, kind))])
    for i in range(MUTANTS_PER_KIND):
        out = tmp_path / f"m{i}"
        shutil.copytree(bases[command], out)
        damaged = tmp_path / f"{i}-config.json"
        damaged.write_bytes(_json_mutant(config.read_bytes(), kind, rng))
        args = [command, "--config", str(damaged), "--paths.output", str(out)]
        if _run_mutant(capsys, args, out, i) == 0:
            # of the wrong top-level values, only {} is a config: every leaf defaulted
            assert kind != "wrong_top_level" or damaged.read_bytes() == b"{}", \
                f"mutant {i} was accepted"


def test_damaged_comparison_fails_cleanly_or_renders_numbers(configured, tmp_path, capsys):
    """``report`` on a damaged ``comparison.json``: a run that succeeds
    renders an integer count and a number in every outcome row."""
    _, bases = configured
    rng = np.random.default_rng([SEED, 4])
    source = bases["report"] / COMPARISON_FILE
    for kind in JSON_KINDS:
        for i in range(2 * MUTANTS_PER_KIND):
            out = tmp_path / f"{kind}-{i}"
            shutil.copytree(bases["report"], out)
            (out / COMPARISON_FILE).write_bytes(_json_mutant(source.read_bytes(), kind, rng))
            if _run_mutant(capsys, ["report", "--paths.output", str(out)], out, i):
                continue
            assert kind not in ALWAYS_FAILS, f"mutant {i} was accepted"
            for name in (OUTCOMES_TP_FILE, OUTCOMES_FP_FILE):
                for row in (out / name).read_text().splitlines()[1:]:
                    _, count, percentage = row.split(",")
                    int(count), float(percentage)


def _pgm_mutant(data: bytes, kind: str, rng) -> bytes:
    header = data.index(b"255\n") + 4
    if kind == "truncate":
        return data[:int(rng.integers(len(data)))]
    if kind == "header_flip":
        out = bytearray(data)
        for at in rng.integers(header, size=int(rng.integers(1, 3))):
            out[at] ^= int(rng.integers(1, 256))
        return bytes(out)
    if kind == "maxval":
        maxval = str(rng.choice(["0", "1", "254", "256", "65535"])).encode()
        return data[:header - 4] + maxval + data[header - 1:]
    pixels = rng.integers(0, 256, size=(2, 2), dtype=np.uint8)  # tiny
    return b"P5\n2 2\n255\n" + pixels.tobytes()


PGM_KINDS = ("truncate", "header_flip", "maxval", "tiny")
PGM_CASES = [(command, kind) for command in ("curate", "features") for kind in PGM_KINDS]


@pytest.mark.parametrize("command, kind", PGM_CASES, ids=[f"{c}-pgm-{k}" for c, k in PGM_CASES])
def test_damaged_image_fails_cleanly(workspace, tmp_path, capsys, command, kind):
    """Every corpus image is a lineup source, so both commands read it."""
    rng = np.random.default_rng([SEED, 5, PGM_CASES.index((command, kind))])
    images = sorted((workspace / "images").iterdir())
    for i in range(MUTANTS_PER_KIND):
        out = tmp_path / f"m{i}"
        if command == "curate":
            out.mkdir()
        else:
            shutil.copytree(workspace / "base", out)
        damaged = tmp_path / f"{i}-images"
        shutil.copytree(workspace / "images", damaged)
        image = damaged / images[int(rng.integers(len(images)))].name
        image.write_bytes(_pgm_mutant(image.read_bytes(), kind, rng))
        args = [command, "--config", str(workspace / "config.json"),
                "--paths.output", str(out), "--paths.images", str(damaged)]
        if _run_mutant(capsys, args, out, i) == 0:
            assert kind not in ("truncate", "maxval"), f"mutant {i} was accepted"
