"""Pipeline and CLI tests: configuration handling, the restoration hook, and
the full command chain on a small synthetic workspace."""

import builtins
import csv
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
from collections import Counter
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

import oracles
from lineuplab import artifacts, cli, pipeline
from lineuplab.corpus import (
    ImageGray,
    TOO_DARK,
    ingest_embeddings,
    ingest_landmarks,
    write_pgm,
)
from lineuplab.errors import ConfigError, DataError
from lineuplab.failpred.model_io import load_model
from lineuplab.imgfeat import read_feature_csv, write_feature_csv
from lineuplab.lineup import OutcomeTable, read_lineup_manifest, read_results_csv
from lineuplab.pipeline import (
    COMPARISON_FILE,
    CONFIG_LEAVES,
    CURATED_FILE,
    CURATION_REPORT_FILE,
    FEATURES_FILE,
    HOOK_STATUS_FILE,
    MANIFEST_FILE,
    MODEL_FILE,
    OUTCOMES_FP_FILE,
    OUTCOMES_TP_FILE,
    PREDICTIONS_FILE,
    RANK_CHANGES_FILE,
    RESULTS_FILE,
    SUMMARY_FILE,
    TRAIN_REPORT_FILE,
    PipelineConfig,
    RestorationHook,
    load_config,
    write_outcome_csv,
)
from lineuplab.stages import predictor as predictor_stages
from lineuplab.stages import search as search_stages

# ---------------------------------------------------------------------------
# Configuration


def test_config_defaults():
    config = load_config()
    assert config.output == "out"
    assert config.lineup_seed == 0
    assert config.hook_failure_threshold == 1.0
    assert config.threshold_override is None
    assert config.target == "source"


def test_config_file_nested_plus_override_precedence(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({
        "paths": {"output": str(tmp_path / "out")},
        "lineup": {"seed": 7, "distinct_fillers": True},
        "curation": {"dark_threshold": 25.5},
        "parallelism": 2,
    }))
    config = load_config(path, {"lineup.seed": "9", "predict.threshold": "0.5"})
    assert config.output == str(tmp_path / "out")
    assert config.lineup_seed == 9  # CLI override beats the file value
    assert config.distinct_fillers is True
    assert config.dark_threshold == 25.5
    assert config.parallelism == 2
    assert config.threshold_override == 0.5


def test_config_rejects_unknown_keys(tmp_path):
    path = tmp_path / "config.json"
    path.write_text(json.dumps({"paths": {"bogus": "x"}}))
    with pytest.raises(ConfigError, match="paths.bogus"):
        load_config(path)
    with pytest.raises(ConfigError, match="lineup.sed"):
        load_config(None, {"lineup.sed": "1"})


def test_config_file_errors(tmp_path):
    with pytest.raises(ConfigError, match="not found"):
        load_config(tmp_path / "absent.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{nope")
    with pytest.raises(ConfigError, match="malformed"):
        load_config(bad)
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="must be an object"):
        load_config(arr)


@pytest.mark.parametrize("overrides, message", [
    ({"index.batch_size": "0"}, "batch_size"),
    ({"parallelism": "0"}, "parallelism"),
    ({"train.target": "member"}, "train.target"),
    ({"predict.threshold": "0.9"}, "predict.threshold"),
    ({"lineup.seed": "abc"}, "lineup.seed"),
    ({"curation.blur_threshold": "x"}, "curation.blur_threshold"),
    ({"hook.timeout": "-5"}, "hook.timeout"),
    ({"hook.timeout": "0"}, "hook.timeout"),
    ({"hook.failure_threshold": "-0.1"}, "hook.failure_threshold"),
    ({"hook.failure_threshold": "1.5"}, "hook.failure_threshold"),
    ({"train.seed": 1.5}, "train.seed"),
    ({"parallelism": True}, "parallelism"),
    ({"lineup.distinct_fillers": 1}, "lineup.distinct_fillers"),
    ({"curation.dark_threshold": False}, "curation.dark_threshold"),
    ({"predict.threshold": [0.5]}, "predict.threshold"),
    ({"paths.images": 7}, "paths.images"),
    ({"paths.output": None}, "paths.output"),
    ({"train.estimators": "0"}, "train.estimators"),
    ({"train.estimators": "-3"}, "train.estimators"),
    ({"train.seed": "-1"}, "train.seed"),
    ({"hook.timeout": "inf"}, "hook.timeout"),
    ({"hook.timeout": "1e7"}, "hook.timeout"),
    ({"curation.dark_threshold": "nan"}, "curation.dark_threshold"),
    ({"curation.bright_threshold": "nan"}, "curation.bright_threshold"),
    ({"curation.blur_threshold": "nan"}, "curation.blur_threshold"),
])
def test_config_validation_errors(overrides, message, tmp_path):
    with pytest.raises(ConfigError, match=message):
        load_config(None, overrides)
    # The same value inside a config file fails the same way.
    nested = {}
    for dotted, value in overrides.items():
        *sections, leaf = dotted.split(".")
        node = nested
        for section in sections:
            node = node.setdefault(section, {})
        node[leaf] = value
    path = tmp_path / "config.json"
    path.write_text(json.dumps(nested))
    with pytest.raises(ConfigError, match=message):
        load_config(path)


def test_config_value_parsing():
    assert load_config(None, {"lineup.distinct_fillers": "yes"}).distinct_fillers is True
    assert load_config(None, {"lineup.distinct_fillers": "0"}).distinct_fillers is False
    assert load_config(None, {"predict.threshold": "none"}).threshold_override is None
    assert load_config(None, {"predict.threshold": "0.30"}).threshold_override == 0.30
    with pytest.raises(ConfigError, match="boolean"):
        load_config(None, {"lineup.distinct_fillers": "maybe"})
    # Non-string values of the leaf's own type, and null where it defaults
    # to null, are taken as they are.
    config = load_config(None, {"curation.dark_threshold": 25, "predict.threshold": None,
                                "paths.model": None, "train.seed": 3})
    assert (config.dark_threshold, config.threshold_override) == (25, None)
    assert (config.model, config.train_seed) == (None, 3)


def test_output_guard_removes_tracked_files_on_failure(tmp_path):
    """Writes go to a temp file: an interrupted run removes it and keeps the
    previous artifact, a clean run moves it onto the final name."""
    target = tmp_path / "artifact.txt"
    target.write_text("previous")
    with pytest.raises(KeyboardInterrupt):
        with artifacts.OutputGuard() as guard:
            guard.track(target).write_text("partial")
            raise KeyboardInterrupt
    assert target.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    with artifacts.OutputGuard() as guard:
        temp = guard.track(target)
        assert temp != target
        temp.write_text("complete")
    assert target.read_text() == "complete"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]


# ---------------------------------------------------------------------------
# Restoration hook


def test_hook_requires_both_placeholders():
    with pytest.raises(ConfigError, match="placeholders"):
        RestorationHook("restore.sh {input}")
    with pytest.raises(ConfigError, match="placeholders"):
        RestorationHook("restore.sh {output}")
    # A template that shell-style splitting cannot parse fails here, not
    # when the first image is restored.
    with pytest.raises(ConfigError, match="No closing quotation"):
        RestorationHook('cp "{input} {output}')


def test_hook_copies_image(tmp_path):
    src = tmp_path / "in.pgm"
    src.write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    dst = tmp_path / "out.pgm"
    record = RestorationHook("cp {input} {output}").run("img", src, dst)
    assert record.ok and record.detail == "exit 0"
    assert dst.read_bytes() == src.read_bytes()


def test_hook_reports_nonzero_exit(tmp_path):
    script = tmp_path / "fail.sh"
    script.write_text("#!/bin/sh\nexit 7\n")
    record = RestorationHook(f"sh {script} {{input}} {{output}}").run(
        "img", tmp_path / "a", tmp_path / "b"
    )
    assert not record.ok
    assert record.detail == "exit 7"


def test_hook_times_out(tmp_path):
    script = tmp_path / "slow.sh"
    script.write_text("#!/bin/sh\nsleep 5\n")
    hook = RestorationHook(f"sh {script} {{input}} {{output}}", timeout=0.2)
    record = hook.run("img", tmp_path / "a", tmp_path / "b")
    assert not record.ok
    assert "timeout" in record.detail


def test_hook_spawn_failure(tmp_path):
    hook = RestorationHook("/no/such/binary {input} {output}")
    record = hook.run("img", tmp_path / "a", tmp_path / "b")
    assert not record.ok
    assert "spawn failed" in record.detail


def test_run_hook_rejects_ids_that_leave_their_directory(tmp_path):
    images = tmp_path / "images"
    images.mkdir()
    (tmp_path / "escape.pgm").write_bytes(b"P5\n3 3\n255\n" + bytes(9))
    config = PipelineConfig(images=str(images), output=str(tmp_path / "out"))
    with pytest.raises(DataError, match="escape"):
        pipeline.run_hook(config, RestorationHook("cp {input} {output}"), ["../escape"])
    assert not (tmp_path / "out" / "escape.pgm").exists()


# ---------------------------------------------------------------------------
# Synthetic workspace
#
# 30 identities x 4 images, dim 16. Identities 0-23 are tightly clustered, so
# their lineups succeed; 24-29 are diffuse and fail. Failure sources get dark
# images, success sources bright ones, so image features can predict the
# lineup outcome.

CLUSTERED = 24
IDENTITIES = 30
PER_IDENTITY = 4
DIM = 16


def _image_ids():
    return [
        (f"s{pid:02d}x{j}", f"s{pid:02d}", pid)
        for pid in range(IDENTITIES)
        for j in range(PER_IDENTITY)
    ]


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("pipeline_ws")
    rng = np.random.default_rng(4047)
    bases = {pid: rng.normal(size=DIM) for pid in range(IDENTITIES)}
    for base in bases.values():
        base /= np.linalg.norm(base)

    vectors = {}
    images_dir = root / "images"
    images_dir.mkdir()
    landmark_lines = []
    for image_id, identity, pid in _image_ids():
        if pid < CLUSTERED:
            vectors[image_id] = bases[pid] + 0.03 * rng.normal(size=DIM)
            pixels = rng.integers(120, 230, size=(24, 24), dtype=np.uint8)
        else:
            vectors[image_id] = rng.normal(size=DIM)
            pixels = rng.integers(10, 40, size=(24, 24), dtype=np.uint8)
        write_pgm(ImageGray(24, 24, pixels), images_dir / f"{image_id}.pgm")
        landmark_lines.append(json.dumps({
            "image_id": image_id,
            "points": rng.uniform(2.0, 22.0, size=(68, 2)).tolist(),
            "face_count": 1,
        }))

    # Restoration pulls each diffuse identity's members toward the identity
    # centroid, so re-ranking sees a mix of improvements and conversions.
    centroids = {
        pid: np.mean([vectors[i] for i, _, p in _image_ids() if p == pid], axis=0)
        for pid in range(IDENTITIES)
    }
    original, restored = [], []
    for image_id, identity, pid in _image_ids():
        vec = vectors[image_id]
        if pid < CLUSTERED:
            fixed = 0.98 * vec + 0.02 * bases[pid]
        else:
            fixed = 0.15 * vec + 0.85 * centroids[pid]
        original.append({"image_id": image_id, "identity_id": identity,
                         "vector": vec.tolist()})
        restored.append({"image_id": image_id, "identity_id": identity,
                         "vector": fixed.tolist()})

    original_path = root / "original.jsonl"
    restored_path = root / "restored.jsonl"
    original_path.write_text("".join(json.dumps(r) + "\n" for r in original))
    restored_path.write_text("".join(json.dumps(r) + "\n" for r in restored))
    (root / "landmarks.jsonl").write_text("".join(l + "\n" for l in landmark_lines))

    config_path = root / "config.json"
    config_path.write_text(json.dumps({
        "paths": {
            "embeddings_original": str(original_path),
            "embeddings_restored": str(restored_path),
            "images": str(images_dir),
            "landmarks": str(root / "landmarks.jsonl"),
            "output": str(root / "out"),
        },
        "train": {"estimators": 8},
    }))

    ok_hook = root / "ok_hook.sh"
    ok_hook.write_text("#!/bin/sh\ncp \"$1\" \"$2\"\n")
    fail_hook = root / "fail_hook.sh"
    fail_hook.write_text("#!/bin/sh\nexit 1\n")
    return SimpleNamespace(
        root=root, config=config_path, out=root / "out", images=images_dir,
        original=original_path, restored=restored_path,
        ok_hook=ok_hook, fail_hook=fail_hook,
    )


@pytest.fixture(scope="module")
def chain(workspace):
    """Run the whole command chain once; tests assert on the snapshots."""
    base = ["--config", str(workspace.config)]
    out = workspace.out
    codes = {}

    def snap(*names):
        return {name: (out / name).read_bytes() for name in names}

    codes["ingest"] = cli.main(["ingest", *base, "--format", "binary"])
    codes["curate"] = cli.main(["curate", *base])
    codes["index"] = cli.main(["index", *base])
    codes["evaluate"] = cli.main(["evaluate", *base])
    codes["features"] = cli.main(["features", *base])
    codes["train"] = cli.main(["train", *base])
    codes["predict"] = cli.main(["predict", *base])

    ok_command = f"sh {workspace.ok_hook} {{input}} {{output}}"
    codes["restore"] = cli.main(["restore", *base, "--hook.command", ok_command])
    restore_ok = snap(COMPARISON_FILE, HOOK_STATUS_FILE,
                      OUTCOMES_TP_FILE, OUTCOMES_FP_FILE, RANK_CHANGES_FILE)

    codes["compare"] = cli.main(["compare", *base])
    compare_all = snap(COMPARISON_FILE, OUTCOMES_TP_FILE, OUTCOMES_FP_FILE,
                       RANK_CHANGES_FILE)

    codes["report"] = cli.main(["report", *base])
    rerendered = snap(OUTCOMES_TP_FILE, OUTCOMES_FP_FILE, RANK_CHANGES_FILE)

    fail_command = f"sh {workspace.fail_hook} {{input}} {{output}}"
    codes["restore_failing"] = cli.main(["restore", *base, "--hook.command", fail_command])
    restore_failed = snap(COMPARISON_FILE, HOOK_STATUS_FILE,
                          OUTCOMES_TP_FILE, OUTCOMES_FP_FILE)

    codes["restore_strict"] = cli.main([
        "restore", *base, "--hook.command", fail_command,
        "--hook.failure_threshold", "0.0",
    ])

    return SimpleNamespace(
        ws=workspace, out=out, codes=codes,
        restore_ok=restore_ok, compare_all=compare_all,
        rerendered=rerendered, restore_failed=restore_failed,
    )


def test_chain_exit_codes(chain):
    expected = {name: 0 for name in chain.codes}
    expected["restore_strict"] = 3  # every hook call fails, threshold 0
    assert chain.codes == expected


def test_ingest_and_curate_artifacts(chain):
    binary = ingest_embeddings(chain.out / "embeddings.bin")
    assert binary.count == IDENTITIES * PER_IDENTITY
    assert binary.dim == DIM

    report = json.loads((chain.out / CURATION_REPORT_FILE).read_text())
    dark = (IDENTITIES - CLUSTERED) * PER_IDENTITY
    assert report["counts"] == {TOO_DARK: dark}
    assert report["retained"] == IDENTITIES * PER_IDENTITY - dark
    curated = ingest_embeddings(chain.out / CURATED_FILE)
    assert curated.count == report["retained"]


def _outcomes(chain) -> dict:
    """source id -> lineup success, parsed from the results CSV."""
    lines = (chain.out / RESULTS_FILE).read_text().strip().splitlines()[1:]
    return {sid: flag == "true" for sid, _, flag in (l.split(",") for l in lines)}


def test_evaluate_artifacts(chain):
    summary = json.loads((chain.out / SUMMARY_FILE).read_text())
    outcomes = _outcomes(chain)
    assert summary["lineups"] == IDENTITIES * PER_IDENTITY
    assert summary["skipped"] == []
    # tight identity clusters always rank their own probe first
    assert all(outcomes[i] for i, _, pid in _image_ids() if pid < CLUSTERED)
    failures = sum(not ok for ok in outcomes.values())
    assert failures >= 20  # the diffuse identities fail almost always
    assert summary["successes"] == sum(outcomes.values())
    assert summary["accuracy"] == pytest.approx(sum(outcomes.values()) / len(outcomes))
    manifest_rows = (chain.out / MANIFEST_FILE).read_text().strip().splitlines()
    assert len(manifest_rows) == summary["lineups"]


def test_evaluate_is_deterministic(workspace, chain, tmp_path):
    config = load_config(workspace.config)
    runs = []
    for name in ("a", "b"):
        run_config = replace(config, output=str(tmp_path / name))
        pipeline.run_evaluate(run_config)
        runs.append({
            f: (tmp_path / name / f).read_bytes()
            for f in (MANIFEST_FILE, RESULTS_FILE, SUMMARY_FILE)
        })
    assert runs[0] == runs[1]
    for name in (MANIFEST_FILE, RESULTS_FILE):
        assert runs[0][name] == (chain.out / name).read_bytes()


def test_failed_evaluate_rerun_keeps_previous_artifacts(workspace, tmp_path, monkeypatch):
    config = replace(load_config(workspace.config), output=str(tmp_path / "out"))
    pipeline.run_evaluate(config)
    names = (MANIFEST_FILE, RESULTS_FILE, SUMMARY_FILE)
    first = {name: config.out(name).read_bytes() for name in names}

    def write_half_then_fail(results, path):
        Path(path).write_text("source_id,probe_rank,success\n")
        raise RuntimeError("disk full")

    monkeypatch.setattr(search_stages, "write_results_csv", write_half_then_fail)
    with pytest.raises(RuntimeError, match="disk full"):
        pipeline.run_evaluate(replace(config, lineup_seed=config.lineup_seed + 1))
    assert {name: config.out(name).read_bytes() for name in names} == first
    assert sorted(p.name for p in (tmp_path / "out").iterdir()) == sorted(names)


def test_features_rows_keyed_by_lineup_source(chain):
    ids, labels, matrix = read_feature_csv(chain.out / FEATURES_FILE)
    assert sorted(ids) == sorted(i for i, _, _ in _image_ids())
    assert matrix.shape == (IDENTITIES * PER_IDENTITY, 42 + DIM)
    outcomes = _outcomes(chain)
    for image_id, label in zip(ids, labels):
        assert label == (0 if outcomes[image_id] else 1)


def test_features_per_image_mode_without_manifest(workspace, tmp_path):
    config = replace(load_config(workspace.config), output=str(tmp_path / "solo"))
    path = pipeline.run_features(config)
    ids, labels, matrix = read_feature_csv(path)
    assert list(ids) == sorted(i for i, _, _ in _image_ids())
    assert set(labels.tolist()) == {0}  # no results to label against


def test_features_parallel_matches_serial(workspace):
    config = load_config(workspace.config)
    handle = ingest_embeddings(workspace.original)
    landmarks = ingest_landmarks(workspace.root / "landmarks.jsonl")
    targets = sorted(handle.ids)[:8]
    serial = pipeline.extract_features(config, handle, landmarks, targets)
    threaded = pipeline.extract_features(
        replace(config, parallelism=3), handle, landmarks, targets
    )
    assert serial.shape == (8, DIM + 42)
    assert np.array_equal(serial, threaded)


def test_features_probe_target_mode(workspace, chain, tmp_path):
    probe_out = tmp_path / "probe_out"
    probe_out.mkdir()
    for name in (MANIFEST_FILE, RESULTS_FILE):
        shutil.copy(chain.out / name, probe_out / name)
    config = replace(load_config(workspace.config), output=str(probe_out), target="probe")
    pipeline.run_features(config)
    ids_probe, _, matrix_probe = read_feature_csv(probe_out / FEATURES_FILE)
    ids_source, _, matrix_source = read_feature_csv(chain.out / FEATURES_FILE)
    assert list(ids_probe) == list(ids_source)  # still keyed by source
    assert not np.array_equal(matrix_probe, matrix_source)


# sha256 of the features.csv that ``run_features`` writes on the workspace,
# recorded before feature rows became one (ids, labels, matrix) triple.
FEATURES_CSV_DIGESTS = {
    "source": "7add2d45cf629b7f40388a1d2e84683ca53104ebc3db6dc0bef19db381c1b634",
    "probe": "9ab5ce955566f1ff4dcc1cbe88dab596b6c508864300a8358dea8ab0f86af180",
    "per_image": "238d568aaaceac0112056057b73ee0d7ea70845a2c93934f3d9444b97039c09f",
}


@pytest.mark.parametrize("mode", sorted(FEATURES_CSV_DIGESTS))
def test_features_csv_bytes_are_pinned(workspace, chain, tmp_path, mode):
    out = tmp_path / "out"
    out.mkdir()
    if mode != "per_image":
        for name in (MANIFEST_FILE, RESULTS_FILE):
            shutil.copy(chain.out / name, out / name)
    config = replace(load_config(workspace.config), output=str(out),
                     target="probe" if mode == "probe" else "source")
    path = pipeline.run_features(config)
    assert hashlib.sha256(path.read_bytes()).hexdigest() == FEATURES_CSV_DIGESTS[mode]
    # what read_feature_csv returns, written back, is the same file
    again = tmp_path / "again.csv"
    write_feature_csv(*read_feature_csv(path), again)
    assert again.read_bytes() == path.read_bytes()


def test_train_artifacts(chain):
    from lineuplab.failpred import THRESHOLD_GRID, load_model

    model = load_model(chain.out / MODEL_FILE)
    assert any(model.threshold == float(t) for t in THRESHOLD_GRID)
    assert all(c.config.n_estimators == 8
               for c in model.precision_models + model.recall_models)
    report = json.loads((chain.out / TRAIN_REPORT_FILE).read_text())
    assert len(report["grid_scores"]) == 50
    assert report["threshold"] == model.threshold


def test_predictions_csv(chain):
    lines = (chain.out / PREDICTIONS_FILE).read_text().strip().splitlines()
    assert lines[0] == "source_id,probability,predicted_failure"
    assert len(lines) == 1 + IDENTITIES * PER_IDENTITY
    flagged = set()
    for line in lines[1:]:
        sid, prob, decision = line.split(",")
        assert 0.0 <= float(prob) <= 1.0
        assert decision in ("true", "false")
        if decision == "true":
            flagged.add(sid)
    # dark source images mark exactly the failing lineups
    expected = {i for i, _, pid in _image_ids() if pid >= CLUSTERED}
    assert flagged == expected


def test_predictions_csv_quotes_ids(chain, tmp_path):
    ids, labels, matrix = read_feature_csv(chain.out / FEATURES_FILE)
    ids[0] = 'a,"b'
    write_feature_csv(ids, labels, matrix, tmp_path / FEATURES_FILE)
    config = PipelineConfig(output=str(tmp_path), model=str(chain.out / MODEL_FILE))
    pipeline.run_predict(config)
    with open(tmp_path / PREDICTIONS_FILE, newline="") as fh:
        rows = list(csv.reader(fh))
    assert [row[0] for row in rows[1:]] == ids
    assert all(len(row) == 3 for row in rows)
    # every other line, header included, is byte-identical to the plain-id run
    got = (tmp_path / PREDICTIONS_FILE).read_text().splitlines()
    want = (chain.out / PREDICTIONS_FILE).read_text().splitlines()
    assert got[:1] + got[2:] == want[:1] + want[2:]


def test_restore_with_working_hook(chain):
    status = json.loads(chain.restore_ok[HOOK_STATUS_FILE])
    assert status["failed"] == 0
    assert status["total"] > 0
    payload = json.loads(chain.restore_ok[COMPARISON_FILE])
    assert payload["failed"] == []
    flagged = (IDENTITIES - CLUSTERED) * PER_IDENTITY
    assert len(payload["per_lineup"]) == flagged
    # the hook copied each member image verbatim
    member = json.loads(chain.restore_ok[COMPARISON_FILE])["per_lineup"][0]["source"]
    restored_dir = chain.out / "restored_images"
    copies = list(restored_dir.glob("*.pgm"))
    assert len(copies) == status["total"]
    sample = copies[0]
    assert sample.read_bytes() == (chain.ws.images / sample.name).read_bytes()
    assert member  # flagged lineup ids are recorded


def test_restore_improves_failing_lineups(chain):
    payload = json.loads(chain.restore_ok[COMPARISON_FILE])
    table = payload["true_positive_table"]
    fp_table = payload["false_positive_table"]
    assert table["improvements"] > 0
    assert table["improvements"] >= table["degradations"]
    assert table["total"] + fp_table["total"] == len(payload["per_lineup"])
    assert all(r["rank_before"] - r["rank_after"] == r["change"]
               for r in payload["per_lineup"])
    assert any(r["change"] > 0 for r in payload["per_lineup"])


def test_compare_covers_every_lineup(chain):
    payload = json.loads(chain.compare_all[COMPARISON_FILE])
    assert len(payload["per_lineup"]) + len(payload["failed"]) == IDENTITIES * PER_IDENTITY
    assert payload["failed"] == []
    histogram_total = sum(h["count"] for h in payload["histogram"])
    assert histogram_total == len(payload["per_lineup"])
    outcomes = _outcomes(chain)
    tp, fp = payload["true_positive_table"], payload["false_positive_table"]
    assert tp["total"] + fp["total"] == IDENTITIES * PER_IDENTITY
    assert fp["total"] == sum(outcomes.values())  # before-successes
    assert tp["total"] == sum(not ok for ok in outcomes.values())


def test_report_rerenders_byte_identical(chain):
    for name in (OUTCOMES_TP_FILE, OUTCOMES_FP_FILE, RANK_CHANGES_FILE):
        assert chain.rerendered[name] == chain.compare_all[name]


def test_failing_hook_counts_failed_restorations(chain):
    # default failure threshold 1.0: a broken hook degrades to accounting
    status = json.loads(chain.restore_failed[HOOK_STATUS_FILE])
    assert status["failed"] == status["total"] > 0
    payload = json.loads(chain.restore_failed[COMPARISON_FILE])
    flagged = {i for i, _, pid in _image_ids() if pid >= CLUSTERED}
    assert payload["per_lineup"] == []
    assert set(payload["failed"]) == flagged
    outcomes = _outcomes(chain)
    tp_failed = sum(not outcomes[s] for s in flagged)
    table = payload["true_positive_table"]
    assert table["failed_restorations"] == table["total"] == tp_failed
    fp_table = payload["false_positive_table"]
    assert tp_failed + fp_table["failed_restorations"] == len(flagged)
    text = chain.restore_failed[OUTCOMES_TP_FILE].decode()
    assert f"Failed Restoration,{tp_failed},100.0" in text


def _restore_args(chain, out: Path) -> list[str]:
    """CLI arguments for a restore into ``out``, seeded with the chain's
    lineups, results, features and model."""
    out.mkdir()
    for name in (MANIFEST_FILE, RESULTS_FILE, FEATURES_FILE, MODEL_FILE):
        shutil.copy(chain.out / name, out / name)
    return ["restore", "--config", str(chain.ws.config), "--paths.output", str(out)]


def test_partial_hook_failure_fails_exactly_the_lineups_holding_that_image(chain, tmp_path):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    lineups = {lu.source: lu for lu in read_lineup_manifest(out / MANIFEST_FILE)}
    flagged = sorted(i for i, _, pid in _image_ids() if pid >= CLUSTERED)
    bad = lineups[flagged[0]].fillers[0]
    hook = tmp_path / "one_fails.sh"
    hook.write_text(f'#!/bin/sh\ncase "$1" in */{bad}.pgm) exit 1;; esac\ncp "$1" "$2"\n')
    assert cli.main([*args, "--hook.command", f"sh {hook} {{input}} {{output}}"]) == 0

    status = json.loads((out / HOOK_STATUS_FILE).read_text())
    assert [r["image_id"] for r in status["records"] if not r["ok"]] == [bad]
    payload = json.loads((out / COMPARISON_FILE).read_text())
    holding = [s for s in flagged if bad in lineups[s].members]
    assert 0 < len(holding) < len(flagged)
    assert payload["failed"] == holding
    original = ingest_embeddings(chain.ws.original)
    restored = ingest_embeddings(chain.ws.restored)
    per_lineup = {r["source"]: r["rank_after"] for r in payload["per_lineup"]}
    assert sorted(per_lineup) == [s for s in flagged if s not in holding]
    for source, rank_after in per_lineup.items():
        lu = lineups[source]
        members = {m: restored.vector(m) for m in lu.members}
        assert rank_after == oracles.rescore_lineup(original.vector(source), members, lu.probe)


def test_failed_restore_keeps_previous_hook_status(chain, tmp_path):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    previous = b'{"previous": true}\n'
    (out / HOOK_STATUS_FILE).write_bytes(previous)
    malformed = tmp_path / "restored.jsonl"
    malformed.write_text('{"image_id": "a"}\n')
    code = cli.main([*args, "--hook.command", f"sh {chain.ws.ok_hook} {{input}} {{output}}",
                     "--paths.embeddings_restored", str(malformed)])
    assert code == 2
    assert (out / HOOK_STATUS_FILE).read_bytes() == previous
    assert not (out / COMPARISON_FILE).exists()


def test_restore_parses_reused_features_once(chain, tmp_path, monkeypatch):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    parsed = []

    def counting_read(path):
        parsed.append(Path(path).name)
        return read_feature_csv(path)

    monkeypatch.setattr(predictor_stages, "read_feature_csv", counting_read)
    assert cli.main([*args, "--hook.command",
                     f"sh {chain.ws.ok_hook} {{input}} {{output}}"]) == 0
    assert parsed == [FEATURES_FILE]
    # the same model on the same rows: predict's file, byte for byte
    assert (out / PREDICTIONS_FILE).read_bytes() == (chain.out / PREDICTIONS_FILE).read_bytes()

    # without features.csv, restore predicts from the rows it has just
    # written and parses nothing
    parsed.clear()
    fresh = tmp_path / "fresh"
    args = _restore_args(chain, fresh)
    (fresh / FEATURES_FILE).unlink()
    assert cli.main([*args, "--hook.command",
                     f"sh {chain.ws.ok_hook} {{input}} {{output}}"]) == 0
    assert parsed == []
    assert (fresh / FEATURES_FILE).read_bytes() == (chain.out / FEATURES_FILE).read_bytes()
    assert (fresh / PREDICTIONS_FILE).read_bytes() == (chain.out / PREDICTIONS_FILE).read_bytes()


# case -> (command, chain artifacts copied into the output directory)
READ_ONCE_CASES = {
    "ingest": ("ingest", ()),
    "curate": ("curate", ()),
    "index": ("index", ()),
    "evaluate": ("evaluate", ()),
    "features": ("features", (MANIFEST_FILE, RESULTS_FILE)),
    "train": ("train", (FEATURES_FILE,)),
    "predict": ("predict", (FEATURES_FILE, MODEL_FILE)),
    "compare": ("compare", (MANIFEST_FILE, RESULTS_FILE)),
    "report": ("report", (COMPARISON_FILE,)),
    "restore_reusing_all": ("restore", (MANIFEST_FILE, RESULTS_FILE, FEATURES_FILE)),
    "restore_without_features": ("restore", (MANIFEST_FILE, RESULTS_FILE)),
    "restore_fresh": ("restore", ()),
}


@pytest.mark.parametrize("case", list(READ_ONCE_CASES))
def test_each_command_reads_each_input_once(chain, tmp_path, monkeypatch, case):
    """Every file a command opens for reading is opened once, and none of
    them is a file the command has just written. ``ingest_embeddings``'s
    4-byte format sniff counts with the parse that follows it."""
    command, seeded = READ_ONCE_CASES[case]
    out = tmp_path / "out"
    out.mkdir()
    for name in seeded:
        shutil.copy(chain.out / name, out / name)
    args = [command, "--config", str(chain.ws.config), "--paths.output", str(out)]
    if command == "restore":
        args += ["--paths.model", str(chain.out / MODEL_FILE),
                 "--hook.command", f"sh {chain.ws.ok_hook} {{input}} {{output}}"]
    reads = Counter()
    real_open = io.open
    sniff = ingest_embeddings.__code__

    def counting_open(file, mode="r", *rest, **kwargs):
        if (isinstance(file, (str, os.PathLike)) and not set(mode) & set("wax+")
                and sys._getframe(1).f_code is not sniff):
            reads[Path(file)] += 1
        return real_open(file, mode, *rest, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    monkeypatch.setattr(io, "open", counting_open)
    assert cli.main(args) == 0
    monkeypatch.undo()
    assert {path: n for path, n in reads.items() if n > 1} == {}
    assert [path for path in reads if path.parent == out and path.name not in seeded] == []
    assert chain.ws.config in reads
    if command in ("ingest", "curate", "index", "evaluate", "features", "compare", "restore"):
        assert chain.ws.original in reads
    if case != "restore_reusing_all" and command in ("features", "restore"):
        assert chain.ws.root / "landmarks.jsonl" in reads


@pytest.mark.parametrize("stale", ["ids", "labels"])
def test_restore_rejects_stale_features(chain, tmp_path, capsys, stale):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    if stale == "ids":
        # lineups of the clustered identities only; features.csv still
        # holds a row for every source of the full corpus
        subset = tmp_path / "subset.jsonl"
        subset.write_text("".join(
            line for line in chain.ws.original.read_text().splitlines(keepends=True)
            if int(json.loads(line)["identity_id"][1:]) < CLUSTERED
        ))
        assert cli.main(["evaluate", "--config", str(chain.ws.config),
                         "--paths.output", str(out),
                         "--paths.embeddings_original", str(subset)]) == 0
    else:
        ids, labels, matrix = read_feature_csv(out / FEATURES_FILE)
        labels[0] = 1 - labels[0]
        write_feature_csv(ids, labels, matrix, out / FEATURES_FILE)
    capsys.readouterr()
    assert cli.main([*args, "--hook.command",
                     f"sh {chain.ws.ok_hook} {{input}} {{output}}"]) == 2
    err = capsys.readouterr().err
    assert FEATURES_FILE in err and "rerun 'features'" in err
    assert not (out / COMPARISON_FILE).exists()


def test_no_eligible_sources_writes_empty_report(tmp_path, capsys):
    # two identities cannot provide five fillers outside the source identity
    corpus = tmp_path / "tiny.jsonl"
    rng = np.random.default_rng(3)
    rows = []
    for pid in range(2):
        for j in range(3):
            rows.append({"image_id": f"t{pid}_{j}", "identity_id": f"t{pid}",
                         "vector": rng.normal(size=4).tolist()})
    corpus.write_text("".join(json.dumps(r) + "\n" for r in rows))
    out = tmp_path / "out"
    code = cli.main([
        "evaluate",
        "--paths.embeddings_original", str(corpus),
        "--paths.output", str(out),
    ])
    assert code == 0
    assert "no eligible sources" in capsys.readouterr().out
    # every source was skipped, and the summary says why
    assert (out / SUMMARY_FILE).read_bytes() == (
        b'{\n  "accuracy": null,\n  "lineups": 0,\n  "message": "no eligible sources",\n'
        b'  "skipped": [\n'
        b'    [\n      "t0_0",\n'
        b'      "source \'t0_0\': only 3 images outside identity \'t0\', need 5 fillers"\n'
        b'    ],\n'
        b'    [\n      "t0_1",\n'
        b'      "source \'t0_1\': only 3 images outside identity \'t0\', need 5 fillers"\n'
        b'    ],\n'
        b'    [\n      "t0_2",\n'
        b'      "source \'t0_2\': only 3 images outside identity \'t0\', need 5 fillers"\n'
        b'    ],\n'
        b'    [\n      "t1_0",\n'
        b'      "source \'t1_0\': only 3 images outside identity \'t1\', need 5 fillers"\n'
        b'    ],\n'
        b'    [\n      "t1_1",\n'
        b'      "source \'t1_1\': only 3 images outside identity \'t1\', need 5 fillers"\n'
        b'    ],\n'
        b'    [\n      "t1_2",\n'
        b'      "source \'t1_2\': only 3 images outside identity \'t1\', need 5 fillers"\n'
        b'    ]\n'
        b'  ],\n  "sources_total": 6,\n  "successes": 0\n}\n'
    )
    assert (out / RESULTS_FILE).read_bytes() == b"source_id,probe_rank,success\n"
    assert (out / MANIFEST_FILE).read_bytes() == b""
    # an empty manifest leaves no feature rows to write
    (tmp_path / "images").mkdir()
    (tmp_path / "landmarks.jsonl").write_text("")
    code = cli.main([
        "features",
        "--paths.embeddings_original", str(corpus),
        "--paths.images", str(tmp_path / "images"),
        "--paths.landmarks", str(tmp_path / "landmarks.jsonl"),
        "--paths.output", str(out),
    ])
    assert code == 2
    assert "no feature vectors to write" in capsys.readouterr().err
    assert not (out / FEATURES_FILE).exists()


# ---------------------------------------------------------------------------
# Outcome CSV rendering


def test_outcome_csv_layout(tmp_path):
    table = OutcomeTable(
        improvements=2, degradations=1, unchanged=2, success_conversions=1,
        failed_restorations=1, total=6,
        percentages={
            "improvements": 100 * 2 / 6, "degradations": 100 / 6,
            "unchanged": 100 * 2 / 6, "success_conversions": 100 / 6,
            "failed_restorations": 100 / 6,
        },
        mean_improvement=2.0, mean_degradation=1.0,
    )
    path = write_outcome_csv(table, tmp_path / "outcomes.csv")
    assert path.read_text() == (
        "category,count,percentage\n"
        "Rank Improvements,2,33.3\n"
        "Rank Degradations,1,16.7\n"
        "Rank Unchanged,2,33.3\n"
        "Success Conversions (Rank 0),1,16.7\n"
        "Failed Restoration,1,16.7\n"
        "Total Analyzed,6,100.0\n"
    )


def test_outcome_csv_empty_table(tmp_path):
    table = OutcomeTable(0, 0, 0, 0, 0, 0,
                         {k: 0.0 for k in ("improvements", "degradations", "unchanged",
                                           "success_conversions", "failed_restorations")},
                         0.0, 0.0)
    text = write_outcome_csv(table, tmp_path / "empty.csv").read_text()
    assert text.endswith("Total Analyzed,0,0.0\n")


# ---------------------------------------------------------------------------
# CLI exit codes


def test_cli_usage_error_exits_1(capsys):
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["not-a-command"])
    assert excinfo.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: lineuplab [-h] COMMAND ...")
    assert "argument COMMAND: invalid choice: 'not-a-command' (choose from" in err


def test_cli_config_error_exits_1(capsys):
    assert cli.main(["evaluate"]) == 1  # no embeddings path configured
    assert "error:" in capsys.readouterr().err
    assert cli.main(["evaluate", "--lineup.seed", "abc"]) == 1
    assert "lineup.seed" in capsys.readouterr().err


def _exit_code(argv) -> int:
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    return excinfo.value.code


def test_cli_help_lists_every_command(capsys):
    assert _exit_code(["--help"]) == 0
    out = capsys.readouterr().out
    assert [name for name in cli.COMMANDS if not re.search(rf"^ +{name} ", out, re.M)] == []
    assert ("Build forensic face lineups, predict their failures, measure restoration."
            in " ".join(out.split()))


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_command_help_lists_every_leaf_flag(capsys, command):
    assert _exit_code([command, "--help"]) == 0
    out = capsys.readouterr().out
    flags = ["--config", *(f"--{dotted}" for dotted in CONFIG_LEAVES)]
    assert [flag for flag in flags if flag not in out] == []
    assert ("--format" in out) == (command == "ingest")


@pytest.mark.parametrize("command", list(cli.COMMANDS))
def test_cli_rejects_flags_the_command_does_not_take(capsys, command):
    assert _exit_code([command, "--no-such-flag", "1"]) == 1
    assert "lineuplab: error: unrecognized arguments: --no-such-flag 1" in capsys.readouterr().err
    if command != "ingest":
        assert _exit_code([command, "--format", "jsonl"]) == 1
        assert "unrecognized arguments: --format jsonl" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# What each command imports

_LEARNING_MODULES = ("lineuplab.failpred", "lineuplab.imgfeat", "lineuplab.filters",
                     "subprocess", "concurrent.futures")
_SEARCH_MODULES = ("lineuplab.simindex", "lineuplab.lineup", "lineuplab.report")
# the predictor commands read the feature CSV and the model, nothing else
_NOT_PREDICTOR_MODULES = ("lineuplab.imgfeat.features", "lineuplab.filters", "lineuplab.corpus",
                          "subprocess", "concurrent.futures", "numpy.ma") + _SEARCH_MODULES

# command -> (modules it must load, modules it must not load)
_COMMAND_IMPORTS = {
    "ingest": ((), _LEARNING_MODULES + _SEARCH_MODULES),
    "curate": (("lineuplab.filters",),
               ("lineuplab.failpred", "lineuplab.imgfeat") + _SEARCH_MODULES),
    "index": ((), _LEARNING_MODULES),
    "evaluate": ((), _LEARNING_MODULES),
    "features": (("lineuplab.imgfeat",), ("lineuplab.failpred", "subprocess")),
    "train": (("lineuplab.failpred",), _NOT_PREDICTOR_MODULES),
    "predict": (("lineuplab.failpred",), _NOT_PREDICTOR_MODULES),
    "restore": (("lineuplab.failpred", "subprocess"), ()),
    "compare": ((), _LEARNING_MODULES),
    "report": ((), ("numpy",)),
}

_LIST_MODULES = """\
import json, sys
from lineuplab import cli
code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(sys.modules)]))
"""


@pytest.fixture(scope="module")
def command_modules(workspace, tmp_path_factory):
    """Each command of the chain, run in a fresh interpreter: its exit code
    and the modules loaded when it returned."""
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    out = tmp_path_factory.mktemp("imports") / "out"
    base = ["--config", str(workspace.config), "--paths.output", str(out),
            "--train.estimators", "2"]
    hook = ["--hook.command", f"sh {workspace.ok_hook} {{input}} {{output}}"]
    runs = {}
    for command in _COMMAND_IMPORTS:
        argv = [command, *base, *(hook if command == "restore" else [])]
        proc = subprocess.run([sys.executable, "-c", _LIST_MODULES, *argv],
                              capture_output=True, text=True, env=env, check=False)
        assert proc.returncode == 0, proc.stderr
        code, modules = json.loads(proc.stdout.splitlines()[-1])
        runs[command] = code, set(modules)
    return runs


@pytest.mark.parametrize("command", list(_COMMAND_IMPORTS))
def test_each_command_imports_only_what_it_runs(command_modules, command):
    code, modules = command_modules[command]
    loaded, not_loaded = _COMMAND_IMPORTS[command]
    assert code == 0
    assert [name for name in loaded if name not in modules] == []
    assert [name for name in not_loaded if name in modules] == []


def test_cli_train_creates_the_model_directory(chain, tmp_path):
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(chain.out / FEATURES_FILE, out / FEATURES_FILE)
    model_path = tmp_path / "models" / "new" / MODEL_FILE
    code = cli.main(["train", "--config", str(chain.ws.config), "--paths.output", str(out),
                     "--paths.model", str(model_path)])
    assert code == 0
    assert load_model(model_path).threshold == load_model(chain.out / MODEL_FILE).threshold


@pytest.mark.parametrize("label", ["2", "300", "-1", "1_0"])
def test_cli_train_rejects_labels_other_than_0_and_1(chain, tmp_path, capsys, label):
    out = tmp_path / "out"
    out.mkdir()
    lines = (chain.out / FEATURES_FILE).read_text().splitlines(keepends=True)
    image_id, _, rest = lines[3].split(",", 2)
    lines[3] = f"{image_id},{label},{rest}"
    (out / FEATURES_FILE).write_text("".join(lines))
    code = cli.main(["train", "--config", str(chain.ws.config), "--paths.output", str(out)])
    assert code == 2
    assert f"{FEATURES_FILE}:4: label must be 0 or 1" in capsys.readouterr().err
    assert not (out / MODEL_FILE).exists()


@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
@pytest.mark.parametrize("command", ["train", "predict"])
def test_cli_rejects_non_finite_features(chain, tmp_path, capsys, command, value):
    out = tmp_path / "out"
    out.mkdir()
    lines = (chain.out / FEATURES_FILE).read_text().splitlines(keepends=True)
    cells = lines[3].split(",")
    cells[5] = value
    lines[3] = ",".join(cells)
    (out / FEATURES_FILE).write_text("".join(lines))
    args = [command, "--config", str(chain.ws.config), "--paths.output", str(out)]
    if command == "predict":
        args += ["--paths.model", str(chain.out / MODEL_FILE)]
    assert cli.main(args) == 2
    assert (f"{FEATURES_FILE}: non-finite feature value in row {cells[0]!r}"
            in capsys.readouterr().err)
    assert sorted(p.name for p in out.iterdir()) == [FEATURES_FILE]


def test_cli_data_error_exits_2(tmp_path, capsys):
    bad = tmp_path / "bad.jsonl"
    bad.write_text('{"image_id": "a"}\n')  # missing fields
    code = cli.main([
        "evaluate",
        "--paths.embeddings_original", str(bad),
        "--paths.output", str(tmp_path / "out"),
    ])
    assert code == 2
    assert "data error:" in capsys.readouterr().err


def test_cli_index_rejects_overlong_id_exits_2(tmp_path, capsys):
    corpus = tmp_path / "long_id.jsonl"
    corpus.write_text("".join(
        json.dumps({"image_id": image_id, "identity_id": "p", "vector": [1.0, 0.0]}) + "\n"
        for image_id in ("a", "x" * 65_536)
    ))
    out = tmp_path / "out"
    code = cli.main(["index", "--paths.embeddings_original", str(corpus),
                     "--paths.output", str(out)])
    assert code == 2
    assert "65535" in capsys.readouterr().err
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("content", [
    b'{"per_lineup": [',
    b"{}",
    b'{"per_lineup": [{"source": "a"}], "failed": []}',
    b"\xff\xfe",
], ids=["truncated_json", "empty_object", "incomplete_record", "not_utf8"])
def test_cli_report_rejects_malformed_comparison_exits_2(tmp_path, capsys, content):
    out = tmp_path / "out"
    out.mkdir()
    (out / COMPARISON_FILE).write_bytes(content)
    assert cli.main(["report", "--paths.output", str(out)]) == 2
    assert "comparison.json" in capsys.readouterr().err
    assert [p.name for p in out.iterdir()] == [COMPARISON_FILE]


@pytest.mark.parametrize("field, value", [
    ("fillers", "abcde"),
    ("fillers", [1, 2, 3, 4, 5]),
    ("source", ["s00x0"]),
    ("source", {"id": "s00x0"}),
    ("probe", 7),
    ("seed", 1.9),
    ("seed", True),
], ids=["fillers_string", "fillers_numbers", "source_list", "source_object", "probe_number",
        "seed_float", "seed_bool"])
def test_compare_rejects_manifest_entries_of_the_wrong_type(chain, tmp_path, capsys,
                                                             field, value):
    out = tmp_path / "out"
    out.mkdir()
    manifest = (chain.out / MANIFEST_FILE).read_text().splitlines(keepends=True)
    manifest[1] = json.dumps({**json.loads(manifest[1]), field: value}) + "\n"
    (out / MANIFEST_FILE).write_text("".join(manifest))
    shutil.copy(chain.out / RESULTS_FILE, out / RESULTS_FILE)
    code = cli.main(["compare", "--config", str(chain.ws.config), "--paths.output", str(out)])
    assert code == 2
    assert f"{MANIFEST_FILE}:2: malformed lineup entry ('{field}' must be" in capsys.readouterr().err
    assert sorted(p.name for p in out.iterdir()) == [MANIFEST_FILE, RESULTS_FILE]


def _damage_model(payload: dict, edit: str) -> None:
    """One edit of a saved model: a tree reading a feature or child that does
    not exist, a child pointing at its own node, a boosted tree without
    values, a logistic coef or standardizer std of the wrong length, or a
    tree entry of the wrong JSON type (a fractional, string or boolean
    index; a string or boolean threshold or value), or a non-tree entry that
    is not a finite JSON number (a nan mean, an infinite coef, a string
    intercept or threshold, a boolean f0, a null learning rate, a fractional
    seed)."""
    learners = payload["cohorts"]["precision"] + payload["cohorts"]["recall"]
    params = {o["params"]["kind"]: o["params"] for o in learners}
    tree = params["boosted"]["trees"][0]
    node = next(i for i, f in enumerate(tree["feature"]) if f >= 0)
    if edit == "tree_feature":
        tree["feature"][node] = 9999
    elif edit == "tree_child":
        tree["left"][node] = 9999
    elif edit == "self_loop":
        tree["left"][node] = node
    elif edit == "boosted_value":
        tree["value"] = []
    elif edit == "logistic_coef":
        params["logistic"]["coef"] = params["logistic"]["coef"][:3]
    elif edit == "short_std":
        payload["standardizer"]["std"] = payload["standardizer"]["std"][:-1]
    elif edit == "feature_fraction":
        tree["feature"][node] += 0.7
    elif edit == "feature_string":
        tree["feature"][node] = str(tree["feature"][node])
    elif edit == "feature_bool":
        tree["feature"][node] = True
    elif edit == "child_bool":
        tree["left"][node] = True
    elif edit == "child_float":
        tree["right"][node] = float(tree["right"][node])
    elif edit == "threshold_string":
        tree["threshold"][node] = repr(tree["threshold"][node])
    elif edit == "mean_nan":
        payload["standardizer"]["mean"][0] = float("nan")
    elif edit == "coef_inf":
        params["logistic"]["coef"][0] = float("inf")
    elif edit == "intercept_string":
        params["logistic"]["intercept"] = repr(params["logistic"]["intercept"])
    elif edit == "f0_bool":
        params["boosted"]["f0"] = True
    elif edit == "learning_rate_null":
        params["boosted"]["learning_rate"] = None
    elif edit == "seed_fraction":
        payload["seed"] += 0.9
    elif edit == "model_threshold_string":
        payload["threshold"] = repr(payload["threshold"])
    else:
        tree["value"][tree["feature"].index(-1)] = True


@pytest.mark.parametrize("edit", ["tree_feature", "tree_child", "self_loop", "boosted_value",
                                  "logistic_coef", "short_std", "feature_fraction",
                                  "feature_string", "feature_bool", "child_bool",
                                  "child_float", "threshold_string", "value_bool",
                                  "mean_nan", "coef_inf", "intercept_string", "f0_bool",
                                  "learning_rate_null", "seed_fraction",
                                  "model_threshold_string"])
def test_damaged_model_is_refused_at_load(chain, tmp_path, capsys, edit):
    payload = json.loads((chain.out / MODEL_FILE).read_text())
    _damage_model(payload, edit)
    model = tmp_path / MODEL_FILE
    model.write_text(json.dumps(payload))
    with pytest.raises(DataError, match=f"{re.escape(str(model))}: .*rerun 'train'"):
        load_model(model)
    if edit == "self_loop":
        return  # predicting with this model would never return before the check
    out = tmp_path / "out"
    out.mkdir()
    shutil.copy(chain.out / FEATURES_FILE, out / FEATURES_FILE)
    code = cli.main(["predict", "--config", str(chain.ws.config), "--paths.output", str(out),
                     "--paths.model", str(model)])
    assert code == 2
    assert "rerun 'train'" in capsys.readouterr().err
    assert not (out / PREDICTIONS_FILE).exists()


@pytest.mark.parametrize("fault, code, message", [
    ("hook_placeholder", 1, "placeholders"),
    ("hook_quote", 1, "No closing quotation"),
    ("missing_images", 1, "paths.images: path does not exist"),
    ("missing_images_without_hook", 1, "paths.images: path does not exist"),
    ("missing_landmarks", 1, "paths.landmarks: path does not exist"),
    ("malformed_landmarks", 2, "landmarks.jsonl:1: missing field 'points'"),
    ("missing_model", 1, "model artifact not found"),
    ("damaged_model", 2, "rerun 'train'"),
    ("malformed_restored", 2, "restored.jsonl:1: missing field 'identity_id'"),
    ("restored_dimension", 2, f"dimension {DIM - 2}, the original corpus {DIM}"),
])
def test_restore_checks_its_inputs_before_committing(chain, tmp_path, capsys,
                                                      fault, code, message):
    # a fresh output directory: restore would first run evaluate and features
    out = tmp_path / "out"
    out.mkdir()
    model = chain.out / MODEL_FILE
    hook = f"sh {chain.ws.ok_hook} {{input}} {{output}}"
    extra = []
    if fault == "hook_placeholder":
        hook = "cp {input}"
    elif fault == "hook_quote":
        hook = 'cp "{input} {output}'
    elif fault.startswith("missing_images"):
        extra = ["--paths.images", str(tmp_path / "no_images")]
    elif fault == "missing_landmarks":
        extra = ["--paths.landmarks", str(tmp_path / "no_landmarks.jsonl")]
    elif fault == "malformed_landmarks":
        landmarks = tmp_path / "landmarks.jsonl"
        landmarks.write_text('{"image_id": "a"}\n')
        extra = ["--paths.landmarks", str(landmarks)]
    elif fault == "missing_model":
        model = tmp_path / "absent.json"
    elif fault == "malformed_restored":
        restored = tmp_path / "restored.jsonl"
        restored.write_text('{"image_id": "a"}\n')
        extra = ["--paths.embeddings_restored", str(restored)]
    elif fault == "restored_dimension":
        extra = ["--paths.embeddings_restored", str(_short_restored(chain, tmp_path))]
    else:
        payload = json.loads(model.read_text())
        _damage_model(payload, "tree_feature")
        model = tmp_path / MODEL_FILE
        model.write_text(json.dumps(payload))
    if fault != "missing_images_without_hook":
        extra += ["--hook.command", hook]
    assert cli.main(["restore", "--config", str(chain.ws.config), "--paths.output", str(out),
                     "--paths.model", str(model), *extra]) == code
    assert message in capsys.readouterr().err
    assert list(out.iterdir()) == []


# ---------------------------------------------------------------------------
# Input files that are not UTF-8


@pytest.mark.parametrize("read, error", [
    (ingest_embeddings, DataError),
    (ingest_landmarks, DataError),
    (read_lineup_manifest, DataError),
    (lambda path: read_results_csv(path, {}), DataError),
    (read_feature_csv, DataError),
    (load_model, DataError),
    (load_config, ConfigError),
], ids=["embeddings", "landmarks", "lineup_manifest", "results_csv", "feature_csv",
        "model", "config"])
def test_readers_reject_undecodable_bytes(tmp_path, read, error):
    path = tmp_path / "input.txt"
    path.write_bytes(b'{"image_id": "\xff\xfe"}\n')
    with pytest.raises(error, match=r"input\.txt: not UTF-8"):
        read(path)


# ---------------------------------------------------------------------------
# A restored corpus of another dimension


def _short_restored(chain, tmp_path) -> Path:
    """The workspace's restored corpus with two dimensions dropped."""
    path = tmp_path / "short.jsonl"
    rows = [json.loads(line) for line in chain.ws.restored.read_text().splitlines()]
    path.write_text("".join(json.dumps({**r, "vector": r["vector"][:-2]}) + "\n" for r in rows))
    return path


def test_compare_rejects_restored_corpus_of_another_dimension(chain, tmp_path, capsys):
    out = tmp_path / "out"
    out.mkdir()
    for name in (MANIFEST_FILE, RESULTS_FILE):
        shutil.copy(chain.out / name, out / name)
    code = cli.main(["compare", "--config", str(chain.ws.config), "--paths.output", str(out),
                     "--paths.embeddings_restored", str(_short_restored(chain, tmp_path))])
    assert code == 2
    assert f"dimension {DIM - 2}, the original corpus {DIM}" in capsys.readouterr().err
    assert not (out / COMPARISON_FILE).exists()


def test_restore_rejects_restored_corpus_of_another_dimension(chain, tmp_path, capsys):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    marker = tmp_path / "hook_ran"
    hook = tmp_path / "marking_hook.sh"
    hook.write_text(f'#!/bin/sh\ntouch "{marker}"\ncp "$1" "$2"\n')
    code = cli.main([*args, "--hook.command", f"sh {hook} {{input}} {{output}}",
                     "--paths.embeddings_restored", str(_short_restored(chain, tmp_path))])
    assert code == 2
    assert f"dimension {DIM - 2}, the original corpus {DIM}" in capsys.readouterr().err
    assert not marker.exists()
    assert not (out / COMPARISON_FILE).exists()
    assert not (out / HOOK_STATUS_FILE).exists()
    assert not (out / PREDICTIONS_FILE).exists()


def test_restore_rejects_zero_restored_vectors_without_committing(chain, tmp_path, capsys):
    out = tmp_path / "out"
    args = _restore_args(chain, out)
    zero = tmp_path / "zero.jsonl"
    rows = [json.loads(line) for line in chain.ws.restored.read_text().splitlines()]
    zero.write_text("".join(json.dumps({**r, "vector": [0.0] * len(r["vector"])}) + "\n"
                            for r in rows))
    assert cli.main([*args, "--paths.embeddings_restored", str(zero)]) == 2
    assert "cannot normalize zero vector" in capsys.readouterr().err
    for name in (PREDICTIONS_FILE, COMPARISON_FILE, RANK_CHANGES_FILE):
        assert not (out / name).exists()


@pytest.mark.parametrize("fault", ["repeated_result", "missing_result", "repeated_lineup"])
def test_compare_rejects_results_that_do_not_match_the_manifest(chain, tmp_path, capsys, fault):
    out = tmp_path / "out"
    out.mkdir()
    manifest = (chain.out / MANIFEST_FILE).read_text().splitlines(keepends=True)
    results = (chain.out / RESULTS_FILE).read_text().splitlines(keepends=True)
    if fault == "repeated_result":
        results.append(results[1])
    elif fault == "missing_result":
        del results[1]
    else:
        manifest.append(manifest[0])
    (out / MANIFEST_FILE).write_text("".join(manifest))
    (out / RESULTS_FILE).write_text("".join(results))
    code = cli.main(["compare", "--config", str(chain.ws.config), "--paths.output", str(out)])
    assert code == 2
    message = "appears more than once" if fault == "repeated_lineup" else "one row per lineup"
    assert message in capsys.readouterr().err
    assert not (out / COMPARISON_FILE).exists()
