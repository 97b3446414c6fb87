"""Pipeline and CLI tests: configuration handling, the restoration hook, and
the full command chain on a small synthetic workspace."""

import csv
import json
import shutil
from dataclasses import replace
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from lineuplab import cli, pipeline
from lineuplab.corpus import (
    ImageGray,
    TOO_DARK,
    ingest_embeddings,
    ingest_landmarks,
    write_pgm,
)
from lineuplab.errors import ConfigError, DataError
from lineuplab.failpred.model_io import load_model
from lineuplab.imgfeat import FeatureVector, read_feature_csv, write_feature_csv
from lineuplab.lineup import OutcomeTable, read_lineup_manifest, read_results_csv
from lineuplab.pipeline import (
    COMPARISON_FILE,
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
        with pipeline._OutputGuard() as guard:
            guard.track(target).write_text("partial")
            raise KeyboardInterrupt
    assert target.read_text() == "previous"
    assert [p.name for p in tmp_path.iterdir()] == ["artifact.txt"]

    with pipeline._OutputGuard() as guard:
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
    config = PipelineConfig(images=str(images), output=str(tmp_path / "out"),
                            hook_command="cp {input} {output}")
    with pytest.raises(DataError, match="escape"):
        pipeline.run_hook(config, ["../escape"])
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
    assert binary.manifest.dim == DIM

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

    monkeypatch.setattr(pipeline, "write_results_csv", write_half_then_fail)
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
    items = [(i, i) for i in sorted(handle.ids)[:8]]
    serial = pipeline.extract_features(config, handle, landmarks, items)
    threaded = pipeline.extract_features(
        replace(config, parallelism=3), handle, landmarks, items
    )
    assert [fv.image_id for fv in serial] == [fv.image_id for fv in threaded]
    for a, b in zip(serial, threaded):
        assert np.array_equal(a.values, b.values)


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
    write_feature_csv([FeatureVector(i, row) for i, row in zip(ids, matrix)],
                      dict(zip(ids, labels)), tmp_path / FEATURES_FILE)
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
    summary = json.loads((out / SUMMARY_FILE).read_text())
    assert summary["accuracy"] is None
    assert summary["lineups"] == 0
    assert summary["message"] == "no eligible sources"
    assert (out / MANIFEST_FILE).read_text() == ""


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


def test_cli_usage_error_exits_1():
    with pytest.raises(SystemExit) as excinfo:
        cli.main(["not-a-command"])
    assert excinfo.value.code == 1


def test_cli_config_error_exits_1(capsys):
    assert cli.main(["evaluate"]) == 1  # no embeddings path configured
    assert "error:" in capsys.readouterr().err
    assert cli.main(["evaluate", "--lineup.seed", "abc"]) == 1
    assert "lineup.seed" in capsys.readouterr().err


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
