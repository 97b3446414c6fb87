"""Tests of the benchmark itself: input determinism, checks that catch a
corrupted artifact, tracing that leaves outputs alone, and the metric set
each workload emits.

Run: python3 -m pytest -q perfbench/tests
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import checks
import gen
import layers
import run

BENCH_DIR = Path(__file__).resolve().parent.parent
BENCHMARK = json.loads((BENCH_DIR.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
SPEC = layers.load_spec()


@pytest.mark.parametrize("workload", sorted(gen.GENERATORS))
def test_generator_is_byte_deterministic_per_seed(tmp_path, workload):
    make = gen.GENERATORS[workload]
    make(5, tmp_path / "a")
    make(5, tmp_path / "b")
    make(6, tmp_path / "c")
    first = checks.digests(tmp_path / "a")
    assert first and first == checks.digests(tmp_path / "b")
    assert first != checks.digests(tmp_path / "c")


def _context(workload, seed, work):
    ctx, _, problems = run.setup(workload, seed, work)
    assert problems == []
    return ctx


@pytest.fixture
def work():
    path = run.WORK / "tests"
    shutil.rmtree(path, ignore_errors=True)
    path.mkdir(parents=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


class FlipFirstProbeRank(run.Runner):
    """Runs commands normally, then corrupts the results CSV after evaluate."""

    def run(self, args, spans_path=None):
        outcome = super().run(args, spans_path)
        if args[0] == "evaluate":
            out = run.ROOT / args[args.index("--paths.output") + 1]
            path = out / "lineup_results.csv"
            lines = path.read_text(encoding="utf-8").splitlines()
            source, rank, success = lines[1].split(",")
            lines[1] = f"{source},{(int(rank) + 1) % 6},{success}"
            path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        return outcome


def test_flipped_probe_rank_fails_the_check_and_counts_as_failed(work):
    ctx = _context("search_corpus", 3, work)
    runner = FlipFirstProbeRank(run.time.monotonic() + 120, work / "log")
    rep = run.run_rep("search_corpus", ctx, runner, work / "rep", None)
    failed = {op.command for op in rep.ops if op.problems}
    assert "evaluate" in failed
    assert "ingest" not in failed and "index" not in failed


def test_wrappers_leave_outputs_unchanged(work):
    ctx = _context("image_chain", 4, work)
    runner = run.Runner(run.time.monotonic() + 150, work / "log")
    plain = run.run_rep("image_chain", ctx, runner, work / "plain", None)
    (work / "spans").mkdir()
    traced = run.run_rep("image_chain", ctx, runner, work / "traced", work / "spans")
    assert not any(op.problems for op in plain.ops + traced.ops)
    assert traced.digests == plain.digests
    assert len(traced.spans) == len(traced.ops)


def _result(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", workload,
         "--seed", "7", "--seconds", "0", "--trace", str(trace)],
        capture_output=True, text=True, timeout=180, check=True)
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("workload", sorted(run.WORKLOADS))
def test_every_named_metric_is_emitted(workload):
    plain = _result(workload, 0)
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 2
    assert list(plain["metrics"]) == [m["name"] for m in BENCHMARK["end_to_end"]]
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = _result(workload, 1)
    assert traced["correct"] and traced["failed"] == 0
    assert list(traced["metrics"]) == [m["name"] for m in BENCHMARK["per_layer"]]
    silent = [m["name"] for m in SPEC["metrics"]
              if workload in m["workloads"] and traced["metrics"][m["name"]]["value"] <= 0]
    assert silent == []


def test_layer_spec_matches_benchmark_json():
    listed = [{k: m[k] for k in ("name", "unit", "better")} for m in SPEC["metrics"]]
    assert listed == BENCHMARK["per_layer"]
    for m in SPEC["metrics"]:
        for target in m["moves"]:
            metric, workload = target.split("@")
            assert workload in run.WORKLOADS
            assert metric in {e["name"] for e in BENCHMARK["end_to_end"]}


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(BENCH_DIR.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "train_predict", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0 and proc.stdout == ""


def test_self_time_subtracts_the_union_of_children():
    assert layers.covered([(0.0, 2.0), (1.0, 3.0), (5.0, 6.0)]) == 4.0
    assert layers.tail(list(range(100))) == pytest.approx(89.1)
