#!/usr/bin/env python3
"""The lineuplab benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

``perfbench/`` sits at the root of a source checkout, next to ``src/``;
the run may start from any directory. It generates the workload's inputs
from the seed, then drives the workload's chain of ``lineuplab`` commands
in a closed loop with one client until S seconds have passed: each command
is its own Python process calling ``lineuplab.cli.main`` and starts when
the previous one has exited. Every command's output is checked, and the
artifacts of every repetition must be byte-identical. The last line of stdout is one JSON object
``{"correct", "attempted", "failed", "metrics"}``.

With ``--trace 0`` the metrics are the end-to-end ones (medians over the
repetitions). With ``--trace 1`` untraced and traced repetitions alternate;
the metrics are the per-layer numbers from the traced ones (see tracer.py
and layers.json), the untraced per-command times, and the tracing overhead.
Work files go to ``.perfbench_work/`` in the checkout and are removed at
the end.
"""

import os

# One BLAS/OpenMP thread per process, set before numpy loads here and
# inherited by every command process.
THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

import checks
import gen
import layers

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
SETUP_REPEATS = 5
RUN_DEADLINE_S = 170.0
TRAIN_ESTIMATORS = 2


@dataclass
class Step:
    command: str
    args: list
    check: Callable[[], list]


@dataclass
class Op:
    command: str
    wall_s: float
    rss_mib: float
    problems: list


@dataclass
class Rep:
    ops: list = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    counts: dict = field(default_factory=dict)
    spans: list = field(default_factory=list)   # span files of a traced repetition

    def wall(self, command: str) -> float:
        return sum(op.wall_s for op in self.ops if op.command == command)

    @property
    def total_s(self) -> float:
        return sum(op.wall_s for op in self.ops)


# ---------------------------------------------------------------------------
# Workload chains. Each builder prepares a fresh output directory and returns
# the commands to run there, each with its output check.


def _rel(path: Path) -> str:
    return str(Path(path).relative_to(ROOT))


def search_corpus_steps(ctx, out: Path) -> list:
    inputs, ref = ctx["inputs"], ctx["ref"]
    base = ["--config", _rel(ctx["config"]), "--paths.output", _rel(out)]
    binary = out / "embeddings.bin"
    on_binary = base + ["--paths.embeddings_original", _rel(binary)]
    before = {}

    def compare_check():
        sources = [s for s, _, _ in checks.read_results(out / "lineup_results.csv")]
        before.update({n: checks.sha256(out / n) for n in checks.REPORT_FILES})
        return checks.check_compare(out, inputs, ref, sources)

    return [
        Step("ingest", ["ingest", *base, "--format", "binary"],
             lambda: checks.check_container(binary, inputs.ids, inputs.identities,
                                            inputs.original)),
        Step("index", ["index", *on_binary], lambda: checks.check_index(out, inputs)),
        Step("evaluate", ["evaluate", *on_binary],
             lambda: checks.check_evaluate(out, inputs, ref, inputs.ids)),
        Step("compare", ["compare", *on_binary], compare_check),
        Step("report", ["report", *base], lambda: checks.check_report(out, before)),
    ]


def image_chain_steps(ctx, out: Path) -> list:
    inputs, ref = ctx["inputs"], ctx["ref"]
    base = ["--config", _rel(ctx["config"]), "--paths.output", _rel(out)]
    curated = base + ["--paths.embeddings_original", _rel(out / "curated_embeddings.bin")]
    before = {}

    def restore_check():
        before.update({n: checks.sha256(out / n) for n in checks.REPORT_FILES})
        return checks.check_restore(out, inputs, ref)

    return [
        Step("curate", ["curate", *base], lambda: checks.check_curate(out, inputs)),
        Step("evaluate", ["evaluate", *curated],
             lambda: checks.check_evaluate(out, inputs, ref, ref.ids)),
        Step("features", ["features", *curated], lambda: checks.check_features(out, inputs)),
        Step("train", ["train", *curated], lambda: checks.check_model(out)),
        Step("restore", ["restore", *curated], restore_check),
        Step("report", ["report", *curated], lambda: checks.check_report(out, before)),
    ]


def train_predict_steps(ctx, out: Path) -> list:
    inputs = ctx["inputs"]
    train_dir, predict_dir = out / "train", out / "predict"
    for directory, source in ((train_dir, "train"), (predict_dir, "predict")):
        directory.mkdir(parents=True)
        shutil.copyfile(inputs.files[source], directory / "features.csv")
    config = ["--config", _rel(ctx["config"])]
    model = train_dir / "model.json"
    return [
        Step("train", ["train", *config, "--paths.output", _rel(train_dir)],
             lambda: checks.check_model(train_dir)),
        Step("predict", ["predict", *config, "--paths.output", _rel(predict_dir),
                         "--paths.model", _rel(model)],
             lambda: checks.check_predictions(predict_dir / "predictions.csv", model,
                                              predict_dir / "features.csv")),
    ]


def _config(workload: str, inputs: gen.Inputs) -> dict:
    files = {k: _rel(v) for k, v in inputs.files.items()}
    if workload == "train_predict":
        return {"train": {"estimators": TRAIN_ESTIMATORS}}
    paths = {"embeddings_original": files["corpus"], "embeddings_restored": files["restored"]}
    config = {"paths": paths, "lineup": {"seed": inputs.lineup_seed}}
    if workload == "image_chain":
        paths.update(images=files["images"], landmarks=files["landmarks"])
        # parallelism stays at its default of 1: on a shared 2-core host two
        # GIL-bound feature threads gave no speed-up, only scheduler noise.
        config.update(train={"estimators": TRAIN_ESTIMATORS},
                      hook={"command": gen.HOOK_TEMPLATE, "failure_threshold": 0.0})
    return config


def _reference(workload: str, inputs: gen.Inputs):
    if workload == "search_corpus":
        return checks.Reference(inputs.ids, inputs.identities, inputs.original, inputs.restored)
    if workload == "image_chain":
        kept = [i for i, image_id in enumerate(inputs.ids)
                if image_id not in inputs.expected_removed]
        return checks.Reference([inputs.ids[i] for i in kept],
                                [inputs.identities[i] for i in kept],
                                inputs.original[kept], inputs.restored[kept])
    return None


WORKLOADS = {
    "search_corpus": search_corpus_steps,
    "image_chain": image_chain_steps,
    "train_predict": train_predict_steps,
}


# ---------------------------------------------------------------------------
# Running commands


class Runner:
    """Spawns command processes with a fixed environment and a run deadline."""

    def __init__(self, deadline: float, log_path: Path):
        self.deadline = deadline
        self.log_path = log_path
        self.rss_path = log_path.with_name("peak_rss_kib")
        self.env = {k: v for k, v in os.environ.items() if not k.startswith("PERFBENCH_")}
        self.env.update({var: "1" for var in THREAD_VARS})
        self.env["PYTHONHASHSEED"] = "0"
        self.env["PYTHONPATH"] = os.pathsep.join([str(SRC), str(HERE)])
        self.env["PERFBENCH_PEAK_RSS"] = str(self.rss_path)
        self.timed_out = False

    def _kill(self, proc) -> None:
        self.timed_out = True
        proc.kill()

    def run(self, args, spans_path: Path | None = None):
        """(wall seconds, peak RSS in MiB, exit code) of one command process."""
        env = dict(self.env)
        argv = [sys.executable, str(HERE / "entry.py"), *args]
        self.rss_path.unlink(missing_ok=True)
        with open(self.log_path, "ab") as log:
            log.write(f"$ lineuplab {' '.join(args)}\n".encode())
            log.flush()
            start = time.monotonic()
            if spans_path is not None:
                env["PERFBENCH_SPANS"] = str(spans_path)
                env["PERFBENCH_SPAWNED"] = repr(start)
            proc = subprocess.Popen(argv, stdout=log, stderr=log, env=env, cwd=ROOT)
            # A blocking wait returns the moment the process exits; wait(timeout=)
            # polls in sleeps of up to 50 ms, which would quantise every time.
            killer = threading.Timer(max(0.0, self.deadline - start), self._kill, (proc,))
            killer.start()
            code = proc.wait()
            wall = time.monotonic() - start
            killer.cancel()
            killer.join()
        rss_kib = int(self.rss_path.read_text()) if self.rss_path.is_file() else 0
        return wall, rss_kib / 1024.0, code


def run_rep(workload: str, ctx, runner: Runner, out: Path, spans_dir: Path | None) -> Rep:
    out.mkdir(parents=True)
    rep = Rep()
    for i, step in enumerate(WORKLOADS[workload](ctx, out)):
        spans = None if spans_dir is None else spans_dir / f"{i}_{step.command}.json"
        wall, rss, code = runner.run(step.args, spans)
        problems = [f"exit code {code}"] if code != 0 else []
        if not problems:
            try:
                problems = step.check()
            except Exception:  # a malformed artifact fails its check, not the run
                problems = [f"check raised: {traceback.format_exc(limit=2)}"]
        rep.ops.append(Op(step.command, wall, rss, problems))
        if spans is not None and spans.is_file():
            rep.spans.append(spans)
        if runner.timed_out:
            break
    rep.digests = checks.digests(out)
    summary = out / "accuracy_summary.json"
    if summary.is_file():
        rep.counts["lineups"] = json.loads(summary.read_text(encoding="utf-8"))["lineups"]
    features = out / "features.csv"
    if features.is_file():
        with open(features, encoding="utf-8") as fh:
            rep.counts["feature_rows"] = sum(1 for _ in fh) - 1
    if workload == "train_predict":
        rep.counts["train_rows"] = ctx["inputs"].train_rows
    shutil.rmtree(out)
    return rep


# ---------------------------------------------------------------------------
# Metrics


def _median(values) -> float:
    return float(statistics.median(values)) if values else 0.0


def end_to_end(roles: dict, reps: list, setup_times: list) -> dict:
    """Medians over the repetitions. ``total_s`` adds up each command's
    median: a few seconds of a slowed host then shift the one command they
    hit, not every repetition's sum."""
    main, second, items = roles["main_cmd"], roles["second_cmd"], roles["items"]
    commands = dict.fromkeys(op.command for r in reps for op in r.ops)
    return {
        "setup_s": (_median(setup_times), "s"),
        "total_s": (sum(_median([r.wall(c) for r in reps]) for c in commands), "s"),
        "main_cmd_s": (_median([r.wall(main) for r in reps]), "s"),
        "second_cmd_s": (_median([r.wall(second) for r in reps]), "s"),
        "main_items_per_s": (_median([r.counts.get(items, 0) / r.wall(main)
                                      for r in reps if r.wall(main) > 0]), "1/s"),
        "peak_rss_mb": (_median([max(op.rss_mib for op in r.ops) for r in reps]), "MiB"),
    }


def per_layer(metrics: list, untraced: list, traced: list) -> dict:
    """Layer metrics (median over traced repetitions), untraced command times
    and the tracing overhead, for every name layers.json lists."""
    per_rep = [layers.span_metrics(rep.spans) for rep in traced]
    values = {}
    for name in {k for m in per_rep for k in m}:
        values[name] = _median([m.get(name, 0.0) for m in per_rep])
    for command in layers.COMMANDS:
        values[f"cmd.{command}.s"] = _median([r.wall(command) for r in untraced])
    for metric, count, command in layers.COMMAND_RATES:
        rates = [r.counts[count] / r.wall(command) for r in untraced
                 if count in r.counts and r.wall(command) > 0]
        values[metric] = _median(rates)
    values["trace.overhead_s"] = (_median([r.total_s for r in traced])
                                  - _median([r.total_s for r in untraced]))
    return {m["name"]: (values.get(m["name"], 0.0), m["unit"]) for m in metrics}


def provenance(args, reps, setup_times) -> dict:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "repetitions": len(reps),
        "setup_s": setup_times, "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": 1, "pythonhashseed": 0,
        "rep_wall_s": {op.command: [round(r.wall(op.command), 4) for r in reps]
                       for op in (reps[0].ops if reps else [])},
        "artifacts_sha256": reps[0].digests if reps else {},
    }


# ---------------------------------------------------------------------------


def setup(workload: str, seed: int, work: Path):
    """Generate the inputs SETUP_REPEATS times; each copy must be identical."""
    times, trees, ctx = [], [], None
    for k in range(SETUP_REPEATS):
        dest = work / f"inputs{k}"
        start = time.monotonic()
        inputs = gen.GENERATORS[workload](seed, dest)
        config = dest / "config.json"
        config.write_text(json.dumps(_config(workload, inputs), indent=2), encoding="utf-8")
        times.append(time.monotonic() - start)
        trees.append({name: digest for name, digest in checks.digests(dest).items()
                      if name != config.name})
        if k == 0:
            ctx = {"inputs": inputs, "config": config}
        else:
            shutil.rmtree(dest)
    ctx["ref"] = _reference(workload, ctx["inputs"])
    problems = [] if all(t == trees[0] for t in trees) else ["generator is not deterministic"]
    return ctx, times, problems


def measure(args) -> int:
    started = time.monotonic()
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    runner = Runner(started + RUN_DEADLINE_S, work / "commands.log")
    try:
        ctx, setup_times, problems = setup(args.workload, args.seed, work)
        untraced, traced = [], []
        measure_start = time.monotonic()
        while not runner.timed_out:
            rep_start = time.monotonic()
            k = len(untraced)
            untraced.append(run_rep(args.workload, ctx, runner, work / f"rep{k}", None))
            if args.trace:
                spans_dir = work / f"spans{k}"
                spans_dir.mkdir()
                traced.append(run_rep(args.workload, ctx, runner, work / f"rep{k}t", spans_dir))
            now = time.monotonic()
            if now - measure_start + (now - rep_start) > args.seconds:
                break
        reps = untraced + traced
        if any(r.digests != untraced[0].digests for r in untraced):
            problems.append("artifacts differ between repetitions of the same inputs")
        if any(r.digests != untraced[0].digests for r in traced):
            problems.append("traced artifacts differ from untraced artifacts")
        spec = layers.load_spec()
        metrics = (per_layer(spec["metrics"], untraced, traced) if args.trace
                   else end_to_end(spec["workloads"][args.workload], untraced, setup_times))
        ops = [op for r in reps for op in r.ops]
        failed = [op for op in ops if op.problems]
        for op in failed:
            problems.append(f"{op.command}: {'; '.join(op.problems)}")
        if runner.timed_out:
            problems.append("run deadline reached; a command was killed")
        for problem in problems:
            print(f"CHECK FAILED: {problem}", file=sys.stderr)
        if problems and runner.log_path.is_file():
            tail = runner.log_path.read_text(encoding="utf-8", errors="replace")[-4000:]
            print(f"last command output:\n{tail}", file=sys.stderr)
        print(json.dumps({"provenance": provenance(args, untraced, setup_times)}))
        print(json.dumps({
            "correct": not problems,
            "attempted": len(ops),
            "failed": len(failed),
            "metrics": {name: {"value": value, "unit": unit}
                        for name, (value, unit) in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "lineuplab" / "cli.py").is_file():
        print(f"error: no lineuplab sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    return measure(args)


if __name__ == "__main__":
    raise SystemExit(main())
