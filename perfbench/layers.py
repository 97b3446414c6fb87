"""Per-layer metrics from the span files of one traced repetition.

layers.json lists every per-layer metric with its unit, the layer it
belongs to, the workloads that exercise it and the end-to-end metrics it
should move. This module reads that file and turns spans into values.
"""

from __future__ import annotations

import json
import statistics
from collections import defaultdict
from pathlib import Path

import numpy as np

SPEC_PATH = Path(__file__).resolve().parent / "layers.json"
COMMANDS = ("ingest", "curate", "index", "evaluate", "compare", "features",
            "train", "predict", "restore", "report")
# (metric, item count, command) for untraced per-command throughput
COMMAND_RATES = (("cmd.lineups_per_s", "lineups", "evaluate"),
                 ("cmd.feature_rows_per_s", "feature_rows", "features"))
TAIL_PERMILLES = (999, 990, 900, 500)
FEATURE_SPAN = "imgfeat.classical_features"
SHARED_FILTERS = ("filters.sobel_gradients", "filters.laplacian", "filters.correlate3x3")


def load_spec() -> dict:
    """layers.json: each workload's main and second command, each layer's
    bypassing workloads, and the per-layer metric list."""
    return json.loads(SPEC_PATH.read_text(encoding="utf-8"))


def covered(intervals) -> float:
    """Length of the union of (start, end) intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        if end > reach:
            total += end - max(start, reach)
            reach = end
    return total


def tail(values) -> float:
    """The highest of p99.9, p99, p90 and p50 with at least ten samples
    beyond it (the maximum when there are fewer than twenty samples)."""
    n = len(values)
    for permille in TAIL_PERMILLES:
        if n * (1000 - permille) >= 10 * 1000:
            return float(np.percentile(values, permille / 10))
    return float(max(values))


def span_metrics(span_files) -> dict:
    """Metric values summed over the processes of one repetition."""
    total = defaultdict(float)
    self_total = defaultdict(float)
    calls = defaultdict(int)
    durations = defaultdict(list)
    bucket_self = defaultdict(list)
    sums = defaultdict(float)
    startups, main_self = [], []
    shared = defaultdict(int)
    for path in span_files:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        spawned_at, spans = data["spawned_at"], data["spans"]
        children = defaultdict(list)
        for i, (_, start, end, parent, _) in enumerate(spans):
            if parent >= 0:
                children[parent].append((start, end))
        for i, (name, start, end, parent, attrs) in enumerate(spans):
            duration = end - start
            own = duration - covered((max(s, start), min(e, end)) for s, e in children[i])
            total[name] += duration
            self_total[name] += own
            calls[name] += 1
            durations[name].append(duration)
            for key, value in (attrs or {}).items():
                if key == "px":
                    bucket_self[f"{name}.px{value}"].append(own)
                elif key == "family":
                    sums[f"{name}.{value}.s"] += duration
                else:
                    sums[f"{name}.{key}"] += value
            if name == "cli.main":
                startups.append(start - spawned_at)
                main_self.append(own)
            if name in SHARED_FILTERS:
                j = parent
                while j >= 0 and spans[j][0] != FEATURE_SPAN:
                    j = spans[j][3]
                if j >= 0:
                    shared[name] += 1
    values = dict(sums)
    for name in calls:
        values[f"{name}.s"] = total[name]
        values[f"{name}.self_s"] = self_total[name]
        values[f"{name}.calls"] = calls[name]
        ms = [d * 1e3 for d in durations[name]]
        values[f"{name}.p50_ms"] = float(np.percentile(ms, 50))
        values[f"{name}.tail_ms"] = tail(ms)
    for key, owns in bucket_self.items():
        values[f"{key}.self_ms"] = statistics.median(owns) * 1e3
    images = calls.get(FEATURE_SPAN, 0)
    for name in SHARED_FILTERS:
        values[f"{name}.per_image"] = shared[name] / images if images else 0.0
    if startups:
        values["cli.startup_s"] = statistics.median(startups)
        values["cli.main.self_s"] = statistics.median(main_self)
    return values
