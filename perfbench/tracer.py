"""Outside-in span tracing for one ``lineuplab`` command process.

``install`` imports the package, wraps each public function named in
TARGETS and rebinds the wrapper under every name that refers to the
original in any loaded ``lineuplab`` module: the defining module (so bare
calls inside it are traced), ``from ... import`` bindings elsewhere, and
package re-exports. Spans (name, start, end, parent, attributes) stay in
memory; ``Recorder.dump`` writes them once, when the command has finished.
No file under the package changes, and every wrapper returns exactly what
the wrapped function returned.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import threading
import time

# module -> (span prefix, function names)
TARGETS = {
    "lineuplab.cli": ("cli", ("main",)),
    "lineuplab.corpus": ("corpus", (
        "ingest_embeddings", "write_embeddings", "load_grayscale_image")),
    "lineuplab.simindex": ("simindex", (
        "build_index", "search_batch", "score_kernel", "save_index")),
    "lineuplab.lineup": ("lineup", (
        "build_lineup", "rank_probe", "evaluate_corpus", "compare_variants",
        "read_results_csv", "write_results_csv")),
    "lineuplab.imgfeat.features": ("imgfeat", (
        "lighting_features", "quality_features", "noise_features", "sharpness_features",
        "texture_features", "classical_features", "write_feature_csv", "read_feature_csv")),
    "lineuplab.imgfeat.geometry": ("imgfeat", ("geometry_features",)),
    "lineuplab.filters": ("filters", (
        "correlate3x3", "sobel_gradients", "laplacian", "canny_edges")),
    "lineuplab.failpred.ensemble": ("failpred", (
        "train_base", "rebalance", "optimize_threshold")),
    "lineuplab.failpred.learners": ("failpred.learners", ("grow_tree",)),
    "lineuplab.failpred.model_io": ("failpred", ("save_model", "load_model")),
    "lineuplab.pipeline": ("pipeline", (
        "run_ingest", "run_curate", "run_index", "run_evaluate", "run_features",
        "run_train", "run_predict", "run_predict_and_restore", "run_compare",
        "run_report", "run_hook", "extract_features", "compare_with_restored")),
}

# (module, class, method, span name)
METHODS = (
    ("lineuplab.failpred.ensemble", "EnsembleModel", "predict_proba",
     "failpred.EnsembleModel.predict_proba"),
    ("lineuplab.pipeline", "RestorationHook", "run", "pipeline.hook"),
)


def _score_kernel_counts(args, kwargs, result):
    q, d = result.shape[0], args[0].shape[-1]
    n = result.shape[1]
    # float64 operands in, float64 scores out
    return {"pairs": q * n, "flops": 2 * q * n * d, "bytes": 8 * (q * d + n * d + q * n)}


# span name -> attributes taken from (args, kwargs, result)
ATTRIBUTES = {
    "corpus.ingest_embeddings": lambda a, k, r: {"records": r.count},
    "simindex.search_batch": lambda a, k, r: {"queries": len(r)},
    "simindex.score_kernel": _score_kernel_counts,
    "lineup.compare_variants": lambda a, k, r: {"lineups": len(r.per_lineup) + len(r.failed)},
    "imgfeat.read_feature_csv": lambda a, k, r: {"rows": len(r[0])},
    "imgfeat.geometry_features": lambda a, k, r: {"px": int(a[1][0])},
    "failpred.train_base": lambda a, k, r: {"family": a[0].family},
    "pipeline.hook": lambda a, k, r: {"invocations": 1, "failures": int(not r.ok)},
}
for _category in ("lighting", "quality", "noise", "sharpness", "texture"):
    ATTRIBUTES[f"imgfeat.{_category}_features"] = lambda a, k, r: {"px": int(a[0].width)}


class Recorder:
    """Spans of one process, kept in memory until ``dump``."""

    def __init__(self, spawned_at: float):
        self.spawned_at = spawned_at
        self.spans: list[list] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main = threading.main_thread()
        self._main_stack: list[int] = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is self._main:
            return self._main_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, func):
        attributes = ATTRIBUTES.get(name)

        @functools.wraps(func)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1]
            else:  # a worker thread's first span hangs under the main thread's open span
                parent = self._main_stack[-1] if self._main_stack else -1
            record = [name, time.monotonic(), None, parent, None]
            with self._lock:
                index = len(self.spans)
                self.spans.append(record)
            stack.append(index)
            try:
                result = func(*args, **kwargs)
                if attributes is not None:
                    record[4] = attributes(args, kwargs, result)
                return result
            finally:
                record[2] = time.monotonic()
                stack.pop()

        return traced

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"spawned_at": self.spawned_at, "spans": self.spans}, fh)


def install(spawned_at: float) -> Recorder:
    recorder = Recorder(spawned_at)
    modules = [importlib.import_module(name) for name in TARGETS]
    replacements = {}
    for module, (prefix, names) in zip(modules, TARGETS.values()):
        for name in names:
            original = getattr(module, name)
            replacements[id(original)] = (original, recorder.wrap(f"{prefix}.{name}", original))
    for module_name, class_name, method, span in METHODS:
        cls = getattr(importlib.import_module(module_name), class_name)
        setattr(cls, method, recorder.wrap(span, getattr(cls, method)))
    for module_name, module in list(sys.modules.items()):
        if module_name != "lineuplab" and not module_name.startswith("lineuplab."):
            continue
        for attr, value in list(vars(module).items()):
            hit = replacements.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(module, attr, hit[1])
    return recorder
