"""Artifact names inside the output directory, and the commit-on-success
writes every command makes.

Reports contain no timestamps and serialize floats through repr, so
identical inputs produce byte-identical outputs.
"""

from __future__ import annotations

import json
import os
from pathlib import Path

from lineuplab.errors import ConfigError

# Canonical artifact names inside the output directory.
MANIFEST_FILE = "lineup_manifest.jsonl"
RESULTS_FILE = "lineup_results.csv"
SUMMARY_FILE = "accuracy_summary.json"
FEATURES_FILE = "features.csv"
MODEL_FILE = "model.json"
TRAIN_REPORT_FILE = "training_report.json"
PREDICTIONS_FILE = "predictions.csv"
HOOK_STATUS_FILE = "hook_status.json"
RANK_CHANGES_FILE = "rank_changes.csv"
OUTCOMES_TP_FILE = "outcomes_true_positive.csv"
OUTCOMES_FP_FILE = "outcomes_false_positive.csv"
COMPARISON_FILE = "comparison.json"
CURATED_FILE = "curated_embeddings.bin"
CURATION_REPORT_FILE = "curation_report.json"
INDEX_FILE = "search.index"


class OutputGuard:
    """Commit-on-success artifact writes.

    ``track`` creates the artifact's directory and hands out a sibling temp
    path to write instead of the final name. A clean exit moves every temp
    file onto its final name with ``os.replace``; an exception, Ctrl-C
    included, removes the temp files and leaves the previous artifacts
    untouched. A final name that is a directory is refused before anything
    moves.
    """

    def __init__(self):
        self.pending: dict[Path, Path] = {}

    def track(self, path: Path) -> Path:
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        temp = path.with_name(path.name + ".tmp")
        self.pending[path] = temp
        return temp

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        try:
            if exc_type is None:
                for path in self.pending:
                    if path.is_dir():
                        raise ConfigError(f"output path is a directory: {path}")
                for path, temp in self.pending.items():
                    os.replace(temp, path)
        finally:
            for temp in self.pending.values():
                try:
                    temp.unlink(missing_ok=True)
                except OSError:
                    pass
        return False


def write_json(path: Path, payload) -> Path:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")
    return path
