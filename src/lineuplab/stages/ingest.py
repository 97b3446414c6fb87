"""The ingest stages (ingest, curate) and the corpus loads every command
starts from: a command loads its inputs, runs its stage over the loaded
values, then commits. They need the corpus module alone (and ``filters``
for ``curate``'s blur rule), not the search index or lineups.
"""

from __future__ import annotations

from pathlib import Path

from lineuplab import corpus as corpus_mod
from lineuplab.artifacts import CURATED_FILE, CURATION_REPORT_FILE, OutputGuard, write_json
from lineuplab.config import PipelineConfig, require_path
from lineuplab.corpus import ingest_embeddings, ingest_landmarks
from lineuplab.errors import DataError


def load_corpus(config: PipelineConfig, dotted: str = "paths.embeddings_original"):
    return ingest_embeddings(require_path(config, dotted))


def original_and_restored(config: PipelineConfig):
    """The original and restored corpora, which must share one dimension."""
    original = load_corpus(config)
    restored = load_corpus(config, "paths.embeddings_restored")
    if restored.dim != original.dim:
        raise DataError(f"{config.embeddings_restored}: restored embeddings have dimension "
                        f"{restored.dim}, the original corpus {original.dim}")
    return original, restored


def run_ingest(config: PipelineConfig, fmt: str = "binary") -> Path:
    """Validate a corpus and persist it in the requested container format."""
    handle = load_corpus(config)
    path = config.out("embeddings.bin" if fmt == "binary" else "embeddings.jsonl")
    with OutputGuard() as guard:
        corpus_mod.write_embeddings(handle, guard.track(path), fmt=fmt)
    return path


def run_curate(config: PipelineConfig):
    handle = load_corpus(config)
    landmarks = ingest_landmarks(require_path(config, "paths.landmarks"))
    images_dir = require_path(config, "paths.images")
    report = corpus_mod.curate(handle, landmarks, images_dir, config.curation_rules())
    with OutputGuard() as guard:
        corpus_mod.write_embeddings(report.retained, guard.track(config.out(CURATED_FILE)))
        write_json(guard.track(config.out(CURATION_REPORT_FILE)), {
            "removed": [[sid, reason] for sid, reason in report.removed],
            "counts": report.counts,
            "retained": report.retained.count,
            "total": handle.count,
        })
    return report
