#!/usr/bin/env python3
"""Quantify what image restoration does to lineup outcomes: re-rank fixed
lineups against restored embeddings and roll the changes into the
improvement/degradation table.

Run: python3 demos/04_restoration_rank_changes.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from lineuplab.corpus import ingest_embeddings
from lineuplab.lineup import compare_variants, evaluate_corpus, summarize_outcomes
from lineuplab.pipeline import write_outcome_csv
from lineuplab.simindex import build_index


def write_corpus(path, rows):
    path.write_text("".join(json.dumps(r) + "\n" for r in rows))
    return ingest_embeddings(path)


def main(workdir: Path) -> None:
    rng = np.random.default_rng(19)

    # Degraded gallery: 30 identities x 4 images. A third of the identities are
    # scattered by noise; restoration pulls every image back toward its
    # identity's center, the way a denoiser sharpens a blurry face.
    bases = rng.normal(size=(30, 24))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    before_rows, after_rows = [], []
    for person in range(30):
        noise = 0.9 if person < 10 else 0.08
        for shot in range(4):
            vec = bases[person] + noise * rng.normal(size=24)
            fixed = 0.25 * vec + 0.75 * bases[person]
            meta = {"image_id": f"g{person:02d}_{shot}", "identity_id": f"g{person:02d}"}
            before_rows.append({**meta, "vector": vec.tolist()})
            after_rows.append({**meta, "vector": fixed.tolist()})

    original = write_corpus(workdir / "degraded.jsonl", before_rows)
    restored = write_corpus(workdir / "restored.jsonl", after_rows)

    report_before = evaluate_corpus(original, build_index(original), original.ids, seed=5)
    print(f"before restoration: accuracy {report_before.accuracy:.3f} "
          f"over {len(report_before.results)} lineups")

    # Membership stays frozen from the before-pass; only member vectors change.
    # Source vectors keep coming from the degraded corpus, since the query
    # image itself is not restored.
    changes = compare_variants(report_before.results, original, restored)
    table = summarize_outcomes(changes, report_before.results)

    print("\nrank-change histogram (positive = probe moved up):")
    for change, (count, pct) in sorted(changes.histogram.items(), reverse=True):
        if count:
            print(f"  {change:+d}: {count:4d}  ({pct:.1f}%)")

    print(f"\nimprovements: {table.improvements}  degradations: {table.degradations}  "
          f"unchanged: {table.unchanged}")
    print(f"conversions to rank 0: {table.success_conversions}  "
          f"mean improvement: {table.mean_improvement:.2f} ranks")

    csv_path = write_outcome_csv(table, workdir / "outcomes.csv")
    print(f"\noutcome table written to {csv_path}:")
    print(csv_path.read_text(), end="")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="lineuplab_demo_") as tmp:
        main(Path(tmp))
