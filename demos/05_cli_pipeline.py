#!/usr/bin/env python3
"""Drive the full command-line pipeline over a generated workspace: ingest,
curate, index, evaluate, extract features, train, predict, and compare a
restored variant. Every call below is equivalent to running the installed
`lineuplab <command> ...` binary.

Run: python3 demos/05_cli_pipeline.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from lineuplab import cli
from lineuplab.corpus import ImageGray, write_pgm


def main(root: Path) -> None:
    rng = np.random.default_rng(23)
    images_dir = root / "images"
    images_dir.mkdir()

    # Workspace: 30 identities x 3 shots. Six identities get scattered vectors
    # and dark frames, so curation and prediction both have something to flag.
    bases = rng.normal(size=(30, 8))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    original, restored, landmark_lines = [], [], []
    members = [(f"v{p:02d}_{s}", f"v{p:02d}", p) for p in range(30) for s in range(3)]
    vectors = {}
    for image_id, identity, person in members:
        scattered = person >= 24
        vectors[image_id] = (rng.normal(size=8) if scattered
                             else bases[person] + 0.03 * rng.normal(size=8))
        lo, hi = (10, 40) if scattered else (70, 200)
        write_pgm(ImageGray(16, 16, rng.integers(lo, hi, size=(16, 16), dtype=np.uint8)),
                  images_dir / f"{image_id}.pgm")
        landmark_lines.append(json.dumps({
            "image_id": image_id,
            "points": rng.uniform(2.0, 14.0, size=(68, 2)).tolist(),
            "face_count": 1,
        }))
    centroids = {p: np.mean([vectors[i] for i, _, q in members if q == p], axis=0)
                 for p in range(30)}
    for image_id, identity, person in members:
        vec = vectors[image_id]
        fixed = (0.15 * vec + 0.85 * centroids[person] if person >= 24
                 else 0.98 * vec + 0.02 * bases[person])
        original.append({"image_id": image_id, "identity_id": identity, "vector": vec.tolist()})
        restored.append({"image_id": image_id, "identity_id": identity, "vector": fixed.tolist()})

    (root / "original.jsonl").write_text("".join(json.dumps(r) + "\n" for r in original))
    (root / "restored.jsonl").write_text("".join(json.dumps(r) + "\n" for r in restored))
    (root / "landmarks.jsonl").write_text("".join(l + "\n" for l in landmark_lines))
    config = root / "config.json"
    config.write_text(json.dumps({
        "paths": {
            "embeddings_original": str(root / "original.jsonl"),
            "embeddings_restored": str(root / "restored.jsonl"),
            "images": str(images_dir),
            "landmarks": str(root / "landmarks.jsonl"),
            "output": str(root / "out"),
        },
        "train": {"estimators": 6},
    }))

    base = ["--config", str(config)]
    for command in ("ingest", "curate", "index", "evaluate", "features",
                    "train", "predict", "compare", "report"):
        code = cli.main([command, *base])
        print(f"lineuplab {command:<9} -> exit {code}")
        assert code == 0

    out = root / "out"
    summary = json.loads((out / "accuracy_summary.json").read_text())
    print(f"\naccuracy over {summary['lineups']} lineups: {summary['accuracy']:.3f}")

    predictions = (out / "predictions.csv").read_text().splitlines()
    flagged = [line.split(",")[0] for line in predictions[1:] if line.endswith("true")]
    print(f"lineups flagged as failure risks: {len(flagged)} "
          f"(e.g. {', '.join(flagged[:4])})")

    comparison = json.loads((out / "comparison.json").read_text())
    tp = comparison["true_positive_table"]
    print(f"restoration on flagged-and-failing lineups: "
          f"{tp['improvements']} improved, {tp['degradations']} degraded, "
          f"{tp['success_conversions']} converted to rank 0")
    print(f"\nartifacts in {out}:")
    for path in sorted(out.iterdir()):
        print(f"  {path.name}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="lineuplab_demo_") as tmp:
        main(Path(tmp))
