#!/usr/bin/env python3
"""Build a similarity index over a synthetic corpus, run batched top-k
search, then assemble and score six-person lineups for every identity.

Run: python3 demos/01_search_and_lineups.py
"""

import json
import tempfile
from pathlib import Path

import numpy as np

from lineuplab.corpus import ingest_embeddings
from lineuplab.lineup import evaluate_corpus
from lineuplab.simindex import brute_force_topk, build_index, search_batch


def main(workdir: Path) -> None:
    rng = np.random.default_rng(7)

    # Synthetic gallery: 40 identities, 4 images each. The first 25 identities
    # get tight clusters (same person photographed well); the rest are scattered,
    # which is what badly degraded footage looks like to the embedding model.
    lines = []
    bases = rng.normal(size=(40, 32))
    bases /= np.linalg.norm(bases, axis=1, keepdims=True)
    for person in range(40):
        for shot in range(4):
            if person < 25:
                vec = bases[person] + 0.05 * rng.normal(size=32)
            else:
                vec = rng.normal(size=32)
            lines.append(json.dumps({
                "image_id": f"p{person:02d}_{shot}",
                "identity_id": f"p{person:02d}",
                "vector": vec.tolist(),
            }))
    corpus_path = workdir / "gallery.jsonl"
    corpus_path.write_text("".join(l + "\n" for l in lines))

    corpus = ingest_embeddings(corpus_path)
    index = build_index(corpus)
    print(f"corpus: {corpus.count} images, {corpus.dim} dims -> index of unit rows")

    # Batched search. Queries are (id, vector) pairs; scores are plain inner
    # products on the normalized rows, so 1.0 means "same direction".
    queries = [(i, index.query_vector(i)) for i in corpus.ids[:3]]
    for result in search_batch(index, queries, 5):
        hits = ", ".join(f"{h.image_id}:{h.score:.3f}" for h in result.hits)
        print(f"  top-5 for {result.query_id}: {hits}")

    # The batch path and the exhaustive rescan agree hit for hit.
    qid, qvec = queries[0]
    assert (search_batch(index, [queries[0]], 5)[0]
            == brute_force_topk(index, qvec, 5, query_id=qid))
    print("batched search matches the exhaustive rescan on the sample query")

    # Lineup evaluation: each source gets 5 fillers from other identities plus
    # one probe of the same identity; success means the probe outranks them all.
    report = evaluate_corpus(corpus, index, corpus.ids, seed=77)
    print(f"\nlineups evaluated: {len(report.results)}  accuracy: {report.accuracy:.3f}")

    example = report.results[0]
    print(f"example lineup for {example.lineup.source}:")
    print(f"  fillers: {', '.join(example.lineup.fillers)}")
    print(f"  probe:   {example.lineup.probe}  (rank {example.probe_rank}, "
          f"{'success' if example.success else 'failure'})")

    by_cluster = [r.success for r in report.results if int(r.lineup.source[1:3]) < 25]
    by_scatter = [r.success for r in report.results if int(r.lineup.source[1:3]) >= 25]
    print(f"tight identities:     {sum(by_cluster)}/{len(by_cluster)} lineups succeed")
    print(f"scattered identities: {sum(by_scatter)}/{len(by_scatter)} lineups succeed")
    print(f"\nscratch dir: {workdir}")


if __name__ == "__main__":
    with tempfile.TemporaryDirectory(prefix="lineuplab_demo_") as tmp:
        main(Path(tmp))
