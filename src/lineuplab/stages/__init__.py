"""The command stages, cut by what they import.

``ingest`` (ingest, curate) needs the corpus module alone; ``search``
(index, evaluate, compare) adds the search index, lineups and the report
module; ``learning`` (features, train, predict, restore and the restoration
hook) adds the image features, the failure predictor and ``subprocess``.
``lineuplab.cli`` imports a stage module only when one of its commands
runs; ``lineuplab.pipeline`` re-exports them all for library use.
"""
