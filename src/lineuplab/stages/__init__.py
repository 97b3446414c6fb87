"""The command stages, cut by what they import.

``ingest`` (ingest, curate) needs the corpus module alone; ``search``
(index, evaluate, compare) adds the search index, lineups and the report
module; ``features`` adds the image features to the search modules;
``predictor`` (train, predict) needs the failure predictor and the
feature-CSV reader alone; ``learning`` (restore and the restoration hook)
uses all of them and ``subprocess``. ``lineuplab.cli`` imports a stage
module only when one of its commands runs; ``lineuplab.pipeline``
re-exports them all for library use.
"""
