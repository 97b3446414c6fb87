"""The command stages, cut by what they import.

Each command loads every input once, calls a stage function over the loaded
values, then commits: ``restore`` runs ``evaluate`` and ``write_features``
over the corpus and landmarks it loaded. ``ingest`` (ingest, curate) needs
the corpus module alone; ``search`` (index, evaluate, compare) adds the
search index, lineups and the report module; ``features`` adds the image
features; ``predictor`` (train, predict) needs the failure predictor and
the feature-CSV reader alone; ``learning`` (restore and the hook) uses all
of them and ``subprocess``. ``lineuplab.cli`` imports a stage module only
when one of its commands runs; ``lineuplab.pipeline`` re-exports them all.
"""
