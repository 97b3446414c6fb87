"""lineuplab: batch evaluation engine for embedding-based forensic facial lineups.

The library is organized around these areas:

- ``corpus``: embedding/landmark/image ingestion, validation, and curation
- ``simindex``: exact batched top-k inner-product search over unit vectors
- ``lineup``: lineup construction and probe ranking
- ``report``: rank-change accounting and the report files
- ``imgfeat``: classical image-quality and face-geometry features
- ``failpred``: the dual-cohort lineup-failure prediction ensemble
- ``config``, ``artifacts`` and ``stages``: the commands' configuration,
  output files and end-to-end runs, the restoration hook included
- ``pipeline``: one import that re-exports the commands for library use
"""

from lineuplab.errors import ConfigError, DataError, HookError, LineupLabError

__version__ = "0.1.0"

__all__ = [
    "ConfigError",
    "DataError",
    "HookError",
    "LineupLabError",
    "__version__",
]
