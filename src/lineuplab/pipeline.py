"""Batch orchestration for library use: one import for the configuration,
every command's ``run_*`` function, the restoration hook and the artifact
names.

This module only re-exports. The code lives in ``lineuplab.config``,
``lineuplab.artifacts``, ``lineuplab.report`` and the stage modules
``lineuplab.stages.ingest``, ``lineuplab.stages.search``,
``lineuplab.stages.features``, ``lineuplab.stages.predictor`` and
``lineuplab.stages.learning``. The ``lineuplab`` command imports those
directly, each only when one of its commands runs, so no command pays for
importing this module.
"""

from lineuplab.artifacts import (
    COMPARISON_FILE,
    CURATED_FILE,
    CURATION_REPORT_FILE,
    FEATURES_FILE,
    HOOK_STATUS_FILE,
    INDEX_FILE,
    MANIFEST_FILE,
    MODEL_FILE,
    OUTCOMES_FP_FILE,
    OUTCOMES_TP_FILE,
    PREDICTIONS_FILE,
    RANK_CHANGES_FILE,
    RESULTS_FILE,
    SUMMARY_FILE,
    TRAIN_REPORT_FILE,
)
from lineuplab.config import (
    CONFIG_LEAVES,
    MAX_HOOK_TIMEOUT_S,
    CurationConfig,
    PipelineConfig,
    load_config,
)
from lineuplab.report import (
    OUTCOME_ROWS,
    ComparisonBundle,
    comparison_payload,
    run_report,
    write_outcome_csv,
)
from lineuplab.stages.features import extract_features, run_features
from lineuplab.stages.ingest import run_curate, run_ingest
from lineuplab.stages.learning import (
    HookRecord,
    RestorationHook,
    run_hook,
    run_predict_and_restore,
)
from lineuplab.stages.predictor import run_predict, run_train
from lineuplab.stages.search import (
    compare_with_restored,
    run_compare,
    run_evaluate,
    run_index,
)
