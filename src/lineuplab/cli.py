"""Build forensic face lineups, predict their failures, measure restoration.

The ``lineuplab`` command line. Every configuration leaf is exposed as a
flag named after its dotted path (for example ``--paths.output`` or
``--lineup.seed``); flags override values from the ``--config`` JSON file.
Exit codes: 0 success, 1 configuration or usage error, 2 data error,
3 restoration hook failure.
"""

from __future__ import annotations

import argparse
import importlib
import sys

from lineuplab.config import CONFIG_LEAVES, PipelineConfig, load_config
from lineuplab.errors import ConfigError, DataError, HookError

# command -> (help text, module, function). The module is imported only when
# its command runs, so a command loads only the code it uses.
COMMANDS = {
    "ingest": ("validate a corpus file and rewrite it in a chosen container format",
               "lineuplab.stages.ingest", "run_ingest"),
    "curate": ("drop images failing quality gates; write the curated corpus",
               "lineuplab.stages.ingest", "run_curate"),
    "index": ("build and persist the exact search index",
              "lineuplab.stages.search", "run_index"),
    "evaluate": ("build lineups, rank probes, and write the accuracy summary",
                 "lineuplab.stages.search", "run_evaluate"),
    "features": ("extract per-lineup (or per-image) feature vectors to CSV",
                 "lineuplab.stages.features", "run_features"),
    "train": ("train the failure-prediction ensemble from a feature CSV",
              "lineuplab.stages.predictor", "run_train"),
    "predict": ("score stored features with a trained model",
                "lineuplab.stages.predictor", "run_predict"),
    "restore": ("predict failures, run the restoration hook, and re-rank",
                "lineuplab.stages.learning", "run_predict_and_restore"),
    "compare": ("re-rank stored lineups against restored embeddings",
                "lineuplab.stages.search", "run_compare"),
    "report": ("re-render the CSV reports from a stored comparison JSON",
               "lineuplab.report", "run_report"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _config_from(args: argparse.Namespace) -> PipelineConfig:
    overrides = {dotted: getattr(args, dotted) for dotted in CONFIG_LEAVES
                 if getattr(args, dotted) is not None}
    return load_config(args.config, overrides)


def build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """The ``lineuplab`` parser. ``--config`` and the config leaf flags go on
    the subparser of ``command`` only: a process runs one command, and the
    flags of the other nine would cost most of the parser's build time."""
    parser = _Parser(prog="lineuplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True
    for name, (help_text, _, _) in COMMANDS.items():
        subparser = sub.add_parser(name, help=help_text, description=help_text)
        if name != command:
            continue
        subparser.add_argument("--config", metavar="FILE", help="JSON configuration file")
        for dotted in CONFIG_LEAVES:
            subparser.add_argument(f"--{dotted}", dest=dotted, metavar="VALUE", default=None)
        if name == "ingest":
            subparser.add_argument(
                "--format", choices=("binary", "jsonl"), default="binary",
                help="output container format (default: binary)",
            )
    return parser


def command_function(command: str):
    """The function that runs ``command``. It is looked up by name on every
    run, so a wrapper rebound onto the module attribute (a tracer, a test
    double) is the function that runs."""
    _, module, name = COMMANDS[command]
    return getattr(importlib.import_module(module), name)


def _run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    command = args.command
    run = command_function(command)
    result = run(config, fmt=args.format) if command == "ingest" else run(config)
    if command in ("ingest", "index", "features"):
        print(f"wrote {result}")
    elif command == "curate":
        print(f"retained {result.retained.count} images, removed {len(result.removed)}")
        for reason, count in sorted(result.counts.items()):
            print(f"  {reason}: {count}")
    elif command == "evaluate":
        if result is None:
            print("no eligible sources; empty report written")
        else:
            print(f"lineups: {len(result.results)}  accuracy: {result.accuracy:.4f}  "
                  f"skipped: {len(result.skipped)}")
    elif command == "train":
        model, metrics = result
        print(f"threshold: {model.threshold:.6f}")
        print(f"test precision: {metrics.precision:.4f}  recall: {metrics.recall:.4f}  "
              f"f1: {metrics.f1:.4f}")
    elif command == "predict":
        flagged = sum(1 for _, _, failure in result if failure)
        print(f"scored {len(result)} lineups, {flagged} predicted failures")
    elif command in ("restore", "compare"):
        print(f"compared {len(result.report.per_lineup)} lineups, "
              f"{len(result.report.failed)} failed restorations")
    else:  # report
        for path in result:
            print(f"wrote {path}")
    return 0


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # a command is the first argument: the top-level parser takes only -h
    args = build_parser(argv[0] if argv else None).parse_args(argv)
    try:
        return _run(args)
    except ConfigError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except HookError as exc:
        print(f"hook error: {exc}", file=sys.stderr)
        return 3
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
