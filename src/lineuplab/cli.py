"""Command-line entry point.

Every configuration leaf is exposed as a flag named after its dotted path
(for example ``--paths.output`` or ``--lineup.seed``); flags override values
from the ``--config`` JSON file. Exit codes: 0 success, 1 configuration or
usage error, 2 data error, 3 restoration hook failure.
"""

from __future__ import annotations

import argparse
import sys

from lineuplab.errors import ConfigError, DataError, HookError
from lineuplab import pipeline


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _dest(dotted: str) -> str:
    return "opt__" + dotted.replace(".", "__")


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", metavar="FILE", help="JSON configuration file")
    for dotted in pipeline.CONFIG_LEAVES:
        parser.add_argument(f"--{dotted}", dest=_dest(dotted), metavar="VALUE", default=None)


def _config_from(args: argparse.Namespace) -> pipeline.PipelineConfig:
    overrides = {}
    for dotted in pipeline.CONFIG_LEAVES:
        value = getattr(args, _dest(dotted), None)
        if value is not None:
            overrides[dotted] = value
    return pipeline.load_config(args.config, overrides)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="lineuplab", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")
    sub.required = True

    commands = {
        "ingest": "validate a corpus file and rewrite it in a chosen container format",
        "curate": "drop images failing quality gates; write the curated corpus",
        "index": "build and persist the exact search index",
        "evaluate": "build lineups, rank probes, and write the accuracy summary",
        "features": "extract per-lineup (or per-image) feature vectors to CSV",
        "train": "train the failure-prediction ensemble from a feature CSV",
        "predict": "score stored features with a trained model",
        "restore": "predict failures, run the restoration hook, and re-rank",
        "compare": "re-rank stored lineups against restored embeddings",
        "report": "re-render the CSV reports from a stored comparison JSON",
    }
    parsers = {}
    for name, help_text in commands.items():
        parsers[name] = sub.add_parser(name, help=help_text, description=help_text)
        _add_common(parsers[name])
    parsers["ingest"].add_argument(
        "--format", choices=("binary", "jsonl"), default="binary",
        help="output container format (default: binary)",
    )
    return parser


def _run(args: argparse.Namespace) -> int:
    config = _config_from(args)
    command = args.command
    if command == "ingest":
        path = pipeline.run_ingest(config, fmt=args.format)
        print(f"wrote {path}")
    elif command == "curate":
        report = pipeline.run_curate(config)
        print(f"retained {report.retained.count} images, removed {len(report.removed)}")
        for reason, count in sorted(report.counts.items()):
            print(f"  {reason}: {count}")
    elif command == "index":
        path = pipeline.run_index(config)
        print(f"wrote {path}")
    elif command == "evaluate":
        report = pipeline.run_evaluate(config)
        if report is None:
            print("no eligible sources; empty report written")
        else:
            print(f"lineups: {len(report.results)}  accuracy: {report.accuracy:.4f}  "
                  f"skipped: {len(report.skipped)}")
    elif command == "features":
        path = pipeline.run_features(config)
        print(f"wrote {path}")
    elif command == "train":
        model, metrics = pipeline.run_train(config)
        print(f"threshold: {model.threshold:.6f}")
        print(f"test precision: {metrics.precision:.4f}  recall: {metrics.recall:.4f}  "
              f"f1: {metrics.f1:.4f}")
    elif command == "predict":
        rows = pipeline.run_predict(config)
        flagged = sum(1 for _, _, failure in rows if failure)
        print(f"scored {len(rows)} lineups, {flagged} predicted failures")
    elif command == "restore":
        bundle = pipeline.run_predict_and_restore(config)
        print(f"compared {len(bundle.report.per_lineup)} lineups, "
              f"{len(bundle.report.failed)} failed restorations")
    elif command == "compare":
        bundle = pipeline.run_compare(config)
        print(f"compared {len(bundle.report.per_lineup)} lineups, "
              f"{len(bundle.report.failed)} failed restorations")
    elif command == "report":
        for path in pipeline.run_report(config):
            print(f"wrote {path}")
    else:  # pragma: no cover - argparse enforces the choices
        raise ConfigError(f"unknown command {command!r}")
    return 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
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
