"""Run one ``lineuplab`` command in this process, as the ``lineuplab``
console script would: ``python3 entry.py <command> [flags...]``.

When PERFBENCH_SPANS names a file, the package is traced from outside (see
tracer.py) and the spans are written to that file after the command
returns. PERFBENCH_SPAWNED carries the parent's monotonic clock reading
taken just before it started this process.

When PERFBENCH_PEAK_RSS names a file, the process's peak resident set
(VmHWM, in KiB) is written there at the end. The parent cannot use the
child's ``ru_maxrss`` for this: on Linux it also counts the parent's memory,
which the child shares or copies before it executes Python.
"""

import os
import sys


def _peak_rss_kib() -> str:
    with open("/proc/self/status", encoding="ascii") as fh:
        return next(line.split()[1] for line in fh if line.startswith("VmHWM:"))


def main() -> int:
    spans_path = os.environ.get("PERFBENCH_SPANS")
    rss_path = os.environ.get("PERFBENCH_PEAK_RSS")
    recorder = None
    if spans_path:
        import tracer

        recorder = tracer.install(float(os.environ["PERFBENCH_SPAWNED"]))
    from lineuplab import cli

    try:
        return cli.main(sys.argv[1:])
    finally:
        if recorder is not None:
            recorder.dump(spans_path)
        if rss_path:
            with open(rss_path, "w", encoding="ascii") as fh:
                fh.write(_peak_rss_kib())


if __name__ == "__main__":
    raise SystemExit(main())
