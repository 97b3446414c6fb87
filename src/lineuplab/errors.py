"""Exception types shared across the package, and the text-file opener that
turns undecodable input into one of them."""

from contextlib import contextmanager


class LineupLabError(Exception):
    """Base class for all package errors."""


class ConfigError(LineupLabError):
    """Bad configuration or usage: missing paths, malformed config values."""


class DataError(LineupLabError):
    """Invalid data content: malformed files, violated invariants, bad inputs."""


class HookError(LineupLabError):
    """External restoration hook failed beyond the configured tolerance."""


@contextmanager
def open_text(path, error: type[LineupLabError] = DataError, newline=None):
    """Open ``path`` for reading as UTF-8. Bytes that do not decode, wherever
    the body reads them, raise ``error`` naming the file."""
    try:
        with open(path, "r", encoding="utf-8", newline=newline) as fh:
            yield fh
    except UnicodeDecodeError as exc:
        raise error(f"{path}: not UTF-8 text ({exc.reason})") from None
