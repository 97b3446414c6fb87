"""Run configuration: the ``PipelineConfig`` every command takes, the dotted
leaves the config file and the command-line flags set, and the curation
thresholds.

Configuration is a JSON file of nested sections; every leaf value can be
overridden on the command line by a flag carrying the same dotted name.
This module imports no numpy, so parsing a command line stays cheap.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

from lineuplab.errors import ConfigError, open_text

# subprocess waits on a hook through poll(), whose timeout is a signed 32-bit
# count of milliseconds; a longer hook.timeout overflows it.
MAX_HOOK_TIMEOUT_S = 2_147_483


@dataclass(frozen=True)
class CurationConfig:
    """Thresholds for the mechanical curation rules."""

    dark_threshold: float = 30.0     # mean intensity below this is TOO_DARK
    bright_threshold: float = 225.0  # mean intensity above this is TOO_BRIGHT
    blur_threshold: float = 15.0     # Laplacian variance below this is TOO_BLURRY


@dataclass(frozen=True)
class PipelineConfig:
    embeddings_original: str | None = None
    embeddings_restored: str | None = None
    images: str | None = None
    landmarks: str | None = None
    output: str = "out"
    model: str | None = None
    lineup_seed: int = 0
    distinct_fillers: bool = False
    dark_threshold: float = CurationConfig.dark_threshold
    bright_threshold: float = CurationConfig.bright_threshold
    blur_threshold: float = CurationConfig.blur_threshold
    train_seed: int = 0
    estimators: int = 100
    target: str = "source"  # which lineup image feeds failure prediction
    threshold_override: float | None = None
    hook_command: str | None = None
    hook_timeout: float = 60.0
    hook_failure_threshold: float = 1.0  # exceeding this fraction exits 3
    parallelism: int = 1

    def __post_init__(self):
        if self.parallelism < 1:
            raise ConfigError(f"parallelism must be >= 1, got {self.parallelism}")
        if self.estimators < 1:
            raise ConfigError(f"train.estimators must be >= 1, got {self.estimators}")
        # nan compares false with everything and would switch its rule off;
        # inf stays allowed and means "never" or "always".
        for leaf in ("dark_threshold", "bright_threshold", "blur_threshold"):
            if math.isnan(getattr(self, leaf)):
                raise ConfigError(f"curation.{leaf} must be a number, got nan")
        if self.train_seed < 0:
            raise ConfigError(f"train.seed must be >= 0, got {self.train_seed}")
        if self.target not in ("source", "probe"):
            raise ConfigError(f"train.target must be 'source' or 'probe', got {self.target!r}")
        if self.threshold_override is not None and not 0.25 <= self.threshold_override <= 0.75:
            raise ConfigError(
                f"predict.threshold must lie in [0.25, 0.75], got {self.threshold_override}"
            )
        if not self.hook_timeout > 0:
            raise ConfigError(f"hook.timeout must be > 0, got {self.hook_timeout}")
        if not self.hook_timeout <= MAX_HOOK_TIMEOUT_S:
            raise ConfigError(
                f"hook.timeout must be at most {MAX_HOOK_TIMEOUT_S} s, got {self.hook_timeout}"
            )
        if not 0.0 <= self.hook_failure_threshold <= 1.0:
            raise ConfigError(
                f"hook.failure_threshold must lie in [0, 1], got {self.hook_failure_threshold}"
            )

    def curation_rules(self) -> CurationConfig:
        return CurationConfig(
            dark_threshold=self.dark_threshold,
            bright_threshold=self.bright_threshold,
            blur_threshold=self.blur_threshold,
        )

    def out(self, name: str) -> Path:
        return Path(self.output) / name


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "1", "yes"):
        return True
    if lowered in ("false", "0", "no"):
        return False
    raise ConfigError(f"expected a boolean, got {text!r}")


def _parse_optional_float(text: str):
    return None if text.strip().lower() in ("none", "null", "") else float(text)


# dotted config name -> (dataclass attribute, parser for CLI strings)
CONFIG_LEAVES = {
    "paths.embeddings_original": ("embeddings_original", str),
    "paths.embeddings_restored": ("embeddings_restored", str),
    "paths.images": ("images", str),
    "paths.landmarks": ("landmarks", str),
    "paths.output": ("output", str),
    "paths.model": ("model", str),
    "lineup.seed": ("lineup_seed", int),
    "lineup.distinct_fillers": ("distinct_fillers", _parse_bool),
    "curation.dark_threshold": ("dark_threshold", float),
    "curation.bright_threshold": ("bright_threshold", float),
    "curation.blur_threshold": ("blur_threshold", float),
    "train.seed": ("train_seed", int),
    "train.estimators": ("estimators", int),
    "train.target": ("target", str),
    "predict.threshold": ("threshold_override", _parse_optional_float),
    "hook.command": ("hook_command", str),
    "hook.timeout": ("hook_timeout", float),
    "hook.failure_threshold": ("hook_failure_threshold", float),
    "parallelism": ("parallelism", int),
}


# leaf parser -> (JSON types a non-string value may have, their description).
# A bool is not a number here, although Python counts it as an int.
_JSON_TYPES = {
    str: ((), "a string"),
    int: ((int,), "an integer"),
    float: ((int, float), "a number"),
    _parse_bool: ((bool,), "a boolean"),
    _parse_optional_float: ((int, float), "a number or null"),
}


def _flatten(obj, prefix="") -> dict:
    out = {}
    for key, value in obj.items():
        dotted = f"{prefix}.{key}" if prefix else key
        if isinstance(value, dict):
            out.update(_flatten(value, dotted))
        else:
            out[dotted] = value
    return out


def _parse_leaf(dotted: str, value, origin: str = ""):
    """(attribute, value) for one dotted leaf; strings are parsed by the
    leaf's declared type, other values must already have that type (null
    only where the leaf defaults to null)."""
    if dotted not in CONFIG_LEAVES:
        raise ConfigError(f"{origin}unknown config key {dotted!r}")
    attr, parser = CONFIG_LEAVES[dotted]
    if isinstance(value, str):
        try:
            value = parser(value)
        except (ValueError, ConfigError) as exc:
            raise ConfigError(f"{origin}{dotted}: {exc}") from None
    else:
        types, description = _JSON_TYPES[parser]
        nullable = getattr(PipelineConfig, attr) is None
        if type(value) not in types and not (value is None and nullable):
            raise ConfigError(f"{origin}{dotted}: expected {description}, got {value!r}")
    return attr, value


def load_config(path=None, overrides: dict | None = None) -> PipelineConfig:
    """Build config from an optional JSON file plus dotted-name overrides.

    Override values arrive as strings (from CLI flags); string values, from
    either source, are parsed by the leaf's declared type.
    """
    fields = {}
    if path is not None:
        path = Path(path)
        if not path.is_file():
            raise ConfigError(f"config file not found: {path}")
        try:
            with open_text(path, ConfigError) as fh:
                raw = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: malformed JSON ({exc.msg})") from None
        if not isinstance(raw, dict):
            raise ConfigError(f"{path}: config root must be an object")
        for dotted, value in _flatten(raw).items():
            attr, value = _parse_leaf(dotted, value, f"{path}: ")
            fields[attr] = value
    for dotted, text in (overrides or {}).items():
        attr, value = _parse_leaf(dotted, text)
        fields[attr] = value
    try:
        return PipelineConfig(**fields)
    except (TypeError, OverflowError) as exc:
        raise ConfigError(f"invalid configuration: {exc}") from None


def require_path(config: PipelineConfig, dotted: str) -> Path:
    """The existing path a command needs from leaf ``dotted``."""
    value = getattr(config, CONFIG_LEAVES[dotted][0])
    if value is None:
        raise ConfigError(f"config value {dotted} is required for this command")
    path = Path(value)
    if not path.exists():
        raise ConfigError(f"{dotted}: path does not exist: {path}")
    return path
