"""Run configuration: one JSON file with per-stage sections.

Each section is a dataclass whose fields are the section's keys, defaults and
types, and every key is one a command-line flag also sets (`cli.CONFIG_FLAGS`).
`load_file` decodes a config, endpoint or cost-model file into its dataclass.
Unknown keys are rejected (with their dotted path) so typos fail loudly, and
every seed default is an explicit constant, never wall-clock derived.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, dataclass, field, fields, is_dataclass
from pathlib import Path
from typing import Any, TypeVar

from .errors import ConfigError, ValidationError
from .retriever import DEFAULT_B, DEFAULT_K1
from .util import read_json, require_finite, require_month

T = TypeVar("T")

MODES = ("vanilla", "retrieval", "genread")
AUGMENTED_MODES = MODES[1:]  # the modes a policy routes to
# Pinned so unconfigured runs are reproducible; override via config/CLI.
DEFAULT_PAGEVIEWS_MONTH = "2022-12"


@dataclass(frozen=True)
class PathsSection:
    """Input files and the page-view cache; a command-line flag wins over each."""

    dataset: str | None = None
    corpus: str | None = None
    index: str | None = None
    cache_dir: str | None = None
    triples: str | None = None


@dataclass(frozen=True)
class RunSection:
    mode: str = "vanilla"
    shots: int = 15
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"mode: unknown mode {self.mode!r}")
        if not self.shots >= 0:
            raise ValidationError(f"shots must be non-negative, got {self.shots}")


@dataclass(frozen=True)
class Bm25Section:
    k1: float = DEFAULT_K1
    b: float = DEFAULT_B

    def __post_init__(self):
        require_finite("k1", self.k1)
        if not 0 <= self.b <= 1:
            raise ValidationError(f"b must lie in [0, 1], got {self.b}")


@dataclass(frozen=True)
class PageviewsSection:
    month: str = DEFAULT_PAGEVIEWS_MONTH

    def __post_init__(self):
        require_month(self.month)


@dataclass(frozen=True)
class RunConfig:
    """A config file: one field per section."""

    paths: PathsSection = field(default_factory=PathsSection)
    run: RunSection = field(default_factory=RunSection)
    bm25: Bm25Section = field(default_factory=Bm25Section)
    pageviews: PageviewsSection = field(default_factory=PageviewsSection)


_TYPE_NAMES = {str: "a string", Path: "a string", int: "an integer", float: "a number",
               bool: "true or false", type(None): "null"}


def _decode(cls: type[T], payload: Any, where: str) -> T:
    """`cls` built from a JSON object whose keys are its fields; `where` is
    the dotted prefix of those keys in error messages."""
    if not isinstance(payload, dict):
        name = where.rstrip(".") or "the file"
        raise ConfigError(f"{name} must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key {where + unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in payload:
            values[f.name] = _value(hints[f.name], payload[f.name], where + f.name)
        elif f.default is MISSING and f.default_factory is MISSING:
            raise ConfigError(f"{where + f.name} is required")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ConfigError(f"{where}{exc}") from exc


def _value(hint: Any, value: Any, key: str) -> Any:
    """`value` if its JSON type is one that `hint` allows. An int passes for
    a float and is converted, a bool is never a number, null passes only
    where `hint` has None, and a dataclass is decoded from an object."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    for option in options:
        if is_dataclass(option):
            return _decode(option, value, key + ".")
        if option is float and type(value) in (int, float):
            try:
                return float(value)
            except OverflowError:
                raise ConfigError(
                    f"{key} must be a number a float can hold, "
                    f"got an integer of {len(str(value))} digits"
                ) from None
        if type(value) is option:
            return value
    expected = " or ".join(dict.fromkeys(_TYPE_NAMES[o] for o in options))
    raise ConfigError(f"{key} must be {expected}, got {value!r}")


def load_file(cls: type[T], path: str | Path) -> T:
    """Decode the JSON file `path` into `cls`: `RunConfig` for a config file,
    `EndpointConfig` for an endpoint file, `CostModel` for a cost model.
    Every error names the path and the dotted key."""
    payload = read_json(path, ConfigError)
    try:
        return _decode(cls, payload, "")
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
