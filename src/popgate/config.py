"""Settings files and the constants the pipeline shares.

`load_file` decodes an endpoint or cost-model file into its dataclass, whose
fields are the file's keys, defaults and types. Unknown keys are rejected so
typos fail loudly. Every other setting is a command-line flag.
"""

from __future__ import annotations

import typing
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Any, TypeVar

from .errors import ConfigError, ValidationError
from .util import read_json

T = TypeVar("T")

MODES = ("vanilla", "retrieval", "genread")
AUGMENTED_MODES = MODES[1:]  # the modes a policy routes to
# Pinned so that a run without `--month` is reproducible.
DEFAULT_PAGEVIEWS_MONTH = "2022-12"
DEFAULT_PAGEVIEWS_BASE_URL = "https://wikimedia.org/api/rest_v1/metrics/pageviews"
DEFAULT_PER_RELATION_CAP = 2000
DEFAULT_MIN_BIN_N = 40
DEFAULT_SPLIT_FRACTION = 0.75
DEFAULT_REPEATS = 100
DEMO_SIZE = 2000


_TYPE_NAMES = {str: "a string", Path: "a string", int: "an integer", float: "a number",
               bool: "true or false", type(None): "null"}


def _decode(cls: type[T], payload: Any) -> T:
    """`cls` built from a JSON object whose keys are its fields."""
    if not isinstance(payload, dict):
        raise ConfigError(f"the file must be a JSON object, got {payload!r}")
    unknown = sorted(set(payload) - {f.name for f in fields(cls)})
    if unknown:
        raise ConfigError(f"unknown config key {unknown[0]!r}")
    hints = typing.get_type_hints(cls)
    values = {}
    for f in fields(cls):
        if f.name in payload:
            values[f.name] = _value(hints[f.name], payload[f.name], f.name)
        elif f.default is MISSING:
            raise ConfigError(f"{f.name} is required")
    try:
        return cls(**values)
    except ValidationError as exc:
        raise ConfigError(str(exc)) from exc


def _value(hint: Any, value: Any, key: str) -> Any:
    """`value` if its JSON type is one that `hint` allows. An int passes for
    a float and is converted, a bool is never a number, null passes only
    where `hint` has None."""
    options = typing.get_args(hint) or (hint,)
    if value is None and type(None) in options:
        return None
    for option in options:
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
    """Decode the JSON file `path` into `cls`: `EndpointConfig` for an
    endpoint file, `CostModel` for a cost model. Every error names the path
    and the key."""
    payload = read_json(path, ConfigError)
    try:
        return _decode(cls, payload)
    except ConfigError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
