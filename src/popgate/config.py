"""Settings files and the constants the pipeline shares.

`load_file` decodes an endpoint or cost-model file into its dataclass, whose
fields are the file's keys, defaults and types. Unknown keys are rejected so
typos fail loudly. Every other setting is a command-line flag.
"""

from __future__ import annotations

from pathlib import Path
from typing import TypeVar

from .errors import ConfigError, ValidationError
from .util import from_object, read_json

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


def load_file(cls: type[T], path: str | Path) -> T:
    """Decode the JSON file `path` into `cls`, `EndpointConfig` or `CostModel`;
    every error names the path and the key."""
    payload = read_json(path, ConfigError)
    try:
        return from_object(cls, payload, "settings file")
    except ValidationError as exc:
        raise ConfigError(f"{path}: {exc}") from exc
