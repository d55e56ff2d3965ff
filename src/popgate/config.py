"""Run configuration: one JSON file with per-stage sections.

Unknown keys are rejected (with their dotted path) so typos fail loudly, and
every seed default is an explicit constant, never wall-clock derived.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields
from pathlib import Path

from .adaptive import CostModel
from .errors import ConfigError, ValidationError
from .lm import DEFAULT_GENREAD_INSTRUCTION, EndpointConfig, OracleParams
from .popularity import DEFAULT_PAGEVIEWS_MONTH
from .retriever import DEFAULT_B, DEFAULT_K1
from .util import read_text

_PATH_KEYS = ("dataset", "corpus", "index", "cache_dir", "triples")

_ENDPOINT_KEYS = {f.name for f in fields(EndpointConfig)}


@dataclass
class RunConfig:
    paths: dict[str, str] = field(default_factory=dict)
    mode: str = "vanilla"
    shots: int = 15
    seed: int = 0
    bm25_k1: float = DEFAULT_K1
    bm25_b: float = DEFAULT_B
    pageviews_month: str = DEFAULT_PAGEVIEWS_MONTH
    genread_instruction: str = DEFAULT_GENREAD_INSTRUCTION
    endpoint: EndpointConfig | None = None
    oracle: OracleParams = field(default_factory=OracleParams)
    cost_model: CostModel = field(
        default_factory=lambda: CostModel(
            price_per_1k_prompt_tokens=0.02,
            price_per_1k_completion_tokens=0.02,
            retrieval_latency_ms=50,
        )
    )


def _require_keys(section: dict, allowed: set[str], prefix: str) -> None:
    unknown = sorted(set(section) - allowed)
    if unknown:
        raise ConfigError(f"unknown config key {prefix + unknown[0]!r}")


def _section(payload: dict, name: str) -> dict:
    section = payload.get(name, {})
    if not isinstance(section, dict):
        raise ConfigError(f"config section {name!r} must be an object")
    return section


def parse_endpoint_config(payload: dict, prefix: str = "endpoint.") -> EndpointConfig:
    _require_keys(payload, _ENDPOINT_KEYS, prefix)
    try:
        return EndpointConfig(
            base_url=payload["base_url"],
            model=payload["model"],
            api_key_env=payload.get("api_key_env"),
            cache_dir=payload.get("cache_dir", "completions-cache"),
            endpoint_id=payload.get("endpoint_id"),
            temperature=float(payload.get("temperature", 0.0)),
            max_tokens=int(payload.get("max_tokens", 64)),
            timeout_s=float(payload.get("timeout_s", 60.0)),
            max_retries=int(payload.get("max_retries", 3)),
            backoff_s=float(payload.get("backoff_s", 0.5)),
            max_parallelism=int(payload.get("max_parallelism", 4)),
            requests_per_second=payload.get("requests_per_second"),
        )
    except KeyError as exc:
        raise ConfigError(f"{prefix}{exc.args[0]} is required") from exc


def parse_cost_model(payload: dict, prefix: str = "cost_model.") -> CostModel:
    _require_keys(payload, {f.name for f in fields(CostModel)}, prefix)
    defaults = RunConfig().cost_model
    try:
        return CostModel(
            price_per_1k_prompt_tokens=float(
                payload.get(
                    "price_per_1k_prompt_tokens", defaults.price_per_1k_prompt_tokens
                )
            ),
            price_per_1k_completion_tokens=float(
                payload.get(
                    "price_per_1k_completion_tokens",
                    defaults.price_per_1k_completion_tokens,
                )
            ),
            retrieval_latency_ms=int(
                payload.get("retrieval_latency_ms", defaults.retrieval_latency_ms)
            ),
        )
    except ValidationError as exc:
        raise ConfigError(f"{prefix.rstrip('.')}: {exc}") from exc


def load_config(path: str | Path) -> RunConfig:
    """Parse and validate a config file; unknown keys are rejected."""
    try:
        payload = json.loads(read_text(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(payload, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    _require_keys(
        payload,
        {"paths", "run", "bm25", "pageviews", "genread_instruction", "oracle", "endpoint",
         "cost_model"},
        "",
    )
    paths = _section(payload, "paths")
    _require_keys(paths, set(_PATH_KEYS), "paths.")
    run = _section(payload, "run")
    _require_keys(run, {"mode", "shots", "seed"}, "run.")
    bm25 = _section(payload, "bm25")
    _require_keys(bm25, {"k1", "b"}, "bm25.")
    pageviews = _section(payload, "pageviews")
    _require_keys(pageviews, {"month"}, "pageviews.")
    oracle = _section(payload, "oracle")
    _require_keys(oracle, {"a", "b", "readout"}, "oracle.")
    defaults = RunConfig()
    mode = run.get("mode", defaults.mode)
    if mode not in ("vanilla", "retrieval", "genread"):
        raise ConfigError(f"run.mode: unknown mode {mode!r}")
    shots = int(run.get("shots", defaults.shots))
    if shots < 0:
        raise ConfigError("run.shots must be non-negative")
    config = RunConfig(
        paths={k: str(v) for k, v in paths.items()},
        mode=mode,
        shots=shots,
        seed=int(run.get("seed", defaults.seed)),
        bm25_k1=float(bm25.get("k1", defaults.bm25_k1)),
        bm25_b=float(bm25.get("b", defaults.bm25_b)),
        pageviews_month=str(pageviews.get("month", defaults.pageviews_month)),
        genread_instruction=str(
            payload.get("genread_instruction", defaults.genread_instruction)
        ),
        oracle=OracleParams(
            a=float(oracle.get("a", defaults.oracle.a)),
            b=float(oracle.get("b", defaults.oracle.b)),
            readout=float(oracle.get("readout", defaults.oracle.readout)),
        ),
        cost_model=parse_cost_model(_section(payload, "cost_model")),
    )
    if "endpoint" in payload:
        config.endpoint = parse_endpoint_config(_section(payload, "endpoint"))
    if not 0 <= config.oracle.readout <= 1:
        raise ConfigError("oracle.readout must lie in [0, 1]")
    if config.bm25_k1 < 0 or not 0 <= config.bm25_b <= 1:
        raise ConfigError("bm25: k1 must be >= 0 and b in [0, 1]")
    return config
