from __future__ import annotations

import argparse
import json
import re
from inspect import signature
from pathlib import Path

import pytest

from popgate.adaptive import CostModel, tune_thresholds
from popgate.cli import build_parser
from popgate.config import load_file
from popgate.dataset import sample_triples
from popgate.demo import run_demo
from popgate.errors import ConfigError
from popgate.evaluation import evaluate_run
from popgate.lm import (
    ORACLE_A, ORACLE_B, ORACLE_MISS_RATE, ORACLE_READOUT, EndpointConfig, completion_cache_key,
)
from popgate.popularity import PageviewsConfig

ENDPOINT = {"base_url": "http://x", "model": "m"}


def write_config(tmp_path, payload: dict):
    path = tmp_path / "settings.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_unknown_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="retrieval_latency'"):
            load_file(CostModel, write_config(tmp_path, {"retrieval_latency": 50}))

    def test_negative_price_rejected(self, tmp_path):
        path = write_config(tmp_path, {"price_per_1k_prompt_tokens": -0.5})
        with pytest.raises(ConfigError, match="price_per_1k_prompt_tokens"):
            load_file(CostModel, path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "retrieval_latency_ms": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_file(CostModel, path)

    def test_endpoint_keys_are_the_endpoint_config_fields(self, tmp_path):
        endpoint = {
            "base_url": "http://x", "model": "m", "api_key_env": "KEY", "cache_dir": "c",
            "endpoint_id": "e", "temperature": 0.5, "max_tokens": 8, "timeout_s": 2.0,
            "max_retries": 1, "backoff_s": 0.1, "max_parallelism": 2, "requests_per_second": 3,
        }
        config = load_file(EndpointConfig, write_config(tmp_path, endpoint))
        assert config.api_key_env == "KEY" and config.max_tokens == 8
        with pytest.raises(ConfigError, match="'retries'"):
            load_file(EndpointConfig, write_config(tmp_path, {**endpoint, "retries": 1}))

    def test_endpoint_requires_base_url_and_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model is required"):
            load_file(EndpointConfig, write_config(tmp_path, {"base_url": "http://x"}))


class TestDecoder:
    """Every settings file is decoded against its dataclass's fields."""

    def test_int_passes_for_float_and_is_converted(self, tmp_path):
        payload = {"price_per_1k_prompt_tokens": 2}
        config = load_file(CostModel, write_config(tmp_path, payload))
        assert type(config.price_per_1k_prompt_tokens) is float
        assert config.price_per_1k_prompt_tokens == 2.0

    @pytest.mark.parametrize(
        "cls, payload, message",
        [
            (CostModel, {"price_per_1k_prompt_tokens": True},
             "price_per_1k_prompt_tokens must be a number, got True"),
            (CostModel, {"retrieval_latency_ms": 2.0},
             "retrieval_latency_ms must be an integer, got 2.0"),
            (CostModel, {"retrieval_latency_ms": True},
             "retrieval_latency_ms must be an integer, got True"),
            (CostModel, {"retrieval_latency_ms": None},
             "retrieval_latency_ms must be an integer, got None"),
            (EndpointConfig, {**ENDPOINT, "model": None}, "model must be a string, got None"),
            (EndpointConfig, {**ENDPOINT, "model": 5}, "model must be a string, got 5"),
            (EndpointConfig, {**ENDPOINT, "max_tokens": 8.0},
             "max_tokens must be an integer, got 8.0"),
            (EndpointConfig, {**ENDPOINT, "temperature": False},
             "temperature must be a number, got False"),
            (EndpointConfig, {**ENDPOINT, "cache_dir": 5},
             "cache_dir must be a string or null, got 5"),
        ],
    )
    def test_rejected_value_names_file_and_key(self, tmp_path, cls, payload, message):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError) as info:
            load_file(cls, path)
        assert str(info.value) == f"{path}: {message}"

    def test_null_only_where_the_default_is_none(self, tmp_path):
        payload = {**ENDPOINT, "api_key_env": None, "requests_per_second": None}
        assert load_file(EndpointConfig, write_config(tmp_path, payload)) == EndpointConfig(
            **ENDPOINT
        )

    def test_cost_model_file(self, tmp_path):
        path = tmp_path / "costs.json"
        path.write_text('{"price_per_1k_prompt_tokens": 1, "retrieval_latency_ms": 7}')
        assert load_file(CostModel, path) == CostModel(1.0, 0.02, 7)
        assert CostModel() == CostModel(0.02, 0.02, 50)

    def test_integer_temperature_keeps_the_completion_cache_key(self, tmp_path):
        # An endpoint file with "temperature": 0 keys its completions exactly
        # as before the decoder existed, so existing caches still hit.
        path = tmp_path / "endpoint.json"
        path.write_text('{"base_url": "http://127.0.0.1:8000/v1", "model": "m", "temperature": 0}')
        endpoint = load_file(EndpointConfig, path)
        assert endpoint.temperature == 0.0 and type(endpoint.temperature) is float
        assert completion_cache_key(endpoint, "Q: Who? A:") == (
            "9aa057a041eeaf80d83f9c56e3d59a2d11abf687494f86421edabda8f34ac9b4"
        )


def readme() -> str:
    return (Path(__file__).resolve().parent.parent / "README.md").read_text(encoding="utf-8")


def readme_json_examples() -> list[str]:
    return re.findall(r"```json\n(.*?)```", readme(), flags=re.DOTALL)


def readme_flag_defaults() -> dict[str, str]:
    """Each flag of the README's flag table, by the default it states. A row
    may name several flags, whose defaults it lists in the same order."""
    section = readme().split("\n## Pipeline commands\n", 1)[1].split("\n## ", 1)[0]
    stated = {}
    for line in section.splitlines():
        if line.startswith("| `--"):
            flags, default = line.split("|")[1:3]
            flags = re.findall(r"`(--[a-z0-9-]+)`", re.sub(r"\(.*?\)", "", flags))
            stated.update(zip(flags, default.strip().split(", "), strict=True))
    return stated


def parser_defaults() -> dict[str, object]:
    """Each flag of every subcommand that takes a value and has a parser
    default, by that default."""
    (commands,) = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    return {
        action.option_strings[-1]: action.default
        for command in commands.choices.values()
        for action in command._actions
        if action.option_strings and action.nargs != 0 and action.default is not None
    }


class TestReadmeExamples:
    def test_endpoint_example_loads(self, tmp_path):
        (example,) = [text for text in readme_json_examples() if '"base_url"' in text]
        path = tmp_path / "endpoint.json"
        path.write_text(example)
        endpoint = load_file(EndpointConfig, path)
        assert endpoint.model == "my-model" and endpoint.requests_per_second == 5.0

    def test_flag_table_states_every_default(self):
        defaults = parser_defaults()
        assert readme_flag_defaults() == {flag: str(value) for flag, value in defaults.items()}

    def test_flag_defaults_are_the_callee_defaults(self):
        """A flag left out gives the callee what calling it without the
        argument would."""
        defaults = parser_defaults()
        assert (defaults["--cap"], defaults["--min-bin-n"], defaults["--size"]) == (
            signature(sample_triples).parameters["per_relation_cap"].default,
            signature(evaluate_run).parameters["min_bin_n"].default,
            signature(run_demo).parameters["size"].default,
        )
        for callee in (tune_thresholds, run_demo):
            parameters = signature(callee).parameters
            assert (defaults["--split"], defaults["--repeats"]) == (
                parameters["split_fraction"].default, parameters["repeats"].default
            )
        pageviews = PageviewsConfig()
        assert (defaults["--endpoint"], defaults["--parallelism"]) == (
            pageviews.base_url, pageviews.max_parallelism
        )

    def test_oracle_paragraph_states_the_oracle_constants(self):
        paragraph = readme().split("\n`run --oracle` answers", 1)[1].split("\n\n", 1)[0]
        text = " ".join(paragraph.split())
        for stated in (f"a {ORACLE_A}", f"b {ORACLE_B}", f"readout {ORACLE_READOUT}",
                       f"else {ORACLE_MISS_RATE}"):
            assert stated in text

