from __future__ import annotations

import json
import re
from dataclasses import fields, replace
from pathlib import Path

import pytest

from popgate.adaptive import CostModel
from popgate.cli import CONFIG_FLAGS
from popgate.config import RunConfig, load_file
from popgate.errors import ConfigError
from popgate.lm import (
    ORACLE_A, ORACLE_B, ORACLE_MISS_RATE, ORACLE_READOUT, EndpointConfig, completion_cache_key,
)


def write_config(tmp_path, payload: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = load_file(RunConfig, write_config(tmp_path, {}))
        assert config.bm25.k1 == 1.2
        assert config.bm25.b == 0.75
        assert config.run.shots == 15
        assert config.run.seed == 0
        assert config.run.mode == "vanilla"
        assert config == RunConfig()

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="retreival"):
            load_file(RunConfig, write_config(tmp_path, {"retreival": {}}))

    def test_unknown_nested_key_has_dotted_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"bm25\.k2"):
            load_file(RunConfig, write_config(tmp_path, {"bm25": {"k2": 1.0}}))

    def test_negative_price_rejected(self, tmp_path):
        path = write_config(tmp_path, {"price_per_1k_prompt_tokens": -0.5})
        with pytest.raises(ConfigError, match="price_per_1k_prompt_tokens"):
            load_file(CostModel, path)

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "paths": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_file(RunConfig, path)

    def test_unused_output_dir_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"paths\.output_dir"):
            load_file(RunConfig, write_config(tmp_path, {"paths": {"output_dir": "out"}}))

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

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            load_file(RunConfig, write_config(tmp_path, {"run": {"mode": "telepathy"}}))

    def test_endpoint_requires_base_url_and_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model is required"):
            load_file(EndpointConfig, write_config(tmp_path, {"base_url": "http://x"}))

    def test_defaults_have_explicit_seed(self):
        assert RunConfig().run.seed == 0


class TestDecoder:
    """Every settings file is decoded against its dataclass's fields."""

    def test_int_passes_for_float_and_is_converted(self, tmp_path):
        config = load_file(RunConfig, write_config(tmp_path, {"bm25": {"k1": 2}}))
        assert type(config.bm25.k1) is float and config.bm25.k1 == 2.0

    @pytest.mark.parametrize(
        "payload, message",
        [
            ({"bm25": {"k1": True}}, "bm25.k1 must be a number, got True"),
            ({"run": {"shots": 2.0}}, "run.shots must be an integer, got 2.0"),
            ({"run": {"mode": None}}, "run.mode must be a string, got None"),
            ({"pageviews": {"month": 202212}}, "pageviews.month must be a string, got 202212"),
            ({"pageviews": {"month": "2022-13"}}, "pageviews.month must be YYYY-MM, got '2022-13'"),
            ({"pageviews": {"month": "2022-12\n"}},
             "pageviews.month must be YYYY-MM, got '2022-12\\n'"),
            ({"paths": []}, "paths must be a JSON object, got []"),
            ({"bm25": {"b": float("nan")}}, "bm25.b must lie in [0, 1], got nan"),
            ({"bm25": {"b": float("inf")}}, "bm25.b must lie in [0, 1], got inf"),
            ({"run": {"seed": 8.0}}, "run.seed must be an integer, got 8.0"),
        ],
    )
    def test_rejected_value_names_file_and_dotted_key(self, tmp_path, payload, message):
        path = write_config(tmp_path, payload)
        with pytest.raises(ConfigError) as info:
            load_file(RunConfig, path)
        assert str(info.value) == f"{path}: {message}"

    def test_null_only_where_the_default_is_none(self, tmp_path):
        payload = {"paths": {"dataset": None}}
        assert load_file(RunConfig, write_config(tmp_path, payload)) == RunConfig()

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


def readme_config_table_keys() -> set[str]:
    """The backquoted keys in the first column of the README's config-file
    table, leaving out the values named in parentheses."""
    section = readme().split("\n## Config file\n", 1)[1].split("\n## ", 1)[0]
    keys = set()
    for line in section.splitlines():
        if line.startswith("| `"):
            keys.update(re.findall(r"`([^`]+)`", re.sub(r"\(.*?\)", "", line.split("|")[1])))
    return keys


def config_file_keys() -> set[tuple[str, str]]:
    """(section, key) of every key a config file may hold."""
    config = RunConfig()
    return {(s.name, k.name) for s in fields(config) for k in fields(getattr(config, s.name))}


class TestReadmeExamples:
    def test_endpoint_example_loads(self, tmp_path):
        (example,) = [text for text in readme_json_examples() if '"base_url"' in text]
        path = tmp_path / "endpoint.json"
        path.write_text(example)
        endpoint = load_file(EndpointConfig, path)
        assert endpoint.model == "my-model" and endpoint.requests_per_second == 5.0

    def test_config_example_loads_with_the_defaults(self, tmp_path):
        (example,) = [text for text in readme_json_examples() if '"paths"' in text]
        path = tmp_path / "config.json"
        path.write_text(example)
        config = load_file(RunConfig, path)
        assert config.paths.cache_dir == "pv-cache"
        assert replace(config, paths=RunConfig().paths) == RunConfig()

    def test_config_table_lists_every_config_key(self):
        assert readme_config_table_keys() == {f"{s}.{k}" for s, k in config_file_keys()}

    def test_oracle_paragraph_states_the_oracle_constants(self):
        paragraph = readme().split("\n`run --oracle` answers", 1)[1].split("\n\n", 1)[0]
        text = " ".join(paragraph.split())
        for stated in (f"a {ORACLE_A}", f"b {ORACLE_B}", f"readout {ORACLE_READOUT}",
                       f"else {ORACLE_MISS_RATE}"):
            assert stated in text


def test_config_file_holds_only_what_a_flag_sets():
    assert [f.name for f in fields(RunConfig)] == ["paths", "run", "bm25", "pageviews"]
    assert set(CONFIG_FLAGS.values()) == config_file_keys()
