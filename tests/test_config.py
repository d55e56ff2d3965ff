from __future__ import annotations

import json

import pytest

from popgate.config import RunConfig, load_config
from popgate.errors import ConfigError


def write_config(tmp_path, payload: dict):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return path


class TestLoadConfig:
    def test_minimal_config_fills_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, {}))
        assert config.bm25_k1 == 1.2
        assert config.bm25_b == 0.75
        assert config.shots == 15
        assert config.seed == 0
        assert config.mode == "vanilla"
        assert config.endpoint is None
        assert config.oracle.a == 2.0 and config.oracle.b == 3.5

    def test_unknown_top_level_key_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="retreival"):
            load_config(write_config(tmp_path, {"retreival": {}}))

    def test_unknown_nested_key_has_dotted_path(self, tmp_path):
        with pytest.raises(ConfigError, match=r"bm25\.k2"):
            load_config(write_config(tmp_path, {"bm25": {"k2": 1.0}}))

    def test_negative_price_rejected(self, tmp_path):
        payload = {"cost_model": {"price_per_1k_prompt_tokens": -0.5}}
        with pytest.raises(ConfigError, match="cost_model"):
            load_config(write_config(tmp_path, payload))

    def test_parse_error_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{\n  "paths": {,}\n}')
        with pytest.raises(ConfigError, match="line 2"):
            load_config(path)

    def test_unused_output_dir_path_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match=r"paths\.output_dir"):
            load_config(write_config(tmp_path, {"paths": {"output_dir": "out"}}))

    def test_endpoint_keys_are_the_endpoint_config_fields(self, tmp_path):
        endpoint = {
            "base_url": "http://x", "model": "m", "api_key_env": "KEY", "cache_dir": "c",
            "endpoint_id": "e", "temperature": 0.5, "max_tokens": 8, "timeout_s": 2.0,
            "max_retries": 1, "backoff_s": 0.1, "max_parallelism": 2, "requests_per_second": 3,
        }
        config = load_config(write_config(tmp_path, {"endpoint": endpoint}))
        assert config.endpoint.api_key_env == "KEY" and config.endpoint.max_tokens == 8
        with pytest.raises(ConfigError, match=r"endpoint\.retries"):
            load_config(write_config(tmp_path, {"endpoint": {**endpoint, "retries": 1}}))

    def test_bad_mode_rejected(self, tmp_path):
        with pytest.raises(ConfigError, match="mode"):
            load_config(write_config(tmp_path, {"run": {"mode": "telepathy"}}))

    def test_endpoint_requires_base_url_and_model(self, tmp_path):
        with pytest.raises(ConfigError, match="model"):
            load_config(write_config(tmp_path, {"endpoint": {"base_url": "http://x"}}))

    def test_defaults_have_explicit_seed(self):
        assert RunConfig().seed == 0
