"""The shared HTTP core of the API clients: headers, redirects, proxies and
keep-alive, seen from a localhost server."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path
from threading import TIMEOUT_MAX

import pytest

from popgate import __version__
from popgate.errors import ConfigError, TransportError, ValidationError
from popgate.lm import CompletionClient, EndpointConfig
from popgate.popularity import PageviewsClient, PageviewsConfig

from mockserver import MockServer, completions_server, pageviews_server

SRC = Path(__file__).resolve().parent.parent / "src"


def pageviews_client(base_url, tmp_path, **kwargs) -> PageviewsClient:
    defaults = dict(
        base_url=base_url, cache_dir=tmp_path / "cache", requests_per_second=None, backoff_s=0.01
    )
    defaults.update(kwargs)
    return PageviewsClient(PageviewsConfig(**defaults))


def completion_client(base_url, tmp_path, **kwargs) -> CompletionClient:
    defaults = dict(
        base_url=base_url, model="m", cache_dir=tmp_path / "cache", backoff_s=0.01, timeout_s=5.0
    )
    defaults.update(kwargs)
    return CompletionClient(EndpointConfig(**defaults))


@pytest.mark.parametrize(
    "changes, message",
    [({"max_retries": -1}, "max_retries must be >= 0, got -1"),
     ({"timeout_s": float("nan")}, "timeout_s must be finite and >= 0, got nan"),
     ({"backoff_s": -1}, "backoff_s must be finite and >= 0, got -1.0"),
     ({"requests_per_second": float("nan")},
      "requests_per_second must be null or finite and > 0, got nan"),
     ({"requests_per_second": 0}, "requests_per_second must be null or finite and > 0, got 0.0"),
     ({"requests_per_second": float("inf")},
      "requests_per_second must be null or finite and > 0, got inf"),
     ({"max_parallelism": 0}, "max_parallelism must be >= 1, got 0"),
     ({"cache_dir": ""}, "cache_dir must be a non-empty path or null"),
     # Durations past TIMEOUT_MAX overflow socket timeouts and time.sleep.
     ({"timeout_s": 1e10}, f"timeout_s must be at most {TIMEOUT_MAX} s, got 10000000000.0"),
     *[(changes, f"backoff_s·2^(max_retries-1) must be at most {TIMEOUT_MAX} s, got {got}")
       for changes, got in [({"backoff_s": 1e10}, "10000000000.0·2^2"),
                            ({"backoff_s": 1e9, "max_retries": 5}, "1000000000.0·2^4"),
                            ({"backoff_s": 0.5, "max_retries": 10**6}, "0.5·2^999999")]],
     *[({"requests_per_second": rate}, "max_parallelism/requests_per_second must be at most "
        f"{TIMEOUT_MAX} s, got 4/{rate}") for rate in (1e-10, 4e-10)],
     *[({"base_url": url}, f"base_url {url!r}: {cause}")
       for url, cause in [("http://[::1/v1", "Invalid IPv6 URL"),
                          ("http://[::1", "Invalid IPv6 URL"),
                          ("http://x:99999/v1", "Port out of range 0-65535"),
                          ("http://x:port", "Port could not be cast to integer value as 'port'")]],
     *[({"base_url": url}, f"base_url must be http(s)://host[:port][/path], got {url!r}")
       for url in ("http:///v1", "ftp://x/v1", "x/v1", "",
                   # A query or fragment, even an empty one, would hold the
                   # request path appended to it.
                   "http://x/v1?key=1", "http://x/v1#frag", "http://x/v1?key=1#frag",
                   "http://x/v1?", "http://x/v1#")]],
)
@pytest.mark.parametrize(
    "config, required",
    [(PageviewsConfig, {}), (EndpointConfig, {"base_url": "http://x", "model": "m"})],
)
def test_both_clients_check_their_transport_settings_alike(config, required, changes, message):
    with pytest.raises(ValidationError) as info:
        config(**{**required, **changes})
    assert str(info.value) == message


@pytest.mark.parametrize(
    "changes",
    [{"timeout_s": TIMEOUT_MAX}, {"backoff_s": TIMEOUT_MAX / 4},
     {"backoff_s": 1e10, "max_retries": 0}, {"backoff_s": 0.0, "max_retries": 10**6},
     {"requests_per_second": 8 / TIMEOUT_MAX}],
)
@pytest.mark.parametrize(
    "config, required",
    [(PageviewsConfig, {}), (EndpointConfig, {"base_url": "http://x", "model": "m"})],
)
def test_transport_settings_up_to_the_clock_bound_accepted(config, required, changes):
    """Retry sleeps that never happen, and durations of TIMEOUT_MAX itself, pass."""
    config(**required, **changes)


def test_both_clients_join_a_base_url_ending_in_a_slash_alike(tmp_path):
    with pageviews_server({"A": 1}) as server:
        assert pageviews_client(server.base_url + "/api/pageviews/", tmp_path).fetch(
            "A", "2022-12").views == 1
    with completions_server(lambda prompt: "ok") as completions:
        completion_client(completions.base_url + "/v1/", tmp_path).complete("hi")
    assert [r["path"] for r in server.requests] == [
        "/api/pageviews/per-article/en.wikipedia/all-access/user/A/monthly/20221201/20221231"]
    assert [r["path"] for r in completions.requests] == ["/v1/completions"]


def test_page_view_and_completion_defaults():
    pageviews, endpoint = PageviewsConfig(), EndpointConfig(base_url="http://x", model="m")
    assert (pageviews.timeout_s, pageviews.requests_per_second) == (30.0, 10.0)
    assert (endpoint.timeout_s, endpoint.requests_per_second) == (60.0, None)
    for config in (pageviews, endpoint):
        assert (config.max_retries, config.backoff_s, config.max_parallelism) == (3, 0.5, 4)


def test_import_does_not_load_requests():
    code = "import sys, popgate, popgate.cli; print('requests' in sys.modules)"
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    assert out.stdout.strip() == "False"


def test_default_user_agent_and_override(tmp_path, monkeypatch):
    monkeypatch.delenv("POPGATE_USER_AGENT", raising=False)
    with pageviews_server({"A": 1, "B": 2}) as server:
        pageviews_client(server.base_url, tmp_path).fetch("A", "2022-12")
        monkeypatch.setenv("POPGATE_USER_AGENT", "research-bot/1.0 (ops@example.org)")
        pageviews_client(server.base_url, tmp_path).fetch("B", "2022-12")
    agents = [r["headers"]["User-Agent"] for r in server.requests]
    assert agents == [f"popgate/{__version__}", "research-bot/1.0 (ops@example.org)"]


def test_bearer_token_from_api_key_env(tmp_path, monkeypatch):
    monkeypatch.setenv("POPGATE_TEST_KEY", "sekret")
    with completions_server(lambda prompt: "ok") as server:
        completion_client(server.base_url, tmp_path, api_key_env="POPGATE_TEST_KEY").complete("hi")
    assert server.requests[0]["headers"]["Authorization"] == "Bearer sekret"


def test_redirect_is_transport_error_naming_status_and_location(tmp_path):
    def respond(method, path, body):
        return 302, {}, {"Location": "/moved/completions"}

    with MockServer(respond) as server:
        client = completion_client(server.base_url, tmp_path, max_retries=2)
        with pytest.raises(TransportError, match="302.*/moved/completions"):
            client.complete("hi")
    assert [r["path"] for r in server.requests] == ["/completions"]


def test_http_proxy_receives_absolute_url(tmp_path, monkeypatch):
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    with completions_server(lambda prompt: "via proxy") as proxy:
        monkeypatch.setenv("http_proxy", proxy.base_url)
        client = completion_client("http://completions.invalid/v1", tmp_path)
        assert client.complete("hi").text == "via proxy"
    assert proxy.requests[0]["path"] == "http://completions.invalid/v1/completions"
    assert proxy.requests[0]["headers"]["Host"] == "completions.invalid"


@pytest.mark.parametrize(
    "proxy, cause",
    [("http://proxy:99999", "Port out of range 0-65535"), ("http://[::1", "Invalid IPv6 URL")],
)
def test_bad_proxy_url_is_config_error_before_any_connect(tmp_path, monkeypatch, proxy, cause):
    for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
        monkeypatch.delenv(name, raising=False)
    monkeypatch.setenv("http_proxy", proxy)
    client = completion_client("http://completions.invalid/v1", tmp_path, max_retries=3)
    with pytest.raises(ConfigError) as info:
        client.complete("hi")
    assert str(info.value) == f"bad http_proxy {proxy!r}: {cause}"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("kind", ["pageviews", "completions"])
def test_both_clients_refuse_a_status_they_do_not_accept_alike(tmp_path, kind):
    with MockServer(lambda m, p, b: (403, {"error": "forbidden"})) as server:
        if kind == "pageviews":
            url = (f"{server.base_url}/per-article/en.wikipedia/all-access/user/A/monthly/"
                   "20221201/20221231")
            call = lambda: pageviews_client(server.base_url, tmp_path).fetch("A", "2022-12")
        else:
            url = f"{server.base_url}/completions"
            call = lambda: completion_client(server.base_url, tmp_path).complete("hi")
        with pytest.raises(TransportError) as info:
            call()
        assert len(server.requests) == 1
    assert str(info.value) == f"HTTP 403 from {url}"
    assert not (tmp_path / "cache").exists()


@pytest.mark.parametrize("kind", ["pageviews", "completions"])
def test_sequential_calls_reuse_one_connection(tmp_path, kind):
    if kind == "pageviews":
        with pageviews_server({"A": 1, "B": 2, "C": 3}, keep_alive=True) as server:
            client = pageviews_client(server.base_url, tmp_path)
            for title in ("A", "B", "C"):
                client.fetch(title, "2022-12")
    else:
        with completions_server(lambda p: "ok", keep_alive=True) as server:
            client = completion_client(server.base_url, tmp_path)
            for prompt in ("a", "b", "c"):
                client.complete(prompt)
    assert len(server.requests) == 3
    assert len({r["client"] for r in server.requests}) == 1


@pytest.mark.parametrize("kind", ["pageviews", "completions"])
def test_server_dropping_idle_connections_costs_no_retry(tmp_path, caplog, kind):
    with caplog.at_level("INFO", logger="popgate"):
        if kind == "pageviews":
            views = {"A": 1, "B": 2, "C": 3}
            with pageviews_server(views, keep_alive=True, drop_idle=True) as server:
                client = pageviews_client(server.base_url, tmp_path, max_retries=0)
                for title in ("A", "B", "C"):
                    client.fetch(title, "2022-12")
        else:
            with completions_server(lambda p: "ok", keep_alive=True, drop_idle=True) as server:
                client = completion_client(server.base_url, tmp_path, max_retries=0)
                for prompt in ("a", "b", "c"):
                    client.complete(prompt)
    assert len(server.requests) == 3
    assert len({r["client"] for r in server.requests}) == 3
    assert not [r for r in caplog.records if "retry" in r.getMessage()]
