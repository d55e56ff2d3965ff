from __future__ import annotations

import json
import os
import subprocess
import sys
import urllib.error
import urllib.request
from dataclasses import replace
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from popgate.dataset import read_dataset, write_dataset
from popgate.errors import ProtocolError, TransportError, ValidationError
from popgate.popularity import PageviewsClient, PageviewsConfig, PopularityRecord
from popgate.util import sha256_hex

from conftest import make_example, synthetic_examples
from mockserver import MockServer, pageviews_server

SRC = Path(__file__).resolve().parent.parent / "src"

# Page-view bodies in a wrong shape, each with part of its ProtocolError's text.
MALFORMED_PAGEVIEWS_BODIES = [
    pytest.param(b'{"items": [{"views": 1e400}]}', "views inf", id="views-1e400"),
    pytest.param({"items": [{"views": "12"}]}, "views '12'", id="views-string"),
    pytest.param({"items": [{"views": True}]}, "views True", id="views-true"),
    pytest.param({"items": [{"views": 2.5}]}, "views 2.5", id="views-2.5"),
    pytest.param({"items": [{"views": 3}, {"views": -1}]}, "views -1", id="views-negative"),
    pytest.param({"items": [{"views": None}]}, "views None", id="views-null"),
    pytest.param({"items": [{}]}, "'views'", id="no-views"),
    pytest.param({"items": 5}, "'int' object is not iterable", id="items-5"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth", id="too-deep"),
]


class TestLogPopularity:
    """`QAExample.log10_popularity`: log10 of the views, floored at one view."""

    def test_ten_thousand(self):
        assert make_example(0, popularity=10000).log10_popularity == 4.0

    def test_zero_floored_to_one_view(self):
        assert make_example(0, popularity=0).log10_popularity == 0.0

    def test_one(self):
        assert make_example(0, popularity=1).log10_popularity == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ValidationError):
            make_example(0, popularity=-1)

    @given(st.integers(min_value=0, max_value=10**12), st.integers(min_value=0, max_value=10**12))
    def test_monotone_non_decreasing(self, a, b):
        lo, hi = sorted((a, b))
        assert (
            make_example(0, popularity=lo).log10_popularity
            <= make_example(0, popularity=hi).log10_popularity
        )


class TestPageviewsClient:
    def _client(self, base_url, cache_dir, **kwargs) -> PageviewsClient:
        return PageviewsClient(
            PageviewsConfig(
                base_url=base_url,
                cache_dir=cache_dir,
                requests_per_second=None,
                backoff_s=0.01,
                **kwargs,
            )
        )

    def test_fetch_and_cache_round_trip(self, tmp_path):
        with pageviews_server({"Black": 10000}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            record = client.fetch("Black", "2022-12")
            assert record.views == 10000
            assert not record.missing
            assert len(server.requests) == 1

            again = client.fetch("Black", "2022-12")
            assert len(server.requests) == 1  # served from cache
            assert again == record

            # fresh client over the same cache directory = process restart
            restarted = self._client(server.base_url, tmp_path / "cache")
            assert restarted.fetch("Black", "2022-12") == record
            assert len(server.requests) == 1

    def test_unknown_title_gets_zero_views_and_missing_flag(self, tmp_path):
        with pageviews_server({}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            record = client.fetch("Nobody", "2022-12")
            assert record.views == 0
            assert record.missing

    def test_transport_error_after_bounded_retries(self, tmp_path):
        with pageviews_server({}) as server:
            server.respond = lambda method, path, body: (503, {"error": "down"})
            client = self._client(server.base_url, tmp_path / "cache", max_retries=2)
            with pytest.raises(TransportError, match="3 attempts"):
                client.fetch("Black", "2022-12")
            assert len(server.requests) == 3

    @pytest.mark.parametrize("body, message", MALFORMED_PAGEVIEWS_BODIES)
    def test_malformed_payload_is_protocol_error(self, tmp_path, body, message):
        with MockServer(lambda method, path, _body: (200, body)) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            with pytest.raises(ProtocolError, match="unexpected pageviews payload") as info:
                client.fetch("Black", "2022-12")
        assert message in str(info.value)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("month", ["2022-13", "2022-12\n"])
    def test_malformed_month_rejected(self, tmp_path, month):
        client = self._client("http://127.0.0.1:1", tmp_path / "cache")
        with pytest.raises(ValidationError, match="month must be YYYY-MM"):
            client.fetch("Black", month)

    def test_annotate_parallel(self, tmp_path):
        """12 distinct labels, each asked by two relations, at parallelism 4:
        one request per label, and each example gets its label's views."""
        examples = [make_example(i, relation) for relation in ("director", "genre")
                    for i in range(12)]
        views = {ex.subject_label: i * 100 for i, ex in enumerate(examples[:12])}
        with pageviews_server(views) as server:
            client = self._client(server.base_url, tmp_path / "cache", max_parallelism=4)
            annotated = client.annotate(examples, "2022-01")
            assert len(server.requests) == len(views)
        assert [ex.popularity for ex in annotated] == [views[ex.subject_label] for ex in examples]
        assert [ex.id for ex in annotated] == [ex.id for ex in examples]

    def test_annotate_fills_popularity(self, tmp_path):
        examples = [make_example(i, popularity=None) for i in range(3)]
        views = {ex.subject_label: 50 * (i + 1) for i, ex in enumerate(examples)}
        with pageviews_server(views) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            annotated = client.annotate(examples, "2022-12")
        assert [ex.popularity for ex in annotated] == [50, 100, 150]

    def test_title_with_spaces_is_sent_with_underscores(self, tmp_path):
        """The API names an article with "_" for each space; the record and
        its cache entry keep the title as given."""
        with pageviews_server({"Some Title": 7, "50% Off": 3}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            record = client.fetch("Some Title", "2022-12")
            assert client.fetch("50% Off", "2022-12").views == 3
            paths = [request["path"] for request in server.requests]
            with pytest.raises(urllib.error.HTTPError, match="404"):
                urllib.request.urlopen(server.base_url + paths[0].replace("_", "%20"))
        assert (record.entity_title, record.views, record.missing) == ("Some Title", 7, False)
        assert "/Some_Title/monthly/" in paths[0] and "/50%25_Off/monthly/" in paths[1]
        assert entry_path(tmp_path / "cache", "Some Title").exists()

    def test_annotate_logs_how_many_titles_are_missing(self, tmp_path, caplog):
        examples = [replace(make_example(i), subject_label=f"Title {i}") for i in range(3)]
        with pageviews_server({"Title 1": 5}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            with caplog.at_level("INFO", logger="popgate.popularity"):
                annotated = client.annotate(examples, "2022-12")
        assert [ex.popularity for ex in annotated] == [0, 5, 0]
        assert [r.getMessage() for r in caplog.records] == [
            "2 of 3 titles have no page-view article"
        ]

    def test_annotate_logs_nothing_when_no_title_is_missing(self, tmp_path, caplog):
        with pageviews_server({"Subject00000": 5}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            with caplog.at_level("INFO", logger="popgate.popularity"):
                client.annotate([make_example(0)], "2022-12")
        assert caplog.records == []

    def test_annotate_refuses_a_dataset_without_any_article(self, tmp_path):
        examples = [make_example(i) for i in range(2)]
        with pageviews_server({}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            with pytest.raises(ValidationError,
                               match="^2 of 2 titles have no page-view article$"):
                client.annotate(examples, "2022-12")
            assert client.annotate([], "2022-12") == []

    def test_no_temp_files_left_behind(self, tmp_path):
        with pageviews_server({"Black": 7}) as server:
            client = self._client(server.base_url, tmp_path / "cache")
            client.fetch("Black", "2022-12")
        leftovers = [p for p in (tmp_path / "cache").iterdir() if p.suffix != ".json"]
        assert leftovers == []


class TestPopularityRecord:
    def test_negative_views_rejected(self):
        with pytest.raises(ValidationError):
            PopularityRecord("X", "2022-01", -1, "2022-01-01T00:00:00+00:00")

    @pytest.mark.parametrize(
        "month", ["202201", "2022-13", "2022-00", "2022-1", "2022-12\n", " 2022-12",
                  "\u0662\u0660\u0662\u0662-12", "2022-\uff11\uff12"],
    )
    def test_malformed_month_rejected(self, month):
        with pytest.raises(ValidationError, match=r"^month must be YYYY-MM, got "):
            PopularityRecord("X", month, 1, "2022-01-01T00:00:00+00:00")


def with_record(**changes):
    """A cache-entry corruption that sets fields of the stored record."""
    return lambda text: json.dumps({**json.loads(text), **changes})


def entry_path(cache, title: str, month: str = "2022-12"):
    """The cache file of a (title, month) page-view entry."""
    key = sha256_hex(f"{title}\x00{month}")[:24]
    return cache / f"{key}.json"


class TestCorruptPageviewsCache:
    @pytest.mark.parametrize(
        "corrupt",
        [lambda text: text[: len(text) // 2], lambda text: '{"title": "Black"}',
         lambda text: "[" * 100_000 + "]" * 100_000, with_record(views=True),
         with_record(views=2.5), with_record(missing="no"), with_record(entity_title=5),
         with_record(fetched_at=None), with_record(views=-1),
         with_record(entity_title="White"), with_record(month="2022-11")],
    )
    def test_corrupt_entry_is_refetched_and_replaced(self, tmp_path, caplog, corrupt):
        with pageviews_server({"Black": 10000}) as server:
            config = PageviewsConfig(
                base_url=server.base_url,
                cache_dir=tmp_path / "cache",
                requests_per_second=None,
                backoff_s=0.01,
            )
            PageviewsClient(config).fetch("Black", "2022-12")
            (path,) = (tmp_path / "cache").iterdir()
            path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
            with caplog.at_level("WARNING", logger="popgate.popularity"):
                record = PageviewsClient(config).fetch("Black", "2022-12")
            assert len(server.requests) == 2
        assert record.views == 10000
        assert PopularityRecord(**json.loads(path.read_text(encoding="utf-8"))) == record
        assert [r for r in caplog.records if str(path) in r.getMessage()]

    def test_entry_of_another_title_is_refetched_once(self, tmp_path, caplog):
        with pageviews_server({"C++": 7, "Who?": 9}) as server:
            config = PageviewsConfig(
                base_url=server.base_url,
                cache_dir=tmp_path / "cache",
                requests_per_second=None,
                backoff_s=0.01,
            )
            client = PageviewsClient(config)
            client.fetch("C++", "2022-12")
            client.fetch("Who?", "2022-12")
            path = entry_path(tmp_path / "cache", "Who?")
            path.write_bytes(entry_path(tmp_path / "cache", "C++").read_bytes())
            with caplog.at_level("WARNING", logger="popgate.popularity"):
                first = PageviewsClient(config).fetch("Who?", "2022-12")
                again = PageviewsClient(config).fetch("Who?", "2022-12")
            assert len(server.requests) == 3
        assert (first.entity_title, first.views) == ("Who?", 9)
        assert again == first
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and str(path) in warnings[0]
        assert "entity_title differs" in warnings[0]


def test_two_processes_share_one_cache_directory(tmp_path):
    """Two `fetch-popularity` processes filling one cache directory at once
    both succeed with the same dataset and leave one readable entry per
    title, and a third run reads every title from the cache."""
    examples = synthetic_examples(8)
    views = {ex.subject_label: 1000 + i for i, ex in enumerate(examples)}
    write_dataset(examples, tmp_path / "dataset.jsonl")
    cache = tmp_path / "cache"

    def start(out: str, base_url: str) -> subprocess.Popen:
        argv = ["fetch-popularity", "--dataset", tmp_path / "dataset.jsonl", "--month",
                "2022-12", "--cache", cache, "--endpoint", base_url, "--out", tmp_path / out]
        return subprocess.Popen(
            [sys.executable, "-m", "popgate.cli", *map(str, argv)],
            env={**os.environ, "PYTHONPATH": str(SRC)},
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        )

    def finish(process: subprocess.Popen) -> None:
        _, err = process.communicate(timeout=60)
        assert process.returncode == 0, err

    with pageviews_server(views) as server:
        for process in [start("a.jsonl", server.base_url), start("b.jsonl", server.base_url)]:
            finish(process)
        sent = len(server.requests)
        finish(start("c.jsonl", server.base_url))
        assert len(server.requests) == sent
    written = [read_dataset(tmp_path / name) for name in ("a.jsonl", "b.jsonl", "c.jsonl")]
    assert written[0] == written[1] == written[2]
    assert [ex.popularity for ex in written[0]] == list(views.values())
    assert sorted(cache.iterdir()) == sorted(entry_path(cache, title) for title in views)
    for title in views:
        entry = json.loads(entry_path(cache, title).read_text(encoding="utf-8"))
        record = PopularityRecord(**entry)
        assert (record.entity_title, record.month, record.views) == (title, "2022-12", views[title])
