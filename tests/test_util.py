from __future__ import annotations

import errno
import json
import logging
import os
import stat
import tempfile
import threading
import time
import typing
from dataclasses import dataclass, field, fields
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from popgate.adaptive import CostModel, _PolicyFile
from popgate.dataset import _ExampleRow, _TripleObject, _TripleRow, read_dataset, read_triples
from popgate.errors import ValidationError
from popgate.evaluation import PredictionRecord, read_records
from popgate.lm import Completion, EndpointConfig
from popgate.popularity import PageviewsConfig, PopularityRecord
from popgate.retriever import Passage, read_corpus
from popgate.util import (
    JsonCache,
    atomic_write_text,
    atomic_writer,
    check_field_types,
    from_object,
    iter_jsonl,
    map_in_order,
    read_text,
    write_jsonl,
)


class TestAtomicWriter:
    def test_completed_block_replaces_file(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with atomic_writer(path) as fh:
            fh.write(b"new ")
            fh.write(b"parts")
        assert path.read_bytes() == b"new parts"
        assert list(tmp_path.iterdir()) == [path]

    def test_failure_mid_stream_keeps_old_file_and_no_temp(self, tmp_path):
        path = tmp_path / "out.bin"
        path.write_bytes(b"old")
        with pytest.raises(RuntimeError):
            with atomic_writer(path) as fh:
                fh.write(b"half")
                raise RuntimeError("interrupted")
        assert path.read_bytes() == b"old"
        assert list(tmp_path.iterdir()) == [path]

    def test_longest_name_the_directory_takes(self, tmp_path):
        path = tmp_path / ("a" * 249 + ".jsonl")  # 255 bytes, the usual limit
        atomic_write_text(path, "x\n")
        assert list(tmp_path.iterdir()) == [path] and path.read_text() == "x\n"

    def test_rename_error_names_the_artifact(self, tmp_path):
        path = tmp_path / ("a" * 300)
        with pytest.raises(OSError) as info:
            atomic_write_text(path, "x")
        assert (info.value.errno, info.value.filename) == (errno.ENAMETOOLONG, str(path))
        assert info.value.strerror == os.strerror(errno.ENAMETOOLONG)
        assert list(tmp_path.iterdir()) == []

    def test_write_error_names_the_artifact(self, tmp_path):
        path = tmp_path / "out.bin"
        with pytest.raises(OSError) as info:
            with atomic_writer(path):
                raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
        assert (info.value.errno, info.value.filename) == (errno.ENOSPC, str(path))
        assert type(info.value) is OSError and info.value.strerror == os.strerror(errno.ENOSPC)
        assert list(tmp_path.iterdir()) == []

    def test_create_error_names_the_artifact(self, tmp_path, monkeypatch):
        def denied(name, *args):
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), name)

        monkeypatch.setattr(os, "open", denied)
        path = tmp_path / "out.bin"
        with pytest.raises(PermissionError) as info:
            atomic_write_text(path, "x")
        assert (info.value.errno, info.value.filename) == (errno.EACCES, str(path))


@pytest.fixture
def umask_022():
    old = os.umask(0o022)
    try:
        yield
    finally:
        os.umask(old)


def test_artifacts_and_cache_entries_take_the_umask(tmp_path, umask_022):
    """Files are created 0o666 less the umask, as `open` creates them, and a
    rewrite of a 0o644 file leaves it 0o644."""
    new, rewritten = tmp_path / "policy.json", tmp_path / "report.json"
    rewritten.write_text("{}")
    assert stat.S_IMODE(rewritten.stat().st_mode) == 0o644
    atomic_write_text(new, "{}")
    atomic_write_text(rewritten, "{}")
    cache = JsonCache(tmp_path / "cache", lambda entry: entry["v"], logging.getLogger("t"))
    cache.through("k", {}, lambda: 1, lambda v: {"v": v})
    for path in (new, rewritten, tmp_path / "cache" / "k.json"):
        assert stat.S_IMODE(path.stat().st_mode) == 0o644, path
    assert sorted(p.name for p in tmp_path.iterdir()) == ["cache", "policy.json", "report.json"]


class TestMapInOrder:
    def test_results_keep_item_order_whatever_the_finishing_order(self):
        def slow_first(i):
            time.sleep(0.005 * (8 - i))
            return i * i

        assert map_in_order(slow_first, range(8), workers=4) == [i * i for i in range(8)]

    def test_one_worker_runs_inline(self):
        assert map_in_order(lambda _: threading.get_ident(), "ab", 1) == [threading.get_ident()] * 2

    @pytest.mark.parametrize("workers", [1, 3])
    def test_first_failing_item_raises(self, workers):
        def fail_on_odd(i):
            if i % 2:
                raise ValueError(f"item {i}")
            return i

        with pytest.raises(ValueError, match="item 1"):
            map_in_order(fail_on_odd, range(6), workers)


class TestJsonCacheThrough:
    LOGGER = logging.getLogger("popgate.test")

    def test_miss_stores_the_entry_and_hit_skips_the_fetch(self, tmp_path):
        cache = JsonCache(tmp_path / "c", lambda entry: entry["v"], self.LOGGER)
        fetched = []
        fetch = lambda: fetched.append(1) or "é"
        assert cache.through("k", {"a": 1}, fetch, lambda v: {"v": v, "a": 1}) == "é"
        assert cache.through("k", {"a": 1}, fetch, lambda v: {"v": v, "a": 1}) == "é"
        assert fetched == [1]
        assert (tmp_path / "c" / "k.json").read_bytes() == '{"a": 1, "v": "é"}'.encode()

    def test_no_directory_fetches_every_time_and_stores_nothing(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        cache = JsonCache(None, lambda entry: entry, self.LOGGER)
        calls = iter(range(5))
        assert [cache.through("k", {}, lambda: next(calls), dict) for _ in "ab"] == [0, 1]
        assert list(tmp_path.iterdir()) == []


@dataclass
class Pair:
    left: str
    right: int = 0
    extra: list = field(default_factory=list)

    def __post_init__(self):
        if self.right == 7:
            raise TypeError("seven")


class TestFromObject:
    @pytest.mark.parametrize(
        "obj, message",
        [([1], "pair is not a JSON object"),
         (None, "pair is not a JSON object"),
         ({"left": "a", "size": 1}, "pair has unknown key 'size'"),
         # An unknown key is named before a missing one, the first in sorted order.
         ({"zz": 1, "aa": 2}, "pair has unknown key 'aa'"),
         ({"right": 1}, "pair missing key 'left'")],
    )
    def test_key_errors_name_what_and_the_key(self, obj, message):
        with pytest.raises(ValidationError) as info:
            from_object(Pair, obj, "pair")
        assert str(info.value) == message

    def test_fields_with_defaults_may_be_left_out(self):
        assert from_object(Pair, {"left": "a"}, "pair") == Pair("a", 0, [])

    def test_type_error_that_no_key_explains_is_raised_again(self):
        with pytest.raises(TypeError, match="^seven$"):
            from_object(Pair, {"left": "a", "right": 7}, "pair")


TRIPLE_OBJECT = {"id": "O1", "label": "Maker", "aliases": ["M"]}
TRIPLE_ROW = {"subj_id": "S1", "subj": "Subject", "relation": "director",
              "objects": [TRIPLE_OBJECT], "subj_aliases": ["S"]}
# Each class the type rule covers: the fields of a valid object, and the type
# the rule names for each field.
TYPED = {
    PredictionRecord: (
        {"question_id": "q", "mode": "retrieval", "prediction": "p", "correct": True,
         "prompt_tokens": 1, "completion_tokens": 2, "latency_ms": 3, "retrieved_doc_id": "d",
         "retrieval_recall1": True, "genread_empty_context": None},
        {"question_id": "a string", "mode": "a string", "prediction": "a string",
         "correct": "true or false", "prompt_tokens": "an integer or null",
         "completion_tokens": "an integer or null", "latency_ms": "an integer or null",
         "retrieved_doc_id": "a string or null", "retrieval_recall1": "true or false or null",
         "genread_empty_context": "true or false or null"},
    ),
    Passage: ({"doc_id": "d", "title": "t", "text": "x"},
              {"doc_id": "a string", "title": "a string", "text": "a string"}),
    PopularityRecord: (
        {"entity_title": "T", "month": "2022-12", "views": 5, "fetched_at": "now",
         "missing": False},
        {"entity_title": "a string", "month": "a string", "views": "an integer",
         "fetched_at": "a string", "missing": "true or false"},
    ),
    Completion: ({"text": "x", "prompt_tokens": 1, "completion_tokens": 2, "latency_ms": 3},
                 {"text": "a string", "prompt_tokens": "an integer",
                  "completion_tokens": "an integer", "latency_ms": "an integer"}),
    _ExampleRow: (
        {"id": "q", "question": "Q?", "answers": ["A"], "subj": "S", "subj_id": "S1",
         "relation": "director", "popularity": 3},
        {"id": "a string", "question": "a string", "answers": "a list of strings",
         "subj": "a string", "subj_id": "a string", "relation": "a string",
         "popularity": "an integer or null"},
    ),
    _TripleRow: (TRIPLE_ROW, {"subj_id": "a string", "subj": "a string", "relation": "a string",
                              "objects": "a list of objects", "subj_aliases": "a list of strings"}),
    _TripleObject: (TRIPLE_OBJECT,
                    {"id": "a string", "label": "a string", "aliases": "a list of strings"}),
    EndpointConfig: (
        {"base_url": "http://x", "model": "m"},
        {"base_url": "a string", "timeout_s": "a number", "max_retries": "an integer",
         "backoff_s": "a number", "max_parallelism": "an integer",
         "requests_per_second": "a number or null", "model": "a string",
         "api_key_env": "a string or null", "cache_dir": "a string or null",
         "endpoint_id": "a string or null", "temperature": "a number", "max_tokens": "an integer"},
    ),
    PageviewsConfig: (
        {},
        {"base_url": "a string", "timeout_s": "a number", "max_retries": "an integer",
         "backoff_s": "a number", "max_parallelism": "an integer",
         "requests_per_second": "a number or null", "cache_dir": "a string"},
    ),
    CostModel: ({}, {"price_per_1k_prompt_tokens": "a number",
                     "price_per_1k_completion_tokens": "a number",
                     "retrieval_latency_ms": "an integer"}),
    _PolicyFile: ({"thresholds": {"director": 2.0}},
                  {"thresholds": "an object", "tuned_on": "a string", "retrieval_mode": "a string",
                   "metadata": "an object or null"}),
}
# A JSON value of a type that each named type does not allow.
WRONG = {"a string": 5, "a string or null": 5, "an integer": "5", "an integer or null": "5",
         "a number": "x", "a number or null": "x", "true or false": 0,
         "true or false or null": 0, "a list of strings": ["a", 5], "a list of objects": ["a"],
         "an object": [], "an object or null": []}
# The reader of each class backed by JSONL rows, and the row an object's
# fields make.
READERS = {
    PredictionRecord: (read_records, lambda obj: obj),
    Passage: (read_corpus, lambda obj: obj),
    _ExampleRow: (read_dataset, lambda obj: obj),
    _TripleRow: (read_triples, lambda obj: obj),
    _TripleObject: (read_triples, lambda obj: {**TRIPLE_ROW, "objects": [obj]}),
}
FIELD_CASES = [(cls, name) for cls, (_, types) in TYPED.items() for name in types]


class TestTypeRule:
    @pytest.mark.parametrize("cls", TYPED, ids=lambda cls: cls.__name__)
    def test_every_field_has_a_case(self, cls):
        good, types = TYPED[cls]
        assert list(types) == [f.name for f in fields(cls)]
        cls(**good)

    @pytest.mark.parametrize("cls, name", FIELD_CASES, ids=lambda c: getattr(c, "__name__", c))
    def test_wrong_json_type_names_field_and_type(self, tmp_path, cls, name):
        good, types = TYPED[cls]
        value = WRONG[types[name]]
        message = f"{name} must be {types[name]}, got {value!r}"
        with pytest.raises(ValidationError) as info:
            cls(**{**good, name: value})
        assert str(info.value) == message
        if cls in READERS:
            read, row = READERS[cls]
            path = tmp_path / "rows.jsonl"
            write_jsonl(path, [row(good), row({**good, name: value})])
            with pytest.raises(ValidationError) as info:
                read(path)
            assert str(info.value) == f"{path}:2: {message}"

    def test_rule_is_built_once_per_class(self, monkeypatch):
        @dataclass(slots=True)
        class Fresh:
            n: int

            __post_init__ = check_field_types

        built = []
        get_type_hints = typing.get_type_hints
        monkeypatch.setattr(typing, "get_type_hints", lambda cls: built.append(cls) or
                            get_type_hints(cls))
        for n in range(3):
            Fresh(n)
        with pytest.raises(ValidationError, match="^n must be an integer, got 'x'$"):
            Fresh("x")
        assert built == [Fresh]

    @pytest.mark.parametrize(
        "changes, message",
        [({}, None),
         ({"count": None, "path": Path("p")}, None),
         ({"count": 1.0}, "count must be an integer or null, got 1.0"),
         ({"words": ("a",)}, "words must be a list of strings, got ('a',)"),
         ({"words": ["a", b"b"]}, "words must be a list of strings, got ['a', b'b']"),
         ({"tags": {"a"}}, "tags must be a set of strings, got {'a'}"),
         ({"tags": frozenset({1})}, "tags must be a set of strings, got frozenset({1})"),
         ({"path": None}, "path must be a string, got None")],
    )
    def test_postponed_annotations_on_a_slotted_class(self, changes, message):
        @dataclass(slots=True)
        class Annotated:
            count: int | None
            words: list[str]
            tags: frozenset[str]
            path: str | Path

            __post_init__ = check_field_types

        values = {"count": 1, "words": ["a"], "tags": frozenset({"a"}), "path": "p", **changes}
        if message is None:
            assert Annotated(**values) == Annotated(**values)
        else:
            with pytest.raises(ValidationError) as info:
                Annotated(**values)
            assert str(info.value) == message


class TestNotUtf8:
    def test_jsonl_error_names_the_line_past_the_first_read_chunk(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_bytes(b'{"a": 1}\n' * 5000 + b'{"a": "\xe9"}\n' + b'{"a": 1}\n' * 10)
        with pytest.raises(ValidationError, match=r"rows\.jsonl:5001: not UTF-8 text"):
            list(iter_jsonl(path))

    def test_text_error_names_the_line(self, tmp_path):
        path = tmp_path / "corpus.txt"
        path.write_bytes("caf\u00e9\nok\n".encode("utf-8") + b"\xff\n")
        with pytest.raises(ValidationError, match=r"corpus\.txt:3: not UTF-8 text"):
            read_text(path)


def reference_jsonl(path):
    """The per-line reader iter_jsonl must match: json.loads of each line of
    the file read with universal newlines that is not all JSON whitespace."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip(" \t\r\n")
            if not line:
                continue
            try:
                rows.append((lineno, json.loads(line)))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON line: {exc}") from exc
    return rows


def outcome(read, path):
    """The rows (by repr, so NaN, -0.0 and int/float compare exactly) or the
    error's type and text."""
    try:
        return repr(read(path))
    except ValidationError as exc:
        return f"ValidationError: {exc}"


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=4), inner, max_size=3),
    max_leaves=6,
)
# Line ends, whitespace JSON does not allow, separators str.splitlines would
# split on but universal newlines do not, and pieces of values.
FRAGMENTS = st.sampled_from(
    ["\n", "\r\n", "\r", " ", "\t", "\x0c", "\u2028", "\x85", "\ufeff", "\x00",
     "[1,", "2]", "3],[4", "[[1", "2]]", '"x', 'y"', "{", "}", ",", ":", "NaN", "Infinity",
     "-Infinity", "nan", "1 2", "{}{}", '{"a": 1} {"b": 2}', "tru", "01", "1e400", "-0"]
)
LINES = st.lists(
    FRAGMENTS
    | JSON_VALUES.map(lambda v: json.dumps(v, ensure_ascii=False))
    | JSON_VALUES.map(lambda v: json.dumps(v)),
    max_size=12,
).map("".join)


class TestIterJsonlMatchesPerLineLoads:
    """iter_jsonl decodes with raw_decode; it must yield exactly the rows, or
    raise exactly the error, that per-line json.loads does."""

    @settings(max_examples=400, deadline=None)
    @given(LINES)
    @example('{"id": "a", "answers": ["x"\n"y"], "subj": "s"}\n{"a": 1} {"b": 2}\n')
    @example("[[1\n2]]\n3],[4\n")
    @example("[1,\n2]\n")
    @example('{"a": 1}\r\n\r\n  \t\n{"b": NaN, "c": -Infinity}\r{"d": "\u2028\x85\x0c"}\x85\n')
    @example('{"a": "x\u2028y"}\u2028\n\x0c{"b": 1}\x0c\n')
    @example('{"a": 1}\n{"b": [1, 2')
    @example("\ufeff{}\n")
    @example(' {"a": 1}\x1c\n')  # only " \t\r\n" is JSON whitespace
    @example('{"a": 1}\n\x0c\n')
    def test_same_rows_or_same_error(self, text):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "rows.jsonl"
            path.write_bytes(text.encode("utf-8"))
            expected = outcome(reference_jsonl, path)
            assert outcome(lambda p: list(iter_jsonl(p)), path) == expected

    def test_integer_past_the_digit_limit_is_a_line_error(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        path.write_text('{"a": 1}\n{"a": %s}\n' % ("9" * 5000))
        with pytest.raises(ValidationError, match=r"rows\.jsonl:2: invalid JSON line: Exceeds"):
            list(iter_jsonl(path))
