from __future__ import annotations

import json
import tempfile
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from popgate.errors import ValidationError
from popgate.util import atomic_writer, iter_jsonl, read_text


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
    """The per-line reader iter_jsonl must match: json.loads of each stripped,
    non-blank line of the file read with universal newlines."""
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
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
