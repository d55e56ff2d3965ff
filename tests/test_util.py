from __future__ import annotations

import pytest

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
