from __future__ import annotations

import pytest

from popgate.util import atomic_writer


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
