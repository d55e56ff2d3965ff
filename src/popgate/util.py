"""Small shared helpers: atomic file writes, JSONL I/O, hashing, rate limiting."""

from __future__ import annotations

import hashlib
import json
import os
import tempfile
import threading
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Any, BinaryIO, Iterable, Iterator

from .errors import ValidationError


def dumps_stable(obj: Any) -> str:
    """JSON with sorted keys so equal objects serialize byte-identically."""
    return json.dumps(obj, ensure_ascii=False, sort_keys=True)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle on a temp file in the same directory; renamed into
    place when the block exits normally, removed when it raises."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "wb") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def atomic_write_bytes(path: str | Path, data: bytes) -> None:
    """Write via a temp file in the same directory, then rename into place."""
    with atomic_writer(path) as fh:
        fh.write(data)


def atomic_write_text(path: str | Path, text: str) -> None:
    atomic_write_bytes(path, text.encode("utf-8"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one JSON object per line (atomically); returns the line count."""
    lines = [dumps_stable(row) for row in rows]
    payload = "".join(line + "\n" for line in lines)
    atomic_write_bytes(path, payload.encode("utf-8"))
    return len(lines)


def read_jsonl(path: str | Path) -> list[dict]:
    rows = []
    with open(path, encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                rows.append(json.loads(line))
            except json.JSONDecodeError as exc:
                raise ValidationError(f"{path}:{lineno}: invalid JSON line: {exc}") from exc
    return rows


def sha256_hex(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class RateLimiter:
    """Token-bucket style limiter: at most `rate_per_second` acquisitions per second.

    Thread-safe; acquire() blocks until the next slot is free. A limiter built
    with rate_per_second=None never blocks.
    """

    def __init__(self, rate_per_second: float | None):
        if rate_per_second is not None and rate_per_second <= 0:
            raise ValidationError("rate_per_second must be positive or None")
        self._interval = None if rate_per_second is None else 1.0 / rate_per_second
        self._lock = threading.Lock()
        self._next_slot = 0.0

    def acquire(self) -> None:
        if self._interval is None:
            return
        with self._lock:
            now = time.monotonic()
            wait = max(0.0, self._next_slot - now)
            self._next_slot = max(now, self._next_slot) + self._interval
        if wait > 0:
            time.sleep(wait)
