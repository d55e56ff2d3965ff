"""Small shared helpers: atomic file writes, JSONL I/O and hashing, and the
transport path of the API clients: their settings, rate limiting, keep-alive
HTTP with retries, the JSON-file cache and an ordered thread fan-out."""

from __future__ import annotations

import json
import math
import os
import re
import sys
import threading
import time
import typing
from contextlib import contextmanager, suppress
from dataclasses import MISSING, dataclass, fields
from pathlib import Path
from typing import TYPE_CHECKING, Any, BinaryIO, Callable, Iterable, Iterator, TypeVar
from urllib.parse import urlsplit

from . import __version__
from .errors import ConfigError, PopgateError, TransportError, ValidationError

# The HTTP stack (http.client, ssl, urllib.request and the email package they
# pull in) costs about 30 ms of CPU to import; HttpClient imports it on first
# use, so processes that send no request never load it. Loggers come from the
# API clients, which import logging themselves.
if TYPE_CHECKING:
    import http.client
    import logging
    import ssl

T = TypeVar("T")

USER_AGENT_ENV = "POPGATE_USER_AGENT"
DEFAULT_USER_AGENT = f"popgate/{__version__}"


# json.dumps builds a new encoder for these options on every call; this one is
# built once. raw_decode skips json.loads's per-call checks; iter_jsonl sends a
# line it cannot decode whole to json.loads. Its defaults are json.loads's.
_encode_stable = json.JSONEncoder(ensure_ascii=False, sort_keys=True).encode
_raw_decode = json.JSONDecoder().raw_decode


def dumps_stable(obj: Any) -> str:
    """JSON with sorted keys so equal objects serialize byte-identically."""
    return _encode_stable(obj)


@contextmanager
def atomic_writer(path: str | Path) -> Iterator[BinaryIO]:
    """Binary file handle on a temp file in the same directory; renamed into
    place when the block exits normally, removed when it raises. The file is
    created with mode 0o666 less the umask, as `open` creates one. The temp
    name has a fixed length, so any name the directory takes can be written.
    An OSError from creating, writing or renaming the temp file is raised
    again naming `path`, with its errno and strerror."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.parent / f".{os.urandom(8).hex()}.tmp"
    try:
        fd = os.open(tmp, os.O_WRONLY | os.O_CREAT | os.O_EXCL, 0o666)
        try:
            with os.fdopen(fd, "wb") as fh:
                yield fh
            os.replace(tmp, path)
        except BaseException:
            with suppress(OSError):
                os.unlink(tmp)
            raise
    except OSError as exc:
        raise OSError(exc.errno, exc.strerror, str(path)) from exc


def atomic_write_text(path: str | Path, text: str) -> None:
    """Write UTF-8 via a temp file in the same directory, then rename into place."""
    with atomic_writer(path) as fh:
        fh.write(text.encode("utf-8"))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    """Write one JSON object per line (atomically); returns the line count."""
    lines = [_encode_stable(row) + "\n" for row in rows]
    atomic_write_text(path, "".join(lines))
    return len(lines)


def iter_jsonl(path: str | Path) -> Iterator[tuple[int, Any]]:
    """(line number, parsed value) for each line not all JSON whitespace; it
    must hold exactly one JSON value, as `json.loads` reads it."""
    with open(path, encoding="utf-8") as fh:
        try:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip(" \t\r\n")
                if not line:
                    continue
                # The stripped line starts and ends with no JSON whitespace, so
                # one value spanning all of it is what json.loads accepts.
                try:
                    value, end = _raw_decode(line)
                except (ValueError, RecursionError):
                    end = -1
                if end != len(line):
                    try:
                        value = json.loads(line)  # raises with json.loads's message
                    # or an int past sys.get_int_max_str_digits(), or nesting too deep
                    except (ValueError, RecursionError) as exc:
                        raise ValidationError(
                            f"{path}:{lineno}: invalid JSON line: {exc}"
                        ) from exc
                yield lineno, value
        except UnicodeDecodeError:
            read_text(path)  # raises the error naming the line
            raise


def read_jsonl(path: str | Path, from_row: Callable[[Any], T]) -> list[T]:
    """`from_row` of each row of a JSONL file; a ValidationError it raises
    gains the row's `path:line`."""
    return parse_rows(path, iter_jsonl(path), from_row)


def parse_rows(path: str | Path, numbered_rows: Iterable, from_row: Callable[[Any], T]) -> list[T]:
    """`from_row` of each (line number, row) of the JSONL file `path`; a
    ValidationError it raises gains the row's `path:line`."""
    out = []
    for lineno, row in numbered_rows:
        try:
            out.append(from_row(row))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return out


def read_json(path: str | Path, error: type[PopgateError]) -> Any:
    """The JSON value in the file `path`. Bytes that are not UTF-8, invalid
    JSON, an integer past sys.get_int_max_str_digits() and nesting too deep
    to parse are each an `error` naming the path."""
    try:
        return json.loads(read_text(path))
    except ValidationError as exc:  # not UTF-8; the message names path:line
        raise error(str(exc)) from None
    except json.JSONDecodeError as exc:
        raise error(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from None
    except (ValueError, RecursionError) as exc:
        raise error(f"{path}: {exc}") from None


def read_text(path: str | Path) -> str:
    """The whole file decoded as UTF-8; bytes that are not UTF-8 are a
    ValidationError naming `path:line`."""
    data = Path(path).read_bytes()
    try:
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = data.count(b"\n", 0, exc.start) + 1
        raise ValidationError(f"{path}:{line}: not UTF-8 text ({exc.reason})") from None


def from_object(cls: type[T], obj: Any, what: str) -> T:
    """`cls(**obj)` for a JSON object whose keys are fields of the dataclass `cls`; not an
    object, an unknown key or a missing required field is a ValidationError naming `what`."""
    if not isinstance(obj, dict):
        raise ValidationError(f"{what} is not a JSON object")
    try:
        return cls(**obj)
    except TypeError:
        unknown = sorted(set(obj).difference(f.name for f in fields(cls)))
        missing = [f.name for f in fields(cls)
                   if f.default is f.default_factory is MISSING and f.name not in obj]
        if not (unknown or missing):
            raise
    raise ValidationError(f"{what} has unknown key {unknown[0]!r}" if unknown
                          else f"{what} missing key {missing[0]!r}")


def check_field_types(obj: Any) -> None:
    """Raise ValidationError naming the field unless each field of the frozen dataclass `obj`
    holds a JSON type its annotation allows; an int passes for a float and is stored as one."""
    hints = typing.get_type_hints(type(obj))
    for f in fields(obj):
        value, options = getattr(obj, f.name), typing.get_args(hints[f.name]) or (hints[f.name],)
        for option in options:
            if option is float and type(value) in (int, float):
                try:
                    object.__setattr__(obj, f.name, float(value))
                except OverflowError:
                    raise ValidationError(f"{f.name} must be a number a float can hold, got an "
                                          f"integer of {len(str(value))} digits") from None
                break
            if type(value) is option or (option is Path and isinstance(value, Path)):
                break
        else:
            names = {str: "a string", Path: "a string", int: "an integer", float: "a number",
                     bool: "true or false", type(None): "null"}
            expected = " or ".join(dict.fromkeys(names[o] for o in options))
            raise ValidationError(f"{f.name} must be {expected}, got {value!r}")


def sha256_hex(text: str) -> str:
    import hashlib

    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def is_count(value: Any) -> bool:
    """Whether `value` is an int >= 0 and not a bool, as a JSON count must be."""
    return type(value) is int and value >= 0


def require_finite(
    name: str, value: Any, high: float = sys.float_info.max, rule: str = "finite and >= 0"
) -> None:
    """Raise ValidationError naming `name`, worded by `rule`, unless `value` is an
    int or float, not a bool, in [0, high]; NaN fails every comparison."""
    if not (type(value) in (int, float) and 0 <= value <= high):
        raise ValidationError(f"{name} must be {rule}, got {value!r}")


def require_month(month: str) -> None:
    """Raise ValidationError unless `month` is ASCII YYYY-MM with MM from 01 to 12."""
    if not re.fullmatch(r"[0-9]{4}-(0[1-9]|1[0-2])", month):
        raise ValidationError(f"month must be YYYY-MM, got {month!r}")


def map_in_order(fn: Callable[[Any], T], items: Iterable, workers: int) -> list[T]:
    """`fn` of each item, in item order, on up to `workers` threads; inline
    when `workers` is 1. The first item whose call fails raises its error."""
    if workers == 1:
        return [fn(item) for item in items]
    import concurrent.futures

    with concurrent.futures.ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(fn, items))


@dataclass(frozen=True, kw_only=True)
class HttpSettings:
    """The base URL and transport settings of an API client, checked when
    built. A subclass's `cache_dir` may be a path or null, never ""."""

    base_url: str
    timeout_s: float = 60.0
    max_retries: int = 3
    backoff_s: float = 0.5
    max_parallelism: int = 4
    requests_per_second: float | None = None

    def __post_init__(self):
        check_field_types(self)
        try:
            parts = urlsplit(self.base_url)
            parts.port  # raises on a port that is not a number in 0-65535
        except ValueError as exc:
            raise ValidationError(f"base_url {self.base_url!r}: {exc}") from None
        if (parts.scheme not in ("http", "https") or not parts.hostname
                or "?" in self.base_url or "#" in self.base_url):
            raise ValidationError(f"base_url must be http(s)://host[:port][/path], "
                                  f"got {self.base_url!r}")
        require_finite("timeout_s", self.timeout_s)
        require_finite("backoff_s", self.backoff_s)
        if not self.max_retries >= 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.max_parallelism >= 1:
            raise ValidationError(f"max_parallelism must be >= 1, got {self.max_parallelism}")
        if getattr(self, "cache_dir", None) == "":
            raise ValidationError("cache_dir must be a non-empty path or null")
        rate = self.requests_per_second
        if rate is not None and not 0 < rate < math.inf:
            raise ValidationError(
                f"requests_per_second must be null or finite and > 0, got {rate}"
            )
        longest = threading.TIMEOUT_MAX  # the most socket timeouts and time.sleep take
        if self.timeout_s > longest:
            raise ValidationError(f"timeout_s must be at most {longest} s, got {self.timeout_s}")
        try:  # the sleep before the last retry
            last_sleep = math.ldexp(self.backoff_s, self.max_retries - 1) if self.max_retries else 0
        except OverflowError:
            last_sleep = math.inf
        if last_sleep > longest:
            raise ValidationError(f"backoff_s·2^(max_retries-1) must be at most {longest} s, "
                                  f"got {self.backoff_s}·2^{self.max_retries - 1}")
        # A request waits for at most one rate slot per worker.
        if rate is not None and self.max_parallelism > longest * rate:
            raise ValidationError(f"max_parallelism/requests_per_second must be at most "
                                  f"{longest} s, got {self.max_parallelism}/{rate}")


class RateLimiter:
    """Token-bucket style limiter: at most `rate_per_second` acquisitions per second.

    Thread-safe; acquire() blocks until the next slot is free. A limiter built
    with rate_per_second=None never blocks.
    """

    def __init__(self, rate_per_second: float | None):
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


class JsonCache:
    """One JSON file per key under `directory`, each written atomically; with
    `directory` None nothing is cached.

    `decode` turns a parsed entry into the cached value. An entry that is not
    valid JSON, is nested too deeply to parse, or that `decode` rejects with
    ValueError, TypeError, KeyError or ValidationError, is logged as a warning
    and treated as a miss, so it is fetched again and replaced. So is an entry
    whose request fields differ from the request it is read for.
    """

    def __init__(
        self, directory: str | Path | None, decode: Callable[[Any], Any], logger: logging.Logger
    ):
        self._directory = None if directory is None else Path(directory)
        self._decode = decode
        self._logger = logger

    def through(
        self, key: str, request: dict[str, Any], fetch: Callable[[], T], entry: Callable[[T], Any]
    ) -> T:
        """The decoded entry for `key` if it holds each field of `request`
        with its value; otherwise `fetch()`, stored as the JSON of
        `entry(value)`."""
        if self._directory is None:
            return fetch()
        path = self._directory / f"{key}.json"
        try:
            with open(path, "rb") as fh:
                stored = json.loads(fh.read())
            value = self._decode(stored)
            differs = [name for name, want in request.items() if stored[name] != want]
        except FileNotFoundError:
            pass
        except (ValueError, TypeError, KeyError, RecursionError, ValidationError) as exc:
            self._logger.warning("%s: unreadable cache entry (%s); fetching again", path, exc)
        else:
            if not differs:
                return value
            self._logger.warning(
                "%s: cache entry for another request (%s differs); fetching again",
                path, ", ".join(differs),
            )
        value = fetch()
        atomic_write_text(path, dumps_stable(entry(value)))
        return value


@dataclass(frozen=True)
class HttpResponse:
    """A response with a status the retry loop hands back to the caller."""

    status: int
    body: bytes
    elapsed_s: float  # the attempt that produced this response, not the retries
    url: str  # the URL requested, for the caller's errors


class _Connection:
    """One thread's connection to the base URL's host or its proxy; closed
    when the thread ends and its thread-local storage is dropped."""

    def __init__(self, conn: http.client.HTTPConnection, absolute: bool):
        # Plain HTTP through a proxy names the absolute URL in each request.
        self.conn, self.absolute = conn, absolute

    def __del__(self):
        self.conn.close()


class HttpClient:
    """HTTP/1.1 with keep-alive, bounded retries and rate limiting.

    A client sends every request to its base URL's host, and each thread
    keeps one connection there (or to the proxy) and reuses it.
    A reused connection that the server closed while idle fails before any
    response arrives; it is reopened and the request sent once more, which
    does not count as a retry. Transport errors, 429 and 5xx are retried up
    to `max_retries` times with exponential backoff; a 3xx is an error, not
    followed; a status the caller accepts is returned, and any other is an
    error. TLS is verified with the default context,
    `http_proxy`/`https_proxy`/`no_proxy` are honoured, and requests carry a
    User-Agent (`POPGATE_USER_AGENT` or popgate/<version>).
    """

    def __init__(
        self, settings: HttpSettings, logger: logging.Logger, headers: dict[str, str] | None = None
    ):
        self._settings = settings
        self._base_url = settings.base_url.rstrip("/")
        self._base = urlsplit(self._base_url)
        self._limiter = RateLimiter(settings.requests_per_second)
        self._logger = logger
        user_agent = os.environ.get(USER_AGENT_ENV) or DEFAULT_USER_AGENT
        self._headers = {"User-Agent": user_agent, **(headers or {})}
        self._local = threading.local()
        self._tls: ssl.SSLContext | None = None  # loading CA certificates costs ~50 ms
        self._tls_lock = threading.Lock()

    def request(
        self, method: str, path: str, what: str, json_body: Any = None,
        accept: tuple[int, ...] = (200,),
    ) -> HttpResponse:
        """Send to the base URL and `path` joined by one `/`, with retries;
        `what` names the call in retry logs and errors, and a final status
        outside `accept` is a TransportError."""
        import http.client

        url = f"{self._base_url}/{path}"
        headers = dict(self._headers)
        body = None
        if json_body is not None:
            body = json.dumps(json_body).encode("utf-8")
            headers["Content-Type"] = "application/json"
        began = time.monotonic()
        last_error: Exception | None = None
        attempts = self._settings.max_retries + 1
        for attempt in range(attempts):
            if attempt:
                delay = math.ldexp(self._settings.backoff_s, attempt - 1)
                self._logger.info("%s: retry %d after %.2fs: %s", what, attempt, delay, last_error)
                time.sleep(delay)
            self._limiter.acquire()
            call_start = time.monotonic()
            try:
                status, location, data = self._send(method, path, body, headers)
            except (OSError, http.client.HTTPException) as exc:
                last_error = exc
                continue
            if status == 429 or status >= 500:
                last_error = TransportError(f"HTTP {status} from {url}")
                continue
            if 300 <= status < 400:
                raise TransportError(
                    f"HTTP {status} from {url}: redirect to {location} not followed"
                )
            if status not in accept:
                raise TransportError(f"HTTP {status} from {url}")
            return HttpResponse(status, data, time.monotonic() - call_start, url)
        elapsed = time.monotonic() - began
        raise TransportError(
            f"{what} failed after {attempts} attempts ({elapsed:.1f}s elapsed): {last_error}"
        )

    def _send(
        self, method: str, path: str, body: bytes | None, headers: dict[str, str]
    ) -> tuple[int, str | None, bytes]:
        if (held := getattr(self._local, "connection", None)) is None:
            held = self._local.connection = self._connect()
        conn = held.conn
        target = f"{self._base_url if held.absolute else self._base.path}/{path}"
        while True:
            reused = conn.sock is not None
            try:
                conn.request(method, target, body=body, headers=headers)
                resp = conn.getresponse()
            # RemoteDisconnected is a ConnectionResetError.
            except (ConnectionResetError, BrokenPipeError):
                conn.close()
                if reused:
                    continue
                raise
            except BaseException:
                conn.close()
                raise
            break
        # After a response that ends the connection, http.client has already
        # closed it; the next request on this thread opens a new one.
        try:
            data = resp.read()
        except BaseException:
            conn.close()
            raise
        return resp.status, resp.getheader("Location"), data

    def _connect(self) -> _Connection:
        import http.client
        import urllib.request

        scheme, host = self._base.scheme, self._base.hostname
        port = self._base.port or (443 if scheme == "https" else 80)
        proxy = urllib.request.getproxies().get(scheme)
        if proxy and urllib.request.proxy_bypass(host):
            proxy = None
        conn_host, conn_port = host, port
        if proxy:
            try:
                proxy_parts = urlsplit(proxy if "://" in proxy else f"http://{proxy}")
                conn_host, conn_port = proxy_parts.hostname, proxy_parts.port or 80
            except ValueError as exc:
                raise ConfigError(f"bad {scheme}_proxy {proxy!r}: {exc}") from None
            if proxy_parts.scheme != "http" or not conn_host:
                raise ConfigError(f"unsupported {scheme}_proxy {proxy!r}: need http://host:port")
        timeout = self._settings.timeout_s
        if scheme == "http":
            conn = http.client.HTTPConnection(conn_host, conn_port, timeout=timeout)
            return _Connection(conn, bool(proxy))
        conn = http.client.HTTPSConnection(
            conn_host, conn_port, timeout=timeout, context=self._tls_context()
        )
        if proxy:
            conn.set_tunnel(host, port)
        return _Connection(conn, False)

    def _tls_context(self) -> ssl.SSLContext:
        import ssl

        with self._tls_lock:
            if self._tls is None:
                self._tls = ssl.create_default_context()
            return self._tls
