"""Entity popularity: monthly page views per subject, fetched with bounded
parallelism and cached on disk, one JSON file per (title, month).

`PageviewsClient.annotate` fills each question's `popularity`; its log10
score is `QAExample.log10_popularity`."""

from __future__ import annotations

import calendar
import json
import logging
import re
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence
from urllib.parse import quote

from .dataset import QAExample
from .errors import TransportError, ValidationError
from .util import HttpClient, JsonCache, sha256_hex

logger = logging.getLogger(__name__)

DEFAULT_PAGEVIEWS_BASE_URL = "https://wikimedia.org/api/rest_v1/metrics/pageviews"
# Pinned so unconfigured runs are reproducible; override via config/CLI.
DEFAULT_PAGEVIEWS_MONTH = "2022-12"
# Views of English Wikipedia articles from every access method, by users.
_PROJECT = "en.wikipedia"
_ACCESS = "all-access"
_AGENT = "user"

_MONTH_RE = re.compile(r"^\d{4}-(0[1-9]|1[0-2])$")


@dataclass(frozen=True)
class PopularityRecord:
    """Monthly page views for one entity title."""

    entity_title: str
    month: str
    views: int
    fetched_at: str
    missing: bool = False

    def __post_init__(self):
        if self.views < 0:
            raise ValidationError(f"{self.entity_title!r}: negative views")
        if not _MONTH_RE.match(self.month):
            raise ValidationError(f"malformed month {self.month!r}, expected YYYY-MM")


@dataclass(frozen=True)
class PageviewsConfig:
    base_url: str = DEFAULT_PAGEVIEWS_BASE_URL
    cache_dir: str | Path = "pageviews-cache"
    timeout_s: float = 30.0
    max_retries: int = 3
    backoff_s: float = 0.5
    max_parallelism: int = 4
    requests_per_second: float | None = 10.0

    def __post_init__(self):
        if not self.max_parallelism >= 1:
            raise ValidationError(f"max_parallelism must be >= 1, got {self.max_parallelism}")


def _month_bounds(month: str) -> tuple[str, str]:
    if not _MONTH_RE.match(month):
        raise ValidationError(f"malformed month {month!r}, expected YYYY-MM")
    year, mon = (int(p) for p in month.split("-"))
    last = calendar.monthrange(year, mon)[1]
    return f"{year:04d}{mon:02d}01", f"{year:04d}{mon:02d}{last:02d}"


class PageviewsClient:
    """Fetches monthly page views, caching each (title, month) as a JSON file.

    Cache entries are written atomically, so concurrent fetchers sharing one
    cache directory cannot corrupt each other's entries.
    """

    def __init__(self, config: PageviewsConfig | None = None):
        self.config = config or PageviewsConfig()
        self._http = HttpClient(
            timeout_s=self.config.timeout_s,
            max_retries=self.config.max_retries,
            backoff_s=self.config.backoff_s,
            requests_per_second=self.config.requests_per_second,
            logger=logger,
        )
        self._cache = JsonCache(
            self.config.cache_dir, lambda entry: PopularityRecord(**entry), logger
        )

    def fetch(self, entity_title: str, month: str) -> PopularityRecord:
        """Return the cached record if present, otherwise fetch and cache it."""
        key = sha256_hex(f"{entity_title}\x00{month}")[:24]
        record = self._cache.get(key)
        if record is None:
            record = self._fetch_remote(entity_title, month)
            self._cache.put(key, asdict(record))
        return record

    def fetch_many(self, titles: Sequence[str], month: str) -> dict[str, PopularityRecord]:
        """Fetch several titles with bounded parallelism; returns title -> record."""
        from concurrent.futures import ThreadPoolExecutor

        unique = list(dict.fromkeys(titles))
        with ThreadPoolExecutor(max_workers=self.config.max_parallelism) as pool:
            records = pool.map(lambda t: self.fetch(t, month), unique)
            return dict(zip(unique, records))

    def annotate(self, examples: Sequence[QAExample], month: str) -> list[QAExample]:
        """Fill each example's popularity from its subject label's page views."""
        records = self.fetch_many([ex.subject_label for ex in examples], month)
        return [ex.with_popularity(records[ex.subject_label].views) for ex in examples]

    def _fetch_remote(self, title: str, month: str) -> PopularityRecord:
        start, end = _month_bounds(month)
        url = (
            f"{self.config.base_url}/per-article/{_PROJECT}/{_ACCESS}/{_AGENT}"
            f"/{quote(title, safe='')}/monthly/{start}/{end}"
        )
        resp = self._http.request("GET", url, f"pageviews fetch for {title!r}")
        if resp.status == 404:
            return self._record(title, month, views=0, missing=True)
        if resp.status != 200:
            raise TransportError(f"HTTP {resp.status} from {url}")
        try:
            items = json.loads(resp.body)["items"]
            views = sum(int(item["views"]) for item in items)
        except (ValueError, KeyError, TypeError) as exc:
            raise TransportError(f"unexpected pageviews payload from {url}: {exc}") from exc
        return self._record(title, month, views=views, missing=False)

    @staticmethod
    def _record(title: str, month: str, views: int, missing: bool) -> PopularityRecord:
        return PopularityRecord(
            entity_title=title,
            month=month,
            views=views,
            fetched_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            missing=missing,
        )
