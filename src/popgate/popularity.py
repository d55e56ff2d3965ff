"""Entity popularity: monthly page views per subject, fetched with bounded
parallelism and cached on disk, one JSON file per (title, month).

`PageviewsClient.annotate` fills each question's `popularity`; its log10
score is `QAExample.log10_popularity`."""

from __future__ import annotations

import calendar
import json
import logging
from dataclasses import dataclass, asdict
from datetime import datetime, timezone
from pathlib import Path
from typing import Sequence
from urllib.parse import quote

from .config import DEFAULT_PAGEVIEWS_BASE_URL
from .dataset import QAExample
from .errors import ProtocolError, ValidationError
from .util import (
    HttpClient, HttpSettings, JsonCache, is_count, map_in_order, require_month, sha256_hex,
)

logger = logging.getLogger(__name__)

# Views of English Wikipedia articles from every access method, by users.
_PROJECT = "en.wikipedia"
_ACCESS = "all-access"
_AGENT = "user"


@dataclass(frozen=True)
class PopularityRecord:
    """Monthly page views for one entity title."""

    entity_title: str
    month: str
    views: int
    fetched_at: str
    missing: bool = False

    def __post_init__(self):
        if not all(isinstance(v, str) for v in (self.entity_title, self.month, self.fetched_at)):
            raise ValidationError(f"page-view record with a non-string field: {self!r}")
        if type(self.missing) is not bool:
            raise ValidationError(f"{self.entity_title!r}: missing {self.missing!r} is not a bool")
        if not is_count(self.views):
            raise ValidationError(f"{self.entity_title!r}: views {self.views!r} is not a count")
        require_month(self.month)


@dataclass(frozen=True, kw_only=True)
class PageviewsConfig(HttpSettings):
    """The page-view API and its cache, with HttpSettings' transport keys at
    a 30 s timeout and 10 requests per second."""

    base_url: str = DEFAULT_PAGEVIEWS_BASE_URL
    cache_dir: str | Path = "pageviews-cache"
    timeout_s: float = 30.0
    requests_per_second: float | None = 10.0


def _month_bounds(month: str) -> tuple[str, str]:
    require_month(month)
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
        self._http = HttpClient(self.config, logger)
        self._cache = JsonCache(
            self.config.cache_dir, lambda entry: PopularityRecord(**entry), logger
        )

    def fetch(self, entity_title: str, month: str) -> PopularityRecord:
        """Return the cached record if present, otherwise fetch and cache it."""
        key = sha256_hex(f"{entity_title}\x00{month}")[:24]
        request = {"entity_title": entity_title, "month": month}
        return self._cache.through(
            key, request, lambda: self._fetch_remote(entity_title, month), asdict
        )

    def annotate(self, examples: Sequence[QAExample], month: str) -> list[QAExample]:
        """Fill each example's popularity from its label's page views, one fetch per label.
        Logs how many titles have no page-view article; none having one is an error."""
        titles = list(dict.fromkeys(ex.subject_label for ex in examples))
        fetched = map_in_order(lambda t: self.fetch(t, month), titles, self.config.max_parallelism)
        missing = sum(record.missing for record in fetched)
        if missing:
            if missing == len(titles):
                raise ValidationError(f"{missing} of {missing} titles have no page-view article")
            logger.warning("%d of %d titles have no page-view article", missing, len(titles))
        views = {title: record.views for title, record in zip(titles, fetched)}
        return [ex.with_popularity(views[ex.subject_label]) for ex in examples]

    def _fetch_remote(self, title: str, month: str) -> PopularityRecord:
        start, end = _month_bounds(month)
        wire = quote(title.replace(" ", "_"), safe="")  # the API's titles have "_" for " "
        path = f"{_PROJECT}/{_ACCESS}/{_AGENT}/{wire}/monthly/{start}/{end}"
        resp = self._http.request(
            "GET", f"per-article/{path}", f"pageviews fetch for {title!r}", accept=(200, 404)
        )
        if resp.status == 404:
            return self._record(title, month, views=0, missing=True)
        try:
            counts = [item["views"] for item in json.loads(resp.body)["items"]]
            for count in counts:
                if not is_count(count):
                    raise ValueError(f"views {count!r}")
        except (ValueError, KeyError, TypeError, RecursionError) as exc:
            raise ProtocolError(f"unexpected pageviews payload from {resp.url}: {exc}") from exc
        return self._record(title, month, views=sum(counts), missing=False)

    @staticmethod
    def _record(title: str, month: str, views: int, missing: bool) -> PopularityRecord:
        return PopularityRecord(
            entity_title=title,
            month=month,
            views=views,
            fetched_at=datetime.now(timezone.utc).isoformat(timespec="seconds"),
            missing=missing,
        )
