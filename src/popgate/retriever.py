"""Okapi BM25 lexical retrieval over a paragraph corpus.

Tokenization is lowercase Unicode letter/digit runs (no stemming, no stopword
removal) so that rankings are reproducible across environments. Ranking ties
are broken by ascending doc_id to keep top-1 deterministic.

The index keeps, for each term, the ascending positions of the documents that
contain it and each document's precomputed BM25 impact (the term's whole
contribution to that document's score). Search is an exact top-k that uses
each term's largest impact as an upper bound (MaxScore, Turtle & Flood 1995)
to stop reading posting lists once no unseen document can reach the k-th
score; survivors are then rescored exactly, so scores are bit-identical to a
full scan that sums impacts in query-token order. A term's bound, and the
check of its document positions, are computed the first time a search reads
the term, so loading an index does no work per term or posting.
"""

from __future__ import annotations

import heapq
import json
import math
import re
import struct
import sys
from array import array
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from itertools import accumulate
from operator import lt
from pathlib import Path
from typing import Sequence

from .errors import IndexFormatError, ValidationError
from .util import (
    atomic_writer, dumps_stable, from_object, is_count, read_jsonl, require_finite, write_jsonl,
)

_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)
# Every byte that is not an ASCII letter or digit, mapped to a space.
_ASCII_SEPARATORS = bytes(
    c if chr(c).isascii() and chr(c).isalnum() else 0x20 for c in range(256)
)

INDEX_MAGIC = b"PGIDX"
INDEX_VERSION = 2
_HEADER_LENGTH = struct.Struct("<Q")

DEFAULT_K1 = 1.2
DEFAULT_B = 0.75

# A bound is compared with the k-th partial score shrunk by this factor, so
# that float rounding in partial sums can never prune a document that ties.
_SLACK = 1.0 - 1e-9


def _idf(doc_count: int, df: int) -> float:
    return math.log(1.0 + (doc_count - df + 0.5) / (df + 0.5))


def tokenize(text: str) -> list[str]:
    """Lowercased maximal runs of Unicode letters and digits."""
    text = text.lower()
    # The fast path needs text that is ASCII after lower(): there `[^\W_]`
    # matches exactly [a-z0-9], so the runs are what split() leaves once every
    # other byte is a space.
    if text.isascii():
        return text.encode().translate(_ASCII_SEPARATORS).decode().split()
    return _TOKEN_RE.findall(text)


@dataclass(slots=True)
class Passage:
    """One corpus paragraph: a plain slotted record, checked when built.
    Callers must not mutate one; nothing re-checks it."""

    doc_id: str
    title: str
    text: str

    def __post_init__(self):
        if not (type(self.doc_id) is str and type(self.title) is str and type(self.text) is str):
            name = next(n for n in ("doc_id", "title", "text") if type(getattr(self, n)) is not str)
            raise ValidationError(f"passage {self.doc_id!r}: {name} is not a string")
        if not self.doc_id:
            raise ValidationError("passage with empty doc_id")
        if not self.text:
            raise ValidationError(f"passage {self.doc_id!r} has empty text")


@dataclass(frozen=True)
class SearchHit:
    doc_id: str
    score: float


class Bm25Index:
    """Inverted index with Okapi BM25 scoring.

    IDF(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), which is strictly positive,
    so every document containing a query term scores above zero and all others
    are omitted from results.

    Posting lists live in two flat arrays, term after term: ascending document
    positions (int32) and the term's impact in each of those documents
    (float64), idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl / avgdl)).
    `_postings` maps each term to its (start, end) slice of both arrays;
    `_bounds` holds the largest impact of each term a search has read.
    """

    def __init__(
        self,
        passages: dict[str, Passage],
        k1: float,
        b: float,
        avg_doc_length: float,
        docs: array,
        impacts: array,
        postings: dict[str, tuple[int, int]],
        path: str | Path | None = None,
    ):
        self.k1 = k1
        self.b = b
        self.passages = passages
        self.doc_count = len(passages)
        self.avg_doc_length = avg_doc_length
        self._doc_ids = list(passages)
        self._docs = docs
        self._impacts = impacts
        self._postings = postings
        self._bounds: dict[str, float] = {}
        self._path = path  # the file a loaded index came from, for error messages

    def _bound(self, term: str) -> float:
        """The term's largest impact, computed and kept on its first read;
        threads that race on that read store the same value. A term whose
        document positions do not strictly ascend within [0, doc_count), or
        whose impacts are not all finite and > 0, as a corrupt file can hold,
        raises IndexFormatError: search looks positions up by bisection,
        indexes documents by them and ranks by impacts. With ascent, the
        first and last position bound the rest; a NaN or infinite impact
        makes the sum NaN or infinite, and without one `min` is exact."""
        bound = self._bounds.get(term)
        if bound is None:
            start, end = self._postings[term]
            docs, impacts = self._docs[start:end], self._impacts[start:end]
            if not (0 <= docs[0] and docs[-1] < self.doc_count and all(map(lt, docs, docs[1:]))):
                raise IndexFormatError(
                    f"{self._path}: document positions of term {term!r} do not ascend "
                    f"within [0, {self.doc_count})"
                )
            if not (math.isfinite(sum(impacts)) and min(impacts) > 0):
                raise IndexFormatError(
                    f"{self._path}: impacts of term {term!r} are not all finite and > 0"
                )
            bound = self._bounds[term] = max(impacts)
        return bound

    def search(self, query: str, k: int = 1) -> list[SearchHit]:
        """Top-k passages by BM25 score; ties broken by ascending doc_id.

        Terms are read in descending order of their bound (query count times
        largest impact) while the bounds of the unread terms can still lift an
        unseen document to the k-th partial score. Documents whose partial
        score plus that remaining bound falls short are dropped, and the rest
        are rescored exactly in query-token order.
        """
        if k <= 0:
            raise ValidationError("k must be positive")
        postings, docs, impacts = self._postings, self._docs, self._impacts
        tokens = [tok for tok in tokenize(query) if tok in postings]
        if not tokens:
            return []
        counts: dict[str, int] = {}
        for tok in tokens:
            counts[tok] = counts.get(tok, 0) + 1
        term_bound = self._bound
        order = sorted(
            [(count * term_bound(term), term) for term, count in counts.items()], reverse=True
        )
        bounds = [bound for bound, _ in order]
        partial: dict[int, float] = {}
        theta = 0.0  # k-th largest partial score, a lower bound on the k-th score
        rest = sum(bounds)  # bound on what the terms not yet read can add
        for i, (_, term) in enumerate(order):
            if rest < theta * _SLACK:
                break
            count = counts[term]
            start, end = postings[term]
            get = partial.get
            for d, w in zip(docs[start:end], impacts[start:end]):
                partial[d] = get(d, 0.0) + count * w
            rest = sum(bounds[i + 1 :])
            if k == 1:  # what nlargest(1, ...) computes, without its call overhead
                theta = max(partial.values())
            elif len(partial) >= k:
                theta = heapq.nlargest(k, partial.values())[-1]
        floor = theta * _SLACK - rest
        spans = [postings[tok] for tok in tokens]
        scored = []
        for d, estimate in partial.items():
            if estimate < floor:
                continue
            score = 0.0
            for start, end in spans:
                j = bisect_left(docs, d, start, end)
                if j < end and docs[j] == d:
                    score += impacts[j]
            scored.append((-score, self._doc_ids[d]))
        scored.sort()
        return [SearchHit(doc_id=doc_id, score=-neg) for neg, doc_id in scored[:k]]


def _require_parameters(k1: float, b: float, avg_doc_length: float = 0.0) -> None:
    """The rule of a built and a loaded index's parameters: a ValidationError
    unless k1 and avg_doc_length are finite numbers >= 0 and b one in [0, 1]."""
    require_finite("k1", k1)
    require_finite("b", b, 1.0, "in [0, 1]")
    require_finite("avg_doc_length", avg_doc_length)


def build_index(
    passages: Sequence[Passage], k1: float = DEFAULT_K1, b: float = DEFAULT_B
) -> Bm25Index:
    _require_parameters(k1, b)
    if not passages:
        raise ValidationError("cannot index an empty passage list")
    by_id: dict[str, Passage] = {}
    lengths: list[int] = []
    # term -> [pos, tf, pos, tf, ...] in ascending document position
    raw: dict[str, list[int]] = {}
    for pos, passage in enumerate(passages):
        if passage.doc_id in by_id:
            raise ValidationError(f"duplicate doc_id {passage.doc_id!r}")
        by_id[passage.doc_id] = passage
        tokens = tokenize(passage.text)
        lengths.append(len(tokens))
        for tok, tf in Counter(tokens).items():
            entry = raw.get(tok)
            if entry is None:
                raw[tok] = [pos, tf]
            else:
                entry += (pos, tf)
    doc_count = len(by_id)
    avgdl = sum(lengths) / doc_count
    # The document-length part of the BM25 denominator, once per document;
    # without a single token in the corpus there is no posting to score.
    norms = [k1 * (1.0 - b + b * dl / avgdl) for dl in lengths] if avgdl else []
    k1_plus_1 = k1 + 1.0
    docs, impacts = array("i"), array("d")
    postings: dict[str, tuple[int, int]] = {}
    for term, entry in raw.items():
        term_docs = entry[0::2]
        idf = _idf(doc_count, len(term_docs))
        postings[term] = (len(docs), len(docs) + len(term_docs))
        docs.extend(term_docs)
        impacts.extend(
            [idf * tf * k1_plus_1 / (tf + norms[d]) for d, tf in zip(term_docs, entry[1::2])]
        )
    return Bm25Index(by_id, k1, b, avgdl, docs, impacts, postings)


def save_index(index: Bm25Index, path: str | Path) -> None:
    """Persist corpus, parameters and posting lists in index format v2.

    Layout: `PGIDX`, the version byte 2, the header length as a little-endian
    uint64, a JSON header (k1, b, doc count, average document length,
    passages, terms and each term's posting-list length), then the document
    positions of every term as little-endian int32 and the impacts of every
    term as little-endian float64, both in header term order. The parts are
    streamed into the temp file that replaces `path`.
    """
    header = dumps_stable(
        {
            "k1": index.k1,
            "b": index.b,
            "doc_count": index.doc_count,
            "avg_doc_length": index.avg_doc_length,
            "passages": [
                {"doc_id": p.doc_id, "title": p.title, "text": p.text}
                for p in index.passages.values()
            ],
            "terms": list(index._postings),
            "lengths": [end - start for start, end in index._postings.values()],
        }
    ).encode("utf-8")
    with atomic_writer(path) as fh:
        fh.write(INDEX_MAGIC + bytes([INDEX_VERSION]) + _HEADER_LENGTH.pack(len(header)))
        fh.write(header)
        for values in (index._docs, index._impacts):
            if sys.byteorder == "big":
                values = array(values.typecode, values)
                values.byteswap()
            values.tofile(fh)


def load_index(path: str | Path) -> Bm25Index:
    """Read an index saved by `save_index`. Format v2 posting lists are read
    back as stored; a format v1 file (passages only) is reindexed. A
    truncated or inconsistent file raises IndexFormatError naming the path;
    for document positions in a posting list, the first search that reads
    the list raises it."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if not blob.startswith(INDEX_MAGIC):
        raise IndexFormatError(f"{path}: not an index file (bad magic header)")
    if len(blob) == len(INDEX_MAGIC):
        raise IndexFormatError(f"{path}: truncated before the format version")
    version = blob[len(INDEX_MAGIC)]
    body = memoryview(blob)[len(INDEX_MAGIC) + 1 :]
    if version == 1:
        return _load_v1(path, body)
    if version == 2:
        return _load_v2(path, body)
    raise IndexFormatError(f"{path}: unsupported index version {version}")


def _parse_header(path, data) -> dict:
    try:
        header = json.loads(bytes(data).decode("utf-8"))
    except (ValueError, RecursionError) as exc:
        raise IndexFormatError(f"{path}: truncated or corrupt header: {exc}") from exc
    if not isinstance(header, dict):
        raise IndexFormatError(f"{path}: header is not a JSON object")
    return header


def _header_passages(path, header: dict) -> list[Passage]:
    try:
        passages = [from_object(Passage, row, "passage") for row in header["passages"]]
    except (KeyError, TypeError, ValidationError) as exc:
        raise IndexFormatError(f"{path}: bad passages in header: {exc}") from exc
    (doc_count,) = _header_values(path, header, "doc_count")
    if not (is_count(doc_count) and doc_count == len(passages)):
        raise IndexFormatError(f"{path}: doc count mismatch: header doc_count {doc_count!r} "
                               f"for {len(passages)} passages")
    return passages


def _header_values(path, header: dict, *keys: str) -> list:
    try:
        return [header[key] for key in keys]
    except KeyError as exc:
        raise IndexFormatError(f"{path}: header lacks {exc}") from exc


def _load_v1(path, body) -> Bm25Index:
    header = _parse_header(path, body)
    passages = _header_passages(path, header)
    try:
        return build_index(passages, *_header_values(path, header, "k1", "b"))
    except ValidationError as exc:
        raise IndexFormatError(f"{path}: bad index payload: {exc}") from exc


def _load_v2(path, body) -> Bm25Index:
    size = _HEADER_LENGTH.size
    if len(body) < size:
        raise IndexFormatError(f"{path}: truncated before the header length")
    (header_len,) = _HEADER_LENGTH.unpack(body[:size])
    if len(body) < size + header_len:
        raise IndexFormatError(f"{path}: truncated header")
    header = _parse_header(path, body[size : size + header_len])
    passages = _header_passages(path, header)
    by_id = {p.doc_id: p for p in passages}
    if len(by_id) != len(passages):
        raise IndexFormatError(f"{path}: duplicate doc_id in header")
    k1, b, avgdl, terms, lengths = _header_values(
        path, header, "k1", "b", "avg_doc_length", "terms", "lengths"
    )
    try:
        _require_parameters(k1, b, avgdl)
    except ValidationError as exc:
        raise IndexFormatError(f"{path}: header {exc}") from None
    if not (
        isinstance(terms, list)
        and isinstance(lengths, list)
        and len(terms) == len(lengths)
        and set(map(type, terms)) <= {str}
        and set(map(type, lengths)) <= {int}
        and (not lengths or min(lengths) > 0)
    ):
        raise IndexFormatError(f"{path}: bad term table in header")
    offsets = list(accumulate(lengths, initial=0))
    docs, impacts = array("i"), array("d")
    total = offsets[-1]
    arrays = body[size + header_len :]
    if len(arrays) != total * (docs.itemsize + impacts.itemsize):
        raise IndexFormatError(
            f"{path}: {len(arrays)} bytes of posting lists where the header lists {total} postings"
        )
    docs.frombytes(arrays[: total * docs.itemsize])
    impacts.frombytes(arrays[total * docs.itemsize :])
    if sys.byteorder == "big":
        docs.byteswap()
        impacts.byteswap()
    postings = dict(zip(terms, zip(offsets, offsets[1:])))
    if len(postings) != len(terms):
        raise IndexFormatError(f"{path}: duplicate term in header")
    return Bm25Index(by_id, k1, b, avgdl, docs, impacts, postings, path)


def _passage_from_row(row) -> Passage:
    if not isinstance(row, dict):
        raise ValidationError("corpus row is not a JSON object")
    try:
        return Passage(doc_id=row["doc_id"], title=row["title"], text=row["text"])
    except KeyError as exc:
        raise ValidationError(f"corpus row missing key {exc}") from exc


def read_corpus(path: str | Path) -> list[Passage]:
    return read_jsonl(path, _passage_from_row)


def write_corpus(passages: Sequence[Passage], path: str | Path) -> int:
    return write_jsonl(
        path, ({"doc_id": p.doc_id, "title": p.title, "text": p.text} for p in passages)
    )
