"""Span recorder for traced benchmark runs.

`install()` wraps popgate's public layer functions and methods, plus
`requests.Session.request` as the HTTP boundary, from outside the package.
Each wrapped call records one span: id, parent span id, name, start, end,
question id where the call has one, and a small attribute. Spans stay in
memory until `dump()` writes them out when the process ends.

A call made in a worker thread with no span open in that thread takes as its
parent the innermost span open in the thread that installed the tracer; this
is how popgate's thread pools are used (the main thread waits in
`fetch_many` or `run_predictions` while workers call `fetch` or `complete`).
"""

from __future__ import annotations

import functools
import itertools
import json
import threading
import time


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main_stack = self._stack()

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, owner, attr: str, name: str, qid=None, attr_of=None) -> None:
        """Replace owner.attr by a wrapper recording a span named `name`.

        `qid(args)` gives the call's question id; `attr_of(args, result)` a
        JSON-serialisable attribute stored with the span.
        """
        fn = getattr(owner, attr)
        tracer = self
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack:
                parent = stack[-1]
            else:
                parent = tracer._main_stack[-1] if tracer._main_stack else 0
            span_id = next(tracer._ids)
            stack.append(span_id)
            result = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                end = clock()
                stack.pop()
                tracer.spans.append(
                    (
                        span_id,
                        parent,
                        name,
                        start,
                        end,
                        qid(args) if qid else None,
                        attr_of(args, result) if attr_of else None,
                    )
                )

        setattr(owner, attr, wrapper)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(sorted(self.spans), fh)


def install() -> Tracer:
    """Wrap every layer boundary the per-layer metrics are read from."""
    import requests

    from popgate import adaptive, dataset, evaluation, lm, popularity, retriever

    tracer = Tracer()
    wrap = tracer.wrap
    wrap(dataset, "sample_triples", "dataset.sample_triples",
         attr_of=lambda a, r: [len({(t.subject_id, t.relation_type) for t in a[0]}), len(r or ())])
    wrap(dataset.CorpusTermFrequency, "__call__", "dataset.term_freq", qid=lambda a: a[1].subject_id)
    wrap(dataset, "read_dataset", "dataset.read_dataset")
    wrap(dataset, "write_dataset", "dataset.write_dataset")
    wrap(popularity.PageviewsClient, "annotate", "popularity.annotate")
    wrap(popularity.PageviewsClient, "fetch", "popularity.fetch", qid=lambda a: a[1])
    wrap(retriever, "build_index", "retriever.build_index")
    wrap(retriever, "save_index", "retriever.save_index")
    wrap(retriever, "load_index", "retriever.load_index")
    wrap(retriever.Bm25Index, "search", "retriever.search", attr_of=lambda a, r: len(r or ()))
    wrap(lm, "build_fewshot_pool", "lm.build_fewshot_pool", qid=lambda a: a[1].id)
    wrap(lm, "run_predictions", "lm.run_predictions", attr_of=lambda a, r: a[1])
    wrap(lm.CompletionClient, "complete", "lm.complete",
         attr_of=lambda a, r: None if r is None else r.prompt_tokens)
    wrap(evaluation, "read_records", "evaluation.read_records")
    wrap(evaluation, "write_records", "evaluation.write_records")
    for fn in ("evaluate_run", "quadrant_analysis", "write_report"):
        wrap(evaluation, fn, "evaluation.report")
    wrap(adaptive, "tune_thresholds", "adaptive.tune_thresholds",
         attr_of=lambda a, r: None if r is None else len(r.repeat_outcomes))
    wrap(adaptive, "route", "adaptive.route", qid=lambda a: a[0].id)
    wrap(adaptive, "retrieval_fraction", "adaptive.route")
    wrap(adaptive, "cost_report", "adaptive.cost_report")
    wrap(requests.Session, "request", "http.request",
         attr_of=lambda a, r: None if r is None else r.status_code)
    return tracer


def load(path) -> list[dict]:
    """Spans of one process with their self time: duration minus the part of
    the span's interval that its child spans cover."""
    with open(path, encoding="utf-8") as fh:
        raw = json.load(fh)
    children: dict[int, list[tuple[float, float]]] = {}
    for span_id, parent, _name, start, end, _qid, _attr in raw:
        children.setdefault(parent, []).append((start, end))
    out = []
    for span_id, parent, name, start, end, qid, attr in raw:
        covered = 0.0
        lo = hi = None
        for c_start, c_end in sorted(children.get(span_id, ())):
            c_start, c_end = max(c_start, start), min(c_end, end)
            if c_end <= c_start:
                continue
            if hi is None or c_start > hi:
                if hi is not None:
                    covered += hi - lo
                lo, hi = c_start, c_end
            else:
                hi = max(hi, c_end)
        if hi is not None:
            covered += hi - lo
        out.append(
            {
                "id": span_id,
                "parent": parent,
                "name": name,
                "dur": end - start,
                "self": end - start - covered,
                "qid": qid,
                "attr": attr,
            }
        )
    return out
