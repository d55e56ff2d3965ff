"""Output checks, written independently of popgate's own code.

Each check returns (name, ok, detail). They read the artifacts a pass wrote
with the `json` module and recompute what they compare against from the
generated inputs and documented formulas only.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import re
from collections import Counter
from pathlib import Path

import stub_server

BM25_K1 = 1.2
BM25_B = 0.75
_TOKEN_RE = re.compile(r"[^\W_]+", re.UNICODE)


def read_jsonl(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def artifact_hashes(work: Path, names=None) -> dict[str, str]:
    """sha256 of every file under `work`, or of the named ones."""
    if names is None:
        paths = sorted(p for p in work.rglob("*") if p.is_file())
    else:
        paths = [work / name for name in names if (work / name).exists()]
    return {
        str(p.relative_to(work)): hashlib.sha256(p.read_bytes()).hexdigest() for p in paths
    }


def records_cover(path: Path, ids: list[str]) -> tuple[int, int]:
    """(questions expected, questions without exactly one record in `path`)."""
    if not path.exists():
        return len(ids), len(ids)
    counts = Counter(row["question_id"] for row in read_jsonl(path))
    known = set(ids)
    unknown = sum(n for qid, n in counts.items() if qid not in known)
    return len(ids), sum(counts.get(qid) != 1 for qid in ids) + unknown


def _log10_pop(row: dict) -> float:
    return math.log10(max(row["popularity"], 1))


def _threshold(value) -> float:
    return {"-inf": -math.inf, "+inf": math.inf}.get(value, value)


def popqa_adaptive(inputs: Path, work: Path, tune_stdout: str) -> list[tuple]:
    """Full-fit adaptive accuracy >= both baselines, recomputed from the artifacts,
    and exactly one route decision per question, each following the policy."""
    dataset = read_jsonl(inputs / "dataset.jsonl")
    van = {r["question_id"]: r["correct"] for r in read_jsonl(work / "run_vanilla.jsonl")}
    ret = {r["question_id"]: r["correct"] for r in read_jsonl(work / "run_retrieval.jsonl")}
    policy = json.loads((work / "policy.json").read_text(encoding="utf-8"))
    thresholds = {rel: _threshold(t) for rel, t in policy["thresholds"].items()}

    def routed(row) -> bool:
        return _log10_pop(row) < thresholds[row["relation"]]

    n = len(dataset)
    adaptive = sum(ret[r["id"]] if routed(r) else van[r["id"]] for r in dataset) / n
    vanilla = sum(van[r["id"]] for r in dataset) / n
    retrieval = sum(ret[r["id"]] for r in dataset) / n
    printed = json.loads(tune_stdout.strip().splitlines()[-1])
    out = [
        (
            "adaptive_beats_baselines",
            adaptive >= vanilla and adaptive >= retrieval
            and math.isclose(adaptive, printed["full_fit_adaptive_accuracy"], abs_tol=1e-12),
            f"adaptive {adaptive:.4f} vanilla {vanilla:.4f} retrieval {retrieval:.4f}",
        )
    ]
    decisions = read_jsonl(work / "decisions.jsonl")
    by_id = Counter(d["id"] for d in decisions)
    expected = {r["id"]: ("retrieve" if routed(r) else "parametric") for r in dataset}
    bad = sum(by_id.get(qid) != 1 for qid in expected) + len(set(by_id) - set(expected))
    bad += sum(d["decision"] != expected.get(d["id"]) for d in decisions)
    out.append(("one_route_decision_per_question", bad == 0, f"{bad} bad decisions"))
    return out


def _bm25_top1(docs: list[tuple[str, Counter, int]], avgdl: float, df: Counter, query: str):
    n = len(docs)
    scores: dict[str, float] = {}
    for term in _TOKEN_RE.findall(query.lower()):
        if not df[term]:
            continue
        idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
        for doc_id, counts, length in docs:
            tf = counts.get(term, 0)
            if tf:
                denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * length / avgdl)
                scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (BM25_K1 + 1.0) / denom
    if not scores:
        return None
    return min(scores.items(), key=lambda kv: (-kv[1], kv[0]))[0]


def bm25_brute_force(inputs: Path, work: Path, seed: int, sample: int = 50) -> list[tuple]:
    """Top-1 of a seeded query sample equals a full-corpus BM25 scan."""
    docs = []
    for row in read_jsonl(inputs / "corpus.jsonl"):
        tokens = _TOKEN_RE.findall(row["text"].lower())
        docs.append((row["doc_id"], Counter(tokens), len(tokens)))
    avgdl = sum(length for _, _, length in docs) / len(docs)
    df = Counter(term for _, counts, _ in docs for term in counts)
    questions = {row["id"]: row["question"] for row in read_jsonl(inputs / "dataset.jsonl")}
    retrieved = {
        r["question_id"]: r["retrieved_doc_id"] for r in read_jsonl(work / "run_retrieval.jsonl")
    }
    ids = random.Random(f"bruteforce\x00{seed}").sample(sorted(questions), min(sample, len(questions)))
    wrong = [qid for qid in ids if _bm25_top1(docs, avgdl, df, questions[qid]) != retrieved.get(qid)]
    return [("bm25_top1_equals_brute_force", not wrong, f"{len(wrong)}/{len(ids)} differ {wrong[:3]}")]


def endpoint_passes(cold: dict, warm: dict, cold_stats: dict, warm_stats: dict) -> list[tuple]:
    """Warm pass sends nothing; retries equal injected 503s; cold and warm
    outputs agree once latency_ms is excluded."""
    warm_requests = sum(warm_stats["requests"].values())
    retries = sum(cold_stats["requests"].values()) - cold_stats["distinct_keys"]
    return [
        ("warm_pass_sends_no_requests", warm_requests == 0, f"{warm_requests} requests"),
        (
            "retries_equal_injected_503s",
            retries == cold_stats["injected_503"],
            f"{retries} retries, {cold_stats['injected_503']} injected",
        ),
        (
            "cold_warm_dataset_identical",
            cold["hashes"] == warm["hashes"] and bool(cold["hashes"]),
            "dataset.jsonl and dataset_pop.jsonl",
        ),
        (
            "cold_warm_records_match_without_latency",
            cold["records"] == warm["records"] and bool(cold["records"]),
            f"{len(cold['records'])} records",
        ),
    ]


def popularity_matches_stub(work: Path) -> list[tuple]:
    """Every annotated popularity is the view count the stub serves."""
    rows = read_jsonl(work / "dataset_pop.jsonl")
    wrong = sum(row["popularity"] != stub_server.views_for(row["subj"]) for row in rows)
    return [("popularity_matches_stub", wrong == 0 and bool(rows), f"{wrong} differ")]


def records_without_latency(path: Path) -> list[dict]:
    if not path.exists():
        return []
    rows = read_jsonl(path)
    for row in rows:
        row.pop("latency_ms", None)
    return rows
