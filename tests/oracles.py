"""Independent reference implementations used to check the library.

These recompute expected values from first principles (direct formula
evaluation, full-corpus scans) and deliberately share no scoring code with
the package.
"""

from __future__ import annotations

import math
import random
import re


def brute_force_bm25(passages, query: str, k1: float, b: float) -> dict[str, float]:
    """Per-document Okapi BM25 scores by scanning the whole corpus.

    score(D, Q) = sum over query tokens t of
        ln(1 + (N - df + 0.5)/(df + 0.5)) * tf * (k1 + 1) / (tf + k1 * (1 - b + b*|D|/avgdl))
    Documents with zero score are omitted.
    """
    token_re = re.compile(r"[^\W_]+", re.UNICODE)
    docs = {p.doc_id: token_re.findall(p.text.lower()) for p in passages}
    n_docs = len(docs)
    avgdl = sum(len(toks) for toks in docs.values()) / n_docs
    scores: dict[str, float] = {}
    for term in token_re.findall(query.lower()):
        df = sum(1 for toks in docs.values() if term in toks)
        if df == 0:
            continue
        idf = math.log(1.0 + (n_docs - df + 0.5) / (df + 0.5))
        for doc_id, toks in docs.items():
            tf = toks.count(term)
            if tf == 0:
                continue
            denom = tf + k1 * (1.0 - b + b * len(toks) / avgdl)
            scores[doc_id] = scores.get(doc_id, 0.0) + idf * tf * (k1 + 1.0) / denom
    return {doc_id: s for doc_id, s in scores.items() if s > 0.0}


def bm25_ranking(passages, query: str, k1: float, b: float) -> list[str]:
    """Doc ids by descending score, ties by ascending doc id."""
    scores = brute_force_bm25(passages, query, k1, b)
    return [doc_id for doc_id, _ in sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))]


def pearson(xs, ys) -> float:
    """Pearson correlation straight from the covariance formula."""
    n = len(xs)
    mean_x = sum(xs) / n
    mean_y = sum(ys) / n
    cov = sum((x - mean_x) * (y - mean_y) for x, y in zip(xs, ys)) / n
    var_x = sum((x - mean_x) ** 2 for x in xs) / n
    var_y = sum((y - mean_y) ** 2 for y in ys) / n
    return cov / math.sqrt(var_x * var_y)


def wilson(successes: int, n: int, z: float = 1.96) -> tuple[float, float]:
    """Wilson score interval written out term by term."""
    p_hat = successes / n
    a = p_hat + z * z / (2 * n)
    b = z * math.sqrt((p_hat * (1 - p_hat) + z * z / (4 * n)) / n)
    c = 1 + z * z / n
    return (a - b) / c, (a + b) / c


def sampling_probability(frequency: float) -> float:
    """clamp((ln f + 6) / 8, 0, 1) for f > 0, else 0."""
    if frequency <= 0:
        return 0.0
    return min(1.0, max(0.0, (math.log(frequency) + 6.0) / 8.0))


def adaptive_correct_count(entries, threshold: float) -> int:
    """Adaptive correct count for one relation at one threshold.

    `entries` are (log10_pop, vanilla_correct, retrieval_correct); retrieval
    counts strictly below the threshold, vanilla otherwise.
    """
    return sum(
        (ret if pop < threshold else van) for pop, van, ret in entries
    )


def regex_term_count(text: str, name: str) -> int:
    """Occurrences of `name` in `text` whose neighbours are not `\\w`,
    counted by `re.findall` (non-overlapping, left to right)."""
    return len(re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", text))


def reference_fewshot_pool(dataset, target, shots: int, rng_seed) -> list[tuple[str, str]]:
    """Few-shot pairs for one target, by rescanning and regrouping the whole
    dataset: stratified (one random pair per other relation, in sorted
    relation order) on exactly 16 relations, else `random.sample` over every
    example but the target. Errors are ValueErrors with the package's text."""
    if shots < 0:
        raise ValueError("shots must be non-negative")
    if shots == 0:
        return []
    rng = random.Random(rng_seed)
    candidates = [ex for ex in dataset if ex.id != target.id]
    relations = {ex.relation_type for ex in dataset}
    if len(relations) == 16:
        if shots != 15:
            raise ValueError(
                f"shots={shots}: a dataset with 16 relations takes 0 or 15 shots "
                f"(one per relation other than the question's)"
            )
        by_relation = {}
        for ex in candidates:
            by_relation.setdefault(ex.relation_type, []).append(ex)
        chosen = [rng.choice(by_relation[r]) for r in sorted(relations - {target.relation_type})]
    else:
        if len(candidates) < shots:
            raise ValueError(
                f"cannot sample {shots} few-shot pairs from {len(candidates)} candidates"
            )
        chosen = rng.sample(candidates, shots)
    return [(ex.question, sorted(ex.gold_answers)[0]) for ex in chosen]
