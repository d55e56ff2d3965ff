"""Prompt construction and completion access.

Completions come either from a completion-style HTTP endpoint (with an
on-disk response cache, bounded retries, and rate limiting) or from a
built-in synthetic oracle whose vanilla accuracy rises with entity
popularity and whose retrieval-augmented accuracy depends on whether the
retrieved passage contains the answer.
"""

from __future__ import annotations

import json
import logging
import math
import os
import random
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path

from .config import MODES
from .dataset import QAExample, question_positions
from .errors import ConfigError, ProtocolError, ValidationError
from .evaluation import PredictionRecord, is_correct
from .retriever import Bm25Index
from .util import (
    HttpClient, HttpSettings, JsonCache, dumps_stable, from_object, is_count, map_in_order,
    require_finite, sha256_hex,
)

logger = logging.getLogger(__name__)

DEFAULT_GENREAD_INSTRUCTION = (
    "Generate a background document that answers the given question."
)
ORACLE_WRONG_ANSWER = "UNKNOWN_ENTITY"
# The synthetic oracle's fixed parameters; `oracle_lm` says how each is used.
ORACLE_A = 2.0
ORACLE_B = 3.5
ORACLE_READOUT = 0.9
ORACLE_MISS_RATE = 0.05


def render_prompt(
    question: str,
    fewshot_pairs: Sequence[tuple[str, str]] = (),
    context: str | None = None,
) -> str:
    """Assemble the prompt: few-shot QA blocks, optional context, then the question."""
    blocks = [f"Q: {q} A: {a}" for q, a in fewshot_pairs]
    if context is not None:
        blocks.append(context)
    blocks.append(f"Q: {question} A:")
    return "\n\n".join(blocks)


class FewshotCandidates:
    """The few-shot candidates of one dataset, indexed once per run.

    A question's candidates are the dataset's other examples. A repeated
    question id is a ValidationError naming it. The per-relation grouping is
    built on the first pool that needs it.
    """

    def __init__(self, dataset: Sequence[QAExample]):
        self.dataset = dataset
        self.positions = question_positions(dataset)

    @cached_property
    def pairs(self) -> list[tuple[str, str]]:
        """Each example's (question, first gold answer), in dataset order."""
        return [(ex.question, sorted(ex.gold_answers)[0]) for ex in self.dataset]

    @cached_property
    def strata(self) -> list[tuple[str, list[tuple[str, str]]]] | None:
        """(relation, its pairs in dataset order) by relation name on a dataset
        with exactly 16 relation types; None on any other."""
        by_relation: dict[str, list[tuple[str, str]]] = {}
        for ex, pair in zip(self.dataset, self.pairs):
            by_relation.setdefault(ex.relation_type, []).append(pair)
        return sorted(by_relation.items()) if len(by_relation) == 16 else None


def build_fewshot_pool(
    candidates: FewshotCandidates,
    target: QAExample,
    shots: int,
    rng_seed: int | str = 0,
) -> list[tuple[str, str]]:
    """Pick few-shot (question, answer) pairs for `target`, one of the
    candidates' examples.

    On a dataset with exactly 16 relation types the pool is stratified: one
    random pair per relation other than the target's, so `shots` must be 0
    or 15 there. Otherwise it is a uniform sample of `shots` pairs. The
    target example itself is never eligible; shots=0 returns an empty list.
    """
    if shots < 0:
        raise ValidationError("shots must be non-negative")
    if shots == 0:
        return []
    rng = random.Random(rng_seed)
    strata = candidates.strata
    if strata is not None:
        if shots != 15:
            raise ValidationError(
                f"shots={shots}: a dataset with 16 relations takes 0 or 15 shots "
                f"(one per relation other than the question's)"
            )
        return [rng.choice(pairs) for relation, pairs in strata if relation != target.relation_type]
    # The draw of rng.sample(every pair but the target's, shots), by position.
    pairs, skip, n = candidates.pairs, candidates.positions[target.id], len(candidates.pairs) - 1
    if n < shots:
        raise ValidationError(f"cannot sample {shots} few-shot pairs from {n} candidates")
    return [pairs[i + (i >= skip)] for i in rng.sample(range(n), shots)]


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int

    def __post_init__(self):
        if type(self.text) is not str:
            raise ValidationError(f"completion text is {self.text!r}, not a string")
        if not all(map(is_count, (self.prompt_tokens, self.completion_tokens, self.latency_ms))):
            raise ValidationError("completion token counts and latency must be integers >= 0")


@dataclass(frozen=True, kw_only=True)
class EndpointConfig(HttpSettings):
    """Completion-style HTTP endpoint, its cache and decoding parameters, with
    HttpSettings' base URL and transport keys."""

    model: str
    api_key_env: str | None = None
    cache_dir: str | Path | None = "completions-cache"
    endpoint_id: str | None = None
    temperature: float = 0.0
    max_tokens: int = 64

    def __post_init__(self):
        super().__post_init__()
        require_finite("temperature", self.temperature)
        if not self.model:
            raise ValidationError("model must be a non-empty string, got ''")
        if self.max_tokens < 1:
            raise ValidationError(f"max_tokens must be at least 1, got {self.max_tokens}")

    def effective_id(self) -> str:
        return self.endpoint_id or self.base_url


def completion_cache_key(config: EndpointConfig, prompt: str) -> str:
    """Cache key covering endpoint, model, prompt, and decoding parameters."""
    return sha256_hex(
        dumps_stable(
            {
                "endpoint": config.effective_id(),
                "model": config.model,
                "prompt": prompt,
                "temperature": config.temperature,
                "max_tokens": config.max_tokens,
            }
        )
    )


class CompletionClient:
    """Talks to a `/completions` endpoint, persisting every response on disk.

    Responses are cached by (endpoint, model, prompt, decoding params); a
    cache hit performs no network traffic and reports the original call's
    latency. Failures are retried with exponential backoff on 429/5xx and
    transport errors, up to max_retries.
    """

    def __init__(self, config: EndpointConfig):
        self.config = config
        headers = {}
        if config.api_key_env:
            key = os.environ.get(config.api_key_env, "")
            if key:
                headers["Authorization"] = f"Bearer {key}"
        self._http = HttpClient(config, logger, headers)
        self._cache = JsonCache(
            config.cache_dir, lambda e: from_object(Completion, e["completion"], "entry"), logger
        )

    def complete(self, prompt: str) -> Completion:
        request = {
            "model": self.config.model,
            "endpoint": self.config.effective_id(),
            "prompt": prompt,
        }
        return self._cache.through(
            completion_cache_key(self.config, prompt),
            request,
            lambda: self._request(prompt),
            lambda completion: {**request, "completion": vars(completion)},
        )

    def _request(self, prompt: str) -> Completion:
        body = {
            "model": self.config.model,
            "prompt": prompt,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        resp = self._http.request("POST", "completions", "completion request", json_body=body)
        return self._parse(resp.body, prompt, int(resp.elapsed_s * 1000))

    @staticmethod
    def _parse(body: bytes, prompt: str, latency_ms: int) -> Completion:
        try:
            payload = json.loads(body)
        except (ValueError, RecursionError) as exc:
            raise ProtocolError(f"endpoint returned non-JSON body: {exc}") from exc
        try:
            text = payload["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"endpoint response missing choices[0].text: {exc}") from exc
        if not isinstance(text, str):
            raise ProtocolError("endpoint returned a non-string completion text")
        usage = payload.get("usage") or {}
        if not isinstance(usage, dict):
            raise ProtocolError(f"endpoint returned usage {usage!r}, not an object")
        # A count the endpoint leaves out is the whitespace token count.
        counts = {
            "prompt_tokens": usage.get("prompt_tokens", len(prompt.split())),
            "completion_tokens": usage.get("completion_tokens", len(text.split())),
        }
        for name, count in counts.items():
            if not is_count(count):
                raise ProtocolError(f"endpoint returned usage.{name} {count!r}, not a count")
        return Completion(text=text, latency_ms=latency_ms, **counts)


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    return math.exp(max(x, -700.0)) / (1.0 + math.exp(max(x, -700.0)))


def oracle_lm(
    example: QAExample,
    mode: str,
    retrieval_hit: bool,
    rng_seed: int | str = 0,
) -> str:
    """Deterministic synthetic prediction for one example.

    Vanilla mode answers correctly with probability
    sigmoid(ORACLE_A * (log10_pop - ORACLE_B)); retrieval mode with probability
    ORACLE_READOUT when the retrieved passage contains the answer, else
    ORACLE_MISS_RATE. Wrong answers are a fixed sentinel string. The draw
    depends only on (seed, example id, mode).
    """
    if mode not in ("vanilla", "retrieval"):
        raise ValidationError(f"oracle LM does not support mode {mode!r}")
    rng = random.Random(f"{rng_seed}\x00{example.id}\x00{mode}")
    if mode == "vanilla":
        p = _sigmoid(ORACLE_A * (example.log10_popularity - ORACLE_B))
    else:
        p = ORACLE_READOUT if retrieval_hit else ORACLE_MISS_RATE
    if rng.random() < p:
        return sorted(example.gold_answers)[0]
    return ORACLE_WRONG_ANSWER


def _oracle_completion(prompt: str, prediction: str) -> Completion:
    # Deterministic pseudo-accounting so oracle runs reproduce byte-identically.
    prompt_tokens = len(prompt.split())
    completion_tokens = len(prediction.split())
    return Completion(
        text=prediction,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        latency_ms=10 + prompt_tokens // 2,
    )


def run_predictions(
    dataset: Sequence[QAExample],
    mode: str,
    *,
    client: CompletionClient | None = None,
    oracle: bool = False,
    index: Bm25Index | None = None,
    shots: int = 0,
    rng_seed: int | str = 0,
) -> list[PredictionRecord]:
    """Run one mode over the dataset and return scored prediction records,
    answered by `client` or, with `oracle`, by the synthetic oracle. A
    repeated question id is a ValidationError, raised before any request."""
    if mode not in MODES:
        raise ValidationError(f"unknown run mode {mode!r}")
    if (client is None) != oracle:
        raise ConfigError("exactly one of an endpoint client or the oracle is required")
    if mode == "retrieval" and index is None:
        raise ConfigError("retrieval mode needs a built index")
    if mode == "genread" and oracle:
        raise ConfigError("the synthetic oracle does not implement genread")

    candidates = FewshotCandidates(dataset)
    items = []
    for ex in dataset:
        fewshot = build_fewshot_pool(candidates, ex, shots, rng_seed=f"{rng_seed}\x00{ex.id}")
        retrieved_doc_id = recall1 = context = None
        if mode == "retrieval":
            hits = index.search(ex.question, k=1)
            recall1 = False
            if hits:
                retrieved_doc_id = hits[0].doc_id
                passage = index.passages[retrieved_doc_id]
                context = f"{passage.title}\n{passage.text}"
                recall1 = is_correct(context, ex.gold_answers)
        items.append((ex, fewshot, retrieved_doc_id, recall1, context))

    def answer(item) -> PredictionRecord:
        ex, fewshot, retrieved_doc_id, recall1, context = item
        if mode == "genread":
            # Generate-then-read: a generated document is the context; an
            # empty one leaves a vanilla prompt.
            stage1 = client.complete(f"{DEFAULT_GENREAD_INSTRUCTION}\n\n{ex.question}")
            context = stage1.text.strip() or None
        prompt = render_prompt(ex.question, fewshot, context)
        if oracle:
            completion = _oracle_completion(prompt, oracle_lm(ex, mode, bool(recall1), rng_seed))
        else:
            completion = client.complete(prompt)
        prompt_tokens, completion_tokens, latency_ms = (
            completion.prompt_tokens, completion.completion_tokens, completion.latency_ms
        )
        if mode == "genread":
            prompt_tokens += stage1.prompt_tokens
            completion_tokens += stage1.completion_tokens
            latency_ms += stage1.latency_ms
        return PredictionRecord(
            question_id=ex.id,
            mode=mode,
            prediction=completion.text,
            correct=is_correct(completion.text, ex.gold_answers),
            prompt_tokens=prompt_tokens,
            completion_tokens=completion_tokens,
            latency_ms=latency_ms,
            retrieved_doc_id=retrieved_doc_id,
            retrieval_recall1=recall1,
            genread_empty_context=context is None if mode == "genread" else None,
        )

    # Endpoint calls are dispatched with bounded parallelism; records come
    # back in dataset order so they never depend on arrival order.
    return map_in_order(answer, items, 1 if client is None else client.config.max_parallelism)
