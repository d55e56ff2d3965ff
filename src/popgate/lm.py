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

from .dataset import QAExample
from .errors import ConfigError, ProtocolError, TransportError, ValidationError
from .evaluation import PredictionRecord, is_correct
from .retriever import Bm25Index, recall_at_k
from .util import HttpClient, JsonCache, dumps_stable, sha256_hex

logger = logging.getLogger(__name__)

DEFAULT_GENREAD_INSTRUCTION = (
    "Generate a background document that answers the given question."
)
ORACLE_WRONG_ANSWER = "UNKNOWN_ENTITY"
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
        self.positions: dict[str, int] = {}
        for i, ex in enumerate(dataset):
            if self.positions.setdefault(ex.id, i) != i:
                raise ValidationError(f"duplicate question id {ex.id!r}")

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


class _AllBut(Sequence):
    """`items` without the one at `skip`, with no copy. `random.sample` draws
    the same items from it as from a list copied without that item."""

    def __init__(self, items: Sequence, skip: int):
        self._items, self._skip = items, skip

    def __len__(self) -> int:
        return len(self._items) - 1

    def __getitem__(self, i: int):
        return self._items[i + (i >= self._skip)]


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
    others = _AllBut(candidates.pairs, candidates.positions[target.id])
    if len(others) < shots:
        raise ValidationError(f"cannot sample {shots} few-shot pairs from {len(others)} candidates")
    return rng.sample(others, shots)


@dataclass(frozen=True)
class Completion:
    text: str
    prompt_tokens: int
    completion_tokens: int
    latency_ms: int

    def __post_init__(self):
        if self.prompt_tokens < 0 or self.completion_tokens < 0 or self.latency_ms < 0:
            raise ValidationError("completion token counts and latency must be >= 0")


@dataclass(frozen=True)
class EndpointConfig:
    """Completion-style HTTP endpoint plus client behavior knobs."""

    base_url: str
    model: str
    api_key_env: str | None = None
    cache_dir: str | Path | None = "completions-cache"
    endpoint_id: str | None = None
    temperature: float = 0.0
    max_tokens: int = 64
    timeout_s: float = 60.0
    max_retries: int = 3
    backoff_s: float = 0.5
    max_parallelism: int = 4
    requests_per_second: float | None = None

    def __post_init__(self):
        for name in ("temperature", "timeout_s", "backoff_s"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:
                raise ValidationError(f"{name} must be finite and >= 0, got {value}")
        if not self.max_retries >= 0:
            raise ValidationError(f"max_retries must be >= 0, got {self.max_retries}")
        if not self.max_parallelism >= 1:
            raise ValidationError(f"max_parallelism must be >= 1, got {self.max_parallelism}")
        if self.cache_dir == "":
            raise ValidationError("cache_dir must be a non-empty path or null")
        rate = self.requests_per_second
        if rate is not None and not 0 < rate < math.inf:
            raise ValidationError(
                f"requests_per_second must be null or finite and > 0, got {rate}"
            )

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
        self._http = HttpClient(
            timeout_s=config.timeout_s,
            max_retries=config.max_retries,
            backoff_s=config.backoff_s,
            requests_per_second=config.requests_per_second,
            logger=logger,
            headers=headers,
        )
        self._cache = None
        if config.cache_dir is not None:
            self._cache = JsonCache(
                config.cache_dir, lambda entry: Completion(**entry["completion"]), logger
            )

    def complete(self, prompt: str) -> Completion:
        key = completion_cache_key(self.config, prompt)
        if self._cache is not None:
            cached = self._cache.get(key)
            if cached is not None:
                return cached
        completion = self._request(prompt)
        if self._cache is not None:
            entry = {
                "model": self.config.model,
                "endpoint": self.config.effective_id(),
                "prompt": prompt,
                "completion": vars(completion),
            }
            self._cache.put(key, entry)
        return completion

    def _request(self, prompt: str) -> Completion:
        url = f"{self.config.base_url.rstrip('/')}/completions"
        body = {
            "model": self.config.model,
            "prompt": prompt,
            "temperature": self.config.temperature,
            "max_tokens": self.config.max_tokens,
        }
        resp = self._http.request("POST", url, "completion request", json_body=body)
        if resp.status != 200:
            raise TransportError(f"HTTP {resp.status} from {url}")
        return self._parse(resp.body, prompt, int(resp.elapsed_s * 1000))

    @staticmethod
    def _parse(body: bytes, prompt: str, latency_ms: int) -> Completion:
        try:
            payload = json.loads(body)
        except ValueError as exc:
            raise ProtocolError(f"endpoint returned non-JSON body: {exc}") from exc
        try:
            text = payload["choices"][0]["text"]
        except (KeyError, IndexError, TypeError) as exc:
            raise ProtocolError(f"endpoint response missing choices[0].text: {exc}") from exc
        if not isinstance(text, str):
            raise ProtocolError("endpoint returned a non-string completion text")
        usage = payload.get("usage") or {}
        return Completion(
            text=text,
            prompt_tokens=int(usage.get("prompt_tokens", len(prompt.split()))),
            completion_tokens=int(usage.get("completion_tokens", len(text.split()))),
            latency_ms=latency_ms,
        )


def genread_answer(
    client: CompletionClient,
    question: str,
    fewshot_pairs: Sequence[tuple[str, str]] = (),
    instruction: str = DEFAULT_GENREAD_INSTRUCTION,
) -> tuple[str, Completion]:
    """Two-stage answering: generate a context document, then answer with it.

    Returns (generated_context, completion) with both stages' token counts and
    latencies summed. An empty stage-1 document falls back to a vanilla
    second stage.
    """
    stage1 = client.complete(f"{instruction}\n\n{question}")
    context = stage1.text.strip()
    stage2 = client.complete(render_prompt(question, fewshot_pairs, context or None))
    combined = Completion(
        text=stage2.text,
        prompt_tokens=stage1.prompt_tokens + stage2.prompt_tokens,
        completion_tokens=stage1.completion_tokens + stage2.completion_tokens,
        latency_ms=stage1.latency_ms + stage2.latency_ms,
    )
    return context, combined


@dataclass(frozen=True)
class OracleParams:
    """Synthetic LM: popularity-dependent parametric recall, readout-limited
    retrieval-augmented recall."""

    a: float = 2.0
    b: float = 3.5
    readout: float = 0.9

    def __post_init__(self):
        for name in ("a", "b"):
            if not math.isfinite(getattr(self, name)):
                raise ValidationError(f"{name} must be finite, got {getattr(self, name)}")
        if not 0 <= self.readout <= 1:
            raise ValidationError(f"readout must lie in [0, 1], got {self.readout}")


def _sigmoid(x: float) -> float:
    if x >= 0:
        return 1.0 / (1.0 + math.exp(-min(x, 700.0)))
    return math.exp(max(x, -700.0)) / (1.0 + math.exp(max(x, -700.0)))


def oracle_lm(
    example: QAExample,
    mode: str,
    retrieval_hit: bool,
    params: OracleParams,
    rng_seed: int | str = 0,
) -> str:
    """Deterministic synthetic prediction for one example.

    Vanilla mode answers correctly with probability sigmoid(a*(log10_pop - b));
    retrieval mode with probability `readout` when the retrieved passage
    contains the answer, else a small residual rate. Wrong answers are a fixed
    sentinel string. The draw depends only on (seed, example id, mode).
    """
    if mode not in ("vanilla", "retrieval"):
        raise ValidationError(f"oracle LM does not support mode {mode!r}")
    rng = random.Random(f"{rng_seed}\x00{example.id}\x00{mode}")
    if mode == "vanilla":
        p = _sigmoid(params.a * (example.log10_popularity - params.b))
    else:
        p = params.readout if retrieval_hit else ORACLE_MISS_RATE
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
    oracle: OracleParams | None = None,
    index: Bm25Index | None = None,
    shots: int = 0,
    rng_seed: int | str = 0,
    genread_instruction: str = DEFAULT_GENREAD_INSTRUCTION,
) -> list[PredictionRecord]:
    """Run one mode over the dataset and return scored prediction records.
    A repeated question id is a ValidationError, raised before any request."""
    if mode not in ("vanilla", "retrieval", "genread"):
        raise ValidationError(f"unknown run mode {mode!r}")
    if (client is None) == (oracle is None):
        raise ConfigError("exactly one of endpoint client or oracle params is required")
    if mode == "retrieval" and index is None:
        raise ConfigError("retrieval mode needs a built index")
    if mode == "genread" and oracle is not None:
        raise ConfigError("the synthetic oracle does not implement genread")

    candidates = FewshotCandidates(dataset)
    items = []
    for ex in dataset:
        fewshot = build_fewshot_pool(candidates, ex, shots, rng_seed=f"{rng_seed}\x00{ex.id}")
        retrieved_doc_id = None
        recall1 = None
        context = None
        if mode == "retrieval":
            hits = index.search(ex.question, k=1)
            recall1 = recall_at_k(hits, index.passages, ex.gold_answers, k=1)
            if hits:
                retrieved_doc_id = hits[0].doc_id
                passage = index.passages[retrieved_doc_id]
                context = f"{passage.title}\n{passage.text}"
        items.append((ex, fewshot, retrieved_doc_id, recall1, context))

    def answer(item) -> tuple[Completion, bool | None]:
        ex, fewshot, _doc_id, recall1, context = item
        if mode == "genread":
            generated, completion = genread_answer(
                client, ex.question, fewshot, genread_instruction
            )
            return completion, generated == ""
        prompt = render_prompt(ex.question, fewshot, context)
        if oracle is not None:
            prediction = oracle_lm(ex, mode, bool(recall1), oracle, rng_seed)
            return _oracle_completion(prompt, prediction), None
        return client.complete(prompt), None

    # Endpoint calls are dispatched with bounded parallelism; results are
    # collected back in dataset order so records never depend on arrival order.
    if client is not None and client.config.max_parallelism > 1:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(max_workers=client.config.max_parallelism) as pool:
            answers = list(pool.map(answer, items))
    else:
        answers = [answer(item) for item in items]

    records = []
    for (ex, _fewshot, retrieved_doc_id, recall1, _context), (completion, genread_empty) in zip(
        items, answers
    ):
        records.append(
            PredictionRecord(
                question_id=ex.id,
                mode=mode,
                prediction=completion.text,
                correct=is_correct(completion.text, ex.gold_answers),
                prompt_tokens=completion.prompt_tokens,
                completion_tokens=completion.completion_tokens,
                latency_ms=completion.latency_ms,
                retrieved_doc_id=retrieved_doc_id,
                retrieval_recall1=recall1,
                genread_empty_context=genread_empty,
            )
        )
    return records
