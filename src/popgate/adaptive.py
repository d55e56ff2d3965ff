"""Adaptive retrieval: per-relation popularity thresholds deciding, per
question, whether to take the retrieval-augmented or the parametric answer.

Thresholds are tuned exhaustively: the candidate set is the two infinite
sentinels plus every midpoint between consecutive distinct popularities in
the tuning split, evaluated independently per relation. At equal accuracy the
smallest threshold wins, i.e. less retrieval.

Each relation's rows are sorted by popularity once per tuning call. A repeat
shuffles the relation's row positions, marks its tuning rows in a byte mask,
and scores every candidate in one pass over the sorted rows, so no repeat
sorts anything.
"""

from __future__ import annotations

import logging
import math
import random
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import accumulate, compress
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

from .dataset import QAExample
from .errors import AccountingError, PolicyError, ValidationError
from .evaluation import PredictionRecord, join_runs
from .util import atomic_write_text, dumps_stable, read_json, sha256_hex

logger = logging.getLogger(__name__)

RETRIEVE = "retrieve"
PARAMETRIC = "parametric"

NEG_INF = float("-inf")
POS_INF = float("inf")

DEFAULT_SPLIT_FRACTION = 0.75
DEFAULT_REPEATS = 100

T = TypeVar("T")


def dataset_fingerprint(dataset: Sequence[QAExample]) -> str:
    lines = sorted(f"{ex.id}\t{ex.relation_type}\t{ex.popularity}" for ex in dataset)
    return sha256_hex("\n".join(lines))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-relation thresholds on log10 popularity; -inf/+inf are valid."""

    thresholds: Mapping[str, float]
    tuned_on: str = ""
    retrieval_mode: str = "retrieval"

    def threshold_for(self, relation: str) -> float:
        try:
            return self.thresholds[relation]
        except KeyError:
            raise PolicyError(f"policy has no threshold for relation {relation!r}") from None

    def to_dict(self) -> dict:
        def encode(value: float) -> float | str:
            if value == NEG_INF:
                return "-inf"
            if value == POS_INF:
                return "+inf"
            return value

        return {
            "thresholds": {rel: encode(t) for rel, t in sorted(self.thresholds.items())},
            "tuned_on": self.tuned_on,
            "retrieval_mode": self.retrieval_mode,
        }

    @classmethod
    def from_dict(cls, payload: dict) -> "ThresholdPolicy":
        """Raises PolicyError when the payload has no thresholds mapping, a
        threshold is not a number, `tuned_on` is not a string or
        `retrieval_mode` is not "retrieval" or "genread"; the only
        non-finite thresholds accepted are the "-inf" and "+inf" sentinels."""

        def decode(relation: str, value) -> float:
            if value == "-inf":
                return NEG_INF
            if value == "+inf":
                return POS_INF
            try:
                threshold = float(value)
            except (TypeError, ValueError):
                threshold = math.nan
            if isinstance(value, bool) or not math.isfinite(threshold):
                raise PolicyError(
                    f"threshold for relation {relation!r} is {value!r}; "
                    'expected a finite number, "-inf" or "+inf"'
                )
            return threshold

        thresholds = payload.get("thresholds") if isinstance(payload, dict) else None
        if not isinstance(thresholds, dict):
            raise PolicyError("bad policy payload: no 'thresholds' object")
        tuned_on = payload.get("tuned_on", "")
        if not isinstance(tuned_on, str):
            raise PolicyError(f"'tuned_on' is {tuned_on!r}; expected a string")
        retrieval_mode = payload.get("retrieval_mode", "retrieval")
        if retrieval_mode not in ("retrieval", "genread"):
            raise PolicyError(
                f"'retrieval_mode' is {retrieval_mode!r}; expected \"retrieval\" or \"genread\""
            )
        return cls(
            thresholds={rel: decode(rel, t) for rel, t in thresholds.items()},
            tuned_on=tuned_on,
            retrieval_mode=retrieval_mode,
        )

    def save(self, path: str | Path, metadata: dict | None = None) -> None:
        payload = self.to_dict()
        if metadata:
            payload["metadata"] = metadata
        atomic_write_text(path, dumps_stable(payload) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdPolicy":
        """Raises PolicyError naming `path` when the file is not UTF-8 JSON or
        not a valid policy."""
        payload = read_json(path, PolicyError)
        try:
            return cls.from_dict(payload)
        except PolicyError as exc:
            raise PolicyError(f"{path}: {exc}") from exc


def route(example: QAExample, policy: ThresholdPolicy) -> str:
    """RETRIEVE iff the example's log10 popularity is strictly below its
    relation's threshold."""
    threshold = policy.threshold_for(example.relation_type)
    return RETRIEVE if example.log10_popularity < threshold else PARAMETRIC


def routed_records(
    vanilla: Sequence[T],
    retrieval: Sequence[T],
    dataset: Sequence[QAExample],
    policy: ThresholdPolicy,
) -> list[T]:
    """`retrieval[i]` where `dataset[i]` routes to RETRIEVE, else `vanilla[i]`:
    each question's answer under `policy`, for runs joined as `join_runs` does."""
    return [
        ret if route(ex, policy) == RETRIEVE else van
        for ex, van, ret in zip(dataset, vanilla, retrieval, strict=True)
    ]


def adaptive_accuracy(
    vanilla_records: Sequence[PredictionRecord],
    retrieval_records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    policy: ThresholdPolicy,
) -> float:
    """Accuracy when questions routed to RETRIEVE take the retrieval-augmented
    answer and the rest take the parametric one."""
    van, ret = join_runs(dataset, vanilla_records, retrieval_records)
    if not dataset:
        raise ValidationError("cannot score an empty dataset")
    hits = 0
    for rec in routed_records(van, ret, dataset, policy):
        hits += rec.correct
    return hits / len(dataset)


def candidate_thresholds(pops: Sequence[float]) -> list[float]:
    """Sentinels plus midpoints between consecutive distinct sorted popularities."""
    out = [NEG_INF]
    ordered = sorted(pops)
    for lo, hi in zip(ordered, ordered[1:]):
        if hi > lo:
            out.append((lo + hi) / 2.0)
    out.append(POS_INF)
    return out


@dataclass
class _SortedRelation:
    """One relation's rows stably sorted by log10 popularity. `rank[i]` is the
    sorted position of the relation's i-th row in dataset order; `hits[c]` is
    the correct count of all rows when the `c` first retrieve; `draws` are
    the steps of a shuffle of the rows."""

    pops: list[float]
    van: list[int]
    gain: list[int]
    rank: list[int]
    ids: list[str]
    hits: list[int]
    draws: list[tuple[int, int]]

    @classmethod
    def of(
        cls, pops: list[float], van: list[int], ret: list[int], ids: Sequence[str]
    ) -> "_SortedRelation":
        order = sorted(range(len(pops)), key=pops.__getitem__)
        rank = [0] * len(order)
        for position, row in enumerate(order):
            rank[row] = position
        gain = [ret[i] - van[i] for i in order]
        return cls(
            pops=[pops[i] for i in order],
            van=[van[i] for i in order],
            gain=gain,
            rank=rank,
            ids=[ids[i] for i in order],
            hits=list(accumulate(gain, initial=sum(van))),
            draws=_shuffle_draws(len(order)),
        )


def _shuffle_draws(n: int) -> list[tuple[int, int]]:
    """The (j, bits) steps of `random.shuffle` on `n` items: step j swaps
    item j with one drawn below j + 1, from `getrandbits(bits)` values."""
    return [(j, (j + 1).bit_length()) for j in range(n - 1, 0, -1)]


def _shuffle(items: list, draws: list[tuple[int, int]], getrandbits) -> None:
    """`random.Random.shuffle(items)`, inlined: each step takes getrandbits(bits)
    until it is at most j, as `Random._randbelow(j + 1)` does, so it draws the
    same permutation from the same generator state, with the same calls."""
    for j, bits in draws:
        q = getrandbits(bits)
        while q > j:
            q = getrandbits(bits)
        items[j], items[q] = items[q], items[j]


def _fit(rows: _SortedRelation, mask: bytearray) -> tuple[float, int]:
    """(threshold, correct_count) over the rows whose sorted position is set
    in `mask`, in one pass in popularity order.

    Candidates are -inf, the midpoint of each pair of consecutive distinct
    popularities, and +inf. A candidate routes the rows strictly below it to
    retrieval; a midpoint that rounds down to the lower popularity therefore
    routes only the rows below that popularity. Counts are tracked as the
    gain of retrieval over vanilla, and only a strictly larger gain replaces
    the best, so the smallest threshold wins ties.
    """
    best, best_gain = NEG_INF, 0
    gain = below_prev = 0
    # Before the first row, prev = -inf makes that row's "midpoint" the -inf
    # sentinel again, scored 0 like the initial best.
    prev = NEG_INF
    for pop, row_gain in compress(zip(rows.pops, rows.gain), mask):
        if pop > prev:
            mid = (prev + pop) / 2.0
            # Rows strictly below mid: all rows read so far, or, when mid
            # rounds down to prev, only those below prev's popularity.
            candidate = gain if mid > prev else below_prev
            if candidate > best_gain:
                best, best_gain = mid, candidate
            below_prev = gain
            prev = pop
        gain += row_gain
    if gain > best_gain:
        best, best_gain = POS_INF, gain
    return best, sum(compress(rows.van, mask)) + best_gain


@dataclass
class RepeatOutcome:
    """One tuning/test split with its fitted thresholds and accuracies."""

    thresholds: dict[str, float]
    tuning_ids: list[str] = field(repr=False)
    test_ids: list[str] = field(repr=False)
    tuning_accuracy: float
    test_accuracy: float


@dataclass
class TuneResult:
    policy: ThresholdPolicy
    mean_test_accuracy: float
    repeat_outcomes: list[RepeatOutcome]
    # The tuning settings and mean test accuracy, as saved with the policy.
    metadata: dict

    @property
    def per_repeat_test_accuracies(self) -> list[float]:
        return [r.test_accuracy for r in self.repeat_outcomes]


def tune_thresholds(
    vanilla_records: Sequence[PredictionRecord],
    retrieval_records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    split_fraction: float = DEFAULT_SPLIT_FRACTION,
    repeats: int = DEFAULT_REPEATS,
    rng_seed: int | str = 0,
) -> TuneResult:
    """Tune per-relation thresholds over repeated random splits.

    Each repeat assigns `split_fraction` of every relation's questions to a
    tuning split (the rest to test), fits thresholds on the tuning split, and
    records test-split adaptive accuracy. The returned policy is refit on the
    full dataset; the mean of the per-repeat test accuracies is reported
    alongside it.
    """
    if not 0 < split_fraction < 1:
        raise ValidationError("split_fraction must be in (0, 1)")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    grouped: dict[str, list[tuple[QAExample, PredictionRecord, PredictionRecord]]] = {}
    for row in zip(dataset, *join_runs(dataset, vanilla_records, retrieval_records)):
        grouped.setdefault(row[0].relation_type, []).append(row)
    relations = {
        relation: _SortedRelation.of(
            [ex.log10_popularity for ex, _, _ in rows],
            [int(van.correct) for _, van, _ in rows],
            [int(ret.correct) for _, _, ret in rows],
            [ex.id for ex, _, _ in rows],
        )
        for relation, rows in sorted(grouped.items())
    }
    outcomes = []
    for i in range(repeats):
        getrandbits = random.Random(f"{rng_seed}\x00{i}").getrandbits
        thresholds: dict[str, float] = {}
        tuning_ids: list[str] = []
        test_ids: list[str] = []
        tuning_hits = test_hits = 0
        for relation, rows in relations.items():
            # Shuffling the rows' sorted positions, listed in dataset order,
            # draws the same permutation as shuffling their ids would:
            # shuffle depends only on the length and the generator state.
            positions = rows.rank[:]
            _shuffle(positions, rows.draws, getrandbits)
            k = int(len(positions) * split_fraction)
            tuning, test = positions[:k], positions[k:]
            # positions is a permutation, so clearing the test rows leaves
            # exactly the tuning rows set.
            mask = bytearray(b"\x01") * len(positions)
            for position in test:
                mask[position] = 0
            if not k:
                logger.warning(
                    "relation %r has no tuning questions; defaulting its threshold to -inf",
                    relation,
                )
            threshold, hits = _fit(rows, mask)
            thresholds[relation] = threshold
            tuning_hits += hits
            # `hits` routes the tuning rows as the threshold does, so the
            # test rows score the rest of all rows' routed count.
            test_hits += rows.hits[bisect_left(rows.pops, threshold)] - hits
            tuning_ids.extend(map(rows.ids.__getitem__, tuning))
            test_ids.extend(map(rows.ids.__getitem__, test))
        outcomes.append(
            RepeatOutcome(
                thresholds=thresholds,
                tuning_ids=tuning_ids,
                test_ids=test_ids,
                tuning_accuracy=tuning_hits / len(tuning_ids) if tuning_ids else 0.0,
                test_accuracy=test_hits / len(test_ids) if test_ids else 0.0,
            )
        )
    policy = ThresholdPolicy(
        thresholds={
            relation: _fit(rows, bytearray([1]) * len(rows.pops))[0]
            for relation, rows in relations.items()
        },
        tuned_on=dataset_fingerprint(dataset),
    )
    mean_test = math.fsum(o.test_accuracy for o in outcomes) / len(outcomes)
    metadata = {
        "seed": rng_seed,
        "split_fraction": split_fraction,
        "repeats": repeats,
        "mean_test_adaptive_accuracy": mean_test,
    }
    return TuneResult(policy, mean_test, outcomes, metadata)


def retrieval_fraction(dataset: Sequence[QAExample], policy: ThresholdPolicy) -> float:
    """Fraction of questions the policy routes to retrieval."""
    if not dataset:
        raise ValidationError("cannot compute retrieval fraction of an empty dataset")
    routed = sum(route(ex, policy) == RETRIEVE for ex in dataset)
    return routed / len(dataset)


@dataclass(frozen=True)
class CostModel:
    price_per_1k_prompt_tokens: float = 0.02
    price_per_1k_completion_tokens: float = 0.02
    retrieval_latency_ms: int = 50

    def __post_init__(self):
        for f in fields(self):
            value = getattr(self, f.name)
            if not value >= 0:
                raise ValidationError(f"{f.name} must be non-negative, got {value}")

    def record_cost(self, record: PredictionRecord) -> float:
        return (
            record.prompt_tokens / 1000.0 * self.price_per_1k_prompt_tokens
            + record.completion_tokens / 1000.0 * self.price_per_1k_completion_tokens
        )


def _totals(rows: Sequence[tuple[float, int, int]]) -> tuple[float, int, int]:
    """Column sums of (cost, latency, retrieved) rows, adding in row order."""
    cost, ms, retrieved = 0.0, 0, 0
    for row_cost, row_ms, row_retrieved in rows:
        cost += row_cost
        ms += row_ms
        retrieved += row_retrieved
    return cost, ms, retrieved


def cost_report(
    vanilla_records: Sequence[PredictionRecord],
    retrieval_records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    policy: ThresholdPolicy,
    cost_model: CostModel,
) -> dict:
    """Token-cost and latency totals of the routed system vs. both baselines."""
    van, ret = join_runs(dataset, vanilla_records, retrieval_records)
    incomplete = sorted(
        rec.question_id
        for rec in van + ret
        if rec.prompt_tokens is None
        or rec.completion_tokens is None
        or rec.latency_ms is None
    )
    if incomplete:
        raise AccountingError(
            f"records lacking token counts or latency: {incomplete[:10]}"
        )
    # Per question: (token cost, latency, retrieved?) when answered from each run.
    lookup = cost_model.retrieval_latency_ms
    vanilla = [(cost_model.record_cost(v), v.latency_ms, 0) for v in van]
    always = [(cost_model.record_cost(r), r.latency_ms + lookup, 1) for r in ret]
    vanilla_cost, vanilla_ms, _ = _totals(vanilla)
    always_cost, always_ms, _ = _totals(always)
    adaptive_cost, adaptive_ms, routed = _totals(routed_records(vanilla, always, dataset, policy))
    savings = 0.0 if always_cost == 0 else 1.0 - adaptive_cost / always_cost
    return {
        "adaptive_cost": adaptive_cost,
        "always_retrieve_cost": always_cost,
        "vanilla_cost": vanilla_cost,
        "savings_fraction": savings,
        "retrieval_fraction": routed / len(dataset) if dataset else 0.0,
        "latency_estimates": {
            "adaptive_ms": adaptive_ms,
            "always_retrieve_ms": always_ms,
            "vanilla_ms": vanilla_ms,
        },
    }
