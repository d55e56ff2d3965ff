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
import sys
from bisect import bisect_left
from dataclasses import dataclass, field, fields
from itertools import accumulate, compress
from pathlib import Path
from typing import Mapping, Sequence, TypeVar

from .config import AUGMENTED_MODES, DEFAULT_REPEATS, DEFAULT_SPLIT_FRACTION
from .dataset import QAExample
from .errors import AccountingError, PolicyError, ValidationError
from .evaluation import PredictionRecord, join_runs, overall_accuracy
from .util import atomic_write_text, dumps_stable, read_json, require_finite, sha256_hex

logger = logging.getLogger(__name__)

RETRIEVE = "retrieve"
PARAMETRIC = "parametric"

NEG_INF = float("-inf")
POS_INF = float("inf")
_SENTINEL_NAMES = {NEG_INF: "-inf", POS_INF: "+inf"}


class _JsonInfinity(float):
    """JSON's Infinity or -Infinity in a policy file. It is no threshold: a
    file names the sentinels "-inf" and "+inf"."""


T = TypeVar("T")


def dataset_fingerprint(dataset: Sequence[QAExample]) -> str:
    lines = sorted(f"{ex.id}\t{ex.relation_type}\t{ex.popularity}" for ex in dataset)
    return sha256_hex("\n".join(lines))


@dataclass(frozen=True)
class ThresholdPolicy:
    """Per-relation thresholds on log10 popularity, checked when built: each
    a number a float holds (not a bool or NaN) or -inf/+inf, kept as a float."""

    thresholds: Mapping[str, float]
    tuned_on: str = ""
    retrieval_mode: str = "retrieval"

    def __post_init__(self):
        for relation, t in self.thresholds.items():
            # NaN and an integer past the largest float fail the bound.
            if type(t) not in (int, float) or not (
                abs(t) <= sys.float_info.max or t in _SENTINEL_NAMES
            ):
                raise PolicyError(f"threshold for relation {relation!r} is {t!r}; "
                                  'expected a finite number, "-inf" or "+inf"')
        object.__setattr__(self, "thresholds", {r: float(t) for r, t in self.thresholds.items()})
        if self.retrieval_mode not in AUGMENTED_MODES:
            expected = " or ".join(f'"{mode}"' for mode in AUGMENTED_MODES)
            raise PolicyError(f"'retrieval_mode' is {self.retrieval_mode!r}; expected {expected}")

    def threshold_for(self, relation: str) -> float:
        try:
            return self.thresholds[relation]
        except KeyError:
            raise PolicyError(f"policy has no threshold for relation {relation!r}") from None

    @property
    def json_thresholds(self) -> dict[str, float | str]:
        """The thresholds as `save` writes them, the infinite sentinels as
        "-inf" and "+inf"."""
        return {rel: _SENTINEL_NAMES.get(t, t) for rel, t in sorted(self.thresholds.items())}

    def save(self, path: str | Path, metadata: dict | None = None) -> None:
        payload = {
            "thresholds": self.json_thresholds,
            "tuned_on": self.tuned_on,
            "retrieval_mode": self.retrieval_mode,
        }
        if metadata:
            payload["metadata"] = metadata
        atomic_write_text(path, dumps_stable(payload) + "\n")

    @classmethod
    def load(cls, path: str | Path) -> "ThresholdPolicy":
        """Raises PolicyError naming `path` when the file is not UTF-8 JSON,
        has no thresholds mapping, `tuned_on` is not a string or the policy
        fails the checks of a built one."""
        payload = read_json(path, PolicyError)

        def decode(value):
            """The file's "-inf" and "+inf" as the sentinels; JSON's Infinity not."""
            if type(value) is float and value in _SENTINEL_NAMES:
                return _JsonInfinity(value)
            return float(value) if value in ("-inf", "+inf") else value

        thresholds = payload.get("thresholds") if isinstance(payload, dict) else None
        if not isinstance(thresholds, dict):
            raise PolicyError(f"{path}: bad policy payload: no 'thresholds' object")
        tuned_on = payload.get("tuned_on", "")
        if not isinstance(tuned_on, str):
            raise PolicyError(f"{path}: 'tuned_on' is {tuned_on!r}; expected a string")
        decoded = {rel: decode(t) for rel, t in thresholds.items()}
        try:
            return cls(decoded, tuned_on, payload.get("retrieval_mode", "retrieval"))
        except PolicyError as exc:
            raise PolicyError(f"{path}: {exc}") from None


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
    return overall_accuracy(routed_records(van, ret, dataset, policy))


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
    """One tuning/test split with its fitted thresholds and test accuracy.

    The split is kept as each relation's shuffled sorted positions, of which
    the first `k` are its tuning rows; `tuning_ids` maps them to question ids
    when read."""

    thresholds: dict[str, float]
    test_accuracy: float
    # (ids in sorted order, shuffled sorted positions, k) per relation.
    splits: list[tuple[list[str], list[int], int]] = field(repr=False)

    @property
    def tuning_ids(self) -> list[str]:
        return [ids[p] for ids, positions, k in self.splits for p in positions[:k]]


@dataclass
class TuneResult:
    policy: ThresholdPolicy
    repeat_outcomes: list[RepeatOutcome]
    # What `tune` prints: the mean test accuracy and, over all questions, the
    # refit policy's accuracy, each baseline's and its retrieval fraction.
    summary: dict
    # Saved with the policy: the tuning settings and the mean test accuracy.
    metadata: dict


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
    full dataset and takes its `retrieval_mode` from the augmented run; the
    mean of the per-repeat test accuracies is reported alongside it.
    """
    if not 0 < split_fraction < 1:
        raise ValidationError("split_fraction must be in (0, 1)")
    if repeats < 1:
        raise ValidationError("repeats must be >= 1")
    if not dataset:
        raise ValidationError("cannot tune thresholds on an empty dataset")
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
    for relation, rows in relations.items():
        if not int(len(rows.pops) * split_fraction):
            logger.warning(
                "relation %r has no tuning questions; defaulting its threshold to -inf", relation
            )
    outcomes = []
    n = len(dataset)
    for i in range(repeats):
        getrandbits = random.Random(f"{rng_seed}\x00{i}").getrandbits
        thresholds: dict[str, float] = {}
        splits = []
        n_tuning = test_hits = 0
        for relation, rows in relations.items():
            # Shuffling the rows' sorted positions, listed in dataset order,
            # draws the same permutation as shuffling their ids would:
            # shuffle depends only on the length and the generator state.
            positions = rows.rank[:]
            _shuffle(positions, rows.draws, getrandbits)
            k = int(len(positions) * split_fraction)
            # positions is a permutation, so clearing the test rows leaves
            # exactly the tuning rows set.
            mask = bytearray(b"\x01") * len(positions)
            for position in positions[k:]:
                mask[position] = 0
            threshold, hits = _fit(rows, mask)
            thresholds[relation] = threshold
            # `hits` routes the tuning rows as the threshold does, so the
            # test rows score the rest of all rows' routed count.
            test_hits += rows.hits[bisect_left(rows.pops, threshold)] - hits
            n_tuning += k
            splits.append((rows.ids, positions, k))
        outcomes.append(
            RepeatOutcome(
                thresholds=thresholds,
                test_accuracy=test_hits / (n - n_tuning) if n_tuning < n else 0.0,
                splits=splits,
            )
        )
    refit = {
        relation: _fit(rows, bytearray([1]) * len(rows.pops))
        for relation, rows in relations.items()
    }
    policy = ThresholdPolicy(
        thresholds={relation: threshold for relation, (threshold, _) in refit.items()},
        tuned_on=dataset_fingerprint(dataset),
        retrieval_mode=retrieval_records[0].mode,
    )
    summary = {
        "mean_test_adaptive_accuracy": math.fsum(o.test_accuracy for o in outcomes) / repeats,
        "full_fit_adaptive_accuracy": sum(hits for _, hits in refit.values()) / n,
        "vanilla_accuracy": sum(rows.hits[0] for rows in relations.values()) / n,
        "retrieval_accuracy": sum(rows.hits[-1] for rows in relations.values()) / n,
        "retrieval_fraction": sum(
            bisect_left(rows.pops, threshold)
            for rows, (threshold, _) in zip(relations.values(), refit.values())
        ) / n,
    }
    metadata = {"seed": rng_seed, "split_fraction": split_fraction, "repeats": repeats}
    metadata["mean_test_adaptive_accuracy"] = summary["mean_test_adaptive_accuracy"]
    return TuneResult(policy, outcomes, summary, metadata)


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
            require_finite(f.name, getattr(self, f.name))

    def record_cost(self, record: PredictionRecord) -> float:
        return (
            record.prompt_tokens / 1000.0 * self.price_per_1k_prompt_tokens
            + record.completion_tokens / 1000.0 * self.price_per_1k_completion_tokens
        )


def _totals(rows: Sequence[tuple[float, int]]) -> tuple[float, int]:
    """Column sums of (cost, latency) rows, adding in row order."""
    cost, ms = 0.0, 0
    for row_cost, row_ms in rows:
        cost += row_cost
        ms += row_ms
    return cost, ms


def cost_report(
    vanilla_records: Sequence[PredictionRecord],
    retrieval_records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    policy: ThresholdPolicy,
    cost_model: CostModel,
) -> dict:
    """Token-cost and latency totals of the routed system vs. both baselines."""
    van, ret = join_runs(dataset, vanilla_records, retrieval_records)
    if retrieval_records and retrieval_records[0].mode != policy.retrieval_mode:
        raise PolicyError(
            f"policy was tuned on a {policy.retrieval_mode} run, "
            f"but the augmented run holds {retrieval_records[0].mode} records"
        )
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
    # Per question: (token cost, latency) when answered from each run.
    lookup = cost_model.retrieval_latency_ms
    try:
        vanilla = [(cost_model.record_cost(v), v.latency_ms) for v in van]
        always = [(cost_model.record_cost(r), r.latency_ms + lookup) for r in ret]
    except OverflowError:  # a token count past the largest float
        raise AccountingError("a token count is too large to price as a float") from None
    vanilla_cost, vanilla_ms = _totals(vanilla)
    always_cost, always_ms = _totals(always)
    adaptive_cost, adaptive_ms = _totals(routed_records(vanilla, always, dataset, policy))
    savings = 0.0 if always_cost == 0 else 1.0 - adaptive_cost / always_cost
    if not all(map(math.isfinite, (vanilla_cost, always_cost, adaptive_cost, savings))):
        raise AccountingError("token costs overflow a float: prices or token counts too large")
    return {
        "adaptive_cost": adaptive_cost,
        "always_retrieve_cost": always_cost,
        "vanilla_cost": vanilla_cost,
        "savings_fraction": savings,
        "retrieval_fraction": retrieval_fraction(dataset, policy),
        "latency_estimates": {
            "adaptive_ms": adaptive_ms,
            "always_retrieve_ms": always_ms,
            "vanilla_ms": vanilla_ms,
        },
    }
