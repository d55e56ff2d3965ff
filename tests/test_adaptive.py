from __future__ import annotations

import json
import math
import random
from dataclasses import dataclass

import pytest
from hypothesis import given, settings, strategies as st

from popgate.adaptive import (
    CostModel,
    NEG_INF,
    PARAMETRIC,
    POS_INF,
    RETRIEVE,
    ThresholdPolicy,
    _shuffle,
    _shuffle_draws,
    adaptive_accuracy,
    candidate_thresholds,
    cost_report,
    dataset_fingerprint,
    retrieval_fraction,
    route,
    routed_records,
    tune_thresholds,
)
from popgate.dataset import QAExample
from popgate.errors import AccountingError, JoinError, PolicyError, ValidationError
from popgate.evaluation import (
    PredictionRecord, evaluate_run, overall_accuracy, popularity_correlation, quadrant_analysis,
)

from conftest import make_example, synthetic_examples
from oracles import adaptive_correct_count


def record(qid: str, correct: bool, mode: str = "vanilla", tokens: int = 10) -> PredictionRecord:
    return PredictionRecord(
        question_id=qid,
        mode=mode,
        prediction="answer" if correct else "wrong",
        correct=correct,
        prompt_tokens=tokens,
        completion_tokens=0,
        latency_ms=tokens,
        retrieved_doc_id="d" if mode == "retrieval" else None,
        retrieval_recall1=correct if mode == "retrieval" else None,
    )


def run_pair(dataset, vanilla_rule, retrieval_rule, van_tokens=10, ret_tokens=10):
    vanilla = [record(ex.id, vanilla_rule(ex), tokens=van_tokens) for ex in dataset]
    retrieval = [
        record(ex.id, retrieval_rule(ex), mode="retrieval", tokens=ret_tokens)
        for ex in dataset
    ]
    return vanilla, retrieval


# Each analysis that joins runs to a dataset, called on (vanilla, retrieval, dataset).
JOINING_ANALYSES = {
    "evaluate_run": lambda van, ret, data: evaluate_run(van, data),
    "popularity_correlation": lambda van, ret, data: popularity_correlation(van, data),
    "quadrant_analysis": quadrant_analysis,
    "adaptive_accuracy": lambda van, ret, data: adaptive_accuracy(
        van, ret, data, ThresholdPolicy({"director": 3.0})),
    "tune_thresholds": lambda van, ret, data: tune_thresholds(van, ret, data, repeats=2),
    "cost_report": lambda van, ret, data: cost_report(
        van, ret, data, ThresholdPolicy({"director": 3.0}), CostModel()),
}


@pytest.mark.parametrize("analysis", JOINING_ANALYSES.values(), ids=JOINING_ANALYSES)
def test_dataset_that_repeats_a_question_is_refused(analysis):
    """A dataset [a, a] with runs [a correct, b wrong] is refused, not read
    as `a` twice with `b` dropped (a vanilla accuracy of 1.0)."""
    a, b = make_example(0), make_example(1)
    vanilla = [record(a.id, True), record(b.id, False)]
    retrieval = [record(a.id, True, mode="retrieval"), record(b.id, False, mode="retrieval")]
    with pytest.raises(ValidationError, match=f"^duplicate question id '{a.id}'$"):
        analysis(vanilla, retrieval, [a, a])


class TestRoute:
    def test_plus_infinity_always_retrieves(self):
        policy = ThresholdPolicy({"director": POS_INF})
        assert route(make_example(0, popularity=10**9), policy) == RETRIEVE

    def test_minus_infinity_never_retrieves(self):
        policy = ThresholdPolicy({"director": NEG_INF})
        assert route(make_example(0, popularity=0), policy) == PARAMETRIC

    def test_boundary_is_strictly_less_than(self):
        policy = ThresholdPolicy({"director": 4.0})
        assert route(make_example(0, popularity=10000), policy) == PARAMETRIC
        assert route(make_example(0, popularity=9999), policy) == RETRIEVE

    def test_missing_relation_is_policy_error(self):
        policy = ThresholdPolicy({"genre": 1.0})
        with pytest.raises(PolicyError, match="director"):
            route(make_example(0), policy)

    def test_routing_depends_only_on_relation_and_popularity(self):
        policy = ThresholdPolicy({"director": 3.0})
        a = make_example(1, popularity=500)
        b = make_example(2, popularity=500)
        assert route(a, policy) == route(b, policy)


class TestAdaptiveAccuracy:
    def test_endpoint_identities_bit_exact(self):
        dataset = synthetic_examples(157, seed=0)
        rng = random.Random(5)
        vanilla, retrieval = run_pair(
            dataset, lambda ex: rng.random() < 0.4, lambda ex: rng.random() < 0.6
        )
        relations = {ex.relation_type for ex in dataset}
        never = ThresholdPolicy({rel: NEG_INF for rel in relations})
        always = ThresholdPolicy({rel: POS_INF for rel in relations})
        assert adaptive_accuracy(vanilla, retrieval, dataset, never) == overall_accuracy(vanilla)
        assert adaptive_accuracy(vanilla, retrieval, dataset, always) == overall_accuracy(
            retrieval
        )

    def test_crossing_pair_reaches_perfect_accuracy(self):
        rare = make_example(0, popularity=10)
        popular = make_example(1, popularity=10**6)
        dataset = [rare, popular]
        vanilla, retrieval = run_pair(
            dataset, lambda ex: ex is popular, lambda ex: ex is rare
        )
        policy = ThresholdPolicy({"director": 3.0})
        assert adaptive_accuracy(vanilla, retrieval, dataset, policy) == 1.0

    def test_coverage_mismatch_is_join_error(self):
        dataset = synthetic_examples(4, seed=1)
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: True)
        with pytest.raises(JoinError, match=dataset[3].id):
            adaptive_accuracy(vanilla[:3], retrieval, dataset, ThresholdPolicy({}))


class TestRoutedRecords:
    def test_takes_retrieval_record_below_threshold(self):
        dataset = [make_example(0, popularity=10), make_example(1, popularity=10**6)]
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: False)
        policy = ThresholdPolicy({"director": 3.0})
        assert routed_records(vanilla, retrieval, dataset, policy) == [retrieval[0], vanilla[1]]

    def test_runs_must_align_with_dataset(self):
        dataset = [make_example(i) for i in range(2)]
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: True)
        with pytest.raises(ValueError):
            routed_records(vanilla[:1], retrieval, dataset, ThresholdPolicy({"director": 3.0}))

    @settings(max_examples=40, deadline=None)
    @given(
        st.integers(min_value=0, max_value=2**32 - 1),
        st.lists(
            st.one_of(
                st.floats(min_value=0.0, max_value=7.0),
                st.sampled_from([NEG_INF, POS_INF]),
            ),
            min_size=4,
            max_size=4,
        ),
    )
    def test_accuracy_and_cost_fraction_match_oracle(self, seed, thresholds):
        dataset = synthetic_examples(60, seed=seed % 997)
        rng = random.Random(seed)
        vanilla, retrieval = run_pair(
            dataset, lambda ex: rng.random() < 0.5, lambda ex: rng.random() < 0.5
        )
        relations = sorted({ex.relation_type for ex in dataset})
        policy = ThresholdPolicy(dict(zip(relations, thresholds)))
        per_relation: dict[str, list] = {}
        for ex, v, r in zip(dataset, vanilla, retrieval):
            per_relation.setdefault(ex.relation_type, []).append(
                (ex.log10_popularity, v.correct, r.correct)
            )
        want = sum(
            adaptive_correct_count(entries, policy.thresholds[rel])
            for rel, entries in per_relation.items()
        )
        rng.shuffle(vanilla)
        rng.shuffle(retrieval)
        assert adaptive_accuracy(vanilla, retrieval, dataset, policy) == want / len(dataset)
        report = cost_report(
            vanilla, retrieval, dataset, policy, CostModel(1.0, 1.0, retrieval_latency_ms=5)
        )
        assert report["retrieval_fraction"] == retrieval_fraction(dataset, policy)


def full_fit(entries):
    """(threshold, correct count) of the full-dataset refit of one relation
    whose (log10_pop, vanilla_correct, retrieval_correct) rows are `entries`."""
    dataset = [
        LogPopExample(
            id=f"Q{i}",
            question="q?",
            gold_answers=frozenset({"a"}),
            subject_id=f"Q{i}",
            subject_label=f"Q{i}",
            relation_type="rel",
            popularity=1,
            log_pop=pop,
        )
        for i, (pop, _, _) in enumerate(entries)
    ]
    vanilla = [record(ex.id, van) for ex, (_, van, _) in zip(dataset, entries)]
    retrieval = [record(ex.id, ret, mode="retrieval") for ex, (_, _, ret) in zip(dataset, entries)]
    threshold = tune_thresholds(vanilla, retrieval, dataset, repeats=1).policy.thresholds["rel"]
    return threshold, adaptive_correct_count(entries, threshold)


class TestChooseThreshold:
    def test_worked_four_question_relation(self):
        # popularity-sorted vanilla [0,0,1,1], retrieval [1,1,0,0]
        pops = [1.0, 2.0, 3.0, 4.0]
        entries = list(zip(pops, [False, False, True, True], [True, True, False, False]))
        threshold, count = full_fit(entries)
        assert threshold == pytest.approx(2.5)
        assert count == 4
        candidates = candidate_thresholds(pops)
        assert candidates == [NEG_INF, 1.5, 2.5, 3.5, POS_INF]
        assert all(
            adaptive_correct_count(entries, c) <= count for c in candidates
        )

    def test_tie_break_prefers_smallest_threshold(self):
        # retrieval and vanilla identical: every candidate scores the same,
        # so the fitted threshold must be -inf (least retrieval).
        entries = [(1.0, True, True), (2.0, False, False)]
        threshold, _ = full_fit(entries)
        assert threshold == NEG_INF

    def test_empty_entries_default_to_never_retrieve(self):
        # One question and a 0.5 split leave the relation no tuning rows.
        dataset = [make_example(0)]
        vanilla, retrieval = run_pair(dataset, lambda ex: False, lambda ex: True)
        result = tune_thresholds(vanilla, retrieval, dataset, split_fraction=0.5, repeats=3)
        assert all(o.thresholds == {"director": NEG_INF} for o in result.repeat_outcomes)


class TestTuneThresholds:
    def test_worked_example_refit_on_full_dataset(self):
        dataset = [
            make_example(i, popularity=10 ** (i + 1)) for i in range(4)
        ]  # log pops 1..4
        vanilla, retrieval = run_pair(
            dataset,
            lambda ex: ex.log10_popularity >= 3,
            lambda ex: ex.log10_popularity < 3,
        )
        result = tune_thresholds(
            vanilla, retrieval, dataset, split_fraction=0.75, repeats=5, rng_seed=1
        )
        assert result.policy.thresholds["director"] == pytest.approx(2.5)
        assert adaptive_accuracy(vanilla, retrieval, dataset, result.policy) == 1.0
        assert result.policy.tuned_on == dataset_fingerprint(dataset)

    def test_per_repeat_optimality_against_exhaustive_recheck(self):
        dataset = synthetic_examples(120, relations=("a", "b", "c"), seed=6)
        rng = random.Random(11)
        vanilla, retrieval = run_pair(
            dataset, lambda ex: rng.random() < 0.45, lambda ex: rng.random() < 0.55
        )
        result = tune_thresholds(vanilla, retrieval, dataset, repeats=20, rng_seed=4)
        rows = {
            ex.id: (ex.log10_popularity, v.correct, r.correct, ex.relation_type)
            for ex, v, r in zip(dataset, vanilla, retrieval)
        }
        for outcome in result.repeat_outcomes:
            per_relation: dict[str, list] = {}
            for qid in outcome.tuning_ids:
                pop, van, ret, rel = rows[qid]
                per_relation.setdefault(rel, []).append((pop, van, ret))
            for rel, entries in per_relation.items():
                chosen = outcome.thresholds[rel]
                chosen_count = adaptive_correct_count(entries, chosen)
                for candidate in candidate_thresholds([e[0] for e in entries]):
                    assert adaptive_correct_count(entries, candidate) <= chosen_count

    def test_deterministic_given_seed(self):
        dataset = synthetic_examples(150, seed=5)
        rng = random.Random(2)
        vanilla, retrieval = run_pair(
            dataset, lambda ex: rng.random() < 0.5, lambda ex: rng.random() < 0.5
        )
        a = tune_thresholds(vanilla, retrieval, dataset, repeats=7, rng_seed=9)
        b = tune_thresholds(vanilla, retrieval, dataset, repeats=7, rng_seed=9)
        assert a.policy == b.policy
        assert a.summary == b.summary
        assert [o.tuning_ids for o in a.repeat_outcomes] == [
            o.tuning_ids for o in b.repeat_outcomes
        ]

    def test_relation_without_tuning_questions_warns_and_defaults(self, caplog):
        # Whether a relation has tuning questions depends only on its size, so
        # each such relation is named once, whatever the repeats.
        dataset = synthetic_examples(40, relations=("common",), seed=1)
        dataset += [make_example(900 + i, relation=r, popularity=100)
                    for i, r in enumerate(("rare", "scarce"))]
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: False)
        with caplog.at_level("WARNING"):
            result = tune_thresholds(
                vanilla, retrieval, dataset, split_fraction=0.5, repeats=20, rng_seed=0
            )
        assert all(o.thresholds["rare"] == NEG_INF for o in result.repeat_outcomes)
        assert [r.getMessage() for r in caplog.records] == [
            f"relation {name!r} has no tuning questions; defaulting its threshold to -inf"
            for name in ("rare", "scarce")
        ]

    def test_parameter_validation(self):
        dataset = synthetic_examples(4, seed=0)
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: True)
        with pytest.raises(ValidationError):
            tune_thresholds(vanilla, retrieval, dataset, split_fraction=1.0)
        with pytest.raises(ValidationError):
            tune_thresholds(vanilla, retrieval, dataset, repeats=0)

    def test_swapped_runs_build_no_policy(self):
        """A vanilla run in the augmented place yields no policy that `load`
        would refuse; a policy checks its own mode when built."""
        dataset = synthetic_examples(4, seed=0)
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: False)
        message = """'retrieval_mode' is 'vanilla'; expected "retrieval" or "genread"$"""
        with pytest.raises(PolicyError, match=message):
            tune_thresholds(retrieval, vanilla, dataset, repeats=2)
        with pytest.raises(PolicyError, match=message):
            ThresholdPolicy({}, retrieval_mode="vanilla")


@dataclass
class LogPopExample(QAExample):
    """Example whose log10 popularity is set directly, so that popularities can
    sit on adjacent floats."""

    log_pop: float = 0.0

    @property
    def log10_popularity(self) -> float:
        return self.log_pop


def reference_choose_threshold(entries):
    """Per-relation fit written as a sort plus prefix sums over every candidate."""
    if not entries:
        return NEG_INF, 0
    ordered = sorted(entries, key=lambda e: e[0])
    pops = [e[0] for e in ordered]
    prefix_van, prefix_ret = [0], [0]
    for _, van, ret in ordered:
        prefix_van.append(prefix_van[-1] + van)
        prefix_ret.append(prefix_ret[-1] + ret)
    candidates = [NEG_INF]
    for lo, hi in zip(pops, pops[1:]):
        if hi > lo:
            candidates.append((lo + hi) / 2.0)
    candidates.append(POS_INF)
    best_threshold, best_count, idx = NEG_INF, -1, 0
    for threshold in candidates:
        while idx < len(pops) and pops[idx] < threshold:
            idx += 1
        count = prefix_ret[idx] + (prefix_van[-1] - prefix_van[idx])
        if count > best_count:
            best_threshold, best_count = threshold, count
    return best_threshold, best_count


def reference_tune(vanilla, retrieval, dataset, split_fraction, repeats, rng_seed):
    """Tuning with a fresh shuffle of the ids, a re-sort and a rescoring of
    every relation in every repeat: the direct reading of the method."""
    rows = {
        ex.id: (ex.log10_popularity, v.correct, r.correct, ex.relation_type)
        for ex, v, r in zip(dataset, vanilla, retrieval)
    }
    relations = sorted({ex.relation_type for ex in dataset})

    def fit(ids):
        entries = {rel: [] for rel in relations}
        for qid in ids:
            pop, van, ret, rel = rows[qid]
            entries[rel].append((pop, van, ret))
        return {rel: reference_choose_threshold(entries[rel])[0] for rel in relations}

    def accuracy(ids, thresholds):
        if not ids:
            return 0.0
        hits = 0
        for qid in ids:
            pop, van, ret, rel = rows[qid]
            hits += ret if pop < thresholds[rel] else van
        return hits / len(ids)

    outcomes = []
    for i in range(repeats):
        rng = random.Random(f"{rng_seed}\x00{i}")
        by_relation = {}
        for ex in dataset:
            by_relation.setdefault(ex.relation_type, []).append(ex.id)
        tuning, test = [], []
        for rel in sorted(by_relation):
            ids = list(by_relation[rel])
            rng.shuffle(ids)
            k = int(len(ids) * split_fraction)
            tuning.extend(ids[:k])
            test.extend(ids[k:])
        thresholds = fit(tuning)
        outcomes.append((thresholds, tuning, accuracy(test, thresholds)))
    mean_test = math.fsum(o[2] for o in outcomes) / len(outcomes)
    return fit([ex.id for ex in dataset]), mean_test, outcomes


def adjacent_floats(start: float, n: int) -> list[float]:
    values = [start]
    for _ in range(n - 1):
        values.append(math.nextafter(values[-1], math.inf))
    return values


# Runs of adjacent floats, whose midpoints round down to the lower value half
# of the time, plus a few well-separated popularities; few values, many ties.
POPULARITIES = adjacent_floats(0.0, 7) + adjacent_floats(2.5, 7) + [1.0, 3.0, 4.75, 6.0]


def log_pop_case(rows):
    """Dataset and both runs of (id, relation, log10 popularity, vanilla
    correct, retrieval correct) rows."""
    dataset = [
        LogPopExample(
            id=qid, question="q?", gold_answers=frozenset({"a"}), subject_id=qid,
            subject_label=qid, relation_type=rel, popularity=1, log_pop=pop,
        )
        for qid, rel, pop, _, _ in rows
    ]
    vanilla = [record(qid, van) for qid, _, _, van, _ in rows]
    retrieval = [record(qid, ret, mode="retrieval") for qid, _, _, _, ret in rows]
    return dataset, vanilla, retrieval


@st.composite
def tuning_cases(draw):
    sizes = draw(st.lists(st.integers(1, 9), min_size=1, max_size=4))
    rows = []
    for r, size in enumerate(sizes):
        for j in range(size):
            pop = draw(st.sampled_from(POPULARITIES))
            van, ret = draw(st.booleans()), draw(st.booleans())
            rows.append((f"Q{r}-{j}:rel{r}", f"rel{r}", pop, van, ret))
    dataset, vanilla, retrieval = log_pop_case(draw(st.permutations(rows)))
    split = draw(st.sampled_from([0.1, 0.3, 0.5, 0.75, 0.9]))
    return dataset, vanilla, retrieval, split, draw(st.integers(1, 4)), draw(st.integers(0, 99))


class TestSplitDraw:
    def test_inlined_shuffle_is_random_shuffle(self):
        """The tuning split's inlined draw must give random.shuffle's
        permutation and leave the generator where shuffle leaves it; this pins
        CPython's Random._randbelow rejection loop on each Python it runs on."""
        for n in range(601):
            draws = _shuffle_draws(n)
            for seed in range(50):
                expected, got = list(range(n)), list(range(n))
                reference = random.Random(f"{seed}\x00{n}")
                reference.shuffle(expected)
                rng = random.Random(f"{seed}\x00{n}")
                _shuffle(got, draws, rng.getrandbits)
                assert got == expected, (n, seed)
                assert rng.getrandbits(32) == reference.getrandbits(32), (n, seed)


class TestTuneEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(tuning_cases())
    def test_matches_per_repeat_resort_reference(self, case):
        dataset, vanilla, retrieval, split, repeats, seed = case
        result = tune_thresholds(
            vanilla, retrieval, dataset, split_fraction=split, repeats=repeats, rng_seed=seed
        )
        final, mean_test, outcomes = reference_tune(
            vanilla, retrieval, dataset, split, repeats, seed
        )
        assert result.policy.thresholds == final
        assert result.summary["mean_test_adaptive_accuracy"] == mean_test
        assert len(result.repeat_outcomes) == len(outcomes)
        for got, (thresholds, tuning, test_acc) in zip(result.repeat_outcomes, outcomes):
            assert got.thresholds == thresholds
            assert got.tuning_ids == tuning
            assert got.test_accuracy == test_acc

    def test_midpoint_rounding_down_routes_only_rows_below_it(self):
        lo = 2.5
        hi = math.nextafter(lo, math.inf)
        if (lo + hi) / 2.0 != lo:
            lo, hi = hi, math.nextafter(hi, math.inf)
        assert (lo + hi) / 2.0 == lo
        # Only retrieval is right on the lo row and only vanilla on the hi row.
        # The candidate between them equals lo and routes neither row, so it
        # scores 1 like the sentinels; counting the lo row below it would
        # wrongly score 2.
        entries = [(lo, False, True), (hi, True, False)]
        assert full_fit(entries) == reference_choose_threshold(entries) == (NEG_INF, 1)


class TestTuneSummary:
    """The figures `tune_thresholds` reports equal, bit for bit, what the
    scorers compute for its refit policy."""

    def check(self, dataset, vanilla, retrieval, **kwargs):
        result = tune_thresholds(vanilla, retrieval, dataset, **kwargs)
        assert result.summary == {
            "mean_test_adaptive_accuracy": math.fsum(
                o.test_accuracy for o in result.repeat_outcomes
            ) / len(result.repeat_outcomes),
            "full_fit_adaptive_accuracy": adaptive_accuracy(
                vanilla, retrieval, dataset, result.policy
            ),
            "vanilla_accuracy": overall_accuracy(vanilla),
            "retrieval_accuracy": overall_accuracy(retrieval),
            "retrieval_fraction": retrieval_fraction(dataset, result.policy),
        }
        assert result.metadata["mean_test_adaptive_accuracy"] == (
            result.summary["mean_test_adaptive_accuracy"]
        )
        return result

    @settings(max_examples=300, deadline=None)
    @given(tuning_cases())
    def test_equals_the_scorers_of_the_refit_policy(self, case):
        """Tied popularities, adjacent floats whose midpoints round down to
        the lower one, and relations of one row."""
        dataset, vanilla, retrieval, split, repeats, seed = case
        self.check(
            dataset, vanilla, retrieval, split_fraction=split, repeats=repeats, rng_seed=seed
        )

    def test_infinite_thresholds_and_one_row_relations(self):
        lo = adjacent_floats(2.5, 2)[0]
        rows = [
            ("A0:always", "always", lo, False, True),
            ("N0:never", "never", lo, True, False),
            ("N1:never", "never", 6.0, True, True),
            ("M0:mixed", "mixed", 1.0, False, True),
            ("M1:mixed", "mixed", lo, True, False),
            ("M2:mixed", "mixed", math.nextafter(lo, math.inf), True, False),
        ]
        result = self.check(*log_pop_case(rows), repeats=3, rng_seed=1)
        assert result.policy.thresholds == {
            "always": POS_INF, "never": NEG_INF, "mixed": (1.0 + lo) / 2.0
        }
        assert result.summary["retrieval_fraction"] == 2 / 6
        assert result.summary["full_fit_adaptive_accuracy"] == 1.0

    def test_empty_dataset_is_a_validation_error(self):
        with pytest.raises(ValidationError, match="empty dataset"):
            tune_thresholds([], [], [])


class TestRetrievalFraction:
    def test_sentinels(self):
        dataset = synthetic_examples(50, seed=3)
        relations = {ex.relation_type for ex in dataset}
        assert retrieval_fraction(
            dataset, ThresholdPolicy({r: NEG_INF for r in relations})
        ) == 0.0
        assert retrieval_fraction(
            dataset, ThresholdPolicy({r: POS_INF for r in relations})
        ) == 1.0

    def test_median_threshold_routes_about_half(self):
        dataset = [make_example(i, popularity=10 ** (i % 6 + 1)) for i in range(60)]
        pops = sorted(ex.log10_popularity for ex in dataset)
        median = pops[len(pops) // 2]
        policy = ThresholdPolicy({"director": median})
        expected = sum(1 for ex in dataset if ex.log10_popularity < median) / len(dataset)
        assert retrieval_fraction(dataset, policy) == pytest.approx(expected)
        assert 0.3 <= retrieval_fraction(dataset, policy) <= 0.7

    def test_monotone_in_pointwise_thresholds(self):
        dataset = synthetic_examples(80, seed=8)
        relations = sorted({ex.relation_type for ex in dataset})
        rng = random.Random(14)
        for _ in range(20):
            low = {r: rng.uniform(0.0, 6.5) for r in relations}
            high = {r: low[r] + rng.uniform(0.0, 2.0) for r in relations}
            assert retrieval_fraction(dataset, ThresholdPolicy(low)) <= retrieval_fraction(
                dataset, ThresholdPolicy(high)
            )


class TestCostReport:
    def cost_model(self):
        return CostModel(
            price_per_1k_prompt_tokens=1000.0,
            price_per_1k_completion_tokens=1000.0,
            retrieval_latency_ms=5,
        )

    def test_always_retrieve_has_zero_savings(self):
        dataset = synthetic_examples(20, seed=0)
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: True)
        policy = ThresholdPolicy(
            {r: POS_INF for r in {ex.relation_type for ex in dataset}}
        )
        report = cost_report(vanilla, retrieval, dataset, policy, self.cost_model())
        assert report["savings_fraction"] == 0.0
        assert report["adaptive_cost"] == report["always_retrieve_cost"]

    def test_never_retrieve_costs_vanilla(self):
        dataset = synthetic_examples(20, seed=0)
        vanilla, retrieval = run_pair(dataset, lambda ex: True, lambda ex: True, 10, 30)
        policy = ThresholdPolicy(
            {r: NEG_INF for r in {ex.relation_type for ex in dataset}}
        )
        report = cost_report(vanilla, retrieval, dataset, policy, self.cost_model())
        assert report["adaptive_cost"] == report["vanilla_cost"]

    def test_half_routing_with_triple_tokens_saves_one_third(self):
        # 100 questions in one relation; exactly half lie below the threshold.
        dataset = [
            make_example(i, popularity=(100 if i < 50 else 10**5)) for i in range(100)
        ]
        vanilla, retrieval = run_pair(
            dataset, lambda ex: True, lambda ex: True, van_tokens=100, ret_tokens=300
        )
        policy = ThresholdPolicy({"director": 3.0})
        report = cost_report(vanilla, retrieval, dataset, policy, self.cost_model())
        assert report["retrieval_fraction"] == 0.5
        assert abs(report["savings_fraction"] - 1.0 / 3.0) <= 1e-12

    def test_latency_estimates(self):
        dataset = [make_example(0, popularity=10), make_example(1, popularity=10**6)]
        vanilla, retrieval = run_pair(
            dataset, lambda ex: True, lambda ex: True, van_tokens=10, ret_tokens=20
        )
        policy = ThresholdPolicy({"director": 3.0})
        report = cost_report(vanilla, retrieval, dataset, policy, self.cost_model())
        latency = report["latency_estimates"]
        assert latency["vanilla_ms"] == 20
        assert latency["always_retrieve_ms"] == 2 * (20 + 5)
        assert latency["adaptive_ms"] == (20 + 5) + 10

    def test_missing_token_counts_listed(self):
        dataset = [make_example(0)]
        vanilla = [
            PredictionRecord(
                question_id=dataset[0].id,
                mode="vanilla",
                prediction="x",
                correct=True,
            )
        ]
        retrieval = [record(dataset[0].id, True, mode="retrieval")]
        with pytest.raises(AccountingError, match=dataset[0].id):
            cost_report(
                vanilla, retrieval, dataset, ThresholdPolicy({"director": 1.0}), self.cost_model()
            )

    @pytest.mark.parametrize("tuned, run", [("retrieval", "genread"), ("genread", "retrieval")])
    def test_augmented_run_of_another_mode_is_policy_error(self, tuned, run):
        dataset = synthetic_examples(4, seed=0)
        vanilla = [record(ex.id, True) for ex in dataset]
        augmented = [record(ex.id, True, mode=run) for ex in dataset]
        policy = ThresholdPolicy({ex.relation_type: 1.0 for ex in dataset}, retrieval_mode=tuned)
        with pytest.raises(PolicyError, match=f"tuned on a {tuned} run.*holds {run} records"):
            cost_report(vanilla, augmented, dataset, policy, self.cost_model())

    def test_empty_dataset_has_no_retrieval_fraction(self):
        with pytest.raises(ValidationError) as info:
            cost_report([], [], [], ThresholdPolicy({"director": 3.0}), self.cost_model())
        assert str(info.value) == "cannot compute retrieval fraction of an empty dataset"

    def test_negative_cost_model_rejected(self):
        with pytest.raises(ValidationError):
            CostModel(-1.0, 0.0, 0)


class TestPolicyIO:
    def test_round_trip_with_sentinels(self, tmp_path):
        policy = ThresholdPolicy(
            {"director": 3.25, "genre": NEG_INF, "author": POS_INF},
            tuned_on="abc123",
            retrieval_mode="retrieval",
        )
        path = tmp_path / "policy.json"
        policy.save(path, metadata={"seed": 7, "split_fraction": 0.75, "repeats": 100})
        loaded = ThresholdPolicy.load(path)
        assert loaded == policy
        text = path.read_text()
        assert '"-inf"' in text and '"+inf"' in text

    @pytest.mark.parametrize(
        "value",
        ["nan", "NaN", "inf", "-Infinity", 1e999, True, None, [1.0], "2.5",
         pytest.param(10**401, id="401-digits")],
    )
    def test_non_finite_or_non_numeric_threshold_rejected(self, tmp_path, value):
        path = tmp_path / "policy.json"
        path.write_text(json.dumps({"thresholds": {"director": value}}))
        with pytest.raises(PolicyError, match="policy.json: threshold for relation 'director'"):
            ThresholdPolicy.load(path)

    @pytest.mark.parametrize(
        "value", [float("nan"), True, "x", pytest.param(10**400, id="401-digits")]
    )
    def test_bad_threshold_rejected_when_built(self, value):
        """A policy built in code follows the rule that `load` applies."""
        with pytest.raises(PolicyError) as info:
            ThresholdPolicy({"director": value})
        assert str(info.value) == (f"threshold for relation 'director' is {value!r}; "
                                   'expected a finite number, "-inf" or "+inf"')

    def test_thresholds_are_stored_as_floats(self):
        policy = ThresholdPolicy({"director": 3, "genre": NEG_INF})
        assert [type(t) for t in policy.thresholds.values()] == [float, float]

    def test_json_nan_threshold_rejected_with_path(self, tmp_path):
        path = tmp_path / "policy.json"
        path.write_text('{"thresholds": {"director": NaN}}')
        with pytest.raises(PolicyError, match="policy.json"):
            ThresholdPolicy.load(path)

    @pytest.mark.parametrize(
        "text", ["", '{"thresholds": {"director": 1.5', "[1, 2]", '{"thresholds": [1.5]}', "\udcff"]
    )
    def test_truncated_or_malformed_file_names_path(self, tmp_path, text):
        path = tmp_path / "policy.json"
        path.write_text(text, errors="surrogateescape")
        with pytest.raises(PolicyError, match="policy.json"):
            ThresholdPolicy.load(path)

    def test_every_truncation_of_a_saved_policy_is_policy_error(self, tmp_path):
        policy = ThresholdPolicy({"director": 3.25, "genre": NEG_INF}, tuned_on="abc")
        path = tmp_path / "policy.json"
        policy.save(path)
        blob = path.read_bytes()
        cut = tmp_path / "cut.json"
        for offset in range(len(blob) - 1):
            cut.write_bytes(blob[:offset])
            with pytest.raises(PolicyError, match="cut.json"):
                ThresholdPolicy.load(cut)
