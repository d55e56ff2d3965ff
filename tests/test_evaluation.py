from __future__ import annotations

import decimal
import json
import math
import sys
from dataclasses import fields, replace
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from popgate.errors import JoinError, ValidationError
from popgate.evaluation import (
    PredictionRecord,
    RelationRow,
    _pearson,
    evaluate_run,
    format_quadrants,
    is_correct,
    join_runs,
    normalize_text,
    overall_accuracy,
    popularity_correlation,
    quadrant_analysis,
    read_records,
    record_from_row,
    record_to_row,
    wilson_interval,
    write_records,
    write_report,
)

from conftest import make_example, synthetic_examples
from oracles import pearson, wilson


def record(
    qid: str,
    correct: bool,
    mode: str = "vanilla",
    recall1: bool | None = None,
    prompt_tokens: int = 10,
    completion_tokens: int = 5,
    latency_ms: int = 20,
) -> PredictionRecord:
    return PredictionRecord(
        question_id=qid,
        mode=mode,
        prediction="answer" if correct else "wrong",
        correct=correct,
        prompt_tokens=prompt_tokens,
        completion_tokens=completion_tokens,
        latency_ms=latency_ms,
        retrieved_doc_id="d0" if mode == "retrieval" else None,
        retrieval_recall1=recall1,
    )


def generator_is_correct(prediction, gold_answers) -> bool:
    """The rule `is_correct` keeps, in its earlier two-generator form."""
    golds = list(gold_answers)
    if not golds:
        raise ValidationError("is_correct needs a non-empty gold answer set")
    pred = normalize_text(prediction)
    return any(g in pred for g in (normalize_text(g) for g in golds) if g)


# Letters, their fullwidth and ligature forms (NFKC folds them), and spaces
# that collapse: so short draws often match, miss, or normalize to "".
MATCH_TEXT = st.text(st.sampled_from("abAB ＡＢａｂﬁ①²\t\n\u3000\xa0"), max_size=8)


class TestIsCorrect:
    def test_answer_embedded_in_sentence(self):
        prediction = "The Faculty was produced by Elizabeth Avellan and Robert Rodriguez."
        assert is_correct(prediction, {"Robert Rodriguez"})

    def test_wrong_entity(self):
        assert not is_correct("Noel Black", {"Sanjay Leela Bhansali"})

    def test_empty_prediction(self):
        assert not is_correct("", {"Sarajevo"})

    def test_case_and_whitespace_insensitive(self):
        assert is_correct("walter   WANGER produced it", {"Walter Wanger"})

    def test_nfkc_normalization(self):
        assert is_correct("Ｗａｌｔｅｒ Ｗａｎｇｅｒ", {"Walter Wanger"})

    def test_empty_gold_set_rejected(self):
        with pytest.raises(ValidationError):
            is_correct("anything", set())

    @given(st.text(min_size=1), st.sampled_from([" ", "  ", "\t", "\n"]))
    def test_invariant_under_case_and_whitespace(self, prediction, pad):
        gold = {"Walter Wanger"}
        mangled = pad + prediction.upper().replace(" ", pad) + pad
        assert is_correct(prediction, gold) == is_correct(mangled, gold)


    @settings(max_examples=500)
    @given(MATCH_TEXT, st.lists(MATCH_TEXT, max_size=4))
    def test_one_pass_matches_the_generator_form(self, prediction, golds):
        try:
            expected = generator_is_correct(prediction, golds)
        except ValidationError as exc:
            with pytest.raises(ValidationError, match=str(exc)):
                is_correct(prediction, golds)
        else:
            assert is_correct(prediction, golds) == expected
            assert is_correct(prediction, iter(golds)) == expected


class TestJoinRuns:
    def test_records_come_back_in_dataset_order(self):
        dataset = [make_example(i) for i in range(5)]
        vanilla = [record(ex.id, i % 2 == 0) for i, ex in enumerate(dataset)]
        retrieval = [record(ex.id, True, mode="retrieval") for ex in dataset]
        shuffled = vanilla[3:] + vanilla[:3]
        assert join_runs(dataset, shuffled, retrieval[::-1]) == [vanilla, retrieval]

    def test_no_runs_and_empty_dataset(self):
        assert join_runs([make_example(0)]) == []
        assert join_runs([], []) == [[]]

    def test_duplicate_record_names_mode_and_id(self):
        dataset = [make_example(i) for i in range(2)]
        run = [record(ex.id, True, mode="retrieval") for ex in dataset]
        message = f"retrieval run has duplicate records for '{dataset[1].id}'"
        with pytest.raises(JoinError, match=message):
            join_runs(dataset, run + run[1:])

    def test_duplicate_with_a_question_missing(self):
        dataset = [make_example(i) for i in range(2)]
        run = [record(dataset[0].id, True), record(dataset[0].id, False)]
        with pytest.raises(JoinError, match="vanilla run has duplicate records"):
            join_runs(dataset, run)

    def test_unknown_id_listed(self):
        dataset = [make_example(0)]
        run = [record(dataset[0].id, True), record("ghost", True)]
        message = r"vanilla run does not cover the dataset \(missing: \[\], unknown: \['ghost'\]\)"
        with pytest.raises(JoinError, match=message):
            join_runs(dataset, run)

    def test_missing_id_listed(self):
        dataset = [make_example(i) for i in range(3)]
        run = [record(ex.id, True) for ex in dataset[:2]]
        with pytest.raises(JoinError, match=rf"missing: \['{dataset[2].id}'\], unknown: \[\]"):
            join_runs(dataset, run)

    def test_swapped_id_is_both_missing_and_unknown(self):
        dataset = [make_example(i) for i in range(2)]
        run = [record(dataset[0].id, True), record("ghost", True)]
        message = rf"missing: \['{dataset[1].id}'\], unknown: \['ghost'\]"
        with pytest.raises(JoinError, match=message):
            join_runs(dataset, run)

    def test_dataset_that_repeats_a_question_is_refused(self):
        dataset = [make_example(0), make_example(0)]
        for run in ([record(dataset[0].id, True), record("b", False)],
                    [record(dataset[0].id, True)] * 2):
            with pytest.raises(ValidationError, match=f"^duplicate question id '{dataset[0].id}'$"):
                join_runs(dataset, run)

    def test_second_run_checked_too(self):
        dataset = [make_example(i) for i in range(2)]
        vanilla = [record(ex.id, True) for ex in dataset]
        with pytest.raises(JoinError, match="retrieval run does not cover"):
            join_runs(dataset, vanilla, [record(dataset[0].id, True, mode="retrieval")])


class TestAccuracyByRelation:
    def test_two_of_four(self):
        dataset = [make_example(i) for i in range(4)]
        records = [record(ex.id, i < 2) for i, ex in enumerate(dataset)]
        rows = evaluate_run(records, dataset).per_relation
        assert rows == [RelationRow("director", n=4, accuracy=0.5, correlation=None)]

    def test_empty_records(self):
        with pytest.raises(JoinError, match="does not cover"):
            evaluate_run([], [make_example(0)])

    @pytest.mark.parametrize("min_bin_n", [-1, 1.5, True, None])
    def test_min_bin_n_must_be_a_count(self, min_bin_n):
        dataset = [make_example(0)]
        with pytest.raises(ValidationError, match="min_bin_n must be a non-negative integer"):
            evaluate_run([record(dataset[0].id, True)], dataset, min_bin_n=min_bin_n)

    def test_unknown_question_id_is_join_error(self):
        with pytest.raises(JoinError, match="ghost"):
            evaluate_run([record("ghost", True)], [make_example(0)])

    def test_overall_equals_weighted_mean_over_sixteen_relations(
        self, sixteen_relation_dataset
    ):
        dataset = sixteen_relation_dataset
        records = [record(ex.id, i % 3 == 0) for i, ex in enumerate(dataset)]
        report = evaluate_run(records, dataset)
        rows = report.per_relation
        assert len(rows) == 16
        assert [row.relation for row in rows] == sorted({ex.relation_type for ex in dataset})
        weighted = sum(row.accuracy * row.n for row in rows) / sum(row.n for row in rows)
        assert abs(weighted - overall_accuracy(records)) <= 1e-12
        assert report.overall_accuracy == overall_accuracy(records)


class TestPopularityCorrelation:
    def test_four_point_hand_oracle(self):
        dataset = [make_example(i, popularity=10**p) for i, p in enumerate((1, 2, 3, 4))]
        records = [record(ex.id, ex.log10_popularity > 2.5) for ex in dataset]
        result = popularity_correlation(records, dataset)["director"]
        expected = pearson([1.0, 2.0, 3.0, 4.0], [0.0, 0.0, 1.0, 1.0])
        assert result == pytest.approx(expected, abs=1e-9)
        assert result == pytest.approx(0.894427190999916, abs=1e-9)

    def test_sign_positive_when_correctness_tracks_popularity(self):
        dataset = synthetic_examples(200, relations=("director",), seed=3)
        pops = sorted(ex.log10_popularity for ex in dataset)
        median = pops[len(pops) // 2]
        records = [record(ex.id, ex.log10_popularity > median) for ex in dataset]
        assert popularity_correlation(records, dataset)["director"] > 0

    def test_zero_variance_is_undefined_marker(self):
        dataset = [make_example(i, popularity=10**i) for i in range(4)]
        records = [record(ex.id, True) for ex in dataset]
        assert popularity_correlation(records, dataset) == {"director": None}

    def test_constant_popularity_is_undefined_marker(self):
        # The fsum mean of five log10(7) rounds off the value, so Python 3.11's
        # statistics.correlation reported rounding noise here.
        dataset = [make_example(i, popularity=7) for i in range(5)]
        records = [record(ex.id, i % 2 == 0) for i, ex in enumerate(dataset)]
        assert popularity_correlation(records, dataset) == {"director": None}

    def test_single_record_is_undefined_marker(self):
        dataset = [make_example(0)]
        records = [record(dataset[0].id, True)]
        assert popularity_correlation(records, dataset) == {"director": None}


def exact_pearson(xs, ys) -> float | None:
    """r from sxy, sxx and syy computed exactly from the float inputs, and
    rounded to a float once: r**2 is an exact Fraction, whose square root is
    taken to 60 digits."""
    n = len(xs)
    if n < 2:
        return None
    fx, fy = [Fraction(x) for x in xs], [Fraction(y) for y in ys]
    mx, my = sum(fx) / n, sum(fy) / n
    sxy = sum((x - mx) * (y - my) for x, y in zip(fx, fy))
    sxx = sum((x - mx) ** 2 for x in fx)
    syy = sum((y - my) ** 2 for y in fy)
    if sxx == 0 or syy == 0:
        return None
    r2 = sxy * sxy / (sxx * syy)
    with decimal.localcontext(decimal.Context(prec=60)):
        r = (decimal.Decimal(r2.numerator) / r2.denominator).sqrt()
    return math.copysign(float(r), sxy)


def same_size_lists(sizes, values):
    return st.sampled_from(sizes).flatmap(
        lambda n: st.tuples(*[st.lists(values, min_size=n, max_size=n)] * 2)
    )


# Power-of-two sizes and small integer values keep the means, the deviations
# and the centred sums exact in floating point, so only the product, the
# square root and the division round: under 2.5 ulp in all, hence at most
# 2 ulp from the exact value's float. Elsewhere a near-zero r can lose most of
# its bits to cancellation in sxy under any float formula, 3.11's included.
EXACT_SUMS = same_size_lists(
    [0, 1, 2, 4, 8, 16, 32, 64],
    st.one_of(st.integers(0, 1), st.integers(-(2**15), 2**15)).map(float),
)


class TestPearson:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(EXACT_SUMS)
    def test_within_two_ulp_of_the_exact_value(self, xs_ys):
        xs, ys = xs_ys
        got, want = _pearson(xs, ys), exact_pearson(xs, ys)
        if want is None:
            assert got is None
        else:
            assert abs(got - want) <= 2 * math.ulp(want), (got, want)

    @pytest.mark.parametrize(
        "xs, ys",
        [([], []), ([2.5], [1.0]), ([0.1] * 3, [1.0, 2.0, 4.0]),
         ([math.log10(7)] * 5, [True, False, True, False, False]),
         ([1.0, 2.0, 3.0], [True] * 3)],
    )
    def test_fewer_than_two_points_or_a_constant_side_is_none(self, xs, ys):
        # The fsum means of 3 x 0.1 and 5 x log10(7) round off the value, and
        # Python 3.11's statistics.correlation returns rounding noise for them.
        assert _pearson(xs, ys) is None

    @pytest.mark.parametrize(
        "xs, ys, r",
        [([1.9, 1.74, 2.8], [True, False, False], -0.37383274166710423),
         ([4.6, 1.47, 0.5], [True, False, False], 0.9740468334125894),
         ([0.3, 5.5, 2.5], [4.4, 5.0, 1.0], 0.22614146850335054)],
    )
    def test_python_3_11_bits_on_every_version(self, xs, ys, r):
        # statistics.correlation on Python 3.12 and 3.13 differs in the last bit here.
        assert _pearson(xs, ys).hex() == r.hex()

    @pytest.mark.skipif(sys.version_info[:2] != (3, 11), reason="_pearson follows 3.11's formula")
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(same_size_lists(range(41), st.one_of(st.sampled_from([0.0, 1.0]), st.floats(-1e9, 1e9))))
    def test_bit_for_bit_equal_to_python_3_11(self, xs_ys):
        import statistics

        xs, ys = xs_ys
        got = _pearson(xs, ys)
        if len(set(xs)) < 2 or len(set(ys)) < 2:
            assert got is None
            return
        try:
            want = statistics.correlation(xs, ys).hex()
        except statistics.StatisticsError:
            want = None
        assert (None if got is None else got.hex()) == want


class TestWilson:
    def test_zero_of_ten(self):
        low, high = wilson_interval(0, 10)
        assert low == pytest.approx(0.0, abs=1e-9)
        assert high == pytest.approx(wilson(0, 10)[1], abs=1e-9)
        assert high == pytest.approx(0.27753, abs=1e-4)

    def test_five_of_ten(self):
        assert wilson_interval(5, 10) == pytest.approx(wilson(5, 10), abs=1e-9)

    def test_ten_of_ten_upper_is_one(self):
        low, high = wilson_interval(10, 10)
        assert high == pytest.approx(1.0, abs=1e-12)
        assert low == pytest.approx(wilson(10, 10)[0], abs=1e-9)

    @given(st.integers(min_value=1, max_value=500), st.data())
    def test_contains_point_estimate_within_unit_interval(self, n, data):
        successes = data.draw(st.integers(min_value=0, max_value=n))
        low, high = wilson_interval(successes, n)
        assert 0.0 <= low <= successes / n <= high <= 1.0


class TestBinnedAccuracy:
    def test_zero_of_ten_bin(self):
        dataset = [make_example(i, popularity=1000) for i in range(10)]
        records = [record(ex.id, False) for ex in dataset]
        bins = evaluate_run(records, dataset, min_bin_n=10).bins
        assert len(bins) == 1
        b = bins[0]
        assert b.accuracy == 0.0
        assert b.n == 10
        assert b.center_log10_pop == pytest.approx(3.25)
        assert (b.wilson_low, b.wilson_high) == pytest.approx(wilson(0, 10), abs=1e-9)

    def test_small_bins_omitted(self):
        dataset = [make_example(i, popularity=1000) for i in range(9)]
        records = [record(ex.id, True) for ex in dataset]
        assert evaluate_run(records, dataset, min_bin_n=10).bins == []

    def test_perfect_bin_upper_bound_is_one(self):
        dataset = [make_example(i, popularity=100) for i in range(10)]
        records = [record(ex.id, True) for ex in dataset]
        bins = evaluate_run(records, dataset, min_bin_n=10).bins
        assert bins[0].wilson_high == pytest.approx(1.0, abs=1e-12)

    def test_default_min_bin_n_is_forty(self):
        dataset = [make_example(i, popularity=1000) for i in range(39)]
        records = [record(ex.id, True) for ex in dataset]
        assert evaluate_run(records, dataset).bins == []


class TestQuadrants:
    def build(self, dataset, van_flags, ret_flags, recalls):
        vanilla = [record(ex.id, v) for ex, v in zip(dataset, van_flags)]
        retrieval = [
            record(ex.id, r, mode="retrieval", recall1=rc)
            for ex, r, rc in zip(dataset, ret_flags, recalls)
        ]
        return vanilla, retrieval

    def test_one_question_per_cell(self):
        dataset = [make_example(i) for i in range(4)]
        vanilla, retrieval = self.build(
            dataset,
            (True, True, False, False),
            (True, False, True, False),
            (True, False, True, False),
        )
        table = quadrant_analysis(vanilla, retrieval, dataset)
        assert all(cell.fraction == 0.25 for cell in table.values())
        assert math.fsum(cell.fraction for cell in table.values()) == pytest.approx(1.0, abs=1e-9)
        assert all(cell.n == 1 for cell in table.values())

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.booleans(), st.booleans(), st.booleans()), min_size=1, max_size=30))
    def test_cells_match_a_reference_partition(self, flags):
        dataset = [make_example(i) for i in range(len(flags))]
        vanilla, retrieval = self.build(dataset, *zip(*flags))
        partition = {(v, r): [] for v in (True, False) for r in (True, False)}
        for v, r, recall1 in flags:
            partition[(v, r)].append(recall1)
        table = quadrant_analysis(vanilla, retrieval, dataset)
        assert set(table) == set(partition)
        for key, recalls in partition.items():
            cell = table[key]
            assert (cell.lm_correct, cell.retrieval_correct) == key
            assert cell.n == len(recalls)
            assert cell.fraction == len(recalls) / len(dataset)
            assert cell.mean_recall1 == (sum(recalls) / len(recalls) if recalls else None)

    def test_reported_table_shape(self):
        # 10000 questions split 24/10/17/49 percent with per-cell recall@1 of
        # 0.83 / 0.14 / 0.88 / 0.11 — the rendered table must carry these.
        dataset = []
        van_flags, ret_flags, recalls = [], [], []
        cells = [
            (True, True, 2400, 1992),
            (True, False, 1000, 140),
            (False, True, 1700, 1496),
            (False, False, 4900, 539),
        ]
        i = 0
        for v, r, n, hits in cells:
            for j in range(n):
                dataset.append(make_example(i))
                van_flags.append(v)
                ret_flags.append(r)
                recalls.append(j < hits)
                i += 1
        vanilla, retrieval = self.build(dataset, van_flags, ret_flags, recalls)
        table = quadrant_analysis(vanilla, retrieval, dataset)
        rendered = format_quadrants(table)
        assert "0.14 (10%)" in rendered
        assert "0.88 (17%)" in rendered
        assert "0.83 (24%)" in rendered
        assert "0.11 (49%)" in rendered

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValidationError, match="cannot analyse quadrants of an empty dataset"):
            quadrant_analysis([], [], [])

    def test_coverage_mismatch_lists_missing_ids(self):
        dataset = [make_example(i) for i in range(3)]
        vanilla, retrieval = self.build(
            dataset, (True, True, True), (True, True, True), (True, True, True)
        )
        with pytest.raises(JoinError, match=dataset[2].id):
            quadrant_analysis(vanilla[:2], retrieval, dataset)

    def test_missing_recall_rejected(self):
        dataset = [make_example(0)]
        vanilla = [record(dataset[0].id, True)]
        retrieval = [record(dataset[0].id, True, mode="retrieval", recall1=None)]
        with pytest.raises(ValidationError, match="recall"):
            quadrant_analysis(vanilla, retrieval, dataset)

    def test_oracle_run_recall_asymmetry(self):
        # With an answer-readout model, flips from wrong->right under retrieval
        # concentrate where retrieval found the answer, and right->wrong flips
        # where it did not.
        from popgate.demo import generate_world
        from popgate.lm import run_predictions
        from popgate.retriever import build_index

        world = generate_world(seed=3, size=600)
        index = build_index(world.passages)
        vanilla = run_predictions(world.examples, "vanilla", oracle=True, rng_seed=3)
        retrieval = run_predictions(
            world.examples, "retrieval", oracle=True, index=index, rng_seed=3
        )
        table = quadrant_analysis(vanilla, retrieval, world.examples)
        helped = table[(False, True)].mean_recall1
        hurt = table[(True, False)].mean_recall1
        assert helped > hurt


class TestRecordsIO:
    def test_round_trip(self, tmp_path):
        records = [
            record("q1", True),
            record("q2", False, mode="retrieval", recall1=True),
        ]
        path = tmp_path / "run.jsonl"
        assert write_records(records, path) == 2
        assert read_records(path) == records

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda row: row.pop("correct"), "prediction row missing key 'correct'"),
            (lambda row: row.update(score=1), "prediction row has unknown key 'score'"),
        ],
        ids=["missing", "unknown"],
    )
    def test_missing_or_unknown_key(self, tmp_path, change, message):
        row = record_to_row(record("q1", True))
        change(row)
        path = tmp_path / "run.jsonl"
        path.write_text(json.dumps(row) + "\n")
        with pytest.raises(ValidationError) as info:
            read_records(path)
        assert str(info.value) == f"{path}:1: {message}"

    def test_row_is_the_fields_without_empty_genread_flag(self):
        rec = record("q1", True, mode="retrieval", recall1=False)
        assert list(record_to_row(rec)) == [f.name for f in fields(PredictionRecord)][:-1]
        genread = replace(rec, mode="genread", retrieved_doc_id=None, retrieval_recall1=None,
                          genread_empty_context=True)
        assert record_to_row(genread)["genread_empty_context"] is True
        assert record_from_row(record_to_row(genread)) == genread

    def test_vanilla_with_retrieved_doc_rejected(self):
        with pytest.raises(ValidationError):
            PredictionRecord(
                question_id="q",
                mode="vanilla",
                prediction="x",
                correct=False,
                retrieved_doc_id="d1",
            )


class TestReport:
    def test_write_report_files(self, tmp_path):
        dataset = synthetic_examples(120, relations=("director", "genre"), seed=8)
        records = [record(ex.id, i % 2 == 0) for i, ex in enumerate(dataset)]
        report = evaluate_run(records, dataset, min_bin_n=5)
        path = write_report(report, tmp_path)
        assert path.exists()
        assert (tmp_path / "report_per_relation.csv").exists()
        assert (tmp_path / "report_bins.csv").exists()
        text = (tmp_path / "report_per_relation.csv").read_text()
        assert text.splitlines()[0] == "relation,n,accuracy,correlation"
        assert "director" in text

    def test_tables_match_the_json_and_empty_tables_keep_their_header(self, tmp_path):
        dataset = [make_example(i, popularity=10 ** (i % 4)) for i in range(4)]
        vanilla = [record(ex.id, i < 2) for i, ex in enumerate(dataset)]
        retrieval = [
            record(ex.id, i % 2 == 0, mode="retrieval", recall1=i == 0)
            for i, ex in enumerate(dataset)
        ]
        report = evaluate_run(vanilla, dataset)
        report.quadrants = quadrant_analysis(vanilla, retrieval, dataset)
        assert report.bins == []
        write_report(report, tmp_path)
        assert (tmp_path / "report_bins.csv").read_text() == (
            "center_log10_pop,n,accuracy,wilson_low,wilson_high\n"
        )
        assert (tmp_path / "report_per_relation.csv").read_text() == (
            "relation,n,accuracy,correlation\ndirector,4,0.5,-0.8944271909999159\n"
        )
        assert (tmp_path / "report_quadrants.csv").read_text() == (
            "lm_correct,retrieval_correct,fraction,mean_recall1,n\n"
            "True,True,0.25,1.0,1\n"
            "True,False,0.25,0.0,1\n"
            "False,True,0.25,0.0,1\n"
            "False,False,0.25,0.0,1\n"
        )
        payload = json.loads((tmp_path / "report.json").read_text())
        assert payload["per_relation"] == {
            "director": {"n": 4, "accuracy": 0.5, "correlation": -0.8944271909999159}
        }
        assert payload["bins"] == []
        assert payload["quadrants"]["lm_correct_retrieval_correct"] == {
            "fraction": 0.25, "mean_recall1": 1.0, "n": 1
        }
