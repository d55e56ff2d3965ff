from __future__ import annotations

import json
import struct
from pathlib import Path

import pytest

from popgate import adaptive as adaptive_mod
from popgate import dataset as dataset_mod
from popgate import lm as lm_mod
from popgate import retriever as retriever_mod
from popgate.cli import CONFIG_FLAGS, main
from popgate.dataset import read_dataset, write_dataset
from popgate.evaluation import PredictionRecord, write_records
from popgate.popularity import PageviewsClient
from popgate.retriever import INDEX_MAGIC, INDEX_VERSION
from popgate.util import write_jsonl

from conftest import synthetic_examples
from mockserver import pageviews_server


def run_cli(argv) -> int:
    try:
        return main([str(a) for a in argv])
    except SystemExit as exc:  # argparse usage errors
        return exc.code


def triples_rows(n: int, relation: str = "director"):
    return [
        {
            "subj_id": f"S{i:04d}",
            "subj": f"Widget{i:04d}",
            "subj_aliases": [f"Widget{i:04d}"],
            "relation": relation,
            "objects": [
                {"id": f"O{i:04d}", "label": f"Maker{i:04d}", "aliases": []}
            ],
        }
        for i in range(n)
    ]


class TestUsageErrors:
    def test_unknown_subcommand_exit_2(self, capsys):
        assert run_cli(["frobnicate"]) == 2

    def test_no_subcommand_exit_2(self):
        assert run_cli([]) == 2

    def test_missing_required_flag_exit_2(self):
        assert run_cli(["index"]) == 2


def one_question_dataset(tmp_path):
    path = tmp_path / "dataset.jsonl"
    write_jsonl(
        path,
        [
            {
                "id": "S0:director",
                "question": "Who was the director of X?",
                "answers": ["Y"],
                "subj": "X",
                "subj_id": "S0",
                "relation": "director",
                "popularity": 100,
            }
        ],
    )
    return path


def assert_one_line_error(capsys, *fragments):
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    for fragment in fragments:
        assert fragment in err, err


class TestRuntimeErrors:
    @pytest.mark.parametrize(
        "text", ['{"thresholds": {"director": 1.', '{"thresholds": {"director": "nan"}}']
    )
    def test_route_rejects_truncated_or_nan_policy(self, tmp_path, capsys, text):
        policy = tmp_path / "policy.json"
        policy.write_text(text)
        out = tmp_path / "decisions.jsonl"
        code = run_cli(
            ["route", "--dataset", one_question_dataset(tmp_path), "--policy", policy,
             "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, "policy.json")
        assert not out.exists()

    def test_report_rejects_two_runs_of_one_mode(self, tmp_path, capsys):
        run = tmp_path / "a.jsonl"
        write_records([PredictionRecord("S0:director", "vanilla", "Y", True)], run)
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--dataset", one_question_dataset(tmp_path), "--runs", run, run,
             "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, "vanilla")
        assert not out.exists()

    def test_report_rejects_run_file_mixing_modes(self, tmp_path, capsys):
        run = tmp_path / "mixed.jsonl"
        write_records(
            [
                PredictionRecord("S0:director", "vanilla", "Y", True),
                PredictionRecord("S0:director", "retrieval", "Y", True, retrieved_doc_id="d1"),
            ],
            run,
        )
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--dataset", one_question_dataset(tmp_path), "--runs", run, "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, "mixed.jsonl", "retrieval", "vanilla")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["tune", "report"])
    def test_non_boolean_correct_is_one_line_error(self, tmp_path, capsys, command):
        row = {"question_id": "S0:director", "mode": "vanilla", "prediction": "Y"}
        vanilla = tmp_path / "run_vanilla.jsonl"
        write_jsonl(vanilla, [{**row, "correct": "yes"}])
        retrieval = tmp_path / "run_retrieval.jsonl"
        write_jsonl(retrieval, [{**row, "mode": "retrieval", "correct": True}])
        dataset = one_question_dataset(tmp_path)
        out = tmp_path / "out"
        if command == "tune":
            argv = ["tune", "--dataset", dataset, "--vanilla", vanilla, "--retrieval", retrieval,
                    "--out", out]
        else:
            argv = ["report", "--dataset", dataset, "--runs", vanilla, retrieval, "--out", out]
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, "run_vanilla.jsonl:1", "'correct'", "'yes'")
        assert not out.exists()

    def test_index_rejects_non_finite_k1(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"doc_id": "d1", "title": "t", "text": "cat"}])
        out = tmp_path / "index.pgidx"
        assert run_cli(["index", "--corpus", corpus, "--k1", "nan", "--out", out]) == 1
        assert_one_line_error(capsys, "k1=nan")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ({"doc_id": 5, "title": "t", "text": "cat"}, "doc_id"),
            ({"doc_id": "d1", "title": None, "text": "cat"}, "title"),
            ({"doc_id": "d1", "title": "t", "text": 5}, "text"),
            (["d1", "t", "cat"], "object"),
        ],
    )
    def test_index_rejects_malformed_corpus_row(self, tmp_path, capsys, row, fragment):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            json.dumps({"doc_id": "d0", "title": "t", "text": "dog"}) + "\n" + json.dumps(row) + "\n"
        )
        out = tmp_path / "index.pgidx"
        assert run_cli(["index", "--corpus", corpus, "--out", out]) == 1
        assert_one_line_error(capsys, "corpus.jsonl:2: ", fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"answers": "Paris"}, "'answers'"),
            ({"popularity": "100"}, "'popularity'"),
            ({"popularity": True}, "'popularity'"),
            ({"id": 7}, "'id'"),
            (None, "not a JSON object"),
        ],
    )
    def test_run_rejects_malformed_dataset_row(self, tmp_path, capsys, change, fragment):
        good = json.loads(one_question_dataset(tmp_path).read_text())
        row = list(good.values()) if change is None else {**good, **change}
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text(json.dumps(row) + "\n")
        out = tmp_path / "run.jsonl"
        code = run_cli(
            ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", 0,
             "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, "dataset.jsonl:1:", fragment)
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ([1, 2], "triple row is not a JSON object"),
            ({"objects": "x"}, "field 'objects' is not a list of objects"),
            ({"objects": [{"id": 1, "label": "Maker"}]}, "field 'objects' is not a list of objects"),
            ({"objects": [{"id": "O1"}]}, "field 'objects' is not a list of objects"),
            ({"objects": [{"id": "O1", "label": "Maker", "aliases": "M"}]},
             "field 'objects' is not a list of objects"),
            ({"objects": ["O1"]}, "field 'objects' is not a list of objects"),
            ({"objects": []}, "no object labels"),
            ({"subj_aliases": "Jr"}, "field 'subj_aliases' is not a list of strings"),
            ({"subj_aliases": None}, "field 'subj_aliases' is not a list of strings"),
            ({"subj": 5}, "field 'subj' is not a string"),
            ({"relation": None}, "field 'relation' is not a string"),
            ({"subj_id": ...}, "missing key 'subj_id'"),
            ({"objects": ...}, "missing key 'objects'"),
        ],
    )
    def test_build_dataset_rejects_malformed_triple_row(self, tmp_path, capsys, row, fragment):
        if isinstance(row, dict):  # changes to a good row; ... drops the key
            row = {k: v for k, v in {**triples_rows(1)[0], **row}.items() if v is not ...}
        triples = tmp_path / "triples.jsonl"
        triples.write_text(json.dumps(row) + "\n" + json.dumps(triples_rows(2)[1]) + "\n")
        out = tmp_path / "dataset.jsonl"
        assert run_cli(["build-dataset", "--triples", triples, "--out", out]) == 1
        assert_one_line_error(capsys, "triples.jsonl:1:", fragment)
        assert not out.exists()

    @pytest.mark.parametrize("shots", [3, 16])
    def test_run_rejects_shots_other_than_0_or_15_on_16_relations(
        self, tmp_path, capsys, sixteen_relation_dataset, shots
    ):
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(sixteen_relation_dataset, dataset)
        out = tmp_path / "run.jsonl"
        code = run_cli(
            ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", shots,
             "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, f"shots={shots}")
        assert not out.exists()

    @pytest.mark.parametrize("shots", [0, 15])
    def test_run_accepts_0_or_15_shots_on_16_relations(
        self, tmp_path, sixteen_relation_dataset, shots
    ):
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(sixteen_relation_dataset, dataset)
        out = tmp_path / "run.jsonl"
        code = run_cli(
            ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", shots,
             "--out", out]
        )
        assert code == 0
        rows = [json.loads(line) for line in out.read_text().splitlines()]
        assert len(rows) == len(sixteen_relation_dataset)

    def test_route_rejects_a_repeated_question_id(self, tmp_path, capsys):
        dataset = one_question_dataset(tmp_path)
        dataset.write_text(dataset.read_text() * 2)
        out = tmp_path / "decisions.jsonl"
        policy = tmp_path / "policy.json"
        policy.write_text('{"thresholds": {"director": 2.0}}')
        assert run_cli(["route", "--dataset", dataset, "--policy", policy, "--out", out]) == 1
        assert_one_line_error(capsys, "dataset.jsonl:2: duplicate question id 'S0:director'")
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, fragment",
        [(["--parallelism", 0], "max_parallelism must be >= 1, got 0"),
         (["--cache", ""], "missing --cache")],
    )
    def test_fetch_popularity_rejects_bad_setting(self, tmp_path, capsys, flags, fragment):
        out = tmp_path / "out.jsonl"
        code = run_cli(
            ["fetch-popularity", "--dataset", one_question_dataset(tmp_path),
             "--cache", tmp_path / "cache", *flags, "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, fragment)
        assert not out.exists() and not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "text, fragment",
        [pytest.param('{"director": %s}' % ("9" * 5000), "Exceeds the limit (4300",
                      id="5000-digit-integer"),
         pytest.param('{"director": 5}', "templates file must be a JSON object of strings",
                      id="non-string-pattern")],
    )
    def test_build_dataset_rejects_bad_templates_file(self, tmp_path, capsys, text, fragment):
        bad, argv, out = reader_case(tmp_path, "templates")
        bad.write_text(text)
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{bad.name}: {fragment}")
        assert not out.exists()

    def test_report_missing_run_file_names_path(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(dataset, [])
        code = run_cli(
            ["report", "--dataset", dataset, "--runs", tmp_path / "nope.jsonl", "--out", tmp_path]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "nope.jsonl" in err

    def test_run_without_backend_is_runtime_error(self, tmp_path, capsys):
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(
            dataset,
            [
                {
                    "id": "S0:director",
                    "question": "Who was the director of X?",
                    "answers": ["Y"],
                    "subj": "X",
                    "subj_id": "S0",
                    "relation": "director",
                    "popularity": 100,
                }
            ],
        )
        code = run_cli(
            ["run", "--dataset", dataset, "--mode", "vanilla", "--out", tmp_path / "o.jsonl"]
        )
        assert code == 1
        assert "oracle" in capsys.readouterr().err


def eight_question_runs(tmp_path):
    """An 8-question dataset and vanilla/retrieval records for it (retrieval
    records carry no recall@1, so report computes no quadrant table)."""
    examples = synthetic_examples(8)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(examples, dataset)
    vanilla = [PredictionRecord(ex.id, "vanilla", "x", i < 2) for i, ex in enumerate(examples)]
    retrieval = [
        PredictionRecord(ex.id, "retrieval", "x", True, retrieved_doc_id="d") for ex in examples
    ]
    return dataset, vanilla, retrieval


class TestReportJoin:
    """`report` scores only runs holding one record per dataset question."""

    @pytest.mark.parametrize(
        "damage, fragment",
        [
            (lambda recs: recs + [recs[0]] * 40, "vanilla run has duplicate records"),
            (lambda recs: recs[:3], "vanilla run does not cover the dataset"),
        ],
        ids=["duplicated", "partial"],
    )
    def test_run_not_one_record_per_question(self, tmp_path, capsys, damage, fragment):
        dataset, vanilla, _ = eight_question_runs(tmp_path)
        run = tmp_path / "run_vanilla.jsonl"
        write_records(damage(vanilla), run)
        out = tmp_path / "report"
        assert run_cli(["report", "--dataset", dataset, "--runs", run, "--out", out]) == 1
        assert_one_line_error(capsys, fragment)
        assert not out.exists()

    def test_bad_second_run_leaves_no_report_files(self, tmp_path, capsys):
        dataset, vanilla, retrieval = eight_question_runs(tmp_path)
        runs = [tmp_path / "run_vanilla.jsonl", tmp_path / "run_retrieval.jsonl"]
        write_records(vanilla, runs[0])
        write_records(retrieval[1:], runs[1])
        out = tmp_path / "report"
        assert run_cli(["report", "--dataset", dataset, "--runs", *runs, "--out", out]) == 1
        assert_one_line_error(capsys, "retrieval run does not cover", "S00000")
        assert not out.exists()

    def test_whole_runs_in_any_order_are_scored(self, tmp_path):
        dataset, vanilla, retrieval = eight_question_runs(tmp_path)
        runs = [tmp_path / "run_vanilla.jsonl", tmp_path / "run_retrieval.jsonl"]
        write_records(vanilla[::-1], runs[0])
        write_records(retrieval, runs[1])
        out = tmp_path / "report"
        assert run_cli(["report", "--dataset", dataset, "--runs", *runs, "--out", out]) == 0
        report = json.loads((out / "report_vanilla.json").read_text())
        assert report["overall_accuracy"] == 0.25
        assert json.loads((out / "report_retrieval.json").read_text())["overall_accuracy"] == 1.0


def reader_case(tmp_path, name):
    """Good inputs under tmp_path; returns the file of kind `name`, an argv
    whose command reads it, and that command's output path."""
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(synthetic_examples(2), dataset)
    triples = tmp_path / "triples.jsonl"
    write_jsonl(triples, triples_rows(2))
    run = tmp_path / "run.jsonl"
    write_records(
        [PredictionRecord(ex.id, "vanilla", "x", True) for ex in synthetic_examples(2)], run
    )
    corpus = tmp_path / "corpus.jsonl"
    write_jsonl(corpus, [{"doc_id": f"d{i}", "title": "t", "text": "x"} for i in range(2)])
    policy = tmp_path / "policy.json"
    policy.write_text('{"thresholds": {}}')
    bad = {
        "dataset": dataset,
        "run": run,
        "corpus": corpus,
        "triples": triples,
        "config": tmp_path / "config.json",
        "templates": tmp_path / "templates.json",
        "freq-corpus": tmp_path / "freq.txt",
        "endpoint": tmp_path / "endpoint.json",
        "cost-model": tmp_path / "costs.json",
        "policy": tmp_path / "bad-policy.json",
        "index": tmp_path / "index.pgidx",
    }[name]
    out = tmp_path / "out"
    argv = {
        "dataset": ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle",
                    "--shots", 0, "--out", out],
        "run": ["report", "--dataset", dataset, "--runs", run, "--out", out],
        "corpus": ["index", "--corpus", corpus, "--out", out],
        "triples": ["build-dataset", "--triples", triples, "--out", out],
        "config": ["route", "--config", bad, "--dataset", dataset, "--policy", policy,
                   "--out", out],
        "templates": ["build-dataset", "--triples", triples, "--templates", bad,
                      "--out", out],
        "freq-corpus": ["build-dataset", "--triples", triples, "--freq-corpus", bad,
                        "--out", out],
        "endpoint": ["run", "--dataset", dataset, "--endpoint", bad, "--shots", 0,
                     "--out", out],
        "cost-model": ["savings", "--dataset", dataset, "--vanilla", run, "--retrieval", run,
                       "--policy", policy, "--cost-model", bad, "--out", out],
        "policy": ["route", "--dataset", dataset, "--policy", bad, "--out", out],
        "index": ["run", "--dataset", dataset, "--mode", "retrieval", "--oracle", "--shots", 0,
                  "--index", bad, "--out", out],
    }[name]
    return bad, argv, out


NOT_UTF8 = b"caf\xe9"


class TestNonUtf8Input:
    """A file that is not UTF-8 is a one-line error naming `path:line`."""

    @pytest.mark.parametrize(
        "name",
        ["dataset", "run", "corpus", "triples", "config", "templates", "freq-corpus",
         "endpoint", "cost-model", "policy"],
    )
    def test_one_line_error_naming_path_and_line(self, tmp_path, capsys, name):
        bad, argv, out = reader_case(tmp_path, name)
        # Line 1 stays readable; line 2 holds a byte that is not UTF-8.
        first = bad.read_bytes().splitlines(keepends=True)[0] if bad.exists() else b"{\n"
        bad.write_bytes(first + b'"' + NOT_UTF8 + b'": 1}\n')
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{bad.name}:2: not UTF-8 text")
        assert not out.exists()


class TestDeepNesting:
    """JSON nested deeper than the parser can follow is a one-line error
    naming the file, not a RecursionError traceback."""

    @pytest.mark.parametrize(
        "name",
        ["dataset", "run", "corpus", "triples", "config", "templates", "endpoint",
         "cost-model", "policy", "index"],
    )
    def test_one_line_error_naming_the_file(self, tmp_path, capsys, name):
        bad, argv, out = reader_case(tmp_path, name)
        deep = b"[" * 100_000 + b"]" * 100_000
        if name == "index":
            deep = INDEX_MAGIC + bytes([INDEX_VERSION]) + struct.pack("<Q", len(deep)) + deep
        bad.write_bytes(deep + b"\n")
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, bad.name)
        assert not out.exists()


@pytest.fixture(scope="module")
def demo_out(tmp_path_factory):
    """Dataset, runs and policy of a 64-question demo (seed 3); read only."""
    out = tmp_path_factory.mktemp("demo")
    assert run_cli(["demo", "--seed", 3, "--size", 64, "--repeats", 5, "--out", out]) == 0
    return out


def savings_argv(demo_out, out, vanilla=None, retrieval=None, *extra):
    return [
        "savings", "--dataset", demo_out / "dataset.jsonl",
        "--vanilla", vanilla or demo_out / "run_vanilla.jsonl",
        "--retrieval", retrieval or demo_out / "run_retrieval.jsonl",
        "--policy", demo_out / "policy.json", "--out", out, *extra,
    ]


@pytest.mark.parametrize("command", ["route", "savings"])
@pytest.mark.parametrize(
    "key, value", [("tuned_on", 5), ("tuned_on", None), ("retrieval_mode", ["x"]),
                   ("retrieval_mode", "vanilla")]
)
def test_policy_field_of_wrong_type_or_value_rejected(demo_out, tmp_path, capsys, command,
                                                      key, value):
    policy = json.loads((demo_out / "policy.json").read_text(encoding="utf-8"))
    policy[key] = value
    bad = tmp_path / "bad-policy.json"
    bad.write_text(json.dumps(policy), encoding="utf-8")
    out = tmp_path / "out"
    argv = savings_argv(demo_out, out) if command == "savings" else [
        "route", "--dataset", demo_out / "dataset.jsonl", "--policy", demo_out / "policy.json",
        "--out", out]
    argv[argv.index("--policy") + 1] = bad
    assert run_cli(argv) == 1
    assert_one_line_error(capsys, str(bad), f"'{key}'")
    assert not out.exists()


def tune_argv(demo_out, out, vanilla=None, retrieval=None):
    return [
        "tune", "--dataset", demo_out / "dataset.jsonl",
        "--vanilla", vanilla or demo_out / "run_vanilla.jsonl",
        "--retrieval", retrieval or demo_out / "run_retrieval.jsonl",
        "--repeats", 5, "--out", out,
    ]


ENDPOINT = '"base_url": "http://127.0.0.1:9", "model": "m"'


class TestBadSettingsFiles:
    """Config, endpoint and cost-model files are decoded against their
    dataclasses: a bad one is one `error:` line naming the file and the
    dotted key, and nothing is written."""

    @pytest.mark.parametrize(
        "kind, text, fragment",
        [
            ("cost-model", '{"base_url": ', "line 1, column 14"),
            ("cost-model", "[1]", "the file must be a JSON object, got [1]"),
            ("cost-model", '{"price_per_1k_prompt_tokens": "abc"}',
             "price_per_1k_prompt_tokens must be a number, got 'abc'"),
            ("cost-model", '{"price_per_1k_prompt_tokens": NaN}',
             "price_per_1k_prompt_tokens must be non-negative, got nan"),
            ("cost-model", '{"retrieval_latency_ms": "5"}',
             "retrieval_latency_ms must be an integer, got '5'"),
            ("endpoint", "[1]", "the file must be a JSON object, got [1]"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": "abc"}',
             "requests_per_second must be a number or null, got 'abc'"),
            ("endpoint", "{" + ENDPOINT + ', "max_tokens": "x"}',
             "max_tokens must be an integer, got 'x'"),
            ("endpoint", '{"base_url": 5, "model": "m"}', "base_url must be a string, got 5"),
            ("endpoint", "{" + ENDPOINT + ', "timeout_s": NaN}',
             "timeout_s must be finite and >= 0, got nan"),
            ("config", '{"run": {"shots": "x"}}', "run.shots must be an integer, got 'x'"),
            ("config", '{"run": {"seed": "abc"}}', "run.seed must be an integer, got 'abc'"),
            ("config", '{"oracle": {"a": null}}', "oracle.a must be a number, got None"),
            ("config", '{"run": {"shots": 1.7}}', "run.shots must be an integer, got 1.7"),
            ("config", '{"run": {"seed": true}}', "run.seed must be an integer, got True"),
            ("config", '{"paths": {"dataset": 5}}', "paths.dataset must be a string or null"),
            ("config", '{"genread_instruction": 7}', "genread_instruction must be a string"),
            ("config", '{"endpoint": [1]}', "endpoint must be a JSON object, got [1]"),
            ("config", '{"oracle": {"readout": 1.5}}', "oracle.readout must lie in [0, 1]"),
            pytest.param("config", '{"bm25": {"k1": %s}}' % ("9" * 400),
                         "bm25.k1 must be a number a float can hold, got an integer of 400 digits",
                         id="config-k1-400-digits"),
            pytest.param("config", '{"bm25": {"k1": %s}}' % ("9" * 5000),
                         "Exceeds the limit (4300",
                         id="config-k1-5000-digits"),
            ("endpoint", "{" + ENDPOINT + ', "max_retries": -1}', "max_retries must be >= 0, got -1"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": 0}',
             "requests_per_second must be null or finite and > 0, got 0"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": Infinity}',
             "requests_per_second must be null or finite and > 0, got inf"),
            ("config", '{"endpoint": {' + ENDPOINT + ', "max_retries": -2}}',
             "endpoint.max_retries must be >= 0, got -2"),
            ("endpoint", "{" + ENDPOINT + ', "max_parallelism": 0}',
             "max_parallelism must be >= 1, got 0"),
            ("config", '{"endpoint": {' + ENDPOINT + ', "cache_dir": ""}}',
             "endpoint.cache_dir must be a non-empty path or null"),
        ],
    )
    def test_one_line_error_and_no_output(self, demo_out, tmp_path, capsys, kind, text, fragment):
        bad = tmp_path / f"{kind}.json"
        bad.write_text(text)
        out = tmp_path / "out"
        dataset = demo_out / "dataset.jsonl"
        argv = {
            "cost-model": savings_argv(demo_out, out, None, None, "--cost-model", bad),
            "endpoint": ["run", "--dataset", dataset, "--endpoint", bad, "--shots", 0,
                         "--out", out],
            "config": ["run", "--config", bad, "--dataset", dataset, "--oracle", "--out", out],
        }[kind]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{bad.name}: {fragment}")
        assert not out.exists()

    def test_whole_number_cost_is_a_float(self, demo_out, tmp_path, capsys):
        outputs = []
        for price in ("2", "2.0"):
            costs = tmp_path / "costs.json"
            costs.write_text('{"price_per_1k_prompt_tokens": %s}' % price)
            out = tmp_path / f"savings-{price}.json"
            assert run_cli(savings_argv(demo_out, out, None, None, "--cost-model", costs)) == 0
            outputs.append(out.read_bytes())
        assert outputs[0] == outputs[1]


class Reached(Exception):
    """Raised in place of the library call that a resolved setting reaches."""


def reach(*args, **kwargs):
    raise Reached(args, kwargs)


def fallback_case(dest, argv, target, read, flag, configured, default):
    return pytest.param(dest, argv, target, read, flag, configured, default,
                        id=f"{dest}-{argv(Path(), Path())[0]}")


FALLBACK_CASES = [
    fallback_case("triples", lambda d, tmp: ["build-dataset", "--out", tmp / "out"],
                  (dataset_mod, "read_triples"), lambda a, k: a[0], "f.jsonl", "c.jsonl", None),
    fallback_case("dataset", lambda d, tmp: ["route", "--policy", "p.json", "--out", tmp / "out"],
                  (dataset_mod, "read_dataset"), lambda a, k: a[0], "f.jsonl", "c.jsonl", None),
    fallback_case("corpus", lambda d, tmp: ["index", "--out", tmp / "out"],
                  (retriever_mod, "read_corpus"), lambda a, k: a[0], "f.jsonl", "c.jsonl", None),
    fallback_case("index", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--mode",
                                           "retrieval", "--oracle", "--out", tmp / "out"],
                  (retriever_mod, "load_index"), lambda a, k: a[0], "f.pgidx", "c.pgidx", None),
    fallback_case("cache", lambda d, tmp: ["fetch-popularity", "--dataset", d / "dataset.jsonl",
                                           "--out", tmp / "out"],
                  (PageviewsClient, "annotate"), lambda a, k: str(a[0].config.cache_dir),
                  "f-cache", "c-cache", None),
    fallback_case("month", lambda d, tmp: ["fetch-popularity", "--dataset", d / "dataset.jsonl",
                                           "--cache", "pv", "--out", tmp / "out"],
                  (PageviewsClient, "annotate"), lambda a, k: a[2], "2021-01", "2020-05",
                  "2022-12"),
    fallback_case("mode", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                          "--out", tmp / "out"],
                  (lm_mod, "run_predictions"), lambda a, k: a[1], "vanilla", "retrieval",
                  "vanilla"),
    fallback_case("shots", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                           "--out", tmp / "out"],
                  (lm_mod, "run_predictions"), lambda a, k: k["shots"], 0, 2, 15),
    fallback_case("seed", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                          "--out", tmp / "out"],
                  (lm_mod, "run_predictions"), lambda a, k: k["rng_seed"], 3, 7, 0),
    fallback_case("seed", lambda d, tmp: ["build-dataset", "--triples", tmp / "triples.jsonl",
                                          "--out", tmp / "out"],
                  (dataset_mod, "sample_triples"), lambda a, k: k["rng_seed"], 3, 7, 0),
    fallback_case("seed", lambda d, tmp: tune_argv(d, tmp / "out"),
                  (adaptive_mod, "tune_thresholds"), lambda a, k: k["rng_seed"], 3, 7, 0),
    fallback_case("k1", lambda d, tmp: ["index", "--corpus", d / "corpus.jsonl",
                                        "--out", tmp / "out"],
                  (retriever_mod, "build_index"), lambda a, k: k["k1"], 0.5, 2.0, 1.2),
    fallback_case("b", lambda d, tmp: ["index", "--corpus", d / "corpus.jsonl",
                                       "--out", tmp / "out"],
                  (retriever_mod, "build_index"), lambda a, k: k["b"], 0.25, 0.5, 0.75),
]


class TestConfigFallback:
    """Each setting of CONFIG_FLAGS comes from its flag, else from the config
    file, else from the config section's default (none for a path)."""

    def test_cases_cover_the_table(self):
        assert {case.values[0] for case in FALLBACK_CASES} == set(CONFIG_FLAGS)

    @pytest.mark.parametrize(
        "dest, argv, target, read, flag, configured, default", FALLBACK_CASES
    )
    def test_flag_then_config_then_default(
        self, demo_out, tmp_path, monkeypatch, capsys, dest, argv, target, read, flag,
        configured, default,
    ):
        write_jsonl(tmp_path / "triples.jsonl", triples_rows(2))
        monkeypatch.setattr(*target, reach)
        section, key = CONFIG_FLAGS[dest]
        config = tmp_path / "config.json"
        config.write_text(json.dumps({section: {key: configured}}))

        def resolved(*flags):
            try:
                run_cli([*argv(demo_out, tmp_path), *flags])
            except Reached as call:
                return read(*call.args)
            return None

        assert resolved("--config", config, f"--{dest}", flag) == flag
        assert resolved("--config", config) == configured
        assert resolved() == default
        if default is None and dest != "index":  # only retrieval runs need an index
            assert f"error: missing --{dest} " in capsys.readouterr().err


class TestRunChecks:
    @pytest.mark.parametrize("argv", [tune_argv, savings_argv], ids=["tune", "savings"])
    @pytest.mark.parametrize(
        "vanilla, retrieval, fragment",
        [
            ("run_retrieval", "run_vanilla", "--vanilla {}run_retrieval.jsonl holds retrieval"),
            ("run_vanilla", "run_vanilla", "--retrieval {}run_vanilla.jsonl holds vanilla"),
        ],
        ids=["swapped", "two-vanilla"],
    )
    def test_run_of_the_wrong_mode_is_rejected(
        self, demo_out, tmp_path, capsys, argv, vanilla, retrieval, fragment
    ):
        out = tmp_path / "out"
        capsys.readouterr()
        code = run_cli(
            argv(demo_out, out, demo_out / f"{vanilla}.jsonl", demo_out / f"{retrieval}.jsonl")
        )
        assert code == 1
        assert_one_line_error(capsys, fragment.format(f"{demo_out}/"), "records")
        assert not out.exists()

    def test_genread_run_passes_for_retrieval(self, demo_out, tmp_path):
        rows = [
            {**json.loads(line), "mode": "genread"}
            for line in (demo_out / "run_retrieval.jsonl").read_text().splitlines()
        ]
        genread = tmp_path / "run_genread.jsonl"
        write_jsonl(genread, rows)
        assert run_cli(tune_argv(demo_out, tmp_path / "policy.json", None, genread)) == 0

    @pytest.mark.parametrize(
        "command, mode, key, value",
        [
            ("report", "vanilla", "prompt_tokens", "5"),
            ("savings", "vanilla", "prompt_tokens", "5"),
            ("report", "retrieval", "retrieval_recall1", "yes"),
            ("savings", "vanilla", "latency_ms", True),
            ("tune", "retrieval", "completion_tokens", -1),
            ("tune", "vanilla", "question_id", 7),
            ("report", "vanilla", "prediction", None),
            ("report", "retrieval", "genread_empty_context", 0),
        ],
    )
    def test_bad_field_type_in_run_row(self, demo_out, tmp_path, capsys, command, mode, key, value):
        text = (demo_out / f"run_{mode}.jsonl").read_text()
        rows = [json.loads(line) for line in text.splitlines()]
        rows[0][key] = value
        run = tmp_path / f"run_{mode}.jsonl"
        write_jsonl(run, rows)
        out = tmp_path / "out"
        runs = {"vanilla": None, "retrieval": None, mode: run}
        argv = {
            "report": ["report", "--dataset", demo_out / "dataset.jsonl", "--runs",
                       runs["vanilla"] or demo_out / "run_vanilla.jsonl",
                       runs["retrieval"] or demo_out / "run_retrieval.jsonl", "--out", out],
            "tune": tune_argv(demo_out, out, runs["vanilla"], runs["retrieval"]),
            "savings": savings_argv(demo_out, out, runs["vanilla"], runs["retrieval"]),
        }[command]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{run.name}:1: ", f"field {key!r} must be", repr(value))
        assert not out.exists()


class TestPipeline:
    def test_full_cli_pipeline(self, tmp_path, capsys):
        triples = tmp_path / "triples.jsonl"
        write_jsonl(triples, triples_rows(30, "director") + triples_rows(30, "genre"))

        dataset = tmp_path / "dataset.jsonl"
        assert (
            run_cli(
                [
                    "build-dataset",
                    "--triples", triples,
                    "--cap", 100,
                    "--seed", 3,
                    "--out", dataset,
                ]
            )
            == 0
        )
        examples = read_dataset(dataset)
        assert len(examples) == 60
        assert examples[0].popularity is None

        # genre rows reuse the director subjects, so dedup must NOT collapse
        # across relations
        assert {ex.relation_type for ex in examples} == {"director", "genre"}

        views = {ex.subject_label: (i + 1) * 37 for i, ex in enumerate(examples)}
        annotated = tmp_path / "dataset_pop.jsonl"
        with pageviews_server(views) as server:
            assert (
                run_cli(
                    [
                        "fetch-popularity",
                        "--dataset", dataset,
                        "--month", "2022-12",
                        "--cache", tmp_path / "pv-cache",
                        "--endpoint", server.base_url,
                        "--out", annotated,
                    ]
                )
                == 0
            )
        enriched = read_dataset(annotated)
        assert all(ex.popularity and ex.popularity > 0 for ex in enriched)

        corpus = tmp_path / "corpus.jsonl"
        docs = {
            ex.subject_id: {
                "doc_id": f"D{ex.subject_id}",
                "title": ex.subject_label,
                "text": f"{ex.subject_label} was made by Maker{ex.subject_id[1:]}.",
            }
            for ex in enriched
        }
        write_jsonl(corpus, docs.values())
        index = tmp_path / "corpus.pgidx"
        assert run_cli(["index", "--corpus", corpus, "--out", index]) == 0

        run_vanilla = tmp_path / "run_vanilla.jsonl"
        run_retrieval = tmp_path / "run_retrieval.jsonl"
        for mode, out, extra in (
            ("vanilla", run_vanilla, []),
            ("retrieval", run_retrieval, ["--index", index]),
        ):
            assert (
                run_cli(
                    [
                        "run",
                        "--dataset", annotated,
                        "--mode", mode,
                        "--oracle",
                        "--shots", 0,
                        "--seed", 11,
                        "--out", out,
                        *extra,
                    ]
                )
                == 0
            )

        report_dir = tmp_path / "report"
        assert (
            run_cli(
                [
                    "report",
                    "--dataset", annotated,
                    "--runs", run_vanilla, run_retrieval,
                    "--min-bin-n", 1,
                    "--out", report_dir,
                ]
            )
            == 0
        )
        assert (report_dir / "report_vanilla.json").exists()
        assert (report_dir / "report_retrieval.json").exists()
        assert (report_dir / "report_retrieval_quadrants.csv").exists()

        policy = tmp_path / "policy.json"
        assert (
            run_cli(
                [
                    "tune",
                    "--dataset", annotated,
                    "--vanilla", run_vanilla,
                    "--retrieval", run_retrieval,
                    "--split", 0.75,
                    "--repeats", 10,
                    "--seed", 2,
                    "--out", policy,
                ]
            )
            == 0
        )
        tune_stdout = capsys.readouterr().out
        assert "mean_test_adaptive_accuracy" in tune_stdout

        decisions = tmp_path / "decisions.jsonl"
        assert (
            run_cli(["route", "--dataset", annotated, "--policy", policy, "--out", decisions])
            == 0
        )
        lines = decisions.read_text().strip().splitlines()
        assert len(lines) == 60
        assert all(json.loads(l)["decision"] in ("retrieve", "parametric") for l in lines)

        savings_out = tmp_path / "savings.json"
        assert (
            run_cli(
                [
                    "savings",
                    "--dataset", annotated,
                    "--vanilla", run_vanilla,
                    "--retrieval", run_retrieval,
                    "--policy", policy,
                    "--out", savings_out,
                ]
            )
            == 0
        )
        savings = json.loads(savings_out.read_text())
        assert 0.0 <= savings["savings_fraction"] <= 1.0
        assert savings["latency_estimates"]["adaptive_ms"] >= 0

    def test_inputs_never_mutated(self, tmp_path):
        triples = tmp_path / "triples.jsonl"
        write_jsonl(triples, triples_rows(10))
        before = triples.read_bytes()
        out = tmp_path / "dataset.jsonl"
        assert run_cli(["build-dataset", "--triples", triples, "--seed", 0, "--out", out]) == 0
        assert triples.read_bytes() == before

    def test_build_dataset_idempotent(self, tmp_path):
        triples = tmp_path / "triples.jsonl"
        write_jsonl(triples, triples_rows(40))
        out_a = tmp_path / "a.jsonl"
        out_b = tmp_path / "b.jsonl"
        freq = tmp_path / "freq.txt"
        freq.write_text("Widget0001 " * 3 + "Widget0002 " * 40)
        for out in (out_a, out_b):
            assert (
                run_cli(
                    [
                        "build-dataset",
                        "--triples", triples,
                        "--freq-corpus", freq,
                        "--seed", 5,
                        "--out", out,
                    ]
                )
                == 0
            )
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_run_genread_via_endpoint_config(self, tmp_path):
        from mockserver import completions_server
        from popgate.evaluation import read_records

        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(
            dataset,
            [
                {
                    "id": f"S{i}:capital",
                    "question": f"What is the capital of Land{i}?",
                    "answers": [f"City{i}"],
                    "subj": f"Land{i}",
                    "subj_id": f"S{i}",
                    "relation": "capital",
                    "popularity": 1000,
                }
                for i in range(3)
            ],
        )

        def reply(prompt):
            land = prompt.rsplit("Land", 1)[1].split("?", 1)[0].rstrip(".")
            if prompt.startswith("Generate"):
                return f"Land{land} is a country whose capital is City{land}."
            return f"The capital is City{land}."

        with completions_server(reply) as server:
            endpoint = tmp_path / "endpoint.json"
            endpoint.write_text(
                json.dumps(
                    {
                        "base_url": server.base_url,
                        "model": "mock",
                        "cache_dir": str(tmp_path / "lm-cache"),
                    }
                )
            )
            out = tmp_path / "run_genread.jsonl"
            code = run_cli(
                [
                    "run",
                    "--dataset", dataset,
                    "--mode", "genread",
                    "--endpoint", endpoint,
                    "--shots", 0,
                    "--out", out,
                ]
            )
            assert code == 0
            stage1_prompts = [
                r["body"]["prompt"] for r in server.requests if r["body"]["prompt"].startswith("Generate")
            ]
            assert len(stage1_prompts) == 3
        records = read_records(out)
        assert all(r.mode == "genread" for r in records)
        assert all(r.correct for r in records)
        assert all(r.genread_empty_context is False for r in records)

    def test_config_paths_fallback_and_flag_override(self, tmp_path):
        def dataset_rows(n, prefix):
            return [
                {
                    "id": f"{prefix}{i}:director",
                    "question": f"Who was the director of {prefix}{i}?",
                    "answers": [f"Maker{i}"],
                    "subj": f"{prefix}{i}",
                    "subj_id": f"{prefix}{i}",
                    "relation": "director",
                    "popularity": 1000,
                }
                for i in range(n)
            ]

        small = tmp_path / "small.jsonl"
        big = tmp_path / "big.jsonl"
        write_jsonl(small, dataset_rows(2, "A"))
        write_jsonl(big, dataset_rows(5, "B"))
        config = tmp_path / "config.json"
        config.write_text(
            json.dumps(
                {
                    "paths": {"dataset": str(small)},
                    "run": {"mode": "vanilla", "shots": 0, "seed": 1},
                }
            )
        )

        out_a = tmp_path / "a.jsonl"
        assert run_cli(["run", "--config", config, "--oracle", "--out", out_a]) == 0
        assert len(out_a.read_text().strip().splitlines()) == 2

        out_b = tmp_path / "b.jsonl"
        assert (
            run_cli(
                ["run", "--config", config, "--dataset", big, "--oracle", "--out", out_b]
            )
            == 0
        )
        assert len(out_b.read_text().strip().splitlines()) == 5  # flag wins

    def test_index_idempotent(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(
            corpus,
            [{"doc_id": f"d{i}", "title": f"T{i}", "text": f"token{i} shared"} for i in range(5)],
        )
        out_a = tmp_path / "a.pgidx"
        out_b = tmp_path / "b.pgidx"
        for out in (out_a, out_b):
            assert run_cli(["index", "--corpus", corpus, "--out", out]) == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_demo_small(self, tmp_path, capsys):
        out = tmp_path / "demo"
        assert (
            run_cli(["demo", "--seed", 7, "--size", 200, "--repeats", 10, "--out", out]) == 0
        )
        captured = capsys.readouterr()
        report = json.loads(captured.out)
        assert report["adaptive"]["mean_test_adaptive_accuracy"] >= max(
            report["baselines"].values()
        )
        for artifact in (
            "dataset.jsonl",
            "corpus.jsonl",
            "index.pgidx",
            "run_vanilla.jsonl",
            "run_retrieval.jsonl",
            "policy.json",
            "report.json",
        ):
            assert (out / artifact).exists()
