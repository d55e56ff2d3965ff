from __future__ import annotations

import errno
import json
import os
import struct
from dataclasses import replace
from pathlib import Path

import pytest

from popgate import adaptive as adaptive_mod
from popgate import dataset as dataset_mod
from popgate import lm as lm_mod
from popgate import retriever as retriever_mod
from popgate.cli import main
from popgate.dataset import read_dataset, write_dataset
from popgate.evaluation import PredictionRecord, read_records, write_records
from popgate.popularity import PageviewsClient
from popgate.retriever import INDEX_MAGIC, INDEX_VERSION
from popgate.util import write_jsonl

from conftest import synthetic_examples
from mockserver import MockServer, pageviews_server


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

    def test_unknown_mode_exit_2(self, tmp_path):
        out = tmp_path / "run.jsonl"
        argv = ["run", "--dataset", "d.jsonl", "--oracle", "--mode", "telepathy", "--out", out]
        assert run_cli(argv) == 2
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv",
        [["build-dataset", "--triples", "t.jsonl", "--seed", "abc"],
         ["run", "--dataset", "d.jsonl", "--oracle", "--seed", "true"],
         ["run", "--dataset", "d.jsonl", "--oracle", "--shots", "1.7"],
         ["index", "--corpus", "c.jsonl", "--k1", "abc"],
         ["index", "--corpus", "c.jsonl", "--b", "x"]],
        ids=["seed-abc", "seed-true", "shots-1.7", "k1-abc", "b-x"],
    )
    def test_flag_of_the_wrong_type_exit_2(self, tmp_path, argv):
        out = tmp_path / "out"
        assert run_cli([*argv, "--out", out]) == 2
        assert not out.exists()


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
        "text",
        ['{"thresholds": {"director": 1.', '{"thresholds": {"director": "nan"}}',
         '{"thresholds": {"director": "2.5"}}',
         pytest.param('{"thresholds": {"director": %s}}' % ("9" * 401), id="401-digits")],
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

    def test_report_rejects_negative_min_bin_n(self, tmp_path, capsys):
        run = tmp_path / "a.jsonl"
        write_records([PredictionRecord("S0:director", "vanilla", "Y", True)], run)
        out = tmp_path / "report"
        code = run_cli(
            ["report", "--dataset", one_question_dataset(tmp_path), "--runs", run,
             "--min-bin-n", -7, "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, "min_bin_n must be a non-negative integer, got -7")
        assert not out.exists()

    @pytest.mark.parametrize("size", [0, -3])
    def test_demo_rejects_size_below_one(self, tmp_path, capsys, size):
        out = tmp_path / "demo"
        assert run_cli(["demo", "--seed", 5, "--size", size, "--out", out]) == 1
        assert_one_line_error(capsys, f"size must be >= 1, got {size}")
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
        assert_one_line_error(
            capsys, "run_vanilla.jsonl:1", "correct must be true or false, got 'yes'"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flag, value",
        [("--k1", "nan"), ("--k1", "inf"), ("--k1", "-1.0"), ("--b", "1.5"), ("--b", "nan"),
         ("--b", "-0.1")],
    )
    def test_index_rejects_bm25_parameter_out_of_range(self, tmp_path, capsys, flag, value):
        corpus = tmp_path / "corpus.jsonl"
        write_jsonl(corpus, [{"doc_id": "d1", "title": "t", "text": "cat"}])
        out = tmp_path / "index.pgidx"
        assert run_cli(["index", "--corpus", corpus, flag, value, "--out", out]) == 1
        rule = {"--k1": "k1 must be finite and >= 0", "--b": "b must be in [0, 1]"}[flag]
        assert_one_line_error(capsys, f"error: {rule}, got {value}\n")
        assert not out.exists()

    @pytest.mark.parametrize(
        "row, fragment",
        [
            ({"doc_id": 5, "title": "t", "text": "cat"}, "doc_id"),
            ({"doc_id": "d1", "title": None, "text": "cat"}, "title"),
            ({"doc_id": "d1", "title": "t", "text": 5}, "text"),
            (["d1", "t", "cat"], "object"),
            ({"doc_id": "d1", "title": "t", "text": "cat", "txt": "y"},
             "corpus row has unknown key 'txt'"),
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
            ({"answers": "Paris"}, "answers must be a list of strings, got 'Paris'"),
            ({"popularity": "100"}, "popularity must be an integer or null, got '100'"),
            ({"popularity": True}, "popularity must be an integer or null, got True"),
            ({"id": 7}, "id must be a string, got 7"),
            ({"populrity": 5}, "dataset row has unknown key 'populrity'"),
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
            ({"objects": "x"}, "objects must be a list of objects, got 'x'"),
            ({"objects": [{"id": 1, "label": "Maker"}]}, "id must be a string, got 1"),
            ({"objects": [{"id": "O1"}]}, "triple object missing key 'label'"),
            ({"objects": [{"label": "Maker"}]}, "triple object missing key 'id'"),
            ({"objects": [{"id": "O1", "label": "Maker", "aliases": "M"}]},
             "aliases must be a list of strings, got 'M'"),
            ({"objects": ["O1"]}, "objects must be a list of objects, got ['O1']"),
            ({"objects": []}, "no object labels"),
            ({"subj_aliases": "Jr"}, "subj_aliases must be a list of strings, got 'Jr'"),
            ({"subj_aliases": None}, "subj_aliases must be a list of strings, got None"),
            ({"subj": 5}, "subj must be a string, got 5"),
            ({"relation": None}, "relation must be a string, got None"),
            ({"subj_alias": ["Jr"]}, "triple row has unknown key 'subj_alias'"),
            ({"objects": [{"id": "O1", "label": "Maker", "alias": ["M"]}]},
             "triple object has unknown key 'alias'"),
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

    @pytest.mark.parametrize(
        "shots, fragment",
        [(3, "shots=3"), (16, "shots=16"), (-1, "shots must be non-negative")],
    )
    def test_run_rejects_shots_other_than_0_or_15_on_16_relations(
        self, tmp_path, capsys, sixteen_relation_dataset, shots, fragment
    ):
        dataset = tmp_path / "dataset.jsonl"
        write_dataset(sixteen_relation_dataset, dataset)
        out = tmp_path / "run.jsonl"
        code = run_cli(
            ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", shots,
             "--out", out]
        )
        assert code == 1
        assert_one_line_error(capsys, fragment)
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
        "command, argv, fragment",
        [
            ("run", ["--mode", "vanilla", "--oracle", "--shots", 0],
             "cannot compute accuracy of an empty record set"),
            ("route", ["--policy", "policy.json"],
             "cannot compute retrieval fraction of an empty dataset"),
            ("fetch-popularity", ["--month", "2022-13", "--cache", "pv"],
             "month must be YYYY-MM, got '2022-13'"),
            # An empty path names no file; the error shows it as ''.
            ("route", ["--policy", "policy.json", "--dataset", ""],
             f"error: {os.strerror(errno.ENOENT)}: ''\n"),
        ],
    )
    def test_empty_dataset_leaves_no_output(self, tmp_path, capsys, monkeypatch, command, argv,
                                            fragment):
        monkeypatch.chdir(tmp_path)
        Path("dataset.jsonl").write_text("")
        Path("policy.json").write_text('{"thresholds": {"director": 2.0}}')
        assert run_cli([command, "--dataset", "dataset.jsonl", *argv, "--out", "out.jsonl"]) == 1
        assert_one_line_error(capsys, fragment)
        assert not Path("out.jsonl").exists()

    @pytest.mark.parametrize(
        "flags, fragment",
        [(["--parallelism", 0], "max_parallelism must be >= 1, got 0"),
         (["--cache", ""], "cache_dir must be a non-empty path or null"),
         (["--month", "2022-13"], "month must be YYYY-MM, got '2022-13'"),
         (["--month", "2022-12\n"], "month must be YYYY-MM, got '2022-12\\n'"),
         (["--month", "7"], "month must be YYYY-MM, got '7'")],
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
        "body, fragment",
        [(b'{"choices": [{"text": "ok"}], "usage": {"prompt_tokens": "abc"}}',
          "usage.prompt_tokens 'abc', not a count"),
         (b'{"choices": [{"text": "ok"}], "usage": {"prompt_tokens": null}}',
          "usage.prompt_tokens None, not a count"),
         (b'{"choices": [{"text": "ok"}], "usage": [1]}', "usage [1], not an object"),
         (b'{"choices": [{"text": "ok"}], "usage": {"prompt_tokens": 1e400}}',
          "usage.prompt_tokens inf, not a count")],
    )
    def test_run_rejects_malformed_completion_body(self, tmp_path, capsys, body, fragment):
        out, cache = tmp_path / "run.jsonl", tmp_path / "cache"
        with MockServer(lambda method, path, _body: (200, body)) as server:
            endpoint = tmp_path / "endpoint.json"
            endpoint.write_text(json.dumps(
                {"base_url": server.base_url, "model": "m", "cache_dir": str(cache)}
            ))
            code = run_cli(["run", "--dataset", one_question_dataset(tmp_path), "--endpoint",
                            endpoint, "--shots", 0, "--out", out])
        assert code == 1
        assert_one_line_error(capsys, fragment)
        assert not out.exists() and not cache.exists()

    @pytest.mark.parametrize(
        "body, fragment",
        [(b'{"items": [{"views": 1e400}]}', "views inf"),
         (b'{"items": [{"views": true}]}', "views True")],
    )
    def test_fetch_popularity_rejects_malformed_payload(self, tmp_path, capsys, body, fragment):
        out, cache = tmp_path / "out.jsonl", tmp_path / "cache"
        with MockServer(lambda method, path, _body: (200, body)) as server:
            code = run_cli(["fetch-popularity", "--dataset", one_question_dataset(tmp_path),
                            "--cache", cache, "--endpoint", server.base_url, "--out", out])
        assert code == 1
        assert_one_line_error(capsys, "unexpected pageviews payload", fragment)
        assert not out.exists() and not cache.exists()

    def test_fetch_popularity_without_any_article_is_one_line_error(self, tmp_path, capsys):
        out = tmp_path / "out.jsonl"
        with pageviews_server({}) as server:
            code = run_cli(["fetch-popularity", "--dataset", one_question_dataset(tmp_path),
                            "--cache", tmp_path / "cache", "--endpoint", server.base_url,
                            "--out", out])
        assert code == 1
        assert_one_line_error(capsys, "1 of 1 titles have no page-view article")
        assert not out.exists()

    @pytest.mark.parametrize(
        "url, fragment",
        [("http://[::1", "base_url 'http://[::1': Invalid IPv6 URL"),
         ("http://x:99999", "base_url 'http://x:99999': Port out of range 0-65535"),
         ("http:///api", "base_url must be http(s)://host[:port][/path], got 'http:///api'")],
    )
    def test_fetch_popularity_rejects_bad_endpoint_url(self, tmp_path, capsys, url, fragment):
        out, cache = tmp_path / "out.jsonl", tmp_path / "cache"
        capsys.readouterr()
        code = run_cli(["fetch-popularity", "--dataset", one_question_dataset(tmp_path),
                        "--cache", cache, "--endpoint", url, "--out", out])
        assert code == 1
        assert_one_line_error(capsys, fragment)
        assert not out.exists() and not cache.exists()

    def test_run_through_a_bad_proxy_url_is_one_line_error(self, tmp_path, capsys, monkeypatch):
        for name in ("no_proxy", "NO_PROXY", "HTTP_PROXY"):
            monkeypatch.delenv(name, raising=False)
        monkeypatch.setenv("http_proxy", "http://proxy:99999")
        out, cache = tmp_path / "run.jsonl", tmp_path / "cache"
        endpoint = tmp_path / "endpoint.json"
        endpoint.write_text(json.dumps(
            {"base_url": "http://completions.invalid/v1", "model": "m", "cache_dir": str(cache)}
        ))
        capsys.readouterr()
        code = run_cli(["run", "--dataset", one_question_dataset(tmp_path), "--endpoint",
                        endpoint, "--shots", 0, "--out", out])
        assert code == 1
        assert_one_line_error(capsys, "bad http_proxy 'http://proxy:99999': Port out of range")
        assert not out.exists() and not cache.exists()

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

    @pytest.mark.parametrize("mode", ["vanilla", "retrieval"])
    def test_run_without_backend_is_runtime_error(self, tmp_path, capsys, mode):
        """Checked before the inputs are read: the retrieval case's index is
        truncated before its header length."""
        index = tmp_path / "index.bin"
        index.write_bytes(b"PGIDX\x02")
        out = tmp_path / "o.jsonl"
        code = run_cli(["run", "--dataset", one_question_dataset(tmp_path), "--mode", mode,
                        "--index", index, "--out", out])
        assert code == 1
        assert_one_line_error(capsys, "run needs --endpoint CFG or --oracle")
        assert not out.exists()


def eight_question_runs(tmp_path):
    """An 8-question dataset and vanilla/retrieval records for it (retrieval
    records carry no recall@1, so report computes no quadrant table). Two
    vanilla predictions and every retrieval one name the gold answer."""
    examples = synthetic_examples(8)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(examples, dataset)
    golds = [min(ex.gold_answers) for ex in examples]
    vanilla = [
        PredictionRecord(ex.id, "vanilla", gold if i < 2 else "x", i < 2)
        for i, (ex, gold) in enumerate(zip(examples, golds))
    ]
    retrieval = [
        PredictionRecord(ex.id, "retrieval", gold, True, retrieved_doc_id="d")
        for ex, gold in zip(examples, golds)
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

    def test_join_error_comes_before_a_flipped_flag(self, tmp_path, capsys):
        dataset, vanilla, _ = eight_question_runs(tmp_path)
        run = tmp_path / "run_vanilla.jsonl"
        write_records([replace(vanilla[0], correct=False), *vanilla[1:3]], run)
        out = tmp_path / "report"
        assert run_cli(["report", "--dataset", dataset, "--runs", run, "--out", out]) == 1
        assert_one_line_error(capsys, "vanilla run does not cover the dataset")
        assert not out.exists()


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
        ["dataset", "run", "corpus", "triples", "templates", "freq-corpus", "endpoint",
         "cost-model", "policy"],
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
        ["dataset", "run", "corpus", "triples", "templates", "endpoint", "cost-model",
         "policy", "index"],
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


# A retrieval run's row relabelled as a genread run's: no retrieved passage.
AS_GENREAD = {"mode": "genread", "retrieved_doc_id": None, "retrieval_recall1": None}


def savings_argv(demo_out, out, vanilla=None, retrieval=None, *extra):
    return [
        "savings", "--dataset", demo_out / "dataset.jsonl",
        "--vanilla", vanilla or demo_out / "run_vanilla.jsonl",
        "--retrieval", retrieval or demo_out / "run_retrieval.jsonl",
        "--policy", demo_out / "policy.json", "--out", out, *extra,
    ]


@pytest.mark.parametrize("command", ["route", "savings"])
@pytest.mark.parametrize(
    "key, value, fragment",
    [("tuned_on", 5, "tuned_on must be a string, got 5"),
     ("tuned_on", None, "tuned_on must be a string, got None"),
     ("retrieval_mode", ["x"], "retrieval_mode must be a string, got ['x']"),
     ("retrieval_mode", "vanilla", "'retrieval_mode' is 'vanilla'"),
     ("retrieval_mod", "genread", "policy file has unknown key 'retrieval_mod'")]
)
def test_policy_field_of_wrong_type_or_value_rejected(demo_out, tmp_path, capsys, command,
                                                      key, value, fragment):
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
    assert_one_line_error(capsys, str(bad), fragment)
    assert not out.exists()


def test_savings_warns_when_scoring_the_tuning_dataset(demo_out, tmp_path, capsys, caplog):
    """The demo's policy was tuned on its dataset: `savings` warns once that
    its figures are in-sample, `route` never does, and the warning changes
    neither the output file nor stdout."""
    policy = json.loads((demo_out / "policy.json").read_text(encoding="utf-8"))
    elsewhere = tmp_path / "elsewhere-policy.json"
    elsewhere.write_text(json.dumps({**policy, "tuned_on": "0" * 64}), encoding="utf-8")
    route = ["route", "--dataset", demo_out / "dataset.jsonl", "--policy", demo_out / "policy.json",
             "--out", tmp_path / "decisions.jsonl"]
    outputs = []
    for name, argv, warnings in [
        ("in-sample", savings_argv(demo_out, tmp_path / "in-sample.json"), 1),
        ("elsewhere", savings_argv(demo_out, tmp_path / "elsewhere.json"), 0),
        ("route", route, 0),
    ]:
        if name == "elsewhere":
            argv[argv.index("--policy") + 1] = elsewhere
        caplog.clear()
        capsys.readouterr()
        assert run_cli(argv) == 0
        in_sample = [r for r in caplog.records if "in-sample" in r.getMessage()]
        assert len(in_sample) == warnings, name
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1]
    assert (tmp_path / "in-sample.json").read_bytes() == (tmp_path / "elsewhere.json").read_bytes()


@pytest.mark.parametrize("length, code", [(240, 0), (300, 1)])
def test_artifact_name_length(demo_out, tmp_path, capsys, length, code):
    """Any name the directory takes can be written; one it refuses is one
    `error:` line naming the artifact."""
    out = tmp_path / "o" / ("a" * length + ".jsonl")
    argv = ["route", "--dataset", demo_out / "dataset.jsonl", "--policy", demo_out / "policy.json",
            "--out", out]
    capsys.readouterr()
    assert run_cli(argv) == code
    if code:
        assert_one_line_error(capsys, f"error: {os.strerror(errno.ENAMETOOLONG)}: {out}")
    assert [p.name for p in out.parent.iterdir()] == ([out.name] if code == 0 else [])


def tune_argv(demo_out, out, vanilla=None, retrieval=None):
    return [
        "tune", "--dataset", demo_out / "dataset.jsonl",
        "--vanilla", vanilla or demo_out / "run_vanilla.jsonl",
        "--retrieval", retrieval or demo_out / "run_retrieval.jsonl",
        "--repeats", 5, "--out", out,
    ]


def with_flags_flipped(source, target, count: int) -> list[str]:
    """`source`'s run written to `target` with the `correct` flag of its first
    `count` records that hold true set to false; returns their question ids."""
    records = read_records(source)
    flipped = [r.question_id for r in records if r.correct][:count]
    write_records(
        [replace(r, correct=False) if r.question_id in flipped else r for r in records], target
    )
    return flipped


def test_reused_report_out_keeps_no_stale_quadrants_table(demo_out, tmp_path):
    """A report without quadrants removes its own stem's quadrants table from
    a reused --out; the files of other stems stay."""
    out = tmp_path / "r"
    runs = [demo_out / "run_vanilla.jsonl", demo_out / "run_retrieval.jsonl"]
    argv = ["report", "--dataset", demo_out / "dataset.jsonl", "--out", out, "--runs"]
    assert run_cli([*argv, *runs]) == 0
    assert (out / "report_vanilla_quadrants.csv").exists()
    assert run_cli([*argv, runs[0]]) == 0
    assert json.loads((out / "report_vanilla.json").read_text())["quadrants"] is None
    assert not (out / "report_vanilla_quadrants.csv").exists()
    assert (out / "report_retrieval_quadrants.csv").exists()


class TestRescoredRuns:
    """`report`, `tune` and `savings` check each run's `correct` flags against
    the dataset they read it with."""

    def test_forty_flipped_flags_in_a_demo_run(self, tmp_path, capsys):
        demo = tmp_path / "demo"
        assert run_cli(["demo", "--seed", 5, "--size", 400, "--repeats", 5, "--out", demo]) == 0
        run = tmp_path / "run_vanilla.jsonl"
        assert len(with_flags_flipped(demo / "run_vanilla.jsonl", run, 40)) == 40
        out = tmp_path / "report"
        capsys.readouterr()
        assert run_cli(["report", "--dataset", demo / "dataset.jsonl", "--runs", run,
                        "--out", out]) == 1
        assert_one_line_error(capsys, f"error: {run}: record ",
                              "has correct False, but its prediction scores True")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["report", "tune", "savings"])
    def test_one_flipped_flag(self, demo_out, tmp_path, capsys, command):
        run = tmp_path / "run_retrieval.jsonl"
        (question_id,) = with_flags_flipped(demo_out / "run_retrieval.jsonl", run, 1)
        out = tmp_path / "out"
        argv = {
            "report": ["report", "--dataset", demo_out / "dataset.jsonl",
                       "--runs", demo_out / "run_vanilla.jsonl", run, "--out", out],
            "tune": tune_argv(demo_out, out, retrieval=run),
            "savings": savings_argv(demo_out, out, None, run),
        }[command]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"error: {run}: record {question_id!r} has correct False, "
                                      "but its prediction scores True against the dataset")
        assert not out.exists()


ENDPOINT = '"base_url": "http://127.0.0.1:9", "model": "m"'


class TestBadSettingsFiles:
    """Endpoint and cost-model files are decoded against their dataclasses:
    a bad one is one `error:` line naming the file and the key, and nothing
    is written."""

    @pytest.mark.parametrize(
        "kind, text, fragment",
        [
            ("cost-model", '{"base_url": ', "line 1, column 14"),
            ("cost-model", "[1]", "settings file is not a JSON object"),
            ("cost-model", '{"price_per_1k_prompt_tokens": "abc"}',
             "price_per_1k_prompt_tokens must be a number, got 'abc'"),
            ("cost-model", '{"price_per_1k_prompt_tokens": NaN}',
             "price_per_1k_prompt_tokens must be finite and >= 0, got nan"),
            ("cost-model", '{"price_per_1k_prompt_tokens": Infinity}',
             "price_per_1k_prompt_tokens must be finite and >= 0, got inf"),
            ("cost-model", '{"retrieval_latency_ms": "5"}',
             "retrieval_latency_ms must be an integer, got '5'"),
            ("endpoint", "[1]", "settings file is not a JSON object"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": "abc"}',
             "requests_per_second must be a number or null, got 'abc'"),
            ("endpoint", "{" + ENDPOINT + ', "max_tokens": "x"}',
             "max_tokens must be an integer, got 'x'"),
            ("endpoint", '{"base_url": 5, "model": "m"}', "base_url must be a string, got 5"),
            ("endpoint", '{"base_url": "http://[::1/v1", "model": "m"}',
             "base_url 'http://[::1/v1': Invalid IPv6 URL"),
            ("endpoint", '{"base_url": "http:///v1", "model": "m"}',
             "base_url must be http(s)://host[:port][/path], got 'http:///v1'"),
            ("endpoint", "{" + ENDPOINT + ', "timeout_s": NaN}',
             "timeout_s must be finite and >= 0, got nan"),
            ("cost-model", '{"price_per_1k_prompt_tokens": null}',
             "price_per_1k_prompt_tokens must be a number, got None"),
            pytest.param("cost-model", '{"price_per_1k_prompt_tokens": %s}' % ("9" * 400),
                         "price_per_1k_prompt_tokens must be a number a float can hold, "
                         "got an integer of 400 digits",
                         id="cost-model-price-400-digits"),
            pytest.param("cost-model", '{"price_per_1k_prompt_tokens": %s}' % ("9" * 5000),
                         "Exceeds the limit (4300",
                         id="cost-model-price-5000-digits"),
            ("endpoint", "{" + ENDPOINT + ', "max_retries": -1}', "max_retries must be >= 0, got -1"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": 0}',
             "requests_per_second must be null or finite and > 0, got 0"),
            ("endpoint", "{" + ENDPOINT + ', "requests_per_second": Infinity}',
             "requests_per_second must be null or finite and > 0, got inf"),
            ("endpoint", "{" + ENDPOINT + ', "max_retries": 1.5}',
             "max_retries must be an integer, got 1.5"),
            ("endpoint", "{" + ENDPOINT + ', "max_parallelism": 0}',
             "max_parallelism must be >= 1, got 0"),
            ("endpoint", "{" + ENDPOINT + ', "cache_dir": ""}',
             "cache_dir must be a non-empty path or null"),
            ("endpoint", "{" + ENDPOINT + ', "timeout_s": 1e10}',
             "timeout_s must be at most"),
            ("endpoint", "{" + ENDPOINT + ', "max_tokens": true}',
             "max_tokens must be an integer, got True"),
            ("endpoint", "{" + ENDPOINT + ', "max_tokens": 0}',
             "max_tokens must be at least 1, got 0"),
            ("endpoint", "{" + ENDPOINT + ', "max_tokens": -5}',
             "max_tokens must be at least 1, got -5"),
            ("endpoint", '{"base_url": "http://127.0.0.1:9", "model": ""}',
             "model must be a non-empty string, got ''"),
            ("endpoint", '{"base_url": "http://127.0.0.1:9", "model": 7}',
             "model must be a string, got 7"),
            ("endpoint", '{"base_url": "http://127.0.0.1:9", "model": null}',
             "model must be a string, got None"),
            ("endpoint", '{"base_url": "http://127.0.0.1:9"}', "settings file missing key 'model'"),
            ("endpoint", "{" + ENDPOINT + ', "cache_dir": 5}',
             "cache_dir must be a string or null, got 5"),
            ("endpoint", "{" + ENDPOINT + ', "retrieval_latency_ms": 50}',
             "settings file has unknown key 'retrieval_latency_ms'"),
            ("cost-model", '{"model": "m"}', "settings file has unknown key 'model'"),
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
        }[kind]
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{bad.name}: {fragment}")
        assert not out.exists()

    @pytest.mark.parametrize(
        "costs, prompt_tokens",
        [({"price_per_1k_prompt_tokens": 1e308}, 10**6), ({}, int("9" * 400))],
        ids=["price-1e308", "prompt-tokens-400-digits"],
    )
    def test_savings_past_the_largest_float_is_an_error(
        self, demo_out, tmp_path, capsys, costs, prompt_tokens
    ):
        cost_model = tmp_path / "costs.json"
        cost_model.write_text(json.dumps(costs))
        with (demo_out / "run_retrieval.jsonl").open(encoding="utf-8") as fh:
            rows = [json.loads(line) for line in fh]
        rows[0]["prompt_tokens"] = prompt_tokens
        retrieval = tmp_path / "run_retrieval.jsonl"
        write_jsonl(retrieval, rows)
        # A policy tuned elsewhere, so that `savings` logs no in-sample warning.
        policy = json.loads((demo_out / "policy.json").read_text(encoding="utf-8"))
        elsewhere = tmp_path / "policy.json"
        elsewhere.write_text(json.dumps({**policy, "tuned_on": "0" * 64}), encoding="utf-8")
        out = tmp_path / "savings.json"
        argv = savings_argv(demo_out, out, None, retrieval, "--cost-model", cost_model)
        argv[argv.index("--policy") + 1] = elsewhere
        capsys.readouterr()
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, "too large")
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


# The default of a path flag that a command cannot run without.
REQUIRED = "required"


def default_case(dest, argv, target, read, flag, default):
    return pytest.param(dest, argv, target, read, flag, default,
                        id=f"{dest}-{argv(Path(), Path())[0]}")


DEFAULT_CASES = [
    default_case("triples", lambda d, tmp: ["build-dataset", "--out", tmp / "out"],
                 (dataset_mod, "read_triples"), lambda a, k: a[0], "f.jsonl", REQUIRED),
    default_case("dataset", lambda d, tmp: ["route", "--policy", "p.json", "--out", tmp / "out"],
                 (dataset_mod, "read_dataset"), lambda a, k: a[0], "f.jsonl", REQUIRED),
    default_case("corpus", lambda d, tmp: ["index", "--out", tmp / "out"],
                 (retriever_mod, "read_corpus"), lambda a, k: a[0], "f.jsonl", REQUIRED),
    default_case("index", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--mode",
                                          "retrieval", "--oracle", "--out", tmp / "out"],
                 (retriever_mod, "load_index"), lambda a, k: a[0], "f.pgidx", None),
    default_case("cache", lambda d, tmp: ["fetch-popularity", "--dataset", d / "dataset.jsonl",
                                          "--out", tmp / "out"],
                 (PageviewsClient, "annotate"), lambda a, k: str(a[0].config.cache_dir),
                 "f-cache", REQUIRED),
    default_case("month", lambda d, tmp: ["fetch-popularity", "--dataset", d / "dataset.jsonl",
                                          "--cache", "pv", "--out", tmp / "out"],
                 (PageviewsClient, "annotate"), lambda a, k: a[2], "2021-01", "2022-12"),
    default_case("mode", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                         "--out", tmp / "out"],
                 (lm_mod, "run_predictions"), lambda a, k: a[1], "retrieval", "vanilla"),
    default_case("shots", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                          "--out", tmp / "out"],
                 (lm_mod, "run_predictions"), lambda a, k: k["shots"], 0, 15),
    default_case("seed", lambda d, tmp: ["run", "--dataset", d / "dataset.jsonl", "--oracle",
                                         "--out", tmp / "out"],
                 (lm_mod, "run_predictions"), lambda a, k: k["rng_seed"], 3, 0),
    default_case("seed", lambda d, tmp: ["build-dataset", "--triples", tmp / "triples.jsonl",
                                         "--out", tmp / "out"],
                 (dataset_mod, "sample_triples"), lambda a, k: k["rng_seed"], 3, 0),
    default_case("seed", lambda d, tmp: tune_argv(d, tmp / "out"),
                 (adaptive_mod, "tune_thresholds"), lambda a, k: k["rng_seed"], 3, 0),
    default_case("k1", lambda d, tmp: ["index", "--corpus", d / "corpus.jsonl",
                                       "--out", tmp / "out"],
                 (retriever_mod, "build_index"), lambda a, k: k["k1"], 0.5, 1.2),
    default_case("b", lambda d, tmp: ["index", "--corpus", d / "corpus.jsonl",
                                      "--out", tmp / "out"],
                 (retriever_mod, "build_index"), lambda a, k: k["b"], 0.25, 0.75),
]


class TestFlagDefaults:
    """Each setting comes from its flag, else from the flag's default. A
    path that a command cannot run without has no default: leaving it out
    is a usage error, and only `run --index` may be left out."""

    @pytest.mark.parametrize("dest, argv, target, read, flag, default", DEFAULT_CASES)
    def test_flag_else_default(
        self, demo_out, tmp_path, monkeypatch, dest, argv, target, read, flag, default
    ):
        write_jsonl(tmp_path / "triples.jsonl", triples_rows(2))
        monkeypatch.setattr(*target, reach)

        def resolved(*flags):
            try:
                run_cli([*argv(demo_out, tmp_path), *flags])
            except Reached as call:
                return read(*call.args)
            return None

        assert resolved(f"--{dest}", flag) == flag
        if default is REQUIRED:
            assert run_cli(argv(demo_out, tmp_path)) == 2
        else:
            assert resolved() == default


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

    @pytest.mark.parametrize(
        "run, changes, fragment",
        [("retrieval", {"mode": "genread"}, "must be null in a genread run, got "),
         ("vanilla", {"retrieval_recall1": False},
          "retrieval_recall1 must be null in a vanilla run, got False"),
         ("retrieval", {"genread_empty_context": False},
          "genread_empty_context must be null in a retrieval run, got False")],
        ids=["retrieval-relabelled-genread", "vanilla-with-recall", "retrieval-with-genread-flag"],
    )
    def test_field_of_another_mode_is_one_line_error(
        self, demo_out, tmp_path, capsys, run, changes, fragment
    ):
        """A run's rows leave null the fields other modes fill, so a retrieval
        run relabelled genread reports no recall@1."""
        rows = [
            {**json.loads(line), **changes}
            for line in (demo_out / f"run_{run}.jsonl").read_text().splitlines()
        ]
        bad = tmp_path / f"run_{run}.jsonl"
        write_jsonl(bad, rows)
        runs = {"vanilla": demo_out / "run_vanilla.jsonl",
                "retrieval": demo_out / "run_retrieval.jsonl", run: bad}
        out = tmp_path / "out"
        capsys.readouterr()
        argv = ["report", "--dataset", demo_out / "dataset.jsonl", "--runs", runs["vanilla"],
                runs["retrieval"], "--out", out]
        assert run_cli(argv) == 1
        assert_one_line_error(capsys, f"{bad}:1: record ", fragment)
        assert not out.exists()

    def test_genread_run_passes_for_retrieval(self, demo_out, tmp_path):
        rows = [
            {**json.loads(line), **AS_GENREAD}
            for line in (demo_out / "run_retrieval.jsonl").read_text().splitlines()
        ]
        genread = tmp_path / "run_genread.jsonl"
        write_jsonl(genread, rows)
        policy = tmp_path / "policy.json"
        assert run_cli(tune_argv(demo_out, policy, None, genread)) == 0
        assert json.loads(policy.read_text())["retrieval_mode"] == "genread"

    def test_savings_refuses_a_run_of_another_mode_than_the_policy(
        self, demo_out, tmp_path, capsys
    ):
        """The demo's policy was tuned on a retrieval run; that run relabelled
        genread is refused, before the in-sample warning."""
        rows = [
            {**json.loads(line), **AS_GENREAD}
            for line in (demo_out / "run_retrieval.jsonl").read_text().splitlines()
        ]
        genread = tmp_path / "run_genread.jsonl"
        write_jsonl(genread, rows)
        out = tmp_path / "savings.json"
        capsys.readouterr()
        assert run_cli(savings_argv(demo_out, out, None, genread)) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and not out.exists()
        assert len(captured.err.splitlines()) == 1, captured.err
        assert captured.err.startswith("error: policy was tuned on a retrieval run")
        assert "holds genread records" in captured.err

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
            ("report", "retrieval", "retrieved_doc_id", [5]),
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
        assert_one_line_error(capsys, f"{run.name}:1: ", f"{key} must be", repr(value))
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
