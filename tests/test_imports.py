"""What `import popgate.<module>` loads: the HTTP stack and the thread pool
only once a client sends a request or a pool is created, never at import."""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

from popgate.dataset import write_dataset
from popgate.retriever import Passage, write_corpus

from conftest import synthetic_examples
from mockserver import completions_server

SRC = Path(__file__).resolve().parent.parent / "src"

DEFERRED = ("http.client", "ssl", "urllib.request", "email", "concurrent.futures")


def loaded_after(code: str, names: tuple[str, ...] = DEFERRED) -> list[str]:
    """Which of `names` are in sys.modules once `code` has run in a fresh interpreter."""
    report = f"import json, sys\nprint(json.dumps([m for m in {names!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={"PYTHONPATH": str(SRC)},
        capture_output=True,
        text=True,
        check=True,
        timeout=60,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_package_import_loads_no_submodule():
    submodules = tuple(f"popgate.{p.stem}" for p in (SRC / "popgate").glob("*.py"))
    assert loaded_after("import popgate", submodules) == []


def test_package_and_cli_import_leave_http_and_pool_out():
    assert loaded_after("import popgate, popgate.cli") == []


def test_dataset_and_retriever_import_leave_http_and_pool_out():
    assert loaded_after("from popgate import dataset, retriever") == []


def test_offline_cli_pipeline_leaves_http_and_pool_out(tmp_path):
    examples = synthetic_examples(40)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(examples, dataset)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(
        [Passage(f"d{i}", ex.subject_label, f"{ex.subject_label} {sorted(ex.gold_answers)[0]}")
         for i, ex in enumerate(examples)],
        corpus,
    )
    steps = [
        ["index", "--corpus", corpus, "--out", tmp_path / "index.pgidx"],
        ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", "0",
         "--out", tmp_path / "run_vanilla.jsonl"],
        ["run", "--dataset", dataset, "--mode", "retrieval", "--oracle", "--shots", "0",
         "--index", tmp_path / "index.pgidx", "--out", tmp_path / "run_retrieval.jsonl"],
        ["tune", "--dataset", dataset, "--vanilla", tmp_path / "run_vanilla.jsonl",
         "--retrieval", tmp_path / "run_retrieval.jsonl", "--repeats", "3",
         "--out", tmp_path / "policy.json"],
    ]
    argvs = [[str(a) for a in step] for step in steps]
    code = (
        "from popgate.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    assert main(argv) == 0, argv\n"
    )
    assert loaded_after(code) == []
    assert (tmp_path / "policy.json").exists()


def test_first_completion_loads_http_client(tmp_path):
    with completions_server(lambda prompt: "ok") as server:
        code = (
            "import sys\n"
            "from popgate.lm import CompletionClient, EndpointConfig\n"
            "assert 'http.client' not in sys.modules\n"
            f"config = EndpointConfig(base_url={server.base_url!r}, model='m', "
            f"cache_dir={str(tmp_path / 'cache')!r})\n"
            "assert CompletionClient(config).complete('hi').text == 'ok'\n"
        )
        assert "http.client" in loaded_after(code)
