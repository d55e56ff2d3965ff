"""What `import popgate.<module>` loads: the HTTP stack and the thread pool
only once a client sends a request or a pool is created, never at import;
and what each CLI subcommand loads: only the popgate modules it runs.
Also, every popgate attribute the benchmark tracer hooks still exists,
every popgate call in the benchmark's child process still binds its
arguments, and every public popgate name has a reader outside the tests."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import os
import subprocess
import sys
from pathlib import Path

from popgate.dataset import write_dataset
from popgate.retriever import Passage, write_corpus

from conftest import synthetic_examples
from mockserver import completions_server

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

DEFERRED = ("http.client", "ssl", "urllib.request", "email", "concurrent.futures")


def loaded_after(code: str, names: tuple[str, ...] = DEFERRED) -> list[str]:
    """Which of `names` are in sys.modules once `code` has run in a fresh interpreter."""
    report = f"import json, sys\nprint(json.dumps([m for m in {names!r} if m in sys.modules]))"
    out = subprocess.run(
        [sys.executable, "-c", f"{code}\n{report}"],
        env={**os.environ, "PYTHONPATH": str(SRC)},
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


def test_config_import_loads_no_backend_or_tuning_module():
    modules = ("popgate.adaptive", "popgate.lm", "popgate.popularity", "popgate.dataset")
    assert loaded_after("import popgate.config", modules) == []


def test_dataset_and_retriever_import_leave_http_and_pool_out():
    assert loaded_after("from popgate import dataset, retriever") == []


# What setup (read a dataset, load an index) imports without running.
SETUP_UNUSED = ("hashlib", "logging", "statistics", "csv", "popgate.evaluation")


def test_setup_imports_load_only_what_setup_runs(tmp_path):
    # Compared with a bare interpreter: `site` may load some of these itself.
    bare = loaded_after("pass", SETUP_UNUSED)
    assert set(loaded_after("from popgate import dataset, retriever", SETUP_UNUSED)) == set(bare)
    code = f"""
from popgate import dataset, retriever
from popgate import evaluation, util
digest = util.sha256_hex("a")
assert digest == "ca978112ca1bbdcafac231b39a23dc4da786eff8147c4e72b9807785afee48bb", digest
examples = [dataset.QAExample(f"q{{i}}", "Q?", frozenset({{"A"}}), f"s{{i}}", "S", "director",
                              popularity=10 ** i) for i in range(3)]
records = [evaluation.PredictionRecord(ex.id, "vanilla", "A" if i else "B", bool(i))
           for i, ex in enumerate(examples)]
assert evaluation.popularity_correlation(records, examples)["director"] > 0.8
report = evaluation.evaluate_run(records, examples, min_bin_n=1)
evaluation.write_report(report, {str(tmp_path)!r})
"""
    loaded = set(loaded_after(code, SETUP_UNUSED))
    assert {"hashlib", "csv"} <= loaded and "statistics" not in loaded
    assert (tmp_path / "report_per_relation.csv").read_text().startswith("relation,n,")


def offline_pipeline(tmp_path) -> str:
    """Code that runs the oracle CLI pipeline over a small dataset and corpus
    written under tmp_path: index, both runs, report, tune, route and savings."""
    examples = synthetic_examples(40)
    dataset = tmp_path / "dataset.jsonl"
    write_dataset(examples, dataset)
    corpus = tmp_path / "corpus.jsonl"
    write_corpus(
        [Passage(f"d{i}", ex.subject_label, f"{ex.subject_label} {sorted(ex.gold_answers)[0]}")
         for i, ex in enumerate(examples)],
        corpus,
    )
    runs = ["--vanilla", tmp_path / "run_vanilla.jsonl",
            "--retrieval", tmp_path / "run_retrieval.jsonl"]
    steps = [
        ["index", "--corpus", corpus, "--out", tmp_path / "index.pgidx"],
        ["run", "--dataset", dataset, "--mode", "vanilla", "--oracle", "--shots", "0",
         "--out", tmp_path / "run_vanilla.jsonl"],
        ["run", "--dataset", dataset, "--mode", "retrieval", "--oracle", "--shots", "0",
         "--index", tmp_path / "index.pgidx", "--out", tmp_path / "run_retrieval.jsonl"],
        ["report", "--dataset", dataset, "--runs", runs[1], runs[3], "--out", tmp_path / "report"],
        ["tune", "--dataset", dataset, *runs, "--repeats", "3", "--out", tmp_path / "policy.json"],
        ["route", "--dataset", dataset, "--policy", tmp_path / "policy.json",
         "--out", tmp_path / "decisions.jsonl"],
        ["savings", "--dataset", dataset, *runs, "--policy", tmp_path / "policy.json"],
    ]
    argvs = [[str(a) for a in step] for step in steps]
    return (
        "import contextlib, io\n"
        "from popgate.cli import main\n"
        f"for argv in {argvs!r}:\n"
        "    with contextlib.redirect_stdout(io.StringIO()):\n"
        "        assert main(argv) == 0, argv\n"
    )


def test_offline_cli_pipeline_leaves_http_and_pool_out(tmp_path):
    assert loaded_after(offline_pipeline(tmp_path)) == []
    assert (tmp_path / "policy.json").exists()


# The modules that `popgate index` does not run.
NOT_INDEX = tuple(
    f"popgate.{name}" for name in ("adaptive", "dataset", "demo", "evaluation", "lm", "popularity")
)


def test_cli_import_and_index_load_only_what_index_runs(tmp_path):
    assert loaded_after("import popgate.cli", NOT_INDEX) == []
    corpus, index = tmp_path / "corpus.jsonl", tmp_path / "index.pgidx"
    write_corpus([Passage("d1", "t", "Alpha beta"), Passage("d2", "t", "Zürich, beta!")], corpus)
    code = (
        "from popgate.cli import main\n"
        f"assert main(['index', '--corpus', {str(corpus)!r}, '--out', {str(index)!r}]) == 0\n"
    )
    assert loaded_after(code, NOT_INDEX) == []
    assert index.exists()


def test_pipeline_steps_load_neither_demo_nor_popularity(tmp_path):
    code = offline_pipeline(tmp_path)
    assert loaded_after(code, ("popgate.demo", "popgate.popularity")) == []
    assert (tmp_path / "decisions.jsonl").exists()


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


def traced_targets() -> list[tuple[str, str]]:
    """(owner, attribute) of every `wrap(owner, "attr", ...)` call in
    perfbench/spans.py, read with ast: importing it needs `requests`. An
    attribute named by a loop variable stands for each name in the loop's tuple."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    loops = {
        node.target.id: [elt.value for elt in node.iter.elts]
        for node in ast.walk(tree)
        if isinstance(node, ast.For) and isinstance(node.iter, ast.Tuple)
    }
    targets = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "wrap":
            owner, attr = node.args[:2]
            names = [attr.value] if isinstance(attr, ast.Constant) else loops[attr.id]
            targets.extend((ast.unparse(owner), name) for name in names)
    return targets


def test_every_traced_hook_point_exists():
    targets = [t for t in traced_targets() if not t[0].startswith("requests.")]
    assert len(targets) >= 20
    for owner, attr in targets:
        module, *path = owner.split(".")
        obj = importlib.import_module(f"popgate.{module}")
        for name in path:
            obj = getattr(obj, name)
        assert callable(getattr(obj, attr, None)), f"perfbench traces missing {owner}.{attr}"


def child_calls() -> tuple[list[tuple[str, str]], list[tuple[str, str, int, list[str]]]]:
    """What perfbench/child.py, read with ast, uses of the popgate modules it
    imports by name: each `<module>.<name>` it reads, and each
    `<module>.<name>(...)` it calls, with the call's positional argument
    count and keywords."""
    tree = ast.parse((ROOT / "perfbench" / "child.py").read_text(encoding="utf-8"))
    modules = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "popgate"
        for alias in node.names
    }

    def target(node) -> tuple[str, str] | None:
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in modules):
            return node.value.id, node.attr
        return None

    names = [name for node in ast.walk(tree) if (name := target(node))]
    calls = [
        (*name, len(node.args), [kw.arg for kw in node.keywords])
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and (name := target(node.func))
    ]
    return names, calls


def test_every_benchmark_library_call_exists():
    names, calls = child_calls()
    assert len(names) >= 15 and len(calls) >= 15
    for module, name in names:
        assert hasattr(importlib.import_module(f"popgate.{module}"), name), (
            f"perfbench/child.py uses missing popgate.{module}.{name}"
        )
    for module, name, positional, keywords in calls:
        # A dataclass's signature lists its fields, inherited ones included.
        signature = inspect.signature(getattr(importlib.import_module(f"popgate.{module}"), name))
        try:
            signature.bind(*[None] * positional, **dict.fromkeys(keywords))
        except TypeError as exc:
            raise AssertionError(f"perfbench/child.py calls {module}.{name}: {exc}") from None


# The files whose use keeps a public popgate name alive: the library itself,
# the benchmark, the acceptance suite and its oracles. Other tests do not count.
READERS = [
    *sorted((SRC / "popgate").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
    ROOT / "tests" / "test_acceptance.py",
    ROOT / "tests" / "oracles.py",
]


def names_read(tree: ast.AST) -> set[str]:
    """Every name a module reads: variables, attributes, imported names and
    string constants (the benchmark tracer names the functions it wraps)."""
    out = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.alias):
            out.add(node.name)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            out.add(node.value)
    return out


def public_definitions() -> list[tuple[str, str]]:
    """(owner, name) of each public module-level function and class of
    src/popgate, and of each public method of its classes; dunder methods
    and dataclass fields are not definitions here."""
    defs = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    out = []
    for path in sorted((SRC / "popgate").glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, defs):
                continue
            out.append((path.stem, node.name))
            if isinstance(node, ast.ClassDef):
                out.extend((f"{path.stem}.{node.name}", item.name)
                           for item in node.body if isinstance(item, defs[:2]))
    return [(owner, name) for owner, name in out if not name.startswith("_")]


def test_every_public_name_has_a_reader():
    """A public function, class or method that neither the library, the
    benchmark nor the acceptance suite names is dead code."""
    read = set().union(*(names_read(ast.parse(p.read_text(encoding="utf-8"))) for p in READERS))
    definitions = public_definitions()
    assert len(definitions) >= 100
    assert [f"{owner}.{name}" for owner, name in definitions if name not in read] == []
