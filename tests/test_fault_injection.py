"""The error contract under fault injection: each input file a subcommand
reads, cut short at a random offset, with one byte changed, or with one JSON
number replaced, either still runs (exit 0) or fails with exit 1, exactly one
`error:` line on stderr and no output file. A run file with one `correct`
flag flipped, and an input with one key of a record object renamed, always
fail so. Any exception that escapes
`cli.main` fails the test, and so does a JSON or JSONL output that holds
`NaN`, `Infinity` or `-Infinity`, which are not JSON.

A page-view or completion cache entry changed in the same ways never fails
its command: it is read, or logged once, fetched again and rewritten; one
with a key renamed is always logged and fetched again."""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from popgate import util
from popgate.cli import main
from popgate.dataset import DEFAULT_TEMPLATE_PATTERNS, write_dataset
from popgate.demo import run_demo
from popgate.retriever import INDEX_MAGIC
from popgate.util import HttpResponse

from conftest import synthetic_examples

# Each input file, and the subcommand that reads it with `{}` in its place.
# `out` is the output path; the other names are the valid inputs.
COMMANDS = {
    "dataset.jsonl": ["run", "--dataset", "{}", "--mode", "vanilla", "--oracle", "--shots", "0"],
    "corpus.jsonl": ["index", "--corpus", "{}"],
    "index.pgidx": ["run", "--dataset", "dataset.jsonl", "--mode", "retrieval", "--oracle",
                    "--shots", "0", "--index", "{}"],
    "index_v1.pgidx": ["run", "--dataset", "dataset.jsonl", "--mode", "retrieval", "--oracle",
                       "--shots", "0", "--index", "{}"],
    "run_vanilla.jsonl": ["savings", "--dataset", "dataset.jsonl", "--vanilla", "{}",
                          "--retrieval", "run_retrieval.jsonl", "--policy", "policy.json"],
    "run_retrieval.jsonl": ["tune", "--dataset", "dataset.jsonl", "--vanilla",
                            "run_vanilla.jsonl", "--retrieval", "{}", "--repeats", "3"],
    "policy.json": ["route", "--dataset", "dataset.jsonl", "--policy", "{}"],
    "triples.jsonl": ["build-dataset", "--triples", "{}", "--seed", "0"],
    "templates.json": ["build-dataset", "--triples", "triples.jsonl", "--templates", "{}",
                       "--seed", "0"],
    "costs.json": ["savings", "--dataset", "dataset.jsonl", "--vanilla", "run_vanilla.jsonl",
                   "--retrieval", "run_retrieval.jsonl", "--policy", "policy.json",
                   "--cost-model", "{}"],
    "endpoint.json": ["run", "--dataset", "dataset.jsonl", "--mode", "vanilla", "--shots", "0",
                      "--endpoint", "{}"],
}


def completion_reply(self, method, path, what, json_body=None, accept=(200,)) -> HttpResponse:
    """A fixed 200 completion, in place of any HTTP request: a changed
    endpoint file may name any host."""
    body = {"choices": [{"text": "Fact00001"}], "usage": {"prompt_tokens": 3}}
    return HttpResponse(200, json.dumps(body).encode("utf-8"), 0.001, path)


@pytest.fixture
def inputs(tmp_path, monkeypatch):
    """A directory, made the working directory, holding one valid file of
    each kind that COMMANDS reads."""
    monkeypatch.setattr(util.HttpClient, "request", completion_reply)
    monkeypatch.chdir(tmp_path)
    run_demo(seed=3, out_dir=tmp_path, size=48, repeats=3)
    with (tmp_path / "corpus.jsonl").open(encoding="utf-8") as fh:
        passages = [json.loads(line) for line in fh]
    v1 = {"k1": 1.2, "b": 0.75, "doc_count": len(passages), "passages": passages}
    (tmp_path / "index_v1.pgidx").write_bytes(
        INDEX_MAGIC + bytes([1]) + json.dumps(v1).encode("utf-8")
    )
    files = {
        "templates.json": {rel: DEFAULT_TEMPLATE_PATTERNS[rel] for rel in ("genre", "author")},
        "costs.json": {"price_per_1k_prompt_tokens": 0.5, "retrieval_latency_ms": 20},
        # No cache and no rate limit: a changed byte cannot name a directory
        # to write, nor make the run wait.
        "endpoint.json": {"base_url": "http://127.0.0.1:9/v1", "model": "m", "cache_dir": None,
                          "max_retries": 0, "max_parallelism": 2},
    }
    for name, payload in files.items():
        (tmp_path / name).write_text(json.dumps(payload), encoding="utf-8")
    triples = [
        {"subj_id": f"S{i}", "subj": f"Subject {i}", "subj_aliases": [f"S-{i}"],
         "relation": ("genre", "author")[i % 2],
         "objects": [{"id": f"O{i}", "label": f"Object {i}", "aliases": []}]}
        for i in range(6)
    ]
    (tmp_path / "triples.jsonl").write_text(
        "".join(json.dumps(row) + "\n" for row in triples), encoding="utf-8"
    )
    return tmp_path


# A JSON string or a JSON number. Strings are matched whole, so a digit
# inside one is never taken for a number.
STRING_OR_NUMBER = re.compile(r'"(?:[^"\\]|\\.)*"|-?\d+(?:\.\d+)?(?:[eE][+-]?\d+)?')
# What a number is replaced by; None quotes the number as a string.
NUMBER_CHANGES = ["Infinity", "-1", "1e400", "9" * 400, None]


def not_json(constant: str):
    raise AssertionError(f"output holds {constant}, which is not JSON")


def run_cli(name: str, path) -> tuple[int, bool]:
    """(exit code, whether an output exists) of the command reading `path`
    as `name`. A JSON or JSONL output must parse as strict JSON."""
    out = path.parent / "out"
    argv = [str(path) if arg == "{}" else arg for arg in COMMANDS[name]]
    code = main([*argv, "--out", str(out)])
    exists = out.exists()
    if exists and argv[0] != "index":
        for line in out.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=not_json)
    out.unlink(missing_ok=True)
    return code, exists


def assert_contract(inputs, capsys, name: str, changed: bytes, must_fail: bool = False) -> str:
    """Run the command reading `changed` as `name`: exit 0 unless `must_fail`,
    or exit 1 with one `error:` line and no output. Returns its stderr."""
    mutated = inputs / "mutated" / name
    mutated.parent.mkdir(exist_ok=True)
    mutated.write_bytes(changed)
    capsys.readouterr()
    code, wrote = run_cli(name, mutated)
    err = capsys.readouterr().err
    if code != 0 or must_fail:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
        assert not wrote
    return err


def test_valid_inputs_run(inputs, capsys):
    for name in COMMANDS:
        assert run_cli(name, inputs / name) == (0, True), (name, capsys.readouterr().err)


def cut_or_flip(data, blob: bytes) -> bytes:
    """`blob` cut short at a drawn offset, or with the byte there changed."""
    offset = data.draw(st.integers(0, len(blob) - 1), label="offset")
    if data.draw(st.booleans(), label="truncate"):
        return blob[:offset]
    flip = data.draw(st.integers(1, 255), label="xor")
    return blob[:offset] + bytes([blob[offset] ^ flip]) + blob[offset + 1 :]


def number_spans(text: str) -> list[tuple[int, int]]:
    return [m.span() for m in STRING_OR_NUMBER.finditer(text) if m.group()[0] != '"']


def change_number(data, text: str) -> bytes:
    """`text` with one drawn JSON number replaced by one of NUMBER_CHANGES."""
    start, end = data.draw(st.sampled_from(number_spans(text)), label="number")
    new = data.draw(st.sampled_from(NUMBER_CHANGES), label="new")
    changed = text[:start] + (f'"{text[start:end]}"' if new is None else new) + text[end:]
    return changed.encode("utf-8")


@settings(derandomize=True, max_examples=600, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_changed_input_exits_0_or_1_with_one_error_line(inputs, capsys, data):
    name = data.draw(st.sampled_from(sorted(COMMANDS)), label="file")
    assert_contract(inputs, capsys, name, cut_or_flip(data, (inputs / name).read_bytes()))


@settings(derandomize=True, max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_changed_number_exits_0_or_1_with_one_error_line(inputs, capsys, data):
    texts = {
        name: (inputs / name).read_text(encoding="utf-8")
        for name in sorted(COMMANDS)
        if not name.endswith(".pgidx")
    }
    name = data.draw(st.sampled_from([name for name, text in texts.items() if number_spans(text)]),
                     label="file")
    assert_contract(inputs, capsys, name, change_number(data, texts[name]))


def rename_key(data, objects: list[dict]) -> None:
    """Misspell one drawn key of one drawn object of `objects` in place, by
    dropping its last character."""
    obj = data.draw(st.sampled_from(objects), label="object")
    key = data.draw(st.sampled_from(sorted(obj)), label="key")
    assert key[:-1] not in obj
    obj[key[:-1]] = obj.pop(key)


# The inputs made of record objects, whose keys are field names, each object
# on one line. A templates file's keys are relation names, and the
# `thresholds` and `metadata` maps of a policy have keys of their own, so
# none of those is renamed.
KEYED = ["corpus.jsonl", "costs.json", "dataset.jsonl", "endpoint.json", "policy.json",
         "run_retrieval.jsonl", "run_vanilla.jsonl", "triples.jsonl"]


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_renamed_key_exits_1(inputs, capsys, data):
    name = data.draw(st.sampled_from(KEYED), label="file")
    rows = [json.loads(line) for line in (inputs / name).read_text(encoding="utf-8").splitlines()]
    row = data.draw(st.sampled_from(rows), label="row")
    rename_key(data, [row, *row["objects"]] if name == "triples.jsonl" else [row])
    changed = "".join(json.dumps(r) + "\n" for r in rows)
    assert_contract(inputs, capsys, name, changed.encode("utf-8"), must_fail=True)


@pytest.mark.parametrize("name", ["index.pgidx", "index_v1.pgidx"])
def test_renamed_index_header_key_exits_1(inputs, capsys, name):
    """Each key of an index's JSON header, and each key of its first passage,
    misspelt in turn; a v2 header's length is rewritten to match."""
    blob = (inputs / name).read_bytes()
    version = blob[len(INDEX_MAGIC)]
    start = len(INDEX_MAGIC) + 1 + (8 if version == 2 else 0)
    end = start + int.from_bytes(blob[start - 8 : start], "little") if version == 2 else len(blob)
    header = json.loads(blob[start:end])
    renames = [(False, key) for key in header] + [(True, key) for key in header["passages"][0]]
    for in_passage, key in renames:
        changed = json.loads(blob[start:end])
        obj = changed["passages"][0] if in_passage else changed
        obj[key[:-1]] = obj.pop(key)
        encoded = json.dumps(changed).encode("utf-8")
        length = len(encoded).to_bytes(8, "little") if version == 2 else b""
        changed_blob = INDEX_MAGIC + bytes([version]) + length + encoded + blob[end:]
        err = assert_contract(inputs, capsys, name, changed_blob, must_fail=True)
        assert f"mutated/{name}: " in err, (key, err)


@pytest.mark.parametrize("line", [0, -1], ids=["first", "last"])
@pytest.mark.parametrize("name", ["run_vanilla.jsonl", "run_retrieval.jsonl"])
def test_flipped_correct_flag_exits_1(inputs, capsys, name, line):
    lines = (inputs / name).read_text(encoding="utf-8").splitlines(keepends=True)
    row = json.loads(lines[line])
    lines[line] = json.dumps({**row, "correct": not row["correct"]}) + "\n"
    assert_contract(inputs, capsys, name, "".join(lines).encode("utf-8"), must_fail=True)


# Each cache directory, and the subcommand that fills and reads it.
CACHED_COMMANDS = {
    "pageviews": ["fetch-popularity", "--dataset", "dataset.jsonl", "--month", "2022-12",
                  "--cache", "pageviews", "--parallelism", "1"],
    "completions": ["run", "--dataset", "dataset.jsonl", "--mode", "vanilla", "--shots", "0",
                    "--endpoint", "endpoint.json"],
}


@pytest.fixture
def caches(tmp_path, monkeypatch):
    """A working directory whose page-view and completion caches CACHED_COMMANDS
    have filled; the returned list gains one request path per request sent."""
    sent = []

    def reply(self, method, path, what, json_body=None, accept=(200,)) -> HttpResponse:
        sent.append(path)
        if not path.startswith("per-article/"):
            return completion_reply(self, method, path, what, json_body, accept)
        return HttpResponse(200, b'{"items": [{"views": 1234}]}', 0.001, path)

    monkeypatch.setattr(util.HttpClient, "request", reply)
    monkeypatch.chdir(tmp_path)
    write_dataset(synthetic_examples(6), tmp_path / "dataset.jsonl")
    endpoint = {"base_url": "http://127.0.0.1:9/v1", "model": "m", "cache_dir": "completions",
                "max_retries": 0, "max_parallelism": 1}
    (tmp_path / "endpoint.json").write_text(json.dumps(endpoint), encoding="utf-8")
    for cache in CACHED_COMMANDS:
        assert run_cached(cache) == 0
    assert len(sent) == 12
    return sent


def run_cached(cache: str) -> int:
    """The exit code of the command reading `cache`. Its output, if any, and
    every cache entry must parse as strict JSON."""
    out = Path("out.jsonl")
    code = main([*CACHED_COMMANDS[cache], "--out", str(out)])
    for path in filter(Path.exists, [out, *Path(cache).iterdir()]):
        for line in path.read_text(encoding="utf-8").splitlines():
            json.loads(line, parse_constant=not_json)
    out.unlink(missing_ok=True)
    return code


@settings(derandomize=True, max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_changed_cache_entry_is_read_or_replaced_once(caches, caplog, data):
    """A changed cache entry never fails its command. One that fails its
    checks is logged once and fetched again, and the rewritten entry is read
    on the next run; one that passes them is read as it stands. One with a
    key of the entry, or of a completion entry's completion, renamed always
    fails them."""
    cache = data.draw(st.sampled_from(sorted(CACHED_COMMANDS)), label="cache")
    entry = data.draw(st.sampled_from(sorted(Path(cache).iterdir())), label="entry")
    blob = entry.read_bytes()
    change = data.draw(st.sampled_from(["byte", "number", "key"]), label="change")
    if change == "number":
        entry.write_bytes(change_number(data, blob.decode("utf-8")))
    elif change == "byte":
        entry.write_bytes(cut_or_flip(data, blob))
    else:
        stored = json.loads(blob)
        rename_key(data, [stored, *filter(None, [stored.get("completion")])])
        entry.write_text(json.dumps(stored), encoding="utf-8")
    try:
        runs = []
        for _ in range(2):
            caplog.clear()
            before = len(caches)
            with caplog.at_level("WARNING"):
                assert run_cached(cache) == 0
            logged = [r for r in caplog.records if entry.name in r.getMessage()]
            runs.append((len(caches) - before, len(logged)))
        assert runs[0] in ([(1, 1)] if change == "key" else [(0, 0), (1, 1)]), runs
        assert runs[1] == (0, 0), runs
    finally:
        entry.write_bytes(blob)
