"""sha256 pins of every artifact of a seeded demo, of an oracle CLI chain, of
`build-dataset` with a frequency text and a templates file, of an index and
an oracle retrieval run over text that mixes ASCII and non-ASCII words, and
of the two writers that talk HTTP: `fetch-popularity` and a 15-shot `run
--mode genread`, each against a mock server from `mockserver.py`. Cache
entries hold a fetch time or a measured latency, so the caches are pinned by
their file names.

Byte-identical reruns are part of popgate's contract, so a change that alters
any artifact byte fails here. A change that alters bytes on purpose updates
`artifact_pins.json` in the same commit; the failure lists each new digest.

As a script, checks a demo directory written by an installed package:

    popgate demo --seed 5 --size 400 --repeats 10 --out DIR
    python tests/test_artifact_pins.py DIR

and writes the `build-dataset` inputs into a directory, then checks that
directory once the installed package has written its dataset there:

    python tests/test_artifact_pins.py --build-inputs DIR
    popgate build-dataset --cap 24 --seed 5 --triples DIR/triples.jsonl \
        --templates DIR/templates.json --freq-corpus DIR/freq.txt --out DIR/dataset.jsonl
    python tests/test_artifact_pins.py --build DIR

and runs the oracle CLI chain (`index` through `savings`) over that demo
directory through the installed `popgate` console script, then checks its
outputs:

    python tests/test_artifact_pins.py --chain DIR

and runs the `fetch-popularity` step through the installed `popgate` console
script against a mock page-view server it starts, then checks its outputs:

    python tests/test_artifact_pins.py --fetch-popularity DIR

and writes a corpus and a dataset that mix ASCII and non-ASCII text, runs
`index` and an oracle `run --mode retrieval` over them through the installed
`popgate` console script, then checks the inputs and outputs:

    python tests/test_artifact_pins.py --mixed-index DIR

and runs the 15-shot `run --mode genread` twice through the installed
`popgate` console script, over a dataset it builds with `build-dataset`:
first against a mock completion endpoint it starts, then from the cache
alone; then checks the second run's output and the cache file names:

    python tests/test_artifact_pins.py --genread DIR

and checks the `# sha256 DIGEST NAME` lines that the benchmark's smoke run
prints, in order, against the `perfbench-smoke` pins:

    python3 perfbench/run.py --smoke | tee FILE
    python tests/test_artifact_pins.py --smoke-output FILE
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import re
import subprocess
import sys
import tempfile
import zlib
from pathlib import Path
from typing import Callable

from popgate.cli import main
from popgate.lm import DEFAULT_GENREAD_INSTRUCTION

from mockserver import completions_server, pageviews_server

PINS = Path(__file__).with_name("artifact_pins.json")
DEMO_ARGV = ["demo", "--seed", "5", "--size", "400", "--repeats", "10"]
BUILD_ARGV = ["build-dataset", "--cap", "24", "--seed", "5"]

# Subject labels, each with its aliases, whose matches have hard edges:
# punctuation at either end, an alias nested in another ("York" in "New
# York"), self-overlapping ("aa"), "_", a combining mark and non-ASCII
# letters. Every character of the build inputs has had one Unicode category
# since well before Python 3.10's Unicode 13, so the counts, and with them the
# pinned dataset, cannot differ by Python version.
BUILD_NAMES = [
    ("A.", ["A. B."]), ("-x", ["x-"]), ("New York", ["NY"]), ("York", []),
    ("aa", ["a"]), ("_", ["__init__"]), ("Zürich", ["Zurich"]), ("Straße", []),
    ("中国", ["中"]), ("Jose\u0301", ["José"]), ("R2-D2", ["R2"]), ("C++", ["C"]),
]
BUILD_SUBJECTS = BUILD_NAMES + [(f"Name{i}", [f"N{i}"] if i % 3 else []) for i in range(48)]
# Titles for the pinned `fetch-popularity` step: the build names, which need
# quoting in a URL path, and titles holding "/", "?", "%" and a space.
PAGEVIEW_TITLES = [label for label, _aliases in BUILD_NAMES] + [
    "AC/DC", "Who?", "50% Off", "Nobody Here", "Gone Missing",
]
GENREAD_LATENCY_MS = 25
# Words of the pinned mixed-text index: some are ASCII after `lower()`, and
# some are not: accented letters, "ß", "İ" (which lowers to "i" and a
# combining dot), the Kelvin sign (which lowers to ASCII "k"), fullwidth
# digits, "²", a combining acute, Greek, Cyrillic and CJK. Every character
# has had one Unicode category and one lowercase mapping since well before
# Python 3.10's Unicode 13, so one digest serves every Python version.
MIXED_ASCII_WORDS = [
    "Paris", "PARIS", "R2-D2", "x_y", "C++", "2nd", "it's", "Zurich", "STRASSE",
    "Istanbul", "K", "123", "x2", "Jose", "a.b", "__init__", "0x1F", "New York",
]
MIXED_OTHER_WORDS = [
    "Zürich", "Straße", "İstanbul", "\u212a", "\uff11\uff12\uff13", "x\u00b2",
    "Jose\u0301", "José", "Αθήνα", "Москва", "中国", "naïve", "ÉCOLE",
]
# What separates two words of a mixed passage or question.
MIXED_GAPS = [" ", " ", ", ", "-", "_", ".", "\n", "!", "\t", " (", ") "]
BUILD_TEMPLATES = {
    "director": "Who directed [subj]?",
    "author": "Who wrote [subj]?",
    "capital of": "[subj] is the capital of what?",
    "sport": "Which sport does [subj] play?",
}
# What may touch a mention in the frequency text; "" joins it to its neighbour.
BUILD_EDGES = [
    "", "", " ", " ", ", ", ".", "-", "_", "a", "1", "é", "\u0301", "中", "\u00a0", "\n",
]


def digests(directory: Path) -> dict[str, str]:
    """sha256 of each file under `directory`, by its relative POSIX path."""
    return {
        path.relative_to(directory).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(directory.rglob("*"))
        if path.is_file()
    }


def mismatches(kind: str, actual: dict[str, str]) -> list[str]:
    """One line per artifact of `kind` (a top-level key of the pins file)
    whose digest or presence differs from its pin, or whose pin is not one
    sha256 hex string."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))[kind]
    out = [f"{kind}/{name}: not pinned, sha256 {actual[name]}"
           for name in sorted(set(actual) - set(pins))]
    for name, pin in sorted(pins.items()):
        if not (isinstance(pin, str) and re.fullmatch("[0-9a-f]{64}", pin)):
            out.append(f"{kind}/{name}: pin {pin!r} is not a sha256 hex string")
        elif name not in actual:
            out.append(f"{kind}/{name}: missing")
        elif actual[name] != pin:
            out.append(f"{kind}/{name}: sha256 {actual[name]}, pinned {pin}")
    return out


def smoke_mismatches(text: str) -> list[str]:
    """One line per `# sha256 DIGEST NAME` line of a benchmark smoke output
    that differs from its place in the ordered `perfbench-smoke` pins, and
    one more when the output holds more or fewer such lines."""
    pins = [tuple(pin) for pin in json.loads(PINS.read_text(encoding="utf-8"))["perfbench-smoke"]]
    actual = [tuple(line.split(" ", 3)[2:]) for line in text.splitlines()
              if line.startswith("# sha256 ")]
    out = [f"perfbench-smoke line {i}: sha256 {got[0]} {got[1]}, pinned {pin[0]} {pin[1]}"
           for i, (got, pin) in enumerate(zip(actual, pins), start=1) if got != pin]
    if len(actual) != len(pins):
        out.append(f"perfbench-smoke: {len(actual)} sha256 lines, pinned {len(pins)}")
    return out


def run_steps(steps: list[list]) -> None:
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv


def chain_steps(demo: Path, out: Path) -> list[list]:
    """The argv of each step of the oracle CLI chain over the demo in `demo`,
    writing under `out`: `index` through `savings`."""
    data = demo / "dataset.jsonl"
    vanilla, retrieval = out / "run_vanilla.jsonl", out / "run_retrieval.jsonl"
    policy = out / "policy.json"
    run = ["run", "--dataset", data, "--oracle", "--seed", 5]
    steps = [
        ["index", "--corpus", demo / "corpus.jsonl", "--out", out / "index.pgidx"],
        [*run, "--mode", "vanilla", "--shots", 0, "--out", vanilla],
        [*run, "--mode", "retrieval", "--shots", 0, "--index", out / "index.pgidx",
         "--out", retrieval],
        [*run, "--mode", "vanilla", "--shots", 15, "--out", out / "run_vanilla_15.jsonl"],
        ["report", "--dataset", data, "--runs", vanilla, retrieval, "--out", out / "report"],
        ["tune", "--dataset", data, "--vanilla", vanilla, "--retrieval", retrieval,
         "--repeats", 10, "--seed", 5, "--out", policy],
        ["route", "--dataset", data, "--policy", policy, "--out", out / "decisions.jsonl"],
        ["savings", "--dataset", data, "--vanilla", vanilla, "--retrieval", retrieval,
         "--policy", policy, "--out", out / "savings.json"],
    ]
    return [[str(a) for a in step] for step in steps]


def demo_and_chain(tmp: Path) -> tuple[Path, Path]:
    """The pinned demo under tmp/demo, then, on its dataset and corpus, the
    oracle CLI chain under tmp/cli."""
    demo, out = tmp / "demo", tmp / "cli"
    run_steps([[*DEMO_ARGV, "--out", demo]])
    run_steps(chain_steps(demo, out))
    return demo, out


def write_build_inputs(directory: Path) -> None:
    """Seeded `triples.jsonl`, `templates.json` and `freq.txt` for the pinned
    `build-dataset` step: 60 subjects, most in two or three relations, some
    rows repeated, and a text in which each subject is mentioned a few times
    with random neighbours."""
    rng = random.Random(5)
    names = BUILD_SUBJECTS
    rows = []
    for i, (label, aliases) in enumerate(names):
        for relation in BUILD_TEMPLATES:
            if rng.random() < 0.55:
                objects = [{"id": f"O{i}{relation[0]}", "label": f"Object {i} {relation}",
                            "aliases": [f"Obj{i}"]}]
                row = {"subj_id": f"S{i}", "subj": label, "subj_aliases": aliases,
                       "relation": relation, "objects": objects}
                rows.append(row)
                if rng.random() < 0.1:
                    rows.append(row)
    rng.shuffle(rows)
    words = [a for label, aliases in names for a in (label, *aliases)]
    words += ["the", "of", "York", "Yorker", "aaa", "x", "B", "2"]
    text = []
    for _ in range(700):
        text += [rng.choice(BUILD_EDGES), rng.choice(words)]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "triples.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )
    (directory / "templates.json").write_text(json.dumps(BUILD_TEMPLATES), encoding="utf-8")
    (directory / "freq.txt").write_text("".join(text), encoding="utf-8")


def build_dataset(directory: Path, popgate: Callable[[list[str]], None]) -> None:
    """The pinned `build-dataset` step over `write_build_inputs(directory)`,
    run by `popgate(argv)`."""
    write_build_inputs(directory)
    popgate([str(a) for a in [*BUILD_ARGV, "--triples", directory / "triples.jsonl",
                              "--templates", directory / "templates.json",
                              "--freq-corpus", directory / "freq.txt",
                              "--out", directory / "dataset.jsonl"]])


def names_digest(directory: Path) -> str:
    """sha256 of the sorted names of the files in `directory`, one per line."""
    names = "".join(f"{path.name}\n" for path in sorted(directory.iterdir()))
    return hashlib.sha256(names.encode("utf-8")).hexdigest()


def write_pageview_inputs(directory: Path) -> None:
    """`dataset.jsonl` for the pinned `fetch-popularity` step: one question
    per title of PAGEVIEW_TITLES, and a second one for the first three."""
    rows = [{"id": f"S{i}:{relation}", "question": f"Q{i} {relation}?",
             "answers": [f"A{i}"], "subj": title, "subj_id": f"S{i}", "relation": relation}
            for i, title in enumerate(PAGEVIEW_TITLES)
            for relation in ("director", "sport")[: 2 if i < 3 else 1]]
    directory.mkdir(parents=True, exist_ok=True)
    (directory / "dataset.jsonl").write_text(
        "".join(json.dumps(row, ensure_ascii=False) + "\n" for row in rows), encoding="utf-8"
    )


def pageview_counts() -> dict[str, int]:
    """What the mock page-view server answers: seeded monthly views of every
    order of magnitude from 0 to past 2**32, for each title but the last two,
    which get a 404."""
    rng = random.Random(5)
    return {title: rng.randrange(10 ** rng.randrange(14)) for title in PAGEVIEW_TITLES[:-2]}


def fetch_popularity(directory: Path, popgate: Callable[[list[str]], None]) -> dict[str, str]:
    """The pinned `fetch-popularity` step against a mock page-view server,
    run by `popgate(argv)`. Digests of its dataset and of its cache file names."""
    write_pageview_inputs(directory)
    cache, out = directory / "pageviews-cache", directory / "dataset_pop.jsonl"
    with pageviews_server(pageview_counts()) as server:
        popgate([str(a) for a in ["fetch-popularity", "--dataset", directory / "dataset.jsonl",
                                  "--month", "2022-12", "--cache", cache,
                                  "--endpoint", server.base_url, "--out", out]])
    return {out.name: hashlib.sha256(out.read_bytes()).hexdigest(),
            "pageviews-cache names": names_digest(cache)}


def genread_reply(dataset: Path) -> Callable[[str], str]:
    """The mock completion endpoint's text for a prompt of a genread run over
    `dataset`: a stage-1 document naming the gold answer for about two
    questions in three and empty for the rest; in stage 2, the gold answer
    when the document named it."""
    gold = {row["question"]: sorted(row["answers"])[0]
            for row in map(json.loads, dataset.read_text(encoding="utf-8").splitlines())}

    def reply(prompt: str) -> str:
        if prompt.startswith(DEFAULT_GENREAD_INSTRUCTION):
            question = prompt.split("\n\n", 1)[1]
            if zlib.crc32(question.encode("utf-8")) % 3 == 0:
                return ""
            return f"{question} The answer is {gold[question]}."
        question = prompt.rsplit("Q: ", 1)[1].removesuffix(" A:")
        return gold[question] if f"The answer is {gold[question]}." in prompt else "no idea"

    return reply


def genread_from_cache(directory: Path, popgate: Callable[[list[str]], None]) -> dict[str, str]:
    """`run --mode genread --shots 15` over the pinned build dataset against
    a mock completion endpoint; then every cache entry's latency set to
    GENREAD_LATENCY_MS and the same run again with the server shut down, so
    that every completion must come from the cache. Each step is run by
    `popgate(argv)`. Digests of the second run's file and of the cache file
    names."""
    build_dataset(directory, popgate)
    dataset, endpoint = directory / "dataset.jsonl", directory / "endpoint.json"
    cache, out = directory / "completions-cache", directory / "run_genread.jsonl"
    run = [str(a) for a in ["run", "--dataset", dataset, "--mode", "genread", "--shots", 15,
                            "--seed", 5, "--endpoint", endpoint]]
    with completions_server(genread_reply(dataset)) as server:
        endpoint.write_text(json.dumps({
            "base_url": server.base_url, "endpoint_id": "pin-endpoint", "model": "pin-lm",
            "cache_dir": str(cache), "max_retries": 0,
        }))
        popgate([*run, "--out", str(directory / "run_genread_cold.jsonl")])
    for path in cache.iterdir():
        entry = json.loads(path.read_text(encoding="utf-8"))
        entry["completion"]["latency_ms"] = GENREAD_LATENCY_MS
        path.write_text(json.dumps(entry, ensure_ascii=False, sort_keys=True), encoding="utf-8")
    popgate([*run, "--out", str(out)])
    return {out.name: hashlib.sha256(out.read_bytes()).hexdigest(),
            "completions-cache names": names_digest(cache)}


def mixed_text(rng: random.Random, words: list[str]) -> str:
    """`words` joined by random MIXED_GAPS, with a gap before the first."""
    return "".join(rng.choice(MIXED_GAPS) + word for word in words)


def write_mixed_inputs(directory: Path) -> None:
    """Seeded `corpus.jsonl` and `dataset.jsonl` for the pinned mixed-text
    index: 40 passages, every second one all ASCII and the rest mixing in
    non-ASCII words, and 24 questions, each naming two words of one passage
    and asking for one of its words; every second question may also draw a
    non-ASCII word from outside the passage."""
    rng = random.Random(5)
    every = MIXED_ASCII_WORDS + MIXED_OTHER_WORDS
    texts = [rng.choices(every if i % 2 else MIXED_ASCII_WORDS, k=rng.randint(3, 14))
             for i in range(40)]
    passages = [{"doc_id": f"m{i:02d}", "title": f"Passage {i}", "text": mixed_text(rng, words)}
                for i, words in enumerate(texts)]
    rows = []
    for i in range(24):
        words = rng.choice(texts)
        if i % 2:
            words = [*words, rng.choice(MIXED_OTHER_WORDS)]
        relation = ("director", "author")[i % 3 == 0]
        rows.append({
            "id": f"M{i}:{relation}", "question": f"Who is{mixed_text(rng, rng.sample(words, 2))}?",
            "answers": [rng.choice(words)], "subj": f"M{i}", "subj_id": f"M{i}",
            "relation": relation, "popularity": rng.randrange(10 ** 6),
        })
    directory.mkdir(parents=True, exist_ok=True)
    for name, lines in (("corpus.jsonl", passages), ("dataset.jsonl", rows)):
        (directory / name).write_text(
            "".join(json.dumps(line, ensure_ascii=False) + "\n" for line in lines),
            encoding="utf-8",
        )


def mixed_index(directory: Path, popgate: Callable[[list[str]], None]) -> dict[str, str]:
    """The pinned mixed-text `index` and oracle `run --mode retrieval`, each
    run by `popgate(argv)`. Digests of their inputs and outputs."""
    write_mixed_inputs(directory)
    index = directory / "index.pgidx"
    for argv in (
        ["index", "--corpus", directory / "corpus.jsonl", "--out", index],
        ["run", "--dataset", directory / "dataset.jsonl", "--mode", "retrieval", "--oracle",
         "--shots", 0, "--seed", 5, "--index", index,
         "--out", directory / "run_retrieval.jsonl"],
    ):
        popgate([str(a) for a in argv])
    return digests(directory)


def test_artifacts_match_their_pins(tmp_path):
    demo, cli = demo_and_chain(tmp_path)
    wrong = mismatches("demo", digests(demo)) + mismatches("cli", digests(cli))
    assert not wrong, "\n".join(wrong)


def test_a_pin_that_is_not_one_digest_is_a_mismatch(tmp_path, monkeypatch):
    digest = "ab" * 32
    pins = {"demo": {"a.json": {"3.11": digest}, "b.csv": digest.upper(), "c.csv": digest}}
    pins_file = tmp_path / "pins.json"
    pins_file.write_text(json.dumps(pins), encoding="utf-8")
    monkeypatch.setattr(sys.modules[__name__], "PINS", pins_file)
    assert mismatches("demo", {"a.json": digest, "b.csv": digest, "c.csv": digest}) == [
        "demo/a.json: pin {'3.11': '%s'} is not a sha256 hex string" % digest,
        f"demo/b.csv: pin '{digest.upper()}' is not a sha256 hex string",
    ]


def test_smoke_pins_are_digest_name_pairs():
    pins = json.loads(PINS.read_text(encoding="utf-8"))["perfbench-smoke"]
    assert pins and all(
        len(pin) == 2 and re.fullmatch("[0-9a-f]{64}", pin[0]) and pin[1] for pin in pins
    )


def test_smoke_output_differing_from_its_pins_is_a_mismatch():
    pins = json.loads(PINS.read_text(encoding="utf-8"))["perfbench-smoke"]
    lines = [f"# sha256 {digest} {name}" for digest, name in pins]
    text = "\n".join(["# workload popqa-7k", *lines, "smoke: ok"])
    assert smoke_mismatches(text) == []
    digest, name = pins[3]
    changed = text.replace(f"{digest} {name}", f"{digest[:-1]}x {name}", 1)
    assert smoke_mismatches(changed) == [
        f"perfbench-smoke line 4: sha256 {digest[:-1]}x {name}, pinned {digest} {name}"
    ]
    assert smoke_mismatches("\n".join(lines[:-1])) == [
        f"perfbench-smoke: {len(pins) - 1} sha256 lines, pinned {len(pins)}"
    ]


def test_build_dataset_matches_its_pins(tmp_path):
    build_dataset(tmp_path, lambda argv: run_steps([argv]))
    wrong = mismatches("build", digests(tmp_path))
    assert not wrong, "\n".join(wrong)


def test_fetch_popularity_matches_its_pins(tmp_path):
    wrong = mismatches("fetch-popularity", fetch_popularity(tmp_path, lambda argv: run_steps([argv])))
    assert not wrong, "\n".join(wrong)


def test_genread_run_from_cache_matches_its_pins(tmp_path):
    wrong = mismatches("genread", genread_from_cache(tmp_path, lambda argv: run_steps([argv])))
    assert not wrong, "\n".join(wrong)


def test_mixed_text_index_matches_its_pins(tmp_path):
    wrong = mismatches("mixed-index", mixed_index(tmp_path, lambda argv: run_steps([argv])))
    assert not wrong, "\n".join(wrong)


def installed_popgate(argv: list[str]) -> None:
    subprocess.run(["popgate", *argv], check=True)


def installed_chain(demo: Path) -> dict[str, str]:
    """Digests of the oracle CLI chain over the demo in `demo`, each step run
    by the installed `popgate` console script in a temporary directory."""
    with tempfile.TemporaryDirectory() as tmp:
        for argv in chain_steps(demo, Path(tmp)):
            installed_popgate(argv)
        return digests(Path(tmp))


if __name__ == "__main__":
    if sys.argv[1] == "--build-inputs":
        write_build_inputs(Path(sys.argv[2]))
        sys.exit(0)
    if sys.argv[1] == "--smoke-output":
        wrong = smoke_mismatches(Path(sys.argv[2]).read_text(encoding="utf-8"))
        print("\n".join(wrong) or f"all perfbench-smoke artifacts match {PINS.name}")
        sys.exit(1 if wrong else 0)
    if sys.argv[1] == "--fetch-popularity":
        kind, actual = "fetch-popularity", fetch_popularity(Path(sys.argv[2]), installed_popgate)
    elif sys.argv[1] == "--genread":
        kind, actual = "genread", genread_from_cache(Path(sys.argv[2]), installed_popgate)
    elif sys.argv[1] == "--mixed-index":
        kind, actual = "mixed-index", mixed_index(Path(sys.argv[2]), installed_popgate)
    elif sys.argv[1] == "--chain":
        kind, actual = "cli", installed_chain(Path(sys.argv[2]))
    elif sys.argv[1] == "--build":
        kind, actual = "build", digests(Path(sys.argv[2]))
    else:
        kind, actual = "demo", digests(Path(sys.argv[1]))
    wrong = mismatches(kind, actual)
    print("\n".join(wrong) or f"all {kind} artifacts match {PINS.name}")
    sys.exit(1 if wrong else 0)
