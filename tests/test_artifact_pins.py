"""sha256 pins of every artifact of a seeded demo, of an oracle CLI chain and
of `build-dataset` with a frequency text and a templates file.

Byte-identical reruns are part of popgate's contract, so a change that alters
any artifact byte fails here. A change that alters bytes on purpose updates
`artifact_pins.json` in the same commit; the failure lists each new digest.

`report*.json` and `report*_per_relation.csv` hold `statistics.correlation`
results, whose last bits differ between Python minor versions, so those files
are pinned per version; on a version with no pin only their names are checked.

As a script, checks a demo directory written by an installed package:

    popgate demo --seed 5 --size 400 --repeats 10 --out DIR
    python tests/test_artifact_pins.py DIR

and writes the `build-dataset` inputs into a directory, then checks that
directory once the installed package has written its dataset there:

    python tests/test_artifact_pins.py --build-inputs DIR
    popgate build-dataset --cap 24 --seed 5 --triples DIR/triples.jsonl \
        --templates DIR/templates.json --freq-corpus DIR/freq.txt --out DIR/dataset.jsonl
    python tests/test_artifact_pins.py --build DIR
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
import sys
from pathlib import Path

from popgate.cli import main

PINS = Path(__file__).with_name("artifact_pins.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
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
    """One line per artifact of `kind` ("demo" or "cli") whose digest or
    presence differs from its pin."""
    pins = json.loads(PINS.read_text(encoding="utf-8"))[kind]
    out = [f"{kind}/{name}: not pinned, sha256 {actual[name]}"
           for name in sorted(set(actual) - set(pins))]
    for name, pin in sorted(pins.items()):
        if isinstance(pin, dict):
            pin = pin.get(VERSION)
        if name not in actual:
            out.append(f"{kind}/{name}: missing")
        elif pin is not None and actual[name] != pin:
            out.append(f"{kind}/{name}: sha256 {actual[name]}, pinned {pin}")
    return out


def run_steps(steps: list[list]) -> None:
    for argv in steps:
        with contextlib.redirect_stdout(io.StringIO()):
            assert main([str(a) for a in argv]) == 0, argv


def demo_and_chain(tmp: Path) -> tuple[Path, Path]:
    """The pinned demo under tmp/demo, then, on its dataset and corpus, the
    oracle CLI chain under tmp/cli."""
    demo, out = tmp / "demo", tmp / "cli"
    run_steps([[*DEMO_ARGV, "--out", demo]])
    data = demo / "dataset.jsonl"
    vanilla, retrieval = out / "run_vanilla.jsonl", out / "run_retrieval.jsonl"
    policy = out / "policy.json"
    run = ["run", "--dataset", data, "--oracle", "--seed", 5]
    run_steps([
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
    ])
    return demo, out


def write_build_inputs(directory: Path) -> None:
    """Seeded `triples.jsonl`, `templates.json` and `freq.txt` for the pinned
    `build-dataset` step: 60 subjects, most in two or three relations, some
    rows repeated, and a text in which each subject is mentioned a few times
    with random neighbours."""
    rng = random.Random(5)
    names = BUILD_NAMES + [(f"Name{i}", [f"N{i}"] if i % 3 else []) for i in range(48)]
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


def build_dataset(directory: Path) -> None:
    """The pinned `build-dataset` step over `write_build_inputs(directory)`."""
    write_build_inputs(directory)
    run_steps([[*BUILD_ARGV, "--triples", directory / "triples.jsonl",
                "--templates", directory / "templates.json",
                "--freq-corpus", directory / "freq.txt", "--out", directory / "dataset.jsonl"]])


def test_artifacts_match_their_pins(tmp_path):
    demo, cli = demo_and_chain(tmp_path)
    wrong = mismatches("demo", digests(demo)) + mismatches("cli", digests(cli))
    assert not wrong, "\n".join(wrong)


def test_build_dataset_matches_its_pins(tmp_path):
    build_dataset(tmp_path)
    wrong = mismatches("build", digests(tmp_path))
    assert not wrong, "\n".join(wrong)


if __name__ == "__main__":
    if sys.argv[1] == "--build-inputs":
        write_build_inputs(Path(sys.argv[2]))
        sys.exit(0)
    kind, directory = ("build", sys.argv[2]) if sys.argv[1] == "--build" else ("demo", sys.argv[1])
    wrong = mismatches(kind, digests(Path(directory)))
    print("\n".join(wrong) or f"all {kind} artifacts match {PINS.name}")
    sys.exit(1 if wrong else 0)
