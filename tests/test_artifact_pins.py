"""sha256 pins of every artifact of a seeded demo and of an oracle CLI chain.

Byte-identical reruns are part of popgate's contract, so a change that alters
any artifact byte fails here. A change that alters bytes on purpose updates
`artifact_pins.json` in the same commit; the failure lists each new digest.

`report*.json` and `report*_per_relation.csv` hold `statistics.correlation`
results, whose last bits differ between Python minor versions, so those files
are pinned per version; on a version with no pin only their names are checked.

As a script, checks a demo directory written by an installed package:

    popgate demo --seed 5 --size 400 --repeats 10 --out DIR
    python tests/test_artifact_pins.py DIR
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

from popgate.cli import main

PINS = Path(__file__).with_name("artifact_pins.json")
VERSION = f"{sys.version_info.major}.{sys.version_info.minor}"
DEMO_ARGV = ["demo", "--seed", "5", "--size", "400", "--repeats", "10"]


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


def test_artifacts_match_their_pins(tmp_path):
    demo, cli = demo_and_chain(tmp_path)
    wrong = mismatches("demo", digests(demo)) + mismatches("cli", digests(cli))
    assert not wrong, "\n".join(wrong)


if __name__ == "__main__":
    wrong = mismatches("demo", digests(Path(sys.argv[1])))
    print("\n".join(wrong) or f"all demo artifacts match {PINS.name}")
    sys.exit(1 if wrong else 0)
