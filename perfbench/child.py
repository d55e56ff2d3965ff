"""One pipeline pass, or one set-up measurement, of a workload in a fresh process.

Run by `run.py`, never imported by it. The clock starts at the first
statement, before popgate is imported, so every figure includes the import.
The last stdout line is a JSON object with the pass's wall time, CPU time
(user plus system, all threads, since the process started), per-step times,
exit codes, captured stdout of CLI steps and peak RSS.

    python3 perfbench/child.py --workload W --stage {pipeline,index,query,setup}
        --inputs DIR --work DIR --seed N [--port P] [--trace SPANS.json]
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

PAGEVIEWS_MONTH = "2022-12"
TUNE = ["--split", "0.75", "--repeats", "100", "--seed", "0"]


class CliSteps:
    """Runs `popgate.cli.main` steps in this process, timing each one."""

    def __init__(self) -> None:
        from popgate import cli

        self.cli = cli
        self.steps: list[list] = []
        self.stdout: dict[str, str] = {}

    def __call__(self, name: str, *argv: str) -> None:
        buf = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(buf):
            code = self.cli.main(list(argv))
        self.steps.append([name, time.perf_counter() - start, code])
        self.stdout[name] = buf.getvalue()


def popqa_pipeline(inputs: Path, work: Path, seed: int, port: int | None) -> dict:
    """index -> run vanilla -> run retrieval -> report -> tune -> route -> savings."""
    data, runs = str(inputs / "dataset.jsonl"), [str(work / "run_vanilla.jsonl"),
                                                  str(work / "run_retrieval.jsonl")]
    index = str(work / "index.pgidx")
    step = CliSteps()
    step("index", "index", "--corpus", str(inputs / "corpus.jsonl"), "--out", index)
    for mode, out in zip(("vanilla", "retrieval"), runs):
        step(f"run_{mode}", "run", "--dataset", data, "--mode", mode, "--oracle", "--shots", "0",
             "--seed", str(seed), "--index", index, "--out", out)
    step("report", "report", "--dataset", data, "--runs", *runs, "--out", str(work / "report"))
    step("tune", "tune", "--dataset", data, "--vanilla", runs[0], "--retrieval", runs[1],
         *TUNE, "--out", str(work / "policy.json"))
    step("route", "route", "--dataset", data, "--policy", str(work / "policy.json"),
         "--out", str(work / "decisions.jsonl"))
    step("savings", "savings", "--dataset", data, "--vanilla", runs[0], "--retrieval", runs[1],
         "--policy", str(work / "policy.json"), "--out", str(work / "savings.json"))
    return {"steps": step.steps, "stdout": step.stdout}


def bm25_index(inputs: Path, work: Path, seed: int, port: int | None) -> dict:
    """First process of bm25-zipf: build and save the index."""
    step = CliSteps()
    step("index", "index", "--corpus", str(inputs / "corpus.jsonl"),
         "--out", str(work / "index.pgidx"))
    return {"steps": step.steps, "stdout": step.stdout}


def bm25_query(inputs: Path, work: Path, seed: int, port: int | None) -> dict:
    """Second, fresh process of bm25-zipf: load the index, run, report, tune."""
    data, runs = str(inputs / "dataset.jsonl"), [str(work / "run_vanilla.jsonl"),
                                                  str(work / "run_retrieval.jsonl")]
    step = CliSteps()
    for mode, out in zip(("vanilla", "retrieval"), runs):
        step(f"run_{mode}", "run", "--dataset", data, "--mode", mode, "--oracle", "--shots", "0",
             "--seed", str(seed), "--index", str(work / "index.pgidx"), "--out", out)
    step("report", "report", "--dataset", data, "--runs", *runs, "--out", str(work / "report"))
    step("tune", "tune", "--dataset", data, "--vanilla", runs[0], "--retrieval", runs[1],
         *TUNE, "--out", str(work / "policy.json"))
    return {"steps": step.steps, "stdout": step.stdout}


def endpoint_pipeline(inputs: Path, work: Path, seed: int, port: int | None) -> dict:
    """sample_triples with CorpusTermFrequency -> annotate -> 15-shot vanilla run.

    Library calls, not the CLI: `fetch-popularity` hard-codes 10 requests/s,
    and with a rate limit the wall time is the request count over the rate
    whatever the program does.
    """
    from popgate import dataset, evaluation, lm, popularity

    base = f"http://127.0.0.1:{port}"
    triples = dataset.read_triples(inputs / "triples.jsonl")
    text = (inputs / "freq.txt").read_text(encoding="utf-8")
    sampled = dataset.sample_triples(
        triples, dataset.CorpusTermFrequency(text), per_relation_cap=2000, rng_seed=seed
    )
    examples = dataset.verbalize_all(sampled, dataset.default_templates())
    dataset.write_dataset(examples, work / "dataset.jsonl")
    pageviews = popularity.PageviewsClient(
        popularity.PageviewsConfig(
            base_url=f"{base}/pageviews", cache_dir=work / "pageviews-cache", timeout_s=10.0,
            backoff_s=0.01, max_parallelism=2, requests_per_second=None,
        )
    )
    annotated = pageviews.annotate(examples, PAGEVIEWS_MONTH)
    dataset.write_dataset(annotated, work / "dataset_pop.jsonl")
    client = lm.CompletionClient(
        lm.EndpointConfig(
            base_url=f"{base}/v1", model="stub-lm", cache_dir=work / "completions-cache",
            timeout_s=10.0, backoff_s=0.01, max_parallelism=2,
        )
    )
    records = lm.run_predictions(annotated, "vanilla", client=client, shots=15, rng_seed=seed)
    evaluation.write_records(records, work / "run_vanilla.jsonl")
    return {"steps": [], "stdout": {}}


def setup(workload: str, inputs: Path, work: Path) -> None:
    """Everything before the first question can be answered."""
    from popgate import dataset, retriever

    if workload == "endpoint-600":
        dataset.read_triples(inputs / "triples.jsonl")
        (inputs / "freq.txt").read_text(encoding="utf-8")
    else:
        dataset.read_dataset(inputs / "dataset.jsonl")
        retriever.load_index(work / "index.pgidx")


STAGES = {
    ("popqa-7k", "pipeline"): popqa_pipeline,
    ("bm25-zipf", "index"): bm25_index,
    ("bm25-zipf", "query"): bm25_query,
    ("endpoint-600", "pipeline"): endpoint_pipeline,
}


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--stage", required=True)
    parser.add_argument("--inputs", type=Path, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--port", type=int)
    parser.add_argument("--trace")
    args = parser.parse_args()
    tracer = None
    if args.trace:
        import spans

        tracer = spans.install()
    args.work.mkdir(parents=True, exist_ok=True)
    if args.stage == "setup":
        setup(args.workload, args.inputs, args.work)
        out = {"steps": [], "stdout": {}}
    else:
        out = STAGES[args.workload, args.stage](args.inputs, args.work, args.seed, args.port)
    out["wall_s"] = time.perf_counter() - T0
    usage = resource.getrusage(resource.RUSAGE_SELF)
    out["cpu_s"] = usage.ru_utime + usage.ru_stime
    out["rss_mb"] = usage.ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(args.trace)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
