"""Seeded benchmark for popgate.

Run from the repository root:

    python3 perfbench/run.py --workload popqa-7k --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --smoke

A run generates the workload's inputs from the seed, runs the pipeline in
fresh processes (`child.py`) against the sources under `src/`, checks every
output, and prints one JSON object as its last stdout line:
`{"correct", "attempted", "failed", "metrics"}`. With `--trace 0` the metrics
are the end-to-end ones over the samples that fit in `--seconds`: a sample is
a cold pass in a fresh directory, followed on the endpoint workload by a warm
pass that reads the program's caches. With `--trace 1` they are the per-layer
ones from one traced sample, plus the tracing overhead. Lines before it, prefixed `#`, give the environment,
artifact hashes, check results and sample counts. The exit code is 1 when a
check or an operation failed, 2 when the sources are missing.

`--smoke` runs every workload at toy size in both modes with all checks on
and no timing assertions. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
import urllib.request
from pathlib import Path

import checks
import gen
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK_ROOT = ROOT / ".perfbench"
RUN_LIMIT_S = 170.0

# End-to-end metrics with their unit; each is the median over a run's
# samples. The result line carries RESULT_END_TO_END, whose times are CPU
# times; the others are printed on "#" lines only: the wall-clock figures,
# which the host's steal time makes too unsteady to gate, and warm_rerun_s,
# which exists only where a program cache makes a warm pass differ from a
# cold one.
END_TO_END = {
    "pipeline_cpu_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
    "pipeline_s": "s",
    "questions_per_s": "1/s",
    "setup_wall_s": "s",
    "warm_rerun_s": "s",
}
RESULT_END_TO_END = ("pipeline_cpu_s", "setup_s", "peak_rss_mb")
PER_LAYER = {
    "dataset.sample_s": "s",
    "dataset.term_freq_s": "s",
    "dataset.term_freq_calls": "count",
    "dataset.accept_ratio": "ratio",
    "dataset.read_s": "s",
    "dataset.write_s": "s",
    "popularity.annotate_cold_s": "s",
    "popularity.annotate_warm_s": "s",
    "popularity.fetch_ms_p50": "ms",
    "popularity.fetch_ms_p99": "ms",
    "popularity.requests": "count",
    "popularity.retries": "count",
    "popularity.cache_hit_ratio": "ratio",
    "popularity.cache_hit_ratio_warm": "ratio",
    "retriever.build_s": "s",
    "retriever.save_s": "s",
    "retriever.load_s": "s",
    "retriever.index_bytes": "bytes",
    "retriever.search_ms_p50": "ms",
    "retriever.search_ms_p95": "ms",
    "retriever.search_ms_p99": "ms",
    "retriever.empty_results": "count",
    "retriever.recall1": "ratio",
    "lm.fewshot_s": "s",
    "lm.fewshot_calls": "count",
    "lm.run_vanilla_s": "s",
    "lm.run_retrieval_s": "s",
    "lm.complete_ms_p50": "ms",
    "lm.complete_ms_p99": "ms",
    "lm.cache_read_ms_p50": "ms",
    "lm.http_requests": "count",
    "lm.http_retries": "count",
    "lm.cache_hit_ratio": "ratio",
    "lm.cache_hit_ratio_warm": "ratio",
    "lm.prompt_tokens_mean": "tokens",
    "evaluation.report_s": "s",
    "evaluation.records_read_s": "s",
    "evaluation.records_write_s": "s",
    "adaptive.tune_s": "s",
    "adaptive.tune_ms_per_repeat": "ms",
    "adaptive.route_s": "s",
    "adaptive.cost_report_s": "s",
    "cli.index_s": "s",
    "cli.run_vanilla_s": "s",
    "cli.run_retrieval_s": "s",
    "cli.report_s": "s",
    "cli.tune_s": "s",
    "cli.route_s": "s",
    "cli.savings_s": "s",
    "http_requests_per_question": "count",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}


def say(*parts) -> None:
    print("#", *parts, flush=True)


def percentile(values, q: int) -> float:
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Run:
    """One workload at one seed: inputs, fresh-process passes, and a ledger
    of attempted and failed operations (process exits, CLI steps, question
    records, HTTP calls, output checks)."""

    def __init__(self, workload: "Workload", seed: int, sizes: dict, base: Path):
        self.workload = workload
        self.seed = seed
        self.sizes = sizes
        self.dir = base / f"{workload.name}-seed{seed}-{os.getpid()}"
        self.inputs = self.dir / "inputs"
        self.started = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.port: int | None = None
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.children = 0

    def op(self, what: str, failed: int, count: int = 1) -> None:
        """Record `count` attempted operations of which `failed` failed."""
        self.attempted += count
        failed = int(failed)
        if failed:
            self.failed += failed
            self.failures.append(f"{what} ({failed} of {count})")

    def check(self, results) -> None:
        for name, ok, detail in results:
            say("check", name, "ok" if ok else "FAILED", detail)
            self.op(f"check {name}", not ok)

    def left_s(self) -> float:
        return RUN_LIMIT_S - (time.perf_counter() - self.started)

    def child(self, stage: str, work: Path, trace: Path | None = None) -> dict | None:
        cmd = [sys.executable, str(HERE / "child.py"), "--workload", self.workload.name,
               "--stage", stage, "--inputs", str(self.inputs), "--work", str(work),
               "--seed", str(self.seed)]
        if self.port is not None:
            cmd += ["--port", str(self.port)]
        if trace is not None:
            cmd += ["--trace", str(trace)]
        # Each process gets another string-hash seed, as separate invocations
        # would, so output that depends on set or dict order fails a check.
        self.children += 1
        env = dict(self.env, PYTHONHASHSEED=str((self.seed * 1000 + self.children) % 2**32))
        try:
            proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                                  timeout=max(5.0, self.left_s()))
        except subprocess.TimeoutExpired:
            self.op(f"{stage} process timed out", 1)
            return None
        self.op(f"{stage} process exit {proc.returncode}", proc.returncode != 0)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr[-4000:])
            return None
        out = json.loads(proc.stdout.strip().splitlines()[-1])
        for name, _secs, code in out["steps"]:
            self.op(f"step {name} exit {code}", code != 0)
            if code != 0:
                sys.stderr.write(proc.stderr[-4000:])
        return out

    def stub(self, path: str) -> dict:
        with urllib.request.urlopen(f"http://127.0.0.1:{self.port}{path}", timeout=10) as resp:
            return json.load(resp)


class Workload:
    """Inputs, pass and checks of one workload; subclasses fill them in."""

    name = ""
    sizes: dict = {}
    smoke_sizes: dict = {}
    processes: tuple[str, ...] = ("pipeline",)
    warm = False

    def generate(self, run: Run) -> dict:
        raise NotImplementedError

    def questions(self, run: Run, work: Path) -> int:
        return len(checks.read_jsonl(run.inputs / "dataset.jsonl"))

    def run_pass(self, run: Run, work: Path, trace_stem: Path | None = None) -> dict:
        """All processes of one pass; None when one of them failed."""
        walls, cpus, rss, steps, stdout, span_files = [], [], [], [], {}, []
        for stage in self.processes:
            trace = None if trace_stem is None else trace_stem.with_name(
                f"{trace_stem.name}.{stage}.json")
            out = run.child(stage, work, trace)
            if out is None:
                return None
            walls.append(out["wall_s"])
            cpus.append(out["cpu_s"])
            rss.append(out["rss_mb"])
            steps += out["steps"]
            stdout.update(out["stdout"])
            if trace is not None:
                span_files.append(trace)
        return {"wall_s": sum(walls), "cpu_s": sum(cpus), "rss_mb": max(rss), "steps": steps,
                "stdout": stdout, "span_files": span_files}

    def sample(self, run: Run, work: Path, trace_stem: Path | None = None) -> dict | None:
        """One cold pass in a fresh directory. Workloads with program caches
        follow it with a warm pass in the same directory, under "warm"."""
        stem = trace_stem and trace_stem.with_name(trace_stem.name + "-cold")
        cold = self.run_pass(run, work, stem)
        if cold is None:
            return None
        cold["state"] = self.snapshot(work)
        if self.warm:
            stem = trace_stem and trace_stem.with_name(trace_stem.name + "-warm")
            warm = self.run_pass(run, work, stem)
            if warm is None:
                return None
            warm["state"] = self.snapshot(work)
            cold["warm"] = warm
        self.check_sample(run, cold)
        return cold

    def snapshot(self, work: Path) -> dict:
        return {"hashes": checks.artifact_hashes(work)}

    def check_sample(self, run: Run, sample: dict) -> None:
        """Checks on every sample that need no artifact parsing."""

    def check_first(self, run: Run, work: Path, sample: dict) -> None:
        """Full output checks on the first sample of a run."""
        for name, digest in sorted(sample["state"]["hashes"].items()):
            say("sha256", digest, name)

    def check_same(self, run: Run, first: dict, sample: dict, label: str) -> None:
        """A later cold pass, in another fresh directory and process with
        another hash seed, wrote the same artifacts as the first."""
        run.check([(f"artifacts_identical_{label}", sample["state"] == first["state"],
                    f"{len(first['state']['hashes'])} artifacts")])

    def check_records(self, run: Run, work: Path, ids: list[str], files) -> None:
        for name in files:
            expected, missing = checks.records_cover(work / name, ids)
            run.op(f"questions without a record in {name}", missing, expected)
            if missing:
                say("check", f"records_cover_{name}", "FAILED", f"{missing} of {expected}")

    def setup(self, run: Run, work: Path) -> dict | None:
        return run.child("setup", work)


class PopQA(Workload):
    """7k questions through the in-process CLI pipeline; tuning and JSONL
    artifact I/O dominate, BM25, few-shot assembly and HTTP do not."""

    name = "popqa-7k"
    sizes = {"questions": 7000}
    smoke_sizes = {"questions": 320}

    def generate(self, run: Run) -> dict:
        return gen.popqa(run.inputs, run.seed, **run.sizes)

    def check_first(self, run: Run, work: Path, sample: dict) -> None:
        super().check_first(run, work, sample)
        ids = [row["id"] for row in checks.read_jsonl(run.inputs / "dataset.jsonl")]
        self.check_records(run, work, ids, ("run_vanilla.jsonl", "run_retrieval.jsonl"))
        run.check(checks.popqa_adaptive(run.inputs, work, sample["stdout"]["tune"]))


class Bm25Zipf(Workload):
    """A Zipf(1) corpus whose top ranks are the query words, so every search
    touches the longest posting lists; index build, save, load and search
    dominate. The index is built in one process and loaded in a fresh one."""

    name = "bm25-zipf"
    sizes = {"passages": 4000, "questions": 208}
    smoke_sizes = {"passages": 400, "questions": 32}
    processes = ("index", "query")

    def generate(self, run: Run) -> dict:
        return gen.bm25_zipf(run.inputs, run.seed, **run.sizes)

    def check_first(self, run: Run, work: Path, sample: dict) -> None:
        super().check_first(run, work, sample)
        ids = [row["id"] for row in checks.read_jsonl(run.inputs / "dataset.jsonl")]
        self.check_records(run, work, ids, ("run_vanilla.jsonl", "run_retrieval.jsonl"))
        run.check(checks.bm25_brute_force(run.inputs, work, run.seed))


class Endpoint(Workload):
    """Raw triples through term-frequency sampling, page views and a 15-shot
    HTTP model against a stub server; the cold pass fills both on-disk caches
    and the warm pass reads them."""

    name = "endpoint-600"
    sizes = {"triples": 800, "text_bytes": 16000}
    smoke_sizes = {"triples": 96, "text_bytes": 2400}
    warm = True
    DATASETS = ("dataset.jsonl", "dataset_pop.jsonl")

    def generate(self, run: Run) -> dict:
        return gen.endpoint(run.inputs, run.seed, **run.sizes)

    def questions(self, run: Run, work: Path) -> int:
        return len(checks.read_jsonl(work / "dataset.jsonl"))

    def run_pass(self, run: Run, work: Path, trace_stem: Path | None = None) -> dict:
        run.stub("/__reset")
        result = super().run_pass(run, work, trace_stem)
        if result is not None:
            result["stub"] = run.stub("/__stats")
        return result

    def snapshot(self, work: Path) -> dict:
        return {
            "hashes": checks.artifact_hashes(work, self.DATASETS),
            "records": checks.records_without_latency(work / "run_vanilla.jsonl"),
        }

    def check_sample(self, run: Run, sample: dict) -> None:
        stats = sample["stub"]
        run.op("HTTP calls that exhausted their retries",
               stats["distinct_keys"] - stats["succeeded_keys"], stats["distinct_keys"])
        run.check(checks.endpoint_passes(sample["state"], sample["warm"]["state"], stats,
                                         sample["warm"]["stub"]))

    def check_first(self, run: Run, work: Path, sample: dict) -> None:
        super().check_first(run, work, sample)
        ids = [row["id"] for row in checks.read_jsonl(work / "dataset.jsonl")]
        self.check_records(run, work, ids, ("run_vanilla.jsonl",))
        run.check(checks.popularity_matches_stub(work))

    def start_stub(self, run: Run) -> subprocess.Popen:
        proc = subprocess.Popen([sys.executable, str(HERE / "stub_server.py")], cwd=ROOT,
                                stdout=subprocess.PIPE, text=True)
        run.port = int(proc.stdout.readline())
        return proc


WORKLOADS = {w.name: w for w in (PopQA(), Bm25Zipf(), Endpoint())}


def environment(run: Run, info: dict) -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "")
    except OSError:
        pass
    return {
        "workload": run.workload.name,
        "seed": run.seed,
        "sizes": info,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu or platform.processor(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "timings": "wall-clock on the machine above; compare only runs made on the same machine",
    }


def layer_metrics(run: Run, untraced: dict, cold: dict, work: Path) -> dict:
    """Per-layer figures from the spans of one traced sample: its cold pass
    and, on the workload with program caches, its warm pass."""
    def load(files):
        """Spans of every process of a pass, ids made unique across processes."""
        out = []
        for i, path in enumerate(files):
            for span in spans.load(path):
                span["id"], span["parent"] = (i, span["id"]), (i, span["parent"])
                out.append(span)
        return out

    cold_spans = load(cold["span_files"])
    warm_spans = load(cold["warm"]["span_files"]) if "warm" in cold else []

    def named(span_list, name, attr=None):
        return [s for s in span_list if s["name"] == name and (attr is None or s["attr"] == attr)]

    def self_s(name, attr=None):
        return sum(s["self"] for s in named(cold_spans, name, attr))

    def ms(span_list, name):
        return [s["dur"] * 1000.0 for s in named(span_list, name)]

    def http(span_list, name):
        """(calls, HTTP requests, retries, cache hits) of the calls named `name`."""
        calls = {s["id"]: 0 for s in named(span_list, name)}
        for s in named(span_list, "http.request"):
            if s["parent"] in calls:
                calls[s["parent"]] += 1
        requests = sum(calls.values())
        retries = sum(max(0, n - 1) for n in calls.values())
        hits = sum(n == 0 for n in calls.values())
        return len(calls), requests, retries, hits

    def ratio(a, b):
        return a / b if b else 0.0

    sample = named(cold_spans, "dataset.sample_triples")
    pv_calls, pv_requests, pv_retries, pv_hits = http(cold_spans, "popularity.fetch")
    pv_warm_calls, _, _, pv_warm_hits = http(warm_spans, "popularity.fetch")
    lm_calls, lm_requests, lm_retries, lm_hits = http(cold_spans, "lm.complete")
    lm_warm_calls, _, _, lm_warm_hits = http(warm_spans, "lm.complete")
    tunes = named(cold_spans, "adaptive.tune_thresholds")
    searches = ms(cold_spans, "retriever.search")
    records = [row for name in ("run_vanilla.jsonl", "run_retrieval.jsonl")
               if (work / name).exists() for row in checks.read_jsonl(work / name)]
    retrieval = [row for row in records if row["mode"] == "retrieval"]
    index = work / "index.pgidx"
    steps = {name: secs for name, secs, _code in untraced["steps"]}
    questions = run.workload.questions(run, work)
    stub_requests = sum(cold["stub"]["requests"].values()) if "stub" in cold else 0
    values = {
        "dataset.sample_s": self_s("dataset.sample_triples"),
        "dataset.term_freq_s": self_s("dataset.term_freq"),
        "dataset.term_freq_calls": len(named(cold_spans, "dataset.term_freq")),
        "dataset.accept_ratio": ratio(sum(s["attr"][1] for s in sample),
                                      sum(s["attr"][0] for s in sample)),
        "dataset.read_s": self_s("dataset.read_dataset"),
        "dataset.write_s": self_s("dataset.write_dataset"),
        "popularity.annotate_cold_s": sum(s["dur"] for s in named(cold_spans, "popularity.annotate")),
        "popularity.annotate_warm_s": sum(s["dur"] for s in named(warm_spans, "popularity.annotate")),
        "popularity.fetch_ms_p50": percentile(ms(cold_spans, "popularity.fetch"), 50),
        "popularity.fetch_ms_p99": percentile(ms(cold_spans, "popularity.fetch"), 99),
        "popularity.requests": pv_requests,
        "popularity.retries": pv_retries,
        "popularity.cache_hit_ratio": ratio(pv_hits, pv_calls),
        "popularity.cache_hit_ratio_warm": ratio(pv_warm_hits, pv_warm_calls),
        "retriever.build_s": self_s("retriever.build_index"),
        "retriever.save_s": self_s("retriever.save_index"),
        "retriever.load_s": self_s("retriever.load_index"),
        "retriever.index_bytes": index.stat().st_size if index.exists() else 0,
        "retriever.search_ms_p50": percentile(searches, 50),
        "retriever.search_ms_p95": percentile(searches, 95),
        "retriever.search_ms_p99": percentile(searches, 99),
        "retriever.empty_results": len(named(cold_spans, "retriever.search", 0)),
        "retriever.recall1": ratio(sum(bool(r["retrieval_recall1"]) for r in retrieval),
                                   len(retrieval)),
        "lm.fewshot_s": self_s("lm.build_fewshot_pool"),
        "lm.fewshot_calls": len(named(cold_spans, "lm.build_fewshot_pool")),
        "lm.run_vanilla_s": self_s("lm.run_predictions", "vanilla"),
        "lm.run_retrieval_s": self_s("lm.run_predictions", "retrieval"),
        "lm.complete_ms_p50": percentile(ms(cold_spans, "lm.complete"), 50),
        "lm.complete_ms_p99": percentile(ms(cold_spans, "lm.complete"), 99),
        "lm.cache_read_ms_p50": percentile(ms(warm_spans, "lm.complete"), 50),
        "lm.http_requests": lm_requests,
        "lm.http_retries": lm_retries,
        "lm.cache_hit_ratio": ratio(lm_hits, lm_calls),
        "lm.cache_hit_ratio_warm": ratio(lm_warm_hits, lm_warm_calls),
        "lm.prompt_tokens_mean": ratio(sum(r["prompt_tokens"] for r in records), len(records)),
        "evaluation.report_s": self_s("evaluation.report"),
        "evaluation.records_read_s": self_s("evaluation.read_records"),
        "evaluation.records_write_s": self_s("evaluation.write_records"),
        "adaptive.tune_s": self_s("adaptive.tune_thresholds"),
        "adaptive.tune_ms_per_repeat": ratio(self_s("adaptive.tune_thresholds") * 1000.0,
                                             sum(s["attr"] or 0 for s in tunes)),
        "adaptive.route_s": self_s("adaptive.route"),
        "adaptive.cost_report_s": self_s("adaptive.cost_report"),
        "http_requests_per_question": ratio(stub_requests, questions),
        "trace.spans": len(cold_spans),
        "trace.overhead_s": cold["wall_s"] - untraced["wall_s"],
    }
    for step in ("index", "run_vanilla", "run_retrieval", "report", "tune", "route", "savings"):
        values[f"cli.{step}_s"] = steps.get(step, 0.0)
    say("self time of the traced cold pass (name, calls, inclusive s, self s):")
    for name in sorted({s["name"] for s in cold_spans}):
        group = named(cold_spans, name)
        say(f"  {name:30s} {len(group):8d} {sum(s['dur'] for s in group):10.4f} "
            f"{sum(s['self'] for s in group):10.4f}")
    say("tracing overhead", f"{values['trace.overhead_s']:.4f} s",
        f"(traced cold pass {cold['wall_s']:.4f} s, untraced {untraced['wall_s']:.4f} s)")
    return {name: {"value": values[name], "unit": unit} for name, unit in PER_LAYER.items()}


def measure(run: Run, seconds: float, trace: bool) -> dict | None:
    """Run samples and return the metrics, or None when a pass failed.

    Every run makes at least two cold passes in fresh directories and checks
    that they wrote the same artifacts; the first is checked in full."""
    workload = run.workload
    first_dir = run.dir / "sample0"
    if trace:
        untraced = workload.sample(run, first_dir)
        if untraced is None:
            return None
        workload.check_first(run, first_dir, untraced)
        stem = WORK_ROOT / "traces" / f"{workload.name}-seed{run.seed}"
        stem.parent.mkdir(parents=True, exist_ok=True)
        traced = workload.sample(run, run.dir / "traced", stem)
        if traced is None:
            return None
        workload.check_same(run, untraced, traced, "untraced_traced")
        return layer_metrics(run, untraced, traced, run.dir / "traced")

    started = time.perf_counter()
    samples, sample_s, setups = [], 0.0, []
    while len(samples) < 2 or time.perf_counter() - started + sample_s / 2 < seconds:
        if len(samples) >= 2 and run.left_s() < 2 * sample_s:
            break
        began = time.perf_counter()
        work = run.dir / f"sample{len(samples)}"
        sample = workload.sample(run, work)
        if sample is None:
            return None
        sample_s = max(sample_s, time.perf_counter() - began)
        if samples:
            workload.check_same(run, samples[0], sample, f"sample{len(samples)}_sample0")
            shutil.rmtree(work, ignore_errors=True)
        else:
            workload.check_first(run, work, sample)
        samples.append(sample)
        setup = workload.setup(run, first_dir)
        if setup is None:
            return None
        setups.append(setup)
    questions = workload.questions(run, first_dir)
    series = {
        "pipeline_cpu_s": [c["cpu_s"] for c in samples],
        "setup_s": [c["cpu_s"] for c in setups],
        "peak_rss_mb": [c["rss_mb"] for c in samples],
        "pipeline_s": [c["wall_s"] for c in samples],
        "questions_per_s": [questions / c["wall_s"] for c in samples],
        "setup_wall_s": [c["wall_s"] for c in setups],
    }
    if workload.warm:
        series["warm_rerun_s"] = [c["warm"]["wall_s"] for c in samples]
    values = {}
    for name, xs in series.items():
        values[name] = statistics.median(xs)
        say("metric", name, f"{values[name]:.6g} {END_TO_END[name]}", f"n={len(xs)}",
            f"min {min(xs):.6g} max {max(xs):.6g}",
            "samples", " ".join(f"{v:.6g}" for v in xs))
    if "stub" in samples[0]:
        requests = sum(samples[0]["stub"]["requests"].values())
        say("metric http_requests_per_question", f"{requests / questions:.6g} count n=1",
            f"({requests} requests, {questions} questions)")
    return {name: {"value": values[name], "unit": END_TO_END[name]}
            for name in RESULT_END_TO_END}


def run_one(name: str, seed: int, seconds: float, trace: bool, smoke: bool = False) -> dict:
    workload = WORKLOADS[name]
    run = Run(workload, seed, workload.smoke_sizes if smoke else workload.sizes, WORK_ROOT)
    server = None
    try:
        shutil.rmtree(run.dir, ignore_errors=True)
        info = workload.generate(run)
        say("env", json.dumps(environment(run, info), sort_keys=True))
        # Compile and cache popgate's bytecode before anything is timed.
        subprocess.run([sys.executable, "-c", "import popgate.cli"], cwd=ROOT, env=run.env,
                       check=True, timeout=60)
        if isinstance(workload, Endpoint):
            server = workload.start_stub(run)
        metrics = measure(run, seconds, trace)
    finally:
        if server is not None:
            server.terminate()
            try:
                server.wait(timeout=10)
            except subprocess.TimeoutExpired:
                server.kill()
                server.wait()
            server.stdout.close()
        shutil.rmtree(run.dir, ignore_errors=True)
    if metrics is None:
        run.op("run stopped early", 1)
        metrics = {}
    for failure in run.failures:
        say("FAILED", failure)
    say("failed_frac", f"{run.failed / run.attempted:.6g}",
        f"({run.failed} failed of {run.attempted} operations)")
    return {"correct": not run.failures, "attempted": run.attempted,
            "failed": run.failed, "metrics": metrics}


def smoke() -> int:
    """Every workload at toy size, traced and untraced, all checks on."""
    declared = None
    if (ROOT / "BENCHMARK.json").exists():
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
                    1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    bad = 0
    for name in WORKLOADS:
        for trace in (0, 1):
            result = run_one(name, 1, 0.0, bool(trace), smoke=True)
            units = {k: v["unit"] for k, v in result["metrics"].items()}
            if not result["correct"] or (declared and units != declared[trace]):
                bad += 1
                say("smoke FAILED", name, f"trace={trace}")
    shutil.rmtree(WORK_ROOT, ignore_errors=True)
    print("smoke:", "FAILED" if bad else "ok")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    args = parser.parse_args()
    # A terminated run still stops the stub server and its child processes.
    signal.signal(signal.SIGTERM, lambda signum, _frame: sys.exit(128 + signum))
    if not (SRC / "popgate" / "__init__.py").is_file():
        print(f"error: no popgate sources under {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required unless --smoke is given")
    result = run_one(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
