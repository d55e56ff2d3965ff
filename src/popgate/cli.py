"""Command-line interface for the whole pipeline.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on runtime errors
with a single-line cause on stderr. Structured logs go to stderr; artifacts
are always written atomically.

Each subcommand imports the modules it runs, so that, for example, `index`
loads no LM, tuning or page-view code.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import config, retriever as retriever_mod, util
from .errors import ConfigError, PopgateError, ValidationError
from .util import atomic_write_text, dumps_stable, read_text, require_month, write_jsonl

logger = logging.getLogger("popgate")


def _cmd_build_dataset(args) -> int:
    from . import dataset as dataset_mod

    triples = dataset_mod.read_triples(args.triples)
    templates = (
        dataset_mod.load_templates(args.templates)
        if args.templates
        else dataset_mod.default_templates()
    )
    if args.freq_corpus:
        term_frequency = dataset_mod.CorpusTermFrequency(read_text(args.freq_corpus))
    else:
        # Without a frequency corpus every triple passes the sampler.
        term_frequency = lambda triple: math.e**2
    sampled = dataset_mod.sample_triples(
        triples, term_frequency, per_relation_cap=args.cap, rng_seed=args.seed
    )
    examples = dataset_mod.verbalize_all(sampled, templates)
    count = dataset_mod.write_dataset(examples, args.out)
    logger.info("wrote %d questions (from %d triples) to %s", count, len(triples), args.out)
    return 0


def _cmd_fetch_popularity(args) -> int:
    from . import dataset as dataset_mod
    from .popularity import PageviewsClient, PageviewsConfig

    require_month(args.month)  # also when no question needs a fetch
    examples = dataset_mod.read_dataset(args.dataset)
    client = PageviewsClient(PageviewsConfig(
        base_url=args.endpoint, cache_dir=args.cache, max_parallelism=args.parallelism
    ))
    annotated = client.annotate(examples, args.month)
    count = dataset_mod.write_dataset(annotated, args.out)
    logger.info("annotated %d questions with %s page views", count, args.month)
    return 0


def _cmd_index(args) -> int:
    passages = retriever_mod.read_corpus(args.corpus)
    index = retriever_mod.build_index(passages, k1=args.k1, b=args.b)
    retriever_mod.save_index(index, args.out)
    logger.info(
        "indexed %d passages (k1=%s, b=%s) into %s", index.doc_count, args.k1, args.b, args.out
    )
    return 0


def _cmd_run(args) -> int:
    from . import dataset as dataset_mod
    from . import evaluation as eval_mod
    from . import lm as lm_mod

    if bool(args.endpoint) == args.oracle:
        raise ConfigError("--endpoint and --oracle are mutually exclusive" if args.oracle
                          else "run needs --endpoint CFG or --oracle")
    examples = dataset_mod.read_dataset(args.dataset)
    index = (
        retriever_mod.load_index(args.index) if args.index and args.mode == "retrieval" else None
    )
    client = None
    if args.endpoint:
        client = lm_mod.CompletionClient(config.load_file(lm_mod.EndpointConfig, args.endpoint))
    records = lm_mod.run_predictions(
        examples,
        args.mode,
        client=client,
        oracle=args.oracle,
        index=index,
        shots=args.shots,
        rng_seed=args.seed,
    )
    accuracy = eval_mod.overall_accuracy(records)
    count = eval_mod.write_records(records, args.out)
    logger.info(
        "mode=%s accuracy=%.4f over %d questions -> %s", args.mode, accuracy, count, args.out
    )
    return 0


def _cmd_report(args) -> int:
    from . import dataset as dataset_mod
    from . import evaluation as eval_mod

    examples = dataset_mod.read_dataset(args.dataset)
    by_mode = {}
    for path in args.runs:
        records = eval_mod.read_run(path, examples)
        mode = records[0].mode
        if mode in by_mode:
            raise ValidationError(f"--runs names two {mode} runs; {path} would overwrite the first")
        by_mode[mode] = records
    out_dir = Path(args.out)
    quadrants = None
    if "vanilla" in by_mode and len(by_mode) > 1:
        augmented_mode = next(m for m in config.AUGMENTED_MODES if m in by_mode)
        if all(r.retrieval_recall1 is not None for r in by_mode[augmented_mode]):
            quadrants = eval_mod.quadrant_analysis(
                by_mode["vanilla"], by_mode[augmented_mode], examples
            )
    # Every report is computed before any is written, so a run that fails
    # to join leaves no report files behind.
    reports = {
        mode: eval_mod.evaluate_run(records, examples, min_bin_n=args.min_bin_n)
        for mode, records in by_mode.items()
    }
    for mode, report in reports.items():
        report.quadrants = quadrants
        path = eval_mod.write_report(report, out_dir, stem=f"report_{mode}")
        logger.info("mode=%s accuracy=%.4f -> %s", mode, report.overall_accuracy, path)
    if quadrants is not None:
        print(eval_mod.format_quadrants(quadrants))
    return 0


def _read_vanilla_and_retrieval(args, examples) -> list[list]:
    """The --vanilla and --retrieval runs of `examples`. Swapped files are an
    error: --vanilla must hold vanilla records, --retrieval retrieval or genread ones."""
    from . import evaluation as eval_mod

    runs = []
    for flag, path in (("--vanilla", args.vanilla), ("--retrieval", args.retrieval)):
        records = eval_mod.read_run(path, examples)
        if (records[0].mode == "vanilla") != (flag == "--vanilla"):
            raise ValidationError(f"{flag} {path} holds {records[0].mode} records")
        runs.append(records)
    return runs


def _cmd_tune(args) -> int:
    from . import adaptive as adaptive_mod
    from . import dataset as dataset_mod

    examples = dataset_mod.read_dataset(args.dataset)
    vanilla, retrieval = _read_vanilla_and_retrieval(args, examples)
    result = adaptive_mod.tune_thresholds(
        vanilla, retrieval, examples, args.split, args.repeats, rng_seed=args.seed
    )
    result.policy.save(args.out, metadata=result.metadata)
    summary = result.summary
    logger.info(
        "tuned %d relations: mean test adaptive accuracy %.4f, full-fit %.4f -> %s",
        len(result.policy.thresholds),
        summary["mean_test_adaptive_accuracy"],
        summary["full_fit_adaptive_accuracy"],
        args.out,
    )
    print(dumps_stable(summary))
    return 0


def _cmd_route(args) -> int:
    from . import adaptive as adaptive_mod
    from . import dataset as dataset_mod

    examples = dataset_mod.read_dataset(args.dataset)
    policy = adaptive_mod.ThresholdPolicy.load(args.policy)
    fraction = adaptive_mod.retrieval_fraction(examples, policy)
    rows = [
        {
            "id": ex.id,
            "relation": ex.relation_type,
            "log10_popularity": ex.log10_popularity,
            "decision": adaptive_mod.route(ex, policy),
        }
        for ex in examples
    ]
    count = write_jsonl(args.out, rows)
    logger.info("routed %d questions (retrieval fraction %.3f) -> %s", count, fraction, args.out)
    return 0


def _cmd_savings(args) -> int:
    from . import adaptive as adaptive_mod
    from . import dataset as dataset_mod

    cost_model = adaptive_mod.CostModel()
    if args.cost_model:
        cost_model = config.load_file(adaptive_mod.CostModel, args.cost_model)
    examples = dataset_mod.read_dataset(args.dataset)
    vanilla, retrieval = _read_vanilla_and_retrieval(args, examples)
    policy = adaptive_mod.ThresholdPolicy.load(args.policy)
    report = adaptive_mod.cost_report(vanilla, retrieval, examples, policy, cost_model)
    if adaptive_mod.dataset_fingerprint(examples) == policy.tuned_on:
        logger.warning("%s was tuned on this dataset, so its savings are in-sample", args.policy)
    text = dumps_stable(report)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_demo(args) -> int:
    from . import demo as demo_mod

    report = demo_mod.run_demo(
        args.seed, args.out, size=args.size, repeats=args.repeats, split_fraction=args.split
    )
    print(report.to_json())
    return 0


def _flags(*names: str, **kwargs) -> argparse.ArgumentParser:
    """A parent parser holding flags that several subcommands share."""
    parser = argparse.ArgumentParser(add_help=False)
    for name in names:
        parser.add_argument(name, **kwargs)
    return parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgate",
        description="Long-tail QA dataset building, BM25 retrieval, LM evaluation, "
        "and popularity-gated adaptive retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    dataset = _flags("--dataset", required=True)
    out, seed = _flags("--out", required=True), _flags("--seed", type=int, default=0)
    runs = _flags("--vanilla", "--retrieval", required=True)

    def command(name, func, help, *parents):
        p = sub.add_parser(name, parents=parents, help=help)
        p.set_defaults(func=func)
        return p

    p = command("build-dataset", _cmd_build_dataset, "sample triples and verbalize questions",
                seed, out)
    p.add_argument("--triples", required=True)
    p.add_argument("--templates", help="JSON {relation: pattern}; defaults to built-ins")
    p.add_argument("--freq-corpus", help="text corpus for alias term frequencies")
    p.add_argument("--cap", type=int, default=config.DEFAULT_PER_RELATION_CAP)

    p = command("fetch-popularity", _cmd_fetch_popularity, "annotate a dataset with page views",
                dataset, out)
    p.add_argument("--month", default=config.DEFAULT_PAGEVIEWS_MONTH, help="YYYY-MM")
    p.add_argument("--cache", required=True)
    p.add_argument("--endpoint", default=config.DEFAULT_PAGEVIEWS_BASE_URL, help="API base URL")
    p.add_argument("--parallelism", type=int, default=util.HttpSettings.max_parallelism)

    p = command("index", _cmd_index, "build a BM25 index over a passage corpus", out)
    p.add_argument("--corpus", required=True)
    p.add_argument("--k1", type=float, default=retriever_mod.DEFAULT_K1)
    p.add_argument("--b", type=float, default=retriever_mod.DEFAULT_B)

    p = command("run", _cmd_run, "run one answering mode over a dataset", dataset, seed, out)
    p.add_argument("--mode", choices=config.MODES, default="vanilla")
    p.add_argument("--index")
    p.add_argument("--endpoint", help="endpoint config JSON file")
    p.add_argument("--oracle", action="store_true", help="use the synthetic oracle LM")
    p.add_argument("--shots", type=int, default=15)

    p = command("report", _cmd_report, "score runs and write evaluation tables", dataset, out)
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--min-bin-n", type=int, default=config.DEFAULT_MIN_BIN_N)

    p = command("tune", _cmd_tune, "tune per-relation popularity thresholds",
                dataset, runs, seed, out)
    p.add_argument("--split", type=float, default=config.DEFAULT_SPLIT_FRACTION)
    p.add_argument("--repeats", type=int, default=config.DEFAULT_REPEATS)

    p = command("route", _cmd_route, "emit per-question retrieve/parametric decisions",
                dataset, out)
    p.add_argument("--policy", required=True)

    p = command("savings", _cmd_savings, "cost and latency of a policy vs. baselines",
                dataset, runs)
    p.add_argument("--policy", required=True)
    p.add_argument("--cost-model", help="cost model JSON file")
    p.add_argument("--out")

    p = command("demo", _cmd_demo, "synthetic end-to-end pipeline")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=config.DEMO_SIZE)
    p.add_argument("--repeats", type=int, default=config.DEFAULT_REPEATS)
    p.add_argument("--split", type=float, default=config.DEFAULT_SPLIT_FRACTION)
    p.add_argument("--out", default="demo-out")

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (PopgateError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = str(exc) if name is None else f"{exc.strerror}: {name or repr(name)}"
        print(f"error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
