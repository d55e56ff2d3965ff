"""Command-line interface for the whole pipeline.

Exit codes: 0 on success, 2 on usage errors (argparse), 1 on runtime errors
with a single-line cause on stderr. Structured logs go to stderr; artifacts
are always written atomically.
"""

from __future__ import annotations

import argparse
import logging
import math
import sys
from pathlib import Path

from . import adaptive as adaptive_mod
from . import dataset as dataset_mod
from . import demo as demo_mod
from . import evaluation as eval_mod
from . import lm as lm_mod
from . import retriever as retriever_mod
from .config import RunConfig, load_file
from .errors import ConfigError, PopgateError, ValidationError
from .popularity import DEFAULT_PAGEVIEWS_BASE_URL, PageviewsClient, PageviewsConfig
from .util import atomic_write_text, dumps_stable, read_text, write_jsonl

logger = logging.getLogger("popgate")


def _load_run_config(args) -> RunConfig:
    if getattr(args, "config", None):
        return load_file(RunConfig, args.config)
    return RunConfig()


def _resolve_path(args, config: RunConfig, key: str, required: bool = True) -> str | None:
    """Flag value if given, else the config's paths section; flags win."""
    value = getattr(args, key.replace("-", "_"), None)
    if value is None:
        value = getattr(config.paths, key)
    if value is None and required:
        raise ConfigError(f"missing --{key} (not on the command line nor in config paths)")
    return value


def _cmd_build_dataset(args) -> int:
    config = _load_run_config(args)
    triples = dataset_mod.read_triples(_resolve_path(args, config, "triples"))
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
    seed = args.seed if args.seed is not None else config.run.seed
    sampled = dataset_mod.sample_triples(
        triples, term_frequency, per_relation_cap=args.cap, rng_seed=seed
    )
    examples = dataset_mod.verbalize_all(sampled, templates)
    count = dataset_mod.write_dataset(examples, args.out)
    logger.info("wrote %d questions (from %d triples) to %s", count, len(triples), args.out)
    return 0


def _cmd_fetch_popularity(args) -> int:
    config = _load_run_config(args)
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    cache_dir = args.cache or config.paths.cache_dir
    if cache_dir is None:
        raise ConfigError("missing --cache (not on the command line nor in config paths)")
    month = args.month or config.pageviews.month
    client = PageviewsClient(
        PageviewsConfig(
            base_url=args.endpoint or DEFAULT_PAGEVIEWS_BASE_URL,
            cache_dir=cache_dir,
            max_parallelism=args.parallelism,
        )
    )
    annotated = client.annotate(examples, month)
    count = dataset_mod.write_dataset(annotated, args.out)
    logger.info("annotated %d questions with %s page views", count, month)
    return 0


def _cmd_index(args) -> int:
    config = _load_run_config(args)
    passages = retriever_mod.read_corpus(_resolve_path(args, config, "corpus"))
    k1 = args.k1 if args.k1 is not None else config.bm25.k1
    b = args.b if args.b is not None else config.bm25.b
    index = retriever_mod.build_index(passages, k1=k1, b=b)
    retriever_mod.save_index(index, args.out)
    logger.info("indexed %d passages (k1=%s, b=%s) into %s", index.doc_count, k1, b, args.out)
    return 0


def _cmd_run(args) -> int:
    config = _load_run_config(args)
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    mode = args.mode or config.run.mode
    shots = args.shots if args.shots is not None else config.run.shots
    seed = args.seed if args.seed is not None else config.run.seed
    index_path = _resolve_path(args, config, "index", required=False)
    index = (
        retriever_mod.load_index(index_path) if index_path and mode == "retrieval" else None
    )

    client = None
    oracle = None
    if args.endpoint and args.oracle:
        raise ConfigError("--endpoint and --oracle are mutually exclusive")
    if args.endpoint:
        client = lm_mod.CompletionClient(load_file(lm_mod.EndpointConfig, args.endpoint))
    elif config.endpoint is not None and not args.oracle:
        client = lm_mod.CompletionClient(config.endpoint)
    else:
        if not args.oracle:
            raise ConfigError("run needs --endpoint CFG or --oracle")
        oracle = config.oracle
    records = lm_mod.run_predictions(
        examples,
        mode,
        client=client,
        oracle=oracle,
        index=index,
        shots=shots,
        rng_seed=seed,
        genread_instruction=config.genread_instruction,
    )
    count = eval_mod.write_records(records, args.out)
    accuracy = eval_mod.overall_accuracy(records)
    logger.info("mode=%s accuracy=%.4f over %d questions -> %s", mode, accuracy, count, args.out)
    return 0


def _cmd_report(args) -> int:
    config = _load_run_config(args)
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    by_mode = {}
    for path in args.runs:
        records = eval_mod.read_run(path)
        mode = records[0].mode
        if mode in by_mode:
            raise ValidationError(f"--runs names two {mode} runs; {path} would overwrite the first")
        by_mode[mode] = records
    out_dir = Path(args.out)
    quadrants = None
    if "vanilla" in by_mode and len(by_mode) > 1:
        augmented_mode = next(m for m in ("retrieval", "genread") if m in by_mode)
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


def _read_vanilla_and_retrieval(args) -> list[list]:
    """The --vanilla and --retrieval runs. Swapped files are an error:
    --vanilla must hold vanilla records, --retrieval retrieval or genread ones."""
    runs = []
    for flag, path in (("--vanilla", args.vanilla), ("--retrieval", args.retrieval)):
        records = eval_mod.read_run(path)
        if (records[0].mode == "vanilla") != (flag == "--vanilla"):
            raise ValidationError(f"{flag} {path} holds {records[0].mode} records")
        runs.append(records)
    return runs


def _cmd_tune(args) -> int:
    config = _load_run_config(args)
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    vanilla, retrieval = _read_vanilla_and_retrieval(args)
    result = adaptive_mod.tune_thresholds(
        vanilla,
        retrieval,
        examples,
        split_fraction=args.split,
        repeats=args.repeats,
        rng_seed=args.seed,
    )
    result.policy.save(args.out, metadata=result.metadata)
    full_fit = adaptive_mod.adaptive_accuracy(vanilla, retrieval, examples, result.policy)
    logger.info(
        "tuned %d relations: mean test adaptive accuracy %.4f, full-fit %.4f -> %s",
        len(result.policy.thresholds),
        result.mean_test_accuracy,
        full_fit,
        args.out,
    )
    print(
        dumps_stable(
            {
                "mean_test_adaptive_accuracy": result.mean_test_accuracy,
                "full_fit_adaptive_accuracy": full_fit,
                "vanilla_accuracy": eval_mod.overall_accuracy(vanilla),
                "retrieval_accuracy": eval_mod.overall_accuracy(retrieval),
                "retrieval_fraction": adaptive_mod.retrieval_fraction(
                    examples, result.policy
                ),
            }
        )
    )
    return 0


def _cmd_route(args) -> int:
    config = _load_run_config(args)
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    policy = adaptive_mod.ThresholdPolicy.load(args.policy)
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
    fraction = adaptive_mod.retrieval_fraction(examples, policy)
    logger.info("routed %d questions (retrieval fraction %.3f) -> %s", count, fraction, args.out)
    return 0


def _cmd_savings(args) -> int:
    config = _load_run_config(args)
    if args.cost_model:
        cost_model = load_file(adaptive_mod.CostModel, args.cost_model)
    else:
        cost_model = config.cost_model
    examples = dataset_mod.read_dataset(_resolve_path(args, config, "dataset"))
    vanilla, retrieval = _read_vanilla_and_retrieval(args)
    policy = adaptive_mod.ThresholdPolicy.load(args.policy)
    report = adaptive_mod.cost_report(vanilla, retrieval, examples, policy, cost_model)
    text = dumps_stable(report)
    if args.out:
        atomic_write_text(args.out, text + "\n")
    print(text)
    return 0


def _cmd_demo(args) -> int:
    report = demo_mod.run_demo(
        seed=args.seed,
        out_dir=args.out,
        size=args.size,
        repeats=args.repeats,
        split_fraction=args.split,
    )
    print(report.to_json())
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="popgate",
        description="Long-tail QA dataset building, BM25 retrieval, LM evaluation, "
        "and popularity-gated adaptive retrieval.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build-dataset", help="sample triples and verbalize questions")
    p.add_argument("--triples")
    p.add_argument("--templates", help="JSON {relation: pattern}; defaults to built-ins")
    p.add_argument("--freq-corpus", help="text corpus for alias term frequencies")
    p.add_argument("--cap", type=int, default=dataset_mod.DEFAULT_PER_RELATION_CAP)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_build_dataset)

    p = sub.add_parser("fetch-popularity", help="annotate a dataset with page views")
    p.add_argument("--dataset")
    p.add_argument("--month", help="YYYY-MM; defaults to the configured month")
    p.add_argument("--cache")
    p.add_argument("--config")
    p.add_argument("--endpoint", help="pageviews API base URL override")
    p.add_argument("--parallelism", type=int, default=4)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_fetch_popularity)

    p = sub.add_parser("index", help="build a BM25 index over a passage corpus")
    p.add_argument("--corpus")
    p.add_argument("--k1", type=float, default=None)
    p.add_argument("--b", type=float, default=None)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_index)

    p = sub.add_parser("run", help="run one answering mode over a dataset")
    p.add_argument("--dataset")
    p.add_argument("--mode", choices=["vanilla", "retrieval", "genread"], default=None)
    p.add_argument("--index")
    p.add_argument("--endpoint", help="endpoint config JSON file")
    p.add_argument("--oracle", action="store_true", help="use the synthetic oracle LM")
    p.add_argument("--shots", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("report", help="score runs and write evaluation tables")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--runs", nargs="+", required=True)
    p.add_argument("--min-bin-n", type=int, default=eval_mod.DEFAULT_MIN_BIN_N)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_report)

    p = sub.add_parser("tune", help="tune per-relation popularity thresholds")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--vanilla", required=True)
    p.add_argument("--retrieval", required=True)
    p.add_argument("--split", type=float, default=adaptive_mod.DEFAULT_SPLIT_FRACTION)
    p.add_argument("--repeats", type=int, default=adaptive_mod.DEFAULT_REPEATS)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_tune)

    p = sub.add_parser("route", help="emit per-question retrieve/parametric decisions")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--policy", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_route)

    p = sub.add_parser("savings", help="cost and latency of a policy vs. baselines")
    p.add_argument("--dataset")
    p.add_argument("--config")
    p.add_argument("--vanilla", required=True)
    p.add_argument("--retrieval", required=True)
    p.add_argument("--policy", required=True)
    p.add_argument("--cost-model", help="cost model JSON file")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_savings)

    p = sub.add_parser("demo", help="synthetic end-to-end pipeline")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--size", type=int, default=demo_mod.DEMO_SIZE)
    p.add_argument("--repeats", type=int, default=100)
    p.add_argument("--split", type=float, default=0.75)
    p.add_argument("--out", default="demo-out")
    p.set_defaults(func=_cmd_demo)

    return parser


def main(argv: list[str] | None = None) -> int:
    logging.basicConfig(
        stream=sys.stderr,
        level=logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
    )
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (PopgateError, LookupError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        name = getattr(exc, "filename", None)
        detail = f"{exc.strerror}: {name}" if name else str(exc)
        print(f"error: {detail}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
