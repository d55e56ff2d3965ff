"""Self-contained synthetic pipeline: generate triples and a matching corpus,
run the oracle LM with and without retrieval, tune routing thresholds, and
assemble the full evaluation report.

The synthetic world is built so that retrieval quality depends on popularity:
passages for rare subjects usually contain the answer, passages for popular
subjects usually do not. Combined with the oracle LM's popularity-driven
parametric recall, this reproduces the regime where routing by popularity
beats both always-retrieving and never-retrieving.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from .adaptive import CostModel, cost_report, routed_records, tune_thresholds
from .config import DEFAULT_REPEATS, DEFAULT_SPLIT_FRACTION, DEMO_SIZE
from .dataset import (
    KnowledgeTriple,
    QAExample,
    RELATIONS,
    default_templates,
    verbalize,
    write_dataset,
)
from .errors import ValidationError
from .evaluation import (
    EvalReport,
    evaluate_run,
    join_runs,
    quadrant_analysis,
    write_records,
    write_report,
)
from .lm import ORACLE_B, run_predictions
from .retriever import Passage, build_index, save_index, write_corpus

LOW_POP_HIT_RATE = 0.85
HIGH_POP_HIT_RATE = 0.35
_MIN_LOG10_POP = 1.0
_MAX_LOG10_POP = 6.0
_DEMO_MIN_BIN_N = 20


@dataclass
class SyntheticWorld:
    examples: list[QAExample]
    passages: list[Passage]


def generate_world(seed: int | str, size: int = DEMO_SIZE) -> SyntheticWorld:
    """Build `size` synthetic questions plus a one-passage-per-subject corpus.

    Each subject gets a unique label token so BM25 retrieves its own passage;
    whether that passage contains the gold answer is a popularity-dependent
    coin flip (LOW_POP_HIT_RATE below the oracle LM's popularity midpoint
    ORACLE_B, HIGH_POP_HIT_RATE above).
    """
    if size < 1:
        raise ValidationError(f"size must be >= 1, got {size}")
    rng = random.Random(f"demo\x00{seed}")
    templates = default_templates()
    examples = []
    passages = []
    for i in range(size):
        subject = f"Topic{i:05d}"
        answer = f"Fact{i:05d}"
        triple = KnowledgeTriple(
            subject_id=f"S{i:05d}",
            subject_label=subject,
            subject_aliases=frozenset({subject}),
            relation_type=RELATIONS[i % len(RELATIONS)],
            object_labels_and_aliases=frozenset({answer}),
        )
        example = verbalize(triple, templates)
        log10_pop = rng.uniform(_MIN_LOG10_POP, _MAX_LOG10_POP)
        example = example.with_popularity(round(10.0**log10_pop))
        rare = example.log10_popularity < ORACLE_B
        hit_rate = LOW_POP_HIT_RATE if rare else HIGH_POP_HIT_RATE
        detail = answer if rng.random() < hit_rate else "unverified"
        passages.append(
            Passage(
                doc_id=f"D-{triple.subject_id}",
                title=subject,
                text=f"{subject} dossier entry. {detail}.",
            )
        )
        examples.append(example)
    return SyntheticWorld(examples=examples, passages=passages)


def run_demo(
    seed: int,
    out_dir: str | Path,
    size: int = DEMO_SIZE,
    repeats: int = DEFAULT_REPEATS,
    split_fraction: float = DEFAULT_SPLIT_FRACTION,
) -> EvalReport:
    """Run the full synthetic pipeline and write every artifact under out_dir."""
    out_dir = Path(out_dir)
    world = generate_world(seed, size=size)
    dataset = world.examples
    index = build_index(world.passages)

    vanilla = run_predictions(dataset, "vanilla", oracle=True, rng_seed=seed)
    retrieval = run_predictions(dataset, "retrieval", oracle=True, index=index, rng_seed=seed)
    tuned = tune_thresholds(vanilla, retrieval, dataset, split_fraction, repeats, rng_seed=seed)
    policy, summary = tuned.policy, tuned.summary

    report = evaluate_run(
        routed_records(*join_runs(dataset, vanilla, retrieval), dataset, policy),
        dataset,
        min_bin_n=_DEMO_MIN_BIN_N,
    )
    report.quadrants = quadrant_analysis(vanilla, retrieval, dataset)
    report.retrieval_fraction = summary["retrieval_fraction"]
    report.cost = cost_report(vanilla, retrieval, dataset, policy, CostModel())
    report.baselines = {
        "vanilla": summary["vanilla_accuracy"],
        "retrieval": summary["retrieval_accuracy"],
    }
    report.adaptive = {
        **tuned.metadata,
        "full_fit_adaptive_accuracy": summary["full_fit_adaptive_accuracy"],
        "per_repeat_test_accuracies": [o.test_accuracy for o in tuned.repeat_outcomes],
        "thresholds": policy.json_thresholds,
    }

    write_dataset(dataset, out_dir / "dataset.jsonl")
    write_corpus(world.passages, out_dir / "corpus.jsonl")
    save_index(index, out_dir / "index.pgidx")
    write_records(vanilla, out_dir / "run_vanilla.jsonl")
    write_records(retrieval, out_dir / "run_retrieval.jsonl")
    policy.save(out_dir / "policy.json", metadata=tuned.metadata)
    write_report(report, out_dir)
    return report
