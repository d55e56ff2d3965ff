"""Scoring and analysis of prediction runs.

A prediction counts as correct when some gold answer occurs as a contiguous
substring of the prediction after light normalization (Unicode NFKC,
lowercasing, whitespace collapsing). A strict mode with no normalization is
available behind a flag.
"""

from __future__ import annotations

import csv
import io
import math
import statistics
import unicodedata
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Sequence

from .dataset import QAExample
from .errors import JoinError, ValidationError
from .util import atomic_write_text, dumps_stable, iter_jsonl, write_jsonl

WILSON_Z = 1.96
DEFAULT_BIN_WIDTH = 0.5
DEFAULT_MIN_BIN_N = 40

MODES = ("vanilla", "retrieval", "genread")


def normalize_text(text: str) -> str:
    """NFKC, lowercase, and collapse runs of whitespace to single spaces."""
    return " ".join(unicodedata.normalize("NFKC", text).lower().split())


def is_correct(prediction: str, gold_answers: Iterable[str], strict: bool = False) -> bool:
    """True iff some gold answer is a substring of the prediction.

    Both sides are normalized unless strict=True, which compares raw strings.
    """
    golds = list(gold_answers)
    if not golds:
        raise ValidationError("is_correct needs a non-empty gold answer set")
    if strict:
        return any(g in prediction for g in golds)
    pred = normalize_text(prediction)
    return any(g in pred for g in (normalize_text(g) for g in golds) if g)


@dataclass(frozen=True)
class PredictionRecord:
    """One (question, mode) model run."""

    question_id: str
    mode: str
    prediction: str
    correct: bool
    prompt_tokens: int | None = None
    completion_tokens: int | None = None
    latency_ms: int | None = None
    retrieved_doc_id: str | None = None
    retrieval_recall1: bool | None = None
    genread_empty_context: bool | None = None

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValidationError(f"record {self.question_id!r}: unknown mode {self.mode!r}")
        if not isinstance(self.correct, bool):
            raise ValidationError(
                f"record {self.question_id!r}: field 'correct' must be true or false, "
                f"got {self.correct!r}"
            )
        if self.mode == "vanilla" and self.retrieved_doc_id is not None:
            raise ValidationError(
                f"record {self.question_id!r}: vanilla run cannot carry a retrieved doc"
            )
        for name in ("prompt_tokens", "completion_tokens", "latency_ms"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ValidationError(f"record {self.question_id!r}: negative {name}")


def record_to_row(record: PredictionRecord) -> dict:
    row = {
        "question_id": record.question_id,
        "mode": record.mode,
        "prediction": record.prediction,
        "correct": record.correct,
        "prompt_tokens": record.prompt_tokens,
        "completion_tokens": record.completion_tokens,
        "latency_ms": record.latency_ms,
        "retrieved_doc_id": record.retrieved_doc_id,
        "retrieval_recall1": record.retrieval_recall1,
    }
    if record.genread_empty_context is not None:
        row["genread_empty_context"] = record.genread_empty_context
    return row


def record_from_row(row: dict) -> PredictionRecord:
    if not isinstance(row, dict):
        raise ValidationError("prediction row is not a JSON object")
    try:
        return PredictionRecord(
            question_id=row["question_id"],
            mode=row["mode"],
            prediction=row["prediction"],
            correct=row["correct"],
            prompt_tokens=row.get("prompt_tokens"),
            completion_tokens=row.get("completion_tokens"),
            latency_ms=row.get("latency_ms"),
            retrieved_doc_id=row.get("retrieved_doc_id"),
            retrieval_recall1=row.get("retrieval_recall1"),
            genread_empty_context=row.get("genread_empty_context"),
        )
    except KeyError as exc:
        raise ValidationError(f"prediction row missing key {exc}") from exc


def write_records(records: Sequence[PredictionRecord], path: str | Path) -> int:
    return write_jsonl(path, (record_to_row(r) for r in records))


def read_records(path: str | Path) -> list[PredictionRecord]:
    records = []
    for lineno, row in iter_jsonl(path):
        try:
            records.append(record_from_row(row))
        except ValidationError as exc:
            raise ValidationError(f"{path}:{lineno}: {exc}") from exc
    return records


def read_run(path: str | Path) -> list[PredictionRecord]:
    """Records of one run file, which must be non-empty and hold a single mode."""
    records = read_records(path)
    if not records:
        raise ValidationError(f"run file {path} holds no records")
    modes = sorted({r.mode for r in records})
    if len(modes) > 1:
        raise ValidationError(f"run file {path} mixes modes {' and '.join(modes)}")
    return records


def _join(
    records: Sequence[PredictionRecord], dataset: Sequence[QAExample]
) -> list[tuple[PredictionRecord, QAExample]]:
    by_id = {ex.id: ex for ex in dataset}
    pairs = []
    for rec in records:
        ex = by_id.get(rec.question_id)
        if ex is None:
            raise JoinError(f"record references unknown question id {rec.question_id!r}")
        pairs.append((rec, ex))
    return pairs


def overall_accuracy(records: Sequence[PredictionRecord]) -> float:
    if not records:
        raise ValidationError("cannot compute accuracy of an empty record set")
    return sum(r.correct for r in records) / len(records)


def accuracy_by_relation(
    records: Sequence[PredictionRecord], dataset: Sequence[QAExample]
) -> dict[str, tuple[float, int]]:
    """Per-relation (accuracy, n)."""
    grouped: dict[str, list[bool]] = {}
    for rec, ex in _join(records, dataset):
        grouped.setdefault(ex.relation_type, []).append(rec.correct)
    return {
        rel: (sum(flags) / len(flags), len(flags)) for rel, flags in sorted(grouped.items())
    }


def popularity_correlation(
    records: Sequence[PredictionRecord], dataset: Sequence[QAExample]
) -> dict[str, float | None]:
    """Per-relation Pearson correlation of log10 popularity vs. correctness.

    Relations where either side has zero variance (or fewer than two records)
    map to None rather than an arbitrary number.
    """
    grouped: dict[str, list[tuple[float, int]]] = {}
    for rec, ex in _join(records, dataset):
        grouped.setdefault(ex.relation_type, []).append(
            (ex.log10_popularity, int(rec.correct))
        )
    out: dict[str, float | None] = {}
    for rel, points in sorted(grouped.items()):
        if len(points) < 2:
            out[rel] = None
            continue
        xs = [p[0] for p in points]
        ys = [float(p[1]) for p in points]
        try:
            out[rel] = statistics.correlation(xs, ys)
        except statistics.StatisticsError:
            out[rel] = None
    return out


def wilson_interval(successes: int, n: int, z: float = WILSON_Z) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion."""
    if n <= 0 or not 0 <= successes <= n:
        raise ValidationError(f"bad Wilson inputs: {successes}/{n}")
    p = successes / n
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # The exact interval touches p at p in {0, 1}; clamp so float rounding
    # never pushes a bound past the point estimate or outside [0, 1].
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class PopularityBin:
    center_log10_pop: float
    accuracy: float
    wilson_low: float
    wilson_high: float
    n: int


def binned_accuracy(
    records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    bin_width_log10: float = DEFAULT_BIN_WIDTH,
    min_bin_n: int = DEFAULT_MIN_BIN_N,
) -> list[PopularityBin]:
    """Accuracy by log10-popularity bin with Wilson 95% intervals.

    Bins with fewer than min_bin_n records are omitted.
    """
    if bin_width_log10 <= 0:
        raise ValidationError("bin_width_log10 must be positive")
    buckets: dict[int, list[bool]] = {}
    for rec, ex in _join(records, dataset):
        idx = math.floor(ex.log10_popularity / bin_width_log10)
        buckets.setdefault(idx, []).append(rec.correct)
    bins = []
    for idx in sorted(buckets):
        flags = buckets[idx]
        if len(flags) < min_bin_n:
            continue
        successes = sum(flags)
        low, high = wilson_interval(successes, len(flags))
        bins.append(
            PopularityBin(
                center_log10_pop=(idx + 0.5) * bin_width_log10,
                accuracy=successes / len(flags),
                wilson_low=low,
                wilson_high=high,
                n=len(flags),
            )
        )
    return bins


@dataclass(frozen=True)
class QuadrantCell:
    fraction: float
    mean_recall1: float | None
    n: int
    question_ids: tuple[str, ...] = field(repr=False, default=())


QuadrantTable = dict[tuple[bool, bool], QuadrantCell]


def quadrant_analysis(
    vanilla_records: Sequence[PredictionRecord],
    retrieval_records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
) -> QuadrantTable:
    """Partition questions by (vanilla correct?, retrieval-augmented correct?).

    Each cell reports its fraction of all questions and the mean recall@1 of
    the retrieval run restricted to that cell.
    """
    dataset_ids = {ex.id for ex in dataset}
    van_by_id = {r.question_id: r for r in vanilla_records}
    ret_by_id = {r.question_id: r for r in retrieval_records}
    for label, ids in (("vanilla", set(van_by_id)), ("retrieval", set(ret_by_id))):
        missing = sorted(dataset_ids - ids)
        extra = sorted(ids - dataset_ids)
        if missing or extra:
            raise JoinError(
                f"{label} run does not cover the dataset "
                f"(missing: {missing[:10]}, unknown: {extra[:10]})"
            )
    lacking = sorted(
        qid for qid, rec in ret_by_id.items() if rec.retrieval_recall1 is None
    )
    if lacking:
        raise ValidationError(f"retrieval records without recall@1: {lacking[:10]}")
    cells: dict[tuple[bool, bool], list[str]] = {
        (v, r): [] for v in (True, False) for r in (True, False)
    }
    for ex in dataset:
        cells[(van_by_id[ex.id].correct, ret_by_id[ex.id].correct)].append(ex.id)
    total = len(dataset)
    table: QuadrantTable = {}
    for key, ids in cells.items():
        recalls = [ret_by_id[qid].retrieval_recall1 for qid in ids]
        table[key] = QuadrantCell(
            fraction=len(ids) / total,
            mean_recall1=(sum(recalls) / len(recalls)) if recalls else None,
            n=len(ids),
            question_ids=tuple(ids),
        )
    return table


def format_quadrants(table: QuadrantTable) -> str:
    """Render the 2x2 table as 'recall@1 (fraction%)' cells."""

    def cell(v: bool, r: bool) -> str:
        c = table[(v, r)]
        recall = "n/a" if c.mean_recall1 is None else f"{c.mean_recall1:.2f}"
        return f"{recall} ({c.fraction:.0%})"

    rows = [
        f"{'':<14}{'retrieval succeeded':<24}{'retrieval failed':<24}",
        f"{'LM succeeded':<14}{cell(True, True):<24}{cell(True, False):<24}",
        f"{'LM failed':<14}{cell(False, True):<24}{cell(False, False):<24}",
    ]
    return "\n".join(row.rstrip() for row in rows)


_QUADRANT_NAMES = {
    (True, True): "lm_correct_retrieval_correct",
    (True, False): "lm_correct_retrieval_wrong",
    (False, True): "lm_wrong_retrieval_correct",
    (False, False): "lm_wrong_retrieval_wrong",
}


@dataclass
class RunSummary:
    overall_accuracy: float
    per_relation: dict[str, tuple[float, float | None, int]]
    bins: list[PopularityBin]


def evaluate_run(
    records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    bin_width_log10: float = DEFAULT_BIN_WIDTH,
    min_bin_n: int = DEFAULT_MIN_BIN_N,
) -> RunSummary:
    """Overall accuracy, per-relation accuracy/correlation, and popularity bins."""
    acc = accuracy_by_relation(records, dataset)
    corr = popularity_correlation(records, dataset)
    per_relation = {rel: (acc[rel][0], corr[rel], acc[rel][1]) for rel in acc}
    return RunSummary(
        overall_accuracy=overall_accuracy(records),
        per_relation=per_relation,
        bins=binned_accuracy(records, dataset, bin_width_log10, min_bin_n),
    )


@dataclass
class EvalReport:
    """Aggregated evaluation artifacts for a run (or an adaptive system)."""

    overall_accuracy: float
    per_relation: dict[str, tuple[float, float | None, int]]
    bins: list[PopularityBin]
    quadrants: QuadrantTable | None = None
    retrieval_fraction: float | None = None
    cost: dict | None = None
    baselines: dict[str, float] | None = None
    adaptive: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "overall_accuracy": self.overall_accuracy,
            "per_relation": {
                rel: {"accuracy": a, "correlation": c, "n": n}
                for rel, (a, c, n) in sorted(self.per_relation.items())
            },
            "bins": [
                {
                    "center_log10_pop": b.center_log10_pop,
                    "accuracy": b.accuracy,
                    "wilson_low": b.wilson_low,
                    "wilson_high": b.wilson_high,
                    "n": b.n,
                }
                for b in self.bins
            ],
            "quadrants": None,
            "retrieval_fraction": self.retrieval_fraction,
            "cost": self.cost,
        }
        if self.quadrants is not None:
            out["quadrants"] = {
                _QUADRANT_NAMES[key]: {
                    "fraction": cell.fraction,
                    "mean_recall1": cell.mean_recall1,
                    "n": cell.n,
                }
                for key, cell in self.quadrants.items()
            }
        if self.baselines is not None:
            out["baselines"] = self.baselines
        if self.adaptive is not None:
            out["adaptive"] = self.adaptive
        return out

    def to_json(self) -> str:
        return dumps_stable(self.to_dict())


def _csv_text(header: Sequence[str], rows: Iterable[Sequence]) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def write_report(report: EvalReport, out_dir: str | Path, stem: str = "report") -> Path:
    """Write report JSON plus plot-ready CSV tables; returns the JSON path."""
    out_dir = Path(out_dir)
    json_path = out_dir / f"{stem}.json"
    atomic_write_text(json_path, report.to_json() + "\n")
    atomic_write_text(
        out_dir / f"{stem}_per_relation.csv",
        _csv_text(
            ["relation", "n", "accuracy", "correlation"],
            [
                [rel, n, a, "" if c is None else c]
                for rel, (a, c, n) in sorted(report.per_relation.items())
            ],
        ),
    )
    atomic_write_text(
        out_dir / f"{stem}_bins.csv",
        _csv_text(
            ["center_log10_pop", "n", "accuracy", "wilson_low", "wilson_high"],
            [
                [b.center_log10_pop, b.n, b.accuracy, b.wilson_low, b.wilson_high]
                for b in report.bins
            ],
        ),
    )
    if report.quadrants is not None:
        atomic_write_text(
            out_dir / f"{stem}_quadrants.csv",
            _csv_text(
                ["lm_correct", "retrieval_correct", "fraction", "mean_recall1", "n"],
                [
                    [
                        key[0],
                        key[1],
                        cell.fraction,
                        "" if cell.mean_recall1 is None else cell.mean_recall1,
                        cell.n,
                    ]
                    for key, cell in sorted(report.quadrants.items(), reverse=True)
                ],
            ),
        )
    return json_path
