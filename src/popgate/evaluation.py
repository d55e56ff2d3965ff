"""Scoring and analysis of prediction runs.

A prediction is correct when a gold answer is a substring of it once both are
NFKC-normalized, lowercased and whitespace-collapsed (`is_correct`). The same
rule, applied to the retrieved passage's title and text, is its recall@1.
"""

from __future__ import annotations

import io
import math
import unicodedata
from dataclasses import dataclass, fields
from operator import attrgetter
from pathlib import Path
from typing import Any, Iterable, Sequence

from .config import DEFAULT_MIN_BIN_N, MODES
from .dataset import QAExample, question_positions
from .errors import JoinError, ValidationError
from .util import atomic_write_text, dumps_stable, from_object, is_count, read_jsonl, write_jsonl

WILSON_Z = 1.96
BIN_WIDTH_LOG10 = 0.5


def normalize_text(text: str) -> str:
    """NFKC, lowercase, and collapse runs of whitespace to single spaces."""
    return " ".join(unicodedata.normalize("NFKC", text).lower().split())


def is_correct(prediction: str, gold_answers: Iterable[str]) -> bool:
    """True iff some normalized gold answer is a substring of the normalized prediction."""
    golds = list(gold_answers)
    if not golds:
        raise ValidationError("is_correct needs a non-empty gold answer set")
    pred = normalize_text(prediction)
    return any(g in pred for g in (normalize_text(g) for g in golds) if g)


@dataclass(slots=True)
class PredictionRecord:
    """One (question, mode) model run: a plain slotted record, checked when
    built. Callers must not mutate one; nothing re-checks it."""

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
        if type(self.question_id) is not str:
            raise ValidationError(f"field 'question_id' must be a string, got {self.question_id!r}")
        if self.mode not in MODES:
            raise ValidationError(f"record {self.question_id!r}: unknown mode {self.mode!r}")
        if type(self.prediction) is not str:
            self._reject("prediction", "a string")
        if type(self.correct) is not bool:
            self._reject("correct", "true or false")
        if self.retrieval_recall1 is not None and type(self.retrieval_recall1) is not bool:
            self._reject("retrieval_recall1", "null, true or false")
        if self.genread_empty_context is not None and type(self.genread_empty_context) is not bool:
            self._reject("genread_empty_context", "null, true or false")
        if self.mode == "vanilla" and self.retrieved_doc_id is not None:
            raise ValidationError(
                f"record {self.question_id!r}: vanilla run cannot carry a retrieved doc"
            )
        if self.retrieved_doc_id is not None and type(self.retrieved_doc_id) is not str:
            self._reject("retrieved_doc_id", "null or a string")
        if self.prompt_tokens is not None and not is_count(self.prompt_tokens):
            self._reject("prompt_tokens", "null or a non-negative integer")
        if self.completion_tokens is not None and not is_count(self.completion_tokens):
            self._reject("completion_tokens", "null or a non-negative integer")
        if self.latency_ms is not None and not is_count(self.latency_ms):
            self._reject("latency_ms", "null or a non-negative integer")

    def _reject(self, name: str, expected: str):
        raise ValidationError(
            f"record {self.question_id!r}: field {name!r} must be {expected}, "
            f"got {getattr(self, name)!r}"
        )


_RECORD_FIELDS = tuple(f.name for f in fields(PredictionRecord))
_record_values = attrgetter(*_RECORD_FIELDS)


def record_to_row(record: PredictionRecord) -> dict:
    """The record's fields, without `genread_empty_context` when it is None."""
    row = dict(zip(_RECORD_FIELDS, _record_values(record)))
    if record.genread_empty_context is None:
        del row["genread_empty_context"]
    return row


def record_from_row(row: Any) -> PredictionRecord:
    return from_object(PredictionRecord, row, "prediction row")


def write_records(records: Sequence[PredictionRecord], path: str | Path) -> int:
    return write_jsonl(path, (record_to_row(r) for r in records))


def read_records(path: str | Path) -> list[PredictionRecord]:
    return read_jsonl(path, record_from_row)


def read_run(path: str | Path, dataset: Sequence[QAExample]) -> list[PredictionRecord]:
    """Records of one run file, which must be non-empty, hold a single mode
    and join to `dataset` (`join_runs`); each record's `correct` flag must be
    what `is_correct` gives its prediction against the question's gold answers."""
    records = read_records(path)
    if not records:
        raise ValidationError(f"run file {path} holds no records")
    modes = sorted({r.mode for r in records})
    if len(modes) > 1:
        raise ValidationError(f"run file {path} mixes modes {' and '.join(modes)}")
    (rows,) = join_runs(dataset, records)
    for ex, rec in zip(dataset, rows):
        if rec.correct != is_correct(rec.prediction, ex.gold_answers):
            raise ValidationError(
                f"{path}: record {rec.question_id!r} has correct {rec.correct}, but its "
                f"prediction scores {not rec.correct} against the dataset's gold answers"
            )
    return records


def join_runs(
    dataset: Sequence[QAExample], *runs: Sequence[PredictionRecord]
) -> list[list[PredictionRecord]]:
    """Each run's record for every question, in dataset order: one list per run.

    Raises ValidationError when the dataset repeats a question id, and
    JoinError when a run holds two records for one question, a record for a
    question outside the dataset, or no record for some question.
    """
    positions = question_positions(dataset)
    joined = []
    for run in runs:
        by_id = {rec.question_id: rec for rec in run}
        rows = [by_id.pop(qid, None) for qid in positions]
        if by_id or len(run) != len(rows) or not all(rows):  # unknown, repeated or missing
            raise _join_error(positions, run)
        joined.append(rows)
    return joined


def _join_error(positions: dict[str, int], run: Sequence[PredictionRecord]) -> JoinError:
    """The error of a run that does not hold one record per question."""
    label = run[0].mode if run else "empty"
    seen: set[str] = set()
    for rec in run:
        if rec.question_id in seen:
            return JoinError(f"{label} run has duplicate records for {rec.question_id!r}")
        seen.add(rec.question_id)
    missing = sorted(positions.keys() - seen)
    extra = sorted(seen.difference(positions))
    return JoinError(
        f"{label} run does not cover the dataset "
        f"(missing: {missing[:10]}, unknown: {extra[:10]})"
    )


def overall_accuracy(records: Sequence[PredictionRecord]) -> float:
    if not records:
        raise ValidationError("cannot compute accuracy of an empty record set")
    return sum(r.correct for r in records) / len(records)


def popularity_correlation(
    records: Sequence[PredictionRecord], dataset: Sequence[QAExample]
) -> dict[str, float | None]:
    """Per-relation Pearson correlation of log10 popularity vs. correctness.

    Relations where either side has zero variance (or fewer than two records)
    map to None rather than an arbitrary number.
    """
    rows = _per_relation(dataset, *join_runs(dataset, records))
    return {row.relation: row.correlation for row in rows}


@dataclass(frozen=True)
class RelationRow:
    """One relation's line of a report; fields in CSV column order."""

    relation: str
    n: int
    accuracy: float
    correlation: float | None


def _per_relation(
    dataset: Sequence[QAExample], rows: Sequence[PredictionRecord]
) -> list[RelationRow]:
    """One row per relation of a joined run, sorted by relation."""
    grouped: dict[str, tuple[list[float], list[bool]]] = {}
    for ex, rec in zip(dataset, rows):
        pops, flags = grouped.setdefault(ex.relation_type, ([], []))
        pops.append(ex.log10_popularity)
        flags.append(rec.correct)
    out = []
    for rel, (pops, flags) in sorted(grouped.items()):
        out.append(RelationRow(rel, len(flags), sum(flags) / len(flags), _pearson(pops, flags)))
    return out


def _pearson(xs: Sequence[float], ys: Sequence[float]) -> float | None:
    """Pearson's r by Python 3.11's `statistics.correlation` formula, whose
    `fsum`, division and `sqrt` are correctly rounded, so every Python gives
    the same bits; None for fewer than two points or a constant side, tested
    directly since a rounded mean would leave deviations of rounding noise."""
    n = len(xs)
    if n < 2 or min(xs) == max(xs) or min(ys) == max(ys):
        return None
    xbar = math.fsum(xs) / n
    ybar = math.fsum(ys) / n
    sxy = math.fsum((x - xbar) * (y - ybar) for x, y in zip(xs, ys))
    sxx = math.fsum((d := x - xbar) * d for x in xs)
    syy = math.fsum((d := y - ybar) * d for y in ys)
    root = math.sqrt(sxx * syy)
    return sxy / root if root else None  # root is 0 where tiny squares underflow


def wilson_interval(successes: int, n: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion, at z = WILSON_Z."""
    if n <= 0 or not 0 <= successes <= n:
        raise ValidationError(f"bad Wilson inputs: {successes}/{n}")
    p, z = successes / n, WILSON_Z
    denom = 1.0 + z * z / n
    center = (p + z * z / (2 * n)) / denom
    half = z * math.sqrt(p * (1 - p) / n + z * z / (4 * n * n)) / denom
    # The exact interval touches p at p in {0, 1}; clamp so float rounding
    # never pushes a bound past the point estimate or outside [0, 1].
    return max(0.0, min(center - half, p)), min(1.0, max(center + half, p))


@dataclass(frozen=True)
class PopularityBin:
    """One log10-popularity bin of a report; fields in CSV column order."""

    center_log10_pop: float
    n: int
    accuracy: float
    wilson_low: float
    wilson_high: float


def _binned_accuracy(
    dataset: Sequence[QAExample], rows: Sequence[PredictionRecord], min_n: int
) -> list[PopularityBin]:
    """Accuracy by log10-popularity bin with Wilson 95% intervals; bins with
    fewer than `min_n` records are omitted."""
    buckets: dict[int, list[bool]] = {}
    for ex, rec in zip(dataset, rows):
        idx = math.floor(ex.log10_popularity / BIN_WIDTH_LOG10)
        buckets.setdefault(idx, []).append(rec.correct)
    bins = []
    for idx in sorted(buckets):
        flags = buckets[idx]
        if len(flags) < min_n:
            continue
        successes = sum(flags)
        low, high = wilson_interval(successes, len(flags))
        center = (idx + 0.5) * BIN_WIDTH_LOG10
        bins.append(PopularityBin(center, len(flags), successes / len(flags), low, high))
    return bins


@dataclass(frozen=True)
class QuadrantCell:
    """One cell of the quadrant table; fields in CSV column order."""

    lm_correct: bool
    retrieval_correct: bool
    fraction: float
    mean_recall1: float | None
    n: int


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
    if not dataset:
        raise ValidationError("cannot analyse quadrants of an empty dataset")
    van, ret = join_runs(dataset, vanilla_records, retrieval_records)
    lacking = sorted(rec.question_id for rec in ret if rec.retrieval_recall1 is None)
    if lacking:
        raise ValidationError(f"retrieval records without recall@1: {lacking[:10]}")
    # The recall@1 of each cell's retrieval records.
    cells: dict[tuple[bool, bool], list[bool]] = {
        (v, r): [] for v in (True, False) for r in (True, False)
    }
    for v, r in zip(van, ret):
        cells[(v.correct, r.correct)].append(r.retrieval_recall1)
    total = len(dataset)
    table: QuadrantTable = {}
    for key, recalls in cells.items():
        table[key] = QuadrantCell(
            *key,
            fraction=len(recalls) / total,
            mean_recall1=(sum(recalls) / len(recalls)) if recalls else None,
            n=len(recalls),
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

# Columns that name a row; in JSON they are the row's key, not its values.
_KEY_COLUMNS = ("relation", "lm_correct", "retrieval_correct")


def _columns(row_class: type) -> list[str]:
    """A report table's CSV header: its row class's fields, in order."""
    return [f.name for f in fields(row_class)]


def _values(row) -> dict:
    """A report row's JSON object: every column but the key columns."""
    return {c: getattr(row, c) for c in _columns(type(row)) if c not in _KEY_COLUMNS}


@dataclass
class EvalReport:
    """Aggregated evaluation artifacts for a run (or an adaptive system)."""

    overall_accuracy: float
    per_relation: list[RelationRow]
    bins: list[PopularityBin]
    quadrants: QuadrantTable | None = None
    retrieval_fraction: float | None = None
    cost: dict | None = None
    baselines: dict[str, float] | None = None
    adaptive: dict | None = None

    def to_dict(self) -> dict:
        out: dict = {
            "overall_accuracy": self.overall_accuracy,
            "per_relation": {row.relation: _values(row) for row in self.per_relation},
            "bins": [_values(b) for b in self.bins],
            "quadrants": None if self.quadrants is None else {
                _QUADRANT_NAMES[key]: _values(cell) for key, cell in self.quadrants.items()
            },
            "retrieval_fraction": self.retrieval_fraction,
            "cost": self.cost,
        }
        if self.baselines is not None:
            out["baselines"] = self.baselines
        if self.adaptive is not None:
            out["adaptive"] = self.adaptive
        return out

    def to_json(self) -> str:
        return dumps_stable(self.to_dict())


def evaluate_run(
    records: Sequence[PredictionRecord],
    dataset: Sequence[QAExample],
    min_bin_n: int = DEFAULT_MIN_BIN_N,
) -> EvalReport:
    """Overall accuracy, per-relation accuracy/correlation, and popularity bins
    of a run holding one record per dataset question."""
    if not is_count(min_bin_n):
        raise ValidationError(f"min_bin_n must be a non-negative integer, got {min_bin_n!r}")
    (rows,) = join_runs(dataset, records)
    return EvalReport(
        overall_accuracy=overall_accuracy(rows),
        per_relation=_per_relation(dataset, rows),
        bins=_binned_accuracy(dataset, rows, min_bin_n),
    )


def _csv_text(row_class: type, rows: Iterable) -> str:
    """The table as CSV; the header comes from the class, so a table with no
    rows still has one. None is written as an empty cell."""
    import csv

    header = _columns(row_class)
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else v for v in map(row.__getattribute__, header)])
    return buf.getvalue()


def write_report(report: EvalReport, out_dir: str | Path, stem: str = "report") -> Path:
    """Write report JSON plus plot-ready CSV tables; returns the JSON path."""
    out_dir = Path(out_dir)
    json_path = out_dir / f"{stem}.json"
    atomic_write_text(json_path, report.to_json() + "\n")
    tables = [("per_relation", RelationRow, report.per_relation),
              ("bins", PopularityBin, report.bins)]
    if report.quadrants is not None:
        cells = [cell for _key, cell in sorted(report.quadrants.items(), reverse=True)]
        tables.append(("quadrants", QuadrantCell, cells))
    for name, row_class, rows in tables:
        atomic_write_text(out_dir / f"{stem}_{name}.csv", _csv_text(row_class, rows))
    return json_path
