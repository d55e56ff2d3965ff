"""Build entity-centric QA datasets from knowledge-graph triples.

Triples are deduplicated per (subject, relation), kept or dropped by a
frequency-weighted rejection rule, and verbalized through per-relation
question templates.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Any, Callable, Iterable, Mapping, Sequence

from .config import DEFAULT_PER_RELATION_CAP
from .errors import ConfigError, ValidationError
from .util import parse_rows, read_json, read_jsonl, write_jsonl

PLACEHOLDER = "[subj]"

DEFAULT_TEMPLATE_PATTERNS: dict[str, str] = {
    "occupation": "What is [subj]'s occupation?",
    "place of birth": "In what city was [subj] born?",
    "genre": "What genre is [subj]?",
    "father": "Who is the father of [subj]?",
    "country": "In what country is [subj]?",
    "producer": "Who was the producer of [subj]?",
    "director": "Who was the director of [subj]?",
    "capital of": "What is [subj] the capital of?",
    "screenwriter": "Who was the screenwriter for [subj]?",
    "composer": "Who was the composer of [subj]?",
    "color": "What color is [subj]?",
    "religion": "What is the religion of [subj]?",
    "sport": "What sport does [subj] play?",
    "author": "Who is the author of [subj]?",
    "mother": "Who is the mother of [subj]?",
    "capital": "What is the capital of [subj]?",
}
RELATIONS: tuple[str, ...] = tuple(DEFAULT_TEMPLATE_PATTERNS)


@dataclass(frozen=True)
class KnowledgeTriple:
    """One (subject, relation, objects) fact with display labels and aliases."""

    subject_id: str
    subject_label: str
    subject_aliases: frozenset[str]
    relation_type: str
    object_labels_and_aliases: frozenset[str]

    def __post_init__(self):
        if not self.subject_label:
            raise ValidationError(f"triple {self.subject_id!r}: empty subject_label")
        if not self.relation_type:
            raise ValidationError(f"triple {self.subject_id!r}: empty relation_type")
        if not self.object_labels_and_aliases:
            raise ValidationError(
                f"triple {self.subject_id!r}/{self.relation_type!r}: no object labels"
            )


@dataclass(frozen=True)
class QuestionTemplate:
    """Question pattern with exactly one subject placeholder."""

    relation_type: str
    pattern: str

    def __post_init__(self):
        if self.pattern.count(PLACEHOLDER) != 1:
            raise ValidationError(
                f"template for {self.relation_type!r} must contain {PLACEHOLDER!r} exactly once"
            )

    def render(self, subject_label: str) -> str:
        # Plain literal substitution: a label containing the placeholder token
        # is inserted as-is, never re-expanded.
        return self.pattern.replace(PLACEHOLDER, subject_label, 1)


def default_templates() -> dict[str, QuestionTemplate]:
    return {rel: QuestionTemplate(rel, pat) for rel, pat in DEFAULT_TEMPLATE_PATTERNS.items()}


@dataclass(slots=True)
class QAExample:
    """One question with its gold answer set and popularity annotation: a
    plain slotted record, checked when built. Callers must not mutate one;
    `with_popularity` returns an annotated copy."""

    id: str
    question: str
    gold_answers: frozenset[str]
    subject_id: str
    subject_label: str
    relation_type: str
    popularity: int | None = None

    def __post_init__(self):
        if not self.gold_answers or any(not a.strip() for a in self.gold_answers):
            raise ValidationError(f"example {self.id!r}: empty gold answer")
        if self.popularity is not None and self.popularity < 0:
            raise ValidationError(f"example {self.id!r}: negative popularity")

    @property
    def log10_popularity(self) -> float:
        if self.popularity is None:
            raise ValidationError(f"example {self.id!r}: popularity not annotated")
        return math.log10(max(self.popularity, 1))

    def with_popularity(self, views: int) -> "QAExample":
        return replace(self, popularity=views)


def sample_triples(
    triple_stream: Iterable[KnowledgeTriple],
    term_frequency: Callable[[KnowledgeTriple], float],
    per_relation_cap: int = DEFAULT_PER_RELATION_CAP,
    rng_seed: int | str = 0,
) -> list[KnowledgeTriple]:
    """Frequency-weighted rejection sampling over a triple stream.

    A triple whose subject has frequency proxy f is kept iff f > exp(8R - 6)
    with R uniform on [0, 1), i.e. with probability clamp((ln f + 6)/8, 0, 1).
    Duplicate (subject_id, relation_type) pairs are dropped before sampling,
    keeping the first occurrence. Once `per_relation_cap` triples of a relation
    have been accepted, the rest of that relation is rejected without
    consuming randomness. Output preserves input order.
    """
    if per_relation_cap <= 0:
        raise ValidationError("per_relation_cap must be positive")
    rng = random.Random(rng_seed)
    seen: set[tuple[str, str]] = set()
    accepted_per_relation: dict[str, int] = {}
    out: list[KnowledgeTriple] = []
    for triple in triple_stream:
        key = (triple.subject_id, triple.relation_type)
        if key in seen:
            continue
        seen.add(key)
        if accepted_per_relation.get(triple.relation_type, 0) >= per_relation_cap:
            continue
        f = term_frequency(triple)
        if f < 0:
            raise ValidationError(
                f"negative term frequency {f} for subject {triple.subject_label!r}"
            )
        if f > 0 and f > math.exp(8.0 * rng.random() - 6.0):
            accepted_per_relation[triple.relation_type] = (
                accepted_per_relation.get(triple.relation_type, 0) + 1
            )
            out.append(triple)
    return out


def verbalize(
    triple: KnowledgeTriple, templates: Mapping[str, QuestionTemplate]
) -> QAExample:
    """Turn a triple into a question; gold answers are all object labels and aliases."""
    template = templates.get(triple.relation_type)
    if template is None:
        raise ConfigError(f"no question template for relation {triple.relation_type!r}")
    answers = frozenset(a.strip() for a in triple.object_labels_and_aliases if a.strip())
    if not answers:
        raise ValidationError(
            f"triple {triple.subject_id!r}/{triple.relation_type!r}: only blank object labels"
        )
    return QAExample(
        id=f"{triple.subject_id}:{triple.relation_type}",
        question=template.render(triple.subject_label),
        gold_answers=answers,
        subject_id=triple.subject_id,
        subject_label=triple.subject_label,
        relation_type=triple.relation_type,
    )


def verbalize_all(
    triples: Sequence[KnowledgeTriple], templates: Mapping[str, QuestionTemplate]
) -> list[QAExample]:
    return [verbalize(t, templates) for t in triples]


def example_to_row(example: QAExample) -> dict:
    return {
        "id": example.id,
        "question": example.question,
        "answers": sorted(example.gold_answers),
        "subj": example.subject_label,
        "subj_id": example.subject_id,
        "relation": example.relation_type,
        "popularity": example.popularity,
    }


_EXAMPLE_STRING_KEYS = ("id", "question", "subj", "subj_id", "relation")


def _is_strings(value) -> bool:
    return isinstance(value, list) and all(isinstance(v, str) for v in value)


def example_from_row(row: dict) -> QAExample:
    if not isinstance(row, dict):
        raise ValidationError("dataset row is not a JSON object")
    try:
        for key in _EXAMPLE_STRING_KEYS:
            if not isinstance(row[key], str):
                raise ValidationError(f"dataset row field {key!r} is not a string")
        answers = row["answers"]
    except KeyError as exc:
        raise ValidationError(f"dataset row missing key {exc}") from exc
    if not _is_strings(answers):
        raise ValidationError("dataset row field 'answers' is not a list of strings")
    # QAExample rejects an empty answer list and a negative popularity.
    popularity = row.get("popularity")
    if popularity is not None and type(popularity) is not int:
        raise ValidationError(
            f"dataset row field 'popularity' is not null or an integer: {popularity!r}"
        )
    return QAExample(
        row["id"], row["question"], frozenset(answers), row["subj_id"], row["subj"],
        row["relation"], popularity,
    )


def _unique_examples() -> Callable[[Any], QAExample]:
    """`example_from_row` for the rows of one dataset, in order; a question id
    seen before is a ValidationError."""
    seen: set[str] = set()

    def from_row(row) -> QAExample:
        example = example_from_row(row)
        if example.id in seen:
            raise ValidationError(f"duplicate question id {example.id!r}")
        seen.add(example.id)
        return example

    return from_row


def question_positions(examples: Sequence[QAExample]) -> dict[str, int]:
    """Each question id's position in `examples`; a repeated id is a
    ValidationError naming the first one repeated."""
    positions = {ex.id: i for i, ex in enumerate(examples)}
    if len(positions) < len(examples):
        seen: set[str] = set()
        repeated = next(ex.id for ex in examples if ex.id in seen or seen.add(ex.id))
        raise ValidationError(f"duplicate question id {repeated!r}")
    return positions


def write_dataset(examples: Sequence[QAExample], path: str | Path) -> int:
    """Write examples as JSON Lines; returns the line count. A row that
    `read_dataset` would refuse is a ValidationError naming its `path:line`."""
    rows = [example_to_row(e) for e in examples]
    parse_rows(path, enumerate(rows, start=1), _unique_examples())
    return write_jsonl(path, rows)


def read_dataset(path: str | Path) -> list[QAExample]:
    """The examples of a dataset file; a question id that repeats is a
    ValidationError naming the `path:line` of its second occurrence."""
    return read_jsonl(path, _unique_examples())


_TRIPLE_STRING_KEYS = ("subj_id", "subj", "relation")
_NOT_OBJECTS = (
    "triple row field 'objects' is not a list of objects with string 'id' and 'label' "
    "and an optional list of string 'aliases'"
)


def triple_from_row(row: dict) -> KnowledgeTriple:
    if not isinstance(row, dict):
        raise ValidationError("triple row is not a JSON object")
    try:
        for key in _TRIPLE_STRING_KEYS:
            if not isinstance(row[key], str):
                raise ValidationError(f"triple row field {key!r} is not a string")
        objects = row["objects"]
    except KeyError as exc:
        raise ValidationError(f"triple row missing key {exc}") from exc
    subj_aliases = row.get("subj_aliases", [])
    if not _is_strings(subj_aliases):
        raise ValidationError("triple row field 'subj_aliases' is not a list of strings")
    if not isinstance(objects, list):
        raise ValidationError(_NOT_OBJECTS)
    labels: set[str] = set()
    for obj in objects:
        if not (
            isinstance(obj, dict)
            and isinstance(obj.get("id"), str)
            and isinstance(obj.get("label"), str)
            and _is_strings(obj.get("aliases", []))
        ):
            raise ValidationError(_NOT_OBJECTS)
        labels.add(obj["label"])
        labels.update(obj.get("aliases", []))
    return KnowledgeTriple(
        subject_id=row["subj_id"],
        subject_label=row["subj"],
        subject_aliases=frozenset(subj_aliases),
        relation_type=row["relation"],
        object_labels_and_aliases=frozenset(l for l in labels if l),
    )


def read_triples(path: str | Path) -> list[KnowledgeTriple]:
    return read_jsonl(path, triple_from_row)


def load_templates(path: str | Path) -> dict[str, QuestionTemplate]:
    """Load {relation: pattern} JSON, e.g. {"director": "Who was the director of [subj]?"}."""
    raw = read_json(path, ConfigError)
    if not isinstance(raw, dict) or not all(isinstance(p, str) for p in raw.values()):
        raise ConfigError(f"{path}: templates file must be a JSON object of strings")
    return {rel: QuestionTemplate(rel, pattern) for rel, pattern in raw.items()}


def _is_word(char: str) -> bool:
    return char.isalnum() or char == "_"


class CorpusTermFrequency:
    r"""Frequency proxy: how often a subject's names occur in a reference text.

    An occurrence of a name counts when neither neighbour is a word character
    (a letter, digit or "_", as `re`'s Unicode `\w`); string edges count as
    non-word. Matching is case-sensitive, and occurrences are taken left to
    right without overlap, so a name's count is that of
    `re.findall(rf"(?<!\w){re.escape(name)}(?!\w)", text)`. The count is
    summed over the label and each distinct alias, and memoized per subject id.
    """

    def __init__(self, corpus_text: str):
        self._text = corpus_text
        self._totals: dict[str, int] = {}

    def __call__(self, triple: KnowledgeTriple) -> float:
        cached = self._totals.get(triple.subject_id)
        if cached is not None:
            return float(cached)
        total = sum(
            self._count(name) for name in {triple.subject_label, *triple.subject_aliases} if name
        )
        self._totals[triple.subject_id] = total
        return float(total)

    def _count(self, name: str) -> int:
        text = self._text
        count = 0
        start = text.find(name)
        while start >= 0:
            end = start + len(name)
            # A slice past either edge is "", which is not a word character.
            if not _is_word(text[start - 1:start]) and not _is_word(text[end:end + 1]):
                count += 1
                start = text.find(name, end)
            else:
                start = text.find(name, start + 1)
        return count
