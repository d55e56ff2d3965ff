from __future__ import annotations

import random

import pytest

from popgate.dataset import KnowledgeTriple, QAExample, RELATIONS


def make_triple(i: int, relation: str = "director", objects: tuple[str, ...] = ("Alice Smith",)):
    return KnowledgeTriple(
        subject_id=f"S{i:05d}",
        subject_label=f"Subject{i:05d}",
        subject_aliases=frozenset({f"Subject{i:05d}"}),
        relation_type=relation,
        object_labels_and_aliases=frozenset(objects),
    )


def make_example(
    i: int,
    relation: str = "director",
    popularity: int | None = 1000,
    answers: tuple[str, ...] = ("Alice Smith",),
) -> QAExample:
    return QAExample(
        id=f"S{i:05d}:{relation}",
        question=f"Who was the director of Subject{i:05d}?",
        gold_answers=frozenset(answers),
        subject_id=f"S{i:05d}",
        subject_label=f"Subject{i:05d}",
        relation_type=relation,
        popularity=popularity,
    )


def synthetic_examples(
    n: int,
    relations: tuple[str, ...] = RELATIONS[:4],
    seed: int = 0,
    pop_range: tuple[float, float] = (1.0, 6.0),
) -> list[QAExample]:
    """Examples with seeded uniform log10 popularity across a few relations."""
    rng = random.Random(seed)
    out = []
    for i in range(n):
        rel = relations[i % len(relations)]
        views = round(10.0 ** rng.uniform(*pop_range))
        out.append(
            QAExample(
                id=f"S{i:05d}:{rel}",
                question=f"Question about Subject{i:05d}?",
                gold_answers=frozenset({f"Fact{i:05d}"}),
                subject_id=f"S{i:05d}",
                subject_label=f"Subject{i:05d}",
                relation_type=rel,
                popularity=views,
            )
        )
    return out


@pytest.fixture
def sixteen_relation_dataset() -> list[QAExample]:
    out = []
    i = 0
    for relation in RELATIONS:
        for _ in range(3):
            out.append(
                QAExample(
                    id=f"S{i:05d}:{relation}",
                    question=f"Question about Subject{i:05d}?",
                    gold_answers=frozenset({f"Fact{i:05d}"}),
                    subject_id=f"S{i:05d}",
                    subject_label=f"Subject{i:05d}",
                    relation_type=relation,
                    popularity=10 ** (i % 6 + 1),
                )
            )
            i += 1
    return out
