"""Seeded input generators for the three benchmark workloads.

Everything here is stdlib only and writes the documented on-disk formats
(dataset, corpus and triples JSON Lines, plain frequency text) directly, so a
change inside popgate can never change a workload's inputs. The same seed
always gives byte-identical files.
"""

from __future__ import annotations

import itertools
import json
import random
from pathlib import Path

# Relation names and question patterns as the README documents them.
TEMPLATES = {
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
RELATIONS = tuple(TEMPLATES)

# Popular and rare subjects sit on either side of the synthetic oracle's
# default midpoint (log10 popularity 3.5): rare subjects' passages usually
# hold the answer, popular ones' usually do not, so routing by popularity
# beats both fixed strategies.
LOW_POP_HIT_RATE = 0.85
HIGH_POP_HIT_RATE = 0.35
POP_MIDPOINT = 3.5

_SYLLABLES = ("ka", "lo", "mi", "ter", "su", "van", "dor", "el", "ri", "po", "zan", "quo")

# Top Zipf ranks: English function words first, then every word the question
# templates use, so every query shares long posting lists with the corpus.
_FUNCTION_WORDS = (
    "the of and a in to is was for on as with by that it from at his an which "
    "are be this or her has had not were their also its one after they first"
).split()


def _template_words() -> list[str]:
    words = []
    for pattern in TEMPLATES.values():
        for word in pattern.replace("[subj]", " ").replace("'s", " ").replace("?", " ").split():
            word = word.lower()
            if word not in words and word not in _FUNCTION_WORDS:
                words.append(word)
    return words


def _name(rng: random.Random, i: int) -> str:
    stem = "".join(rng.choice(_SYLLABLES) for _ in range(2))
    return f"{stem.capitalize()}{i:05d}"


def _write_jsonl(path: Path, rows) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(row, sort_keys=True, ensure_ascii=False) + "\n")


def popqa(out: Path, seed: int, questions: int) -> dict:
    """PopQA-shaped dataset with annotated popularity and one passage per subject.

    Popularity is log-uniform from 10^1 to 10^6 views; each subject gets a
    unique label token, so every query matches exactly one short passage.
    """
    rng = random.Random(f"popqa\x00{seed}")
    rows, passages = [], []
    for i in range(questions):
        relation = RELATIONS[i % len(RELATIONS)]
        label = _name(rng, i)
        answer = f"{_name(rng, i)} Answer"
        log10_pop = rng.uniform(1.0, 6.0)
        hit_rate = LOW_POP_HIT_RATE if log10_pop < POP_MIDPOINT else HIGH_POP_HIT_RATE
        detail = answer if rng.random() < hit_rate else "unverified"
        rows.append(
            {
                "id": f"Q{i:05d}:{relation}",
                "question": TEMPLATES[relation].replace("[subj]", label),
                "answers": [answer],
                "subj": label,
                "subj_id": f"Q{i:05d}",
                "relation": relation,
                "popularity": round(10.0**log10_pop),
            }
        )
        passages.append({"doc_id": f"D{i:05d}", "title": label, "text": f"{label} record. {detail}."})
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "dataset.jsonl", rows)
    _write_jsonl(out / "corpus.jsonl", passages)
    return {"questions": questions, "passages": questions, "relations": len(RELATIONS)}


def bm25_zipf(out: Path, seed: int, passages: int, questions: int, tokens: int = 100,
              vocabulary: int = 20000, distractor_rate: float = 0.2) -> dict:
    """Zipf(1) passages of about `tokens` words plus template questions.

    The first `questions` passages each describe one entity: its unique token
    and its answer are mixed into Zipf filler. A `distractor_rate` share of
    entities is also mentioned, without the answer, in one filler passage, so
    recall@1 is below one. Passage order is shuffled so doc ids say nothing.
    """
    rng = random.Random(f"bm25\x00{seed}")
    head = _FUNCTION_WORDS + _template_words()
    vocab = head + [f"w{r}" for r in range(len(head), vocabulary)]
    cum_weights = list(itertools.accumulate(1.0 / r for r in range(1, len(vocab) + 1)))

    def filler(n: int) -> list[str]:
        return rng.choices(vocab, cum_weights=cum_weights, k=n)

    texts = [filler(tokens) for _ in range(passages)]
    rows = []
    for i in range(questions):
        relation = RELATIONS[i % len(RELATIONS)]
        label = _name(rng, i)
        answer = f"Ans{_name(rng, i)}"
        text = texts[i]
        text[rng.randrange(tokens)] = label
        text[rng.randrange(tokens)] = answer
        if rng.random() < distractor_rate:
            other = texts[rng.randrange(questions, passages)]
            other[rng.randrange(tokens)] = label
        rows.append(
            {
                "id": f"B{i:05d}:{relation}",
                "question": TEMPLATES[relation].replace("[subj]", label),
                "answers": [answer],
                "subj": label,
                "subj_id": f"B{i:05d}",
                "relation": relation,
                "popularity": round(10.0 ** rng.uniform(1.0, 6.0)),
            }
        )
    order = list(range(passages))
    rng.shuffle(order)
    corpus = [
        {"doc_id": f"Z{order[i]:06d}", "title": "", "text": " ".join(texts[i]) + "."}
        for i in range(passages)
    ]
    corpus.sort(key=lambda row: row["doc_id"])
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "dataset.jsonl", rows)
    _write_jsonl(out / "corpus.jsonl", corpus)
    return {"passages": passages, "questions": questions, "tokens_per_passage": tokens,
            "vocabulary": vocabulary}


def endpoint(out: Path, seed: int, triples: int, text_bytes: int) -> dict:
    """Raw triples (one alias per subject) and a frequency text for sampling.

    Every subject label appears at least once in the text; extra mentions
    follow a Zipf law over subjects, mixed with function words up to
    `text_bytes`.
    """
    rng = random.Random(f"endpoint\x00{seed}")
    rows, labels = [], []
    for i in range(triples):
        relation = RELATIONS[i % len(RELATIONS)]
        label = _name(rng, i)
        labels.append(label)
        rows.append(
            {
                "subj_id": f"E{i:05d}",
                "subj": label,
                "subj_aliases": [f"{label} Jr"],
                "relation": relation,
                "objects": [{"id": f"O{i:05d}", "label": f"Ans{i:05d}", "aliases": []}],
            }
        )
    words = list(labels)
    size = sum(len(w) + 1 for w in words)
    while size < text_bytes:
        if rng.random() < 0.3:
            word = labels[min(int(rng.paretovariate(1.0)), triples) - 1]
        else:
            word = rng.choice(_FUNCTION_WORDS)
        words.append(word)
        size += len(word) + 1
    rng.shuffle(words)
    out.mkdir(parents=True, exist_ok=True)
    _write_jsonl(out / "triples.jsonl", rows)
    (out / "freq.txt").write_text(" ".join(words) + "\n", encoding="utf-8")
    return {"triples": triples, "text_bytes": text_bytes, "relations": len(RELATIONS)}
