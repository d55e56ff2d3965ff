from __future__ import annotations

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from popgate.dataset import (
    CorpusTermFrequency,
    KnowledgeTriple,
    QuestionTemplate,
    RELATIONS,
    default_templates,
    example_from_row,
    read_dataset,
    sample_triples,
    verbalize,
    write_dataset,
)
from popgate.errors import ConfigError, ValidationError

from conftest import make_triple
from oracles import regex_term_count, sampling_probability


class TestSampling:
    def test_frequency_above_ceiling_always_included(self):
        triples = [make_triple(i) for i in range(5000)]
        kept = sample_triples(triples, lambda t: math.e**2, per_relation_cap=10**9, rng_seed=3)
        assert len(kept) == len(triples)

    def test_frequency_at_floor_never_included(self):
        triples = [make_triple(i) for i in range(5000)]
        kept = sample_triples(triples, lambda t: math.e**-6, per_relation_cap=10**9, rng_seed=3)
        assert kept == []

    def test_zero_frequency_excluded_without_error(self):
        kept = sample_triples([make_triple(0)], lambda t: 0.0, rng_seed=1)
        assert kept == []

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValidationError):
            sample_triples([make_triple(0)], lambda t: -1.0, rng_seed=1)

    def test_unit_frequency_rate_near_three_quarters(self):
        n = 20000
        triples = [make_triple(i) for i in range(n)]
        kept = sample_triples(triples, lambda t: 1.0, per_relation_cap=10**9, rng_seed=11)
        p = sampling_probability(1.0)
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(len(kept) / n - p) <= 3 * sigma

    def test_per_relation_cap(self):
        triples = [make_triple(i, relation="director") for i in range(50)]
        triples += [make_triple(i + 50, relation="genre") for i in range(50)]
        kept = sample_triples(triples, lambda t: math.e**2, per_relation_cap=10, rng_seed=0)
        by_rel = {}
        for t in kept:
            by_rel[t.relation_type] = by_rel.get(t.relation_type, 0) + 1
        assert by_rel == {"director": 10, "genre": 10}

    def test_order_preserved_and_deterministic(self):
        triples = [make_triple(i) for i in range(200)]
        kept_a = sample_triples(triples, lambda t: 1.0, rng_seed=5)
        kept_b = sample_triples(triples, lambda t: 1.0, rng_seed=5)
        assert kept_a == kept_b
        ids = [t.subject_id for t in kept_a]
        assert ids == sorted(ids)

    def test_duplicate_subject_relation_deduplicated_keeping_first(self):
        first = make_triple(1, objects=("Alpha",))
        second = make_triple(1, objects=("Beta",))
        kept = sample_triples([first, second], lambda t: math.e**2, rng_seed=0)
        assert kept == [first]


class TestVerbalize:
    def test_director_question(self):
        triple = KnowledgeTriple(
            subject_id="Q1",
            subject_label="Black",
            subject_aliases=frozenset({"Black"}),
            relation_type="director",
            object_ids=frozenset({"Q2"}),
            object_labels_and_aliases=frozenset({"Sanjay Leela Bhansali"}),
        )
        example = verbalize(triple, default_templates())
        assert example.question == "Who was the director of Black?"
        assert "Sanjay Leela Bhansali" in example.gold_answers

    def test_country_question(self):
        triple = KnowledgeTriple(
            subject_id="Q3",
            subject_label="Pierre",
            subject_aliases=frozenset({"Pierre"}),
            relation_type="country",
            object_ids=frozenset({"Q4"}),
            object_labels_and_aliases=frozenset({"United States"}),
        )
        assert verbalize(triple, default_templates()).question == "In what country is Pierre?"

    def test_multi_object_answers_unioned(self):
        triple = make_triple(9, objects=("Alice Smith", "A. Smith", "Bob Jones"))
        example = verbalize(triple, default_templates())
        assert example.gold_answers == frozenset({"Alice Smith", "A. Smith", "Bob Jones"})

    def test_missing_template_names_relation(self):
        triple = make_triple(1, relation="director")
        with pytest.raises(ConfigError, match="director"):
            verbalize(triple, {})

    def test_pure_function(self):
        triple = make_triple(4)
        templates = default_templates()
        assert verbalize(triple, templates) == verbalize(triple, templates)

    def test_placeholder_in_label_substituted_literally(self):
        template = QuestionTemplate("director", "Who was the director of [subj]?")
        triple = KnowledgeTriple(
            subject_id="Q9",
            subject_label="[subj]",
            subject_aliases=frozenset(),
            relation_type="director",
            object_ids=frozenset({"Q2"}),
            object_labels_and_aliases=frozenset({"X"}),
        )
        example = verbalize(triple, {"director": template})
        assert example.question == "Who was the director of [subj]?"

    def test_all_sixteen_templates_well_formed(self):
        templates = default_templates()
        assert set(templates) == set(RELATIONS)
        for template in templates.values():
            assert template.pattern.count("[subj]") == 1
            assert template.render("Foo").endswith("?")

    def test_template_requires_single_placeholder(self):
        with pytest.raises(ValidationError):
            QuestionTemplate("director", "Who directed it?")
        with pytest.raises(ValidationError):
            QuestionTemplate("director", "[subj] directed [subj]?")


class TestDatasetIO:
    def test_empty_dataset(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        assert write_dataset([], path) == 0
        assert path.read_text() == ""
        assert read_dataset(path) == []

    def test_round_trip(self, tmp_path):
        examples = [
            verbalize(make_triple(i, relation=rel), default_templates())
            for i, rel in enumerate(("director", "genre", "author"))
        ]
        path = tmp_path / "data.jsonl"
        assert write_dataset(examples, path) == 3
        assert read_dataset(path) == examples

    def test_quotes_survive_round_trip(self, tmp_path):
        triple = make_triple(0, objects=('He said "hi"',))
        example = verbalize(triple, default_templates())
        path = tmp_path / "data.jsonl"
        write_dataset([example], path)
        assert len(path.read_text().strip().splitlines()) == 1
        assert read_dataset(path) == [example]

    def test_same_seed_byte_identical_dataset(self, tmp_path):
        triples = [make_triple(i) for i in range(300)]
        paths = []
        for name in ("a.jsonl", "b.jsonl"):
            kept = sample_triples(triples, lambda t: 1.0, rng_seed=42)
            path = tmp_path / name
            write_dataset([verbalize(t, default_templates()) for t in kept], path)
            paths.append(path)
        assert paths[0].read_bytes() == paths[1].read_bytes()


GOOD_ROW = {
    "id": "S0:capital",
    "question": "What is the capital of X?",
    "answers": ["Paris"],
    "subj": "X",
    "subj_id": "S0",
    "relation": "capital",
    "popularity": 100,
}


class TestExampleRowTypes:
    @pytest.mark.parametrize("popularity", [None, 0, 100])
    def test_good_row_accepted(self, popularity):
        example = example_from_row({**GOOD_ROW, "popularity": popularity})
        assert example.gold_answers == frozenset({"Paris"})
        assert example.popularity == popularity

    def test_popularity_may_be_absent(self):
        row = {k: v for k, v in GOOD_ROW.items() if k != "popularity"}
        assert example_from_row(row).popularity is None

    @pytest.mark.parametrize(
        "change, fragment",
        [
            ({"answers": "Paris"}, "'answers'"),
            ({"answers": []}, "empty gold answer"),
            ({"answers": ["Paris", 5]}, "'answers'"),
            ({"popularity": "100"}, "'popularity'"),
            ({"popularity": True}, "'popularity'"),
            ({"popularity": 1.5}, "'popularity'"),
            ({"popularity": -1}, "negative popularity"),
            ({"id": 7}, "'id'"),
            ({"question": None}, "'question'"),
            ({"subj": ["X"]}, "'subj'"),
            ({"subj_id": 0}, "'subj_id'"),
            ({"relation": {"name": "capital"}}, "'relation'"),
        ],
    )
    def test_wrong_field_type_rejected(self, change, fragment):
        with pytest.raises(ValidationError, match=fragment):
            example_from_row({**GOOD_ROW, **change})

    def test_row_that_is_not_an_object_rejected(self):
        with pytest.raises(ValidationError, match="not a JSON object"):
            example_from_row(list(GOOD_ROW.values()))

    def test_read_dataset_names_path_and_line(self, tmp_path):
        path = tmp_path / "data.jsonl"
        path.write_text(
            json.dumps(GOOD_ROW) + "\n\n" + json.dumps({**GOOD_ROW, "answers": "Paris"}) + "\n"
        )
        with pytest.raises(ValidationError, match=f"{path}:3: .*'answers'"):
            read_dataset(path)


class TestCorpusTermFrequency:
    def test_counts_exact_alias_matches(self):
        corpus = "Ada Lovelace wrote notes. Ada Lovelace and Lovelace Ada. adalovelace."
        triple = KnowledgeTriple(
            subject_id="Q1",
            subject_label="Ada Lovelace",
            subject_aliases=frozenset({"Ada Lovelace"}),
            relation_type="occupation",
            object_ids=frozenset({"Q2"}),
            object_labels_and_aliases=frozenset({"mathematician"}),
        )
        assert CorpusTermFrequency(corpus)(triple) == 2.0

    def test_distinct_aliases_summed(self):
        corpus = "The Bard wrote plays. Shakespeare wrote plays."
        triple = KnowledgeTriple(
            subject_id="Q1",
            subject_label="Shakespeare",
            subject_aliases=frozenset({"The Bard"}),
            relation_type="occupation",
            object_ids=frozenset({"Q2"}),
            object_labels_and_aliases=frozenset({"playwright"}),
        )
        assert CorpusTermFrequency(corpus)(triple) == 2.0

    @pytest.mark.parametrize(
        "corpus, name, count",
        [
            ("A. B A.B (A.) A.", "A.", 3),
            ("-x a-x x-x -x_ -x", "-x", 2),
            ("New York, York and Yorker", "York", 2),
            ("aaa aa aaaa aa", "aa", 2),
            ("a a a", "a a", 1),
            ("A. A. A.", "A. A.", 1),
            ("_ a_b __ _", "_", 2),
            ("Jose\u0301 José", "Jose", 1),
            ("ＡB B 中B ٣B ßB B", "B", 2),
        ],
    )
    def test_hard_edges(self, corpus, name, count):
        assert CorpusTermFrequency(corpus)(name_triple(name)) == count
        assert regex_term_count(corpus, name) == count

    @settings(max_examples=400, deadline=None)
    @given(data=st.data())
    def test_count_equals_regex_reference(self, data):
        # A two-character alphabet makes repeated, overlapping mentions likely.
        chars = data.draw(st.sampled_from([TEXT_CHARS, st.sampled_from("a ")]))
        names = data.draw(st.lists(st.text(chars, min_size=1, max_size=4), min_size=1,
                                   max_size=3))
        # Mentions of the names between random runs of text, so names often
        # sit at the text's edges and next to every kind of character.
        pieces = data.draw(st.lists(st.one_of(st.sampled_from(names), st.text(chars, max_size=3)),
                                    max_size=12))
        text = "".join(pieces)
        for name in names:
            assert CorpusTermFrequency(text)(name_triple(name)) == regex_term_count(text, name)
        triple = name_triple(names[0], names[1:])
        expected = sum(regex_term_count(text, name) for name in set(names))
        assert CorpusTermFrequency(text)(triple) == expected


# Letters (one fullwidth), digits (one Arabic-Indic), a numeric that is no
# digit ("½"), "_", a combining mark, a CJK ideograph, NBSP, space and
# punctuation.
TEXT_CHARS = st.sampled_from(
    list("aAb1_ .-") + ["\u0301", "\uff21", "\u0663", "½", "ß", "中", "\u00a0"]
)


def name_triple(label: str, aliases=()) -> KnowledgeTriple:
    return KnowledgeTriple(
        subject_id="Q1",
        subject_label=label,
        subject_aliases=frozenset(aliases),
        relation_type="occupation",
        object_ids=frozenset({"Q2"}),
        object_labels_and_aliases=frozenset({"x"}),
    )
