from __future__ import annotations

import json
import math
import random
import re
import string
import struct

import pytest
from hypothesis import given, settings, strategies as st

from popgate.cli import main
from popgate.errors import IndexFormatError, ValidationError
from popgate.retriever import (
    INDEX_MAGIC,
    _idf,
    Bm25Index,
    Passage,
    build_index,
    load_index,
    save_index,
    tokenize,
)
from popgate.util import dumps_stable, write_jsonl

from oracles import bm25_ranking, brute_force_bm25


def random_corpus(
    rng: random.Random, n_docs: int, vocab_size: int = 25
) -> tuple[list[Passage], list[str]]:
    vocab = ["".join(rng.choices(string.ascii_lowercase, k=rng.randint(2, 6))) for _ in range(vocab_size)]
    passages = []
    for i in range(n_docs):
        words = rng.choices(vocab, k=rng.randint(1, 12))
        passages.append(Passage(doc_id=f"d{i:03d}", title=f"Doc {i}", text=" ".join(words)))
    return passages, vocab


def findall_tokens(text: str) -> list[str]:
    return re.findall(r"[^\W_]+", text.lower())


# ASCII weighted toward what separates tokens: punctuation, control
# characters, "_" and digits.
ASCII_CHARS = st.one_of(
    st.sampled_from(string.punctuation),
    st.characters(max_codepoint=0x1F),
    st.sampled_from("_\x7f \t\n"),
    st.sampled_from(string.digits),
    st.sampled_from(string.ascii_letters),
)
# Accented letters, "ß", "İ" (lowers to "i" and a combining dot), the Kelvin
# sign (lowers to ASCII "k"), fullwidth digits, "²", combining marks,
# non-ASCII spaces, other scripts, and any character at all.
OTHER_CHARS = st.one_of(
    st.sampled_from("éÉñüßİ\u212a\uff10\uff19²\u0301\u0307\u00a0\u2028Ω中"),
    st.characters(),
)


class TestTokenize:
    def test_lowercases_and_splits_on_nonword(self):
        assert tokenize("Ada's 2nd-best friend!") == ["ada", "s", "2nd", "best", "friend"]

    def test_underscore_is_a_separator(self):
        assert tokenize("foo_bar") == ["foo", "bar"]

    def test_unicode_letters_kept(self):
        assert tokenize("Zijah Sokolović") == ["zijah", "sokolović"]

    def test_every_ascii_character(self):
        text = "".join(map(chr, range(128)))
        letters = string.ascii_lowercase
        assert tokenize(text) == ["0123456789", letters, letters] == findall_tokens(text)

    # Text that is ASCII after lower() takes a byte-table path; the rest keeps
    # the regex. Both must agree with the expression tests/oracles.py uses.
    @given(st.one_of(st.text(ASCII_CHARS), st.text(st.one_of(ASCII_CHARS, OTHER_CHARS))))
    @settings(max_examples=500, deadline=None)
    def test_matches_the_regex_on_any_text(self, text):
        assert tokenize(text) == findall_tokens(text)


class TestBuildIndex:
    def test_counting_example(self):
        passages = [Passage("d1", "t", "a b a"), Passage("d2", "t", "b c")]
        index = build_index(passages)
        assert index.doc_count == 2
        # idf by document frequency: "a" is in one document, "b" in both, "absent" in none.
        assert _idf(index.doc_count, 1) == math.log(1.0 + 1.5 / 1.5)
        assert _idf(index.doc_count, 2) == math.log(1.0 + 0.5 / 2.5)
        assert _idf(index.doc_count, 0) == math.log(1.0 + 2.5 / 0.5)
        for query in ("a", "b", "a b a", "c b"):
            expected = brute_force_bm25(passages, query, 1.2, 0.75)
            hits = index.search(query, k=2)
            assert {h.doc_id: h.score for h in hits} == expected

    def test_empty_corpus_rejected(self):
        with pytest.raises(ValidationError):
            build_index([])

    def test_duplicate_doc_id_rejected(self):
        passages = [Passage("d1", "t", "x"), Passage("d1", "t", "y")]
        with pytest.raises(ValidationError, match="d1"):
            build_index(passages)

    def test_avg_doc_length_is_mean(self):
        passages = [
            Passage("d1", "t", "a b"),
            Passage("d2", "t", "a b c"),
            Passage("d3", "t", "a"),
        ]
        assert build_index(passages).avg_doc_length == pytest.approx(2.0)

    def test_empty_text_rejected(self):
        with pytest.raises(ValidationError):
            Passage("d1", "t", "")

    @pytest.mark.parametrize("field", ["doc_id", "title", "text"])
    def test_non_string_field_rejected(self, field):
        values = {"doc_id": "d1", "title": "t", "text": "x", field: 5}
        with pytest.raises(ValidationError, match=f"^{field} must be a string, got 5$"):
            Passage(**values)


WORDS = ("aa", "bb", "cc")
UNIVERSAL = "the"
RARE = "zyx"
UNKNOWN = ("unknown", "nothing")


@st.composite
def tie_heavy_cases(draw):
    """A corpus with duplicated passages, a near-universal term, one df=1
    term and token-free passages, plus a query that may repeat tokens."""
    texts = draw(st.lists(st.lists(st.sampled_from(WORDS), max_size=5), min_size=1, max_size=6))
    texts += [texts[i] for i in draw(st.lists(st.integers(0, len(texts) - 1), max_size=4))]
    without_universal = draw(st.integers(-1, len(texts) - 1))
    texts = [
        words + [UNIVERSAL] * draw(st.integers(1, 2)) if i != without_universal else words
        for i, words in enumerate(texts)
    ]
    rare_at = draw(st.integers(0, len(texts) - 1))
    texts[rare_at] = texts[rare_at] + [RARE]
    doc_ids = draw(st.permutations([f"d{i:02d}" for i in range(len(texts))]))
    passages = [
        Passage(doc_id, "", " ".join(words) or "...") for doc_id, words in zip(doc_ids, texts)
    ]
    query = draw(
        st.lists(st.sampled_from(WORDS + (UNIVERSAL, RARE) + UNKNOWN), min_size=1, max_size=6)
    )
    k1, b = draw(st.sampled_from([(1.2, 0.75), (0.0, 0.5), (2.0, 1.0), (1.2, 0.0)]))
    return passages, " ".join(query), k1, b


class TestSearch:
    def toy_index(self) -> Bm25Index:
        return build_index(
            [
                Passage("d1", "", "cat sat"),
                Passage("d2", "", "cat cat mat"),
                Passage("d3", "", "dog"),
            ],
            k1=1.2,
            b=0.75,
        )

    def test_toy_ranking_matches_oracle(self):
        index = self.toy_index()
        hits = index.search("cat", k=3)
        assert [h.doc_id for h in hits] == ["d2", "d1"]
        expected = brute_force_bm25(list(index.passages.values()), "cat", 1.2, 0.75)
        for hit in hits:
            assert abs(hit.score - expected[hit.doc_id]) <= 1e-9

    def test_absent_term_returns_empty(self):
        assert self.toy_index().search("bird", k=5) == []

    def test_k_larger_than_matches(self):
        hits = self.toy_index().search("dog", k=10)
        assert [h.doc_id for h in hits] == ["d3"]

    def test_empty_query_returns_empty(self):
        assert self.toy_index().search("...", k=3) == []

    def test_deterministic(self):
        a = self.toy_index().search("cat mat", k=3)
        b = self.toy_index().search("cat mat", k=3)
        assert a == b

    def test_tie_broken_by_ascending_doc_id(self):
        index = build_index(
            [Passage("d2", "", "cat"), Passage("d1", "", "cat"), Passage("d3", "", "dog")]
        )
        hits = index.search("cat", k=2)
        assert [h.doc_id for h in hits] == ["d1", "d2"]

    def test_matches_brute_force_on_random_corpora(self):
        rng = random.Random(1234)
        for _ in range(10):
            passages, vocab = random_corpus(rng, rng.randint(2, 100))
            index = build_index(passages, k1=1.2, b=0.75)
            for _ in range(5):
                query = " ".join(rng.choices(vocab, k=rng.randint(1, 4)))
                hits = index.search(query, k=len(passages))
                expected = brute_force_bm25(passages, query, 1.2, 0.75)
                assert {h.doc_id for h in hits} == set(expected)
                for hit in hits:
                    assert abs(hit.score - expected[hit.doc_id]) <= 1e-9
                assert [h.doc_id for h in hits] == bm25_ranking(passages, query, 1.2, 0.75)

    @settings(max_examples=300, deadline=None)
    @given(tie_heavy_cases())
    def test_pruned_top_k_matches_brute_force_for_every_k(self, tmp_path_factory, case):
        passages, query, k1, b = case
        index = build_index(passages, k1=k1, b=b)
        path = tmp_path_factory.getbasetemp() / "pruned.pgidx"
        save_index(index, path)
        loaded = load_index(path)
        expected = brute_force_bm25(passages, query, k1, b)
        ranking = bm25_ranking(passages, query, k1, b)
        for k in range(1, len(passages) + 1):
            hits = index.search(query, k=k)
            assert [h.doc_id for h in hits] == ranking[:k]
            assert [h.score for h in hits] == [expected[doc_id] for doc_id in ranking[:k]]
            assert loaded.search(query, k=k) == hits
            assert index.search(" ".join(UNKNOWN), k=k) == []
            assert loaded.search(" ".join(UNKNOWN), k=k) == []

    def test_new_doc_without_query_terms_never_becomes_a_hit(self):
        # Adding a document does shift BM25 scores (N and avgdl change), but it
        # must never enter the hit list nor evict a matching document.
        passages = [Passage("d1", "", "cat sat"), Passage("d2", "", "cat cat mat")]
        before = {h.doc_id for h in build_index(passages).search("cat", k=10)}
        grown = passages + [Passage("d9", "", "zebra lion")]
        after = {h.doc_id for h in build_index(grown).search("cat", k=10)}
        assert before == after


def small_corpus() -> list[Passage]:
    return [
        Passage("d1", "One", "cat sat on the mat"),
        Passage("d2", "Two", "the cat cat ate"),
        Passage("d3", "Three", "dog ran"),
    ]


def assert_retrieval_run_fails(tmp_path, capsys, index, term: str) -> None:
    """`run --mode retrieval` of a question naming `term` over `index` exits 1
    with one `error:` line naming the term, and writes no run file."""
    dataset = tmp_path / "dataset.jsonl"
    write_jsonl(dataset, [{"id": "S0:director", "question": f"Who was the director of {term}?",
                           "answers": ["pie"], "subj": term, "subj_id": "S0",
                           "relation": "director", "popularity": 100}])
    out = tmp_path / "run.jsonl"
    capsys.readouterr()
    code = main(["run", "--dataset", str(dataset), "--mode", "retrieval", "--oracle",
                 "--shots", "0", "--index", str(index), "--out", str(out)])
    err = capsys.readouterr().err
    assert code == 1
    assert len(err.splitlines()) == 1 and err.startswith("error: ") and repr(term) in err
    assert not out.exists()


def write_v1_index(passages, k1: float, b: float, path, doc_count: int | None = None) -> None:
    """An index file in format v1: magic, version byte 1, passages as JSON."""
    payload = {
        "k1": k1,
        "b": b,
        "doc_count": len(passages) if doc_count is None else doc_count,
        "passages": [{"doc_id": p.doc_id, "title": p.title, "text": p.text} for p in passages],
    }
    path.write_bytes(INDEX_MAGIC + bytes([1]) + dumps_stable(payload).encode("utf-8"))


def split_v2(blob: bytes) -> tuple[dict, bytes]:
    """The JSON header and the posting-list bytes of a saved v2 index."""
    start = len(INDEX_MAGIC) + 1
    length = int.from_bytes(blob[start : start + 8], "little")
    return json.loads(blob[start + 8 : start + 8 + length]), blob[start + 8 + length :]


def join_v2(header: dict, arrays: bytes) -> bytes:
    encoded = dumps_stable(header).encode("utf-8")
    return INDEX_MAGIC + bytes([2]) + len(encoded).to_bytes(8, "little") + encoded + arrays


# (index format version, header key, a value it must not hold); a v1 header
# holds no avg_doc_length, terms or lengths, and no header holds a `k_1`.
BAD_HEADER_VALUES = [
    pytest.param(version, key, value, id=f"v{version}-{key}-{value!r:.12}")
    for key, values in {
        "k1": [True, False, math.nan, math.inf, -0.5, "1.2", None, 10**309],
        "k_1": [9],
        "b": [True, math.nan, 1.5, -0.1, [0.75]],
        "avg_doc_length": [True, math.nan, -1.0, math.inf, "3"],
        "doc_count": [True, 3.0, None, "3"],
        "passages": [5, [5]],
        "terms": [[5], [None]],
        "lengths": [["1"], [True], [1.0]],
    }.items()
    for value in values
    for version in ((2,) if key in ("avg_doc_length", "terms", "lengths") else (1, 2))
]


class TestSerialization:
    def test_round_trip_identical_results(self, tmp_path):
        rng = random.Random(7)
        passages, vocab = random_corpus(rng, 40)
        index = build_index(passages, k1=1.4, b=0.6)
        path = tmp_path / "corpus.pgidx"
        save_index(index, path)
        assert path.read_bytes()[: len(INDEX_MAGIC) + 1] == INDEX_MAGIC + bytes([2])
        loaded = load_index(path)
        assert loaded.k1 == index.k1 and loaded.b == index.b
        assert loaded.avg_doc_length == index.avg_doc_length
        assert loaded.passages == index.passages
        for _ in range(30):
            query = " ".join(rng.choices(vocab, k=rng.randint(1, 5)))
            for k in (1, 3, 10, 40):
                assert loaded.search(query, k=k) == index.search(query, k=k)

    def test_v1_file_loads_with_same_hits(self, tmp_path):
        passages = small_corpus()
        path = tmp_path / "v1.pgidx"
        write_v1_index(passages, 1.4, 0.6, path)
        loaded = load_index(path)
        fresh = build_index(passages, k1=1.4, b=0.6)
        assert (loaded.k1, loaded.b, loaded.doc_count) == (1.4, 0.6, 3)
        for query in ("cat", "the cat", "cat the cat", "dog mat", "zebra", "the"):
            for k in (1, 2, 3):
                assert loaded.search(query, k=k) == fresh.search(query, k=k)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "junk.pgidx"
        path.write_bytes(b"NOTANINDEX")
        with pytest.raises(IndexFormatError, match="magic"):
            load_index(path)

    def test_bad_version_rejected(self, tmp_path):
        path = tmp_path / "v9.pgidx"
        path.write_bytes(b"PGIDX\x09{}")
        with pytest.raises(IndexFormatError, match="version"):
            load_index(path)

    def test_magic_without_version_byte(self, tmp_path):
        path = tmp_path / "bare.pgidx"
        path.write_bytes(INDEX_MAGIC)
        with pytest.raises(IndexFormatError, match="version"):
            load_index(path)

    def test_header_that_is_not_json(self, tmp_path):
        path = tmp_path / "garbage.pgidx"
        path.write_bytes(INDEX_MAGIC + bytes([2]) + (4).to_bytes(8, "little") + b"{{{{")
        with pytest.raises(IndexFormatError, match="header"):
            load_index(path)

    def test_doc_count_mismatch(self, tmp_path):
        path = tmp_path / "count.pgidx"
        write_v1_index(small_corpus(), 1.2, 0.75, path, doc_count=4)
        with pytest.raises(IndexFormatError, match="doc count"):
            load_index(path)
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        header["doc_count"] = 4
        path.write_bytes(join_v2(header, arrays))
        with pytest.raises(IndexFormatError, match="doc count"):
            load_index(path)

    def test_lengths_disagreeing_with_array_bytes(self, tmp_path):
        path = tmp_path / "lengths.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        header["lengths"][0] += 1
        path.write_bytes(join_v2(header, arrays))
        with pytest.raises(IndexFormatError, match="postings"):
            load_index(path)

    @pytest.mark.parametrize("term, position", [("ran", 3), ("cat", -1)])
    def test_doc_position_out_of_range(self, tmp_path, capsys, term, position):
        path = tmp_path / "range.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        # Doc positions are the first 4 bytes per posting; set the term's first one.
        at = 4 * sum(header["lengths"][: header["terms"].index(term)])
        arrays = arrays[:at] + position.to_bytes(4, "little", signed=True) + arrays[at + 4 :]
        path.write_bytes(join_v2(header, arrays))
        loaded = load_index(path)  # load reads no posting list
        assert loaded.search("mat", k=1)[0].doc_id == "d1"
        with pytest.raises(IndexFormatError, match=f"range.pgidx.*'{term}'.*within"):
            loaded.search(f"the {term}", k=2)
        assert_retrieval_run_fails(tmp_path, capsys, path, term)

    @pytest.mark.parametrize("impact", [math.nan, math.inf, -math.inf, 0.0, -1.5])
    def test_impact_that_is_not_finite_and_positive(self, tmp_path, capsys, impact):
        path = tmp_path / "impact.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        # Impacts follow the 4-byte positions, 8 bytes each; set the term's last one.
        i = header["terms"].index("cat")
        at = 4 * sum(header["lengths"]) + 8 * (sum(header["lengths"][: i + 1]) - 1)
        arrays = arrays[:at] + struct.pack("<d", impact) + arrays[at + 8 :]
        path.write_bytes(join_v2(header, arrays))
        loaded = load_index(path)  # load reads no impact
        assert loaded.search("dog", k=1)[0].doc_id == "d3"
        with pytest.raises(IndexFormatError, match="impact.pgidx.*'cat'.*finite"):
            loaded.search("the cat", k=2)
        assert_retrieval_run_fails(tmp_path, capsys, path, "cat")

    def test_bounds_are_computed_on_a_terms_first_search(self, tmp_path):
        path = tmp_path / "bounds.pgidx"
        save_index(build_index(small_corpus()), path)
        loaded = load_index(path)
        assert loaded._bounds == {}
        loaded.search("cat cat zebra", k=1)
        assert set(loaded._bounds) == {"cat"}
        loaded.search("the dog", k=2)
        assert set(loaded._bounds) == {"cat", "the", "dog"}
        start, end = loaded._postings["cat"]
        assert loaded._bounds["cat"] == max(loaded._impacts[start:end])

    def test_posting_list_that_does_not_ascend(self, tmp_path, capsys):
        passages = [
            Passage("d0", "", "apple pie and more words here"),
            Passage("d1", "", "apple apple"),
            Passage("d2", "", "pear"),
            Passage("d3", "", "apple with a long tail of other words in it"),
            Passage("d4", "", "plum"),
        ]
        path = tmp_path / "swapped.pgidx"
        save_index(build_index(passages), path)
        assert [h.doc_id for h in load_index(path).search("apple", k=3)] == ["d1", "d0", "d3"]
        header, arrays = split_v2(path.read_bytes())
        at = 4 * sum(header["lengths"][: header["terms"].index("apple")])
        first, second = arrays[at : at + 4], arrays[at + 4 : at + 8]
        path.write_bytes(join_v2(header, arrays[:at] + second + first + arrays[at + 8 :]))
        loaded = load_index(path)  # load reads no posting list
        assert loaded.search("pear", k=1)[0].doc_id == "d2"
        with pytest.raises(IndexFormatError, match="swapped.pgidx.*'apple'"):
            loaded.search("apple pie", k=3)
        assert_retrieval_run_fails(tmp_path, capsys, path, "apple")

    @pytest.mark.parametrize(
        "change, message",
        [(lambda passage: passage.update(url="u"), "passage has unknown key 'url'"),
         (lambda passage: passage.pop("title"), "passage missing key 'title'")],
        ids=["unknown", "missing"],
    )
    def test_header_passage_key_error_names_the_key(self, tmp_path, change, message):
        path = tmp_path / "keys.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        change(header["passages"][0])
        path.write_bytes(join_v2(header, arrays))
        with pytest.raises(IndexFormatError) as info:
            load_index(path)
        assert str(info.value) == f"{path}: bad passages in header: {message}"

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize(
        "key, change, message",
        [("k_1", lambda header: header.update(k_1=9), "header object has unknown key 'k_1'"),
         ("b", lambda header: header.pop("b"), "header object missing key 'b'")],
        ids=["unknown", "missing"],
    )
    def test_header_key_error_names_the_key(self, tmp_path, capsys, version, key, change, message):
        """A `k_1` beside `k1` is an unknown key, not a second k1 that is ignored."""
        path = tmp_path / "keys.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        if version == 1:
            header = {k: header[k] for k in ("k1", "b", "doc_count", "passages")}
        change(header)
        if version == 1:
            path.write_bytes(INDEX_MAGIC + bytes([1]) + dumps_stable(header).encode("utf-8"))
        else:
            path.write_bytes(join_v2(header, arrays))
        with pytest.raises(IndexFormatError) as info:
            load_index(path)
        assert str(info.value) == f"{path}: {message}"
        assert_retrieval_run_fails(tmp_path, capsys, path, key)

    @pytest.mark.parametrize("version, key, value", BAD_HEADER_VALUES)
    def test_bad_header_number(self, tmp_path, version, key, value):
        path = tmp_path / "numbers.pgidx"
        save_index(build_index(small_corpus()), path)
        header, arrays = split_v2(path.read_bytes())
        if version == 1:
            header = {k: header[k] for k in ("k1", "b", "doc_count", "passages")}
        header[key] = value
        encoded = json.dumps(header).encode("utf-8")
        if version == 1:
            path.write_bytes(INDEX_MAGIC + bytes([1]) + encoded)
        else:
            path.write_bytes(
                INDEX_MAGIC + bytes([2]) + len(encoded).to_bytes(8, "little") + encoded + arrays
            )
        with pytest.raises(IndexFormatError, match=f"numbers.pgidx: .*{key}"):
            load_index(path)

    @pytest.mark.parametrize(
        "key, value",
        [pytest.param(key, value, id=param.id[3:])
         for param in BAD_HEADER_VALUES
         for version, key, value in [param.values]
         if version == 2 and key in ("k1", "b")],
    )
    def test_build_refuses_what_a_header_may_not_hold(self, key, value):
        """Built and loaded indexes follow one k1 and b rule."""
        rule = {"k1": "k1 must be finite and >= 0", "b": "b must be in [0, 1]"}[key]
        with pytest.raises(ValidationError) as info:
            build_index(small_corpus(), **{key: value})
        assert str(info.value) == f"{rule}, got {value!r}"

    @pytest.mark.parametrize("version", [1, 2])
    @pytest.mark.parametrize("key", ["k1", "b"])
    def test_header_bounds_load(self, tmp_path, version, key):
        # The ends of each range, and an integer, are valid header numbers.
        for value in (0, 1, 0.0, 1.0):
            path = tmp_path / "bounds.pgidx"
            if version == 1:
                write_v1_index(small_corpus(), **{"k1": 1.2, "b": 0.75, key: value}, path=path)
            else:
                save_index(build_index(small_corpus(), **{"k1": 1.2, "b": 0.75, key: value}), path)
            assert getattr(load_index(path), key) == value

    @pytest.mark.parametrize("version", [1, 2])
    def test_every_truncation_is_an_index_format_error(self, tmp_path, capsys, version):
        passages = small_corpus()
        full = tmp_path / "full.pgidx"
        if version == 1:
            write_v1_index(passages, 1.2, 0.75, full)
        else:
            save_index(build_index(passages), full)
        blob = full.read_bytes()
        dataset = tmp_path / "dataset.jsonl"
        write_jsonl(
            dataset,
            [
                {
                    "id": "S0:director",
                    "question": "Who was the director of cat?",
                    "answers": ["dog"],
                    "subj": "cat",
                    "subj_id": "S0",
                    "relation": "director",
                    "popularity": 100,
                }
            ],
        )
        cut = tmp_path / "cut.pgidx"
        out = tmp_path / "run.jsonl"
        capsys.readouterr()
        for offset in range(len(blob)):
            cut.write_bytes(blob[:offset])
            with pytest.raises(IndexFormatError, match="cut.pgidx"):
                load_index(cut)
            code = main(
                ["run", "--dataset", str(dataset), "--mode", "retrieval", "--oracle",
                 "--index", str(cut), "--out", str(out)]
            )
            err = capsys.readouterr().err
            assert code == 1, offset
            assert len(err.splitlines()) == 1 and err.startswith("error: "), (offset, err)
            assert not out.exists()
        cut.write_bytes(blob)
        assert load_index(cut).search("cat", k=3) == build_index(passages).search("cat", k=3)
