from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import example, given, settings, strategies as st

from popgate.errors import ConfigError, ProtocolError, TransportError, ValidationError
from popgate.lm import (
    DEFAULT_GENREAD_INSTRUCTION,
    Completion,
    CompletionClient,
    EndpointConfig,
    FewshotCandidates,
    ORACLE_A,
    ORACLE_B,
    ORACLE_MISS_RATE,
    build_fewshot_pool,
    completion_cache_key,
    oracle_lm,
    render_prompt,
    run_predictions,
)

from popgate.dataset import RELATIONS, QAExample
from popgate.evaluation import is_correct
from popgate.retriever import Passage, build_index

from conftest import make_example, synthetic_examples
from mockserver import MockServer, completions_server
from oracles import reference_fewshot_pool


class TestRenderPrompt:
    def test_vanilla_zero_shot_exact(self):
        assert render_prompt("What is the capital of X?") == "Q: What is the capital of X? A:"

    def test_context_appears_verbatim_before_final_block(self):
        context = "X is a micronation. Its capital is Y."
        prompt = render_prompt("What is the capital of X?", context=context)
        assert prompt == f"{context}\n\nQ: What is the capital of X? A:"

    def test_two_shots_make_three_question_blocks(self):
        assert render_prompt("Q3?", (("Q1?", "A1"), ("Q2?", "A2"))).count("Q:") == 3

    @settings(max_examples=60)
    @given(
        q1=st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1),
        q2=st.text(alphabet=st.characters(whitelist_categories=("Ll",)), min_size=1),
    )
    def test_distinct_questions_never_collide(self, q1, q2):
        if q1 == q2:
            return
        assert render_prompt(q1) != render_prompt(q2)


class TestFewshotPool:
    def test_sixteen_relations_stratified(self, sixteen_relation_dataset):
        dataset = sixteen_relation_dataset
        target = next(ex for ex in dataset if ex.relation_type == "director")
        pairs = build_fewshot_pool(FewshotCandidates(dataset), target, shots=15, rng_seed=3)
        assert len(pairs) == 15
        question_by_text = {ex.question: ex for ex in dataset}
        relations = [question_by_text[q].relation_type for q, _ in pairs]
        assert "director" not in relations
        assert len(set(relations)) == 15

    def test_zero_shots_empty(self, sixteen_relation_dataset):
        candidates = FewshotCandidates(sixteen_relation_dataset)
        assert build_fewshot_pool(candidates, sixteen_relation_dataset[0], 0, rng_seed=1) == []

    @pytest.mark.parametrize("shots", [1, 3, 14, 16])
    def test_sixteen_relations_take_only_zero_or_fifteen_shots(
        self, sixteen_relation_dataset, shots
    ):
        candidates = FewshotCandidates(sixteen_relation_dataset)
        with pytest.raises(ValidationError, match=f"shots={shots}: .*0 or 15"):
            build_fewshot_pool(candidates, sixteen_relation_dataset[0], shots, rng_seed=1)

    def test_twenty_relations_uniform_sample(self):
        relations = tuple(f"rel{i}" for i in range(20))
        dataset = synthetic_examples(200, relations=relations, seed=2)
        candidates = FewshotCandidates(dataset)
        pairs = build_fewshot_pool(candidates, dataset[0], shots=15, rng_seed=5)
        assert len(pairs) == 15
        assert build_fewshot_pool(candidates, dataset[0], shots=15, rng_seed=5) == pairs

    def test_never_contains_target_question(self):
        dataset = synthetic_examples(40, relations=("director", "genre"), seed=0)
        target = dataset[7]
        candidates = FewshotCandidates(dataset)
        for seed in range(10):
            pairs = build_fewshot_pool(candidates, target, shots=10, rng_seed=seed)
            assert all(q != target.question for q, _ in pairs)

    def test_single_example_relation_still_covered(self, sixteen_relation_dataset):
        pruned = [ex for ex in sixteen_relation_dataset if ex.relation_type != "composer"]
        composer = next(
            ex for ex in sixteen_relation_dataset if ex.relation_type == "composer"
        )
        dataset = pruned + [composer]
        target = next(ex for ex in dataset if ex.relation_type == "director")
        pairs = build_fewshot_pool(FewshotCandidates(dataset), target, shots=15, rng_seed=0)
        assert len(pairs) == 15
        assert (composer.question, sorted(composer.gold_answers)[0]) in pairs

    def test_insufficient_uniform_candidates(self):
        dataset = synthetic_examples(5, relations=("a", "b", "c"), seed=1)
        with pytest.raises(ValidationError, match="cannot sample 10 few-shot pairs from 4"):
            build_fewshot_pool(FewshotCandidates(dataset), dataset[0], shots=10, rng_seed=0)

    def test_repeated_question_id_rejected(self):
        dataset = synthetic_examples(5, seed=1)
        with pytest.raises(ValidationError, match=f"duplicate question id '{dataset[2].id}'"):
            FewshotCandidates([*dataset, dataset[2]])


def pool_or_error(build) -> list[tuple[str, str]] | str:
    try:
        return build()
    except (ValidationError, ValueError) as exc:
        return f"error: {exc}"


def assert_pools_match_reference(dataset: list[QAExample], shots: int, rng_seed: int) -> None:
    """Every target's pool equals the per-target reference, or both raise
    the same message."""
    candidates = FewshotCandidates(dataset)
    for target in dataset:
        seed = f"{rng_seed}\x00{target.id}"
        assert pool_or_error(
            lambda: build_fewshot_pool(candidates, target, shots, seed)
        ) == pool_or_error(lambda: reference_fewshot_pool(dataset, target, shots, seed))


def drawn_dataset(relations: list[str], answer_counts: list[int]) -> list[QAExample]:
    """One example per entry of `relations`; the i-th has 1 + answer_counts[i] % 3
    gold answers, so which answer sorts first matters."""
    return [
        QAExample(
            id=f"S{i}:{relation}",
            question=f"Question {i} about {relation}?",
            gold_answers=frozenset(f"A{i}-{j}" for j in range(1 + answer_counts[i] % 3)),
            subject_id=f"S{i}",
            subject_label=f"Subject {i}",
            relation_type=relation,
        )
        for i, relation in enumerate(relations)
    ]


class TestFewshotPoolAgainstReference:
    @settings(max_examples=40, deadline=None)
    @given(data=st.data(), rng_seed=st.integers(0, 2**32))
    def test_sixteen_relations_fifteen_shots(self, data, rng_seed):
        extra = data.draw(st.lists(st.sampled_from(RELATIONS), max_size=40))
        relations = data.draw(st.permutations([*RELATIONS, *extra]))
        counts = data.draw(st.lists(st.integers(0, 5), min_size=len(relations),
                                    max_size=len(relations)))
        assert_pools_match_reference(drawn_dataset(relations, counts), 15, rng_seed)

    @settings(max_examples=20, deadline=None)
    @given(shots=st.integers(0, 17), rng_seed=st.integers(0, 2**32))
    def test_sixteen_relations_any_shots(self, shots, rng_seed):
        relations = [*RELATIONS, *RELATIONS[:5]]
        assert_pools_match_reference(drawn_dataset(relations, [1] * 21), shots, rng_seed)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data(), rng_seed=st.integers(0, 2**32))
    def test_three_relations_several_shots(self, data, rng_seed):
        relations = data.draw(st.lists(st.sampled_from(RELATIONS[:3]), min_size=1, max_size=60))
        counts = data.draw(st.lists(st.integers(0, 5), min_size=len(relations),
                                    max_size=len(relations)))
        # Up to one more shot than there are candidates, so the error is drawn too.
        shots = data.draw(st.integers(0, len(relations)))
        assert_pools_match_reference(drawn_dataset(relations, counts), shots, rng_seed)




# Completion bodies in a wrong shape, each with the text of its ProtocolError.
MALFORMED_COMPLETION_BODIES = [
    pytest.param({"nonsense": True}, "missing choices[0].text", id="no-choices"),
    pytest.param(b"[" * 100_000 + b"]" * 100_000, "non-JSON body", id="too-deep"),
    pytest.param({"choices": [{"text": 5}]}, "non-string completion text", id="text-5"),
    pytest.param({"choices": [{"text": "ok"}], "usage": {"prompt_tokens": "abc"}},
                 "usage.prompt_tokens 'abc', not a count", id="count-abc"),
    pytest.param({"choices": [{"text": "ok"}], "usage": {"prompt_tokens": None}},
                 "usage.prompt_tokens None, not a count", id="count-null"),
    pytest.param({"choices": [{"text": "ok"}], "usage": [1]},
                 "usage [1], not an object", id="usage-list"),
    pytest.param(b'{"choices": [{"text": "ok"}], "usage": {"completion_tokens": 1e400}}',
                 "usage.completion_tokens inf, not a count", id="count-1e400"),
    pytest.param({"choices": [{"text": "ok"}], "usage": {"completion_tokens": 2.5}},
                 "usage.completion_tokens 2.5, not a count", id="count-2.5"),
    pytest.param({"choices": [{"text": "ok"}], "usage": {"prompt_tokens": True}},
                 "usage.prompt_tokens True, not a count", id="count-true"),
    pytest.param({"choices": [{"text": "ok"}], "usage": {"prompt_tokens": -1}},
                 "usage.prompt_tokens -1, not a count", id="count-negative"),
]


def make_endpoint(base_url: str, cache_dir, **kwargs) -> EndpointConfig:
    defaults = dict(
        base_url=base_url,
        model="test-model",
        cache_dir=cache_dir,
        backoff_s=0.01,
        timeout_s=5.0,
    )
    defaults.update(kwargs)
    return EndpointConfig(**defaults)


class TestCompletionClient:
    def test_completion_and_cache_hit(self, tmp_path):
        with completions_server(lambda prompt: "Paris is the capital.") as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            client = CompletionClient(config)
            first = client.complete("Q: capital of France? A:")
            assert first.text == "Paris is the capital."
            assert first.prompt_tokens == 5
            assert first.completion_tokens == 4
            assert len(server.requests) == 1

            second = client.complete("Q: capital of France? A:")
            assert len(server.requests) == 1  # no network traffic
            assert second == first  # latency preserved from the original call

    def test_rate_limit_429_then_success(self, tmp_path, caplog):
        calls = {"n": 0}

        def respond(method, path, body):
            calls["n"] += 1
            if calls["n"] <= 3:
                return 429, {"error": "slow down"}
            return 200, {
                "choices": [{"text": "ok"}],
                "usage": {"prompt_tokens": 1, "completion_tokens": 1},
            }

        with MockServer(respond) as server:
            config = make_endpoint(server.base_url, tmp_path / "cache", max_retries=3)
            with caplog.at_level("INFO", logger="popgate.lm"):
                completion = CompletionClient(config).complete("hi")
        assert completion.text == "ok"
        assert calls["n"] == 4
        retries_logged = [r for r in caplog.records if "retry" in r.message]
        assert len(retries_logged) == 3

    def test_timeout_is_transport_error_with_elapsed(self, tmp_path):
        def respond(method, path, body):
            time.sleep(1.0)
            return 200, {"choices": [{"text": "late"}]}

        with MockServer(respond) as server:
            config = make_endpoint(
                server.base_url, tmp_path / "cache", timeout_s=0.2, max_retries=0
            )
            with pytest.raises(TransportError, match="elapsed"):
                CompletionClient(config).complete("hi")

    @pytest.mark.parametrize("body, message", MALFORMED_COMPLETION_BODIES)
    def test_malformed_body_is_protocol_error(self, tmp_path, body, message):
        with MockServer(lambda m, p, b: (200, body)) as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            with pytest.raises(ProtocolError) as info:
                CompletionClient(config).complete("hi")
        assert message in str(info.value)
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize(
        "usage, counts",
        [(None, (3, 2)), ({}, (3, 2)), ({"completion_tokens": 7}, (3, 7)),
         ({"prompt_tokens": 0, "completion_tokens": 9}, (0, 9))],
    )
    def test_absent_usage_count_is_the_whitespace_count(self, tmp_path, usage, counts):
        payload = {"choices": [{"text": "two words"}], "usage": usage}
        with MockServer(lambda m, p, b: (200, payload)) as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            completion = CompletionClient(config).complete("a b c")
        assert (completion.prompt_tokens, completion.completion_tokens) == counts

    def test_exhausted_retries_is_transport_error(self, tmp_path):
        with MockServer(lambda m, p, b: (500, {"error": "boom"})) as server:
            config = make_endpoint(server.base_url, tmp_path / "cache", max_retries=1)
            with pytest.raises(TransportError, match="2 attempts"):
                CompletionClient(config).complete("hi")
            assert len(server.requests) == 2

    def test_cache_key_sensitivity(self, tmp_path):
        config = make_endpoint("http://example", tmp_path)
        base = completion_cache_key(config, "prompt")
        assert completion_cache_key(config, "other prompt") != base
        import dataclasses

        assert completion_cache_key(dataclasses.replace(config, model="m2"), "prompt") != base
        assert (
            completion_cache_key(dataclasses.replace(config, temperature=0.7), "prompt") != base
        )
        assert (
            completion_cache_key(dataclasses.replace(config, max_tokens=32), "prompt") != base
        )
        assert completion_cache_key(config, "prompt") == base


class TestGenread:
    """Generate-then-read through `run_predictions`: stage 1 writes a
    document, and stage 2 answers with it as the context."""

    def test_generated_document_reappears_in_stage2(self, tmp_path):
        document = "Unknown is a pulp fantasy fiction magazine."
        example = make_example(0, relation="genre", answers=("fantasy",))

        def reply(prompt):
            if prompt.startswith("Generate"):
                return document
            return "fantasy"

        with completions_server(reply) as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            [record] = run_predictions([example], "genread", client=client)
        assert (record.prediction, record.correct) == ("fantasy", True)
        assert record.genread_empty_context is False
        assert (record.retrieved_doc_id, record.retrieval_recall1) == (None, None)
        stage1 = server.requests[0]["body"]["prompt"]
        assert stage1 == f"{DEFAULT_GENREAD_INSTRUCTION}\n\n{example.question}"
        stage2 = server.requests[1]["body"]["prompt"]
        assert stage2 == f"{document}\n\nQ: {example.question} A:"

    def test_token_counts_and_latency_summed_across_stages(self, tmp_path):
        with completions_server(lambda p: "four token reply here") as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            [record] = run_predictions([make_example(0)], "genread", client=CompletionClient(config))
        prompts = [r["body"]["prompt"] for r in server.requests]
        assert record.prompt_tokens == sum(len(p.split()) for p in prompts)
        assert record.completion_tokens == 8
        stored = [json.loads((tmp_path / "cache" / f"{completion_cache_key(config, p)}.json")
                             .read_text(encoding="utf-8"))["completion"] for p in prompts]
        assert record.latency_ms == sum(entry["latency_ms"] for entry in stored)

    def test_empty_stage1_falls_back_to_vanilla(self, tmp_path):
        example = make_example(0, answers=("answer",))

        def reply(prompt):
            return " \n " if prompt.startswith("Generate") else "answer"

        with completions_server(reply) as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            [record] = run_predictions([example], "genread", client=client)
        assert record.genread_empty_context is True
        assert server.requests[1]["body"]["prompt"] == f"Q: {example.question} A:"
        assert (record.prediction, record.correct) == ("answer", True)

    def test_cached_stages_mean_zero_network_on_rerun(self, tmp_path):
        dataset = synthetic_examples(6, seed=1)
        with completions_server(lambda p: "doc or answer") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            first = run_predictions(dataset, "genread", client=client)
            assert len(server.requests) == 2 * len(dataset)
            again = run_predictions(dataset, "genread", client=client)
            assert len(server.requests) == 2 * len(dataset)
        assert again == first


class TestOracleLm:
    def test_sigmoid_saturation_always_correct(self):
        # At log10 popularity 25, far above ORACLE_B, the sigmoid rounds to 1.
        example = make_example(1, popularity=10**25)
        assert 1.0 / (1.0 + math.exp(-ORACLE_A * (25 - ORACLE_B))) == 1.0
        for seed in range(50):
            assert oracle_lm(example, "vanilla", False, seed) == "Alice Smith"

    def test_retrieval_miss_rate_close_to_residual(self):
        n = 10**4
        hits = 0
        for i in range(n):
            example = make_example(i, popularity=100)
            if oracle_lm(example, "retrieval", False, 77) == "Alice Smith":
                hits += 1
        p = ORACLE_MISS_RATE
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_deterministic_per_seed_and_id(self):
        example = make_example(3, popularity=3000)
        a = oracle_lm(example, "vanilla", False, 5)
        b = oracle_lm(example, "vanilla", False, 5)
        assert a == b

    def test_vanilla_rate_monotone_in_popularity(self):
        n = 10**4
        rates = []
        for exponent in (1, 2, 3, 4, 5, 6):
            correct = 0
            for i in range(n):
                example = make_example(i, popularity=10**exponent)
                if oracle_lm(example, "vanilla", False, exponent * 100000 + 1) != "UNKNOWN_ENTITY":
                    correct += 1
            rates.append(correct / n)
        assert rates == sorted(rates)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValidationError):
            oracle_lm(make_example(0), "genread", False, 0)


class TestRunPredictions:
    def test_oracle_vanilla_records(self):
        dataset = synthetic_examples(30, relations=("director", "genre"), seed=4)
        records = run_predictions(dataset, "vanilla", oracle=True, rng_seed=1)
        assert len(records) == len(dataset)
        assert all(r.mode == "vanilla" for r in records)
        assert all(r.retrieved_doc_id is None for r in records)
        assert [r.question_id for r in records] == [ex.id for ex in dataset]

    def test_requires_exactly_one_backend(self):
        dataset = synthetic_examples(4, seed=0)
        with pytest.raises(ConfigError):
            run_predictions(dataset, "vanilla", rng_seed=0)
        client = CompletionClient(make_endpoint("http://127.0.0.1:9", None))
        with pytest.raises(ConfigError):
            run_predictions(dataset, "vanilla", client=client, oracle=True, rng_seed=0)

    def test_oracle_genread_rejected(self):
        dataset = synthetic_examples(4, seed=0)
        with pytest.raises(ConfigError):
            run_predictions(dataset, "genread", oracle=True, rng_seed=0)

    def test_endpoint_run_with_fewshot(self, tmp_path, sixteen_relation_dataset):
        with completions_server(lambda p: "Fact00000") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            records = run_predictions(
                sixteen_relation_dataset,
                "vanilla",
                client=client,
                shots=15,
                rng_seed=0,
            )
        prompt = server.requests[0]["body"]["prompt"]
        assert prompt.count("Q:") == 16  # 15 stratified shots + the question
        assert records[0].correct  # gold Fact00000 inside the echoed answer
        assert not records[1].correct

    def test_repeated_question_id_rejected_before_any_request(self, tmp_path):
        dataset = synthetic_examples(6, relations=("director", "genre"), seed=2)
        with completions_server(lambda p: "x") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            with pytest.raises(ValidationError, match=f"duplicate question id '{dataset[4].id}'"):
                run_predictions([*dataset, dataset[4]], "vanilla", client=client, rng_seed=0)
        assert server.requests == []

    def test_bad_shot_count_rejected_before_any_request(self, tmp_path, sixteen_relation_dataset):
        with completions_server(lambda p: "x") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            with pytest.raises(ValidationError, match="shots=7: a dataset with 16 relations"):
                run_predictions(sixteen_relation_dataset, "vanilla", client=client, shots=7)
        assert server.requests == []

    def test_endpoint_retrieval_run_reads_the_top_passage(self, tmp_path):
        # Every third subject has no passage, so its question matches none. An
        # odd subject's passage names its answer; an even one's names another.
        dataset = synthetic_examples(15, relations=("director", "genre"), seed=3)
        passages = [
            Passage(f"d{i:02d}", f"Subject{i:05d}",
                    f"Subject{i:05d} is known for Fact{i if i % 2 else i + 1:05d}.")
            for i in range(15) if i % 3
        ]
        index = build_index(passages)
        by_id = {p.doc_id: p for p in passages}
        with completions_server(lambda p: "no idea") as server:
            client = CompletionClient(
                make_endpoint(server.base_url, tmp_path / "cache", max_parallelism=4)
            )
            records = run_predictions(dataset, "retrieval", client=client, index=index)
        oracle = run_predictions(dataset, "retrieval", oracle=True, index=index)
        assert [(r.question_id, r.retrieved_doc_id, r.retrieval_recall1) for r in records] == [
            (r.question_id, r.retrieved_doc_id, r.retrieval_recall1) for r in oracle
        ]
        assert {r.retrieved_doc_id is None for r in records} == {True, False}
        assert {r.retrieval_recall1 for r in records} == {True, False}
        prompts = [r["body"]["prompt"] for r in server.requests]
        expected = []
        for ex, record in zip(dataset, records):
            passage = by_id.get(record.retrieved_doc_id)
            context = "" if passage is None else f"{passage.title}\n{passage.text}\n\n"
            expected.append(f"{context}Q: {ex.question} A:")
        assert sorted(prompts) == sorted(expected)

    def test_parallel_dispatch_preserves_dataset_order(self, tmp_path):
        dataset = synthetic_examples(24, relations=("director", "genre"), seed=6)
        answers = {ex.question: sorted(ex.gold_answers)[0] for ex in dataset}

        def reply(prompt):
            question = prompt.rsplit("Q: ", 1)[1].removesuffix(" A:")
            time.sleep(0.01)
            return answers[question]

        with completions_server(reply) as server:
            client = CompletionClient(
                make_endpoint(server.base_url, tmp_path / "cache", max_parallelism=6)
            )
            records = run_predictions(dataset, "vanilla", client=client, rng_seed=0)
        assert [r.question_id for r in records] == [ex.id for ex in dataset]
        assert all(r.correct for r in records)
        assert len(server.requests) == len(dataset)



def recall_question(i: int, question: str, golds) -> QAExample:
    return QAExample(f"q{i}", question, frozenset(golds), f"S{i}", f"Subject {i}", "director", 10)


class TestRetrievalRecall1:
    """A retrieval record's `retrieval_recall1` is `is_correct` of its top
    passage's title and text against the question's gold answers."""

    def test_gold_inside_top_passage(self):
        passage = Passage("d1", "The Cocoanuts",
                          "Produced for Paramount Pictures by Walter Wanger, who is not credited.")
        question = recall_question(0, "Who was the producer of The Cocoanuts?", {"Walter Wanger"})
        (record,) = run_predictions([question], "retrieval", oracle=True,
                                    index=build_index([passage]))
        assert (record.retrieved_doc_id, record.retrieval_recall1) == ("d1", True)

    def test_gold_only_in_the_second_passage(self):
        index = build_index([Passage("d1", "", "cat cat cat answer-less text"),
                             Passage("d2", "", "cat with Walter Wanger inside")])
        (record,) = run_predictions([recall_question(0, "cat?", {"Walter Wanger"})],
                                    "retrieval", oracle=True, index=index)
        assert (record.retrieved_doc_id, record.retrieval_recall1) == ("d1", False)

    def test_match_uses_normalization(self):
        index = build_index([Passage("d1", "", "by  WALTER   WANGER, uncredited")])
        (record,) = run_predictions([recall_question(0, "uncredited?", {"Walter Wanger"})],
                                    "retrieval", oracle=True, index=index)
        assert record.retrieval_recall1 is True

    def test_question_without_a_hit_is_false(self):
        index = build_index([Passage("d1", "Walter Wanger", "Walter Wanger")])
        (record,) = run_predictions([recall_question(0, "nothing here?", {"Walter Wanger"})],
                                    "retrieval", oracle=True, index=index)
        assert (record.retrieved_doc_id, record.retrieval_recall1) == (None, False)

    # Characters that NFKC, lowercasing or whitespace collapsing change: a
    # tab, NBSP, the "fi" ligature, fullwidth letters and a combining accent.
    TEXT = st.text(alphabet="aAbe \t\u00a0\ufb01\uff21\uff41\u0301", max_size=8)

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(TEXT, TEXT), min_size=1, max_size=4),
        st.lists(st.lists(TEXT.filter(str.strip), min_size=1, max_size=3),
                 min_size=1, max_size=5),
    )
    @example(docs=[("Walter", "Wanger")], golds_per_question=[["walter wanger"]])
    def test_is_the_correctness_rule_over_the_top_passage(self, docs, golds_per_question):
        """Passage i alone holds the word keyi, so question i asks for it and
        finds passage i; a question past the last passage finds none. The
        word ends the text, so a gold answer can span the title's end and
        the text's start."""
        passages = [Passage(f"d{i}", title, f"{text} key{i}")
                    for i, (title, text) in enumerate(docs)]
        index = build_index(passages)
        dataset = [recall_question(i, f"key{i}?", golds)
                   for i, golds in enumerate(golds_per_question)]
        records = run_predictions(dataset, "retrieval", oracle=True, index=index)
        for ex, record in zip(dataset, records):
            hits = index.search(ex.question, k=1)
            if not hits:
                assert (record.retrieved_doc_id, record.retrieval_recall1) == (None, False)
                continue
            top = index.passages[hits[0].doc_id]
            assert record.retrieved_doc_id == top.doc_id
            assert record.retrieval_recall1 is is_correct(f"{top.title} {top.text}",
                                                          ex.gold_answers)

def with_completion(**changes):
    """A cache-entry corruption that sets fields of its stored completion."""

    def corrupt(text: str) -> str:
        entry = json.loads(text)
        entry["completion"].update(changes)
        return json.dumps(entry)

    return corrupt


def with_request(**changes):
    """A cache-entry corruption that sets request fields of the entry."""
    return lambda text: json.dumps({**json.loads(text), **changes})


class TestCorruptCompletionCache:
    @pytest.mark.parametrize(
        "corrupt",
        [lambda text: text[: len(text) // 2], lambda text: '{"completion": {"txt": 1}}',
         lambda text: "[" * 100_000 + "]" * 100_000, with_completion(text=5),
         with_completion(prompt_tokens=2.5), with_completion(completion_tokens=True),
         with_completion(latency_ms=-1), with_completion(latency_ms=None),
         with_request(prompt="bye"), with_request(model="other-model"),
         with_request(endpoint="http://elsewhere")],
    )
    def test_corrupt_entry_is_refetched_and_replaced(self, tmp_path, caplog, corrupt):
        with completions_server(lambda prompt: "fresh answer") as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            path = tmp_path / "cache" / f"{completion_cache_key(config, 'hi')}.json"
            CompletionClient(config).complete("hi")
            path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
            with caplog.at_level("WARNING", logger="popgate.lm"):
                completion = CompletionClient(config).complete("hi")
            assert len(server.requests) == 2
        assert completion.text == "fresh answer"
        entry = json.loads(path.read_text(encoding="utf-8"))
        assert Completion(**entry["completion"]) == completion
        assert [r for r in caplog.records if str(path) in r.getMessage()]

    @pytest.mark.parametrize(
        "corrupt, problem",
        [(with_completion(score=1), "entry has unknown key 'score'"),
         (lambda text: '{"completion": {"text": "x"}}', "entry missing key 'prompt_tokens'"),
         (lambda text: '{"completion": [1]}', "entry is not a JSON object")],
    )
    def test_warning_names_the_key_of_a_refused_entry(self, tmp_path, caplog, corrupt, problem):
        with completions_server(lambda prompt: "fresh answer") as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            path = tmp_path / "cache" / f"{completion_cache_key(config, 'hi')}.json"
            CompletionClient(config).complete("hi")
            path.write_text(corrupt(path.read_text(encoding="utf-8")), encoding="utf-8")
            with caplog.at_level("WARNING", logger="popgate.lm"):
                CompletionClient(config).complete("hi")
        assert [r.getMessage() for r in caplog.records] == [
            f"{path}: unreadable cache entry ({problem}); fetching again"
        ]

    def test_entry_of_another_prompt_is_refetched_once(self, tmp_path, caplog):
        with completions_server(lambda prompt: f"re: {prompt}") as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            client = CompletionClient(config)
            client.complete("first")
            client.complete("second")
            path = tmp_path / "cache" / f"{completion_cache_key(config, 'second')}.json"
            other = tmp_path / "cache" / f"{completion_cache_key(config, 'first')}.json"
            path.write_bytes(other.read_bytes())
            with caplog.at_level("WARNING", logger="popgate.lm"):
                first = CompletionClient(config).complete("second")
                again = CompletionClient(config).complete("second")
            assert len(server.requests) == 3
        assert first.text == "re: second"
        assert again == first
        warnings = [r.getMessage() for r in caplog.records]
        assert len(warnings) == 1 and str(path) in warnings[0]
        assert "prompt differs" in warnings[0]
