from __future__ import annotations

import json
import math
import time

import pytest
from hypothesis import given, settings, strategies as st

from popgate.errors import ConfigError, ProtocolError, TransportError, ValidationError
from popgate.lm import (
    DEFAULT_GENREAD_INSTRUCTION,
    Completion,
    CompletionClient,
    EndpointConfig,
    FewshotCandidates,
    OracleParams,
    build_fewshot_pool,
    completion_cache_key,
    genread_answer,
    oracle_lm,
    render_prompt,
    run_predictions,
)

from popgate.dataset import RELATIONS, QAExample

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

    def test_malformed_body_is_protocol_error(self, tmp_path):
        with MockServer(lambda m, p, b: (200, {"nonsense": True})) as server:
            config = make_endpoint(server.base_url, tmp_path / "cache")
            with pytest.raises(ProtocolError, match="choices"):
                CompletionClient(config).complete("hi")

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
    def test_generated_document_reappears_in_stage2(self, tmp_path):
        document = "Unknown is a pulp fantasy fiction magazine."

        def reply(prompt):
            if prompt.startswith("Generate"):
                return document
            return "fantasy"

        with completions_server(reply) as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            context, completion = genread_answer(client, "What genre is Unknown?")
        assert context == document
        assert completion.text == "fantasy"
        stage1 = server.requests[0]["body"]["prompt"]
        assert stage1 == f"{DEFAULT_GENREAD_INSTRUCTION}\n\nWhat genre is Unknown?"
        stage2 = server.requests[1]["body"]["prompt"]
        assert document in stage2
        assert stage2.endswith("Q: What genre is Unknown? A:")

    def test_token_counts_summed_across_stages(self, tmp_path):
        with completions_server(lambda p: "four token reply here") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            _, completion = genread_answer(client, "Q?")
        s1 = server.requests[0]["body"]["prompt"]
        s2 = server.requests[1]["body"]["prompt"]
        assert completion.prompt_tokens == len(s1.split()) + len(s2.split())
        assert completion.completion_tokens == 8

    def test_empty_stage1_falls_back_to_vanilla(self, tmp_path):
        def reply(prompt):
            return "" if prompt.startswith("Generate") else "answer"

        with completions_server(reply) as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            context, completion = genread_answer(client, "Who is X?")
        assert context == ""
        assert server.requests[1]["body"]["prompt"] == "Q: Who is X? A:"
        assert completion.text == "answer"

    def test_cached_stages_mean_zero_network_on_rerun(self, tmp_path):
        with completions_server(lambda p: "doc or answer") as server:
            client = CompletionClient(make_endpoint(server.base_url, tmp_path / "cache"))
            genread_answer(client, "Who is X?")
            count = len(server.requests)
            genread_answer(client, "Who is X?")
            assert len(server.requests) == count


class TestOracleLm:
    def test_sigmoid_saturation_always_correct(self):
        params = OracleParams(a=1000.0, b=3.0, readout=0.9)
        example = make_example(1, popularity=100000)  # log10 pop = 5
        for seed in range(50):
            assert oracle_lm(example, "vanilla", False, params, seed) == "Alice Smith"

    def test_retrieval_miss_rate_close_to_residual(self):
        params = OracleParams(readout=0.9)
        n = 10**4
        hits = 0
        for i in range(n):
            example = make_example(i, popularity=100)
            if oracle_lm(example, "retrieval", False, params, 77) == "Alice Smith":
                hits += 1
        p = 0.05
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(hits / n - p) <= 3 * sigma

    def test_deterministic_per_seed_and_id(self):
        example = make_example(3, popularity=3000)
        params = OracleParams()
        a = oracle_lm(example, "vanilla", False, params, 5)
        b = oracle_lm(example, "vanilla", False, params, 5)
        assert a == b

    def test_vanilla_rate_monotone_in_popularity(self):
        params = OracleParams(a=2.0, b=3.5, readout=0.9)
        n = 10**4
        rates = []
        for exponent in (1, 2, 3, 4, 5, 6):
            correct = 0
            for i in range(n):
                example = make_example(i, popularity=10**exponent)
                if oracle_lm(example, "vanilla", False, params, exponent * 100000 + 1) != "UNKNOWN_ENTITY":
                    correct += 1
            rates.append(correct / n)
        assert rates == sorted(rates)

    def test_unsupported_mode_rejected(self):
        with pytest.raises(ValidationError):
            oracle_lm(make_example(0), "genread", False, OracleParams(), 0)


class TestRunPredictions:
    def test_oracle_vanilla_records(self):
        dataset = synthetic_examples(30, relations=("director", "genre"), seed=4)
        records = run_predictions(dataset, "vanilla", oracle=OracleParams(), rng_seed=1)
        assert len(records) == len(dataset)
        assert all(r.mode == "vanilla" for r in records)
        assert all(r.retrieved_doc_id is None for r in records)
        assert [r.question_id for r in records] == [ex.id for ex in dataset]

    def test_requires_exactly_one_backend(self):
        dataset = synthetic_examples(4, seed=0)
        with pytest.raises(ConfigError):
            run_predictions(dataset, "vanilla", rng_seed=0)

    def test_oracle_genread_rejected(self):
        dataset = synthetic_examples(4, seed=0)
        with pytest.raises(ConfigError):
            run_predictions(dataset, "genread", oracle=OracleParams(), rng_seed=0)

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


class TestCorruptCompletionCache:
    @pytest.mark.parametrize(
        "corrupt",
        [lambda text: text[: len(text) // 2], lambda text: '{"completion": {"txt": 1}}',
         lambda text: "[" * 100_000 + "]" * 100_000],
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
