from __future__ import annotations

import re

import pytest
from hypothesis import given

import transcripts
from ragroute.corpus import LineError, load_corpus
from ragroute.evalharness import (
    AGENTS_ALL,
    AGENTS_RAW_KNOWLEDGE,
    AGENTS_SELECTED,
    MULTI,
    SINGLE,
    EvalItem,
    EvalReport,
    EvalSystem,
    ItemOutcome,
    aggregate,
    answer,
    judge_correctness,
    lexical_match,
    load_eval_items,
    normalize_text,
    run_eval,
)
from ragroute.llm import ScriptedChatBackend, ScriptEntry, TokenUsage
from ragroute.router import RouterError
from test_corpus import TOKEN_TEXTS


class TestLexicalMatch:
    def test_groundtruth_inside_longer_response(self):
        assert lexical_match(
            "Daryl's brother in The Walking Dead is Merle Dixon.", ["Merle Dixon"]
        )

    def test_unknown_response_misses(self):
        assert not lexical_match("I don't know.", ["Merle Dixon"])

    def test_semantic_yes_does_not_match_lexically(self):
        assert not lexical_match(transcripts.NR_EXPECTED, ["Yes"])

    def test_case_and_punctuation_invariance(self):
        assert lexical_match("the answer is MERLE dixon!", ["Merle Dixon"])
        assert lexical_match("answer: merle-dixon", ["Merle Dixon"])

    def test_token_boundary_containment(self):
        assert not lexical_match("yesterday was fine", ["yes"])
        assert lexical_match("yes it was", ["yes"])

    def test_any_groundtruth_suffices(self):
        assert lexical_match("it was Ada Lovelace", ["Grace Hopper", "Ada Lovelace"])

    def test_normalize_text(self):
        assert normalize_text("  The Answer, is: Merle!  ") == "the answer is merle"

    @given(TOKEN_TEXTS)
    def test_normalize_text_keeps_the_tokens_that_hold_a_word_character(self, text):
        """Against the definition it had: the lowercase regex tokens that
        hold a word character, joined by one space."""
        tokens = re.findall(r"\w+|[^\w\s]", text)
        assert normalize_text(text) == " ".join(t.lower() for t in tokens if re.search(r"\w", t))


def outcome(
    selected: tuple[str, ...],
    slots: dict[str, tuple[str, ...]],
    target_docs: set[str],
    target_agents: set[str],
) -> ItemOutcome:
    item = EvalItem(
        question="q?",
        answers=("a",),
        target_doc_ids=frozenset(target_docs),
        target_agent_ids=frozenset(target_agents),
    )
    return ItemOutcome(item=item, selected_agent_ids=selected, retrieved_doc_slots=slots)


def rates(outcomes: list[ItemOutcome]) -> dict[str, float]:
    agg = aggregate(outcomes)
    keys = ("answerable_doc_pct", "answerable_agent_pct", "useful_doc_pct", "useful_agent_pct")
    return {key: agg[key] for key in keys}


class TestRates:
    def test_target_doc_retrieved_by_any_agent_counts(self):
        o = outcome(("a1", "a2"), {"a1": ("dX",), "a2": ("dY",)}, {"dY"}, {"a9"})
        assert rates([o])["answerable_doc_pct"] == 100.0
        assert rates([o])["answerable_agent_pct"] == 0.0

    def test_no_retrieval_zero(self):
        o = outcome((), {}, {"dX"}, {"a1"})
        assert rates([o]) == dict.fromkeys(rates([o]), 0.0)

    def test_five_selected_one_target_is_twenty_percent(self):
        o = outcome(
            ("a1", "a2", "a3", "a4", "a5"),
            {a: () for a in ("a1", "a2", "a3", "a4", "a5")},
            set(),
            {"a3"},
        )
        assert rates([o])["useful_agent_pct"] == pytest.approx(20.0)

    def test_every_slot_on_target_is_hundred_percent(self):
        o = outcome(("a1",), {"a1": ("d1", "d1", "d1")}, {"d1"}, {"a1"})
        assert rates([o])["useful_doc_pct"] == pytest.approx(100.0)

    def test_duplicate_slots_counted(self):
        o = outcome(("a1", "a2"), {"a1": ("d1", "d2"), "a2": ("d1", "d3")}, {"d1"}, set())
        assert rates([o])["useful_doc_pct"] == pytest.approx(100 * 2 / 4)

    def test_hand_counted_synthetic_suite(self):
        outcomes = [
            outcome(("a1", "a2"), {"a1": ("d1",), "a2": ("d2",)}, {"d1"}, {"a1"}),
            outcome(("a2",), {"a2": ("d9", "d9")}, {"d1"}, {"a1"}),
        ]
        assert rates(outcomes) == pytest.approx({
            "answerable_doc_pct": 50.0,
            "answerable_agent_pct": 50.0,
            "useful_doc_pct": 100 * (0.5 + 0.0) / 2,
            "useful_agent_pct": 100 * (0.5 + 0.0) / 2,
        })


def pinned_report() -> EvalReport:
    """Two modes of hand-built outcomes: judged yes, judged no and unjudged
    items, an errored item, an item with no targets, one with targets but no
    slots, and duplicate slots."""

    def item(question, docs=(), agents=()):
        return EvalItem(question, ("a",), frozenset(docs), frozenset(agents))

    both = item("q1?", {"d1", "d2"}, {"a1"})
    no_slots = item("q2?", {"d3"}, {"a2"})
    no_targets = item("q3?")
    errored = item("q4?", {"d1"}, {"a1"})
    outcomes = {
        "with_rag": [
            ItemOutcome(both, "it is a", ("a1", "a2"), {"a1": ("d1", "d1"), "a2": ("d4",)},
                        TokenUsage(10, 5), TokenUsage(6, 1), lexical=True, judged_correct=True),
            ItemOutcome(no_slots, "no idea", ("a1",), {"a1": ()}, TokenUsage(7, 2),
                        TokenUsage(6, 3), judged_correct=False),
            ItemOutcome(no_targets, "a", ("a2",), {"a2": ("d2",)}, TokenUsage(4, 1), lexical=True),
            ItemOutcome(errored, error="unscripted prompt"),
        ],
        "raw_model": [
            ItemOutcome(both, "a guess", usage=TokenUsage(3, 4), lexical=True),
            ItemOutcome(no_targets, "b", usage=TokenUsage(2, 2)),
        ],
    }
    return EvalReport({mode: aggregate(outs) for mode, outs in outcomes.items()}, outcomes)


def item_json(question, answer, selected, slots, prompt, completion, lexical, judged, error,
              docs, agents, matched_slots, matched_docs, judge_tokens=0) -> dict:
    return {
        "question": question, "final_answer": answer, "selected_agent_ids": selected,
        "retrieved_doc_slots": slots, "prompt_tokens": prompt, "completion_tokens": completion,
        "judge_tokens": judge_tokens,
        "lexical": lexical, "judged_correct": judged, "error": error, "target_doc_ids": docs,
        "target_agent_ids": agents, "matched_doc_slots": matched_slots,
        "matched_distinct_docs": matched_docs,
    }


class TestReport:
    """The whole report of ``pinned_report``, every figure counted by hand:
    rates are over the items with targets of their kind, a useful rate
    skips items with nothing retrieved, and an errored item counts in every
    denominator."""

    def test_json(self):
        assert pinned_report().to_json() == {
            "modes": {
                "with_rag": {
                    "n_items": 4, "n_errors": 1, "tokens_per_query": 7.25, "lexical_pct": 50.0,
                    "judge_tokens_per_query": 4.0, "judge_pct": 50.0, "n_unjudged": 2,
                    "answerable_doc_pct": 33.33333333333333,
                    "answerable_agent_pct": 33.33333333333333,
                    "useful_doc_pct": 66.66666666666666, "useful_agent_pct": 25.0,
                },
                "raw_model": {
                    "n_items": 2, "n_errors": 0, "tokens_per_query": 5.5, "lexical_pct": 50.0,
                    "judge_tokens_per_query": 0.0, "judge_pct": None, "n_unjudged": 2,
                    "answerable_doc_pct": 0.0, "answerable_agent_pct": 0.0, "useful_doc_pct": 0.0,
                    "useful_agent_pct": 0.0,
                },
            },
            "items": {
                "with_rag": [
                    item_json("q1?", "it is a", ["a1", "a2"], {"a1": ["d1", "d1"], "a2": ["d4"]},
                              10, 5, True, True, None, ["d1", "d2"], ["a1"], 2, 1, 7),
                    item_json("q2?", "no idea", ["a1"], {"a1": []},
                              7, 2, False, False, None, ["d3"], ["a2"], 0, 0, 9),
                    item_json("q3?", "a", ["a2"], {"a2": ["d2"]},
                              4, 1, True, None, None, [], [], 0, 0),
                    item_json("q4?", "", [], {},
                              0, 0, False, None, "unscripted prompt", ["d1"], ["a1"], 0, 0),
                ],
                "raw_model": [
                    item_json("q1?", "a guess", [], {}, 3, 4, True, None, None,
                              ["d1", "d2"], ["a1"], 0, 0),
                    item_json("q3?", "b", [], {}, 2, 2, False, None, None, [], [], 0, 0),
                ],
            },
        }

    def test_table(self):
        assert pinned_report().table().split("\n") == [
            "Mode           Tokens/Query  Lexical (%)  Judge (%)  Ans.Doc (%)  Ans.Agent (%)  "
            "Useful Doc (%)  Useful Agent (%) ",
            "-" * 114,
            "with_rag       7.25          50.00        50.00      33.33        33.33          "
            "66.67           25.00            ",
            "raw_model      5.50          50.00        -          0.00         0.00           "
            "0.00            0.00             ",
        ]


class TestJudgeCorrectness:
    def test_yes_verdict(self):
        backend = ScriptedChatBackend(
            [ScriptEntry("state only \"yes\" or \"no\"", transcripts.WD_JUDGE_REPLY)]
        )
        flag = judge_correctness(
            transcripts.WD_QUESTION, [transcripts.WD_GROUNDTRUTH],
            transcripts.WD_EXPECTED, backend,
        )
        assert flag is True

    def test_multi_hop_judge_yes(self):
        backend = ScriptedChatBackend(
            [ScriptEntry("a model answer", transcripts.NR_JUDGE_REPLY)]
        )
        flag = judge_correctness(
            transcripts.NR_QUERY, [transcripts.NR_GROUNDTRUTH],
            transcripts.NR_EXPECTED, backend, hop="multi",
        )
        assert flag is True

    def test_no_verdict(self):
        backend = ScriptedChatBackend(
            [ScriptEntry("Response:", "Justification: contradicts.\nCorrect: no")]
        )
        flag = judge_correctness("q", ["truth"], "falsehood", backend)
        assert flag is False

    def test_unparseable_twice_returns_none(self):
        backend = ScriptedChatBackend(
            [
                ScriptEntry("Response:", "never a verdict"),
                ScriptEntry("Response:", "still no verdict"),
            ]
        )
        assert judge_correctness("q", ["t"], "r", backend) is None
        assert len(backend.calls) == 2


def eight_topic_system(mock_embedder, backend, max_agents=5, agent_mode="selected"):
    from conftest import make_agents

    corpus = []
    for topic in range(8):
        words = " ".join(f"topic{topic}word{w}" for w in range(6))
        corpus.append(
            {"doc_id": f"doc-t{topic}", "category": f"cat{topic}", "body": f"{words} {words}"}
        )
    agents, registry = make_agents(
        corpus,
        [f"agent{t}" for t in range(8)],
        [f"cat{t}" for t in range(8)],
        mock_embedder,
    )
    return EvalSystem(
        registry=registry,
        agents=agents,
        backend=backend,
        embedder=mock_embedder,
        max_agents=max_agents,
        agent_mode=agent_mode,
    )


def catch_all_backend() -> ScriptedChatBackend:
    return ScriptedChatBackend(
        [
            ScriptEntry("set of documents", "Analysis: none.\nAnswer: I don't know.", repeat=True),
            ScriptEntry(
                "set of respoonses",
                "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\nAnswer: I don't know.",
                repeat=True,
            ),
        ]
    )


def topic_items(n=8) -> list[EvalItem]:
    items = []
    for topic in range(n):
        items.append(
            EvalItem(
                question=f"topic{topic}word0 topic{topic}word3?",
                answers=("whatever",),
                target_doc_ids=frozenset({f"doc-t{topic}"}),
                target_agent_ids=frozenset({f"agent{topic}"}),
            )
        )
    return items


class TestRunEval:
    def test_aggregates_equal_recomputation(self, mock_embedder):
        backend = catch_all_backend()
        system = eight_topic_system(mock_embedder, backend)
        report = run_eval(topic_items(), system)
        outcomes = report.outcomes["with_rag"]
        assert report.mode_reports["with_rag"] == aggregate(outcomes)
        assert report.mode_reports["with_rag"]["n_items"] == 8

    def test_empty_item_list(self, mock_embedder):
        system = eight_topic_system(mock_embedder, catch_all_backend())
        report = run_eval([], system)
        assert report.mode_reports["with_rag"]["n_items"] == 0

    def test_all_agents_consumes_strictly_more_tokens(self, mock_embedder):
        items = topic_items()
        selected_report = run_eval(
            items, eight_topic_system(mock_embedder, catch_all_backend(), agent_mode="selected")
        )
        all_report = run_eval(
            items, eight_topic_system(mock_embedder, catch_all_backend(), agent_mode=AGENTS_ALL)
        )
        sel = selected_report.mode_reports["with_rag"]["tokens_per_query"]
        alltok = all_report.mode_reports["with_rag"]["tokens_per_query"]
        assert alltok > sel

    def test_raw_model_mode_makes_one_call_per_item(self, mock_embedder):
        backend = ScriptedChatBackend(
            [ScriptEntry("topic", "A direct answer.", repeat=True)]
        )
        system = eight_topic_system(mock_embedder, backend)
        report = run_eval(topic_items(3)[:3], system, modes=["raw_model"])
        assert len(backend.calls) == 3
        assert report.mode_reports["raw_model"]["n_items"] == 3

    def test_raw_knowledge_single_generation_call(self, mock_embedder):
        backend = ScriptedChatBackend(
            [ScriptEntry("set of documents", "Analysis: merged.\nAnswer: From raw chunks.", repeat=True)]
        )
        system = eight_topic_system(mock_embedder, backend, agent_mode=AGENTS_RAW_KNOWLEDGE)
        report = run_eval(topic_items(2)[:2], system)
        # one generation call per item, none per agent
        assert len(backend.calls) == 2
        assert report.outcomes["with_rag"][0].final_answer == "From raw chunks."
        assert report.outcomes["with_rag"][0].selected_agent_ids

    def test_greedy_multi_hop_merges_rounds(self, mock_embedder):
        from conftest import make_agents

        unknown = "Analysis: none.\nAnswer: I don't know."
        backend = ScriptedChatBackend(
            [
                ScriptEntry("break the question into", "1. gamma gamma alpha?"),
                ScriptEntry("assess whether Question 2", "Meets both requirements: yes"),
                ScriptEntry("justify if the query", "Answerable: no\nResponse: 1. beta beta?"),
                ScriptEntry("justify if the query", "Answerable: yes\nResponse: All."),
                ScriptEntry("If you need more information", "Analysis: joined.\nAnswer: All."),
                ScriptEntry("collection of knowledge", unknown, repeat=True),
                ScriptEntry("set of respoonses", "Evaluation: \n- Response 1 is unreliable.\n"
                            + unknown, repeat=True),
            ]
        )
        corpus = [
            {"doc_id": "a-alpha", "category": "ca", "body": "alpha alpha alpha words"},
            {"doc_id": "a-beta", "category": "ca", "body": "beta beta beta words"},
            {"doc_id": "b-gamma", "category": "cb", "body": "gamma gamma gamma words"},
        ]
        agents, registry = make_agents(corpus, ["a", "b"], ["ca", "cb"], mock_embedder)
        system = EvalSystem(
            registry=registry, agents=agents, backend=backend, embedder=mock_embedder, max_agents=2
        )
        item = EvalItem("alpha, beta and gamma?", ("All",), hop=MULTI)
        outcome = run_eval([item], system).outcomes["with_rag"][0]
        assert outcome.error is None
        assert outcome.final_answer == "All."
        # round 1 selects (b, a) and round 2 (a, b): agents in first-seen order
        assert outcome.selected_agent_ids == ("b", "a")
        # each agent's doc slots are its rounds' hits, concatenated in round order
        assert outcome.retrieved_doc_slots == {
            "b": ("b-gamma", "b-gamma"),
            "a": ("a-alpha", "a-beta", "a-beta", "a-alpha"),
        }

    def test_errors_recorded_run_continues(self, mock_embedder):
        # unscripted backend: every item hard-fails but the report still lands
        backend = ScriptedChatBackend([])
        system = eight_topic_system(mock_embedder, backend)
        report = run_eval(topic_items(), system)
        outcomes = report.outcomes["with_rag"]
        assert all(o.error for o in outcomes)
        assert report.mode_reports["with_rag"]["n_errors"] == 8

    def test_an_error_without_a_message_is_named_by_its_type(self, mock_embedder):
        class Failing:
            calls: list = []

            def chat(self, messages):
                raise RuntimeError()

        system = eight_topic_system(mock_embedder, catch_all_backend())
        system.backend = Failing()
        report = run_eval(topic_items(2), system, modes=["raw_model"])
        assert [o.error for o in report.outcomes["raw_model"]] == ["RuntimeError"] * 2
        assert report.mode_reports["raw_model"]["n_errors"] == 2

    def test_tokens_per_query_is_exact_mean_of_item_usage(self, mock_embedder):
        backend = catch_all_backend()
        system = eight_topic_system(mock_embedder, backend)
        report = run_eval(topic_items(), system)
        outcomes = report.outcomes["with_rag"]
        expected = sum(o.usage.total for o in outcomes) / len(outcomes)
        assert report.mode_reports["with_rag"]["tokens_per_query"] == pytest.approx(expected)

    def test_judge_backend_wired_through(self, mock_embedder):
        backend = catch_all_backend()
        judge = ScriptedChatBackend(
            [ScriptEntry("Response:", "Justification: ok.\nCorrect: yes", repeat=True)]
        )
        system = eight_topic_system(mock_embedder, backend)
        report = run_eval(topic_items(2)[:2], system, judge_backend=judge)
        assert report.mode_reports["with_rag"]["judge_pct"] == 100.0

    def test_a_failed_item_keeps_the_tokens_it_spent(self, mock_embedder):
        # The judge has nothing scripted, so each item fails after its
        # pipeline has answered.
        backend = catch_all_backend()
        system = eight_topic_system(mock_embedder, backend)
        for item in topic_items(2):
            start = len(backend.calls)
            [outcome] = run_eval([item], system, judge_backend=ScriptedChatBackend([])).outcomes[
                "with_rag"
            ]
            assert outcome.error.startswith("unscripted prompt")
            logged = sum((c.usage for c in backend.calls[start:]), TokenUsage())
            assert outcome.usage == logged
            assert logged.total == 1092

    def test_the_judge_is_counted_beside_the_pipeline_not_in_it(self, mock_embedder):
        judge = ScriptedChatBackend(
            [ScriptEntry("Response:", "Justification: ok.\nCorrect: yes", repeat=True)]
        )
        plain = run_eval(topic_items(2), eight_topic_system(mock_embedder, catch_all_backend()))
        judged = run_eval(
            topic_items(2), eight_topic_system(mock_embedder, catch_all_backend()),
            judge_backend=judge,
        )
        plain, judged = plain.mode_reports["with_rag"], judged.mode_reports["with_rag"]
        assert plain["tokens_per_query"] == judged["tokens_per_query"] == 1092.0
        assert judged["judge_tokens_per_query"] == 163.0
        assert sum(c.usage.total for c in judge.calls) == 2 * 163
        assert plain["judge_tokens_per_query"] == 0.0


def every_prompt_backend() -> ScriptedChatBackend:
    """Replies to every pipeline prompt: a one-subquestion split, a judge that
    says answerable at once, a defender, agents and curation."""
    unknown = "Analysis: none.\nAnswer: I don't know."
    return ScriptedChatBackend(
        [
            ScriptEntry("break the question into", "1. topic0word0 topic0word3?", repeat=True),
            ScriptEntry("justify if the query", "Answerable: yes\nResponse: done.", repeat=True),
            ScriptEntry("If you need more information", "Answer: done.", repeat=True),
            ScriptEntry("set of documents", unknown, repeat=True),
            ScriptEntry("collection of knowledge", unknown, repeat=True),
            ScriptEntry(
                "set of respoonses",
                "Evaluation: \n- Response 1 is unreliable.\n" + unknown,
                repeat=True,
            ),
        ]
    )


class TestAnswerDispatch:
    """Which path ``answer`` takes for each agent mode and hop, seen through
    the chat calls it makes and the agents it reports, with 8 agents and
    ``max_agents`` 2."""

    # (chat calls, agents reported): selected single = 2 agents + curation;
    # all single = 8 agents + curation; a greedy plan = split + 2 agents +
    # curation + judge + defender, and it selects by centroids in "all" mode
    # too; raw knowledge is one generation call for either hop.
    EXPECTED = {
        (AGENTS_SELECTED, SINGLE): (3, 2),
        (AGENTS_ALL, SINGLE): (9, 8),
        (AGENTS_RAW_KNOWLEDGE, SINGLE): (1, 2),
        (AGENTS_SELECTED, MULTI): (6, 2),
        (AGENTS_ALL, MULTI): (6, 2),
        (AGENTS_RAW_KNOWLEDGE, MULTI): (1, 2),
    }

    @pytest.mark.parametrize("agent_mode, hop", sorted(EXPECTED))
    def test_mode_and_hop_pick_the_path(self, mock_embedder, agent_mode, hop):
        backend = every_prompt_backend()
        system = eight_topic_system(mock_embedder, backend, max_agents=2, agent_mode=agent_mode)
        result = answer(system, "topic0word0 topic0word3?", hop)
        calls, agents = self.EXPECTED[agent_mode, hop]
        assert len(backend.calls) == calls
        assert len(result.selected_agent_ids) == agents
        if agents == 8:
            assert list(result.selected_agent_ids) == system.registry.agent_ids
        else:
            assert result.selected_agent_ids[0] == "agent0"


    @pytest.mark.parametrize("agent_mode", [AGENTS_SELECTED, AGENTS_ALL, AGENTS_RAW_KNOWLEDGE])
    @pytest.mark.parametrize("hop", [SINGLE, MULTI])
    def test_empty_registry_refused_before_embedding(self, agent_mode, hop):
        from conftest import CountingEmbedder, make_agents, system_of

        backend = ScriptedChatBackend([])
        embedder = CountingEmbedder(transcripts.MOCK_DIM)
        # The one agent's category has no documents, so it has no centroids.
        agents, registry = make_agents([], ["a"], ["c"], embedder)
        system = system_of(agents, registry, backend, embedder, agent_mode=agent_mode)
        with pytest.raises(RouterError, match="^no agents registered$"):
            answer(system, "q?", hop)
        assert embedder.calls == 0
        assert backend.calls == []


class TestLoadEvalItems:
    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "items.jsonl"
        path.write_text(
            '{"question": "q1?", "answers": ["a"], "target_doc_ids": ["d1"],'
            ' "target_agent_ids": ["ag"], "hop": "single"}\n'
            '{"question": "q2?", "answers": ["b", "c"], "hop": "multi"}\n'
        )
        items = load_eval_items(path)
        assert items[0].target_doc_ids == frozenset({"d1"})
        assert items[1].hop == "multi"
        assert items[1].answers == ("b", "c")

    def test_item_requires_answers(self):
        with pytest.raises(ValueError):
            EvalItem(question="q", answers=())

    @pytest.mark.parametrize(
        "bad",
        [b"\xff\xfe", b'{"question": "caf\xe9"}', b"  \t{\x80}", b"{not json", b"[1, 2",
         b"[" * 100_000, b"[]", b"null", b'"text"', b"7"],
        ids=["bom", "latin-1", "indented", "not-json", "short", "too-deep", "list", "null",
             "string", "number"],
    )
    def test_a_bad_line_gives_the_reason_ingest_gives(self, tmp_path, bad):
        """Dataset and corpus files are read by one reader: a line that is
        not UTF-8, not JSON or not an object is refused for the same reason
        in both, the dataset naming the file and the line."""
        path = tmp_path / "lines.jsonl"
        path.write_bytes(b"\n" + bad + b"\r\n")
        docs, errors = load_corpus(path)
        assert docs == [] and [e.line_no for e in errors] == [2]
        with pytest.raises(LineError) as info:
            load_eval_items(path)
        assert str(info.value) == f"{path} line 2: {errors[0].reason}"
