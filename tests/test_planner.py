from __future__ import annotations

import random

import pytest

import transcripts
from conftest import system_of
from ragroute.llm import Metered, ScriptedChatBackend, ScriptEntry, TokenUsage
from ragroute.planner import (
    ANSWERABLE,
    EXHAUSTED,
    PlanError,
    PlanStrategy,
    defend,
    judge_and_split,
    polish_query,
    run_plan,
    select_subquestion,
    split_first_round,
)
from ragroute.prompts import TEMPLATES


def backend_of(*entries: tuple[str, str], repeat_all: bool = False) -> ScriptedChatBackend:
    return ScriptedChatBackend(
        [ScriptEntry(m, r, repeat=repeat_all) for m, r in entries]
    )


class TestSplitFirstRound:
    def test_three_subquestions(self):
        backend = backend_of(("break the question into", transcripts.NR_SPLITTER_REPLY))
        questions = split_first_round(transcripts.NR_QUERY, backend)
        assert len(questions) == 3
        assert questions[0].startswith("What were the main claims made by The Age")

    def test_atomic_question_passthrough(self):
        backend = backend_of(("break the question into", "1. Who wrote the book?"))
        assert split_first_round("Who wrote the book?", backend) == ["Who wrote the book?"]

    def test_two_questions_order_preserved(self):
        backend = backend_of(("break the question into", "1. First?\n2. Second?"))
        assert split_first_round("q", backend) == ["First?", "Second?"]

    def test_reask_then_error(self):
        backend = backend_of(
            ("break the question into", "no numbering at all"),
            ("break the question into", "still no numbering"),
        )
        with pytest.raises(PlanError):
            split_first_round("q", backend)
        assert len(backend.calls) == 2


class TestJudgeAndSplit:
    def test_unanswerable_round_yields_candidates(self):
        backend = backend_of(("justify if the query", transcripts.NR_JUDGER_REPLY_1))
        records = [transcripts.round_of(transcripts.NR_ROUND1_QUESTION, "answer one", 1)]
        judgment = judge_and_split(transcripts.NR_QUERY, records, backend)
        assert judgment.answerable is False
        from ragroute.llm import extract_numbered_questions

        assert len(extract_numbered_questions(judgment.response)) == 2

    def test_answerable_round_short_answer(self):
        backend = backend_of(("justify if the query", transcripts.NR_JUDGER_REPLY_2))
        judgment = judge_and_split(transcripts.NR_QUERY, [], backend)
        assert judgment.answerable is True
        assert len(judgment.response.split()) <= 20

    def test_trivially_answerable_empty_records(self):
        backend = backend_of(
            ("justify if the query", "Justification: easy.\nAnswerable: yes\nResponse: Blue.")
        )
        judgment = judge_and_split("what color is the sky?", [], backend)
        assert judgment.answerable is True
        assert judgment.response == "Blue."

    def test_reask_on_unparseable(self):
        backend = backend_of(
            ("justify if the query", "word salad"),
            ("justify if the query", "Justification: x\nAnswerable: no\nResponse: 1. Q?"),
        )
        judgment = judge_and_split("q", [], backend)
        assert judgment.answerable is False
        assert len(backend.calls) == 2


class TestSelectSubquestion:
    def test_first_fresh_candidate_wins(self):
        backend = backend_of(("assess whether Question 2", transcripts.NR_SELECTOR_REPLY))
        selected = select_subquestion(
            [transcripts.NR_ROUND2_QUESTION, "other candidate?"],
            [transcripts.round_of(transcripts.NR_ROUND1_QUESTION, "answer one", 1)],
            backend,
        )
        assert selected == transcripts.NR_ROUND2_QUESTION
        assert len(backend.calls) == 1  # one pairwise check, no polish

    def test_vacuous_pass_with_empty_asked_makes_no_calls(self):
        backend = backend_of()
        selected = select_subquestion(["only candidate?"], [], backend)
        assert selected == "only candidate?"
        assert backend.calls == []

    def test_all_duplicates_polish_branch(self):
        backend = backend_of(
            ("assess whether Question 2", "Explanation: same.\nMeets both requirements: no"),
            ("assess whether Question 2", "Explanation: same.\nMeets both requirements: no"),
            ("polish the query", "Polished query: a sharper question?"),
        )
        selected = select_subquestion(
            ["dup one?", "dup two?"], [transcripts.round_of("asked before?", "a.", 1)], backend
        )
        assert selected == "a sharper question?"
        assert backend.calls[-1].prompt.startswith(TEMPLATES["polish_query"])

    def test_polish_unparseable_returns_raw_with_warning(self):
        backend = backend_of(
            ("assess whether Question 2", "Explanation: same.\nMeets both requirements: no"),
            ("polish the query", "no polished marker here"),
        )
        selected = select_subquestion(["dup?"], [transcripts.round_of("dup?", "a.", 1)], backend)
        assert selected == "dup?"
        assert backend.calls[-1].prompt.startswith(TEMPLATES["polish_query"])

    def test_pairwise_short_circuits_on_first_failure(self):
        backend = backend_of(
            ("assess whether Question 2", "Explanation: no.\nMeets both requirements: no"),
            ("assess whether Question 2", "Explanation: ok.\nMeets both requirements: yes"),
            ("assess whether Question 2", "Explanation: ok.\nMeets both requirements: yes"),
        )
        asked = [
            transcripts.round_of("asked one?", "a.", 1),
            transcripts.round_of("asked two?", "b.", 2),
        ]
        selected = select_subquestion(["stale?", "fresh?"], asked, backend)
        # candidate 1 fails against asked one (1 call), candidate 2 passes
        # against both asked questions (2 calls)
        assert selected == "fresh?"
        assert len(backend.calls) == 3

    @pytest.mark.parametrize("verdict, fresh", [
        ("no, not yesterday's question", False),
        ("no (eyes on the date)", False),
        ("Yes.", True),
        ("yes, it is fresh", True),
    ])
    def test_pairwise_reads_yes_as_a_whole_word(self, verdict, fresh):
        backend = backend_of(
            ("assess whether Question 2", f"Explanation: x.\nMeets both requirements: {verdict}"),
            ("polish the query", "Polished query: polished?"),
        )
        selected = select_subquestion(["cand?"], [transcripts.round_of("asked?", "a.", 1)], backend)
        assert selected == ("cand?" if fresh else "polished?")

    def test_empty_candidates_rejected(self):
        with pytest.raises(PlanError):
            select_subquestion([], [], backend_of())


class TestDefend:
    def test_final_answer_from_records(self):
        backend = backend_of(
            ("If you need more information", transcripts.NR_DEFENDER_REPLY)
        )
        records = [
            transcripts.round_of(transcripts.NR_ROUND1_QUESTION, "The Age claims...", 1),
            transcripts.round_of(transcripts.NR_ROUND2_QUESTION, "TechCrunch alleges...", 2),
        ]
        assert defend(transcripts.NR_QUERY, records, backend) == transcripts.NR_EXPECTED

    def test_insufficient_information_fallback(self):
        backend = backend_of(
            ("If you need more information", "Analysis: no records.\nAnswer: Insufficient information.")
        )
        assert defend("q?", [], backend) == "Insufficient information."

    def test_records_containing_answer(self):
        backend = backend_of(
            ("If you need more information", "Analysis: record 1 says 7.\nAnswer: Seven.")
        )
        records = [transcripts.round_of("count?", "Seven.", 1)]
        assert defend("how many?", records, backend) == "Seven."

    def test_degraded_reply_reasks_then_errors(self):
        backend = backend_of(
            ("If you need more information", "no labels"),
            ("If you need more information", "still no labels"),
        )
        with pytest.raises(PlanError):
            defend("q?", [], backend)


class TestPolishQuery:
    def test_polished_line_extracted(self):
        backend = backend_of(("polish the query", "Polished query: Where was Ada Lovelace born?"))
        records = [transcripts.round_of("who?", "Ada Lovelace", 1)]
        polished = polish_query("where was she born?", records, backend)
        assert polished == "Where was Ada Lovelace born?"

    def test_unusable_reply_returns_none(self):
        backend = backend_of(("polish the query", "nothing to see"))
        assert polish_query("q?", [], backend) is None

    @pytest.mark.parametrize("reply, polished", [
        ("Polished query - Who is X?", None),
        ("Polished query:", None),
        ("Polished query - Who is X?\nPolished query: Who is Ada?", "Who is Ada?"),
    ])
    def test_only_the_text_after_a_colon_is_a_polished_query(self, reply, polished):
        backend = backend_of(("polish the query", reply))
        assert polish_query("q?", [], backend) == polished


class TestRunPlanGreedy:
    def test_two_round_transcript_replay(self, news_reports_setup, mock_embedder):
        agents, registry, backend = news_reports_setup
        system = system_of(
            agents, registry, backend, mock_embedder, strategy=PlanStrategy.GREEDY, max_rounds=5
        )
        result = run_plan(system, transcripts.NR_QUERY)
        assert result.final_answer == transcripts.NR_EXPECTED
        assert result.status == ANSWERABLE
        assert len(result.rounds) == 2
        assert result.rounds[0].question == transcripts.NR_ROUND1_QUESTION
        assert result.rounds[1].question == transcripts.NR_ROUND2_QUESTION
        assert [r.round for r in result.rounds] == [1, 2]

    def test_embeds_once_per_routed_round(self, news_reports_setup):
        from conftest import CountingEmbedder

        agents, registry, backend = news_reports_setup
        counter = CountingEmbedder(transcripts.MOCK_DIM)
        system = system_of(agents, registry, backend, counter, strategy="greedy")
        result = run_plan(system, transcripts.NR_QUERY)
        assert len(result.rounds) == 2
        assert counter.calls == len(result.rounds)

    def test_usage_equals_backend_log_sum(self, news_reports_setup, mock_embedder):
        agents, registry, backend = news_reports_setup
        meter = Metered(backend)
        run_plan(system_of(agents, registry, meter, mock_embedder, strategy="greedy"),
                 transcripts.NR_QUERY)
        assert meter.total == sum((c.usage for c in backend.calls), TokenUsage())

    def test_max_rounds_one_never_answerable_still_defends(self, mock_embedder):
        backend = backend_of(
            ("break the question into", "1. Sub one?\n2. Sub two?"),
            ("collection of knowledge", "Analysis: n/a\nAnswer: I don't know."),
            ("set of respoonses", "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\nAnswer: I don't know."),
            ("justify if the query", "Justification: nothing.\nAnswerable: no\nResponse: 1. Sub three?"),
            ("If you need more information", "Analysis: out of rounds.\nAnswer: Insufficient information."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "sub one words sub two words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(
            agents, registry, backend, mock_embedder, strategy="greedy", max_rounds=1
        )
        result = run_plan(system, "impossible?")
        assert result.status == EXHAUSTED
        assert len(result.rounds) == 1
        assert result.final_answer == "Insufficient information."

    def test_immediately_answerable_single_round(self, mock_embedder):
        backend = backend_of(
            ("break the question into", "1. The whole question?"),
            ("collection of knowledge", "Analysis: from docs\nAnswer: It is blue."),
            ("set of respoonses", "Evaluation: \n- Response 1 is reliable.\nAnalysis: fine\nAnswer: It is blue."),
            ("justify if the query", "Justification: covered.\nAnswerable: yes\nResponse: It is blue."),
            ("If you need more information", "Analysis: records answer it.\nAnswer: It is blue."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "the whole question words blue"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(
            agents, registry, backend, mock_embedder, strategy="greedy", max_rounds=5
        )
        result = run_plan(system, "single hop really?")
        assert result.status == ANSWERABLE
        assert len(result.rounds) == 1
        assert result.final_answer == "It is blue."

    def test_records_grow_one_per_round_and_no_requeue(self, news_reports_setup, mock_embedder):
        agents, registry, backend = news_reports_setup
        system = system_of(agents, registry, backend, mock_embedder, strategy="greedy")
        result = run_plan(system, transcripts.NR_QUERY)
        questions = [r.question for r in result.rounds]
        assert len(questions) == len(set(questions))
        assert [r.round for r in result.rounds] == list(range(1, len(questions) + 1))


class TestRunPlanOneShot:
    def test_one_routed_call_no_planner_templates(self, mock_embedder):
        backend = backend_of(
            ("collection of knowledge", "Analysis: all docs at once\nAnswer: Direct answer."),
            ("set of respoonses", "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: Direct answer."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "direct answer material words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(
            agents, registry, backend, mock_embedder, strategy=PlanStrategy.ONE_SHOT
        )
        result = run_plan(system, "direct material?")
        assert result.final_answer == "Direct answer."
        assert [r.question for r in result.rounds] == ["direct material?"]
        forbidden = [
            TEMPLATES["splitter_first_round"],
            TEMPLATES["judger_splitter"],
            TEMPLATES["defender"],
            TEMPLATES["selector_pairwise"],
            TEMPLATES["polish_query"],
        ]
        for call in backend.calls:
            for template in forbidden:
                assert template not in call.prompt

    def test_one_shot_min_keep_twenty(self, mock_embedder):
        # 30 chunks sharing no vocabulary with the question: the floor rule
        # must keep exactly 20
        body = " ".join(f"filler{i}a filler{i}b filler{i}c filler{i}d" for i in range(40))
        backend = backend_of(
            ("collection of knowledge", "Analysis: n/a\nAnswer: I don't know."),
            ("set of respoonses", "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\nAnswer: I don't know."),
        )
        from conftest import make_agents
        from ragroute.corpus import ChunkingConfig

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": body}],
            ["a"],
            ["c"],
            mock_embedder,
            chunking=ChunkingConfig(4, 0),
            retrieval_depth=50,
            min_keep=10,
        )
        system = system_of(agents, registry, backend, mock_embedder, strategy="one_shot")
        run_plan(system, "zebra okapi?")
        agent_prompt = backend.calls[0].prompt
        assert agent_prompt.count("[doc:") == 20


class TestRunPlanPresplit:
    def test_answers_every_subquestion_then_defends(self, mock_embedder):
        backend = backend_of(
            ("break the question into", "1. Sub A?\n2. Sub B?"),
            ("collection of knowledge", "Analysis: a docs\nAnswer: Alpha."),
            ("set of respoonses", "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: Alpha."),
            ("polish the query", "Polished query: Sub B, given Alpha?"),
            ("collection of knowledge", "Analysis: b docs\nAnswer: Beta."),
            ("set of respoonses", "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: Beta."),
            ("If you need more information", "Analysis: combine\nAnswer: Alpha and Beta."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "sub a sub b alpha beta words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(
            agents, registry, backend, mock_embedder, strategy=PlanStrategy.PRESPLIT
        )
        result = run_plan(system, "a and b?")
        assert result.final_answer == "Alpha and Beta."
        assert [r.question for r in result.rounds] == ["Sub A?", "Sub B, given Alpha?"]
        assert len(result.rounds) == 2

    def test_an_empty_curated_answer_is_reasked_before_the_next_round(self, mock_embedder):
        """A bare ``Answer:`` would be round 1's answer and so an empty history
        turn in round 2; curation re-asks it like a missing one."""
        curated = "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer:"
        backend = backend_of(
            ("break the question into", "1. Sub A?\n2. Sub B?"),
            ("collection of knowledge", "Analysis: a docs\nAnswer: Alpha."),
            ("set of respoonses", curated),
            ("set of respoonses", curated + " Alpha."),
            ("polish the query", "Polished query: Sub B, given Alpha?"),
            ("collection of knowledge", "Analysis: b docs\nAnswer: Beta."),
            ("set of respoonses", curated + " Beta."),
            ("If you need more information", "Analysis: combine\nAnswer: Alpha and Beta."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "sub a sub b alpha beta words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder, strategy="presplit")
        result = run_plan(system, "a and b?")
        assert [(r.question, r.answer) for r in result.rounds] == [
            ("Sub A?", "Alpha."), ("Sub B, given Alpha?", "Beta."),
        ]
        assert result.final_answer == "Alpha and Beta."
        assert len(backend.calls) == 8

    def test_presplit_never_judges(self, mock_embedder):
        backend = backend_of(
            ("break the question into", "1. Only sub?"),
            ("collection of knowledge", "Analysis: docs\nAnswer: Single."),
            ("set of respoonses", "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: Single."),
            ("If you need more information", "Analysis: done\nAnswer: Single."),
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "only sub words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder, strategy="presplit")
        run_plan(system, "q?")
        for call in backend.calls:
            assert TEMPLATES["judger_splitter"] not in call.prompt


_AGENT_OK = "Analysis: docs\nAnswer: Alpha."
_CURATED_OK = "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: Alpha."

# Each strategy's script and the number of chat calls its plan makes. The
# greedy script re-asks the split, the first judgment and the defence, and
# polishes the second round's candidate after a pairwise "no".
_USAGE_SCRIPTS = {
    "greedy": (
        [
            ("break the question into", "no numbering at all"),
            ("break the question into", "1. Sub one?\n2. Sub two?"),
            ("collection of knowledge", _AGENT_OK),
            ("set of respoonses", _CURATED_OK),
            ("justify if the query", "word salad"),
            ("justify if the query", "Justification: x\nAnswerable: no\nResponse: 1. Sub three?"),
            ("assess whether Question 2", "Explanation: same.\nMeets both requirements: no"),
            ("polish the query", "Polished query: Sub three, sharper?"),
            ("collection of knowledge", _AGENT_OK),
            ("set of respoonses", _CURATED_OK),
            ("justify if the query", "Justification: y\nAnswerable: yes\nResponse: Alpha."),
            ("If you need more information", "no labels"),
            ("If you need more information", "Analysis: combine\nAnswer: Alpha."),
        ],
        13,
    ),
    "presplit": (
        [
            ("break the question into", "1. Sub A?\n2. Sub B?"),
            ("collection of knowledge", _AGENT_OK),
            ("set of respoonses", _CURATED_OK),
            ("polish the query", "Polished query: Sub B, given Alpha?"),
            ("collection of knowledge", _AGENT_OK),
            ("set of respoonses", _CURATED_OK),
            ("If you need more information", "Analysis: combine\nAnswer: Alpha."),
        ],
        7,
    ),
    "one_shot": (
        [("collection of knowledge", _AGENT_OK), ("set of respoonses", _CURATED_OK)],
        2,
    ),
}


class TestPlanUsage:
    @pytest.mark.parametrize("strategy", sorted(_USAGE_SCRIPTS))
    def test_usage_is_every_chat_call_once(self, strategy, mock_embedder):
        from conftest import make_agents

        entries, n_calls = _USAGE_SCRIPTS[strategy]
        backend = backend_of(*entries)
        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": "sub one two three alpha words"}],
            ["a"],
            ["c"],
            mock_embedder,
        )
        meter = Metered(backend)
        system = system_of(agents, registry, meter, mock_embedder, strategy=strategy)
        result = run_plan(system, "alpha?")
        assert result.final_answer == "Alpha."
        assert all(entry.consumed for entry in backend.entries)
        assert len(backend.calls) == n_calls
        assert meter.total == sum((c.usage for c in backend.calls), TokenUsage())


class TestTerminationBound:
    def test_randomized_never_answerable_scripts(self, mock_embedder):
        from conftest import make_agents

        rng = random.Random(2024)
        for case in range(30):
            max_rounds = rng.randint(1, 5)
            entries = [("break the question into", "1. Seed question zero?")]
            for r in range(max_rounds):
                entries.append(("collection of knowledge", "Analysis: n/a\nAnswer: I don't know."))
                entries.append(
                    ("set of respoonses",
                     "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\nAnswer: I don't know.")
                )
                n_new = rng.randint(1, 3)
                numbered = "\n".join(
                    f"{i + 1}. Fresh question {case}-{r}-{i}?" for i in range(n_new)
                )
                entries.append(
                    ("justify if the query",
                     f"Justification: still missing facts.\nAnswerable: no\nResponse: {numbered}")
                )
            # selector checks may fire from round 2 on; always approve
            entries.insert(1, ("assess whether Question 2", "Explanation: ok.\nMeets both requirements: yes"))
            entries.append(("If you need more information", "Analysis: rounds exhausted.\nAnswer: Insufficient information."))
            script = [ScriptEntry(m, r) for m, r in entries]
            for e in script:
                if e.match in ("assess whether Question 2",):
                    e.repeat = True
            backend = ScriptedChatBackend(script)
            agents, registry = make_agents(
                [{"doc_id": "d", "category": "c", "body": "seed question zero fresh words"}],
                ["a"],
                ["c"],
                mock_embedder,
            )
            system = system_of(
                agents, registry, backend, mock_embedder, strategy="greedy", max_rounds=max_rounds
            )
            result = run_plan(system, f"never answerable {case}?")
            assert len(result.rounds) <= max_rounds
            assert result.status == EXHAUSTED
            assert result.final_answer == "Insufficient information."
