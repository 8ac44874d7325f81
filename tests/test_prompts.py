from __future__ import annotations

from pathlib import Path

import pytest

import transcripts
from ragroute.prompts import (
    AGENT_ANSWER_MULTI_HOP,
    AGENT_ANSWER_SINGLE_HOP,
    CORRECTNESS_JUDGE_SINGLE_HOP,
    DEFENDER,
    JUDGER_SPLITTER,
    POLISH_QUERY,
    ROUTER_FINALIZE_MULTI_HOP,
    ROUTER_FINALIZE_SINGLE_HOP,
    SELECTOR_PAIRWISE,
    SPLITTER_FIRST_ROUND,
    TEMPLATES,
    PromptSlotError,
    render_prompt,
)

GOLDEN_DIR = Path(__file__).parent / "golden"

_MINIMAL_SLOTS = {
    AGENT_ANSWER_SINGLE_HOP: {"question": "q?", "documents": ["d1"]},
    AGENT_ANSWER_MULTI_HOP: {"question": "q?", "documents": ["d1"], "history": []},
    ROUTER_FINALIZE_SINGLE_HOP: {"question": "q?", "responses": ["r1"]},
    ROUTER_FINALIZE_MULTI_HOP: {"question": "q?", "responses": ["r1"], "history": []},
    SPLITTER_FIRST_ROUND: {"question": "q?"},
    JUDGER_SPLITTER: {"query": "q?", "records": []},
    SELECTOR_PAIRWISE: {"question_1": "a?", "question_2": "b?"},
    DEFENDER: {"query": "q?", "records": []},
    POLISH_QUERY: {"query": "q?", "records": []},
    CORRECTNESS_JUDGE_SINGLE_HOP: {"question": "q?", "model_answers": ["x"], "response": "y"},
    "correctness_judge_multi_hop": {"question": "q?", "model_answer": "x", "response": "y"},
}


class TestGoldenTemplates:
    @pytest.mark.parametrize("template_id", sorted(TEMPLATES))
    def test_template_matches_golden_file(self, template_id):
        golden = (GOLDEN_DIR / f"{template_id}.txt").read_text(encoding="utf-8")
        assert TEMPLATES[template_id] + "\n" == golden

    @pytest.mark.parametrize("template_id", sorted(TEMPLATES))
    def test_rendered_system_message_is_template_verbatim(self, template_id):
        messages = render_prompt(template_id, _MINIMAL_SLOTS[template_id])
        assert messages[0].role == "system"
        assert messages[0].content == TEMPLATES[template_id]

    def test_every_template_has_a_golden_file(self):
        assert {p.stem for p in GOLDEN_DIR.glob("*.txt")} == set(TEMPLATES)


class TestRenderPrompt:
    def test_single_hop_agent_prompt_opening(self):
        messages = render_prompt(
            AGENT_ANSWER_SINGLE_HOP, {"question": "who?", "documents": ["doc text"]}
        )
        assert messages[0].content.startswith(
            "You are given a question, and a set of documents that are relevant"
        )
        assert messages[-1].content == "Question: who?\n\nDocuments:\nDocument 1:\ndoc text"

    def test_selector_template_contains_decision_line(self):
        messages = render_prompt(SELECTOR_PAIRWISE, {"question_1": "a", "question_2": "b"})
        assert "Meets both requirements" in messages[0].content
        assert messages[-1].content == "Question 1: a\nQuestion 2: b"

    def test_missing_slot_error_names_the_slot(self):
        with pytest.raises(PromptSlotError, match="records"):
            render_prompt(JUDGER_SPLITTER, {"query": "q"})

    def test_unknown_template_rejected(self):
        with pytest.raises(KeyError):
            render_prompt("nope", {})

    def test_history_becomes_alternating_turns(self):
        messages = render_prompt(
            ROUTER_FINALIZE_MULTI_HOP,
            {
                "question": "q?",
                "responses": ["r"],
                "history": [
                    transcripts.round_of("q1?", "a1.", 1), transcripts.round_of("q2?", "a2.", 2)
                ],
            },
        )
        roles = [m.role for m in messages]
        assert roles == ["system", "user", "assistant", "user", "assistant", "user"]
        assert messages[1].content == "q1?"
        assert messages[2].content == "a1."

    def test_records_block_rendering(self):
        messages = render_prompt(
            JUDGER_SPLITTER, {"query": "why?", "records": [transcripts.round_of("sub?", "ans.", 1)]}
        )
        assert messages[-1].content == (
            "Query: why?\n\nRecords:\nRecord 1:\nQuestion: sub?\nAnswer: ans."
        )

    def test_empty_records_marked(self):
        messages = render_prompt(DEFENDER, {"query": "q", "records": []})
        assert messages[-1].content.endswith("Records:\n(none)")

    def test_model_answers_joined_with_slash(self):
        messages = render_prompt(
            CORRECTNESS_JUDGE_SINGLE_HOP,
            {"question": "q", "model_answers": ["one", "two"], "response": "resp"},
        )
        assert "Model answers: one/two" in messages[-1].content

    def test_injective_in_slots(self):
        seen = {}
        variants = [
            {"question": "q1", "documents": ["a"]},
            {"question": "q1", "documents": ["a", "b"]},
            {"question": "q1", "documents": ["a b"]},
            {"question": "q2", "documents": ["a"]},
            {"question": "q1 docs", "documents": ["a"]},
        ]
        for slots in variants:
            rendered = "\x00".join(
                m.content for m in render_prompt(AGENT_ANSWER_SINGLE_HOP, slots)
            )
            assert rendered not in seen, f"collision between {slots} and {seen[rendered]}"
            seen[rendered] = slots


# Every slot any template reads, each list two items long; a template ignores
# the slots it does not read.
_RICH_SLOTS = {
    "question": "Who founded Alpha?",
    "documents": ["Alpha was founded by Ada.", "Ada was born in London."],
    "history": [
        transcripts.round_of("Who is Ada?", "Ada is a chemist.", 1),
        transcripts.round_of("Where is Alpha?", "Alpha is in Leeds.", 2),
    ],
    "responses": ["Analysis: doc 1.\nAnswer: Ada.", "Analysis: none.\nAnswer: I don't know."],
    "query": "Where was the founder of Alpha born?",
    "records": [
        transcripts.round_of("Who founded Alpha?", "Ada.", 1),
        transcripts.round_of("Where was Ada born?", "London.", 2),
    ],
    "question_1": "Who founded Alpha?",
    "question_2": "Where was Ada born?",
    "model_answers": ["Ada", "Ada Byron"],
    "model_answer": "London",
    "response": "She was born in London.",
}

_HISTORY_TURNS = [
    ("user", "Who is Ada?"),
    ("assistant", "Ada is a chemist."),
    ("user", "Where is Alpha?"),
    ("assistant", "Alpha is in Leeds."),
]
_DOCUMENTS_USER = (
    "user",
    "Question: Who founded Alpha?\n\nDocuments:\n"
    "Document 1:\nAlpha was founded by Ada.\n\nDocument 2:\nAda was born in London.",
)
_RESPONSES_USER = (
    "user",
    "Question: Who founded Alpha?\n\nResponses:\n"
    "Response 1:\nAnalysis: doc 1.\nAnswer: Ada.\n\n"
    "Response 2:\nAnalysis: none.\nAnswer: I don't know.",
)
_RECORDS_USER = (
    "user",
    "Query: Where was the founder of Alpha born?\n\nRecords:\n"
    "Record 1:\nQuestion: Who founded Alpha?\nAnswer: Ada.\n\n"
    "Record 2:\nQuestion: Where was Ada born?\nAnswer: London.",
)

# The (role, content) of every message after the system message.
_RICH_RENDERED = {
    AGENT_ANSWER_SINGLE_HOP: [_DOCUMENTS_USER],
    AGENT_ANSWER_MULTI_HOP: [*_HISTORY_TURNS, _DOCUMENTS_USER],
    ROUTER_FINALIZE_SINGLE_HOP: [_RESPONSES_USER],
    ROUTER_FINALIZE_MULTI_HOP: [*_HISTORY_TURNS, _RESPONSES_USER],
    SPLITTER_FIRST_ROUND: [("user", "Question: Who founded Alpha?")],
    JUDGER_SPLITTER: [_RECORDS_USER],
    SELECTOR_PAIRWISE: [("user", "Question 1: Who founded Alpha?\nQuestion 2: Where was Ada born?")],
    DEFENDER: [_RECORDS_USER],
    POLISH_QUERY: [_RECORDS_USER],
    CORRECTNESS_JUDGE_SINGLE_HOP: [
        (
            "user",
            "Question: Who founded Alpha?\nModel answers: Ada/Ada Byron\n"
            "Response: She was born in London.",
        )
    ],
    "correctness_judge_multi_hop": [
        (
            "user",
            "Question: Who founded Alpha?\nModel answer: London\nResponse: She was born in London.",
        )
    ],
}


class TestRenderedMessages:
    def test_every_template_is_pinned(self):
        assert set(_RICH_RENDERED) == set(TEMPLATES)

    @pytest.mark.parametrize("template_id", sorted(TEMPLATES))
    def test_rich_slots_render_exactly(self, template_id):
        system = (GOLDEN_DIR / f"{template_id}.txt").read_text(encoding="utf-8").removesuffix("\n")
        messages = render_prompt(template_id, _RICH_SLOTS)
        assert [(m.role, m.content) for m in messages] == [
            ("system", system),
            *_RICH_RENDERED[template_id],
        ]
