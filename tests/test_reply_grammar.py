"""One reply grammar: whichever step reads a labelled reply, lines put before
the labelled line that do not start with one of that template's labels and a
colon leave the value read from the labelled line as it was."""

from __future__ import annotations

import re

from hypothesis import example, given
from hypothesis import strategies as st

from ragroute.evalharness import MULTI, SINGLE, judge_correctness
from ragroute.llm import TokenUsage, parse_agent_reply, parse_judgment
from ragroute.planner import _pairwise_ok, polish_query
from ragroute.router import _split_router_sections

# Pieces that put a template's words where a label is not: away from the
# start of a line, without a colon, or inside a longer word.
_PIECES = [
    "Analysis", "Answer", "Answerable", "Correct", "Correctly stated", "Evaluation",
    "Explanation", "Justification", "Meets both requirements", "Polished query",
    "Response", "Question 2", "yes", "no", ":", " ", "\t", ",", ".", "\r",
]
_LINE = st.one_of(
    st.text(st.characters(exclude_characters="\n"), max_size=30),
    st.lists(st.sampled_from(_PIECES), max_size=6).map("".join),
)
_VERDICT = st.sampled_from(["yes", "no"])
_VALUE = _LINE.filter(str.strip)

PAIRWISE_LABELS = ("explanation", "meets both requirements")
CORRECT_LABELS = ("justification", "correct")
JUDGER_LABELS = ("justification", "answerable", "response")
POLISH_LABELS = ("polished query",)
ROUTER_LABELS = ("evaluation", "analysis", "answer")
AGENT_LABELS = ("analysis", "answer")


def lines_without(*labels: str):
    """Lines that do not start (blanks and letter case aside) with a label
    and a colon."""
    head = re.compile(r"[ \t]*(?:%s)[ \t]*:" % "|".join(map(re.escape, labels)), re.I)
    return st.lists(_LINE.filter(lambda line: not head.match(line)), max_size=4)


class Replies:
    """A backend that answers every prompt with one reply."""

    def __init__(self, reply: str):
        self.reply = reply

    def chat(self, messages):
        return self.reply, TokenUsage()


def reply(lines: list[str], *tail: str) -> str:
    return "\n".join([*lines, *tail])


@given(lines_without(*PAIRWISE_LABELS), _VERDICT)
@example(["Explanation: Question 2 meets both requirements, as it asks something new."], "yes")
def test_pairwise_verdict(lines, verdict):
    text = reply(lines, f"Meets both requirements: {verdict}")
    assert _pairwise_ok("fresh?", "asked?", Replies(text)) is (verdict == "yes")


@given(lines_without(*CORRECT_LABELS), _VERDICT, st.sampled_from([SINGLE, MULTI]))
@example(
    ["Justification: the response is wrong.",
     "Correctly stated, yes, it names the city, but the wrong one."],
    "no",
    SINGLE,
)
def test_correctness_verdict(lines, verdict, hop):
    text = reply(lines, f"Correct: {verdict}")
    flag = judge_correctness("q?", ["truth"], "response", Replies(text), hop=hop)
    assert flag is (verdict == "yes")


@given(lines_without(*JUDGER_LABELS), _VERDICT)
def test_answerable_verdict(lines, verdict):
    text = reply(lines, f"Answerable: {verdict}", "Response: 1. Next?")
    assert parse_judgment(text).answerable is (verdict == "yes")


@given(lines_without(*POLISH_LABELS), _VALUE)
def test_polished_query(lines, query):
    text = reply(lines, f"Polished query: {query}")
    assert polish_query("q?", [], Replies(text)) == query.strip()


@given(lines_without(*ROUTER_LABELS), _VALUE)
def test_router_answer(lines, answer):
    assert _split_router_sections(reply(lines, f"Answer: {answer}"))[1] == answer.strip()


@given(lines_without(*AGENT_LABELS), _VALUE)
def test_agent_answer(lines, answer):
    assert parse_agent_reply(reply(lines, f"Answer: {answer}")).answer == answer.strip()
