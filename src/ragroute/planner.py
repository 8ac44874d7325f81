"""Multi-hop planning: decompose, pick a fresh subquestion, route it, judge
progress, and defend a final answer.

Three strategies:

* ``greedy``: the full round loop. Split once up front, then per round pick
  one fresh subquestion, route it, record the round (question and answer), and
  ask the judge whether the original query is now answerable; stop on "yes"
  or after ``max_rounds`` routed rounds, and always finish with the defender.
* ``presplit``: split once, answer every subquestion in order (each refined
  against prior answers), then defend.
* ``one_shot``: route the raw query once; the curated answer is final.
"""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from typing import TYPE_CHECKING

from .agent import MULTI_HOP
from .llm import (
    ParsedJudgment,
    ReplyParseError,
    ask_parsed,
    extract_numbered_questions,
    parse_agent_reply,
    parse_judgment,
    says_yes,
    sections,
)
from .prompts import (
    DEFENDER,
    JUDGER_SPLITTER,
    POLISH_QUERY,
    SELECTOR_PAIRWISE,
    SPLITTER_FIRST_ROUND,
    render_prompt,
)
from .router import RoutedAnswer, route_and_answer

if TYPE_CHECKING:
    from .evalharness import EvalSystem


class PlanError(RuntimeError):
    pass


class PlanStrategy(str, Enum):
    ONE_SHOT = "one_shot"
    PRESPLIT = "presplit"
    GREEDY = "greedy"


ANSWERABLE = "answerable"
EXHAUSTED = "exhausted"

ONE_SHOT_MIN_KEEP = 20
ITERATIVE_MIN_KEEP = 10


@dataclass(frozen=True)
class Round:
    """One routed round: the question asked and the router's answer to it.
    The rounds so far are the history every later prompt reads."""

    round: int
    question: str
    routed: RoutedAnswer

    @property
    def answer(self) -> str:
        return self.routed.final_answer


# perfbench/tests builds prompt records by this name; the prompts read any
# object with ``question`` and ``answer``.
QARecord = namedtuple("QARecord", "question answer round")


@dataclass(frozen=True)
class PlanResult:
    final_answer: str
    status: str
    rounds: tuple[Round, ...]

    @property
    def selected_agent_ids(self) -> tuple[str, ...]:
        """Agents in order of first selection across rounds."""
        return tuple(dict.fromkeys(a for r in self.rounds for a in r.routed.selected_agent_ids))

    @property
    def doc_slots(self) -> dict[str, tuple[str, ...]]:
        """Each selected agent's retrieved doc ids, concatenated in round
        order."""
        return {
            agent_id: tuple(d for r in self.rounds for d in r.routed.doc_slots.get(agent_id, ()))
            for agent_id in self.selected_agent_ids
        }


def split_first_round(query: str, backend) -> list[str]:
    """First-round decomposition; re-asks once before giving up."""
    messages = render_prompt(SPLITTER_FIRST_ROUND, {"question": query})
    questions = ask_parsed(
        backend, messages, lambda text: extract_numbered_questions(text) or None
    )
    if questions is None:
        raise PlanError("splitter produced no numbered subquestions")
    return questions


def judge_and_split(query: str, records: list[Round], backend) -> ParsedJudgment:
    """Judge answerability from the records; on "no" the response carries the
    next round's candidate subquestions. Re-asks once on a bad parse."""
    messages = render_prompt(JUDGER_SPLITTER, {"query": query, "records": records})
    judgment = ask_parsed(backend, messages, parse_judgment)
    if judgment is None:
        raise ReplyParseError("unparseable judgment: no Answerable line")
    return judgment


def _pairwise_ok(candidate: str, asked: str, backend) -> bool:
    messages = render_prompt(
        SELECTOR_PAIRWISE, {"question_1": asked, "question_2": candidate}
    )
    text, _ = backend.chat(messages)
    verdict = sections(text, "meets both requirements").get("meets both requirements", "")
    return says_yes(verdict)


def polish_query(query: str, records: list[Round], backend) -> str | None:
    """Rewrite a query against the records: the text on the last "Polished
    query:" line, or None when it has none."""
    text, _ = backend.chat(render_prompt(POLISH_QUERY, {"query": query, "records": records}))
    polished = sections(text, "polished query").get("polished query", "")
    return polished.partition("\n")[0].strip() or None


def select_subquestion(candidates: list[str], records: list[Round], backend) -> str:
    """Pick the first candidate that is fresh and unambiguous.

    Each candidate is checked pairwise against every question the records
    asked, short-circuiting on the first failure. If nothing passes, the
    first candidate is polished against the records, or returned raw when
    the polish reply is unusable.
    """
    if not candidates:
        raise PlanError("no candidate subquestions")
    for candidate in candidates:
        if all(_pairwise_ok(candidate, r.question, backend) for r in records):
            return candidate
    return polish_query(candidates[0], records, backend) or candidates[0]


def _labeled_answer(text: str) -> str | None:
    reply = parse_agent_reply(text)
    return None if reply.degraded else reply.answer


def defend(query: str, records: list[Round], backend) -> str:
    """Final answer from the records; re-asks once on an unlabeled reply."""
    messages = render_prompt(DEFENDER, {"query": query, "records": records})
    answer = ask_parsed(backend, messages, _labeled_answer)
    if answer is None:
        raise PlanError("defender reply had no Answer section")
    return answer


def run_plan(system: EvalSystem, query: str) -> PlanResult:
    """Answer ``query`` with ``system.strategy``, routing each round through
    ``system`` and stopping a greedy loop after ``system.max_rounds`` rounds."""
    strategy = PlanStrategy(system.strategy)
    if system.max_rounds < 1:
        raise ValueError("max_rounds must be >= 1")
    backend = system.backend
    records: list[Round] = []

    def route(question: str, min_keep: int) -> str:
        """Route one round, record it, and return its curated answer."""
        routed = route_and_answer(system, question, MULTI_HOP, history=records, min_keep=min_keep)
        records.append(Round(len(records) + 1, question, routed))
        return routed.final_answer

    if strategy is PlanStrategy.ONE_SHOT:
        return PlanResult(route(query, ONE_SHOT_MIN_KEEP), ANSWERABLE, tuple(records))

    candidates = split_first_round(query, backend)
    status = EXHAUSTED
    if strategy is PlanStrategy.PRESPLIT:
        for sub in candidates:
            polished = polish_query(sub, records, backend) if records else None
            route(polished or sub, ITERATIVE_MIN_KEEP)
    else:  # greedy round loop
        while len(records) < system.max_rounds:
            route(select_subquestion(candidates, records, backend), ITERATIVE_MIN_KEEP)
            judgment = judge_and_split(query, records, backend)
            if judgment.answerable:
                status = ANSWERABLE
                break
            candidates = extract_numbered_questions(judgment.response)
            if not candidates:
                # Judge said "not answerable" but raised nothing new to ask.
                break
    return PlanResult(defend(query, records, backend), status, tuple(records))
