"""Multi-hop planning: decompose, pick a fresh subquestion, route it, judge
progress, and defend a final answer.

Three strategies:

* ``greedy``: the full round loop. Split once up front, then per round pick
  one fresh subquestion, route it, append the (question, answer) record, and
  ask the judge whether the original query is now answerable; stop on "yes"
  or after ``max_rounds`` routed rounds, and always finish with the defender.
* ``presplit``: split once, answer every subquestion in order (each refined
  against prior answers), then defend.
* ``one_shot``: route the raw query once; the curated answer is final.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import TYPE_CHECKING

from .agent import MULTI_HOP
from .llm import (
    ParsedJudgment,
    ReplyParseError,
    TokenUsage,
    ask_parsed,
    extract_numbered_questions,
    parse_agent_reply,
    parse_judgment,
)
from .prompts import (
    DEFENDER,
    JUDGER_SPLITTER,
    POLISH_QUERY,
    SELECTOR_PAIRWISE,
    SPLITTER_FIRST_ROUND,
    render_prompt,
)
from .router import route_and_answer

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
class QARecord:
    question: str
    answer: str
    round: int


@dataclass(frozen=True)
class SelectedQuestion:
    text: str
    polished: bool = False
    warning: bool = False


@dataclass(frozen=True)
class RoundTrace:
    round: int
    question: str
    answer: str
    selected_agent_ids: tuple[str, ...]
    verdicts: dict[str, str]
    retrieved_doc_slots: dict[str, tuple[str, ...]] = field(default_factory=dict)


@dataclass(frozen=True)
class PlanResult:
    final_answer: str
    records: tuple[QARecord, ...]
    usage: TokenUsage
    status: str
    rounds: tuple[RoundTrace, ...] = ()

    @property
    def selected_agent_ids(self) -> tuple[str, ...]:
        """Agents in order of first selection across rounds."""
        return tuple(dict.fromkeys(a for r in self.rounds for a in r.selected_agent_ids))

    @property
    def doc_slots(self) -> dict[str, tuple[str, ...]]:
        """Each selected agent's retrieved doc ids, concatenated in round
        order."""
        return {
            agent_id: tuple(d for r in self.rounds for d in r.retrieved_doc_slots.get(agent_id, ()))
            for agent_id in self.selected_agent_ids
        }


class UsageMeter:
    def __init__(self) -> None:
        self.total = TokenUsage()

    def chat(self, backend, messages) -> str:
        text, usage = backend.chat(messages)
        self.total = self.total + usage
        return text

    def ask(self, backend, messages, parse):
        """``ask_parsed``, charging every attempt's tokens to this meter."""
        parsed, usage = ask_parsed(backend, messages, parse)
        self.total = self.total + usage
        return parsed


def split_first_round(query: str, backend, meter: UsageMeter | None = None) -> list[str]:
    """First-round decomposition; re-asks once before giving up."""
    meter = meter or UsageMeter()
    messages = render_prompt(SPLITTER_FIRST_ROUND, {"question": query})
    questions = meter.ask(backend, messages, lambda text: extract_numbered_questions(text) or None)
    if questions is None:
        raise PlanError("splitter produced no numbered subquestions")
    return questions


def judge_and_split(
    query: str, records: list[QARecord], backend, meter: UsageMeter | None = None
) -> ParsedJudgment:
    """Judge answerability from the records; on "no" the response carries the
    next round's candidate subquestions. Re-asks once on a bad parse."""
    meter = meter or UsageMeter()
    messages = render_prompt(JUDGER_SPLITTER, {"query": query, "records": records})
    judgment = meter.ask(backend, messages, parse_judgment)
    if judgment is None:
        raise ReplyParseError("unparseable judgment: no Answerable line")
    return judgment


def _pairwise_ok(candidate: str, asked: str, backend, meter: UsageMeter) -> bool:
    messages = render_prompt(
        SELECTOR_PAIRWISE, {"question_1": asked, "question_2": candidate}
    )
    text = meter.chat(backend, messages)
    for line in text.splitlines():
        if "meets both requirements" in line.lower():
            return "yes" in line.lower().split(":", 1)[-1]
    return False


def polish_query(
    query: str, records: list[QARecord], backend, meter: UsageMeter | None = None
) -> str | None:
    """Rewrite a query against the records; None when the reply is unusable."""
    meter = meter or UsageMeter()
    text = meter.chat(backend, render_prompt(POLISH_QUERY, {"query": query, "records": records}))
    for line in text.splitlines():
        if line.lower().lstrip().startswith("polished query"):
            polished = line.split(":", 1)[-1].strip()
            if polished:
                return polished
    return None


def select_subquestion(
    candidates: list[str],
    asked: list[str],
    records: list[QARecord],
    backend,
    meter: UsageMeter | None = None,
) -> SelectedQuestion:
    """Pick the first candidate that is fresh and unambiguous.

    Each candidate is checked pairwise against every previously asked
    question, short-circuiting on the first failure. If nothing passes, the
    first candidate is polished against the records; if even that parse
    fails, it is returned raw with a warning flag.
    """
    if not candidates:
        raise PlanError("no candidate subquestions")
    meter = meter or UsageMeter()
    for candidate in candidates:
        if all(_pairwise_ok(candidate, prior, backend, meter) for prior in asked):
            return SelectedQuestion(candidate)
    polished = polish_query(candidates[0], records, backend, meter)
    if polished is not None:
        return SelectedQuestion(polished, polished=True)
    return SelectedQuestion(candidates[0], warning=True)


def _labeled_answer(text: str) -> str | None:
    reply = parse_agent_reply(text)
    return None if reply.degraded else reply.answer


def defend(
    query: str, records: list[QARecord], backend, meter: UsageMeter | None = None
) -> str:
    """Final answer from the records; re-asks once on an unlabeled reply."""
    meter = meter or UsageMeter()
    messages = render_prompt(DEFENDER, {"query": query, "records": records})
    answer = meter.ask(backend, messages, _labeled_answer)
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
    meter = UsageMeter()
    records: list[QARecord] = []
    rounds: list[RoundTrace] = []

    def route(question: str, min_keep: int) -> str:
        """Route one round, charge it to the meter, record it, and return
        its curated answer."""
        routed = route_and_answer(system, question, MULTI_HOP, history=records, min_keep=min_keep)
        meter.total = meter.total + routed.usage
        number = len(rounds) + 1
        records.append(QARecord(question, routed.final_answer, number))
        rounds.append(
            RoundTrace(
                number, question, routed.final_answer, routed.selected_agent_ids,
                routed.verdicts, routed.doc_slots,
            )
        )
        return routed.final_answer

    if strategy is PlanStrategy.ONE_SHOT:
        final = route(query, ONE_SHOT_MIN_KEEP)
        return PlanResult(final, (), meter.total, ANSWERABLE, tuple(rounds))

    candidates = split_first_round(query, backend, meter)
    status = EXHAUSTED
    if strategy is PlanStrategy.PRESPLIT:
        for sub in candidates:
            polished = polish_query(sub, records, backend, meter) if records else None
            route(polished or sub, ITERATIVE_MIN_KEEP)
    else:  # greedy round loop
        while len(rounds) < system.max_rounds:
            asked = [r.question for r in records]
            selected = select_subquestion(candidates, asked, records, backend, meter)
            route(selected.text, ITERATIVE_MIN_KEEP)
            judgment = judge_and_split(query, records, backend, meter)
            if judgment.answerable:
                status = ANSWERABLE
                break
            candidates = extract_numbered_questions(judgment.response)
            if not candidates:
                # Judge said "not answerable" but raised nothing new to ask.
                break
    final = defend(query, records, backend, meter)
    return PlanResult(final, tuple(records), meter.total, status, tuple(rounds))
