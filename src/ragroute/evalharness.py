"""Dataset runner and metrics.

Metrics:

* lexical match: normalized token-boundary containment of any groundtruth
  in the response;
* answerable rate: fraction of items whose target document (agent) shows up
  among retrieved documents (selected agents);
* useful rate: fraction of retrieved document slots (selected agents) that
  are targets, duplicates counted, averaged over items;
* cost: exact tokens per query, the usage that the item's own meter
  summed from every chat call its answer made, a failed item's included;
* correctness judge: optional generative yes/no check, whose tokens are
  metered apart and reported beside the cost, not in it.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Iterable

from .agent import Agent
from .corpus import read_jsonl, require_utf8, tokenize
from .llm import ChatMessage, Metered, TokenUsage, ask_parsed, says_yes, sections
from .planner import PlanStrategy, run_plan
from .prompts import (
    CORRECTNESS_JUDGE_MULTI_HOP,
    CORRECTNESS_JUDGE_SINGLE_HOP,
    render_prompt,
)
from .router import RouterError, RouterRegistry, route_and_answer, route_raw_knowledge

SINGLE = "single"
MULTI = "multi"

RAW_MODEL = "raw_model"
WITH_RAG = "with_rag"

AGENTS_SELECTED = "selected"
AGENTS_ALL = "all"
AGENTS_RAW_KNOWLEDGE = "raw_knowledge"

@dataclass(frozen=True)
class EvalItem:
    question: str
    answers: tuple[str, ...]
    target_doc_ids: frozenset[str] = frozenset()
    target_agent_ids: frozenset[str] = frozenset()
    hop: str = SINGLE

    def __post_init__(self) -> None:
        if not self.answers:
            raise ValueError("eval item needs at least one groundtruth answer")
        if self.hop not in (SINGLE, MULTI):
            raise ValueError(f"bad hop type {self.hop!r}")


def _strings(key: str, value) -> list[str]:
    """``value``, or a ValueError naming ``key`` unless it is a list of
    strings."""
    if type(value) is not list or not all(isinstance(v, str) for v in value):
        raise ValueError(f"{key} must be a list of strings, not {value!r:.60}")
    for v in value:
        require_utf8(key, v)
    return value


def _eval_item(rec) -> EvalItem:
    """The item of dataset record ``rec``; ValueError gives the reason it is
    refused."""
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    question = rec.get("question")
    if not isinstance(question, str) or not tokenize(question):
        raise ValueError(f"question must be a string with a token, not {question!r:.60}")
    require_utf8("question", question)
    return EvalItem(
        question=question,
        answers=tuple(_strings("answers", rec.get("answers"))),
        target_doc_ids=frozenset(_strings("target_doc_ids", rec.get("target_doc_ids", []))),
        target_agent_ids=frozenset(_strings("target_agent_ids", rec.get("target_agent_ids", []))),
        hop=rec.get("hop", SINGLE),
    )


def load_eval_items(path: str | Path) -> list[EvalItem]:
    """One item per non-blank line; LineError names the file and a bad line."""
    return read_jsonl(path, _eval_item)


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation tokens, collapse whitespace."""
    # A token is a run of word characters (str.isalnum or "_") or one other
    # character, so its first character tells which.
    kept = [t.lower() for t in tokenize(text) if t[0].isalnum() or t[0] == "_"]
    return " ".join(kept)


def lexical_match(response: str, groundtruths: Iterable[str]) -> bool:
    """True iff any normalized groundtruth occurs in the normalized response
    on token boundaries."""
    padded = f" {normalize_text(response)} "
    for gt in groundtruths:
        norm = normalize_text(gt)
        if norm and f" {norm} " in padded:
            return True
    return False


@dataclass
class ItemOutcome:
    item: EvalItem
    final_answer: str = ""
    selected_agent_ids: tuple[str, ...] = ()
    retrieved_doc_slots: dict[str, tuple[str, ...]] = field(default_factory=dict)
    usage: TokenUsage = field(default_factory=TokenUsage)
    judge_usage: TokenUsage = field(default_factory=TokenUsage)
    lexical: bool = False
    judged_correct: bool | None = None
    error: str | None = None

    @property
    def all_doc_slots(self) -> list[str]:
        slots: list[str] = []
        for agent_id in self.selected_agent_ids:
            slots.extend(self.retrieved_doc_slots.get(agent_id, ()))
        return slots

    def to_json(self) -> dict:
        return {
            "question": self.item.question,
            "final_answer": self.final_answer,
            "selected_agent_ids": list(self.selected_agent_ids),
            "retrieved_doc_slots": {k: list(v) for k, v in self.retrieved_doc_slots.items()},
            "prompt_tokens": self.usage.prompt_tokens,
            "completion_tokens": self.usage.completion_tokens,
            "judge_tokens": self.judge_usage.total,
            "lexical": self.lexical,
            "judged_correct": self.judged_correct,
            "error": self.error,
            "target_doc_ids": sorted(self.item.target_doc_ids),
            "target_agent_ids": sorted(self.item.target_agent_ids),
            "matched_doc_slots": sum(
                1 for d in self.all_doc_slots if d in self.item.target_doc_ids
            ),
            "matched_distinct_docs": len(set(self.all_doc_slots) & self.item.target_doc_ids),
        }


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _pct(values: list[float]) -> float:
    """100 times the mean of ``values`` (a bool counts 1 or 0); 0.0 for none."""
    return 100.0 * _mean(values)


def _share(ids, targets: frozenset[str]) -> float:
    """The fraction of ``ids`` (duplicates counted) that are in ``targets``."""
    return sum(1 for i in ids if i in targets) / len(ids)


def _correct_verdict(text: str) -> bool | None:
    verdict = sections(text, "correct").get("correct")
    return None if verdict is None else says_yes(verdict)


def judge_correctness(
    question: str, groundtruths: Iterable[str], response: str, backend, hop: str = SINGLE
) -> bool | None:
    """Generative yes/no correctness check; None when unparseable twice."""
    gts = list(groundtruths)
    if hop == MULTI:
        messages = render_prompt(
            CORRECTNESS_JUDGE_MULTI_HOP,
            {"question": question, "model_answer": "/".join(gts), "response": response},
        )
    else:
        messages = render_prompt(
            CORRECTNESS_JUDGE_SINGLE_HOP,
            {"question": question, "model_answers": gts, "response": response},
        )
    return ask_parsed(backend, messages, _correct_verdict)


@dataclass
class EvalSystem:
    """Everything a pipeline run needs, bundled."""

    registry: RouterRegistry
    agents: dict[str, Agent]
    backend: object
    embedder: object
    max_agents: int = 5
    strategy: PlanStrategy | str = PlanStrategy.GREEDY
    max_rounds: int = 5
    agent_mode: str = AGENTS_SELECTED
    parallelism: int = 1


# (header, width, aggregate key) of each table column after "Mode"
_COLUMNS = (
    ("Tokens/Query", 13, "tokens_per_query"),
    ("Lexical (%)", 12, "lexical_pct"),
    ("Judge (%)", 10, "judge_pct"),
    ("Ans.Doc (%)", 12, "answerable_doc_pct"),
    ("Ans.Agent (%)", 14, "answerable_agent_pct"),
    ("Useful Doc (%)", 15, "useful_doc_pct"),
    ("Useful Agent (%)", 17, "useful_agent_pct"),
)


@dataclass
class EvalReport:
    mode_reports: dict[str, dict] = field(default_factory=dict)
    outcomes: dict[str, list[ItemOutcome]] = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "modes": self.mode_reports,
            "items": {mode: [o.to_json() for o in outs] for mode, outs in self.outcomes.items()},
        }

    def table(self) -> str:
        widths = (14, *(width for _, width, _ in _COLUMNS))
        rows = [("Mode", *(header for header, _, _ in _COLUMNS))]
        for mode, agg in self.mode_reports.items():
            cells = ("-" if agg[key] is None else f"{agg[key]:.2f}" for _, _, key in _COLUMNS)
            rows.append((mode, *cells))
        lines = [" ".join(cell.ljust(width) for cell, width in zip(row, widths)) for row in rows]
        lines.insert(1, "-" * len(lines[0]))
        return "\n".join(lines)


def aggregate(outcomes: list[ItemOutcome]) -> dict:
    """One mode's figures over ``outcomes``, as the module docstring defines
    them: each answerable and useful rate runs over the items with targets of
    its kind, and a useful rate skips an item that retrieved nothing."""
    judged = [o.judged_correct for o in outcomes if o.judged_correct is not None]
    docs = [(o.all_doc_slots, o.item.target_doc_ids) for o in outcomes if o.item.target_doc_ids]
    agents = [
        (o.selected_agent_ids, o.item.target_agent_ids) for o in outcomes if o.item.target_agent_ids
    ]
    return {
        "n_items": len(outcomes),
        "n_errors": sum(1 for o in outcomes if o.error is not None),
        "tokens_per_query": _mean([float(o.usage.total) for o in outcomes]),
        "judge_tokens_per_query": _mean([float(o.judge_usage.total) for o in outcomes]),
        "lexical_pct": _pct([o.lexical for o in outcomes]),
        "judge_pct": _pct(judged) if judged else None,
        "n_unjudged": len(outcomes) - len(judged),
        "answerable_doc_pct": _pct([not targets.isdisjoint(ids) for ids, targets in docs]),
        "answerable_agent_pct": _pct([not targets.isdisjoint(ids) for ids, targets in agents]),
        "useful_doc_pct": _pct([_share(ids, targets) for ids, targets in docs if ids]),
        "useful_agent_pct": _pct([_share(ids, targets) for ids, targets in agents if ids]),
    }


def answer(system: EvalSystem, question: str, hop: str = SINGLE):
    """Answer one question as ``system`` is set up: the raw-knowledge baseline
    when its agent mode says so, else a multi-hop plan for a ``MULTI``
    question, else one routed round (over every registered agent in
    ``AGENTS_ALL`` mode). Returns the ``RoutedAnswer`` or ``PlanResult``;
    RouterError, before anything is embedded or asked, when no agent is
    registered."""
    if not system.registry.entries:
        raise RouterError("no agents registered")
    if system.agent_mode == AGENTS_RAW_KNOWLEDGE:
        return route_raw_knowledge(system, question)
    if hop == MULTI:
        return run_plan(system, question)
    override = system.registry.agent_ids if system.agent_mode == AGENTS_ALL else None
    return route_and_answer(system, question, selected_override=override)


def _answered(item: EvalItem, system: EvalSystem, mode: str) -> ItemOutcome:
    """``item`` answered in ``mode``: the bare model, or the pipeline."""
    if mode == RAW_MODEL:
        text, _ = system.backend.chat([ChatMessage("user", item.question)])
        return ItemOutcome(item=item, final_answer=text.strip())
    result = answer(system, item.question, item.hop)
    return ItemOutcome(item, result.final_answer, result.selected_agent_ids, result.doc_slots)


def run_eval(
    items: list[EvalItem],
    system: EvalSystem,
    modes: Iterable[str] = (WITH_RAG,),
    judge_backend=None,
) -> EvalReport:
    """Run every item through each requested pipeline mode.

    Each item is answered through one ``Metered`` backend and judged
    through another, whose totals are its usage and judge usage. An item
    whose answering, matching or judging raises is recorded as an outcome
    holding its error, never empty, and what was spent before it, and the
    run continues; aggregates always equal recomputation from the outcomes.
    """
    report = EvalReport()
    for mode in modes:
        if mode not in (RAW_MODEL, WITH_RAG):
            raise ValueError(f"unknown eval mode {mode!r}")
        outcomes: list[ItemOutcome] = []
        for item in items:
            meter, judge = Metered(system.backend), Metered(judge_backend)
            try:
                outcome = _answered(item, replace(system, backend=meter), mode)
                outcome.lexical = lexical_match(outcome.final_answer, item.answers)
                if judge_backend is not None:
                    outcome.judged_correct = judge_correctness(
                        item.question, item.answers, outcome.final_answer, judge, item.hop
                    )
            except Exception as exc:
                outcome = ItemOutcome(item=item, error=str(exc) or type(exc).__name__)
            outcome.usage, outcome.judge_usage = meter.total, judge.total
            outcomes.append(outcome)
        report.outcomes[mode] = outcomes
        report.mode_reports[mode] = aggregate(outcomes)
    return report
