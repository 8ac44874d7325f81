"""Dataset runner and metrics.

Metrics:

* lexical match: normalized token-boundary containment of any groundtruth
  in the response;
* answerable rate: fraction of items whose target document (agent) shows up
  among retrieved documents (selected agents);
* useful rate: fraction of retrieved document slots (selected agents) that
  are targets, duplicates counted, averaged over items;
* cost: exact tokens per query summed from the backend calls;
* correctness judge: optional generative yes/no check.
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .agent import Agent
from .corpus import tokenize
from .llm import ChatMessage, TokenUsage, ask_parsed
from .planner import PlanStrategy, run_plan
from .prompts import (
    CORRECTNESS_JUDGE_MULTI_HOP,
    CORRECTNESS_JUDGE_SINGLE_HOP,
    render_prompt,
)
from .router import RouterRegistry, route_and_answer, route_raw_knowledge

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


def load_eval_items(path: str | Path) -> list[EvalItem]:
    items = []
    with Path(path).open("r", encoding="utf-8") as fh:
        for line in fh:
            line = line.strip()
            if not line:
                continue
            rec = json.loads(line)
            items.append(
                EvalItem(
                    question=rec["question"],
                    answers=tuple(rec["answers"]),
                    target_doc_ids=frozenset(rec.get("target_doc_ids", [])),
                    target_agent_ids=frozenset(rec.get("target_agent_ids", [])),
                    hop=rec.get("hop", SINGLE),
                )
            )
    return items


def normalize_text(text: str) -> str:
    """Lowercase, strip punctuation tokens, collapse whitespace."""
    kept = [t.lower() for t in tokenize(text) if re.search(r"\w", t)]
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


def doc_answerable(outcome: ItemOutcome) -> bool:
    return bool(set(outcome.all_doc_slots) & outcome.item.target_doc_ids)


def agent_answerable(outcome: ItemOutcome) -> bool:
    return bool(set(outcome.selected_agent_ids) & outcome.item.target_agent_ids)


def doc_useful(outcome: ItemOutcome) -> float | None:
    slots = outcome.all_doc_slots
    if not slots:
        return None
    return sum(1 for d in slots if d in outcome.item.target_doc_ids) / len(slots)


def agent_useful(outcome: ItemOutcome) -> float | None:
    if not outcome.selected_agent_ids:
        return None
    hits = sum(1 for a in outcome.selected_agent_ids if a in outcome.item.target_agent_ids)
    return hits / len(outcome.selected_agent_ids)


def answerable_rate(outcomes: list[ItemOutcome]) -> dict[str, float]:
    """Document- and agent-level answerable percentages over items with targets."""
    doc_items = [o for o in outcomes if o.item.target_doc_ids]
    agent_items = [o for o in outcomes if o.item.target_agent_ids]
    return {
        "doc": 100.0 * _mean([1.0 if doc_answerable(o) else 0.0 for o in doc_items]),
        "agent": 100.0 * _mean([1.0 if agent_answerable(o) else 0.0 for o in agent_items]),
    }


def useful_rate(outcomes: list[ItemOutcome]) -> dict[str, float]:
    """Document-slot and selected-agent useful percentages, averaged per item."""
    doc_vals = [v for o in outcomes if o.item.target_doc_ids for v in [doc_useful(o)] if v is not None]
    agent_vals = [
        v for o in outcomes if o.item.target_agent_ids for v in [agent_useful(o)] if v is not None
    ]
    return {"doc": 100.0 * _mean(doc_vals), "agent": 100.0 * _mean(agent_vals)}


def _mean(values: list[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def _correct_verdict(text: str) -> bool | None:
    for line in text.splitlines():
        if line.lower().lstrip().startswith("correct"):
            return re.search(r"\byes\b", line.split(":", 1)[-1], re.I) is not None
    return None


def judge_correctness(
    question: str, groundtruths: Iterable[str], response: str, backend, hop: str = SINGLE
) -> tuple[bool | None, TokenUsage]:
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
        cols = [
            ("Mode", 14),
            ("Tokens/Query", 13),
            ("Lexical (%)", 12),
            ("Judge (%)", 10),
            ("Ans.Doc (%)", 12),
            ("Ans.Agent (%)", 14),
            ("Useful Doc (%)", 15),
            ("Useful Agent (%)", 17),
        ]
        header = " ".join(name.ljust(width) for name, width in cols)
        lines = [header, "-" * len(header)]
        for mode, agg in self.mode_reports.items():
            row = [
                mode.ljust(14),
                f"{agg['tokens_per_query']:.2f}".ljust(13),
                f"{agg['lexical_pct']:.2f}".ljust(12),
                (f"{agg['judge_pct']:.2f}" if agg.get("judge_pct") is not None else "-").ljust(10),
                f"{agg['answerable_doc_pct']:.2f}".ljust(12),
                f"{agg['answerable_agent_pct']:.2f}".ljust(14),
                f"{agg['useful_doc_pct']:.2f}".ljust(15),
                f"{agg['useful_agent_pct']:.2f}".ljust(17),
            ]
            lines.append(" ".join(row))
        return "\n".join(lines)


def aggregate(outcomes: list[ItemOutcome]) -> dict:
    judged = [o for o in outcomes if o.judged_correct is not None]
    ans = answerable_rate(outcomes)
    useful = useful_rate(outcomes)
    return {
        "n_items": len(outcomes),
        "n_errors": sum(1 for o in outcomes if o.error),
        "tokens_per_query": _mean([float(o.usage.total) for o in outcomes]),
        "lexical_pct": 100.0 * _mean([1.0 if o.lexical else 0.0 for o in outcomes]),
        "judge_pct": (100.0 * _mean([1.0 if o.judged_correct else 0.0 for o in judged]))
        if judged
        else None,
        "n_unjudged": sum(1 for o in outcomes if o.judged_correct is None),
        "answerable_doc_pct": ans["doc"],
        "answerable_agent_pct": ans["agent"],
        "useful_doc_pct": useful["doc"],
        "useful_agent_pct": useful["agent"],
    }


def _run_raw_model(item: EvalItem, system: EvalSystem) -> ItemOutcome:
    text, usage = system.backend.chat([ChatMessage("user", item.question)])
    return ItemOutcome(item=item, final_answer=text.strip(), usage=usage)


def answer(system: EvalSystem, question: str, hop: str = SINGLE):
    """Answer one question as ``system`` is set up: the raw-knowledge baseline
    when its agent mode says so, else a multi-hop plan for a ``MULTI``
    question, else one routed round (over every registered agent in
    ``AGENTS_ALL`` mode). Returns the ``RoutedAnswer`` or ``PlanResult``."""
    parts = (system.registry, system.agents, system.backend, system.embedder)
    if system.agent_mode == AGENTS_RAW_KNOWLEDGE:
        return route_raw_knowledge(question, *parts, max_agents=system.max_agents)
    if hop == MULTI:
        return run_plan(
            question,
            system.strategy,
            *parts,
            max_rounds=system.max_rounds,
            max_agents=system.max_agents,
            parallelism=system.parallelism,
        )
    return route_and_answer(
        question,
        *parts,
        max_agents=system.max_agents,
        parallelism=system.parallelism,
        selected_override=system.registry.agent_ids if system.agent_mode == AGENTS_ALL else None,
    )


def _run_with_rag(item: EvalItem, system: EvalSystem) -> ItemOutcome:
    result = answer(system, item.question, item.hop)
    return ItemOutcome(
        item=item,
        final_answer=result.final_answer,
        selected_agent_ids=result.selected_agent_ids,
        retrieved_doc_slots=result.doc_slots(system.agents),
        usage=result.usage,
    )


def run_eval(
    items: list[EvalItem],
    system: EvalSystem,
    modes: Iterable[str] = (WITH_RAG,),
    judge_backend=None,
) -> EvalReport:
    """Run every item through each requested pipeline mode.

    Per-item errors are recorded on the outcome and the run continues;
    aggregates always equal recomputation from the per-item outcomes.
    """
    report = EvalReport()
    for mode in modes:
        if mode not in (RAW_MODEL, WITH_RAG):
            raise ValueError(f"unknown eval mode {mode!r}")
        outcomes: list[ItemOutcome] = []
        for item in items:
            try:
                if mode == RAW_MODEL:
                    outcome = _run_raw_model(item, system)
                else:
                    outcome = _run_with_rag(item, system)
            except Exception as exc:
                outcome = ItemOutcome(item=item, error=str(exc))
            if outcome.error is None:
                outcome.lexical = lexical_match(outcome.final_answer, item.answers)
                if judge_backend is not None:
                    verdict, judge_usage = judge_correctness(
                        item.question, item.answers, outcome.final_answer, judge_backend, item.hop
                    )
                    outcome.judged_correct = verdict
                    outcome.usage = outcome.usage + judge_usage
            outcomes.append(outcome)
        report.outcomes[mode] = outcomes
        report.mode_reports[mode] = aggregate(outcomes)
    return report
