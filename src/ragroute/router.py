"""Centroid registry, top-k agent selection, response evaluation, curation.

The router only ever sees cluster centroids, never chunk text. Selection
scores every registered centroid by cosine similarity to the query and keeps
the ``max_agents`` agents with the best centroid scores.
"""

from __future__ import annotations

import json
import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Iterable

import numpy as np

from .agent import MULTI_HOP, SINGLE_HOP, Agent, AgentAnswer, AgentError
from .boundary import CentroidEntry
from .embedding import load_vectors, read_json, save_vectors
from .llm import ParsedAgentReply, TokenUsage, _label_matches, ask_parsed, parse_agent_reply
from .prompts import (
    AGENT_ANSWER_SINGLE_HOP,
    ROUTER_FINALIZE_MULTI_HOP,
    ROUTER_FINALIZE_SINGLE_HOP,
    render_prompt,
)
# rerank is unused here; perfbench/spans.py traces it by name on this module.
from .retrieval import rerank, unit_query, unit_scores

GOOD_RELIABLE = "good_reliable"
CONJECTURE = "conjecture"
UNHELPFUL = "unhelpful"


class RouterError(RuntimeError):
    pass


class RouterRegistry:
    """Registry of exported centroids; re-registering an agent replaces all
    of its previous entries (cluster counts may shrink between builds)."""

    def __init__(self) -> None:
        self.entries: list[CentroidEntry] = []
        self._index_entries()

    def _index_entries(self) -> None:
        """Cache what selection needs: one float64 unit row per entry and,
        per row, the position of its agent in ``agent_ids``."""
        self._agent_ids = sorted({e.agent_id for e in self.entries})
        position = {agent_id: i for i, agent_id in enumerate(self._agent_ids)}
        self._agent_of_row = np.array([position[e.agent_id] for e in self.entries], dtype=np.intp)
        if not self.entries:
            self._unit = np.zeros((0, 0))
            return
        matrix = np.stack([e.centroid for e in self.entries]).astype(np.float64)
        self._unit = matrix / np.linalg.norm(matrix, axis=1)[:, None]

    @property
    def agent_ids(self) -> list[str]:
        return list(self._agent_ids)

    @property
    def agent_count(self) -> int:
        return len(self._agent_ids)

    def register(self, entries: Iterable[CentroidEntry]) -> None:
        new = list(entries)
        if not new:
            return
        dims = {e.centroid.shape[0] for e in new} | {e.centroid.shape[0] for e in self.entries}
        if len(dims) > 1:
            raise RouterError(f"centroid dimension mismatch: {sorted(dims)}")
        incoming_agents = {e.agent_id for e in new}
        self.entries = [e for e in self.entries if e.agent_id not in incoming_agents]
        self.entries.extend(new)
        self._index_entries()

    def save(self, json_path: str | Path, vectors_base: str | Path) -> None:
        order = sorted(self.entries, key=lambda e: (e.agent_id, e.cluster_id))
        matrix = np.stack([e.centroid for e in order]) if order else np.zeros((0, 0), np.float32)
        ids = [f"{e.agent_id}#{e.cluster_id}" for e in order]
        save_vectors(vectors_base, matrix, ids)
        payload = {
            "entries": [
                {"agent_id": e.agent_id, "cluster_id": e.cluster_id, "row": i}
                for i, e in enumerate(order)
            ]
        }
        Path(json_path).write_text(
            json.dumps(payload, sort_keys=True, ensure_ascii=False), encoding="utf-8"
        )

    def unregister(self, agent_id: str) -> None:
        """Drop every entry of ``agent_id``, e.g. when its chunk set empties."""
        self.entries = [e for e in self.entries if e.agent_id != agent_id]
        self._index_entries()

    @classmethod
    def load(cls, json_path: str | Path, vectors_base: str | Path) -> "RouterRegistry":
        matrix, _ = load_vectors(vectors_base)

        def parse(payload) -> list[CentroidEntry]:
            rows = [rec["row"] for rec in payload["entries"]]
            for row in rows:
                if type(row) is not int or not 0 <= row < len(matrix):
                    raise ValueError(f"row {row!r} is not an integer in [0, {len(matrix)})")
            if len(set(rows)) < len(rows):
                raise ValueError("two entries share one centroid row")
            return [
                CentroidEntry(
                    agent_id=rec["agent_id"],
                    cluster_id=int(rec["cluster_id"]),
                    centroid=matrix[row],
                )
                for rec, row in zip(payload["entries"], rows)
            ]

        entries = read_json(json_path, parse)
        registry = cls()
        registry.register(entries)
        return registry


def select_agents(registry: RouterRegistry, query_vec: np.ndarray, max_agents: int) -> list[str]:
    """Distinct agents by descending best-centroid score, capped at max_agents.

    Every centroid is scored against the query in one product over the
    registry's cached unit-centroid matrix. An agent's score is its best
    centroid's; agents come out by (-score, agent_id), the order in which a
    scan of centroids sorted by (-score, agent_id, cluster_id) first meets
    each agent.
    """
    if not registry.entries:
        raise RouterError("no agents registered")
    if max_agents < 1:
        raise ValueError("max_agents must be >= 1")
    sims = unit_scores(registry._unit, unit_query(query_vec))
    best = np.full(len(registry._agent_ids), -np.inf)
    np.maximum.at(best, registry._agent_of_row, sims)
    order = np.argsort(-best, kind="stable")[:max_agents]
    return [registry._agent_ids[i] for i in order]


@dataclass(frozen=True)
class RoutedAnswer:
    final_answer: str
    selected_agent_ids: tuple[str, ...]
    verdicts: dict[str, str]
    usage: TokenUsage
    agent_answers: tuple[AgentAnswer, ...] = ()

    def doc_slots(self, agents: dict[str, Agent]) -> dict[str, tuple[str, ...]]:
        """Each answering agent's retrieved doc ids, in hit order."""
        return {
            a.agent_id: tuple(agents[a.agent_id].doc_ids_for(a.hits)) for a in self.agent_answers
        }


_BULLET_INDEX_RE = re.compile(r"respon\w*\s+((?:\d+[\s,]*(?:and|&)?[\s,]*)+)", re.I)
_NEGATIVE_MARKERS = ("unreliable", "not reliable", "unhelpful", "incorrect", "invalid", "flawed")


def _verdicts_from_evaluation(evaluation: str, count: int) -> list[str]:
    """Map evaluation bullets onto one verdict per response position.

    Keyword rule: a negative marker wins, then "conjectur", then "reliable";
    positions never mentioned stay unhelpful.
    """
    verdicts = [UNHELPFUL] * count
    for line in evaluation.splitlines():
        m = _BULLET_INDEX_RE.search(line)
        if not m:
            continue
        indices = [int(tok) for tok in re.findall(r"\d+", m.group(1))]
        lowered = line.lower()
        if any(marker in lowered for marker in _NEGATIVE_MARKERS):
            verdict = UNHELPFUL
        elif "conjectur" in lowered:
            verdict = CONJECTURE
        elif "reliable" in lowered:
            verdict = GOOD_RELIABLE
        else:
            verdict = UNHELPFUL
        for idx in indices:
            if 1 <= idx <= count:
                verdicts[idx - 1] = verdict
    return verdicts


def _split_router_sections(text: str) -> tuple[str, str] | None:
    """(evaluation, answer) sections; None when there is no Answer."""
    labels = {name: _label_matches(name, text) for name in ("evaluation", "analysis", "answer")}
    if not labels["answer"]:
        return None
    answer_m = labels["answer"][-1]
    analysis_candidates = [m for m in labels["analysis"] if m.start() < answer_m.start()]
    analysis_m = analysis_candidates[-1] if analysis_candidates else None
    eval_end = analysis_m.start() if analysis_m else answer_m.start()
    eval_candidates = [m for m in labels["evaluation"] if m.start() < eval_end]
    eval_m = eval_candidates[0] if eval_candidates else None
    evaluation = text[eval_m.end() : eval_end].strip() if eval_m else ""
    return evaluation, text[answer_m.end() :].strip()


def evaluate_and_curate(
    question: str,
    answers: list[AgentAnswer],
    backend,
    mode: str = SINGLE_HOP,
    history: Iterable = (),
) -> RoutedAnswer:
    """Ask the curation prompt over all agent responses and parse verdicts."""
    if not answers:
        raise RouterError("no agent answers to curate")
    template = ROUTER_FINALIZE_MULTI_HOP if mode == MULTI_HOP else ROUTER_FINALIZE_SINGLE_HOP
    slots = {
        "question": question,
        "responses": [a.raw_text for a in answers],
        "history": list(history),
    }
    messages = render_prompt(template, slots)
    sections, usage = ask_parsed(backend, messages, _split_router_sections)
    if sections is None:
        raise RouterError("unparseable router output: no Answer section")
    evaluation, answer = sections
    by_position = _verdicts_from_evaluation(evaluation, len(answers))
    verdicts = {a.agent_id: v for a, v in zip(answers, by_position)}
    return RoutedAnswer(
        final_answer=answer,
        selected_agent_ids=tuple(a.agent_id for a in answers),
        verdicts=verdicts,
        usage=usage,
        agent_answers=tuple(answers),
    )


def _fan_out(
    question: str,
    query_vec: np.ndarray,
    agents: list[Agent],
    mode: str,
    history: Iterable,
    min_keep: int | None,
    parallelism: int,
) -> list[AgentAnswer | AgentError]:
    def ask(agent: Agent):
        try:
            return agent.answer_question(
                question, mode=mode, history=history, min_keep=min_keep, query_vec=query_vec
            )
        except AgentError as exc:
            return exc

    if parallelism > 1 and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            return list(pool.map(ask, agents))
    return [ask(agent) for agent in agents]


def route_and_answer(
    question: str,
    registry: RouterRegistry,
    agents: dict[str, Agent],
    backend,
    embedder,
    max_agents: int = 5,
    mode: str = SINGLE_HOP,
    history: Iterable = (),
    min_keep: int | None = None,
    parallelism: int = 1,
    selected_override: list[str] | None = None,
) -> RoutedAnswer:
    """Select agents, fan the question out, and curate one final answer.

    The question is embedded once; that vector selects the agents and every
    selected agent retrieves and reranks with it. Agents that hard-fail are
    recorded as unhelpful with an error note; the query proceeds with the
    answers that did arrive. ``selected_override`` bypasses centroid
    selection (used by the all-agents baseline).
    """
    query_vec = embedder.embed_batch([question])[0]
    if selected_override is not None:
        selected = list(selected_override)
    else:
        selected = select_agents(registry, query_vec, max_agents)
    history = list(history)
    results = _fan_out(
        question, query_vec, [agents[a] for a in selected], mode, history, min_keep, parallelism
    )
    answers = [r for r in results if isinstance(r, AgentAnswer)]
    failed = {r.agent_id: str(r) for r in results if isinstance(r, AgentError)}
    if not answers:
        raise RouterError(f"all selected agents failed: {failed}")
    routed = evaluate_and_curate(question, answers, backend, mode=mode, history=history)
    return replace(
        routed,
        selected_agent_ids=tuple(selected),
        verdicts={**routed.verdicts, **dict.fromkeys(failed, UNHELPFUL)},
        usage=sum((a.usage for a in answers), routed.usage),
    )


def route_raw_knowledge(
    question: str,
    registry: RouterRegistry,
    agents: dict[str, Agent],
    backend,
    embedder,
    max_agents: int = 5,
) -> RoutedAnswer:
    """Baseline variant: selected agents only select chunks; those are
    forwarded to one single-hop generation call instead of per-agent answers.
    The question is embedded once, for selection, retrieval and rerank."""
    query_vec = embedder.embed_batch([question])[0]
    selected = select_agents(registry, query_vec, max_agents)
    blocks: list[str] = []
    answers: list[AgentAnswer] = []
    for agent_id in selected:
        agent = agents[agent_id]
        kept = agent.select_chunks(question, query_vec)
        blocks.extend(agent.document_blocks(kept))
        answers.append(AgentAnswer(agent_id, ParsedAgentReply("", "", False), "", tuple(kept), TokenUsage()))
    text, usage = backend.chat(
        render_prompt(
            AGENT_ANSWER_SINGLE_HOP, {"question": question, "documents": blocks, "history": []}
        )
    )
    return RoutedAnswer(
        final_answer=parse_agent_reply(text).answer,
        selected_agent_ids=tuple(selected),
        verdicts={},
        usage=usage,
        agent_answers=tuple(answers),
    )
