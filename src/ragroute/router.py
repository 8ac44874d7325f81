"""Centroid registry, top-k agent selection, response evaluation, curation.

The router only ever sees cluster centroids, never chunk text. Selection
ranks agents by their best centroid's cosine similarity to the query and
keeps the ``max_agents`` best.
"""

from __future__ import annotations

import re
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import TYPE_CHECKING, Iterable, Sequence

import numpy as np

from .agent import MULTI_HOP, SINGLE_HOP, AgentAnswer, AgentError
from .llm import ask_parsed, parse_agent_reply, sections
from .prompts import (
    AGENT_ANSWER_SINGLE_HOP,
    ROUTER_FINALIZE_MULTI_HOP,
    ROUTER_FINALIZE_SINGLE_HOP,
    render_prompt,
)
# rerank is unused here; perfbench/spans.py traces it by name on this module.
from .retrieval import DenseIndex, UnitQuery, UnusableRowError, rerank
# load_vectors, save_vectors: unused here; perfbench/spans.py traces them by name on this module.
from .store import VectorFileError, load_vectors, read_arrays, read_json, require_crc32
from .store import require_int, require_strings, save_vectors, write_arrays, write_json

if TYPE_CHECKING:
    from .evalharness import EvalSystem

GOOD_RELIABLE = "good_reliable"
CONJECTURE = "conjecture"
UNHELPFUL = "unhelpful"


class RouterError(RuntimeError):
    pass


class UnusableCentroidError(ValueError):
    """A centroid that is zero or not finite; ``agent_id`` is its agent's."""

    def __init__(self, agent_id: str, cluster_id: int):
        super().__init__(f"centroid {agent_id}#{cluster_id} is zero or not finite")
        self.agent_id = agent_id


class RouterRegistry:
    """The agents' centroids as one matrix, its rows run agent by agent in
    sorted agent_id order; a row's cluster id is its place in its agent's run.
    Built once, with one ``np.unique`` of ``agent_of_row``: ``entries``, each
    row's (agent_id, cluster_id); the sorted agent ids; the first row of each
    agent's run; each row's agent; and the rows, kept as given, as a
    ``DenseIndex`` whose ids are the rows' agents.

    ValueError when the rows are out of that order or ``agent_of_row`` is
    not one per row; UnusableCentroidError names a centroid that is zero or
    not finite.
    """

    def __init__(self, agent_of_row: Sequence[str] = (), centroids: np.ndarray | None = None):
        names = np.array(agent_of_row, dtype=object)
        agent_ids, self._starts, self._agent_of_row = np.unique(
            names, return_index=True, return_inverse=True
        )
        if np.any(np.diff(self._agent_of_row) < 0):
            raise ValueError("centroid rows must run agent by agent, in sorted agent_id order")
        self._agent_ids = agent_ids.tolist()
        cluster_of_row = np.arange(len(names)) - self._starts[self._agent_of_row]
        self.entries = tuple(zip(names.tolist(), cluster_of_row.tolist()))
        matrix = np.zeros((0, 0), np.float32) if centroids is None else centroids
        try:
            self._centroids = DenseIndex(matrix, agent_of_row)
        except UnusableRowError as exc:
            raise UnusableCentroidError(*self.entries[exc.row]) from None
        self.dim = self._centroids.dim

    @property
    def agent_ids(self) -> list[str]:
        return list(self._agent_ids)

    @property
    def agent_count(self) -> int:
        return len(self._agent_ids)

    def centroids_of(self, agent_id: str) -> np.ndarray:
        """``agent_id``'s rows, cluster 0 first: a view, not a copy."""
        i = self._agent_ids.index(agent_id)
        start, end = np.searchsorted(self._agent_of_row, [i, i + 1])
        return self._centroids.rows[start:end]

    def save(self, json_path: str | Path, vectors_base: str | Path) -> None:
        """The rows to ``<vectors_base>.bin``, then the record to ``json_path``."""
        crc = write_arrays(Path(vectors_base).with_suffix(".bin"), [("<f4", self._centroids.rows)])
        agent_of_row = [agent_id for agent_id, _ in self.entries]
        write_json(json_path, {"agent_of_row": agent_of_row, "crc32": crc, "dim": self.dim})

    @classmethod
    def load(cls, json_path: str | Path, vectors_base: str | Path) -> "RouterRegistry":
        """The registry ``save`` wrote, over the mapped rows of its ``.bin``.
        IndexFileError names ``json_path`` when a field is missing or of the
        wrong type (a bool is not an int), ``dim`` is negative or the rows are
        out of agent order; VectorFileError names the ``.bin`` unless it is
        those rows, with that crc32, and none is zero or not finite."""
        bin_path = Path(vectors_base).with_suffix(".bin")

        def parse(record) -> RouterRegistry:
            agent_of_row = require_strings("agent_of_row", record["agent_of_row"])
            crc, dim = require_crc32(record["crc32"]), require_int("dim", record["dim"])
            if dim < 0:
                raise ValueError(f"dim is {dim}, not a size")
            [flat] = read_arrays(bin_path, [("<f4", len(agent_of_row) * dim)], crc)
            try:
                return cls(agent_of_row, flat.reshape(len(agent_of_row), dim))
            except UnusableCentroidError as exc:
                raise VectorFileError(f"{bin_path}: {exc}") from exc

        return read_json(json_path, parse)


def select_agents(registry: RouterRegistry, query: UnitQuery, max_agents: int) -> list[str]:
    """Distinct agents by descending best-centroid score, capped at max_agents.

    An agent's score is its best centroid's exact cosine to the query;
    agents come out by (-score, agent_id), the order in which a scan of
    centroids sorted by (-score, agent_id, cluster_id) first meets each
    agent. One screening product scores every centroid within E (the
    centroid index's ``slack``) of its exact cosine, so each agent's best
    screened score is within E of its score. Only the centroids within 2E of
    their agent's best screened score, of the agents within 2E of the
    ``max_agents``-th best, are scored exactly: no other agent can be among
    the first ``max_agents``, and no other centroid can be its agent's best.
    """
    if not registry.entries:
        raise RouterError("no agents registered")
    if max_agents < 1:
        raise ValueError("max_agents must be >= 1")
    centroids, agent_of_row = registry._centroids, registry._agent_of_row
    approx = centroids.screen(query)
    screened = np.maximum.reduceat(approx, registry._starts)
    cap = len(screened) - min(max_agents, len(screened))
    near = screened >= np.partition(screened, cap)[cap] - 2 * centroids.slack
    rows = np.flatnonzero(
        near[agent_of_row] & (approx >= screened[agent_of_row] - 2 * centroids.slack)
    )
    best = np.full(len(screened), -np.inf)
    np.maximum.at(best, agent_of_row[rows], centroids.exact(rows, query))
    order = np.argsort(-best, kind="stable")[:max_agents]
    return [registry._agent_ids[i] for i in order.tolist()]


@dataclass(frozen=True)
class RoutedAnswer:
    final_answer: str
    selected_agent_ids: tuple[str, ...]
    verdicts: dict[str, str]
    # each answering agent's retrieved doc ids, in hit order
    doc_slots: dict[str, tuple[str, ...]] = field(default_factory=dict)


_BULLET_INDEX_RE = re.compile(r"respon\w*\s+((?:\d+[\s,]*(?:and|&)?[\s,]*)+)", re.I)
_NEGATIVE_MARKERS = ("unreliable", "not reliable", "unhelpful", "incorrect", "invalid", "flawed")


def _verdicts_from_evaluation(evaluation: str, count: int) -> list[str]:
    """Map evaluation bullets onto one verdict per response position.

    Keyword rule: a negative marker wins, then "conjectur", then "reliable";
    positions never mentioned stay unhelpful, and so does an index out of
    range (one with more digits than ``count``, leading zeros aside, is
    skipped before ``int``).
    """
    verdicts = [UNHELPFUL] * count
    digits = len(str(count))
    for line in evaluation.splitlines():
        m = _BULLET_INDEX_RE.search(line)
        if not m:
            continue
        tokens = re.findall(r"\d+", m.group(1))
        indices = [int(tok) for tok in tokens if len(tok.lstrip("0")) <= digits]
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
    """(evaluation, answer) sections; None when the Answer is missing or empty."""
    found = sections(text, "evaluation", "analysis", "answer")
    answer = found.get("answer", "").strip()
    return (found.get("evaluation", "").strip(), answer) if answer else None


def evaluate_and_curate(
    question: str,
    answers: list[AgentAnswer],
    backend,
    mode: str = SINGLE_HOP,
    history: Iterable = (),
) -> tuple[str, dict[str, str]]:
    """Ask the curation prompt over all agent responses, re-asking once: the
    curated answer and each answering agent's verdict by agent_id
    (RouterError when neither reply has a non-empty Answer)."""
    if not answers:
        raise RouterError("no agent answers to curate")
    template = ROUTER_FINALIZE_MULTI_HOP if mode == MULTI_HOP else ROUTER_FINALIZE_SINGLE_HOP
    slots = {
        "question": question,
        "responses": [a.raw_text for a in answers],
        "history": list(history),
    }
    messages = render_prompt(template, slots)
    sections = ask_parsed(backend, messages, _split_router_sections)
    if sections is None:
        raise RouterError("unparseable router output: no Answer section")
    evaluation, answer = sections
    by_position = _verdicts_from_evaluation(evaluation, len(answers))
    return answer, {a.agent_id: v for a, v in zip(answers, by_position)}


def route_and_answer(
    system: EvalSystem,
    question: str,
    mode: str = SINGLE_HOP,
    history: Iterable = (),
    min_keep: int | None = None,
    selected_override: list[str] | None = None,
) -> RoutedAnswer:
    """Select up to ``system.max_agents`` agents, fan the question out over
    ``system.parallelism`` threads, and curate one final answer. Every agent
    and the curation ask ``system.backend``, so one meter there counts them.

    The question is embedded once, as one ``UnitQuery``; that selects the
    agents and every selected agent retrieves and reranks with it. An agent
    that hard-fails stays selected, with an unhelpful verdict and no doc
    slot; the others' answers are curated, and only when every agent failed
    does a RouterError name each one's error. ``selected_override`` bypasses
    centroid selection (used by the all-agents baseline).
    """
    query = UnitQuery(system.embedder.embed_batch([question])[0])
    if selected_override is not None:
        selected = list(selected_override)
    else:
        selected = select_agents(system.registry, query, system.max_agents)
    history = list(history)
    agents = [system.agents[a] for a in selected]

    def ask(agent) -> AgentAnswer | AgentError:
        try:
            return agent.answer_question(
                question, query, system.backend, mode=mode, history=history, min_keep=min_keep
            )
        except AgentError as exc:
            return exc

    if system.parallelism > 1 and len(agents) > 1:
        with ThreadPoolExecutor(max_workers=system.parallelism) as pool:
            results = list(pool.map(ask, agents))
    else:
        results = [ask(agent) for agent in agents]
    answers = [r for r in results if isinstance(r, AgentAnswer)]
    failed = {r.agent_id: str(r) for r in results if isinstance(r, AgentError)}
    if not answers:
        raise RouterError(f"all selected agents failed: {failed}")
    answer, verdicts = evaluate_and_curate(question, answers, system.backend, mode, history)
    return RoutedAnswer(
        final_answer=answer,
        selected_agent_ids=tuple(selected),
        verdicts={**verdicts, **dict.fromkeys(failed, UNHELPFUL)},
        doc_slots={
            a.agent_id: system.agents[a.agent_id].doc_ids_for(a.kept.rows) for a in answers
        },
    )


def route_raw_knowledge(system: EvalSystem, question: str) -> RoutedAnswer:
    """Baseline variant: selected agents only select chunks; those are
    forwarded to one single-hop generation call instead of per-agent answers.
    The question is embedded once, for selection, retrieval and rerank."""
    query = UnitQuery(system.embedder.embed_batch([question])[0])
    selected = select_agents(system.registry, query, system.max_agents)
    blocks: list[str] = []
    doc_slots: dict[str, tuple[str, ...]] = {}
    for agent_id in selected:
        agent = system.agents[agent_id]
        kept = agent.select_chunks(question, query).rows
        blocks.extend(agent.document_blocks(kept))
        doc_slots[agent_id] = agent.doc_ids_for(kept)
    text, _ = system.backend.chat(
        render_prompt(
            AGENT_ANSWER_SINGLE_HOP, {"question": question, "documents": blocks, "history": []}
        )
    )
    return RoutedAnswer(
        final_answer=parse_agent_reply(text).answer,
        selected_agent_ids=tuple(selected),
        verdicts={},
        doc_slots=doc_slots,
    )
