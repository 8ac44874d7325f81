"""One retrieval-augmented agent: retrieve, rerank, generate Analysis/Answer.

An agent owns its chunk set and indexes; nothing but its generated response
(and, for bookkeeping, which chunks it used) ever leaves it. Its chunks,
dense rows and BM25 rows run in one order, chunk_id order, so a row number
names one chunk in all three; the query path hands rows from stage to stage
and reads the chunks at the rows it keeps.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import zip_longest
from typing import Iterable

import numpy as np

from .corpus import DEFAULT_CHUNKING, Chunk, ChunkingConfig, chunk_ordinal, tokenize
from .llm import ParsedAgentReply, TokenUsage, parse_agent_reply
from .prompts import AGENT_ANSWER_MULTI_HOP, AGENT_ANSWER_SINGLE_HOP, render_prompt
from .retrieval import (
    BM25,
    DENSE,
    MIXTURE,
    NO_HITS,
    Bm25Index,
    DenseIndex,
    Ranked,
    UnitQuery,
    bm25_search,
    dense_search,
    mixture_search,
    rerank,
    unscored,
)
from .store import IndexFileError, require_int, require_number, require_str

SINGLE_HOP = "single_hop"
MULTI_HOP = "multi_hop"


class AgentError(RuntimeError):
    def __init__(self, agent_id: str, message: str):
        super().__init__(f"agent {agent_id}: {message}")
        self.agent_id = agent_id


@dataclass(frozen=True)
class AgentConfig:
    agent_id: str
    category: str = ""
    retrieval_method: str = MIXTURE
    retrieval_depth: int = 20
    min_keep: int = 5
    chunking: ChunkingConfig = DEFAULT_CHUNKING
    rerank_threshold: float = 0.3

    def __post_init__(self) -> None:
        for name in ("agent_id", "category"):
            require_str(name, getattr(self, name))
        if self.agent_id in ("", ".", "..") or any(c in self.agent_id for c in "/\\\0"):
            raise ValueError(f"agent_id must name one directory, not {self.agent_id!r}")
        if self.retrieval_method not in (DENSE, BM25, MIXTURE):
            raise ValueError(f"unknown retrieval method {self.retrieval_method!r}")
        require_int("retrieval_depth", self.retrieval_depth)
        require_int("min_keep", self.min_keep)
        require_number("rerank_threshold", self.rerank_threshold)
        if not (self.retrieval_depth >= self.min_keep >= 1):
            raise ValueError("need retrieval_depth >= min_keep >= 1")


@dataclass(frozen=True)
class AgentAnswer:
    agent_id: str
    reply: ParsedAgentReply
    raw_text: str
    kept: Ranked
    usage: TokenUsage


def _check_rows(agent_id: str, name: str, ids: list[str], want: list[str]) -> None:
    """Raise IndexFileError, naming the agent, the file ``name`` and the
    first row whose chunk id is not bm25.json's (None past the end of a
    list), unless ``ids`` are ``want`` row for row."""
    if ids == want:
        return
    for row, (got, there) in enumerate(zip_longest(ids, want)):
        if got != there:
            raise IndexFileError(
                f"agent {agent_id}: {name}: row {row} is chunk {got!r}, bm25.json's is {there!r}"
            )


class Agent:
    def __init__(
        self,
        config: AgentConfig,
        chunks: list[Chunk],
        dense_index: DenseIndex,
        bm25_index: Bm25Index,
        embedder,
        backend,
    ):
        """Raises IndexFileError unless ``chunks`` and ``dense_index`` name
        ``bm25_index``'s chunks row for row, in chunk_id order, and each
        chunk_id ends in its ordinal, which is read here, once per row."""
        self.config = config
        want = bm25_index.chunk_ids
        chunk_ids = [c.chunk_id for c in chunks]
        _check_rows(config.agent_id, "chunks.jsonl", chunk_ids, want)
        _check_rows(config.agent_id, "vectors.manifest.json", dense_index.chunk_ids, want)
        try:
            self._ordinals = list(map(chunk_ordinal, chunk_ids))
        except ValueError as exc:
            raise IndexFileError(f"agent {config.agent_id}: chunks.jsonl: {exc}") from exc
        self.chunks = list(chunks)
        self.dense_index = dense_index
        self.bm25_index = bm25_index
        self.embedder = embedder
        self.backend = backend

    @property
    def agent_id(self) -> str:
        return self.config.agent_id

    def retrieve(self, question: str, query: UnitQuery, cosines: np.ndarray) -> Ranked:
        """Top ``retrieval_depth`` rows by the configured method.

        ``query`` is the question's embedding, computed once by the caller;
        retrieval embeds nothing itself. The dense stage stores the exact
        cosines it computes in ``cosines``, the question's array, for
        ``rerank``.
        """
        depth = self.config.retrieval_depth
        method = self.config.retrieval_method
        if len(self.dense_index) == 0:
            return NO_HITS
        if method == BM25:
            return bm25_search(self.bm25_index, tokenize(question), depth)
        dense = dense_search(self.dense_index, query, depth, cosines)
        if method == DENSE:
            return dense
        bm25 = bm25_search(self.bm25_index, tokenize(question), depth)
        return mixture_search(dense, bm25, depth)

    def select_chunks(
        self, question: str, query: UnitQuery, min_keep: int | None = None
    ) -> Ranked:
        """Retrieve, then rerank to at least ``min_keep`` rows (the agent's
        own ``min_keep`` when None; below 1 raises ValueError): the kept
        rows, best first, and their exact cosines, each computed once. An
        empty index keeps nothing."""
        cosines = unscored(self.dense_index)
        kept = rerank(
            self.retrieve(question, query, cosines).rows,
            query,
            self.dense_index,
            self.config.min_keep if min_keep is None else min_keep,
            self.config.rerank_threshold,
            cosines,
        )
        return Ranked(kept, cosines[kept])

    def document_blocks(self, rows: np.ndarray) -> list[str]:
        """Each row's ``[doc:… chunk:N]`` header and chunk text, in ``rows``
        order."""
        blocks = []
        for row in rows.tolist():
            chunk = self.chunks[row]
            blocks.append(f"[doc:{chunk.doc_id} chunk:{self._ordinals[row]}]\n{chunk.text}")
        return blocks

    def answer_question(
        self,
        question: str,
        mode: str = SINGLE_HOP,
        history: Iterable = (),
        min_keep: int | None = None,
        query: UnitQuery | None = None,
    ) -> AgentAnswer:
        """Retrieve, rerank to at least min_keep chunks, and generate a reply.

        ``query`` is the question's embedding; the router passes the one it
        selected agents with. Only without it does the agent embed the
        question, once, for both retrieval and rerank. An agent
        with an empty index answers "I don't know." without touching the
        embedder or the backend. Backend hard failures are re-raised tagged
        with the agent id.
        """
        if len(self.dense_index) == 0:
            unknown = ParsedAgentReply(analysis="", answer="I don't know.", is_unknown=True)
            return AgentAnswer(self.agent_id, unknown, "", NO_HITS, TokenUsage())
        if query is None:
            query = UnitQuery(self.embedder.embed_batch([question])[0])
        kept = self.select_chunks(question, query, min_keep)
        template = AGENT_ANSWER_MULTI_HOP if mode == MULTI_HOP else AGENT_ANSWER_SINGLE_HOP
        slots = {
            "question": question,
            "documents": self.document_blocks(kept.rows),
            "history": list(history),
        }
        messages = render_prompt(template, slots)
        try:
            text, usage = self.backend.chat(messages)
        except Exception as exc:
            raise AgentError(self.agent_id, str(exc)) from exc
        return AgentAnswer(self.agent_id, parse_agent_reply(text), text, kept, usage)

    def doc_ids_for(self, rows: np.ndarray) -> tuple[str, ...]:
        return tuple(self.chunks[row].doc_id for row in rows.tolist())
