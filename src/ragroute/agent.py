"""One retrieval-augmented agent: retrieve, rerank, generate Analysis/Answer.

An agent owns its chunk set and indexes; nothing but its generated response
(and, for bookkeeping, which chunks it used) ever leaves it.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .corpus import Chunk, ChunkingConfig, chunk_ordinal, require_int, tokenize
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
    RetrievalHit,
    UnitQuery,
    bm25_search,
    dense_search,
    mixture_search,
    rerank,
    unscored,
)
from .store import IndexFileError

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
    chunking: ChunkingConfig = field(default_factory=lambda: ChunkingConfig(1024, 40))
    rerank_threshold: float = 0.3

    def __post_init__(self) -> None:
        if self.retrieval_method not in (DENSE, BM25, MIXTURE):
            raise ValueError(f"unknown retrieval method {self.retrieval_method!r}")
        require_int("retrieval_depth", self.retrieval_depth)
        require_int("min_keep", self.min_keep)
        threshold = self.rerank_threshold
        if isinstance(threshold, bool) or not isinstance(threshold, (int, float)):
            raise TypeError(f"rerank_threshold must be a number, not {threshold!r}")
        if not math.isfinite(threshold):
            raise ValueError(f"rerank_threshold must be finite, not {threshold!r}")
        if not (self.retrieval_depth >= self.min_keep >= 1):
            raise ValueError("need retrieval_depth >= min_keep >= 1")


@dataclass(frozen=True)
class AgentAnswer:
    agent_id: str
    reply: ParsedAgentReply
    raw_text: str
    hits: tuple[RetrievalHit, ...]
    usage: TokenUsage


def _check_chunk_ids(
    agent_id: str, chunks: list[Chunk], dense_index: DenseIndex, bm25_index: Bm25Index
) -> None:
    """Raise IndexFileError, naming the agent and the first differing chunk
    id, unless the chunks, the dense rows and the BM25 lengths name the same
    chunks, each once."""
    files = (
        ("chunks.jsonl", [c.chunk_id for c in chunks]),
        ("vectors.manifest.json", dense_index.chunk_ids),
        ("bm25.json", bm25_index.chunk_ids),
    )
    want = set(files[0][1])
    for name, ids in files:
        have = set(ids)
        if len(have) < len(ids):
            twice = min(c for c, n in Counter(ids).items() if n > 1)
            raise IndexFileError(f"agent {agent_id}: {name} names chunk {twice!r} twice")
        if have != want:
            first = min(have ^ want)
            holder, other = (name, "chunks.jsonl") if first in have else ("chunks.jsonl", name)
            raise IndexFileError(
                f"agent {agent_id}: {holder} names chunk {first!r}, which {other} does not"
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
        """Raises IndexFileError when ``chunks``, ``dense_index`` and
        ``bm25_index`` do not name the same chunks, each once."""
        self.config = config
        _check_chunk_ids(config.agent_id, chunks, dense_index, bm25_index)
        self.chunks_by_id = {c.chunk_id: c for c in chunks}
        self.dense_index = dense_index
        self.bm25_index = bm25_index
        self.embedder = embedder
        self.backend = backend

    @property
    def agent_id(self) -> str:
        return self.config.agent_id

    def retrieve(
        self,
        question: str,
        query_vec: UnitQuery | np.ndarray,
        cosines: np.ndarray | None = None,
    ) -> Ranked:
        """Top ``retrieval_depth`` rows by the configured method.

        ``query_vec`` is the question's embedding, computed once by the caller;
        retrieval embeds nothing itself. The dense stage stores the exact
        cosines it computes in ``cosines``, when given, for ``rerank``.
        """
        depth = self.config.retrieval_depth
        method = self.config.retrieval_method
        if len(self.dense_index) == 0:
            return NO_HITS
        if method == BM25:
            return bm25_search(self.bm25_index, tokenize(question), depth)
        dense = dense_search(self.dense_index, query_vec, depth, cosines)
        if method == DENSE:
            return dense
        bm25 = bm25_search(self.bm25_index, tokenize(question), depth)
        return mixture_search(dense, bm25, depth)

    def select_chunks(
        self, question: str, query_vec: UnitQuery | np.ndarray, min_keep: int | None = None
    ) -> list[RetrievalHit]:
        """Retrieve, then rerank to at least ``min_keep`` chunks (the agent's
        own ``min_keep`` when None; below 1 raises ValueError); an empty index
        selects nothing. Each chunk's exact cosine is computed once, and a
        hit is made only for each kept chunk, ranked from 1, its score that
        cosine and its method the agent's retrieval method."""
        query = UnitQuery.of(query_vec)
        cosines = unscored(self.dense_index)
        kept = rerank(
            self.retrieve(question, query, cosines).rows,
            query,
            self.dense_index,
            min_keep=self.config.min_keep if min_keep is None else min_keep,
            keep_threshold=self.config.rerank_threshold,
            cosines=cosines,
        )
        ids, method = self.bm25_index.chunk_ids, self.config.retrieval_method
        return [
            RetrievalHit(ids[row], score, rank, method)
            for rank, (row, score) in enumerate(zip(kept.tolist(), cosines[kept].tolist()), 1)
        ]

    def document_blocks(self, hits: Iterable[RetrievalHit]) -> list[str]:
        blocks = []
        for hit in hits:
            chunk = self.chunks_by_id[hit.chunk_id]
            header = f"[doc:{chunk.doc_id} chunk:{chunk_ordinal(chunk.chunk_id)}]"
            blocks.append(f"{header}\n{chunk.text}")
        return blocks

    def answer_question(
        self,
        question: str,
        mode: str = SINGLE_HOP,
        history: Iterable = (),
        min_keep: int | None = None,
        query_vec: UnitQuery | np.ndarray | None = None,
    ) -> AgentAnswer:
        """Retrieve, rerank to at least min_keep chunks, and generate a reply.

        ``query_vec`` is the question's embedding; the router passes the
        ``UnitQuery`` it selected agents with. Only without it does the agent
        embed the question, once, for both retrieval and rerank. An agent
        with an empty index answers "I don't know." without touching the
        embedder or the backend. Backend hard failures are re-raised tagged
        with the agent id.
        """
        if len(self.dense_index) == 0:
            unknown = ParsedAgentReply(analysis="", answer="I don't know.", is_unknown=True)
            return AgentAnswer(self.agent_id, unknown, "", (), TokenUsage())
        if query_vec is None:
            query_vec = self.embedder.embed_batch([question])[0]
        kept = self.select_chunks(question, query_vec, min_keep)
        template = AGENT_ANSWER_MULTI_HOP if mode == MULTI_HOP else AGENT_ANSWER_SINGLE_HOP
        slots = {
            "question": question,
            "documents": self.document_blocks(kept),
            "history": list(history),
        }
        messages = render_prompt(template, slots)
        try:
            text, usage = self.backend.chat(messages)
        except Exception as exc:
            raise AgentError(self.agent_id, str(exc)) from exc
        return AgentAnswer(self.agent_id, parse_agent_reply(text), text, tuple(kept), usage)

    def doc_ids_for(self, hits: Iterable[RetrievalHit]) -> tuple[str, ...]:
        return tuple(self.chunks_by_id[h.chunk_id].doc_id for h in hits)
