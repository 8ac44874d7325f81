from __future__ import annotations

import re

import numpy as np
import pytest

import transcripts
from conftest import build_agent
from ragroute import agent as agent_module
from ragroute.agent import Agent, AgentConfig, AgentError
from ragroute.corpus import Chunk, ChunkingConfig, Document, chunk_document
from ragroute.embedding import MockEmbedder
from ragroute.llm import ScriptedChatBackend, ScriptEntry
from ragroute.retrieval import Bm25Index, DenseIndex, UnitQuery
from ragroute.store import IndexFileError


def agent_from_text(
    agent_id: str,
    body: str,
    embedder,
    retrieval_depth: int = 20,
    min_keep: int = 5,
    chunking: ChunkingConfig = ChunkingConfig(64, 8),
):
    doc = Document(doc_id=f"{agent_id}-doc", title="", category="", body=body)
    chunks = chunk_document(doc, chunking)
    config = AgentConfig(
        agent_id=agent_id,
        retrieval_method="mixture",
        retrieval_depth=retrieval_depth,
        min_keep=min_keep,
        chunking=chunking,
    )
    return build_agent(config, chunks, embedder)


def answer_of(agent: Agent, question: str, backend, **kwargs):
    """``agent``'s answer to ``question``, asking ``backend``, with the
    question embedded once by the mock embedder, as the router does."""
    query = UnitQuery(MockEmbedder(transcripts.MOCK_DIM).embed_batch([question])[0])
    return agent.answer_question(question, query, backend, **kwargs)


class TestAnswerQuestion:
    def test_finds_answer_in_topical_corpus(self, walking_dead_setup):
        agents, _, backend = walking_dead_setup
        answer = answer_of(agents["a4"], transcripts.WD_QUESTION, backend)
        assert "Merle Dixon" in answer.reply.answer
        assert not answer.reply.is_unknown
        assert len(answer.kept.rows)

    def test_out_of_domain_corpus_answers_unknown(self, mock_embedder):
        backend = ScriptedChatBackend(
            [ScriptEntry("gardening", "Analysis: nothing relevant.\nAnswer: I don't know.")]
        )
        agent = agent_from_text(
            "g", "gardening tips: prune roses in spring; mulch beds well", mock_embedder
        )
        answer = answer_of(agent, "what is the capital of France", backend)
        assert answer.reply.is_unknown

    def test_empty_index_short_circuits_without_backend_call(self, mock_embedder):
        backend = ScriptedChatBackend([])
        config = AgentConfig(agent_id="empty")
        agent = build_agent(config, [], mock_embedder)
        answer = answer_of(agent, "anything?", backend)
        assert answer.reply.is_unknown
        assert len(answer.kept.rows) == len(answer.kept.scores) == 0
        assert backend.calls == []

    def test_rerank_floor_puts_exactly_min_keep_chunks_in_prompt(self, mock_embedder):
        # corpus shares no vocabulary with the question: every similarity is
        # zero, so only the floor rule keeps chunks
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text(
            "f", body, mock_embedder, retrieval_depth=20, min_keep=5,
            chunking=ChunkingConfig(8, 2),
        )
        answer = answer_of(agent, "zebra quagga okapi", backend)
        assert len(answer.kept.rows) == 5
        prompt = backend.calls[0].prompt
        assert prompt.count("[doc:") == 5

    def test_headers_are_made_once_per_agent_not_per_question(self, mock_embedder,
                                                                monkeypatch):
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing",
                                                   repeat=True)])
        agent = agent_from_text(
            "f", body, mock_embedder, retrieval_depth=20, min_keep=5,
            chunking=ChunkingConfig(8, 2),
        )
        calls = []
        monkeypatch.setattr(agent_module, "chunk_ordinal",
                            lambda chunk_id: calls.append(chunk_id) or 0)
        for question in ("zebra quagga okapi", "filler3a filler7b?"):
            answer = answer_of(agent, question, backend)
        assert len(answer.kept.rows) >= 5 and calls == []
        headers = re.findall(r"\[doc:f-doc chunk:(\d+)\]", backend.calls[-1].prompt)
        assert headers == [str(row) for row in answer.kept.rows.tolist()]

    def test_min_keep_override(self, mock_embedder):
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text(
            "f", body, mock_embedder, retrieval_depth=20, min_keep=5,
            chunking=ChunkingConfig(8, 2),
        )
        answer = answer_of(agent, "zebra quagga okapi", backend, min_keep=9)
        assert len(answer.kept.rows) == 9

    def test_min_keep_below_1_raises_instead_of_meaning_the_default(self, mock_embedder):
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text("f", "some topic words here", mock_embedder)
        query = UnitQuery(mock_embedder.embed_batch(["topic words"])[0])
        for min_keep in (0, -1):
            with pytest.raises(ValueError, match="min_keep must be >= 1"):
                agent.select_chunks("topic words", query, min_keep)
            with pytest.raises(ValueError, match="min_keep must be >= 1"):
                answer_of(agent, "topic words", backend, min_keep=min_keep)
        assert backend.calls == []

    def test_prompt_contains_kept_texts_verbatim_and_nothing_else(self, mock_embedder):
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: ok")])
        body = (
            "alpha beta gamma delta epsilon zeta. "
            "eta theta iota kappa lambda mu. "
            "unrelated words entirely different topic here."
        )
        agent = agent_from_text(
            "v", body, mock_embedder, retrieval_depth=2, min_keep=1,
            chunking=ChunkingConfig(6, 0),
        )
        answer = answer_of(agent, "alpha beta gamma", backend)
        prompt = backend.calls[0].prompt
        kept = set(answer.kept.rows.tolist())
        for row, chunk in enumerate(agent.chunks):
            if row in kept:
                assert chunk.text in prompt
            else:
                assert chunk.text not in prompt

    def test_kept_rows_are_distinct_and_best_first(self, mock_embedder):
        """By (-cosine, row): the question shares words with a few chunks, and
        the rest tie at 0 below the threshold."""
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text(
            "f", body, mock_embedder, retrieval_depth=20, min_keep=8,
            chunking=ChunkingConfig(8, 2),
        )
        kept = answer_of(agent, "filler30a filler7b filler7c zebra", backend).kept
        pairs = list(zip((-kept.scores).tolist(), kept.rows.tolist()))
        assert pairs == sorted(pairs) and len(set(kept.rows.tolist())) == len(pairs) == 8
        assert kept.scores[0] > 0 == kept.scores[-1]

    def test_multi_hop_history_joins_prompt_turns(self, mock_embedder):
        backend = ScriptedChatBackend([ScriptEntry("collection of knowledge", "Answer: fine")])
        agent = agent_from_text("h", "some topic words here", mock_embedder)
        answer_of(
            agent, "next question?", backend, mode="multi_hop",
            history=[transcripts.round_of("prior q?", "prior a.", 1)],
        )
        prompt = backend.calls[0].prompt
        assert "prior q?" in prompt and "prior a." in prompt

    def test_pure_function_under_mocks(self, mock_embedder):
        def run():
            backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: same")])
            agent = agent_from_text("p", "stable corpus text tokens", mock_embedder)
            return answer_of(agent, "stable question", backend)

        first, second = run(), run()
        assert first.reply == second.reply
        assert first.kept.rows.tolist() == second.kept.rows.tolist()
        assert first.kept.scores.tolist() == second.kept.scores.tolist()

    def test_backend_failure_tagged_with_agent_id(self, mock_embedder):
        backend = ScriptedChatBackend([])  # nothing scripted: every call fails
        agent = agent_from_text("fragile", "corpus words", mock_embedder)
        with pytest.raises(AgentError, match="fragile"):
            answer_of(agent, "corpus words?", backend)


class TestAgentConfig:
    def test_depth_must_cover_min_keep(self):
        with pytest.raises(ValueError):
            AgentConfig(agent_id="x", retrieval_depth=3, min_keep=5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            AgentConfig(agent_id="x", retrieval_method="fuzzy")


def chunks_named(*ids: str) -> list[Chunk]:
    return [Chunk(chunk_id=c, doc_id=c.split(":")[0], text=f"text of {c}", token_start=0,
                  token_len=3) for c in ids]


class TestIndexConsistency:
    """An agent whose chunks.jsonl or dense rows do not list bm25.json's chunk
    ids row for row is refused when it is built, not once per question; the
    message names the agent, the file, the first row that differs and both
    chunk ids there (None past the end of a list)."""

    @pytest.mark.parametrize(
        "chunk_ids, dense_ids, message",
        [
            ("d:0 d:1 d:2", "d:0 d:1 d:2", None),
            ("d:0 d:2", "d:0 d:1 d:2", "chunks.jsonl: row 1 is chunk 'd:2', bm25.json's is 'd:1'"),
            ("d:0 d:1 d:2", "d:0 d:1 d:2 d:3",
             "vectors.manifest.json: row 3 is chunk 'd:3', bm25.json's is None"),
            ("d:0 d:1 d:2", "d:0 d:1 d:1 d:2",
             "vectors.manifest.json: row 2 is chunk 'd:1', bm25.json's is 'd:2'"),
            ("d:2 d:0 d:1", "d:0 d:1 d:2",
             "chunks.jsonl: row 0 is chunk 'd:2', bm25.json's is 'd:0'"),
            ("d:0 d:1", "d:0 d:1 d:2", "chunks.jsonl: row 2 is chunk None, bm25.json's is 'd:2'"),
        ],
        ids=["same", "missing", "extra", "twice", "out-of-order", "short"],
    )
    def test_same_rows_or_index_file_error(self, chunk_ids, dense_ids, message):
        dense_ids = dense_ids.split()
        args = (
            AgentConfig(agent_id="a7"),
            chunks_named(*chunk_ids.split()),
            DenseIndex(np.ones((len(dense_ids), 4), np.float32), dense_ids),
            Bm25Index.build(chunks_named("d:0", "d:1", "d:2")),
        )
        if message is None:
            assert [c.chunk_id for c in Agent(*args).chunks] == dense_ids
        else:
            with pytest.raises(IndexFileError, match=f"^{re.escape(f'agent a7: {message}')}$"):
                Agent(*args)

    @pytest.mark.parametrize("chunk_id", ["d", "d:x", "d:"])
    def test_chunk_id_without_an_ordinal_is_refused_when_built(self, chunk_id):
        chunks = chunks_named(chunk_id)
        with pytest.raises(IndexFileError, match=re.escape(
            f"agent a7: chunks.jsonl: chunk id {chunk_id!r} does not end in its ordinal"
        )):
            Agent(AgentConfig(agent_id="a7"), chunks,
                  DenseIndex(np.ones((1, 4), np.float32), [chunk_id]),
                  Bm25Index.build(chunks))
