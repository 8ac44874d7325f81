from __future__ import annotations

import pytest

import transcripts
from ragroute.agent import AgentConfig, AgentError, build_agent
from ragroute.corpus import ChunkingConfig, Document, chunk_document
from ragroute.llm import ScriptedChatBackend, ScriptEntry
from ragroute.planner import QARecord


def agent_from_text(
    agent_id: str,
    body: str,
    backend,
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
    return build_agent(config, chunks, embedder, backend)


class TestAnswerQuestion:
    def test_finds_answer_in_topical_corpus(self, walking_dead_setup):
        agents, _, _ = walking_dead_setup
        answer = agents["a4"].answer_question(transcripts.WD_QUESTION)
        assert "Merle Dixon" in answer.reply.answer
        assert not answer.reply.is_unknown
        assert answer.hits

    def test_out_of_domain_corpus_answers_unknown(self, mock_embedder):
        backend = ScriptedChatBackend(
            [ScriptEntry("gardening", "Analysis: nothing relevant.\nAnswer: I don't know.")]
        )
        agent = agent_from_text(
            "g", "gardening tips: prune roses in spring; mulch beds well", backend, mock_embedder
        )
        answer = agent.answer_question("what is the capital of France")
        assert answer.reply.is_unknown

    def test_empty_index_short_circuits_without_backend_call(self, mock_embedder):
        backend = ScriptedChatBackend([])
        config = AgentConfig(agent_id="empty")
        agent = build_agent(config, [], mock_embedder, backend)
        answer = agent.answer_question("anything?")
        assert answer.reply.is_unknown
        assert answer.hits == ()
        assert backend.calls == []
        assert answer.usage.total == 0

    def test_rerank_floor_puts_exactly_min_keep_chunks_in_prompt(self, mock_embedder):
        # corpus shares no vocabulary with the question: every similarity is
        # zero, so only the floor rule keeps chunks
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text(
            "f", body, backend, mock_embedder, retrieval_depth=20, min_keep=5,
            chunking=ChunkingConfig(8, 2),
        )
        answer = agent.answer_question("zebra quagga okapi")
        assert len(answer.hits) == 5
        prompt = backend.calls[0].prompt
        assert prompt.count("[doc:") == 5

    def test_min_keep_override(self, mock_embedder):
        body = " ".join(f"filler{i}a filler{i}b filler{i}c" for i in range(60))
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: nothing")])
        agent = agent_from_text(
            "f", body, backend, mock_embedder, retrieval_depth=20, min_keep=5,
            chunking=ChunkingConfig(8, 2),
        )
        answer = agent.answer_question("zebra quagga okapi", min_keep=9)
        assert len(answer.hits) == 9

    def test_prompt_contains_kept_texts_verbatim_and_nothing_else(self, mock_embedder):
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: ok")])
        body = (
            "alpha beta gamma delta epsilon zeta. "
            "eta theta iota kappa lambda mu. "
            "unrelated words entirely different topic here."
        )
        agent = agent_from_text(
            "v", body, backend, mock_embedder, retrieval_depth=2, min_keep=1,
            chunking=ChunkingConfig(6, 0),
        )
        answer = agent.answer_question("alpha beta gamma")
        prompt = backend.calls[0].prompt
        kept_ids = {h.chunk_id for h in answer.hits}
        for chunk_id, chunk in agent.chunks_by_id.items():
            if chunk_id in kept_ids:
                assert chunk.text in prompt
            else:
                assert chunk.text not in prompt

    def test_hits_equal_rerank_output_exactly(self, walking_dead_setup):
        agents, _, _ = walking_dead_setup
        agent = agents["a2"]
        answer = agent.answer_question(transcripts.WD_QUESTION)
        assert list(answer.hits) == sorted(answer.hits, key=lambda h: h.rank)
        assert [h.rank for h in answer.hits] == list(range(1, len(answer.hits) + 1))

    def test_multi_hop_history_joins_prompt_turns(self, mock_embedder):
        backend = ScriptedChatBackend([ScriptEntry("collection of knowledge", "Answer: fine")])
        agent = agent_from_text("h", "some topic words here", backend, mock_embedder)
        agent.answer_question(
            "next question?", mode="multi_hop", history=[QARecord("prior q?", "prior a.", 1)]
        )
        prompt = backend.calls[0].prompt
        assert "prior q?" in prompt and "prior a." in prompt

    def test_pure_function_under_mocks(self, mock_embedder):
        def run():
            backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: same")])
            agent = agent_from_text("p", "stable corpus text tokens", backend, mock_embedder)
            return agent.answer_question("stable question")

        first, second = run(), run()
        assert first.reply == second.reply
        assert first.hits == second.hits
        assert first.usage == second.usage

    def test_backend_failure_tagged_with_agent_id(self, mock_embedder):
        backend = ScriptedChatBackend([])  # nothing scripted: every call fails
        agent = agent_from_text("fragile", "corpus words", backend, mock_embedder)
        with pytest.raises(AgentError, match="fragile"):
            agent.answer_question("corpus words?")


class TestAgentConfig:
    def test_depth_must_cover_min_keep(self):
        with pytest.raises(ValueError):
            AgentConfig(agent_id="x", retrieval_depth=3, min_keep=5)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValueError):
            AgentConfig(agent_id="x", retrieval_method="fuzzy")
