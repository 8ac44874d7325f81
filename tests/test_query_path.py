"""``Agent.select_chunks`` against the retrieve -> fuse -> rerank composition
it replaced, kept here as the oracle: each stage's own body, one stage after
another, every stage scoring from scratch, with frozen-dataclass hits."""

from __future__ import annotations

import struct
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragroute import retrieval
from ragroute.agent import Agent, AgentConfig
from ragroute.corpus import Chunk, tokenize
from ragroute.retrieval import (
    BM25,
    DENSE,
    MIXTURE,
    RRF_K,
    Bm25Index,
    DenseIndex,
    _screen_slack,
    unit_query,
    unit_scores,
)


@dataclass(frozen=True)
class OracleHit:
    chunk_id: str
    score: float
    rank: int
    method: str


def oracle_dense_search(index: DenseIndex, query_vec: np.ndarray, top_n: int) -> list[OracleHit]:
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        return []
    q = unit_query(query_vec)
    rows = np.arange(len(index))
    if top_n < len(index):
        approx = (index._rows @ q.astype(index._screen_dtype)) / index._norms
        cut = np.partition(approx, len(approx) - top_n)[len(approx) - top_n]
        rows = np.flatnonzero(approx >= cut - 2 * _screen_slack(q.shape[0]))
    sims = unit_scores(index.unit_rows(rows), q).tolist()
    ids = [index.chunk_ids[i] for i in rows.tolist()]
    order = sorted(range(len(ids)), key=lambda k: (-sims[k], ids[k]))[:top_n]
    return [
        OracleHit(chunk_id=ids[k], score=sims[k], rank=r, method=DENSE)
        for r, k in enumerate(order, 1)
    ]


def oracle_id_rank(index: Bm25Index) -> np.ndarray:
    rank = np.empty(index.n_chunks, np.intp)
    rank[sorted(range(index.n_chunks), key=index.chunk_ids.__getitem__)] = np.arange(index.n_chunks)
    return rank


def oracle_bm25_search(index: Bm25Index, query_tokens: list[str], top_n: int) -> list[OracleHit]:
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    entries = [index.term_weights(t.lower()) for t in query_tokens]
    entries = [e for e in entries if e is not None]
    if not entries:
        return []
    scores = np.zeros(index.n_chunks)
    touched = np.zeros(index.n_chunks, dtype=bool)
    for rows, weights in entries:
        scores[rows] += weights
        touched[rows] = True
    rows = np.flatnonzero(touched)
    if len(rows) > top_n:
        touched_scores = scores[rows]
        cut = np.partition(touched_scores, len(rows) - top_n)[len(rows) - top_n]
        rows = rows[touched_scores >= cut]
    rows = rows[np.lexsort((oracle_id_rank(index)[rows], -scores[rows]))][:top_n]
    return [
        OracleHit(chunk_id=index.chunk_ids[row], score=score, rank=r, method=BM25)
        for r, (row, score) in enumerate(zip(rows.tolist(), scores[rows].tolist()), 1)
    ]


def oracle_mixture_search(
    dense_hits: list[OracleHit], bm25_hits: list[OracleHit], top_n: int
) -> list[OracleHit]:
    fused: dict[str, float] = {}
    for hits in (dense_hits, bm25_hits):
        for hit in hits:
            fused[hit.chunk_id] = fused.get(hit.chunk_id, 0.0) + 1.0 / (RRF_K + hit.rank)
    ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        OracleHit(chunk_id=cid, score=score, rank=r, method=MIXTURE)
        for r, (cid, score) in enumerate(ranked[:top_n], 1)
    ]


def oracle_rerank(
    hits: list[OracleHit], query_vec: np.ndarray, index: DenseIndex, min_keep: int,
    keep_threshold: float,
) -> list[OracleHit]:
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if not hits:
        return []
    rows = [index.row_of[h.chunk_id] for h in hits]
    sims = unit_scores(index.unit_rows(rows), unit_query(query_vec)).tolist()
    scored = sorted(zip(sims, hits), key=lambda t: (-t[0], t[1].chunk_id))
    floor = min(min_keep, len(scored))
    kept = [t for t in scored if t[0] >= keep_threshold]
    if len(kept) < floor:
        kept = scored[:floor]
    return [
        OracleHit(chunk_id=h.chunk_id, score=sim, rank=r, method=h.method)
        for r, (sim, h) in enumerate(kept, 1)
    ]


def oracle_retrieve(agent: Agent, question: str, query_vec: np.ndarray) -> list[OracleHit]:
    depth = agent.config.retrieval_depth
    method = agent.config.retrieval_method
    if len(agent.dense_index) == 0:
        return []
    if method == DENSE:
        return oracle_dense_search(agent.dense_index, query_vec, depth)
    if method == BM25:
        return oracle_bm25_search(agent.bm25_index, tokenize(question), depth)
    dense_hits = oracle_dense_search(agent.dense_index, query_vec, depth)
    bm25_hits = oracle_bm25_search(agent.bm25_index, tokenize(question), depth)
    return oracle_mixture_search(dense_hits, bm25_hits, depth)


def oracle_select(
    agent: Agent, question: str, query_vec: np.ndarray, min_keep: int | None
) -> list[OracleHit]:
    return oracle_rerank(
        oracle_retrieve(agent, question, query_vec), query_vec, agent.dense_index,
        agent.config.min_keep if min_keep is None else min_keep, agent.config.rerank_threshold,
    )


def hit_bits(hits) -> list[tuple]:
    """Hits with each score as its float64 bytes, so equal means bit-equal."""
    return [(h.chunk_id, struct.pack("<d", h.score), h.rank, h.method) for h in hits]


def assert_same_as_oracle(agent: Agent, question: str, query_vec: np.ndarray, min_keep) -> None:
    assert hit_bits(agent.retrieve(question, query_vec)) == hit_bits(
        oracle_retrieve(agent, question, query_vec)
    )
    assert hit_bits(agent.select_chunks(question, query_vec, min_keep)) == hit_bits(
        oracle_select(agent, question, query_vec, min_keep)
    )


def make_chunk(chunk_id: str, text: str) -> Chunk:
    return Chunk(chunk_id=chunk_id, doc_id=chunk_id.split(":")[0], text=text,
                 token_start=0, token_len=len(tokenize(text)))


def make_agent(
    matrix: np.ndarray, ids: list[str], texts: list[str], method: str, depth: int,
    min_keep: int, threshold: float = 0.3, bm25_order=None,
) -> Agent:
    """An agent whose dense row k and chunk k carry ``ids[k]``; the BM25
    index is built from the chunks in ``bm25_order``."""
    chunks = [make_chunk(cid, text) for cid, text in zip(ids, texts)]
    order = range(len(chunks)) if bm25_order is None else bm25_order
    config = AgentConfig(agent_id="a", retrieval_method=method, retrieval_depth=depth,
                         min_keep=min_keep, rerank_threshold=threshold)
    return Agent(config, chunks, DenseIndex(matrix, ids),
                 Bm25Index.build([chunks[k] for k in order]), None, None)


_VOCAB = ["alpha", "Beta", "gamma", "delta", "eps", "zeta", ".", ","]
_QUERY_VOCAB = _VOCAB + ["ALPHA", "Gamma", "unknown", "zzz"]


@st.composite
def query_cases(draw):
    """An agent whose dense rows are copies (some scaled by a power of two)
    of a few base vectors and whose chunk texts are a few texts used again,
    so cosines and BM25 weights tie; ids shuffled against row order and the
    BM25 index built in a third order; every method; a depth of 1, n - 1, n
    or n + 5; a question that may match no BM25 term, with its vector on a
    base vector or off them; and a ``min_keep`` override or none."""
    dim = draw(st.one_of(st.integers(1, 24), st.just(64)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 4)), dim)).astype(np.float32)
    picks = draw(st.lists(st.tuples(st.integers(0, len(base) - 1), st.integers(0, 2)),
                          min_size=1, max_size=30))
    n = len(picks)
    matrix = np.array([base[b] * np.float32(2.0**k) for b, k in picks], np.float32)
    words = st.lists(st.sampled_from(_VOCAB), min_size=1, max_size=8).map(" ".join)
    texts = draw(st.lists(words, min_size=1, max_size=4))
    uses = draw(st.lists(st.integers(0, len(texts) - 1), min_size=n, max_size=n))
    ids = [f"d{i % 3}:{i:05d}" for i in rng.permutation(n)]
    method = draw(st.sampled_from([DENSE, BM25, MIXTURE]))
    depth = draw(st.sampled_from([1, max(1, n - 1), n, n + 5]))
    agent = make_agent(
        matrix, ids, [texts[u] for u in uses], method, depth,
        min_keep=draw(st.integers(1, depth)),
        threshold=draw(st.sampled_from([0.3, 0.3, -1.0, 0.9])),
        bm25_order=rng.permutation(n),
    )
    vocab = ["unknown", "zzz"] if draw(st.booleans()) else _QUERY_VOCAB
    question = " ".join(draw(st.lists(st.sampled_from(vocab), max_size=6))) + "?"
    on_a_copy = draw(st.booleans())
    query_vec = base[draw(st.integers(0, len(base) - 1))] if on_a_copy else rng.normal(size=dim)
    min_keep = draw(st.sampled_from([None, 1, 2, depth, depth + 3]))
    return agent, question, query_vec, min_keep


class TestSelectChunksAgainstOracle:
    @given(query_cases())
    def test_same_hits_scores_ranks_and_methods(self, case):
        assert_same_as_oracle(*case)

    def test_routed_1hop_scale(self):
        """250 chunks of 1024 dimensions, as each agent of the routed-1hop
        benchmark holds; some rows repeat, so cosines tie on the cut."""
        rng = np.random.default_rng(20251018)
        n, dim = 250, 1024
        matrix = rng.normal(size=(n, dim)).astype(np.float32)
        matrix[200:] = matrix[rng.integers(0, 200, size=n - 200)]
        vocab = [f"w{i}" for i in range(300)]
        texts = [" ".join(rng.choice(vocab, size=128)) for _ in range(n)]
        ids = [f"doc{i // 10:03d}:{i % 10:05d}" for i in range(n)]
        questions = [(" ".join(rng.choice(vocab, size=8)) + "?", rng.normal(size=dim))
                     for _ in range(10)]
        questions += [("nothing here matches?", matrix[i].astype(np.float64)) for i in (0, 200)]
        for method in (DENSE, BM25, MIXTURE):
            agent = make_agent(matrix, ids, texts, method, depth=20, min_keep=5)
            for question, query_vec in questions:
                for min_keep in (None, 1, 12):
                    assert_same_as_oracle(agent, question, query_vec, min_keep)


class TestOneCosinePerChunk:
    @pytest.mark.parametrize("method", [DENSE, BM25, MIXTURE])
    def test_each_chunk_scored_once_and_the_query_normed_once(self, monkeypatch, method):
        rng = np.random.default_rng(5)
        n = 60
        texts = [" ".join(rng.choice(_VOCAB[:6], size=5)) for _ in range(n)]
        agent = make_agent(rng.normal(size=(n, 16)).astype(np.float32),
                           [f"d:{i:05d}" for i in range(n)], texts, method, depth=20, min_keep=20)
        scored: list[int] = []
        normed: list[np.ndarray] = []
        unit_rows = DenseIndex.unit_rows

        def counting_unit_rows(index, rows):
            scored.extend(np.ravel(rows).tolist())
            return unit_rows(index, rows)

        def counting_unit_query(query_vec):
            normed.append(query_vec)
            return unit_query(query_vec)

        monkeypatch.setattr(DenseIndex, "unit_rows", counting_unit_rows)
        monkeypatch.setattr(retrieval, "unit_query", counting_unit_query)
        kept = agent.select_chunks("alpha gamma zeta", rng.normal(size=16))
        assert len(kept) == 20
        assert len(scored) == len(set(scored)) >= 20
        assert len(normed) == 1
