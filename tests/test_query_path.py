"""``Agent.select_chunks`` against the retrieve -> fuse -> rerank composition
it replaced, kept here as the oracle: each stage's own body, one stage after
another, every stage scoring from scratch, with one record per hit. The
program's stages hand each other row arrays; ``ranked_hits`` turns those
into (chunk_id, score, rank, method) to compare."""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import Hit as OracleHit
from conftest import hit_bits, ranked_hits
from ragroute import retrieval
from ragroute.agent import Agent, AgentConfig
from ragroute.corpus import Chunk, tokenize
from ragroute.retrieval import (
    BM25,
    BM25_B,
    BM25_K1,
    DENSE,
    MIXTURE,
    RRF_K,
    Bm25Index,
    DenseIndex,
    UnitQuery,
    _screen_slack,
    bm25_search,
    dense_search,
    unit_query,
    unit_scores,
    unscored,
)
from test_setup_oracles import _ORACLE_TOKEN


def oracle_dense_search(index: DenseIndex, query_vec: np.ndarray, top_n: int) -> list[OracleHit]:
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        return []
    q = unit_query(query_vec)
    rows = np.arange(len(index))
    if top_n < len(index):
        approx = (index.rows @ q.astype(index._screen_dtype)) / index._norms
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
    row_of = {cid: row for row, cid in enumerate(index.chunk_ids)}
    rows = [row_of[h.chunk_id] for h in hits]
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
        return oracle_bm25_search(agent.bm25_index, _ORACLE_TOKEN.findall(question), depth)
    dense_hits = oracle_dense_search(agent.dense_index, query_vec, depth)
    bm25_hits = oracle_bm25_search(agent.bm25_index, _ORACLE_TOKEN.findall(question), depth)
    return oracle_mixture_search(dense_hits, bm25_hits, depth)


def oracle_select(
    agent: Agent, question: str, query_vec: np.ndarray, min_keep: int | None
) -> list[OracleHit]:
    return oracle_rerank(
        oracle_retrieve(agent, question, query_vec), query_vec, agent.dense_index,
        agent.config.min_keep if min_keep is None else min_keep, agent.config.rerank_threshold,
    )


def assert_same_as_oracle(agent: Agent, question: str, query_vec: np.ndarray, min_keep) -> None:
    """The retrieved and the kept rows, read as the agent's chunk ids, with
    their scores' bits, ranks and order, equal the oracle's hits."""
    query = UnitQuery(query_vec)
    retrieved = agent.retrieve(question, query, unscored(agent.dense_index))
    ids, method = [c.chunk_id for c in agent.chunks], agent.config.retrieval_method
    assert hit_bits(ranked_hits(ids, retrieved, method)) == hit_bits(
        oracle_retrieve(agent, question, query_vec)
    )
    kept = agent.select_chunks(question, query, min_keep)
    assert hit_bits(ranked_hits(ids, kept, method)) == hit_bits(
        oracle_select(agent, question, query_vec, min_keep)
    )


def make_chunk(chunk_id: str, text: str) -> Chunk:
    return Chunk(chunk_id=chunk_id, doc_id=chunk_id.split(":")[0], text=text,
                 token_start=0, token_len=len(tokenize(text)))


def make_agent(
    matrix: np.ndarray, ids: list[str], texts: list[str], method: str, depth: int,
    min_keep: int, threshold: float = 0.3,
) -> Agent:
    """An agent whose dense row k, chunk k and BM25 row k carry ``ids[k]``,
    which run in chunk_id order."""
    chunks = [make_chunk(cid, text) for cid, text in zip(ids, texts)]
    config = AgentConfig(agent_id="a", retrieval_method=method, retrieval_depth=depth,
                         min_keep=min_keep, rerank_threshold=threshold)
    return Agent(config, chunks, DenseIndex(matrix, ids), Bm25Index.build(chunks))


_VOCAB = ["alpha", "Beta", "gamma", "delta", "eps", "zeta", ".", ","]
_QUERY_VOCAB = _VOCAB + ["ALPHA", "Gamma", "unknown", "zzz"]


@st.composite
def query_cases(draw):
    """An agent whose dense rows are copies (some scaled by a power of two)
    of a few base vectors and whose chunk texts are a few texts used again,
    so cosines and BM25 weights tie; ids in chunk_id order, which
    interleaves the chunk numbers of three documents; every method; a depth
    of 1, n - 1, n or n + 5; a question that may match no BM25 term, with its vector on a
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
    ids = sorted(f"d{i % 3}:{i:05d}" for i in range(n))
    method = draw(st.sampled_from([DENSE, BM25, MIXTURE]))
    depth = draw(st.sampled_from([1, max(1, n - 1), n, n + 5]))
    agent = make_agent(
        matrix, ids, [texts[u] for u in uses], method, depth,
        min_keep=draw(st.integers(1, depth)),
        threshold=draw(st.sampled_from([0.3, 0.3, -1.0, 0.9])),
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
        kept = agent.select_chunks("alpha gamma zeta", UnitQuery(rng.normal(size=16)))
        assert len(kept.rows) == 20
        assert len(scored) == len(set(scored)) >= 20
        assert len(normed) == 1


class TestSelectChunksAtSize:
    """Agents of 2,000 rows, against the oracle, for every method."""

    N, DIM = 2000, 48

    @classmethod
    def indexes(cls, seed: int, far_rows: bool):
        """Rows drawn from 1,400 base vectors, each scaled by a power of two,
        so many rows repeat one direction; the first eight rows repeat one
        base vector, so a query on it ties on any cut below nine. With
        ``far_rows``, 50 rows sit at 2**70 scale, so the index screens in
        float64. Texts come from a pool of 1,300 with
        mixed-case words, so BM25 scores tie too."""
        rng = np.random.default_rng(seed)
        n, dim = cls.N, cls.DIM
        base = rng.normal(size=(1400, dim)).astype(np.float32)
        picks = np.concatenate([np.zeros(8, np.intp), rng.integers(0, len(base), n - 8)])
        scales = 2.0 ** rng.integers(-2, 4, n)
        if far_rows:
            scales[rng.choice(n, 50, replace=False)] = 2.0**70
        matrix = base[picks] * scales[:, None].astype(np.float32)
        vocab = [f"w{i}" for i in range(400)]
        pool = [
            " ".join(w.upper() if rng.random() < 0.2 else w for w in rng.choice(vocab, size=24))
            for _ in range(1300)
        ]
        texts = [pool[k] for k in rng.integers(0, len(pool), n)]
        ids = [f"d{i // 10:04d}:{i % 10:05d}" for i in range(n)]
        chunks = [make_chunk(cid, text) for cid, text in zip(ids, texts)]
        dense = DenseIndex(matrix, ids)
        assert dense._screen_dtype == (np.float64 if far_rows else np.float32)
        bm25 = Bm25Index.build(chunks)
        questions = [
            ("w1 W1 w1 w7 W300 w7?", base[0].astype(np.float64)),
            ("W12 w12 w12 w12 w5 w399?", rng.normal(size=dim)),
            ("w3 w4 w5 W6 w7 w8 w9 w10 w11?", 3.0 * base[picks[100]]),
            ("nothing Here matches?", matrix[17].astype(np.float64)),
            ("W2 W2 W250 W250?", matrix[0] * 2.0**-50),
        ]
        return chunks, dense, bm25, questions

    @pytest.mark.parametrize("far_rows", [False, True])
    @pytest.mark.parametrize("method", [DENSE, BM25, MIXTURE])
    def test_same_hits_scores_ranks_and_methods(self, method, far_rows):
        chunks, dense, bm25, questions = self.indexes(2000 + far_rows, far_rows)
        n = self.N
        for depth, overrides in ((3, (None, 1, 3)), (20, (None, 1, 12, 20)), (n, (None, 25, n)),
                                 (n + 5, (None, n + 5))):
            config = AgentConfig(agent_id="a", retrieval_method=method, retrieval_depth=depth,
                                 min_keep=min(5, depth))
            agent = Agent(config, chunks, dense, bm25)
            for question, query_vec in questions:
                for min_keep in overrides:
                    assert_same_as_oracle(agent, question, query_vec, min_keep)


def brute_dense_search(index: DenseIndex, query_vec: np.ndarray, top_n: int) -> list[OracleHit]:
    """Brute force: every row's exact cosine, no screen, in one full sort by
    (-score, chunk_id)."""
    sims = unit_scores(index.unit_rows(np.arange(len(index))), unit_query(query_vec)).tolist()
    ids = index.chunk_ids
    order = sorted(range(len(ids)), key=lambda k: (-sims[k], ids[k]))[:top_n]
    return [OracleHit(ids[k], sims[k], r, DENSE) for r, k in enumerate(order, 1)]


def brute_bm25_search(chunks: list[Chunk], query_tokens: list[str], top_n: int) -> list[OracleHit]:
    """Brute force from the texts: each chunk's Okapi BM25 score in Python
    floats, its terms counted by the token regex, the query tokens'
    weights added in query order; chunks sharing no query term are left out,
    the rest fully sorted by (-score, chunk_id)."""
    tfs = {c.chunk_id: Counter(t.lower() for t in _ORACLE_TOKEN.findall(c.text)) for c in chunks}
    n = len(tfs)
    avg_len = sum(sum(tf.values()) for tf in tfs.values()) / n
    df = Counter(term for tf in tfs.values() for term in tf)
    scores: dict[str, float] = {}
    for term in (t.lower() for t in query_tokens):
        if not df[term]:
            continue
        idf = math.log(1.0 + (n - df[term] + 0.5) / (df[term] + 0.5))
        for chunk_id, tf in tfs.items():
            f = tf.get(term)
            if f:
                dl = sum(tf.values())
                denom = f + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg_len)
                scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * f * (BM25_K1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:top_n]
    return [OracleHit(cid, score, r, BM25) for r, (cid, score) in enumerate(ranked, 1)]


@st.composite
def searches_at_size(draw):
    """2,000 to 2,400 chunks. Dense rows are copies of a few hundred base
    vectors, some scaled by a power of two, so many rows tie exactly, and
    some copies are one float32 step off, so they nearly tie; chunk
    texts come from a pool of a few hundred, so BM25 scores tie too. The
    query lies on a base vector or off them, and its tokens
    may repeat, change case or match nothing."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2000, 2400))
    dim = draw(st.sampled_from([2, 16, 48, 256]))
    base = rng.normal(size=(draw(st.integers(50, 600)), dim)).astype(np.float32)
    picks = rng.integers(0, len(base), n)
    scales = 2.0 ** rng.integers(-3, 4, n)
    matrix = base[picks] * scales[:, None].astype(np.float32)
    # a tenth of the rows one float32 step off a copy, so exact scores
    # nearly tie and the float32 screen may order them wrongly
    nudged = rng.choice(n, n // 10, replace=False)
    cols = rng.integers(0, dim, len(nudged))
    matrix[nudged, cols] = np.nextafter(matrix[nudged, cols], np.float32(np.inf))
    vocab = [f"w{i}" for i in range(draw(st.integers(20, 400)))]
    pool = [" ".join(w.upper() if rng.random() < 0.2 else w for w in rng.choice(vocab, size=k))
            for k in rng.integers(1, 30, draw(st.integers(40, 500)))]
    texts = [pool[k] for k in rng.integers(0, len(pool), n)]
    ids = [f"d{i // 10:04d}:{i % 10:05d}" for i in range(n)]
    chunks = [make_chunk(cid, text) for cid, text in zip(ids, texts)]
    words = st.sampled_from(vocab[:5] + [vocab[-1].upper(), "zzz", "?"])
    question = " ".join(draw(st.lists(words, min_size=1, max_size=8)))
    if draw(st.booleans()):
        query_vec = base[draw(st.integers(0, len(base) - 1))].astype(np.float64)
    else:
        query_vec = rng.normal(size=dim)
    top_n = draw(st.sampled_from([1, 2, 10, 100, n - 1, n, n + 5]))
    return chunks, matrix, question, query_vec, top_n


class TestSearchAtSize:
    """``dense_search`` and ``bm25_search`` alone, at 2,000 rows and more,
    against brute force, bit for bit."""

    @settings(max_examples=12)
    @given(searches_at_size())
    def test_dense_search_is_the_brute_force_top_n(self, case):
        chunks, matrix, _, query_vec, top_n = case
        index = DenseIndex(matrix, [c.chunk_id for c in chunks])
        ranked = dense_search(index, UnitQuery(query_vec), top_n, unscored(index))
        assert hit_bits(ranked_hits(index.chunk_ids, ranked, DENSE)) == hit_bits(
            brute_dense_search(index, query_vec, top_n)
        )

    @settings(max_examples=12)
    @given(searches_at_size())
    def test_bm25_search_is_the_brute_force_top_n(self, case):
        chunks, _, question, _, top_n = case
        index = Bm25Index.build(chunks)
        ranked = bm25_search(index, tokenize(question), top_n)
        assert hit_bits(ranked_hits(index.chunk_ids, ranked, BM25)) == hit_bits(
            brute_bm25_search(chunks, _ORACLE_TOKEN.findall(question), top_n)
        )
