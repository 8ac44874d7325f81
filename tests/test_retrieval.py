from __future__ import annotations

import json
import math
import random
import re
import sys
import tempfile
import threading
import tracemalloc
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from conftest import Hit, cosine_similarity, hit_bits, ranked_hits
from ragroute.corpus import Chunk, tokenize
from ragroute.retrieval import (
    BM25_B,
    BM25_K1,
    NO_HITS,
    Bm25Index,
    DenseIndex,
    Ranked,
    UnitQuery,
    bm25_search,
    dense_search,
    mixture_search,
    rerank,
    unit_query,
    unit_scores,
    unscored,
)
from ragroute.store import IndexFileError, save_vectors
from test_setup_oracles import _ORACLE_TOKEN


def make_chunk(chunk_id: str, text: str) -> Chunk:
    return Chunk(chunk_id=chunk_id, doc_id=chunk_id.split(":")[0], text=text,
                 token_start=0, token_len=len(tokenize(text)))


def random_index(
    rng: np.random.Generator, n: int, dim: int = 8
) -> tuple[DenseIndex, np.ndarray]:
    """A random index and the matrix it was built from."""
    matrix = rng.normal(size=(n, dim)).astype(np.float32)
    return DenseIndex(matrix, [f"c:{i:05d}" for i in range(n)]), matrix


def dense_hits(index: DenseIndex, query: np.ndarray, top_n: int) -> list[Hit]:
    """``dense_search`` as hits: its rows are the index's rows."""
    ranked = dense_search(index, UnitQuery(query), top_n, unscored(index))
    return ranked_hits(index.chunk_ids, ranked, "dense")


def bm25_hits(index: Bm25Index, query_tokens: list[str], top_n: int) -> list[Hit]:
    """``bm25_search`` as hits: its rows are the index's rows."""
    return ranked_hits(index.chunk_ids, bm25_search(index, query_tokens, top_n), "bm25")


def full_scan_oracle(
    matrix: np.ndarray, chunk_ids: list[str], query: np.ndarray, top_n: int
) -> list[str]:
    """Oracle: score every input row with the cosine oracle, stable sort."""
    scored = [(cosine_similarity(row, query), cid) for row, cid in zip(matrix, chunk_ids)]
    scored.sort(key=lambda t: (-t[0], t[1]))
    return [cid for _, cid in scored[:top_n]]


@st.composite
def tied_indexes(draw):
    """Rows that are copies (some scaled by a power of two) of a few base
    vectors, in any order, so equal scores often straddle ``top_n``."""
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 4)), dim))
    picks = st.tuples(st.integers(0, len(base) - 1), st.integers(0, 3))
    copies = draw(st.lists(picks, min_size=1, max_size=60))
    matrix = np.array([base[b] * 2.0**k for b, k in copies], dtype=np.float32)
    ids = [f"c:{i:05d}" for i in range(len(copies))]
    on_a_copy = draw(st.booleans())
    query = base[draw(st.integers(0, len(base) - 1))] if on_a_copy else rng.normal(size=dim)
    return matrix, ids, query, draw(st.integers(1, len(copies) + 2))


def f64_dense_search(
    matrix: np.ndarray, chunk_ids: list[str], query: np.ndarray, top_n: int
) -> list[Hit]:
    """Oracle: dense search as it ran on one float64 unit matrix, screened by
    a float64 BLAS product with 4 * d * eps slack, then re-scored with
    ``unit_scores`` and sorted by (-score, chunk_id)."""
    exact = np.asarray(matrix, dtype=np.float32).astype(np.float64)
    unit = exact / np.linalg.norm(exact, axis=1)[:, None]
    q = unit_query(query)
    rows = range(len(chunk_ids))
    if top_n < len(chunk_ids):
        approx = unit @ q
        cut = np.partition(approx, len(approx) - top_n)[len(approx) - top_n]
        rows = np.flatnonzero(approx >= cut - 4 * q.shape[0] * np.finfo(np.float64).eps).tolist()
        unit = unit[rows]
    sims = unit_scores(unit, q).tolist()
    ids = [chunk_ids[i] for i in rows]
    order = sorted(range(len(ids)), key=lambda k: (-sims[k], ids[k]))[:top_n]
    return [Hit(ids[k], sims[k], r, "dense") for r, k in enumerate(order, 1)]


@st.composite
def near_tied_indexes(draw):
    """Copies of a few base vectors, some scaled by a power of two (equal
    unit rows) and some moved one float32 ulp on one axis, in any order, a
    query on a copy or off it, and top_n in
    {1, n - 1, n, n + 5}. Now and then every row sits far from unit scale
    (subnormal at 2**-140, or at 2**100), where the index screens in
    float64."""
    dim = draw(st.one_of(st.integers(1, 48), st.sampled_from([384, 1024])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 4)), dim)).astype(np.float32)
    picks = st.tuples(st.integers(0, len(base) - 1), st.integers(0, 3), st.booleans())
    rows = []
    for b, k, nudge in draw(st.lists(picks, min_size=1, max_size=60)):
        row = base[b] * np.float32(2.0**k)
        if nudge:
            axis = draw(st.integers(0, dim - 1))
            row[axis] = np.nextafter(row[axis], np.float32(np.inf), dtype=np.float32)
        rows.append(row)
    scale = draw(st.sampled_from([1.0] * 6 + [2.0**-140, 2.0**100]))
    matrix = np.array(rows, dtype=np.float32) * np.float32(scale)
    n = len(rows)
    ids = [f"c:{i:05d}" for i in range(n)]
    on_a_copy = draw(st.booleans())
    query = base[draw(st.integers(0, len(base) - 1))] if on_a_copy else rng.normal(size=dim)
    return matrix, ids, query, draw(st.sampled_from([1, max(1, n - 1), n, n + 5]))


class TestDenseIndex:
    def test_load_holds_float32_rows_and_float64_norms(self, tmp_path):
        rows, dim = 1000, 256
        matrix = np.random.default_rng(7).normal(size=(rows, dim)).astype(np.float32)
        save_vectors(tmp_path / "v", matrix, [f"c:{i:05d}" for i in range(rows)])
        tracemalloc.start()
        try:
            index = DenseIndex.load(tmp_path / "v")
            held, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(index) == rows
        # the float32 rows read from disk and one float64 norm per row
        assert held < 0.6 * rows * dim * 8
        # Building allocates no temporary near the size of the index on top
        # of the float32 rows read from disk.
        assert peak - rows * dim * 4 < 1.5 * rows * dim * 8
        # ... and normalises to the same bits as one np.linalg.norm over all rows
        exact = matrix.astype(np.float64)
        want = exact / np.linalg.norm(exact, axis=1)[:, None]
        assert np.array_equal(index.unit_rows(np.arange(rows)), want)

    @pytest.mark.parametrize("value", [0.0, float("nan"), float("inf")])
    def test_row_zero_or_not_finite_raises_naming_it(self, value):
        matrix = np.ones((3, 4), np.float32)
        matrix[1, 0 if value else slice(None)] = value
        with pytest.raises(ValueError, match=r"row 1 \('c:00001'\) is zero or not finite"):
            DenseIndex(matrix, ["c:00000", "c:00001", "c:00002"])


class TestDenseSearch:
    def test_single_chunk_index(self):
        index = DenseIndex(np.array([[1.0, 2.0]], np.float32), ["only:00000"])
        hits = dense_hits(index, np.array([0.5, 0.1]), top_n=3)
        assert [h.chunk_id for h in hits] == ["only:00000"]
        assert hits[0].rank == 1

    def test_query_equal_to_stored_embedding(self):
        rng = np.random.default_rng(3)
        index, matrix = random_index(rng, 10)
        query = matrix[4]
        hits = dense_hits(index, query, top_n=1)
        assert hits[0].chunk_id == index.chunk_ids[4]
        assert hits[0].score == pytest.approx(1.0, abs=1e-6)

    def test_matches_full_scan_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            index, matrix = random_index(rng, 50)
            query = rng.normal(size=8)
            got = [h.chunk_id for h in dense_hits(index, query, top_n=10)]
            assert got == full_scan_oracle(matrix, index.chunk_ids, query, 10)

    def test_oracle_equivalence_up_to_thousand_chunks(self):
        rng = np.random.default_rng(23)
        index, matrix = random_index(rng, 1000)
        query = rng.normal(size=8)
        got = [h.chunk_id for h in dense_hits(index, query, top_n=25)]
        assert got == full_scan_oracle(matrix, index.chunk_ids, query, 25)

    @given(tied_indexes())
    def test_ties_on_the_cut_match_oracle(self, case):
        matrix, ids, query, top_n = case
        got = [h.chunk_id for h in dense_hits(DenseIndex(matrix, ids), query, top_n)]
        assert got == full_scan_oracle(matrix, ids, query, top_n)

    @given(near_tied_indexes())
    def test_same_hits_and_score_bits_as_float64_unit_matrix(self, case):
        matrix, ids, query, top_n = case
        got = dense_hits(DenseIndex(matrix, ids), query, top_n)
        assert hit_bits(got) == hit_bits(f64_dense_search(matrix, ids, query, top_n))

    @pytest.mark.parametrize("top_n", [1, 2])
    def test_row_whose_float32_product_overflows(self, top_n):
        matrix = np.array([[3e38, 3e38], [1.0, 0.9], [0.1, 1.0]], np.float32)
        ids = ["c:00000", "c:00001", "c:00002"]
        query = np.array([1.0, 0.9])
        got = dense_hits(DenseIndex(matrix, ids), query, top_n)
        assert got[0].chunk_id == "c:00001"
        assert hit_bits(got) == hit_bits(f64_dense_search(matrix, ids, query, top_n))

    def test_empty_index(self):
        index = DenseIndex(np.zeros((0, 4), np.float32), [])
        assert dense_hits(index, np.ones(4), top_n=5) == []

    def test_scores_non_increasing_ranks_gapless(self):
        rng = np.random.default_rng(5)
        index, _ = random_index(rng, 30)
        hits = dense_hits(index, rng.normal(size=8), top_n=30)
        assert [h.rank for h in hits] == list(range(1, 31))
        assert all(a.score >= b.score for a, b in zip(hits, hits[1:]))


def hand_bm25_single_doc(tf: int, doc_len: int, n_query_occurrences: int = 1) -> float:
    """Oracle for a one-chunk corpus: the full formula written out by hand."""
    k1, b = 1.2, 0.75
    idf = math.log(1 + (1 - 1 + 0.5) / (1 + 0.5))
    tf_part = tf * (k1 + 1) / (tf + k1 * (1 - b + b * doc_len / doc_len))
    return n_query_occurrences * idf * tf_part


class TestBm25Search:
    def test_absent_term_returns_empty(self):
        index = Bm25Index.build([make_chunk("d:00000", "a b c")])
        assert bm25_hits(index, ["zzz"], top_n=5) == []

    def test_empty_query_returns_empty(self):
        index = Bm25Index.build([make_chunk("d:00000", "a b")])
        assert bm25_hits(index, [], top_n=5) == []

    def test_single_chunk_hand_computed_score(self):
        index = Bm25Index.build([make_chunk("d:00000", "a b")])
        hits = bm25_hits(index, ["a"], top_n=5)
        assert len(hits) == 1
        assert hits[0].score == pytest.approx(hand_bm25_single_doc(tf=1, doc_len=2), rel=1e-12)

    def test_duplicate_query_terms_accumulate(self):
        index = Bm25Index.build(
            [make_chunk("d:00000", "a b c"), make_chunk("d:00001", "a a b")]
        )
        once = bm25_hits(index, ["a"], top_n=5)
        twice = bm25_hits(index, ["a", "a"], top_n=5)
        assert [h.chunk_id for h in once] == [h.chunk_id for h in twice]
        for h1, h2 in zip(once, twice):
            assert h2.score == pytest.approx(2 * h1.score, rel=1e-12)

    def test_naive_accumulation_oracle(self):
        chunks = [
            make_chunk("d:00000", "cat dog cat"),
            make_chunk("d:00001", "dog bird"),
            make_chunk("d:00002", "cat fish fish fish"),
        ]
        index = Bm25Index.build(chunks)
        query = ["cat", "fish", "cat"]
        k1, b = 1.2, 0.75
        n = len(chunks)
        avg = sum(len(_ORACLE_TOKEN.findall(c.text)) for c in chunks) / n

        def naive_score(chunk: Chunk) -> float:
            toks = [t.lower() for t in _ORACLE_TOKEN.findall(chunk.text)]
            score = 0.0
            for term in query:
                tf = toks.count(term)
                if tf == 0:
                    continue
                df = sum(1 for c in chunks if term in _ORACLE_TOKEN.findall(c.text))
                idf = math.log(1 + (n - df + 0.5) / (df + 0.5))
                score += idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * len(toks) / avg))
            return score

        expected = sorted(
            ((naive_score(c), c.chunk_id) for c in chunks if naive_score(c) > 0),
            key=lambda t: (-t[0], t[1]),
        )
        got = bm25_hits(index, query, top_n=5)
        assert [h.chunk_id for h in got] == [cid for _, cid in expected]
        for hit, (score, _) in zip(got, expected):
            assert hit.score == pytest.approx(score, rel=1e-12)

    def test_disjoint_chunks_leave_tf_part_untouched(self):
        # Added chunks share no terms with the query, so the query terms' df
        # stays fixed. With Okapi idf the corpus size still moves the score;
        # the per-chunk tf factor must be byte-identical, which shows as one
        # global idf ratio, and the ranking must not change. Chunk lengths
        # equal the old average so avgdl stays fixed too.
        base = [make_chunk("d:00000", "apple banana"), make_chunk("d:00001", "apple pear")]
        extended = base + [make_chunk("d:00002", "zebra yak"), make_chunk("d:00003", "newt gar")]
        before = {h.chunk_id: h.score for h in bm25_hits(Bm25Index.build(base), ["apple"], 5)}
        after = {
            h.chunk_id: h.score
            for h in bm25_hits(Bm25Index.build(extended), ["apple"], 5)
        }
        assert set(before) == set(after)
        idf_ratio = Bm25Index.build(extended).idf("apple") / Bm25Index.build(base).idf("apple")
        for chunk_id in before:
            assert after[chunk_id] == pytest.approx(before[chunk_id] * idf_ratio, rel=1e-12)
        order_before = sorted(before, key=lambda c: (-before[c], c))
        order_after = sorted(after, key=lambda c: (-after[c], c))
        assert order_before == order_after

    def test_ties_break_by_chunk_id(self):
        index = Bm25Index.build([make_chunk("d:00000", "a b"), make_chunk("d:00001", "a b")])
        hits = bm25_hits(index, ["a"], top_n=2)
        assert [h.chunk_id for h in hits] == ["d:00000", "d:00001"]

    @pytest.mark.parametrize(
        "ids, message",
        [
            ("d:00001 d:00000", "chunk ids are not sorted and unique at 'd:00000'"),
            ("d:0 d:2 d:1", "chunk ids are not sorted and unique at 'd:1'"),
            ("d:00000 d:00001 d:00000", "chunk ids are not sorted and unique at 'd:00000'"),
            ("d:00000 d:00000", "chunk ids are not sorted and unique at 'd:00000'"),
        ],
    )
    def test_build_refuses_chunks_out_of_chunk_id_order(self, ids, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            Bm25Index.build([make_chunk(c, "a b") for c in ids.split()])


def dict_postings(chunks: list[Chunk]) -> tuple[dict[str, dict[str, int]], dict[str, int]]:
    """Oracle: the BM25 index as term -> {chunk_id: tf} and chunk_id ->
    token count, built chunk by chunk with a Counter of lowered tokens."""
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for chunk in chunks:
        terms = [t.lower() for t in _ORACLE_TOKEN.findall(chunk.text)]
        doc_len[chunk.chunk_id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, {})[chunk.chunk_id] = tf
    return postings, doc_len


def dict_bm25_search(
    dicts: tuple[dict[str, dict[str, int]], dict[str, int]], query_tokens: list[str], top_n: int
) -> list[Hit]:
    """Oracle: BM25 as it ran posting by posting over ``dict_postings``,
    summing each chunk's score in a dict and sorting by (-score, chunk_id)."""
    postings, doc_len = dicts
    n = len(doc_len)
    avg_len = sum(doc_len.values()) / n
    scores: dict[str, float] = {}
    for term in (t.lower() for t in query_tokens):
        posting = postings.get(term)
        if not posting:
            continue
        idf = math.log(1.0 + (n - len(posting) + 0.5) / (len(posting) + 0.5))
        for chunk_id, tf in posting.items():
            dl = doc_len[chunk_id]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / avg_len)
            scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * tf * (BM25_K1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        Hit(chunk_id=cid, score=score, rank=r, method="bm25")
        for r, (cid, score) in enumerate(ranked[:top_n], 1)
    ]


def write_bm25(path: Path, terms, chunk_ids, offsets, rows, tf, doc_len, n_postings=None) -> None:
    """Write a BM25 manifest and ``.bin`` as given, unchecked."""
    arrays = zip(("<i8", "<i4", "<i4", "<i4"), (offsets, rows, tf, doc_len))
    path.with_suffix(".bin").write_bytes(b"".join(np.asarray(a, dt).tobytes() for dt, a in arrays))
    manifest = {"chunk_ids": chunk_ids, "terms": terms,
                "n_postings": len(rows) if n_postings is None else n_postings}
    path.write_text(json.dumps(manifest), encoding="utf-8")


_BM25_VOCAB = ["alpha", "Beta", "gamma", "delta", "eps", "zeta", "eta", ".", ","]
_BM25_QUERY_VOCAB = _BM25_VOCAB + ["ALPHA", "Gamma", "unknown", "zzz"]


@st.composite
def bm25_corpora(draw):
    """A few texts, each used by one or more chunks (equal texts score
    equally and tie), in chunk_id order, which interleaves the chunk
    numbers of three documents."""
    words = st.lists(st.sampled_from(_BM25_VOCAB), min_size=1, max_size=12)
    texts = draw(st.lists(words.map(" ".join), min_size=1, max_size=6))
    uses = draw(st.lists(st.integers(0, len(texts) - 1), min_size=1, max_size=24))
    chunks = [make_chunk(f"d{i % 3}:{i:05d}", texts[t]) for i, t in enumerate(uses)]
    return sorted(chunks, key=lambda c: c.chunk_id)


def bm25_queries():
    return st.lists(st.sampled_from(_BM25_QUERY_VOCAB), max_size=8)


def top_ns(n: int):
    return st.sampled_from([1, max(1, n - 1), n, n + 5])


class TestBm25ArraysAgainstDictOracle:
    @given(bm25_corpora(), bm25_queries(), bm25_queries(), st.data())
    def test_cold_and_warm_queries_match_bit_for_bit(self, chunks, query, second, data):
        index = Bm25Index.build(chunks)
        top_n = data.draw(top_ns(len(chunks)))
        for q in (query, second, query):
            assert hit_bits(bm25_hits(index, q, top_n)) == hit_bits(
                dict_bm25_search(dict_postings(chunks), q, top_n)
            )

    @given(bm25_corpora(), bm25_queries(), st.data())
    def test_loaded_copy_matches_bit_for_bit(self, chunks, query, data):
        built = Bm25Index.build(chunks)
        with tempfile.TemporaryDirectory() as tmp:
            built.save(Path(tmp) / "bm25.json")
            loaded = Bm25Index.load(Path(tmp) / "bm25.json")
        postings, doc_len = dict_postings(chunks)
        assert loaded.chunk_ids == built.chunk_ids == sorted(doc_len)
        assert loaded.doc_len.tolist() == [doc_len[c] for c in loaded.chunk_ids]
        assert loaded.terms == sorted(postings)
        for term, posting in postings.items():
            rows = loaded.postings.get(term)
            assert [loaded.chunk_ids[r] for r in rows] == sorted(posting)
        top_n = data.draw(top_ns(len(chunks)))
        want = hit_bits(dict_bm25_search((postings, doc_len), query, top_n))
        assert hit_bits(bm25_hits(loaded, query, top_n)) == want
        assert hit_bits(bm25_hits(built, query, top_n)) == want

    def test_load_builds_no_term_arrays_and_a_query_only_its_own(self, tmp_path):
        chunks = [make_chunk("d:00000", "b c d"), make_chunk("d:00001", "a b c")]
        Bm25Index.build(chunks).save(tmp_path / "bm25.json")
        index = Bm25Index.load(tmp_path / "bm25.json")
        assert index._weights == {}
        bm25_hits(index, ["B", "zzz", "b"], top_n=2)
        assert set(index._weights) == {"b"}

    def test_threads_sharing_a_fresh_index_get_the_sequential_hits(self):
        rng = random.Random(11)
        vocab = [f"w{i}" for i in range(60)]
        chunks = sorted(
            (make_chunk(f"d:{i:05d}", " ".join(rng.choices(vocab, k=rng.randint(1, 30))))
             for i in rng.sample(range(400), 400)),
            key=lambda c: c.chunk_id,
        )
        queries = [rng.choices(vocab, k=rng.randint(1, 6)) for _ in range(40)]
        want = [hit_bits(bm25_hits(Bm25Index.build(chunks), q, 10)) for q in queries]
        shared = Bm25Index.build(chunks)
        start = threading.Barrier(8, timeout=60)
        got: list = [None] * 8

        def worker(k: int) -> None:
            # Every thread asks the same questions in the same order, so they
            # race to store each term's arrays.
            start.wait()
            got[k] = [hit_bits(bm25_hits(shared, q, 10)) for q in queries]

        threads = [threading.Thread(target=worker, args=(k,)) for k in range(8)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert got == [want] * 8

    def test_routed_size_index_matches_bit_for_bit(self, tmp_path):
        """One agent of the routed single-hop benchmark's size: 250 chunks of
        128 tokens over a 1500-word vocabulary, 60 questions."""
        rng = random.Random(16)
        vocab = [f"w{i}" for i in range(1500)] + ["W7", ".", ",", "?", "Caf\xe9"]
        chunks = sorted(
            (make_chunk(f"d{i // 10:02d}:{i % 10:05d}", " ".join(rng.choices(vocab, k=128)))
             for i in rng.sample(range(250), 250)),
            key=lambda c: c.chunk_id,
        )
        Bm25Index.build(chunks).save(tmp_path / "bm25.json")
        loaded = Bm25Index.load(tmp_path / "bm25.json")
        dicts = dict_postings(chunks)
        for _ in range(60):
            query = rng.choices(vocab, k=rng.randint(1, 12))
            want = hit_bits(dict_bm25_search(dicts, query, 20))
            assert hit_bits(bm25_hits(loaded, query, 20)) == want

    def test_posting_naming_a_chunk_without_length_raises(self, tmp_path):
        write_bm25(tmp_path / "bm25.json", ["a"], ["c:00000"], [0, 2], [0, 1], [1, 2], [3])
        with pytest.raises(IndexFileError, match=r"bm25\.json with bm25\.bin: .*outside \[0, 1\)"):
            Bm25Index.load(tmp_path / "bm25.json")

    def test_zero_average_length_raises_instead_of_ranking_nan(self, tmp_path):
        write_bm25(tmp_path / "bm25.json", ["a"], ["c:00000"], [0, 1], [0], [1], [0])
        with pytest.raises(IndexFileError, match="'c:00000' has length 0, .* sum to 1"):
            Bm25Index.load(tmp_path / "bm25.json")


def fuse(dense_ids: list[str], sparse_ids: list[str], top_n: int) -> list[Hit]:
    """``mixture_search`` over two rankings of chunk ids, each best first,
    as hits; the row space is the ids in sorted order."""
    space = sorted(set(dense_ids) | set(sparse_ids))
    row = {cid: r for r, cid in enumerate(space)}

    def ranked(ids):
        return Ranked(np.array([row[c] for c in ids], np.intp), np.ones(len(ids)))

    fused = mixture_search(ranked(dense_ids), ranked(sparse_ids), top_n)
    return ranked_hits(space, fused, "mixture")


class TestMixtureSearch:
    def test_identical_lists_double_score(self):
        ids = ["a", "b", "c"]
        fused = fuse(ids, ids, top_n=3)
        assert [h.chunk_id for h in fused] == ["a", "b", "c"]
        for h, rank in zip(fused, (1, 2, 3)):
            assert h.score == pytest.approx(2.0 / (60 + rank), rel=1e-12)
            assert h.method == "mixture"

    def test_doubly_ranked_chunk_beats_single_rank_one(self):
        fused = fuse(["solo", "both"], ["other", "both"], top_n=3)
        assert fused[0].chunk_id == "both"
        assert fused[0].score == pytest.approx(2 / 62, rel=1e-12)
        assert 1 / 61 < 2 / 62

    def test_one_empty_list_preserves_other_order(self):
        fused = fuse(["x", "y", "z"], [], top_n=3)
        assert [h.chunk_id for h in fused] == ["x", "y", "z"]
        assert mixture_search(NO_HITS, NO_HITS, 3) is NO_HITS

    def test_input_list_order_is_irrelevant(self):
        dense, sparse = ["a", "b"], ["b", "c"]
        assert hit_bits(fuse(dense, sparse, 3)) == hit_bits(fuse(sparse, dense, 3))

    def test_rank_is_the_place_in_the_list_not_the_row(self):
        # rows 2, 0, 1 ranked in that order: the row number plays no part
        fused = fuse(["c", "a", "b"], [], 3)
        assert [(h.chunk_id, h.score) for h in fused] == [
            ("c", 1.0 / 61), ("a", 1.0 / 62), ("b", 1.0 / 63)
        ]

    def test_direct_arithmetic_oracle(self):
        rng = random.Random(99)
        for _ in range(50):
            ids = [f"c{i}" for i in range(rng.randint(1, 12))]
            dense_ids = rng.sample(ids, k=rng.randint(0, len(ids)))
            sparse_ids = rng.sample(ids, k=rng.randint(0, len(ids)))
            expected: dict[str, float] = {}
            for lst in (dense_ids, sparse_ids):
                for r, c in enumerate(lst, 1):
                    expected[c] = expected.get(c, 0.0) + 1.0 / (60 + r)
            want = sorted(expected.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
            got = fuse(dense_ids, sparse_ids, top_n=5)
            assert [(h.chunk_id, h.score) for h in got] == want


def rerank_hits(
    index: DenseIndex, query: np.ndarray, chunk_ids: list[str], min_keep: int,
    keep_threshold: float = 0.3,
) -> list[Hit]:
    """``rerank`` of the hits ``chunk_ids``, best first, as hits scored from
    the cosine array it fills."""
    row = {cid: r for r, cid in enumerate(index.chunk_ids)}
    cosines = unscored(index)
    kept = rerank(np.array([row[c] for c in chunk_ids], np.intp), UnitQuery(query), index,
                  min_keep, keep_threshold, cosines)
    return ranked_hits(index.chunk_ids, Ranked(kept, cosines[kept]), "dense")


class TestRerank:
    def _index_and_query(self, sims: list[float]) -> tuple[DenseIndex, np.ndarray]:
        """Build 2-D vectors with prescribed cosine similarity to query (1, 0)."""
        rows = [[s, math.sqrt(max(0.0, 1 - s * s))] for s in sims]
        index = DenseIndex(np.array(rows, np.float32), [f"c:{i:05d}" for i in range(len(sims))])
        return index, np.array([1.0, 0.0])

    def test_all_above_threshold_kept_in_similarity_order(self):
        index, query = self._index_and_query([0.9, 0.5, 0.7])
        kept = rerank_hits(index, query, index.chunk_ids, min_keep=1, keep_threshold=0.3)
        assert [h.chunk_id for h in kept] == ["c:00000", "c:00002", "c:00001"]
        assert [h.rank for h in kept] == [1, 2, 3]

    def test_floor_rule_when_all_below_threshold(self):
        sims = [0.1, 0.05, 0.2, 0.15, 0.12, 0.01, 0.08, 0.18]
        index, query = self._index_and_query(sims)
        kept = rerank_hits(index, query, index.chunk_ids, min_keep=5, keep_threshold=0.3)
        assert len(kept) == 5
        top5 = sorted(range(len(sims)), key=lambda i: (-sims[i], f"c:{i:05d}"))[:5]
        assert [h.chunk_id for h in kept] == [f"c:{i:05d}" for i in top5]

    def test_mixed_case_matches_filter_then_top_up_oracle(self):
        rng = random.Random(42)
        for _ in range(50):
            sims = [round(rng.uniform(0, 1), 3) for _ in range(rng.randint(1, 12))]
            index, query = self._index_and_query(sims)
            min_keep = rng.randint(1, 8)
            got = rerank_hits(index, query, index.chunk_ids, min_keep=min_keep, keep_threshold=0.3)
            ranked = sorted(
                ((sims[i], f"c:{i:05d}") for i in range(len(sims))),
                key=lambda t: (-t[0], t[1]),
            )
            passing = [c for s, c in ranked if s >= 0.3 - 1e-9]
            floor = min(min_keep, len(sims))
            expected = passing if len(passing) >= floor else [c for _, c in ranked[:floor]]
            assert [h.chunk_id for h in got] == expected

    def test_a_score_equal_to_the_threshold_is_kept(self):
        index = DenseIndex(np.array([[1, 0], [2, 0], [0, 1]], np.float32),
                           ["c:00000", "c:00001", "c:00002"])
        kept = rerank_hits(index, np.array([3.0, 0.0]), index.chunk_ids, min_keep=1,
                           keep_threshold=1.0)
        assert [(h.chunk_id, h.score) for h in kept] == [("c:00000", 1.0), ("c:00001", 1.0)]

    def test_never_fewer_than_floor(self):
        index, query = self._index_and_query([0.0, 0.0, 0.0])
        assert len(rerank_hits(index, query, index.chunk_ids, min_keep=5)) == 3
        assert len(rerank_hits(index, query, index.chunk_ids, min_keep=2)) == 2

    def test_empty_hits(self):
        index, query = self._index_and_query([0.5])
        kept = rerank(np.empty(0, np.intp), UnitQuery(query), index, 3, 0.3, unscored(index))
        assert len(kept) == 0

    @given(
        st.integers(1, 1024),
        st.integers(1, 40),
        st.integers(0, 2**32 - 1),
        st.integers(1, 42),
    )
    def test_scores_equal_dense_search_bit_for_bit(self, dim, n, seed, top_n):
        rng = np.random.default_rng(seed)
        matrix = rng.normal(size=(n, dim)).astype(np.float32)
        index = DenseIndex(matrix, [f"c:{i:05d}" for i in range(n)])
        query = rng.normal(size=dim)
        hits = dense_hits(index, query, top_n)
        kept = rerank_hits(index, query, [h.chunk_id for h in hits], min_keep=len(hits))
        assert {h.chunk_id: h.score for h in kept} == {h.chunk_id: h.score for h in hits}
