"""Per-agent retrieval: dense cosine scan, Okapi BM25, rank fusion, rerank.

Indexes are immutable after build; searches are read-only. The dense index is
an exhaustive scan (desk-scale corpora, no ANN). Ties always break by
ascending chunk_id so results are deterministic.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .corpus import Chunk, tokenize
# save_vectors is unused here; perfbench/spans.py traces it by name on this module.
from .embedding import load_vectors, read_json, save_vectors

DENSE = "dense"
BM25 = "bm25"
MIXTURE = "mixture"

BM25_K1 = 1.2
BM25_B = 0.75
RRF_K = 60

_EPS = float(np.finfo(np.float64).eps)
# Elements per block of rows when a dense index takes its row norms.
_NORM_BLOCK = 1 << 15
# Row norms within which a float32 screening product neither overflows nor
# loses more to underflow than the float64 slack of ``_screen_slack``.
_F32_SAFE_NORM = (2.0**-64, 2.0**64)


def unit_scores(unit_rows: np.ndarray, unit_q: np.ndarray) -> np.ndarray:
    """Dot product of each row with ``unit_q``, summed in one order for every
    row, so equal rows get bit-equal scores and tie as they should.

    A BLAS matrix-vector product sums some rows in another order than others,
    so two copies of one vector can score 1 ulp apart.
    """
    return np.einsum("ij,j->i", unit_rows, unit_q)


def unit_query(query_vec: np.ndarray) -> np.ndarray:
    """The query as a float64 unit vector; a zero vector has no cosine."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = np.linalg.norm(q)
    if qn == 0.0:
        raise ValueError("undefined similarity: zero query vector")
    return q / qn


@dataclass(frozen=True)
class RetrievalHit:
    chunk_id: str
    score: float
    rank: int
    method: str


class DenseIndex:
    """Chunk embeddings as float32 rows, as stored, with one float64 L2 norm
    per row and a parallel chunk_id list.

    The rows are kept as given, not copied, so they must not be written to
    afterwards. ``unit_rows`` gives float64 unit rows on demand.
    """

    def __init__(self, matrix: np.ndarray, chunk_ids: list[str]):
        rows = np.asarray(matrix, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[0] != len(chunk_ids):
            raise ValueError("matrix rows must match chunk_ids")
        # np.linalg.norm(rows.astype(np.float64), axis=1) in row blocks: the
        # same sums, without a float64 copy of the index.
        norms = np.empty(len(rows))
        step = max(1, _NORM_BLOCK // max(rows.shape[1], 1))
        for start in range(0, len(rows), step):
            block = rows[start : start + step].astype(np.float64)
            norms[start : start + step] = np.sqrt(np.add.reduce(block * block, axis=1))
        if not np.all(norms > 0.0):
            raise ValueError("zero vector in dense index")
        self._rows = rows
        self._norms = norms
        # A float32 product of a row whose norm is far from 1 can overflow or
        # lose its low bits to underflow; such an index is screened in float64.
        in_range = np.all((norms >= _F32_SAFE_NORM[0]) & (norms <= _F32_SAFE_NORM[1]))
        self._screen_dtype = np.float32 if in_range else np.float64
        self.chunk_ids = list(chunk_ids)
        self.row_of = {cid: i for i, cid in enumerate(self.chunk_ids)}

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def unit_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (a list or array of row indexes) as float64 unit
        vectors, the bits of dividing each float32 row, widened, by its
        float64 norm."""
        return self._rows[rows] / self._norms[rows][:, None]

    @classmethod
    def load(cls, base_path: str | Path) -> "DenseIndex":
        matrix, chunk_ids = load_vectors(base_path)
        return cls(matrix, chunk_ids)


def _screen_slack(dim: int) -> float:
    """A bound on |screened score - ``unit_scores`` score| for one row: the
    worst-case error of a float32 dot product of length ``dim`` with a query
    rounded to float32, gamma(dim + 1) = (dim+1)u / (1 - (dim+1)u) with
    u = 2**-24, plus float64 slack for both sides' norms, divisions and sums.
    Past 2**24 terms there is no such bound, and every row is kept."""
    g = (dim + 1) * 2.0**-24
    return (g / (1.0 - g) if g < 1.0 else math.inf) + 4 * (dim + 2) * _EPS


def dense_search(index: DenseIndex, query_vec: np.ndarray, top_n: int) -> list[RetrievalHit]:
    """Top-n chunks by cosine similarity; exhaustive scan.

    One float32 BLAS product, divided by the row norms, screens every row,
    and ``np.partition`` finds the n-th best screened score. Rows within
    twice the screening error of that cut are scored again with
    ``unit_scores`` and sorted by (-score, chunk_id), so every tie on the cut
    is kept and broken by chunk_id, as in a full sort.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        return []
    q = unit_query(query_vec)
    rows = np.arange(len(index))
    if top_n < len(index):
        approx = (index._rows @ q.astype(index._screen_dtype)) / index._norms
        cut = np.partition(approx, len(approx) - top_n)[len(approx) - top_n]
        # Every screened score is within E of its exact score, so the cut is
        # at most E above the n-th best exact score, and every row of the
        # exact top n screens at or above cut - 2E.
        rows = np.flatnonzero(approx >= cut - 2 * _screen_slack(q.shape[0]))
    sims = unit_scores(index.unit_rows(rows), q).tolist()
    ids = [index.chunk_ids[i] for i in rows.tolist()]
    order = sorted(range(len(ids)), key=lambda k: (-sims[k], ids[k]))[:top_n]
    return [
        RetrievalHit(chunk_id=ids[k], score=sims[k], rank=r, method=DENSE)
        for r, k in enumerate(order, 1)
    ]


class Bm25Index:
    """Inverted index with Okapi BM25 scoring (k1=1.2, b=0.75).

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), kept non-negative for
    corpus-dominating terms.
    """

    def __init__(self, postings: dict[str, dict[str, int]], doc_len: dict[str, int]):
        self.postings = postings
        self.doc_len = doc_len
        self.n_chunks = len(doc_len)
        self.avg_len = (sum(doc_len.values()) / self.n_chunks) if self.n_chunks else 0.0

    @classmethod
    def build(cls, chunks: list[Chunk]) -> "Bm25Index":
        postings: dict[str, dict[str, int]] = {}
        doc_len: dict[str, int] = {}
        for chunk in chunks:
            terms = [t.lower() for t in tokenize(chunk.text)]
            doc_len[chunk.chunk_id] = len(terms)
            for term, tf in Counter(terms).items():
                postings.setdefault(term, {})[chunk.chunk_id] = tf
        return cls(postings, doc_len)

    def idf(self, term: str) -> float:
        df = len(self.postings.get(term, {}))
        return math.log(1.0 + (self.n_chunks - df + 0.5) / (df + 0.5))

    def save(self, path: str | Path) -> None:
        payload = {"postings": self.postings, "doc_len": self.doc_len}
        Path(path).write_text(
            json.dumps(payload, sort_keys=True, ensure_ascii=False), encoding="utf-8"
        )

    @classmethod
    def load(cls, path: str | Path) -> "Bm25Index":
        def parse(payload) -> "Bm25Index":
            postings = {t: {c: int(tf) for c, tf in post.items()} for t, post in payload["postings"].items()}
            doc_len = {c: int(n) for c, n in payload["doc_len"].items()}
            return cls(postings, doc_len)

        return read_json(path, parse)


def bm25_search(index: Bm25Index, query_tokens: list[str], top_n: int) -> list[RetrievalHit]:
    """Okapi BM25 ranking; chunks sharing no query term are excluded.

    Query terms are scored with multiplicity, so a duplicated term counts
    exactly like a weight of two on the deduplicated term.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    terms = [t.lower() for t in query_tokens]
    if not terms:
        return []
    scores: dict[str, float] = {}
    for term in terms:
        posting = index.postings.get(term)
        if not posting:
            continue
        idf = index.idf(term)
        for chunk_id, tf in posting.items():
            dl = index.doc_len[chunk_id]
            denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * dl / index.avg_len)
            scores[chunk_id] = scores.get(chunk_id, 0.0) + idf * tf * (BM25_K1 + 1.0) / denom
    ranked = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        RetrievalHit(chunk_id=cid, score=score, rank=r, method=BM25)
        for r, (cid, score) in enumerate(ranked[:top_n], 1)
    ]


def mixture_search(
    dense_hits: list[RetrievalHit], bm25_hits: list[RetrievalHit], top_n: int
) -> list[RetrievalHit]:
    """Reciprocal-rank fusion of two hit lists: score = sum of 1/(60 + rank)."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    fused: dict[str, float] = {}
    for hits in (dense_hits, bm25_hits):
        for hit in hits:
            fused[hit.chunk_id] = fused.get(hit.chunk_id, 0.0) + 1.0 / (RRF_K + hit.rank)
    ranked = sorted(fused.items(), key=lambda kv: (-kv[1], kv[0]))
    return [
        RetrievalHit(chunk_id=cid, score=score, rank=r, method=MIXTURE)
        for r, (cid, score) in enumerate(ranked[:top_n], 1)
    ]


def rerank(
    hits: list[RetrievalHit],
    query_vec: np.ndarray,
    index: DenseIndex,
    min_keep: int,
    keep_threshold: float = 0.3,
) -> list[RetrievalHit]:
    """Re-score hits by cosine similarity to the query and drop weak ones.

    Keeps every hit scoring >= keep_threshold but never fewer than
    min(min_keep, len(hits)), taken in descending similarity.
    """
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
        RetrievalHit(chunk_id=h.chunk_id, score=sim, rank=r, method=h.method)
        for r, (sim, h) in enumerate(kept, 1)
    ]
