"""Per-agent retrieval: dense cosine scan, Okapi BM25, rank fusion, rerank.

Indexes are immutable after build; a search only adds to the BM25 index's
per-term memo. The dense index is an exhaustive scan (desk-scale corpora, no
ANN). Ties always break by ascending chunk_id so results are deterministic.
A ``Cosines`` carries one question's exact cosines from the dense stage to
``rerank``, so no chunk is scored twice for one question.
"""

from __future__ import annotations

import json
import math
import operator
from collections.abc import Mapping
from functools import partial
from itertools import accumulate, chain, count, repeat
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Chunk, tokenize
# save_vectors is unused here; perfbench/spans.py traces it by name on this module.
from .embedding import IndexFileError, VectorFileError, load_vectors, read_json, save_vectors

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
# The arrays of bm25.bin, in file order: offsets, rows, tf, doc_len.
_BM25_DTYPES = ("<i8", "<i4", "<i4", "<i4")


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


class RetrievalHit(NamedTuple):
    chunk_id: str
    score: float
    rank: int
    method: str


# RetrievalHit._make without its length check: the fields come from a zip of four.
_new_hit = partial(tuple.__new__, RetrievalHit)


def _ranked(chunk_ids, scores, method: str) -> list[RetrievalHit]:
    """Hits ranked 1, 2, ... in the order given."""
    return list(map(_new_hit, zip(chunk_ids, scores, count(1), repeat(method))))


def _id_ranks(chunk_ids: list[str]) -> np.ndarray:
    """Each row's place in ascending chunk_id order, for tie breaks; equal
    ids keep their row order, as in a stable sort."""
    if sorted(chunk_ids) == chunk_ids:  # as stored files keep them
        return np.arange(len(chunk_ids))
    order = sorted(range(len(chunk_ids)), key=chunk_ids.__getitem__)
    ranks = np.empty(len(chunk_ids), np.intp)
    ranks[order] = np.arange(len(chunk_ids))
    return ranks


class DenseIndex:
    """Chunk embeddings as float32 rows, as stored, with one float64 L2 norm
    per row, a parallel chunk_id list and each row's place in chunk_id order.

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
        usable = (norms > 0.0) & (norms < math.inf)
        if not usable.all():
            row = int(np.flatnonzero(~usable)[0])
            raise ValueError(f"row {row} ({chunk_ids[row]!r}) is zero or not finite")
        self._rows = rows
        self._norms = norms
        # A float32 product of a row whose norm is far from 1 can overflow or
        # lose its low bits to underflow; such an index is screened in float64.
        in_range = np.all((norms >= _F32_SAFE_NORM[0]) & (norms <= _F32_SAFE_NORM[1]))
        self._screen_dtype = np.float32 if in_range else np.float64
        self.chunk_ids = list(chunk_ids)
        self.row_of = {cid: i for i, cid in enumerate(self.chunk_ids)}
        self._rank = _id_ranks(self.chunk_ids)

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def unit_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (a list or array of row indexes) as float64 unit
        vectors, the bits of dividing each float32 row, widened, by its
        float64 norm."""
        return self._rows[rows] / self._norms[rows][:, None]

    @classmethod
    def load(cls, base_path: str | Path) -> "DenseIndex":
        """The index ``save_vectors`` wrote; VectorFileError names the
        ``.bin`` when a row is zero or not finite."""
        matrix, chunk_ids = load_vectors(base_path)
        try:
            return cls(matrix, chunk_ids)
        except ValueError as exc:
            raise VectorFileError(f"{Path(base_path).with_suffix('.bin')}: {exc}") from exc


def _screen_slack(dim: int) -> float:
    """A bound on |screened score - ``unit_scores`` score| for one row: the
    worst-case error of a float32 dot product of length ``dim`` with a query
    rounded to float32, gamma(dim + 1) = (dim+1)u / (1 - (dim+1)u) with
    u = 2**-24, plus float64 slack for both sides' norms, divisions and sums.
    Past 2**24 terms there is no such bound, and every row is kept."""
    g = (dim + 1) * 2.0**-24
    return (g / (1.0 - g) if g < 1.0 else math.inf) + 4 * (dim + 2) * _EPS


class Cosines:
    """The exact cosines (``unit_scores`` of ``unit_rows``) of one dense
    index's chunks to one query, each chunk scored at most once.

    ``dense_search`` stores the score of every hit it returns and ``rerank``
    scores only the chunks not stored yet; the query becomes a unit vector
    once, on first use. One instance serves one question in one thread.
    """

    def __init__(self, index: DenseIndex, query_vec: np.ndarray):
        self.index = index
        self.query_vec = query_vec
        self.by_id: dict[str, float] = {}
        self._unit_q: np.ndarray | None = None

    @property
    def unit_q(self) -> np.ndarray:
        if self._unit_q is None:
            self._unit_q = unit_query(self.query_vec)
        return self._unit_q

    def of_ids(self, chunk_ids: list[str]) -> list[float]:
        """The score of each chunk, computing only those not stored yet."""
        missing = [c for c in chunk_ids if c not in self.by_id]
        if missing:
            rows = [self.index.row_of[c] for c in missing]
            sims = unit_scores(self.index.unit_rows(rows), self.unit_q).tolist()
            self.by_id.update(zip(missing, sims))
        return [self.by_id[c] for c in chunk_ids]


def dense_search(
    index: DenseIndex, query_vec: np.ndarray, top_n: int, cosines: Cosines | None = None
) -> list[RetrievalHit]:
    """Top-n chunks by cosine similarity; exhaustive scan.

    One float32 BLAS product, divided by the row norms, screens every row,
    and ``np.partition`` finds the n-th best screened score. Rows within
    twice the screening error of that cut are scored again with
    ``unit_scores`` and sorted by (-score, chunk_id), so every tie on the cut
    is kept and broken by chunk_id, as in a full sort. The hits' scores are
    stored in ``cosines`` (the question's, when given) for ``rerank``.
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        return []
    if cosines is None:
        cosines = Cosines(index, query_vec)
    q = cosines.unit_q
    rows = np.arange(len(index))
    if top_n < len(index):
        approx = (index._rows @ q.astype(index._screen_dtype)) / index._norms
        cut = np.partition(approx, len(approx) - top_n)[len(approx) - top_n]
        # Every screened score is within E of its exact score, so the cut is
        # at most E above the n-th best exact score, and every row of the
        # exact top n screens at or above cut - 2E.
        rows = np.flatnonzero(approx >= cut - 2 * _screen_slack(q.shape[0]))
    sims = unit_scores(index.unit_rows(rows), q)
    order = np.lexsort((index._rank[rows], -sims))[:top_n]
    ids = [index.chunk_ids[i] for i in rows[order].tolist()]
    scores = sims[order].tolist()
    cosines.by_id.update(zip(ids, scores))
    return _ranked(ids, scores, DENSE)


class _Postings(Mapping):
    """Read-only ``term -> rows``: the rows of the chunks that hold a term, a
    slice of the index's CSR rows, so its ``len`` is the term's df. ``get``
    builds no per-posting object; each term's slice is made once and kept,
    as the benchmark's tracer calls ``get`` inside the timed search."""

    def __init__(self, term_id: dict[str, int], offsets: np.ndarray, rows: np.ndarray):
        self._term_id = term_id
        self._offsets = offsets
        self._rows = rows
        self._views: dict[str, np.ndarray] = {}

    def get(self, term: str, default=None):
        view = self._views.get(term)
        if view is None:
            i = self._term_id.get(term)
            if i is None:
                return default
            view = self._views[term] = self._rows[self._offsets[i] : self._offsets[i + 1]]
        return view

    def __getitem__(self, term: str) -> np.ndarray:
        rows = self.get(term)
        if rows is None:
            raise KeyError(term)
        return rows

    def __iter__(self):
        return iter(self._term_id)

    def __len__(self) -> int:
        return len(self._term_id)


def _first_unsorted(names: list[str]) -> int | None:
    """The place of the first name not above the one before it, or None."""
    if all(map(operator.lt, names, names[1:])):
        return None
    return next(i for i in range(1, len(names)) if not names[i - 1] < names[i])


def _check_csr(terms, chunk_ids, offsets, rows, tf, doc_len) -> None:
    """Raise ValueError unless the arrays are an index ``Bm25Index.build``
    could have made; every check runs over whole arrays."""
    for what, names in (("terms", terms), ("chunk ids", chunk_ids)):
        bad = _first_unsorted(names)
        if bad is not None:
            raise ValueError(f"{what} are not sorted and unique at {names[bad]!r}")
    n, p = len(chunk_ids), len(rows)
    if (len(offsets), len(tf), len(doc_len)) != (len(terms) + 1, p, n):
        raise ValueError("array lengths do not match the terms and chunk ids")
    if offsets[0] != 0 or offsets[-1] != p or not (offsets[1:] > offsets[:-1]).all():
        raise ValueError(f"offsets must start at 0, rise strictly and end at {p}")
    if p and not (0 <= rows.min() and rows.max() < n):
        raise ValueError(f"a posting row is outside [0, {n})")
    rising = rows[1:] > rows[:-1]
    rising[offsets[1:-1] - 1] = True  # a term's first row follows another term's
    if not rising.all():
        term = terms[int(np.searchsorted(offsets, np.argmin(rising) + 1, "right")) - 1]
        raise ValueError(f"the rows of term {term!r} do not rise strictly")
    if p and tf.min() < 1:
        raise ValueError("a term frequency is below 1")
    sums = np.bincount(rows, tf, n)
    if not np.array_equal(sums, doc_len):
        row = int(np.argmax(sums != doc_len))
        raise ValueError(
            f"chunk {chunk_ids[row]!r} has length {doc_len[row]}, "
            f"but its term frequencies sum to {sums[row]:.0f}"
        )


class Bm25Index:
    """Inverted index with Okapi BM25 scoring (k1=1.2, b=0.75), held as
    compressed rows (CSR), in memory as on disk.

    ``terms`` and ``chunk_ids`` are sorted and unique; a chunk's row is its
    place in ``chunk_ids``, so rows run in chunk_id order. The postings of
    ``terms[i]`` are ``rows[offsets[i]:offsets[i + 1]]``, rising, with each
    one's term frequency at the same place in ``tf``; ``doc_len[row]`` is a
    chunk's token count, the sum of its term frequencies.

    idf(t) = ln(1 + (N - df + 0.5) / (df + 0.5)), kept non-negative for
    corpus-dominating terms.

    The first search that uses a term stores two arrays for it: the rows of
    its chunks and each posting's BM25 weight. Threads that race on a term
    store equal arrays, so threads may share an index.
    """

    def __init__(
        self,
        terms: list[str],
        chunk_ids: list[str],
        offsets: np.ndarray,
        rows: np.ndarray,
        tf: np.ndarray,
        doc_len: np.ndarray,
    ):
        """Raises ValueError unless the arrays are a well-formed index. The
        arrays are kept as given and made read-only."""
        _check_csr(terms, chunk_ids, offsets, rows, tf, doc_len)
        for array in (offsets, rows, tf, doc_len):
            array.flags.writeable = False
        self.terms = terms
        self.chunk_ids = chunk_ids
        self.n_chunks = len(chunk_ids)
        self.doc_len = doc_len
        self.avg_len = int(doc_len.sum(dtype=np.int64)) / self.n_chunks if self.n_chunks else 0.0
        self._offsets = offsets
        self._rows = rows
        self._tf = tf
        self._term_id = dict(zip(terms, range(len(terms))))
        self.postings = _Postings(self._term_id, offsets, rows)
        self._dl = doc_len.astype(np.float64)
        self._weights: dict[str, tuple[np.ndarray, np.ndarray]] = {}

    @classmethod
    def build(cls, chunks: list[Chunk], tokens: list[list[str]] | None = None) -> "Bm25Index":
        """The index of ``chunks``; ``tokens``, when given, holds each chunk's
        ``tokenize`` list, so the texts are not tokenized again.

        One memo maps each distinct token to the id of its lowercase form,
        and one ``np.unique`` over ``term * N + row`` gives the postings in
        (term, chunk_id) order with their term frequencies. Raises ValueError
        when a chunk_id repeats or the token lists do not match the chunks.
        """
        if tokens is None:
            tokens = [tokenize(c.text) for c in chunks]
        if len(tokens) != len(chunks):
            raise ValueError(f"{len(tokens)} token lists for {len(chunks)} chunks")
        n = len(chunks)
        order = sorted(range(n), key=[c.chunk_id for c in chunks].__getitem__)
        chunk_ids = [chunks[i].chunk_id for i in order]
        twice = _first_unsorted(chunk_ids)
        if twice is not None:
            raise ValueError(f"chunk id {chunk_ids[twice]!r} repeats")
        row = np.empty(n, np.int64)
        row[order] = np.arange(n)
        lengths = np.fromiter(map(len, tokens), np.int64, n)
        flat = list(chain.from_iterable(tokens))
        lower_id: dict[str, int] = {}
        memo = {t: lower_id.setdefault(t.lower(), len(lower_id)) for t in set(flat)}
        terms = sorted(lower_id)
        rank = np.empty(len(terms), np.int64)
        rank[[lower_id[t] for t in terms]] = np.arange(len(terms))
        term_of = rank[np.fromiter(map(memo.__getitem__, flat), np.int64, len(flat))]
        keys, tf = np.unique(term_of * n + np.repeat(row, lengths), return_counts=True)
        term, rows = np.divmod(keys, max(n, 1))
        offsets = np.zeros(len(terms) + 1, np.int64)
        np.cumsum(np.bincount(term, minlength=len(terms)), out=offsets[1:])
        return cls(
            terms,
            chunk_ids,
            offsets,
            rows.astype(np.int32),
            tf.astype(np.int32),
            lengths[order].astype(np.int32),
        )

    def idf(self, term: str) -> float:
        i = self._term_id.get(term)
        df = 0 if i is None else int(self._offsets[i + 1] - self._offsets[i])
        return math.log(1.0 + (self.n_chunks - df + 0.5) / (df + 0.5))

    def term_weights(self, term: str) -> tuple[np.ndarray, np.ndarray] | None:
        """The rows of ``term``'s chunks and each one's BM25 weight, or None
        for a term with no postings.

        Each weight is ``idf * tf * (k1 + 1) / (tf + k1 * (1 - b + b * dl /
        avg_len))`` taken elementwise in that order, so it has the bits of
        the same expression on Python floats.
        """
        entry = self._weights.get(term)
        if entry is not None:
            return entry
        i = self._term_id.get(term)
        if i is None:
            return None
        postings = slice(self._offsets[i], self._offsets[i + 1])
        rows = self._rows[postings].astype(np.intp)
        tf = self._tf[postings].astype(np.float64)
        denom = tf + BM25_K1 * (1.0 - BM25_B + BM25_B * self._dl[rows] / self.avg_len)
        weights = self.idf(term) * tf * (BM25_K1 + 1.0) / denom
        entry = self._weights[term] = (rows, weights)
        return entry

    def save(self, path: str | Path) -> None:
        """Write ``path`` (a ``.json`` manifest of the terms, the chunk ids
        and the posting count) after ``path.with_suffix(".bin")``, which
        holds offsets, rows, tf and doc_len back to back, little-endian."""
        path = Path(path)
        arrays = zip(_BM25_DTYPES, (self._offsets, self._rows, self._tf, self.doc_len))
        path.with_suffix(".bin").write_bytes(b"".join(a.astype(dt).tobytes() for dt, a in arrays))
        manifest = {"chunk_ids": self.chunk_ids, "n_postings": len(self._rows), "terms": self.terms}
        path.write_text(json.dumps(manifest, sort_keys=True, ensure_ascii=False), encoding="utf-8")

    @classmethod
    def load(cls, path: str | Path) -> "Bm25Index":
        """The index ``save`` wrote to ``path``, as views of one read of its
        ``.bin``. IndexFileError names the file when the manifest or the
        arrays are not what ``save`` writes, or the index is in the older
        JSON format."""
        path = Path(path)

        def parse(m) -> tuple[list[str], list[str], int]:
            if isinstance(m, dict) and "doc_len" in m:
                raise IndexFileError(
                    f"{path} is a BM25 index in an older format: re-run build-index"
                )
            terms, chunk_ids, p = m["terms"], m["chunk_ids"], m["n_postings"]
            if not (isinstance(terms, list) and isinstance(chunk_ids, list)
                    and set(map(type, terms + chunk_ids)) <= {str}):
                raise TypeError("terms and chunk_ids must be lists of strings")
            if type(p) is not int or p < 0:
                raise TypeError(f"n_postings must be a count, not {p!r}")
            return terms, chunk_ids, p

        terms, chunk_ids, p = read_json(path, parse)
        bin_path = path.with_suffix(".bin")
        data = bin_path.read_bytes()
        counts = (len(terms) + 1, p, p, len(chunk_ids))
        sizes = [np.dtype(dt).itemsize * k for dt, k in zip(_BM25_DTYPES, counts)]
        if len(data) != sum(sizes):
            raise IndexFileError(
                f"{bin_path} holds {len(data)} bytes; its manifest needs {sum(sizes)}"
            )
        starts = accumulate(sizes, initial=0)
        arrays = [np.frombuffer(data, dt, k, at) for dt, k, at in zip(_BM25_DTYPES, counts, starts)]
        try:
            return cls(terms, chunk_ids, *arrays)
        except ValueError as exc:
            raise IndexFileError(f"{path} with {bin_path.name}: {exc}") from exc


def bm25_search(index: Bm25Index, query_tokens: list[str], top_n: int) -> list[RetrievalHit]:
    """Okapi BM25 ranking; chunks sharing no query term are excluded.

    Query terms are scored with multiplicity, so a duplicated term counts
    exactly like a weight of two on the deduplicated term. Each term's
    weights are added into one score vector in query order, so every chunk
    sums the same floats in the same order as a posting-by-posting loop.
    Every touched chunk scoring at or above the n-th best score is kept and
    sorted by (-score, chunk_id).
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    entries = [index.term_weights(t.lower()) for t in query_tokens]
    entries = [e for e in entries if e is not None]
    if not entries:
        return []
    scores = np.zeros(index.n_chunks)
    touched = np.zeros(index.n_chunks, dtype=bool)
    for rows, weights in entries:
        # A posting names each chunk once, so no row repeats within ``rows``.
        scores[rows] += weights
        touched[rows] = True
    rows = np.flatnonzero(touched)
    if len(rows) > top_n:
        touched_scores = scores[rows]
        cut = np.partition(touched_scores, len(rows) - top_n)[len(rows) - top_n]
        rows = rows[touched_scores >= cut]
    # Rows run in chunk_id order, so the row breaks ties.
    rows = rows[np.lexsort((rows, -scores[rows]))][:top_n]
    return _ranked([index.chunk_ids[row] for row in rows.tolist()], scores[rows].tolist(), BM25)


def mixture_search(
    dense_hits: list[RetrievalHit], bm25_hits: list[RetrievalHit], top_n: int
) -> list[RetrievalHit]:
    """Reciprocal-rank fusion of two hit lists: score = sum of 1/(60 + rank)."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    fused: dict[str, float] = {}
    for hits in (dense_hits, bm25_hits):
        for chunk_id, _, rank, _ in hits:
            fused[chunk_id] = fused.get(chunk_id, 0.0) + 1.0 / (RRF_K + rank)
    # Sorting (-score, chunk_id) pairs orders by (-score, chunk_id); negation
    # is exact, so negating again gives back each score's bits.
    ranked = sorted([(-score, cid) for cid, score in fused.items()])[:top_n]
    return _ranked([cid for _, cid in ranked], [-neg for neg, _ in ranked], MIXTURE)


def rerank(
    hits: list[RetrievalHit],
    query_vec: np.ndarray,
    index: DenseIndex,
    min_keep: int,
    keep_threshold: float = 0.3,
    cosines: Cosines | None = None,
) -> list[RetrievalHit]:
    """Re-score hits by cosine similarity to the query and drop weak ones.

    Keeps every hit scoring >= keep_threshold but never fewer than
    min(min_keep, len(hits)), taken in descending similarity. ``cosines``,
    when given, is the question's, and its stored scores are not computed
    again.
    """
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if not hits:
        return []
    if cosines is None:
        cosines = Cosines(index, query_vec)
    sims = cosines.of_ids([h.chunk_id for h in hits])
    scored = sorted(zip(sims, hits), key=lambda t: (-t[0], t[1].chunk_id))
    floor = min(min_keep, len(scored))
    kept = [t for t in scored if t[0] >= keep_threshold]
    if len(kept) < floor:
        kept = scored[:floor]
    return [
        RetrievalHit(h.chunk_id, sim, r, h.method) for r, (sim, h) in enumerate(kept, 1)
    ]
