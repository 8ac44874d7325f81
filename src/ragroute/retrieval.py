"""Per-agent retrieval: dense cosine scan, Okapi BM25, rank fusion, rerank.

Indexes are immutable after build; a search only adds to the BM25 index's
per-term memo. The dense index is an exhaustive scan (desk-scale corpora, no
ANN). An agent's chunks, dense rows and BM25 rows run in one order, chunk_id
order, as ``ingest`` writes them, so a row names the same chunk in every
index. The stages hand each other ``Ranked`` arrays of those rows, best
first, ties broken by ascending row, i.e. by chunk_id, so results are
deterministic. One float64 array by row carries a question's exact cosines
from the dense stage to ``rerank``, so no chunk is scored twice for one
question, and a ``UnitQuery`` makes the question's unit vector once for
every index it reaches.
"""

from __future__ import annotations

import math
import operator
from pathlib import Path
from typing import NamedTuple

import numpy as np

from .corpus import Chunk, TermTable, term_table
from .store import IndexFileError, VectorFileError, read_arrays, read_json, write_arrays, write_json
# save_vectors is unused here; perfbench/spans.py traces it by name on this module.
from .store import load_vectors, require_strings, save_vectors

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
    """The query as a float64 unit vector; a zero vector has no cosine. Its
    norm is summed by ``np.einsum``, in one order whatever BLAS kernel runs."""
    q = np.asarray(query_vec, dtype=np.float64)
    qn = np.sqrt(np.einsum("i,i->", q, q))
    if qn == 0.0:
        raise ValueError("undefined similarity: zero query vector")
    return q / qn


class UnitQuery:
    """One question's embedding as the float64 unit vector that scores rows
    exactly (``unit``) and that vector rounded to float32 (``f32``), which
    screens them; both are made once, however many indexes the question
    reaches. ValueError for a zero vector."""

    def __init__(self, query_vec: np.ndarray):
        self.unit = unit_query(query_vec)
        self.f32 = self.unit.astype(np.float32)

    def in_dtype(self, dtype) -> np.ndarray:
        """The unit query in ``dtype``, float32 or float64."""
        return self.unit if dtype is np.float64 else self.f32


class Ranked(NamedTuple):
    """Hits best first: an agent's ``rows`` and each one's float64 score; a
    hit's rank is its place plus one."""

    rows: np.ndarray
    scores: np.ndarray


NO_HITS = Ranked(np.empty(0, np.intp), np.empty(0))


def _ranked(rows: np.ndarray, scores: np.ndarray, top_n: int) -> Ranked:
    """The ``top_n`` best of ``rows`` by (-score, row); rows are distinct."""
    order = np.lexsort((rows, -scores))[:top_n]
    return Ranked(rows[order], scores[order])


class UnusableRowError(ValueError):
    """A dense row that is zero or not finite, so it has no cosine."""

    def __init__(self, row: int, row_id: str):
        super().__init__(f"row {row} ({row_id!r}) is zero or not finite")
        self.row = row


class DenseIndex:
    """Chunk embeddings as float32 rows, as stored, with one float64 L2 norm
    per row and a parallel chunk_id list.

    The rows are kept as given, not copied, so they must not be written to
    afterwards. ``unit_rows`` gives float64 unit rows on demand, ``exact``
    a question's cosines to them, and ``screen`` every row's cosine within
    ``slack`` of that. UnusableRowError names a row that is zero or not
    finite.
    """

    def __init__(self, matrix: np.ndarray, chunk_ids: list[str]):
        rows = np.asarray(matrix, dtype=np.float32)
        if rows.ndim != 2 or rows.shape[0] != len(chunk_ids):
            raise ValueError("matrix rows must match chunk_ids")
        # np.linalg.norm(rows.astype(np.float64), axis=1) in row blocks, each
        # squared in place in one reused float64 buffer: the same sums,
        # without a float64 copy of the index or a temporary per block.
        norms = np.empty(len(rows))
        step = max(1, _NORM_BLOCK // max(rows.shape[1], 1))
        buffer = np.empty((min(step, len(rows)), rows.shape[1]))
        for start in range(0, len(rows), step):
            part = rows[start : start + step]
            block = buffer[: len(part)]
            block[...] = part
            np.multiply(block, block, out=block)
            np.add.reduce(block, axis=1, out=norms[start : start + step])
        np.sqrt(norms, out=norms)
        usable = (norms > 0.0) & (norms < math.inf)
        if not usable.all():
            row = int(np.flatnonzero(~usable)[0])
            raise UnusableRowError(row, chunk_ids[row])
        self.rows = rows
        self._norms = norms
        self.dim = rows.shape[1]
        self.slack = _screen_slack(self.dim)
        # A float32 product of a row whose norm is far from 1 can overflow or
        # lose its low bits to underflow; such an index is screened in float64.
        in_range = np.all((norms >= _F32_SAFE_NORM[0]) & (norms <= _F32_SAFE_NORM[1]))
        self._screen_dtype = np.float32 if in_range else np.float64
        self.chunk_ids = list(chunk_ids)

    def __len__(self) -> int:
        return len(self.chunk_ids)

    def unit_rows(self, rows) -> np.ndarray:
        """Rows ``rows`` (a list or array of row indexes) as float64 unit
        vectors, the bits of dividing each float32 row, widened, by its
        float64 norm."""
        return self.rows[rows] / self._norms[rows][:, None]

    def screen(self, query: UnitQuery) -> np.ndarray:
        """Every row's cosine to the query, each within ``slack`` of its
        ``exact`` score: one product in the screening dtype, divided by the
        row norms into a new float64 array (an in-place division would round
        back to float32, an error ``slack`` does not cover)."""
        return (self.rows @ query.in_dtype(self._screen_dtype)) / self._norms

    def exact(self, rows: np.ndarray, query: UnitQuery) -> np.ndarray:
        """The exact cosines of rows ``rows`` to the query: ``unit_scores``
        of their unit rows, so a row scores the same bits in any batch."""
        return unit_scores(self.unit_rows(rows), query.unit)

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


def unscored(index: DenseIndex) -> np.ndarray:
    """A question's cosine array for ``index``: one float64 per row, NaN
    until the row's exact cosine is stored."""
    return np.full(len(index), np.nan)


def dense_search(
    index: DenseIndex, query: UnitQuery, top_n: int, cosines: np.ndarray | None = None
) -> Ranked:
    """Top-n rows by cosine similarity; exhaustive scan.

    ``DenseIndex.screen`` scores every row, and ``np.partition`` finds the
    n-th best screened score. Rows within twice the screening error of that
    cut are scored again exactly and ranked by (-score, row), so every tie
    on the cut is kept and broken by row, as in a full sort. Their exact
    cosines are stored in ``cosines``, the question's, for ``rerank``.
    ``cosines`` may be left out, and ``query`` be a bare vector, only for a
    search on its own (``perfbench/tests`` calls it so).
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    if len(index) == 0:
        return NO_HITS
    if not isinstance(query, UnitQuery):
        query = UnitQuery(query)
    rows = np.arange(len(index))
    if top_n < len(index):
        approx = index.screen(query)
        cut = np.partition(approx, len(approx) - top_n)[len(approx) - top_n]
        # Every screened score is within E of its exact score, so the cut is
        # at most E above the n-th best exact score, and every row of the
        # exact top n screens at or above cut - 2E.
        rows = np.flatnonzero(approx >= cut - 2 * index.slack)
    sims = index.exact(rows, query)
    if cosines is not None:
        cosines[rows] = sims
    return _ranked(rows, sims, top_n)


class _Postings:
    """Read-only ``term -> rows`` by ``get`` alone: the rows of the chunks that
    hold a term, a slice of the index's CSR rows, so its ``len`` is the term's
    df. ``get`` builds no per-posting object; each term's slice is made once
    and kept, as the benchmark's tracer calls ``get`` inside the timed search."""

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
    def build(cls, chunks: list[Chunk], table: TermTable | None = None) -> "Bm25Index":
        """The index of ``chunks``, which run in chunk_id order, each chunk
        at its row; ``table``, when given, is the ``term_table`` of their
        texts, so the texts are not read again.

        One ``np.unique`` over ``term * N + row`` gives the postings in
        (term, row) order with their term frequencies. Raises ValueError
        when the table does not hold one text per chunk, or, from the
        constructor's checks, naming the first chunk_id not above the one
        before it.
        """
        if table is None:
            table = term_table(c.text for c in chunks)
        n = len(chunks)
        if len(table.lengths) != n:
            raise ValueError(f"{len(table.lengths)} texts in the term table for {n} chunks")
        row = np.repeat(np.arange(n), table.lengths)
        keys, tf = np.unique(table.ids * n + row, return_counts=True)
        term, rows = np.divmod(keys, max(n, 1))
        offsets = np.zeros(len(table.terms) + 1, np.int64)
        np.cumsum(np.bincount(term, minlength=len(table.terms)), out=offsets[1:])
        return cls(
            table.terms,
            [c.chunk_id for c in chunks],
            offsets,
            rows.astype(np.int32),
            tf.astype(np.int32),
            table.lengths.astype(np.int32),
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
        arrays = (self._offsets, self._rows, self._tf, self.doc_len)
        write_arrays(path.with_suffix(".bin"), zip(_BM25_DTYPES, arrays))
        manifest = {"chunk_ids": self.chunk_ids, "n_postings": len(self._rows), "terms": self.terms}
        write_json(path, manifest)

    @classmethod
    def load(cls, path: str | Path) -> "Bm25Index":
        """The index ``save`` wrote to ``path``, as views of one read of its
        ``.bin``. IndexFileError names the file when the manifest or the
        arrays are not what ``save`` writes."""
        path = Path(path)

        def parse(m) -> tuple[list[str], list[str], int]:
            terms, chunk_ids, p = m["terms"], m["chunk_ids"], m["n_postings"]
            require_strings("terms", terms)
            require_strings("chunk_ids", chunk_ids)
            if type(p) is not int or p < 0:
                raise TypeError(f"n_postings must be a count, not {p!r}")
            return terms, chunk_ids, p

        terms, chunk_ids, p = read_json(path, parse)
        bin_path = path.with_suffix(".bin")
        counts = (len(terms) + 1, p, p, len(chunk_ids))
        arrays = read_arrays(bin_path, list(zip(_BM25_DTYPES, counts)))
        try:
            return cls(terms, chunk_ids, *arrays)
        except ValueError as exc:
            raise IndexFileError(f"{path} with {bin_path.name}: {exc}") from exc


def bm25_search(index: Bm25Index, query_tokens: list[str], top_n: int) -> Ranked:
    """Okapi BM25 ranking; chunks sharing no query term are excluded.

    Query terms are scored with multiplicity, so a duplicated term counts
    exactly like a weight of two on the deduplicated term. Each term's
    weights are added into one score vector in query order, so every chunk
    sums the same floats in the same order as a posting-by-posting loop.
    Every touched chunk scoring at or above the n-th best score is kept and
    ranked by (-score, chunk_id).
    """
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    entries = [index.term_weights(t.lower()) for t in query_tokens]
    entries = [e for e in entries if e is not None]
    if not entries:
        return NO_HITS
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
    return _ranked(rows, scores[rows], top_n)


def mixture_search(dense: Ranked, bm25: Ranked, top_n: int) -> Ranked:
    """Reciprocal-rank fusion of two rankings of one row space: score = sum
    of 1/(60 + rank). ``np.bincount`` adds each row's terms into one score
    array by row, starting from 0.0, in list order: the dense term first, as
    a float sum over the two lists in that order."""
    if top_n < 1:
        raise ValueError("top_n must be >= 1")
    rows = np.concatenate((dense.rows, bm25.rows))
    if not len(rows):
        return NO_HITS
    ranks = np.concatenate((np.arange(1, len(dense.rows) + 1), np.arange(1, len(bm25.rows) + 1)))
    fused = np.bincount(rows, 1.0 / (RRF_K + ranks))
    rows = np.flatnonzero(fused)  # every fused score is above 0
    return _ranked(rows, fused[rows], top_n)


def rerank(
    rows: np.ndarray,
    query: UnitQuery,
    index: DenseIndex,
    min_keep: int,
    keep_threshold: float,
    cosines: np.ndarray,
) -> np.ndarray:
    """Re-score hit rows by cosine similarity to the query and drop weak ones.

    Keeps every row scoring >= keep_threshold but never fewer than
    min(min_keep, len(rows)), taken by (-similarity, row), and returns them
    in that order. Their exact cosines are in ``cosines``, the question's
    array, afterwards; the scores already stored there are not computed
    again.
    """
    if min_keep < 1:
        raise ValueError("min_keep must be >= 1")
    if not len(rows):
        return rows
    missing = rows[np.isnan(cosines[rows])]
    if len(missing):
        cosines[missing] = index.exact(missing, query)
    sims = cosines[rows]
    order = np.lexsort((rows, -sims))
    # Sorted by -similarity, the rows at or above the threshold come first.
    keep = max(int(np.count_nonzero(sims >= keep_threshold)), min(min_keep, len(rows)))
    return rows[order[:keep]]
