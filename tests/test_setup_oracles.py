"""Set-up against the code it replaced.

``build-index`` reads each agent's chunk texts once into one term table
(``corpus.term_table``: each distinct whitespace piece tokenized once, one
integer term id per token) and builds both the BM25 index and the mock
embedder's rows from it, and the chunker cuts windows from regex runs of
tokens. The oracles here are independent of that: an exhaustive check of
the character classes the piece split relies on, the token regex on
every whole text, a chunker that keeps one (start, end) span per token, a BM25
file writer over dict postings, and the mock embedder's earlier per-text
loop, kept verbatim. Every output must keep its bits.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
import zlib
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragroute.cli import main
from ragroute.corpus import (
    Chunk,
    ChunkingConfig,
    Document,
    TokenizedTexts,
    chunk_document,
    term_table,
    tokenize,
)
from ragroute.embedding import MockEmbedder, _token_axis
from ragroute.retrieval import Bm25Index

_ORACLE_TOKEN = re.compile(r"\w+|[^\w\s]")


def token_spans_chunks(doc: Document, cfg: ChunkingConfig) -> list[Chunk]:
    """Oracle: the chunker as it was, with one (start, end) span per token."""
    spans = [(m.start(), m.end()) for m in _ORACLE_TOKEN.finditer(doc.body)]
    if not spans:
        raise ValueError(f"empty document: {doc.doc_id!r}")
    total = len(spans)
    chunks = []
    for i in range(math.ceil(max(total - cfg.overlap_tokens, 1) / cfg.stride)):
        start = i * cfg.stride
        window = spans[start : start + cfg.chunk_tokens]
        text = doc.body[window[0][0] : window[-1][1]]
        chunks.append(Chunk(f"{doc.doc_id}:{i:05d}", doc.doc_id, text, start, len(window)))
    return chunks


def oracle_bm25_files(chunks: list[Chunk]) -> tuple[bytes, bytes]:
    """Oracle: the bytes of ``bm25.json`` and ``bm25.bin`` for ``chunks``,
    from dict postings that tokenize each chunk itself and lower the tokens
    in a list, laid out term by term and chunk by chunk in plain loops."""
    postings: dict[str, dict[str, int]] = {}
    doc_len: dict[str, int] = {}
    for chunk in chunks:
        terms = [t.lower() for t in _ORACLE_TOKEN.findall(chunk.text)]
        doc_len[chunk.chunk_id] = len(terms)
        for term, tf in Counter(terms).items():
            postings.setdefault(term, {})[chunk.chunk_id] = tf
    chunk_ids = sorted(doc_len)
    row_of = {chunk_id: row for row, chunk_id in enumerate(chunk_ids)}
    offsets, rows, tfs = [0], [], []
    for term in sorted(postings):
        for chunk_id in sorted(postings[term]):
            rows.append(row_of[chunk_id])
            tfs.append(postings[term][chunk_id])
        offsets.append(len(rows))
    lengths = [doc_len[c] for c in chunk_ids]
    binary = b"".join([
        struct.pack(f"<{len(offsets)}q", *offsets),
        struct.pack(f"<{len(rows)}i", *rows),
        struct.pack(f"<{len(tfs)}i", *tfs),
        struct.pack(f"<{len(lengths)}i", *lengths),
    ])
    manifest = {"chunk_ids": chunk_ids, "n_postings": len(rows), "terms": sorted(postings)}
    return json.dumps(manifest, sort_keys=True, ensure_ascii=False).encode("utf-8"), binary


def bm25_files(path) -> tuple[bytes, bytes]:
    return path.read_bytes(), path.with_suffix(".bin").read_bytes()


def oracle_chunk_files(chunks: list[Chunk]) -> tuple[bytes, bytes]:
    """Oracle: the bytes ``save_chunks`` writes to ``chunks.jsonl`` and
    ``chunks.bin``: one ``json.dumps`` of one list per field, the texts'
    byte lengths and the crc32 of the texts' UTF-8 bytes, joined."""
    texts = [c.text.encode("utf-8") for c in chunks]
    columns = {
        "chunk_id": [c.chunk_id for c in chunks],
        "crc32": zlib.crc32(b"".join(texts)),
        "doc_id": [c.doc_id for c in chunks],
        "text_bytes": [len(t) for t in texts],
        "token_len": [c.token_len for c in chunks],
        "token_start": [c.token_start for c in chunks],
    }
    record = json.dumps(columns, ensure_ascii=False, sort_keys=True) + "\n"
    return record.encode("utf-8"), b"".join(texts)


# Whitespace that str.split and the tokenizer both skip (\x1c-\x1f, NEL, NBSP,
# ideographic space), word characters that are not letters (_ and digits of
# two scripts), combining marks alone and after a letter, CJK, case pairs whose
# lower form changes length, and runs of punctuation.
_PIECES = [
    " ", "  ", "\t", "\n", "\r\n", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x1f",
    "\x85", "\xa0", "\u2003", "\u3000",
    "_", "__x", "7", "42", "\u0663", "a", "Zed", "\xe9", "e\u0301", "\u0301", "\u20dd",
    "\u4e2d", "\u6587\u5b57", "\u30bf\u30ef\u30fc", "\u0130", "\u03a3", "\u1e9e",
    ".", ",", "!?", "...", "--", "'", "\"", "()", "\U0001f600", "\xa7",
]
BODIES = st.lists(
    st.one_of(st.sampled_from(_PIECES), st.text(max_size=3)), max_size=80
).map("".join)
CONFIGS = st.integers(1, 9).flatmap(
    lambda size: st.builds(ChunkingConfig, st.just(size), st.integers(0, size - 1))
)


def chunks_or_error(chunker, doc: Document, cfg: ChunkingConfig):
    try:
        return chunker(doc, cfg)
    except ValueError as exc:
        return str(exc)


class TestChunkingOracle:
    @given(BODIES, CONFIGS)
    def test_same_chunks_as_token_spans_chunker(self, body, cfg):
        doc = Document("d", "", "", body)
        assert chunks_or_error(chunk_document, doc, cfg) == chunks_or_error(
            token_spans_chunks, doc, cfg
        )

    @given(BODIES, CONFIGS)
    def test_windows_cover_every_token(self, body, cfg):
        tokens = _ORACLE_TOKEN.findall(body)
        if not tokens:
            return
        chunks = chunk_document(Document("d", "", "", body), cfg)
        covered = [0] * len(tokens)
        for i, chunk in enumerate(chunks):
            assert chunk.token_start == i * cfg.stride
            window = tokens[chunk.token_start : chunk.token_start + chunk.token_len]
            assert _ORACLE_TOKEN.findall(chunk.text) == window
            assert chunk.text == chunk.text.strip()
            if i < len(chunks) - 1:
                assert chunk.token_len == cfg.chunk_tokens
            for pos in range(chunk.token_start, chunk.token_start + chunk.token_len):
                covered[pos] += 1
        assert all(covered)
        assert chunks[-1].token_start + chunks[-1].token_len == len(tokens)


def make_chunks(texts: list[str]) -> list[Chunk]:
    return [Chunk(f"d:{i:05d}", "d", text, 0, len(tokenize(text))) for i, text in enumerate(texts)]


def oracle_mock_rows(texts: list[str], dim: int) -> np.ndarray:
    """Oracle: the mock embedder's rows as its per-text loop made them,
    verbatim but for the token source: each text tokenized whole and each
    token hashed by ``_token_axis`` of its lowercase form."""
    out = np.zeros((len(texts), dim), dtype=np.float32)
    for row, tokens in enumerate(map(_ORACLE_TOKEN.findall, texts)):
        axes = np.fromiter((_token_axis(t.lower(), dim) for t in tokens), dtype=np.intp)
        counts = np.bincount(axes, minlength=dim)
        norm = np.linalg.norm(counts)
        if norm > 0.0:
            out[row] = counts / norm
    return out


# Every code point, lone surrogates included.
_ALL_CHARS = "".join(map(chr, range(0x110000)))


def test_whitespace_pieces_cut_no_token():
    """``tokenize`` reads a text's ``str.split`` pieces, not the text, and
    takes a piece that is all ``str.isalnum`` as one token. That gives the
    token regex's tokens over the whole text only because ``re``'s ``\\s`` and
    ``str.split`` both take exactly the ``str.isspace`` characters as
    whitespace, no ``\\w`` character is one, and ``\\w`` is exactly
    ``str.isalnum`` or the underscore."""
    spaces = "".join(filter(str.isspace, _ALL_CHARS))
    assert len(spaces) > 20
    assert "".join(re.findall(r"\s", _ALL_CHARS)) == spaces
    assert "".join(_ALL_CHARS.split()) == "".join(c for c in _ALL_CHARS if not c.isspace())
    words = "".join(re.findall(r"\w", _ALL_CHARS))
    assert not any(map(str.isspace, words))
    assert words == "".join(c for c in _ALL_CHARS if c.isalnum() or c == "_")


TEXTS = st.lists(BODIES, max_size=12)


class TestTermTable:
    @given(TEXTS)
    def test_holds_the_lowercase_tokens_of_each_text(self, texts):
        table = term_table(texts)
        want = [[t.lower() for t in _ORACLE_TOKEN.findall(text)] for text in texts]
        assert table.terms == sorted({t for tokens in want for t in tokens})
        assert table.lengths.tolist() == list(map(len, want))
        assert [table.terms[i] for i in table.ids.tolist()] == [t for ts in want for t in ts]
        assert table.ids.dtype == table.lengths.dtype == np.intp

    def test_reads_the_characters_that_split_alone_might_get_wrong(self):
        """Whitespace that only Unicode knows, a word character that is not
        alphanumeric, a capital whose lowercase form is two characters (the
        second a combining mark, which would be a token of its own were the
        text lowered before it was tokenized) and a combining mark after a
        letter."""
        text = "a\x1cb\x85c\xa0d\u3000e_f \u0130X e\u0301. \u0301"
        table = term_table([text, "", "  \n"])
        tokens = [t.lower() for t in _ORACLE_TOKEN.findall(text)]
        assert tokens == ["a", "b", "c", "d", "e_f", "i\u0307x", "e", "\u0301", ".", "\u0301"]
        assert [table.terms[i] for i in table.ids.tolist()] == tokens
        assert table.lengths.tolist() == [10, 0, 0]

    def test_tokenized_texts_carry_the_table_and_slice_to_plain_lists(self):
        tokenized = TokenizedTexts(["a b", "c A"])
        assert tokenized == ["a b", "c A"]
        assert tokenized.table.terms == ["a", "b", "c"]
        assert tokenized.table.ids.tolist() == [0, 1, 2, 0]
        assert type(tokenized[:1]) is list and tokenized[:1] == ["a b"]


class TestSharedTable:
    @given(st.lists(BODIES, max_size=12).flatmap(
        lambda texts: st.tuples(st.just(texts), st.permutations(range(len(texts))))
    ))
    def test_bm25_from_the_term_table_saves_the_oracle_bytes(self, tmp_path_factory, texts_ids):
        """Chunks in chunk_id order save the oracle's bytes; in any other
        order the build names the first chunk out of place."""
        texts, ids = texts_ids
        chunks = [
            Chunk(f"d:{i:05d}", c.doc_id, c.text, c.token_start, c.token_len)
            for i, c in zip(ids, make_chunks(texts))
        ]
        if ids != sorted(ids):
            first = next(k for k in range(1, len(ids)) if ids[k] < ids[k - 1])
            message = f"chunk ids are not sorted and unique at 'd:{ids[first]:05d}'"
            with pytest.raises(ValueError, match=f"^{message}$"):
                Bm25Index.build(chunks)
            chunks.sort(key=lambda c: c.chunk_id)
        path = tmp_path_factory.getbasetemp() / "bm25.json"
        Bm25Index.build(chunks, term_table(c.text for c in chunks)).save(path)
        assert bm25_files(path) == oracle_bm25_files(chunks)
        Bm25Index.build(chunks).save(path)
        assert bm25_files(path) == oracle_bm25_files(chunks)

    def test_bm25_rejects_a_table_of_other_texts(self):
        chunks = make_chunks(["a b", "c"])
        with pytest.raises(ValueError, match="1 texts in the term table for 2 chunks"):
            Bm25Index.build(chunks, term_table(["a b"]))

    @given(st.lists(st.one_of(BODIES, st.sampled_from(["", " \x85 ", "?"])), min_size=1,
                    max_size=12), st.one_of(st.integers(1, 8), st.integers(9, 2048)))
    def test_mock_rows_are_bit_equal_to_the_per_text_loop(self, texts, dim):
        """From the term table, from plain texts, and again from plain texts
        once the embedder's memos hold every piece; a ``dim`` of 1 to 8 puts
        many terms on one axis, and texts with no tokens are zero rows."""
        want = oracle_mock_rows(texts, dim).tobytes()
        embedder = MockEmbedder(dim)
        assert embedder.embed_batch(TokenizedTexts(texts)).tobytes() == want
        assert embedder.embed_batch(texts).tobytes() == want
        assert embedder.embed_batch(texts).tobytes() == want
        assert b"".join(embedder.embed_batch([t]).tobytes() for t in texts) == want


def routed_size_corpus(seed: int) -> list[dict]:
    """16 categories of 25 documents of 1136 tokens each, so 10 chunks of 128
    tokens at overlap 16: the size of the routed single-hop benchmark."""
    rng = random.Random(seed)
    words = ["".join(rng.choice("bcdfgklmnprstvz") + rng.choice("aeiou") for _ in range(3))
             for _ in range(1500)]
    # each a single token
    extras = [".", ",", "?", "'", "_id", "42", "Caf\xe9", "\u6771\u4eac"]
    spaces = [" "] * 8 + ["\n", "  ", " \x1f "]
    corpus = []
    for c in range(16):
        for d in range(25):
            body = "".join(
                (rng.choice(words) if rng.random() < 0.85 else rng.choice(extras))
                + rng.choice(spaces)
                for _ in range(1136)
            )
            corpus.append({"doc_id": f"c{c:02d}d{d:02d}", "category": f"c{c:02d}", "body": body})
    return corpus


def test_routed_size_set_up_writes_the_oracle_bytes(tmp_path, capsys):
    """ingest and build-index at benchmark size write the chunk, vector and
    BM25 files that the per-token-span chunker, the per-text mock loop and
    the dict-postings BM25 writer give."""
    corpus = routed_size_corpus(16)
    with (tmp_path / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        fh.writelines(json.dumps(rec) + "\n" for rec in corpus)
    categories = sorted({rec["category"] for rec in corpus})
    config = {
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "index_dir": str(tmp_path / "index"),
        "chunking": {"chunk_tokens": 128, "overlap_tokens": 16},
        "embedding": {"provider": "deterministic_mock", "model_name": "mock", "dim": 1024},
        "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
        "agents": [{"agent_id": c, "category": c} for c in categories],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["ingest", "--config", str(tmp_path / "config.json")]) == 0
    assert main(["build-index", "--config", str(tmp_path / "config.json")]) == 0
    cfg = ChunkingConfig(128, 16)
    sizes = []
    for category in categories:
        adir = tmp_path / "index" / "agents" / category
        chunks = []
        for rec in corpus:
            if rec["category"] == category:
                doc = Document(rec["doc_id"], "", category, rec["body"])
                chunks.extend(token_spans_chunks(doc, cfg))
        sizes.append(len(chunks))
        chunk_files = ((adir / "chunks.jsonl").read_bytes(), (adir / "chunks.bin").read_bytes())
        assert chunk_files == oracle_chunk_files(chunks)
        assert bm25_files(adir / "bm25.json") == oracle_bm25_files(chunks)
        rows = oracle_mock_rows([c.text for c in chunks], 1024).astype("<f4")
        assert (adir / "vectors.bin").read_bytes() == rows.tobytes()
    assert sizes == [250] * 16
