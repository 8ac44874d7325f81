"""Set-up against the code it replaced.

``build-index`` tokenizes each chunk once and hands the token lists to both
the mock embedder and the BM25 build, and the chunker cuts windows from
regex runs of tokens. The oracles here are the earlier forms: a chunker that
keeps one (start, end) span per token, and a BM25 build and a mock embedder
that each tokenize every text themselves. Every output must keep its bits.
"""

from __future__ import annotations

import json
import math
import random
import re
import struct
from collections import Counter

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
    tokenize,
)
from ragroute.embedding import MockEmbedder
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


def oracle_chunks_jsonl(chunks: list[Chunk]) -> bytes:
    """Oracle: the bytes ``save_chunks`` wrote with one ``json.dumps`` per line."""
    lines = [
        json.dumps(
            {"chunk_id": c.chunk_id, "doc_id": c.doc_id, "text": c.text,
             "token_start": c.token_start, "token_len": c.token_len},
            ensure_ascii=False,
            sort_keys=True,
        )
        + "\n"
        for c in chunks
    ]
    return "".join(lines).encode("utf-8")


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
        tokens = tokenize(body)
        if not tokens:
            return
        chunks = chunk_document(Document("d", "", "", body), cfg)
        covered = [0] * len(tokens)
        for i, chunk in enumerate(chunks):
            assert chunk.token_start == i * cfg.stride
            window = tokens[chunk.token_start : chunk.token_start + chunk.token_len]
            assert tokenize(chunk.text) == window
            assert chunk.text == chunk.text.strip()
            if i < len(chunks) - 1:
                assert chunk.token_len == cfg.chunk_tokens
            for pos in range(chunk.token_start, chunk.token_start + chunk.token_len):
                covered[pos] += 1
        assert all(covered)
        assert chunks[-1].token_start + chunks[-1].token_len == len(tokens)


def make_chunks(texts: list[str]) -> list[Chunk]:
    return [Chunk(f"d:{i:05d}", "d", text, 0, len(tokenize(text))) for i, text in enumerate(texts)]


class TestSharedTokens:
    @given(st.lists(BODIES, max_size=12).flatmap(
        lambda texts: st.tuples(st.just(texts), st.permutations(range(len(texts))))
    ))
    def test_bm25_from_shared_tokens_saves_the_oracle_bytes(self, tmp_path_factory, texts_ids):
        """Chunk ids run against build order, so the build must sort them."""
        texts, ids = texts_ids
        chunks = [
            Chunk(f"d:{i:05d}", c.doc_id, c.text, c.token_start, c.token_len)
            for i, c in zip(ids, make_chunks(texts))
        ]
        path = tmp_path_factory.getbasetemp() / "bm25.json"
        Bm25Index.build(chunks, [tokenize(c.text) for c in chunks]).save(path)
        assert bm25_files(path) == oracle_bm25_files(chunks)
        Bm25Index.build(chunks).save(path)
        assert bm25_files(path) == oracle_bm25_files(chunks)

    def test_bm25_rejects_a_token_list_per_chunk_missing(self):
        chunks = make_chunks(["a b", "c"])
        with pytest.raises(ValueError):
            Bm25Index.build(chunks, [["a", "b"]])

    @given(st.lists(BODIES, min_size=1, max_size=12), st.integers(1, 2048))
    def test_mock_rows_from_shared_tokens_are_bit_equal(self, texts, dim):
        tokenized = TokenizedTexts(texts, [tokenize(t) for t in texts])
        assert tokenized == texts
        shared = MockEmbedder(dim).embed_batch(tokenized)
        assert shared.tobytes() == MockEmbedder(dim).embed_batch(texts).tobytes()

    def test_a_slice_of_tokenized_texts_is_a_plain_list(self):
        tokenized = TokenizedTexts(["a b", "c"], [["a", "b"], ["c"]])
        assert type(tokenized[:1]) is list and tokenized[:1] == ["a b"]
        with pytest.raises(ValueError, match="1 token lists for 2 texts"):
            TokenizedTexts(["a b", "c"], [["a", "b"]])


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
    BM25 files that the per-token-span chunker, a mock embedder tokenizing
    each text and the self-tokenizing BM25 build give."""
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
    embedder = MockEmbedder(1024)
    sizes = []
    for category in categories:
        adir = tmp_path / "index" / "agents" / category
        chunks = []
        for rec in corpus:
            if rec["category"] == category:
                doc = Document(rec["doc_id"], "", category, rec["body"])
                chunks.extend(token_spans_chunks(doc, cfg))
        sizes.append(len(chunks))
        assert (adir / "chunks.jsonl").read_bytes() == oracle_chunks_jsonl(chunks)
        assert bm25_files(adir / "bm25.json") == oracle_bm25_files(chunks)
        rows = embedder.embed_batch([c.text for c in chunks]).astype("<f4")
        assert (adir / "vectors.bin").read_bytes() == rows.tobytes()
    assert sizes == [250] * 16
