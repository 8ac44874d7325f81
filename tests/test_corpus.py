from __future__ import annotations

import random

import pytest

from ragroute.corpus import (
    ChunkingConfig,
    Document,
    chunk_count,
    chunk_document,
    chunk_ordinal,
    load_corpus,
    tokenize,
)


def oracle_windows(total: int, cfg: ChunkingConfig) -> list[tuple[int, int]]:
    """Brute-force sliding-window enumerator: walk until the end is covered."""
    if total <= cfg.chunk_tokens:
        return [(0, total)]
    windows = []
    start = 0
    while True:
        end = min(start + cfg.chunk_tokens, total)
        windows.append((start, end))
        if end == total:
            return windows
        start = end - cfg.overlap_tokens


def make_doc(n_tokens: int, doc_id: str = "d") -> Document:
    body = " ".join(f"t{i}" for i in range(n_tokens))
    return Document(doc_id=doc_id, title="", category="", body=body)


class TestTokenize:
    def test_empty_input(self):
        assert tokenize("") == []
        assert tokenize("   \n\t ") == []

    def test_whitespace_split(self):
        assert tokenize("a b a") == ["a", "b", "a"]

    def test_word_punctuation_classes(self):
        assert tokenize("Daryl's brother, Merle.") == [
            "Daryl", "'", "s", "brother", ",", "Merle", ".",
        ]

    def test_recovers_non_whitespace_content(self):
        text = "Hello,  world! It's 42%."
        assert "".join(tokenize(text)) == text.replace(" ", "")


class TestChunkDocument:
    def test_exact_fit_single_chunk(self):
        chunks = chunk_document(make_doc(1024), ChunkingConfig(1024, 40))
        assert len(chunks) == 1
        assert chunks[0].token_len == 1024

    def test_two_chunks_with_stride(self):
        chunks = chunk_document(make_doc(2008), ChunkingConfig(1024, 40))
        assert len(chunks) == 2
        assert chunks[1].token_start == 984
        assert chunks[0].token_len == 1024
        assert chunks[1].token_len == 1024

    def test_short_document_single_partial_chunk(self):
        chunks = chunk_document(make_doc(10), ChunkingConfig(256, 20))
        assert len(chunks) == 1
        assert chunks[0].token_len == 10

    def test_empty_document_rejected(self):
        with pytest.raises(ValueError, match="empty document"):
            chunk_document(Document("d", "", "", "   "), ChunkingConfig(8, 2))

    def test_chunk_ids_deterministic(self):
        doc = make_doc(50)
        cfg = ChunkingConfig(16, 4)
        first = chunk_document(doc, cfg)
        second = chunk_document(doc, cfg)
        assert first == second
        assert [c.chunk_id for c in first] == [f"d:{i:05d}" for i in range(len(first))]
        assert [chunk_ordinal(c.chunk_id) for c in first] == list(range(len(first)))

    def test_overlap_exact_between_consecutive_chunks(self):
        cfg = ChunkingConfig(16, 5)
        chunks = chunk_document(make_doc(100), cfg)
        for prev, cur in zip(chunks, chunks[1:]):
            assert cur.token_start == prev.token_start + cfg.stride
            overlap = prev.token_start + prev.token_len - cur.token_start
            assert overlap == cfg.overlap_tokens

    @pytest.mark.parametrize("cfg", [ChunkingConfig(1024, 40), ChunkingConfig(256, 20)])
    def test_matches_window_oracle_randomized(self, cfg):
        rng = random.Random(1234)
        for _ in range(300):
            total = rng.randint(1, 10_000)
            expected = oracle_windows(total, cfg)
            got = chunk_document(make_doc(total), cfg)
            assert [(c.token_start, c.token_start + c.token_len) for c in got] == expected
            assert len(got) == chunk_count(total, cfg)

    def test_round_trip_token_coverage(self):
        rng = random.Random(7)
        cfg = ChunkingConfig(32, 8)
        for _ in range(25):
            total = rng.randint(1, 400)
            doc = make_doc(total)
            tokens = tokenize(doc.body)
            covered: dict[int, str] = {}
            for chunk in chunk_document(doc, cfg):
                chunk_tokens = tokenize(chunk.text)
                assert len(chunk_tokens) == chunk.token_len
                for offset, tok in enumerate(chunk_tokens):
                    pos = chunk.token_start + offset
                    assert covered.get(pos, tok) == tok
                    covered[pos] = tok
            assert [covered[i] for i in range(total)] == tokens

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            ChunkingConfig(10, 10)
        with pytest.raises(ValueError):
            ChunkingConfig(10, -1)


class TestLoadCorpus:
    def test_valid_records(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "a", "title": "A", "category": "x", "body": "hello"}\n'
            '{"doc_id": "b", "title": "B", "category": "x", "body": "world"}\n'
            '{"doc_id": "c", "title": "C", "category": "y", "body": "again"}\n'
        )
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b", "c"]
        assert errors == []

    def test_missing_body_reported_not_dropped_silently(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "a", "body": "hello"}\n'
            '{"doc_id": "broken"}\n'
            '{"doc_id": "b", "body": "world"}\n'
        )
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert len(errors) == 1
        assert errors[0].line_no == 2
        assert "body" in errors[0].reason

    def test_empty_file(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text("")
        docs, errors = load_corpus(path)
        assert docs == [] and errors == []

    def test_duplicate_doc_id_reported(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "a", "body": "one"}\n{"doc_id": "a", "body": "two"}\n'
        )
        docs, errors = load_corpus(path)
        assert len(docs) == 1 and len(errors) == 1
        assert "duplicate" in errors[0].reason

    def test_blank_body_reported_not_raised(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            '{"doc_id": "a", "body": "hello"}\n'
            '{"doc_id": "blank", "body": " \\t\\n\\u00a0"}\n'
            '{"doc_id": "b", "body": "world"}\n'
        )
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b"]
        assert [e.line_no for e in errors] == [2]
        assert "blank body" in errors[0].reason

    def test_line_not_utf8_reported_not_raised(self, tmp_path):
        path = tmp_path / "corpus.jsonl"
        path.write_bytes(
            b'{"doc_id": "a", "body": "caf\xc3\xa9"}\r\n'
            b'{"doc_id": "latin", "body": "caf\xe9"}\r\n'
            b'{"doc_id": "b", "body": "world"}\r'
            b'{"doc_id": "c", "body": "again"}\n'
        )
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a", "b", "c"]
        assert docs[0].body == "caf\u00e9"
        assert [e.line_no for e in errors] == [2]
        assert "not UTF-8: byte 0xe9 at column 33" in errors[0].reason

    @pytest.mark.parametrize("line", ["[]", "null", "7", '"text"'])
    def test_record_not_an_object_reported(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + '\n{"doc_id": "a", "body": "hello"}\n')
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a"]
        assert [(e.line_no, e.reason) for e in errors] == [(1, "not a JSON object")]

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "missing.jsonl")
