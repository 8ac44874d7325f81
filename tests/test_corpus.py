from __future__ import annotations

import errno
import json
import random
import re
import string
import tempfile
import zlib
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from ragroute.corpus import (
    Chunk,
    ChunkingConfig,
    Document,
    chunk_count,
    chunk_document,
    chunk_ordinal,
    load_chunks,
    load_corpus,
    save_chunks,
    tokenize,
)
from ragroute.store import IndexFileError


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


# Every character ``str.isspace`` takes as whitespace, next to characters the
# piece rule of ``tokenize`` could read wrongly: the underscore (a word
# character that is not alphanumeric), a combining mark (not a word
# character), non-ASCII letters and digits, a zero-width space (not
# whitespace), a lone surrogate and ASCII punctuation.
TOKEN_ALPHABET = (
    "".join(filter(str.isspace, map(chr, range(0x110000))))
    + "_\u0301\u0130\u0663\u200b\udcff"
    + string.punctuation
    + "aZ09"
)
TOKEN_TEXTS = st.one_of(st.text(), st.text(st.sampled_from(TOKEN_ALPHABET)))


class TestTokenize:
    @given(TOKEN_TEXTS)
    @example("a\x1cb\x85c\xa0d\u3000e_f \u0130X e\u0301. \u0301")
    @example("a_b.c word. \u0663\u0664,\u0665")
    def test_same_tokens_as_the_regex_over_the_whole_text(self, text):
        assert tokenize(text) == re.findall(r"\w+|[^\w\s]", text)

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

    @pytest.mark.parametrize("sizes", [(128.0, 16), (128, 16.0), (True, 0), (2, False)])
    def test_sizes_that_are_not_integers_rejected(self, sizes):
        with pytest.raises(TypeError, match="must be an integer"):
            ChunkingConfig(*sizes)

    def test_window_beyond_the_regex_repeat_limit(self):
        # 2**40 tokens per window is more than a regex may repeat a group.
        chunks = chunk_document(make_doc(10), ChunkingConfig(2**40, 2**39))
        assert [(c.token_start, c.token_len) for c in chunks] == [(0, 10)]


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

    def test_lone_surrogate_escape_reported_not_raised(self, tmp_path):
        """The line is ASCII, but its body decodes to a lone surrogate, which
        no chunk file can hold as UTF-8."""
        path = tmp_path / "corpus.jsonl"
        path.write_text('{"doc_id": "d", "body": "\\ud800 text"}\n')
        docs, errors = load_corpus(path)
        assert docs == []
        assert [(e.line_no, e.reason) for e in errors] == [
            (1, "not UTF-8: lone surrogate U+D800 (doc_id='d')")
        ]

    @pytest.mark.parametrize("line", ["[]", "null", "7", '"text"'])
    def test_record_not_an_object_reported(self, tmp_path, line):
        path = tmp_path / "corpus.jsonl"
        path.write_text(line + '\n{"doc_id": "a", "body": "hello"}\n')
        docs, errors = load_corpus(path)
        assert [d.doc_id for d in docs] == ["a"]
        assert [(e.line_no, e.reason) for e in errors] == [(1, "not a JSON object")]

    @pytest.mark.parametrize(
        "record, reason",
        [
            ('{"doc_id": ["x"], "body": "words"}', "doc_id is not a string: ['x']"),
            ('{"doc_id": {"k": 1}, "body": "words"}', "doc_id is not a string: {'k': 1}"),
            ('{"doc_id": 5, "body": "words"}', "doc_id is not a string: 5"),
            ('{"doc_id": true, "body": "words"}', "doc_id is not a string: True"),
            ('{"doc_id": "x", "body": ["words"]}', "body is not a string (doc_id='x')"),
            ('{"doc_id": "x", "body": 7}', "body is not a string (doc_id='x')"),
        ],
    )
    def test_doc_id_or_body_not_a_string_reported(self, tmp_path, record, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text(f'{{"doc_id": "5", "body": "hello"}}\n{record}\n')
        docs, errors = load_corpus(path)
        assert [(d.doc_id, d.body) for d in docs] == [("5", "hello")]
        assert [(e.line_no, e.reason) for e in errors] == [(2, reason)]

    @pytest.mark.parametrize(
        "fields, reason",
        [
            ('"category": null', "category is not a string (doc_id='x')"),
            ('"category": ["c"]', "category is not a string (doc_id='x')"),
            ('"title": 5, "category": "c"', "title is not a string (doc_id='x')"),
            ('"title": {"t": 1}', "title is not a string (doc_id='x')"),
        ],
    )
    def test_title_or_category_not_a_string_reported(self, tmp_path, fields, reason):
        path = tmp_path / "corpus.jsonl"
        path.write_text(
            f'{{"doc_id": "5", "body": "hello"}}\n{{"doc_id": "x", {fields}, "body": "words"}}\n'
        )
        docs, errors = load_corpus(path)
        assert [(d.doc_id, d.title, d.category) for d in docs] == [("5", "", "")]
        assert [(e.line_no, e.reason) for e in errors] == [(2, reason)]

    def test_unreadable_path(self, tmp_path):
        with pytest.raises(OSError):
            load_corpus(tmp_path / "missing.jsonl")


# Characters a line-oriented or escaping writer could get wrong: line and
# record separators, JSON's escapes, and characters outside the BMP.
_AWKWARD = ["\u2028", "\u2029", "\x85", "\x1c", "\x1d", "\x1e", "\x1f", "\r", "\n",
            "\x00", '"', "\\", "/", "\U0001f600", "\U0010ffff", "\u00e9", "\u6771"]
_texts = st.text(st.one_of(st.sampled_from(_AWKWARD), st.characters()), max_size=12)
_chunks = st.lists(st.builds(Chunk, _texts, _texts, _texts, st.integers(), st.integers()),
                   max_size=6)


def per_line_bytes(chunks: list[Chunk]) -> bytes:
    """A chunk file in the older format: one JSON object per chunk, per line."""
    return "".join(
        json.dumps(c._asdict(), ensure_ascii=False, sort_keys=True) + "\n" for c in chunks
    ).encode("utf-8")


# The keys of a chunk file, and of one chunk object as older versions wrote it.
CHUNK_FILE_KEYS = "['chunk_id', 'crc32', 'doc_id', 'text_bytes', 'token_len', 'token_start']"
CHUNK_KEYS = "['chunk_id', 'doc_id', 'text', 'token_len', 'token_start']"


def per_line_refusal(path: Path, n: int, first_line_chars: int) -> str:
    """``load_chunks``' refusal of a chunk file at ``path`` that holds ``n``
    chunk objects, one per line, the first line ``first_line_chars`` long:
    no JSON, one object of the wrong keys, or JSON with more after it."""
    if n == 0:
        return f"{path} is not valid JSON: Expecting value: line 1 column 1 (char 0)"
    if n == 1:
        return (f"{path} is valid JSON of the wrong shape: ValueError: its keys are "
                f"{CHUNK_KEYS}, not {CHUNK_FILE_KEYS}")
    return f"{path} is not valid JSON: Extra data: line 2 column 1 (char {first_line_chars})"


class _DiskFull:
    """A file whose write puts down half of what it is given, then fails as
    a full disk does."""

    def __init__(self, fh):
        self.fh = fh

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, data):
        self.fh.write(data[: len(data) // 2])
        raise OSError(errno.ENOSPC, "No space left on device")

    def writelines(self, lines):
        for line in lines:
            self.write(line)


class TestChunkStore:
    @given(_chunks)
    @example([])
    def test_round_trip(self, chunks):
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "chunks.jsonl"
            save_chunks(path, chunks)
            assert path.read_bytes().count(b"\n") == 1
            assert load_chunks(path) == chunks

    def test_chunk_repr_and_immutability(self):
        chunk = Chunk(chunk_id="d:00000", doc_id="d", text="t", token_start=0, token_len=1)
        assert repr(chunk) == (
            "Chunk(chunk_id='d:00000', doc_id='d', text='t', token_start=0, token_len=1)"
        )
        with pytest.raises(AttributeError):
            chunk.text = "u"

    def test_one_json_decode_per_file(self, tmp_path, monkeypatch):
        paths = [tmp_path / f"agent{i}" / "chunks.jsonl" for i in range(3)]
        for path in paths:
            save_chunks(path, [Chunk(f"d:{j:05d}", "d", f"text {j}", j, 2) for j in range(40)])
        decodes = []
        raw_decode = json.JSONDecoder.raw_decode

        def counted(self, text, idx=0):
            decodes.append(idx)
            return raw_decode(self, text, idx)

        monkeypatch.setattr(json.JSONDecoder, "raw_decode", counted)
        assert [len(load_chunks(path)) for path in paths] == [40, 40, 40]
        assert len(decodes) == len(paths)

    def test_failed_write_leaves_the_previous_file(self, tmp_path, monkeypatch):
        path = tmp_path / "chunks.jsonl"
        before = [Chunk("d:00000", "d", "old text", 0, 2)]
        save_chunks(path, before)
        after = [Chunk(f"d:{j:05d}", "d", "new text " * 50, j, 100) for j in range(3)]
        path_open = Path.open
        monkeypatch.setattr(Path, "open", lambda self, *a, **k: _DiskFull(path_open(self, *a, **k)))
        with pytest.raises(OSError, match="No space left"):
            save_chunks(path, after)
        monkeypatch.undo()
        assert load_chunks(path) == before
        assert sorted(p.name for p in tmp_path.iterdir()) == ["chunks.bin", "chunks.jsonl"]

    def test_texts_are_the_bin_and_the_json_holds_their_sizes(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        save_chunks(path, [Chunk("d:00000", "d", "café", 0, 1), Chunk("d:00001", "d", "東京", 1, 1)])
        assert (tmp_path / "chunks.bin").read_bytes() == "café東京".encode("utf-8")
        record = json.loads(path.read_bytes())
        assert (record["text_bytes"], record["crc32"]) == ([5, 6], zlib.crc32("café東京".encode()))
        assert "text" not in record

    @pytest.mark.parametrize(
        "damage, words",
        [
            (lambda bin_path: bin_path.write_bytes(b"cafe!"), "has crc32"),
            (lambda bin_path: bin_path.write_bytes(b"cafe"), "holds 4 bytes"),
            (lambda bin_path: bin_path.write_bytes(b""), "holds 0 bytes"),
        ],
        ids=["same-size", "short", "empty"],
    )
    def test_a_bin_that_is_not_the_texts_is_refused_naming_both(self, tmp_path, damage, words):
        path = tmp_path / "chunks.jsonl"
        save_chunks(path, [Chunk("d:00000", "d", "café", 0, 1)])
        damage(tmp_path / "chunks.bin")
        with pytest.raises(IndexFileError) as info:
            load_chunks(path)
        assert str(info.value).startswith(f"{path} with chunks.bin: {tmp_path / 'chunks.bin'} ")
        assert words in str(info.value)

    def test_sizes_that_split_a_character_are_refused(self, tmp_path):
        path = tmp_path / "chunks.jsonl"
        save_chunks(path, [Chunk("d:00000", "d", "é", 0, 1), Chunk("d:00001", "d", "a", 1, 1)])
        record = json.loads(path.read_bytes())
        path.write_text(json.dumps({**record, "text_bytes": [1, 2]}), encoding="utf-8")
        with pytest.raises(IndexFileError, match="a text is not UTF-8"):
            load_chunks(path)

    @pytest.mark.parametrize("n", [0, 1, 3])
    def test_older_per_line_format_is_refused(self, tmp_path, n):
        """Refused as any file that is not the one object of columns is."""
        path = tmp_path / "chunks.jsonl"
        path.write_bytes(per_line_bytes([Chunk(f"d:{j:05d}", "d", "text", j, 1) for j in range(n)]))
        with pytest.raises(IndexFileError) as info:
            load_chunks(path)
        assert str(info.value) == per_line_refusal(path, n, 89)
