"""Corpus ingestion: load documents, split into overlapping token chunks.

A chunk is one sliding window of ``chunk_tokens`` tokens with consecutive
windows overlapping by ``overlap_tokens``. The final window keeps whatever
tokens remain; tail content is never discarded.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterable, TypeVar

T = TypeVar("T")

# One token: a run of word characters, or one character that is neither a
# word character nor whitespace. Chunk windows are cut by the same rule.
_TOKEN = r"\w+|[^\w\s]"
_TOKEN_RE = re.compile(_TOKEN)
_SPACE_RE = re.compile(r"\s*")
# A repeat count must stay below the regex engine's MAXREPEAT (2**32 - 1); no
# text that fits in memory holds that many tokens.
_MAX_RUN = 2**32 - 2
_CHUNK_JSON = json.JSONEncoder(ensure_ascii=False, sort_keys=True)


class InputError(RuntimeError):
    """An operator fault: a config, input file, index file or endpoint that
    is not what the program needs. The CLI exits 2 on every one."""


class LineError(InputError):
    """A line of a JSON-lines file is not the record the file must hold; the
    message names the file and the line."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    category: str
    body: str


@dataclass(frozen=True)
class Chunk:
    chunk_id: str
    doc_id: str
    text: str
    token_start: int
    token_len: int


def require_int(name: str, value) -> None:
    """TypeError naming ``name`` unless ``value`` is an int; a bool is not."""
    if not isinstance(value, int) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {value!r}")


@dataclass(frozen=True)
class ChunkingConfig:
    chunk_tokens: int
    overlap_tokens: int

    def __post_init__(self) -> None:
        for name in ("chunk_tokens", "overlap_tokens"):
            require_int(f"chunking {name}", getattr(self, name))
        if not (0 <= self.overlap_tokens < self.chunk_tokens):
            raise ValueError(
                f"invalid chunking config: need 0 <= overlap_tokens < chunk_tokens, "
                f"got ({self.chunk_tokens}, {self.overlap_tokens})"
            )

    @property
    def stride(self) -> int:
        return self.chunk_tokens - self.overlap_tokens


def tokenize(text: str) -> list[str]:
    """Split text into word and single-character punctuation tokens.

    Deterministic; whitespace is dropped, everything else survives as a token.
    """
    return _TOKEN_RE.findall(text)


def _tokens_re(least: int, most: int) -> re.Pattern:
    """Between ``least`` and ``most`` tokens, each after optional whitespace;
    greedy, so a match ends at the end of its last token. ``re`` keeps the
    compiled pattern in its own cache."""
    return re.compile(rf"(?:\s*(?:{_TOKEN})){{{least},{min(most, _MAX_RUN)}}}")


class TokenizedTexts(list):
    """A list of texts that also holds each text's ``tokenize`` list in
    ``tokens``, so a reader that counts tokens need not tokenize again. A
    slice of it is a plain list of texts."""

    def __init__(self, texts: Iterable[str], tokens: list[list[str]]):
        super().__init__(texts)
        if len(tokens) != len(self):
            raise ValueError(f"{len(tokens)} token lists for {len(self)} texts")
        self.tokens = tokens


def make_chunk_id(doc_id: str, ordinal: int) -> str:
    return f"{doc_id}:{ordinal:05d}"


def chunk_ordinal(chunk_id: str) -> int:
    """Recover the chunk's position within its document from its id."""
    return int(chunk_id.rsplit(":", 1)[1])


def chunk_count(total_tokens: int, cfg: ChunkingConfig) -> int:
    """Number of windows over a document of ``total_tokens`` tokens."""
    return math.ceil(max(total_tokens - cfg.overlap_tokens, 1) / cfg.stride)


def chunk_document(doc: Document, cfg: ChunkingConfig) -> list[Chunk]:
    """Split a document into overlapping token-window chunks.

    Every non-final chunk has exactly ``cfg.chunk_tokens`` tokens and overlaps
    its successor by exactly ``cfg.overlap_tokens``. Chunk text is the original
    character span from the first to the last token of the window, so no
    content is lost or reflowed.

    The body is cut into runs of ``cfg.stride`` tokens (the last may be
    shorter); window i is run i plus the up to ``cfg.overlap_tokens`` tokens
    that follow it. Only the last run's tokens are counted.
    """
    runs = list(_tokens_re(1, cfg.stride).finditer(doc.body))
    if not runs:
        raise ValueError(f"empty document: {doc.doc_id!r}")
    total = (len(runs) - 1) * cfg.stride + len(tokenize(runs[-1].group()))
    overlap = _tokens_re(0, cfg.overlap_tokens)
    chunks: list[Chunk] = []
    for i in range(chunk_count(total, cfg)):
        run = runs[i]
        first = _SPACE_RE.match(doc.body, run.start()).end()
        last = overlap.match(doc.body, run.end()).end()
        start = i * cfg.stride
        chunks.append(
            Chunk(
                chunk_id=make_chunk_id(doc.doc_id, i),
                doc_id=doc.doc_id,
                text=doc.body[first:last],
                token_start=start,
                token_len=min(cfg.chunk_tokens, total - start),
            )
        )
    return chunks


@dataclass(frozen=True)
class RecordError:
    """One rejected corpus record: the line it came from and why."""

    line_no: int
    reason: str


def load_corpus(path: str | Path) -> tuple[list[Document], list[RecordError]]:
    """Read a JSONL corpus file (one document object per line).

    Records that are not UTF-8 JSON objects, lack a string ``doc_id``, lack
    a string body with tokens, or duplicate an earlier ``doc_id`` are
    rejected with a per-record error, never silently dropped.
    """
    path = Path(path)
    docs: list[Document] = []
    errors: list[RecordError] = []
    seen: set[str] = set()
    # Bytes that are not UTF-8 decode to lone surrogates U+DC80..U+DCFF, which
    # do not encode back to UTF-8, so such a line rejects its own record alone.
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            try:
                line.encode("utf-8")
            except UnicodeEncodeError as exc:
                byte = ord(line[exc.start]) - 0xDC00
                errors.append(
                    RecordError(line_no, f"not UTF-8: byte 0x{byte:02x} at column {exc.start + 1}")
                )
                continue
            line = line.strip()
            if not line:
                continue
            try:
                rec = json.loads(line)
            except json.JSONDecodeError as exc:
                errors.append(RecordError(line_no, f"malformed JSON: {exc}"))
                continue
            if not isinstance(rec, dict):
                errors.append(RecordError(line_no, "not a JSON object"))
                continue
            doc_id = rec.get("doc_id")
            body = rec.get("body")
            if not doc_id:
                errors.append(RecordError(line_no, "missing doc_id"))
                continue
            if not isinstance(doc_id, str):
                errors.append(RecordError(line_no, f"doc_id is not a string: {doc_id!r}"))
                continue
            if not body:
                errors.append(RecordError(line_no, f"missing body (doc_id={doc_id!r})"))
                continue
            if not isinstance(body, str):
                errors.append(RecordError(line_no, f"body is not a string (doc_id={doc_id!r})"))
                continue
            # Every character that is not whitespace is part of a token.
            if not body.strip():
                errors.append(RecordError(line_no, f"blank body (doc_id={doc_id!r})"))
                continue
            if doc_id in seen:
                errors.append(RecordError(line_no, f"duplicate doc_id {doc_id!r}"))
                continue
            seen.add(doc_id)
            docs.append(
                Document(
                    doc_id=doc_id,
                    title=str(rec.get("title", "")),
                    category=str(rec.get("category", "")),
                    body=body,
                )
            )
    return docs, errors


def save_chunks(path: str | Path, chunks: list[Chunk]) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        fh.writelines(
            _CHUNK_JSON.encode(
                {
                    "chunk_id": c.chunk_id,
                    "doc_id": c.doc_id,
                    "text": c.text,
                    "token_start": c.token_start,
                    "token_len": c.token_len,
                }
            )
            + "\n"
            for c in chunks
        )


def read_jsonl(path: str | Path, parse: Callable[[dict], T]) -> list[T]:
    """``parse`` of the JSON value on each non-blank line of a UTF-8 file.

    Raises LineError naming the file and the line when a line is not UTF-8
    or not JSON, or when ``parse`` finds a field missing or of the wrong type
    or value.
    """
    path = Path(path)
    out: list[T] = []
    with path.open("r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, 1):
                line = line.strip()
                if line:
                    out.append(parse(json.loads(line)))
        except UnicodeDecodeError as exc:
            # The text reader decodes whole blocks, so it cannot tell which
            # line the bad bytes are on; find it in the raw bytes.
            for line_no, raw in enumerate(path.read_bytes().split(b"\n"), 1):
                try:
                    raw.decode("utf-8")
                except UnicodeDecodeError as line_exc:
                    raise LineError(f"{path} line {line_no}: not UTF-8: {line_exc}") from exc
            raise LineError(f"{path} is not UTF-8: {exc}") from exc
        except (KeyError, TypeError, ValueError, AttributeError) as exc:
            raise LineError(f"{path} line {line_no}: {exc!r}") from exc
    return out


def load_chunks(path: str | Path) -> list[Chunk]:
    """The chunks ``save_chunks`` wrote; LineError names a bad line."""
    return read_jsonl(path, lambda rec: Chunk(**rec))
