"""Corpus ingestion: load documents, split into overlapping token chunks.

A chunk is one sliding window of ``chunk_tokens`` tokens with consecutive
windows overlapping by ``overlap_tokens``. The final window keeps whatever
tokens remain; tail content is never discarded. An agent's chunks are stored
as their texts' UTF-8 bytes back to back in ``chunks.bin`` and one JSON
object of the other columns in ``chunks.jsonl``, with each text's byte length
and the crc32 of ``chunks.bin``. ``term_table``
reads an agent's chunk texts once into integer term ids, for its BM25 index
and the mock embedder alike.
"""

from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass
from functools import partial
from itertools import accumulate, chain
from pathlib import Path
from typing import Callable, Iterable, NamedTuple, TypeVar

import numpy as np

from .store import (
    InputError, VectorFileError, read_arrays, read_json, require_crc32, require_int, write_atomic
)

T = TypeVar("T")

# One token: a run of word characters, or one character that is neither a
# word character nor whitespace. Chunk windows are cut by the same rule.
_TOKEN = r"\w+|[^\w\s]"
_TOKEN_RE = re.compile(_TOKEN)
_SPACE_RE = re.compile(r"\s*")
# A repeat count must stay below the regex engine's MAXREPEAT (2**32 - 1); no
# text that fits in memory holds that many tokens.
_MAX_RUN = 2**32 - 2


class LineError(InputError):
    """A line of a JSON-lines file is not the record the file must hold; the
    message names the file and the line."""


@dataclass(frozen=True)
class Document:
    doc_id: str
    title: str
    category: str
    body: str


class Chunk(NamedTuple):
    chunk_id: str
    doc_id: str
    text: str
    token_start: int
    token_len: int


# Chunk._make without its length check: the fields come from a zip of five.
_new_chunk = partial(tuple.__new__, Chunk)
# The columns of a chunk file, in ``Chunk`` field order, with the type every
# element must have and its name: ``text_bytes``, each text's UTF-8 length in
# the ``.bin``, stands in for ``text``.
_COLUMN_TYPES = {
    "chunk_id": (str, "a string"),
    "doc_id": (str, "a string"),
    "text_bytes": (int, "an integer"),
    "token_start": (int, "an integer"),
    "token_len": (int, "an integer"),
}
_CHUNK_FILE_KEYS = {*_COLUMN_TYPES, "crc32"}


def require_utf8(name: str, text: str) -> None:
    """ValueError naming ``name`` when ``text`` holds a lone surrogate, which
    UTF-8 cannot encode: argv decodes bytes that are not UTF-8 to one, and
    JSON decodes an escape such as ``\\udcff`` to one."""
    try:
        text.encode("utf-8")
    except UnicodeEncodeError as exc:
        raise ValueError(f"{name} is not UTF-8: lone surrogate U+{ord(text[exc.start]):04X}") from None


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


DEFAULT_CHUNKING = ChunkingConfig(1024, 40)


def tokenize(text: str) -> list[str]:
    """Split text into word and single-character punctuation tokens.

    Deterministic; whitespace is dropped, everything else survives as a token.
    The tokens are ``_TOKEN_RE.findall(text)``, read a ``str.split`` piece at
    a time: ``re``'s ``\\s`` is exactly ``str.isspace``, so no token runs
    across whitespace, and ``\\w`` is exactly ``str.isalnum`` or ``_``, so a
    piece that is all ``str.isalnum`` is one token without the regex.
    """
    tokens: list[str] = []
    for piece in text.split():
        if piece.isalnum():
            tokens.append(piece)
        else:
            tokens += _TOKEN_RE.findall(piece)
    return tokens


def _tokens_re(least: int, most: int) -> re.Pattern:
    """Between ``least`` and ``most`` tokens, each after optional whitespace;
    greedy, so a match ends at the end of its last token. ``re`` keeps the
    compiled pattern in its own cache."""
    return re.compile(rf"(?:\s*(?:{_TOKEN})){{{least},{min(most, _MAX_RUN)}}}")


class PieceMemo(dict):
    """Whitespace piece -> the tuple of ``term_ids[t.lower()]`` over its
    ``tokenize`` tokens ``t``, each distinct piece tokenized on first sight."""

    def __init__(self, term_ids: dict[str, int]):
        super().__init__()
        self.term_ids = term_ids

    def __missing__(self, piece: str) -> tuple[int, ...]:
        tokens = map(str.lower, tokenize(piece))
        ids = self[piece] = tuple(map(self.term_ids.__getitem__, tokens))
        return ids


class _FirstSeen(dict):
    """Term -> its place in the order terms were first looked up."""

    def __missing__(self, term: str) -> int:
        place = self[term] = len(self)
        return place


def read_pieces(texts: Iterable[str], memo: PieceMemo) -> tuple[np.ndarray, np.ndarray]:
    """``memo``'s ids for every token of ``texts``, text after text, and each
    text's token count.

    A text's tokens are those of its ``str.split`` pieces, in order, as in
    ``tokenize``. Each distinct piece is tokenized once per memo, and no
    token is kept as a string.
    """
    ids: list[int] = []
    lengths: list[int] = []
    ids_of = memo.__getitem__
    for text in texts:
        before = len(ids)
        ids.extend(chain.from_iterable(map(ids_of, text.split())))
        lengths.append(len(ids) - before)
    return np.array(ids, np.intp), np.array(lengths, np.intp)


class TermTable(NamedTuple):
    """Texts read as term ids: ``terms`` holds each distinct lowercase token
    once, sorted; ``ids`` holds one term id (a place in ``terms``) per token,
    text after text, in text order; ``lengths`` each text's token count."""

    terms: list[str]
    ids: np.ndarray
    lengths: np.ndarray


def term_table(texts: Iterable[str]) -> TermTable:
    """The ``TermTable`` of ``texts``: the lowercase ``tokenize`` of every
    text, without one string per token."""
    first_seen = _FirstSeen()
    ids, lengths = read_pieces(texts, PieceMemo(first_seen))
    terms = sorted(first_seen)
    order = np.fromiter(map(first_seen.__getitem__, terms), np.intp, len(terms))
    rank = np.empty(len(terms), np.intp)
    rank[order] = np.arange(len(terms))
    return TermTable(terms, rank[ids], lengths)


class TokenizedTexts(list):
    """A list of texts that also holds their ``term_table`` in ``table``, so
    a reader that counts tokens need not tokenize again. A slice of it is a
    plain list of texts."""

    def __init__(self, texts: Iterable[str]):
        super().__init__(texts)
        self.table = term_table(self)


def make_chunk_id(doc_id: str, ordinal: int) -> str:
    return f"{doc_id}:{ordinal:05d}"


def chunk_ordinal(chunk_id: str) -> int:
    """Recover the chunk's position within its document from its id;
    ValueError names an id that does not end in one."""
    _, colon, ordinal = chunk_id.rpartition(":")
    try:
        return int(ordinal if colon else "")
    except ValueError:
        raise ValueError(f"chunk id {chunk_id!r} does not end in its ordinal") from None


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
    """One rejected record of a JSON-lines file: the line it came from and why."""

    line_no: int
    reason: str


def _json_value(line: str):
    """The JSON value on ``line``, read with ``surrogateescape``; ValueError
    gives the reason when it is not UTF-8 or not JSON."""
    # Bytes that are not UTF-8 decode to lone surrogates U+DC80..U+DCFF, which
    # do not encode back to UTF-8, so such a line is refused alone.
    try:
        line.encode("utf-8")
    except UnicodeEncodeError as exc:
        byte = ord(line[exc.start]) - 0xDC00
        raise ValueError(f"not UTF-8: byte 0x{byte:02x} at column {exc.start + 1}") from None
    try:
        return json.loads(line.strip())
    except (ValueError, RecursionError) as exc:
        raise ValueError(f"malformed JSON: {exc}") from None


def read_jsonl(
    path: str | Path, parse: Callable[[object], T], errors: list[RecordError] | None = None
) -> list[T]:
    """``parse`` of the JSON value on each non-blank line of ``path``, in order.

    A line that is not UTF-8, is not JSON, or whose value ``parse`` refuses
    with ValueError raises LineError naming the file and the line; given
    ``errors``, it is left out and its ``RecordError`` appended there instead.
    """
    path = Path(path)
    out: list[T] = []
    with path.open("r", encoding="utf-8", errors="surrogateescape") as fh:
        for line_no, line in enumerate(fh, 1):
            if line.isspace():
                continue
            try:
                out.append(parse(_json_value(line)))
            except ValueError as exc:
                if errors is None:
                    raise LineError(f"{path} line {line_no}: {exc}") from exc
                errors.append(RecordError(line_no, str(exc)))
    return out


def _document(rec, seen: set[str]) -> Document:
    """The document of corpus record ``rec``, its ``doc_id`` added to
    ``seen``; ValueError gives the reason it is refused."""
    if not isinstance(rec, dict):
        raise ValueError("not a JSON object")
    doc_id = rec.get("doc_id")
    body = rec.get("body")
    if not doc_id:
        raise ValueError("missing doc_id")
    if not isinstance(doc_id, str):
        raise ValueError(f"doc_id is not a string: {doc_id!r}")
    if not body:
        raise ValueError(f"missing body (doc_id={doc_id!r})")
    if not isinstance(body, str):
        raise ValueError(f"body is not a string (doc_id={doc_id!r})")
    # Every character that is not whitespace is part of a token.
    if not body.strip():
        raise ValueError(f"blank body (doc_id={doc_id!r})")
    title, category = rec.get("title", ""), rec.get("category", "")
    for name, value in (("title", title), ("category", category)):
        if not isinstance(value, str):
            raise ValueError(f"{name} is not a string (doc_id={doc_id!r})")
    try:  # an escape such as \ud800 decodes to a lone surrogate
        (doc_id + body).encode("utf-8")
    except UnicodeEncodeError as exc:
        reason = f"not UTF-8: lone surrogate U+{ord(exc.object[exc.start]):04X}"
        raise ValueError(f"{reason} (doc_id={doc_id!r})") from None
    if doc_id in seen:
        raise ValueError(f"duplicate doc_id {doc_id!r}")
    seen.add(doc_id)
    return Document(doc_id, title, category, body)


def load_corpus(path: str | Path) -> tuple[list[Document], list[RecordError]]:
    """Read a JSONL corpus file (one document object per line).

    Records that are not UTF-8 JSON objects, lack a string ``doc_id``, lack
    a string body with tokens, have a ``title`` or ``category`` that is not
    a string, or duplicate an earlier ``doc_id`` are rejected with a
    per-record error, never silently dropped.
    """
    errors: list[RecordError] = []
    return read_jsonl(path, partial(_document, seen=set()), errors), errors


def save_chunks(path: str | Path, chunks: list[Chunk]) -> None:
    """Write the chunk texts' UTF-8 bytes back to back, in chunk order, to
    ``path.with_suffix(".bin")``, then ``path``: one JSON object on one line
    in which each ``Chunk`` field but ``text`` keys the list of that field's
    values, ``text_bytes`` the list of each text's byte length, and
    ``crc32`` the crc32 of the ``.bin``."""
    path = Path(path)
    texts = [c.text.encode("utf-8") for c in chunks]
    crc = write_atomic(path.with_suffix(".bin"), b"".join(texts))
    columns = dict(zip(Chunk._fields, list(zip(*chunks)) or [()] * len(Chunk._fields)))
    del columns["text"]
    record = {**columns, "text_bytes": list(map(len, texts)), "crc32": crc}
    text = json.dumps(record, ensure_ascii=False, sort_keys=True)
    write_atomic(path, (text + "\n").encode("utf-8"))


def _chunk_columns(record) -> tuple[list[list], int]:
    """A decoded chunk file's columns, in ``_COLUMN_TYPES`` order, and crc32.

    TypeError or ValueError names the column when ``record`` is not an
    object keyed by exactly the columns and ``crc32``, holding lists of one
    length, with strings in the id columns and integers (a bool is not one,
    as in ``require_int``) in the others, no byte length below 0, and a
    ``crc32`` that is one.
    """
    if type(record) is not dict:
        raise TypeError(f"{record!r:.40} is not an object")
    if record.keys() != _CHUNK_FILE_KEYS:
        raise ValueError(f"its keys are {sorted(record)}, not {sorted(_CHUNK_FILE_KEYS)}")
    for name, (kind, kind_name) in _COLUMN_TYPES.items():
        column = record[name]
        if type(column) is not list:
            raise TypeError(f"column {name!r} is {column!r:.40}, not a list")
        if not set(map(type, column)) <= {kind}:
            bad = next(v for v in column if type(v) is not kind)
            raise TypeError(f"column {name!r} holds {bad!r}, not {kind_name}")
    lengths = {name: len(record[name]) for name in _COLUMN_TYPES}
    if len(set(lengths.values())) > 1:
        raise ValueError(f"columns have unequal lengths {lengths}")
    if min(record["text_bytes"], default=0) < 0:
        raise ValueError(f"column 'text_bytes' holds {min(record['text_bytes'])}, not a size")
    return [record[name] for name in _COLUMN_TYPES], require_crc32(record["crc32"])


def _read_texts(path: Path, sizes: list[int], crc: int) -> list[str]:
    """The texts of chunk file ``path``, of ``sizes`` bytes each, decoded
    from one read-only mapping of its ``.bin``. VectorFileError names both
    files unless the ``.bin`` is their bytes, with crc32 ``crc``."""
    bin_path = path.with_suffix(".bin")
    where = f"{path} with {bin_path.name}"
    try:
        [blob] = read_arrays(bin_path, [("u1", sum(sizes))], crc)
    except VectorFileError as exc:
        raise VectorFileError(f"{where}: {exc}") from exc
    view = memoryview(blob)
    ends = list(accumulate(sizes))
    bounds = zip([0, *ends], ends)
    try:
        whole = str(view, "utf-8")
        if len(whole) == len(view):  # all ASCII: a byte is a character
            return [whole[start:end] for start, end in bounds]
        return [str(view[start:end], "utf-8") for start, end in bounds]
    except UnicodeDecodeError as exc:
        raise VectorFileError(f"{where}: a text is not UTF-8: {exc}") from exc


def load_chunks(path: str | Path) -> list[Chunk]:
    """The chunks ``save_chunks`` wrote: ``path`` read by ``store.read_json``
    and checked a whole column at a time, and the texts decoded from its
    ``.bin``. IndexFileError names the file, and the column when one is bad,
    or both files when the ``.bin`` is not the one ``path`` describes."""
    path = Path(path)
    columns, crc = read_json(path, _chunk_columns)
    columns[2] = _read_texts(path, columns[2], crc)
    return list(map(_new_chunk, zip(*columns)))
