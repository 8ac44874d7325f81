"""Embedding providers and their HTTP transport.

Two providers sit behind one contract: a deterministic offline mock (bag of
hashed token directions, L2-normalized) and a remote HTTP provider speaking
the common embeddings wire shape ``{model, input: [...]}`` ->
``{data: [{index, embedding: [...]}]}`` (``index`` optional).
"""

from __future__ import annotations

import functools
import gzip
import hashlib
import json
import math
import os
import re
import time
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from itertools import accumulate, pairwise
from typing import Callable
from urllib.parse import urlsplit

import numpy as np

from . import __version__
from .corpus import PieceMemo, TokenizedTexts, read_pieces
from .store import InputError, require_int, require_str

# OpenAI's embeddings API takes at most 2048 inputs and 300,000 tokens per
# request; 256 chunks of the default size (1024 tokens) stay under both.
EMBED_BATCH_SIZE = 256
EMBED_TIMEOUT_S = 60.0
# The widest embedding a config may name. Common embedding models are a few
# thousand wide at most; far wider, one row alone needs more memory than a
# host has (2**40 floats are 4 TiB), and past 2**63 numpy cannot size it.
MAX_EMBEDDING_DIM = 65536


class TransportError(InputError):
    """Transient transport failure talking to a remote endpoint; retryable."""


class MalformedReplyError(InputError):
    """A remote endpoint's reply is not JSON or lacks a field its wire shape
    requires; not retryable."""


class HTTPStatusError(InputError):
    """A remote endpoint refused a request, or its API key cannot be sent."""


def endpoint_address(endpoint: str) -> tuple[tuple[str, str, int], bytes]:
    """Split an http(s) URL into ``((scheme, host, port), head)``, where
    ``head`` is the request line and ``Host`` field of a POST to it.

    ``Host`` is written as the standard library's HTTP client writes it:
    IDNA for a non-ASCII name, brackets around an IPv6 literal, and no port
    when it is the scheme's default. Raises ValueError for another scheme, a
    missing host, a bad port, a name IDNA cannot encode, or a path or query
    that is not printable ASCII (it is sent as it is written).
    """
    url = urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(f"endpoint must be an http:// or https:// URL: {endpoint!r}")
    default_port = 443 if url.scheme == "https" else 80
    port = url.port or default_port
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    if not all(" " < c < "\x7f" for c in target):
        raise ValueError(
            f"endpoint path must be printable ASCII, percent-encode the rest: {endpoint!r}"
        )
    host = url.hostname.encode("ascii" if url.hostname.isascii() else "idna")
    if b":" in host:
        host = b"[%s]" % host
    if port != default_port:
        host += b":%d" % port
    head = b"POST %s HTTP/1.1\r\nHost: %s\r\n" % (target.encode("ascii"), host)
    return (url.scheme, url.hostname, port), head


# The reply heads (status lines and fields, interim 1xx heads included), and
# each line of a chunked body, may take at most this many bytes.
REPLY_HEAD_CAP = 64 * 1024
# A body is read in pieces of at most this size, so a false length commits no
# more memory than the bytes that arrived and one piece.
_BODY_PIECE = 16 * 1024 * 1024
_CHUNKED_CUT = "connection closed inside a chunked reply"
_STATUS_LINE = re.compile(r"HTTP/1\.[0-9] ([1-9][0-9][0-9])(?: (.*))?")
_CHUNK_LINE = re.compile(rb"([0-9A-Fa-f]{1,16})[ \t]*(?:;[^\r\n]*)?\r?\n")
# What a header value may hold: latin-1 text without control characters
# other than HTAB (RFC 9110 §5.5).
_FIELD_VALUE = re.compile("[\t\x20-\x7e\xa0-\xff]*")


@functools.cache
def _tls_context(cert_file: str | None, cert_dir: str | None):
    """The client TLS context (ALPN ``http/1.1``) for the trust store that
    ``SSL_CERT_FILE`` and ``SSL_CERT_DIR`` name, made once per pair of their
    values: ``ssl.create_default_context`` reads the CA store on every call,
    which takes far longer than a loopback request."""
    import ssl

    context = ssl.create_default_context()
    context.set_alpn_protocols(["http/1.1"])
    return context


def _exchange(
    address: tuple[str, str, int], request: bytes, timeout: float
) -> tuple[int, str, dict[str, str], bytes | bytearray]:
    """Send one request on a new connection in one write, read the whole
    reply and close the connection; returns the status, the reason, the
    header fields (lowercase names) and the body.

    The body is framed as RFC 9112 §6.3 says: chunked when the reply says
    so, else by ``Content-Length``, else up to EOF. A reply that does not
    parse, or ends short of its framing, raises TransportError.
    """
    # socket (and ssl, for https, in _tls_context) is imported on the first
    # request, not with the module: only the remote backends use it.
    import socket

    scheme, host, port = address
    sock = socket.create_connection((host, port), timeout)
    try:
        sock.setsockopt(socket.IPPROTO_TCP, socket.TCP_NODELAY, 1)
        if scheme == "https":
            context = _tls_context(os.environ.get("SSL_CERT_FILE"), os.environ.get("SSL_CERT_DIR"))
            sock = context.wrap_socket(sock, server_hostname=host)
        sock.sendall(request)
        with sock.makefile("rb") as reply:
            return _read_reply(reply)
    finally:
        sock.close()


def _read_reply(reply) -> tuple[int, str, dict[str, str], bytes | bytearray]:
    """Read one reply from the buffered reader ``reply``, skipping interim (1xx) replies."""
    heads = bytearray()  # every head read so far, interim ones included
    status = 100
    while status < 200:
        start, line = len(heads), b""
        while line not in (b"\n", b"\r\n"):
            line = reply.readline(REPLY_HEAD_CAP - len(heads))
            heads += line
            if not line.endswith(b"\n"):
                raise TransportError(
                    f"reply head exceeds {REPLY_HEAD_CAP} bytes" if len(heads) == REPLY_HEAD_CAP
                    else "connection closed before the reply head ended"
                )
        status, reason, fields = _parse_head(heads[start:].decode("latin-1"))
    if status in (204, 304):
        return status, reason, fields, b""
    coding = fields.get("transfer-encoding")
    length = fields.get("content-length")
    if coding is not None and coding.rsplit(",", 1)[-1].strip().lower() == "chunked":
        return status, reason, fields, _read_chunked(reply)
    if coding is not None or length is None:
        return status, reason, fields, reply.read()
    if not (length.isascii() and length.isdigit() and len(length) <= 18):
        raise TransportError(
            f"reply Content-Length is not a number of at most 18 digits: {length!r:.40}"
        )
    body = bytearray()
    if short := _read_onto(reply, body, int(length)):
        raise TransportError(f"reply ended {short} bytes short of its Content-Length")
    return status, reason, fields, body


def _parse_head(head: str) -> tuple[int, str, dict[str, str]]:
    """The status, the reason and the fields of a reply head; a folded line
    continues the field before it, and a repeated field's values are joined
    with ", "."""
    status_line, *lines = head.split("\n")
    match = _STATUS_LINE.fullmatch(status_line.rstrip("\r"))
    if match is None:
        raise TransportError(f"malformed status line: {status_line[:80]!r}")
    fields: dict[str, str] = {}
    name = None
    for line in lines:
        line = line.rstrip("\r")
        if not line:
            break
        if line[0] in " \t" and name is not None:
            fields[name] += " " + line.strip(" \t")
            continue
        name, colon, value = line.partition(":")
        if not colon or not name or name != name.strip(" \t"):
            raise TransportError(f"malformed header line: {line[:80]!r}")
        name, value = name.lower(), value.strip(" \t")
        fields[name] = f"{fields[name]}, {value}" if name in fields else value
    return int(match[1]), match[2] or "", fields


def _chunk_line(reply) -> bytes:
    """The next line of a chunked body, at most ``REPLY_HEAD_CAP`` bytes long."""
    line = reply.readline(REPLY_HEAD_CAP)
    if not line.endswith(b"\n"):
        raise TransportError(
            f"chunked reply line exceeds {REPLY_HEAD_CAP} bytes" if len(line) == REPLY_HEAD_CAP
            else _CHUNKED_CUT
        )
    return line


def _read_chunked(reply) -> bytearray:
    """The chunked body that ``reply`` holds next (RFC 9112 §7.1); chunk
    extensions and trailer fields are read and dropped."""
    body = bytearray()
    while True:
        line = _chunk_line(reply)
        match = _CHUNK_LINE.fullmatch(line)
        if match is None:
            raise TransportError(f"malformed chunk size line: {line[:40]!r}")
        if not (size := int(match[1], 16)):
            break
        if _read_onto(reply, body, size) or len(crlf := reply.read(2)) < 2:
            raise TransportError(_CHUNKED_CUT)
        if crlf != b"\r\n":
            raise TransportError("chunk data does not end in CRLF")
    while _chunk_line(reply).strip():  # a trailer field
        pass
    return body


def _read_onto(reply, body: bytearray, size: int) -> int:
    """Append the next ``size`` bytes of ``reply`` to ``body``, read in
    pieces of at most ``_BODY_PIECE``; returns how many bytes short of
    ``size`` the reply ended."""
    while size and (piece := reply.read(min(size, _BODY_PIECE))):
        body += piece
        size -= len(piece)
    return size


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds a ``Retry-After`` header asks to wait, at most ``cap``; None
    when it is absent or neither delta-seconds nor an HTTP-date."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        from email.utils import parsedate_to_datetime

        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0.0), cap)


_FIXED_FIELDS = (
    "Connection: close\r\n"
    "Content-Type: application/json\r\n"
    "Accept-Encoding: gzip\r\n"
    f"User-Agent: ragroute/{__version__}\r\n"
).encode("ascii")


def post_json(
    endpoint: str,
    body: dict,
    api_key_env: str | None,
    timeout: float,
    max_retries: int,
    backoff: float,
    on_retry: Callable[[], None] = lambda: None,
) -> dict:
    """POST ``body`` as JSON and return the decoded reply.

    The request is HTTP/1.1 with ``Connection: close``, built once and sent
    in one write on a new connection per attempt (``_exchange``). It
    carries ``Authorization: Bearer <key>`` when ``api_key_env`` names a set
    environment variable, and accepts a gzipped reply. Server errors (5xx),
    429, connection errors, timeouts and replies that are not well-framed
    HTTP are retried up to ``max_retries`` times; before retry ``n`` it
    calls ``on_retry`` and sleeps ``backoff * n`` seconds, or what the
    reply's ``Retry-After`` asks, at most ``timeout``. Any other status
    outside 2xx, or a key that cannot go into a header value (a line break,
    another control character but HTAB, or a character outside latin-1),
    raises HTTPStatusError at once; exhausted retries raise TransportError,
    and a reply that is not JSON (or not valid gzip) raises
    MalformedReplyError.
    """
    address, head = endpoint_address(endpoint)
    data = json.dumps(body, allow_nan=False).encode("utf-8")
    key = os.environ.get(api_key_env, "") if api_key_env else ""
    if not _FIELD_VALUE.fullmatch(key):
        raise HTTPStatusError(
            f"${api_key_env} holds a line break, a control character or a character outside "
            "latin-1; it cannot be sent as a header"
        )
    auth = b"Authorization: Bearer %s\r\n" % key.encode("latin-1") if key else b""
    request = b"%sContent-Length: %d\r\n%s%s\r\n%s" % (head, len(data), _FIXED_FIELDS, auth, data)
    last_exc: Exception | None = None
    delay = 0.0
    for attempt in range(max_retries + 1):
        if attempt:
            on_retry()
            time.sleep(delay)
        delay = backoff * (attempt + 1)
        try:
            status, reason, fields, raw = _exchange(address, request, timeout)
        except (OSError, TransportError) as exc:
            last_exc = TransportError(f"{type(exc).__name__}: {exc}")
            continue
        if status >= 500 or status == 429:
            last_exc = TransportError(f"HTTP {status} {reason}")
            wait = _retry_after(fields.get("retry-after"), timeout)
            delay = delay if wait is None else wait
            continue
        if not 200 <= status < 300:
            raise HTTPStatusError(f"{status} {reason} for url: {endpoint}")
        try:
            if fields.get("content-encoding", "").strip().lower() == "gzip":
                raw = gzip.decompress(raw)
            return json.loads(raw)
        except (OSError, EOFError, zlib.error, ValueError, RecursionError) as exc:
            raise MalformedReplyError(f"reply from {endpoint} is not JSON: {exc}") from exc
    raise TransportError(f"request to {endpoint} failed after {max_retries} retries: {last_exc}")


class DimensionMismatchError(InputError):
    """Remote endpoint returned vectors of the wrong dimension; not retryable."""


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    provider: str  # "remote_http" | "deterministic_mock"
    model_name: str
    dim: int
    endpoint: str | None = None
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        for name in ("provider", "model_name"):
            require_str(name, getattr(self, name))
        for name in ("endpoint", "api_key_env"):
            require_str(name, getattr(self, name), optional=True)
        require_int("dim", self.dim)
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.dim > MAX_EMBEDDING_DIM:
            raise ValueError(f"dim must be at most {MAX_EMBEDDING_DIM}, not {self.dim}")
        if self.provider == "remote_http":
            if not self.endpoint:
                raise ValueError("remote_http provider requires an endpoint")
            endpoint_address(self.endpoint)
        if self.provider not in ("remote_http", "deterministic_mock"):
            raise ValueError(f"unknown provider {self.provider!r}")


def _token_axis(token: str, dim: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % dim


class _AxisMemo(dict):
    """Lowercase term -> ``_token_axis``, hashed on first sight."""

    def __init__(self, dim: int):
        super().__init__()
        self.dim = dim

    def __missing__(self, term: str) -> int:
        axis = self[term] = _token_axis(term, self.dim)
        return axis


def _count_rows(axes: np.ndarray, lengths: np.ndarray, dim: int) -> np.ndarray:
    """One float32 row per text: its axis counts divided by their L2 norm in
    float64, then rounded; a text with no tokens is a zero row. ``axes``
    holds each token's axis, text after text, and ``lengths`` each text's
    token count.

    The counts are small integers, added as 1.0 per token, so they and
    their squares sum exactly in any order and each row has the bits of
    dividing the integer counts by their norm.
    """
    out = np.zeros((len(lengths), dim), np.float32)
    ones = np.ones(len(axes))
    ends = accumulate(lengths.tolist(), initial=0)
    for row, (start, stop) in enumerate(pairwise(ends)):
        counts = np.bincount(axes[start:stop], ones[start:stop], minlength=dim)
        norm = math.sqrt(counts @ counts)
        if norm:
            np.divide(counts, norm, out=out[row])
    return out


class MockEmbedder:
    """Deterministic embedder: L2-normalized bag of hashed token directions.

    Each lowercased token contributes one unit basis vector whose axis is a
    stable hash of the token, so texts sharing vocabulary score high cosine
    similarity and vocabulary-disjoint texts score (up to hash collisions)
    exactly zero. Pure function of (text, dim).

    Each instance memoises every lowercase term's axis, and every
    whitespace piece of the plain texts it embeds as the axes of its tokens.
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim
        self._axes = _AxisMemo(dim)
        self._pieces = PieceMemo(self._axes)

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """One float32 row per text, from its token axes by ``_count_rows``.
        Texts given as ``TokenizedTexts`` are counted from their term table;
        other texts are read through this embedder's piece memo."""
        if not texts:
            raise ValueError("texts must be non-empty")
        if isinstance(texts, TokenizedTexts):
            terms, ids, lengths = texts.table
            axes = np.fromiter(map(self._axes.__getitem__, terms), np.intp, len(terms))[ids]
        else:
            axes, lengths = read_pieces(texts, self._pieces)
        return _count_rows(axes, lengths, self.dim)


class RemoteEmbedder:
    """HTTP embeddings client."""

    def __init__(
        self, cfg: EmbeddingProviderConfig, max_retries: int = 2, retry_backoff: float = 0.5
    ):
        if cfg.provider != "remote_http":
            raise ValueError("RemoteEmbedder requires a remote_http config")
        self.cfg = cfg
        self.dim = cfg.dim
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        """Embed ``texts`` in order, posting at most ``EMBED_BATCH_SIZE`` per
        request."""
        if not texts:
            raise ValueError("texts must be non-empty")
        rows = []
        for start in range(0, len(texts), EMBED_BATCH_SIZE):
            rows.extend(self._post_batch(texts[start : start + EMBED_BATCH_SIZE]))
        try:
            matrix = np.asarray(rows, dtype=np.float32)
        except OverflowError as exc:  # an integer beyond any float
            raise MalformedReplyError(f"embedding value out of range: {exc}") from exc
        if not np.all(np.isfinite(matrix)):
            raise MalformedReplyError("endpoint returned non-finite embedding values")
        return matrix

    def _post_batch(self, texts: list[str]) -> list:
        """One embeddings request, its rows checked for dimension before the
        next request is sent; rows are placed by the items' ``index`` when the
        reply carries it, else taken in reply order."""
        body = {"model": self.cfg.model_name, "input": list(texts)}
        payload = post_json(
            self.cfg.endpoint,
            body,
            self.cfg.api_key_env,
            timeout=EMBED_TIMEOUT_S,
            max_retries=self.max_retries,
            backoff=self.retry_backoff,
        )
        try:
            items = payload["data"]
            rows = [item["embedding"] for item in items]
        except (KeyError, TypeError) as exc:
            raise MalformedReplyError(
                f"embeddings reply lacks data[].embedding: {exc!r}"
            ) from exc
        if len(rows) != len(texts):
            raise MalformedReplyError(
                f"endpoint returned {len(rows)} embeddings for {len(texts)} texts"
            )
        for vec in rows:
            if type(vec) is not list or not set(map(type, vec)) <= {int, float}:
                raise MalformedReplyError(f"embedding row is not a list of numbers: {vec!r:.60}")
            if len(vec) != self.dim:
                raise DimensionMismatchError(
                    f"endpoint returned dim {len(vec)}, config says {self.dim}"
                )
        if not any("index" in item for item in items):
            return rows
        order = [item.get("index") for item in items]
        if not all(type(i) is int for i in order) or sorted(order) != list(range(len(rows))):
            raise MalformedReplyError(
                f"embeddings reply indexes are not a permutation of 0..{len(rows) - 1}"
            )
        placed = [None] * len(rows)
        for i, row in zip(order, rows):
            placed[i] = row
        return placed


def make_embedder(cfg: EmbeddingProviderConfig):
    if cfg.provider == "deterministic_mock":
        return MockEmbedder(cfg.dim)
    return RemoteEmbedder(cfg)
