"""Embedding providers and vector files.

Two providers sit behind one contract: a deterministic offline mock (bag of
hashed token directions, L2-normalized) and a remote HTTP provider speaking
the common embeddings wire shape ``{model, input: [...]}`` ->
``{data: [{index, embedding: [...]}]}`` (``index`` optional).

Vectors are stored as little-endian float32 rows.
"""

from __future__ import annotations

import gzip
import hashlib
import http.client
import json
import os
import threading
import time
import zlib
from dataclasses import dataclass
from datetime import datetime, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path
from typing import Callable
from urllib.parse import urlsplit

import numpy as np
from requests import HTTPError

from . import __version__
from .corpus import tokenize

EMBED_MAX_IN_FLIGHT = 4
# OpenAI's embeddings API takes at most 2048 inputs and 300,000 tokens per
# request; 256 chunks of the default size (1024 tokens) stay under both.
EMBED_BATCH_SIZE = 256
EMBED_TIMEOUT_S = 60.0


class TransportError(RuntimeError):
    """Transient transport failure talking to a remote endpoint; retryable."""


class MalformedReplyError(RuntimeError):
    """A remote endpoint's reply is not JSON or lacks a field its wire shape
    requires; not retryable."""


class IndexFileError(RuntimeError):
    """A stored index file cannot be read back as what its writer wrote."""


class VectorFileError(IndexFileError):
    """A stored vector file disagrees with its manifest."""


def read_json(path: str | Path, parse: Callable):
    """Parse a stored JSON file and return ``parse`` of its payload.

    IndexFileError names the file when it is not valid UTF-8 JSON, or when
    ``parse`` finds a field missing or of the wrong type.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except ValueError as exc:
        raise IndexFileError(f"{path} is not valid JSON: {exc}") from exc
    try:
        return parse(payload)
    except (KeyError, IndexError, TypeError, ValueError, AttributeError) as exc:
        raise IndexFileError(f"{path} is valid JSON of the wrong shape: {exc!r}") from exc


def endpoint_address(endpoint: str) -> tuple[tuple[str, str, int], str]:
    """Split an http(s) URL into ``((scheme, host, port), request target)``.

    Raises ValueError for another scheme, a missing host, a bad port, or a
    path or query that is not printable ASCII (it is sent as it is written).
    """
    url = urlsplit(endpoint)
    if url.scheme not in ("http", "https") or not url.hostname:
        raise ValueError(f"endpoint must be an http:// or https:// URL: {endpoint!r}")
    port = url.port or (443 if url.scheme == "https" else 80)
    target = (url.path or "/") + (f"?{url.query}" if url.query else "")
    if not all(" " < c < "\x7f" for c in target):
        raise ValueError(
            f"endpoint path must be printable ASCII, percent-encode the rest: {endpoint!r}"
        )
    return (url.scheme, url.hostname, port), target


def _exchange(
    address: tuple[str, str, int], target: str, data: bytes, headers: dict, timeout: float
) -> tuple[http.client.HTTPResponse, bytes]:
    """Send one POST on a new connection, read the whole reply and close the
    connection."""
    scheme, host, port = address
    cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
    conn = cls(host, port, timeout=timeout)
    try:
        conn.request("POST", target, body=data, headers=headers)
        resp = conn.getresponse()
        return resp, resp.read()
    finally:
        conn.close()


def _retry_after(value: str | None, cap: float) -> float | None:
    """Seconds a ``Retry-After`` header asks to wait, at most ``cap``; None
    when it is absent or neither delta-seconds nor an HTTP-date."""
    if value is None:
        return None
    value = value.strip()
    if value.isascii() and value.isdigit():
        seconds = float(value)
    else:
        try:
            when = parsedate_to_datetime(value)
        except (TypeError, ValueError):
            return None
        if when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        seconds = (when - datetime.now(timezone.utc)).total_seconds()
    return min(max(seconds, 0.0), cap)


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

    Sends ``Authorization: Bearer <key>`` when ``api_key_env`` names a set
    environment variable, and accepts a gzipped reply. Each attempt opens
    and closes its own connection. Server errors (5xx), 429, connection
    errors and timeouts are retried up to ``max_retries`` times; before
    retry ``n`` it calls ``on_retry`` and sleeps ``backoff * n`` seconds, or
    what the reply's ``Retry-After`` asks, at most ``timeout``. Any other
    status outside 2xx, or a key holding a line break, raises
    ``requests.HTTPError`` at once; exhausted retries raise TransportError,
    and a reply that is not JSON (or not valid gzip) raises
    MalformedReplyError.
    """
    address, target = endpoint_address(endpoint)
    data = json.dumps(body, allow_nan=False).encode("utf-8")
    headers = {
        "Content-Type": "application/json",
        "Accept-Encoding": "gzip",
        "User-Agent": f"ragroute/{__version__}",
    }
    key = os.environ.get(api_key_env, "") if api_key_env else ""
    if "\r" in key or "\n" in key:
        raise HTTPError(f"${api_key_env} holds a line break; it cannot be sent as a header")
    if key:
        headers["Authorization"] = f"Bearer {key}"
    last_exc: Exception | None = None
    delay = 0.0
    for attempt in range(max_retries + 1):
        if attempt:
            on_retry()
            time.sleep(delay)
        delay = backoff * (attempt + 1)
        try:
            resp, raw = _exchange(address, target, data, headers, timeout)
        except (OSError, http.client.HTTPException) as exc:
            last_exc = TransportError(f"{type(exc).__name__}: {exc}")
            continue
        if resp.status >= 500 or resp.status == 429:
            last_exc = TransportError(f"HTTP {resp.status} {resp.reason}")
            wait = _retry_after(resp.getheader("Retry-After"), timeout)
            delay = delay if wait is None else wait
            continue
        if not 200 <= resp.status < 300:
            raise HTTPError(f"{resp.status} {resp.reason} for url: {endpoint}")
        try:
            if resp.getheader("Content-Encoding", "").strip().lower() == "gzip":
                raw = gzip.decompress(raw)
            return json.loads(raw)
        except (OSError, EOFError, zlib.error, ValueError) as exc:
            raise MalformedReplyError(f"reply from {endpoint} is not JSON: {exc}") from exc
    raise TransportError(f"request to {endpoint} failed after {max_retries} retries: {last_exc}")


class DimensionMismatchError(RuntimeError):
    """Remote endpoint returned vectors of the wrong dimension; not retryable."""


@dataclass(frozen=True)
class EmbeddingProviderConfig:
    provider: str  # "remote_http" | "deterministic_mock"
    model_name: str
    dim: int
    endpoint: str | None = None
    api_key_env: str | None = None

    def __post_init__(self) -> None:
        if self.dim <= 0:
            raise ValueError("dim must be positive")
        if self.provider == "remote_http":
            if not self.endpoint:
                raise ValueError("remote_http provider requires an endpoint")
            endpoint_address(self.endpoint)
        if self.provider not in ("remote_http", "deterministic_mock"):
            raise ValueError(f"unknown provider {self.provider!r}")


def _token_axis(token: str, dim: int) -> int:
    digest = hashlib.sha256(token.encode("utf-8")).digest()
    return int.from_bytes(digest[:8], "little") % dim


class MockEmbedder:
    """Deterministic embedder: L2-normalized bag of hashed token directions.

    Each lowercased token contributes one unit basis vector whose axis is a
    stable hash of the token, so texts sharing vocabulary score high cosine
    similarity and vocabulary-disjoint texts score (up to hash collisions)
    exactly zero. Pure function of (text, dim).
    """

    def __init__(self, dim: int):
        if dim <= 0:
            raise ValueError("dim must be positive")
        self.dim = dim

    def embed_batch(self, texts: list[str]) -> np.ndarray:
        if not texts:
            raise ValueError("texts must be non-empty")
        out = np.zeros((len(texts), self.dim), dtype=np.float64)
        for row, text in enumerate(texts):
            for token in tokenize(text):
                out[row, _token_axis(token.lower(), self.dim)] += 1.0
            norm = np.linalg.norm(out[row])
            if norm > 0.0:
                out[row] /= norm
        return out.astype(np.float32)


class RemoteEmbedder:
    """HTTP embeddings client; bounds in-flight requests with a semaphore."""

    def __init__(
        self, cfg: EmbeddingProviderConfig, max_retries: int = 2, retry_backoff: float = 0.5
    ):
        if cfg.provider != "remote_http":
            raise ValueError("RemoteEmbedder requires a remote_http config")
        self.cfg = cfg
        self.dim = cfg.dim
        self.max_retries = max_retries
        self.retry_backoff = retry_backoff
        self._slots = threading.Semaphore(EMBED_MAX_IN_FLIGHT)

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
        with self._slots:
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


def save_vectors(base_path: str | Path, matrix: np.ndarray, ids: list[str]) -> None:
    """Persist a vector matrix as little-endian float32 rows plus a manifest.

    Writes ``<base>.bin`` and ``<base>.manifest.json`` with
    ``{dim, count, chunk_ids}``.
    """
    base = Path(base_path)
    base.parent.mkdir(parents=True, exist_ok=True)
    mat = np.ascontiguousarray(np.asarray(matrix, dtype="<f4"))
    if mat.ndim != 2:
        raise ValueError("matrix must be 2-D")
    if mat.shape[0] != len(ids):
        raise ValueError("one id per row required")
    base.with_suffix(".bin").write_bytes(mat.tobytes(order="C"))
    manifest = {"dim": int(mat.shape[1]), "count": int(mat.shape[0]), "chunk_ids": list(ids)}
    base.with_suffix(".manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, ensure_ascii=False), encoding="utf-8"
    )


def load_vectors(base_path: str | Path) -> tuple[np.ndarray, list[str]]:
    """Read what ``save_vectors`` wrote, as one float32 array.

    Raises IndexFileError when the manifest is not valid JSON or lacks a
    field, and VectorFileError when the ``.bin`` size is not
    ``count * dim * 4`` bytes or the manifest does not list ``count`` ids.
    """
    base = Path(base_path)
    count, dim, ids = read_json(
        base.with_suffix(".manifest.json"),
        lambda m: (int(m["count"]), int(m["dim"]), list(m["chunk_ids"])),
    )
    bin_path = base.with_suffix(".bin")
    size = bin_path.stat().st_size
    if size != count * dim * 4:
        raise VectorFileError(
            f"{bin_path} holds {size} bytes; its manifest needs {count} x {dim} x 4"
        )
    if len(ids) != count:
        raise VectorFileError(f"{bin_path}: manifest lists {len(ids)} ids for {count} rows")
    return np.fromfile(bin_path, dtype="<f4").reshape(count, dim), ids
