from __future__ import annotations

import struct
import sys
import threading
from http.server import HTTPServer, ThreadingHTTPServer
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import settings

import transcripts
from ragroute.agent import Agent, AgentConfig
from ragroute.boundary import build_profile
from ragroute.corpus import Chunk, ChunkingConfig, Document, chunk_document
from ragroute.embedding import MockEmbedder
from ragroute.evalharness import EvalSystem
from ragroute.retrieval import Bm25Index, DenseIndex, Ranked
from ragroute.router import RouterRegistry

# Every run tries the same examples, and slow examples are not failures.
settings.register_profile("ragroute", derandomize=True, deadline=None)
settings.load_profile("ragroute")


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Cosine similarity in [-1, 1], accumulated at float64; the oracle that
    dense search, rerank and selection are checked against."""
    a64 = np.asarray(a, dtype=np.float64)
    b64 = np.asarray(b, dtype=np.float64)
    if a64.shape != b64.shape:
        raise ValueError(f"dimension mismatch: {a64.shape} vs {b64.shape}")
    na = float(np.linalg.norm(a64))
    nb = float(np.linalg.norm(b64))
    if na == 0.0 or nb == 0.0:
        raise ValueError("undefined similarity: zero vector")
    return float(np.dot(a64, b64) / (na * nb))


class Hit(NamedTuple):
    """One ranked chunk, as the oracles give it."""

    chunk_id: str
    score: float
    rank: int
    method: str


def ranked_hits(chunk_ids: list[str], ranked: Ranked, method: str) -> list[Hit]:
    """A stage's rows as hits; ``chunk_ids`` names the rows in row order."""
    return [
        Hit(chunk_ids[row], score, r, method)
        for r, (row, score) in enumerate(zip(ranked.rows.tolist(), ranked.scores.tolist()), 1)
    ]


def hit_bits(hits) -> list[tuple]:
    """Hits with each score as its float64 bytes, so equal means bit-equal."""
    return [(h.chunk_id, struct.pack("<d", h.score), h.rank, h.method) for h in hits]


def build_agent(config: AgentConfig, chunks: list[Chunk], embedder) -> Agent:
    """An agent over ``chunks``, embedded and indexed in memory."""
    if chunks:
        matrix = embedder.embed_batch([c.text for c in chunks])
    else:
        matrix = np.zeros((0, embedder.dim), dtype=np.float32)
    dense = DenseIndex(matrix, [c.chunk_id for c in chunks])
    return Agent(config, chunks, dense, Bm25Index.build(chunks))


def make_agents(
    corpus: list[dict],
    agent_ids: list[str],
    categories: list[str],
    embedder,
    chunking: ChunkingConfig = ChunkingConfig(256, 20),
    retrieval_method: str = "mixture",
    retrieval_depth: int = 20,
    min_keep: int = 5,
) -> tuple[dict[str, Agent], RouterRegistry]:
    """Build in-memory agents plus a populated registry from corpus records."""
    docs_by_category: dict[str, list[Document]] = {}
    for rec in corpus:
        doc = Document(rec["doc_id"], rec.get("title", ""), rec["category"], rec["body"])
        docs_by_category.setdefault(doc.category, []).append(doc)
    agents: dict[str, Agent] = {}
    rows = []
    for agent_id, category in zip(agent_ids, categories):
        chunks = []
        for doc in docs_by_category.get(category, []):
            chunks.extend(chunk_document(doc, chunking))
        chunks.sort(key=lambda c: c.chunk_id)  # as ingest writes them
        config = AgentConfig(
            agent_id=agent_id,
            category=category,
            retrieval_method=retrieval_method,
            retrieval_depth=retrieval_depth,
            min_keep=min_keep,
            chunking=chunking,
        )
        agent = build_agent(config, chunks, embedder)
        agents[agent_id] = agent
        if chunks:
            matrix = embedder.embed_batch([c.text for c in chunks])
            profile = build_profile(agent_id, [c.chunk_id for c in chunks], matrix)
            rows.extend((agent_id, centroid) for centroid in profile.centroids)
    return agents, registry_of(rows)


def registry_of(rows) -> RouterRegistry:
    """A registry of ``(agent_id, centroid)`` rows; each agent's rows keep
    the order given, so its n-th row is its cluster n."""
    rows = sorted(rows, key=lambda row: row[0])
    if not rows:
        return RouterRegistry()
    return RouterRegistry([a for a, _ in rows], np.array([v for _, v in rows], np.float32))


def system_of(agents: dict[str, Agent], registry: RouterRegistry, backend, embedder, **settings):
    """The loaded system that the router and planner entry points take;
    ``settings`` override ``EvalSystem``'s run settings."""
    return EvalSystem(
        registry=registry, agents=agents, backend=backend, embedder=embedder, **settings
    )


class CountingEmbedder(MockEmbedder):
    """Mock embedder that counts its ``embed_batch`` calls."""

    def __init__(self, dim: int):
        super().__init__(dim)
        self.calls = 0

    def embed_batch(self, texts: list[str]):
        self.calls += 1
        return super().embed_batch(texts)


class CountingHTTPServer(HTTPServer):
    """Single-threaded loopback server that counts the connections it accepts."""

    connections = 0

    def get_request(self):
        request = super().get_request()
        self.connections += 1
        return request

    def handle_error(self, request, client_address):
        # A client that stopped waiting (as timeout tests do) is not a server fault.
        if not isinstance(sys.exc_info()[1], ConnectionError):
            super().handle_error(request, client_address)


class CountingThreadingHTTPServer(ThreadingHTTPServer, CountingHTTPServer):
    """Counting server with one thread per connection, so HTTP/1.1 handlers
    can hold connections open and calls can overlap."""


@pytest.fixture
def serve():
    """Start loopback HTTP servers: ``serve(handler, threaded=False)`` returns
    ``(server, "http://127.0.0.1:<port>")``. Each server is stopped after the
    test."""
    servers = []

    def start(handler, threaded: bool = False):
        cls = CountingThreadingHTTPServer if threaded else CountingHTTPServer
        server = cls(("127.0.0.1", 0), handler)
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        servers.append(server)
        return server, f"http://127.0.0.1:{server.server_port}"

    yield start
    for server in servers:
        server.shutdown()
        server.server_close()


@pytest.fixture
def mock_embedder() -> MockEmbedder:
    return MockEmbedder(transcripts.MOCK_DIM)


@pytest.fixture
def walking_dead_setup(mock_embedder):
    """Five topical agents plus the scripted single-hop transcript backend."""
    backend = transcripts.script_backend(transcripts.WD_SCRIPT)
    agents, registry = make_agents(
        transcripts.WD_CORPUS,
        transcripts.WD_AGENT_IDS,
        transcripts.WD_CATEGORIES,
        mock_embedder,
    )
    return agents, registry, backend


@pytest.fixture
def news_reports_setup(mock_embedder):
    """One technology agent plus the scripted multi-hop transcript backend."""
    backend = transcripts.script_backend(transcripts.NR_SCRIPT)
    agents, registry = make_agents(
        transcripts.NR_CORPUS,
        ["tech"],
        ["technology"],
        mock_embedder,
        retrieval_depth=50,
        min_keep=10,
    )
    return agents, registry, backend
