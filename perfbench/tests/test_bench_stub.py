"""Loopback stub: wire shapes, request and connection counts, process life."""

from __future__ import annotations

import threading
from pathlib import Path

import numpy as np
import pytest
import requests

import run
import stub
from ragroute.embedding import EmbeddingProviderConfig, MockEmbedder, RemoteEmbedder
from ragroute.llm import ChatBackendConfig, ChatMessage, RemoteChatBackend
from ragroute.prompts import SELECTOR_PAIRWISE, render_prompt


@pytest.fixture
def server():
    srv = stub.StubServer(dim=32)
    thread = threading.Thread(target=srv.serve_forever, daemon=True)
    thread.start()
    try:
        yield srv, f"http://127.0.0.1:{srv.server_address[1]}"
    finally:
        srv.shutdown()
        srv.server_close()
        thread.join(timeout=10)
    assert not thread.is_alive()


def test_stub_counts_requests_bytes_and_connections(server):
    srv, url = server
    embedder = RemoteEmbedder(EmbeddingProviderConfig("remote_http", "m", 32, f"{url}/v1/embeddings"))
    chat = RemoteChatBackend(ChatBackendConfig("remote_http", "m", f"{url}/v1/chat/completions"))
    vectors = embedder.embed_batch(["alpha beta", "gamma"])
    np.testing.assert_array_equal(vectors, MockEmbedder(32).embed_batch(["alpha beta", "gamma"]))
    messages = render_prompt(SELECTOR_PAIRWISE, {"question_1": "a?", "question_2": "a?"})
    for _ in range(3):
        reply, usage = chat.chat(messages)
    assert reply.endswith("Meets both requirements: no")
    assert usage.prompt_tokens > 0 and usage.completion_tokens > 0
    stats = requests.get(f"{url}/stats", timeout=10).json()
    assert stats["requests"] == {"chat": 3, "embed": 1, "stats": 1}
    assert stats["embed_inputs"] == 2
    assert stats["connections"] == 5  # one per request: HTTP/1.0 closes each
    assert stats["request_bytes"]["chat"] > 0 and stats["request_bytes"]["embed"] > 0
    assert len(chat.calls) == stats["requests"]["chat"]


def test_stub_rejects_unknown_prompts(server):
    _, url = server
    resp = requests.post(f"{url}/v1/chat/completions", timeout=10,
                         json={"messages": [{"role": "user", "content": "hi"}]})
    assert resp.status_code == 400
    chat = RemoteChatBackend(ChatBackendConfig("remote_http", "m", f"{url}/v1/chat/completions"))
    with pytest.raises(requests.HTTPError):
        chat.chat([ChatMessage("user", "hi")])


def test_stub_process_starts_and_is_stopped():
    child = run.Stub(Path(__file__).resolve().parents[2], dim=16)
    try:
        assert child.stats()["requests"]["stats"] == 1
    finally:
        child.close()
    assert child.proc.poll() is not None
