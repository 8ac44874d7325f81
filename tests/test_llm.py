from __future__ import annotations

import gc
import gzip
import http.client
import json
import os
import re
import socket
import ssl
import subprocess
import sys
import threading
import time
import warnings
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler
from pathlib import Path
from urllib.parse import urlsplit

import pytest
from hypothesis import given
from hypothesis import strategies as st

import ragroute
import transcripts
from conftest import CountingHTTPServer, make_agents, system_of
from ragroute.cli import main
from ragroute.corpus import tokenize
from ragroute.embedding import (
    REPLY_HEAD_CAP,
    EmbeddingProviderConfig,
    HTTPStatusError,
    MalformedReplyError,
    RemoteEmbedder,
    TransportError,
    endpoint_address,
    post_json,
)
from ragroute.llm import (
    CHAT_TIMEOUT_S,
    ChatBackendConfig,
    ChatMessage,
    Metered,
    RemoteChatBackend,
    ReplyParseError,
    ScriptedChatBackend,
    ScriptEntry,
    TokenUsage,
    UnscriptedPromptError,
    extract_numbered_questions,
    parse_agent_reply,
    parse_judgment,
    says_yes,
    sections,
)
from ragroute.planner import judge_and_split
from ragroute.router import route_and_answer
from ragroute.store import IndexFileError


def user(text: str) -> list[ChatMessage]:
    return [ChatMessage("user", text)]


class TestTokenUsage:
    def test_additivity(self):
        total = TokenUsage()
        for _ in range(3):
            total = total + TokenUsage(10, 5)
        assert total == TokenUsage(30, 15)
        assert total.total == 45


class TestMetered:
    def test_passes_each_call_on_and_sums_the_usage_it_returns(self):
        backend = ScriptedChatBackend([ScriptEntry("a", "b c d", repeat=True)])
        meter = Metered(backend)
        assert meter.chat(user("a a a")) == ("b c d", TokenUsage(3, 3))
        assert meter.chat(user("a")) == ("b c d", TokenUsage(1, 3))
        assert meter.total == sum((c.usage for c in backend.calls), TokenUsage())
        assert meter.total == TokenUsage(4, 6)

    def test_threads_sharing_one_meter_lose_no_call(self):
        class Counted:
            def chat(self, messages):
                return "ok", TokenUsage(len(messages[0].content), 1)

        meter, threads, calls = Metered(Counted()), 8, 1500
        start = threading.Barrier(threads)

        def ask(thread: int) -> None:
            start.wait()
            for call in range(calls):
                meter.chat(user("x" * (1 + (thread * calls + call) % 7)))

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as CPython allows
        try:
            workers = [threading.Thread(target=ask, args=(t,)) for t in range(threads)]
            for worker in workers:
                worker.start()
            for worker in workers:
                worker.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(worker.is_alive() for worker in workers)
        prompt = sum(1 + i % 7 for i in range(threads * calls))
        assert meter.total == TokenUsage(prompt, threads * calls)


class TestScriptedBackend:
    def test_scripted_echo(self):
        backend = ScriptedChatBackend([ScriptEntry("who is", "Answer: X")])
        text, usage = backend.chat(user("who is the one"))
        assert text == "Answer: X"
        assert usage == TokenUsage(len(tokenize("who is the one")), len(tokenize("Answer: X")))

    def test_entries_consumed_in_order(self):
        backend = ScriptedChatBackend(
            [ScriptEntry("q", "first"), ScriptEntry("q", "second")]
        )
        assert backend.chat(user("q"))[0] == "first"
        assert backend.chat(user("q"))[0] == "second"
        with pytest.raises(UnscriptedPromptError, match="unscripted prompt"):
            backend.chat(user("q"))

    def test_repeat_entries_are_not_consumed(self):
        backend = ScriptedChatBackend([ScriptEntry("q", "again", repeat=True)])
        for _ in range(4):
            assert backend.chat(user("q"))[0] == "again"

    def test_matcher_scans_all_messages(self):
        backend = ScriptedChatBackend([ScriptEntry("NEEDLE", "found")])
        messages = [ChatMessage("system", "sys NEEDLE sys"), ChatMessage("user", "hi")]
        assert backend.chat(messages)[0] == "found"

    def test_requires_user_message(self):
        backend = ScriptedChatBackend([ScriptEntry("x", "y")])
        with pytest.raises(ValueError):
            backend.chat([ChatMessage("system", "x")])

    def test_call_log_records_exact_usage(self):
        backend = ScriptedChatBackend([ScriptEntry("a", "b c d", repeat=True)])
        backend.chat(user("a a a"))
        backend.chat(user("a"))
        logged = sum((c.usage for c in backend.calls), TokenUsage())
        assert logged == TokenUsage(4, 6)

    def test_from_file(self, tmp_path):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"match": "m", "reply": "r", "repeat": True}]))
        backend = ScriptedChatBackend.from_file(path)
        assert backend.chat(user("m"))[0] == "r"

    @pytest.mark.parametrize("repeat", ["no", 1, None])
    def test_from_file_refuses_a_repeat_that_is_not_a_boolean(self, tmp_path, repeat):
        path = tmp_path / "script.json"
        path.write_text(json.dumps([{"match": "m", "reply": "r", "repeat": repeat}]))
        with pytest.raises(IndexFileError) as info:
            ScriptedChatBackend.from_file(path)
        assert str(info.value) == (
            f"{path} is valid JSON of the wrong shape: "
            "TypeError: every entry's repeat must be a JSON boolean"
        )


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    retry_after: str | None = None
    delay_s = 0.0
    encode = None  # applied to the reply bytes, which are then sent as gzip, when set
    seen: list[dict] = []
    reply: bytes | None = None  # sent instead of the chat reply when set
    wire: bytes | None = None  # sent as the whole reply, status line included, when set

    def answer(self, messages: list[ChatMessage]) -> tuple[str, TokenUsage]:
        return "pong", TokenUsage(12, 3)

    def chat_reply(self, body: dict) -> bytes:
        text, usage = self.answer([ChatMessage(m["role"], m["content"]) for m in body["messages"]])
        return json.dumps({
            "choices": [{"message": {"role": "assistant", "content": text}}],
            "usage": {"prompt_tokens": usage.prompt_tokens,
                      "completion_tokens": usage.completion_tokens},
        }).encode()

    def do_POST(self):
        raw = self.rfile.read(int(self.headers["Content-Length"]))
        body = json.loads(raw)
        type(self).seen.append(
            {"raw": raw, "body": body, "auth": self.headers.get("Authorization", ""),
             "accept_encoding": self.headers.get("Accept-Encoding"),
             "host": self.headers.get("Host"), "connection": self.headers.get("Connection")}
        )
        if type(self).wire is not None:
            self.close_connection = True
            try:
                self.wfile.write(type(self).wire)
            except ConnectionError:  # a client that stops reading early
                pass
            return
        if type(self).delay_s:
            time.sleep(type(self).delay_s)
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(type(self).fail_status)
            if type(self).retry_after is not None:
                self.send_header("Retry-After", type(self).retry_after)
            self.send_header("Content-Length", "0")
            self.end_headers()
            return
        raw = type(self).reply or self.chat_reply(body)
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        if type(self).encode:
            raw = type(self).encode(raw)
            self.send_header("Content-Encoding", "gzip")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


def chat_handler(protocol: str = "HTTP/1.0", **attrs):
    """A fresh handler class, so what one test sets on it stays in that test."""
    return type("ChatHandler", (_ChatHandler,), {"protocol_version": protocol, "seen": [], **attrs})


CHAT_PATH = "/v1/chat/completions"
# The handler's chat reply, for tests that frame it by hand.
PONG = json.dumps({
    "choices": [{"message": {"role": "assistant", "content": "pong"}}],
    "usage": {"prompt_tokens": 12, "completion_tokens": 3},
}).encode()


@pytest.fixture
def chat_server(serve):
    handler = chat_handler()
    _, url = serve(handler)
    return url + CHAT_PATH, handler


def remote_cfg(url: str, retries: int = 2) -> ChatBackendConfig:
    return ChatBackendConfig(
        backend="remote_http",
        model_name="test-model",
        endpoint=url,
        temperature=0.0,
        max_rounds_retry=retries,
    )


class TestRemoteBackend:
    @pytest.mark.parametrize(
        "endpoint, temperature",
        [
            ("ftp://host/v1", 0.0),
            ("http:///v1", 0.0),
            ("http://host/v1 chat", 0.0),
            ("http://host/v1/caf\u00e9", 0.0),
            ("http://host/v1", float("nan")),
        ],
        ids=["scheme", "no-host", "space-in-path", "non-ascii-path", "nan-temperature"],
    )
    def test_config_rejects_what_cannot_be_sent(self, endpoint, temperature):
        with pytest.raises(ValueError):
            ChatBackendConfig("remote_http", "m", endpoint, temperature=temperature)

    def test_wire_format_and_usage(self, chat_server, monkeypatch):
        url, handler = chat_server
        monkeypatch.setenv("TEST_CHAT_KEY", "sekrit")
        cfg = ChatBackendConfig(
            backend="remote_http", model_name="test-model", endpoint=url,
            temperature=0.5, api_key_env="TEST_CHAT_KEY",
        )
        backend = RemoteChatBackend(cfg, retry_backoff=0.0)
        text, usage = backend.chat(
            [ChatMessage("system", "be brief"), ChatMessage("user", "ping")]
        )
        assert text == "pong"
        assert usage == TokenUsage(12, 3)
        sent = handler.seen[0]["body"]
        assert sent["model"] == "test-model"
        assert sent["temperature"] == 0.5
        assert sent["messages"] == [
            {"role": "system", "content": "be brief"},
            {"role": "user", "content": "ping"},
        ]
        assert handler.seen[0]["auth"] == "Bearer sekrit"

    def test_two_500s_then_success_records_two_retries(self, chat_server):
        url, handler = chat_server
        handler.fail_times = 2
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
        text, _ = backend.chat(user("ping"))
        assert text == "pong"
        assert backend.retries_used == 2

    def test_retries_exhausted_raises(self, chat_server):
        url, handler = chat_server
        handler.fail_times = 10
        backend = RemoteChatBackend(remote_cfg(url, retries=1), retry_backoff=0.0)
        with pytest.raises(TransportError):
            backend.chat(user("ping"))
        handler.fail_times = 0

    @pytest.mark.parametrize(
        "retry_after, slept",
        [("3", 3.0), (None, 0.5), ("999", CHAT_TIMEOUT_S), ("\u00b2", 0.5)],
        ids=["delta-seconds", "no-header", "capped-at-timeout", "superscript-two"],
    )
    def test_429_is_retried_after_its_delay(self, chat_server, monkeypatch, retry_after, slept):
        url, handler = chat_server
        handler.fail_times, handler.fail_status, handler.retry_after = 1, 429, retry_after
        sleeps: list[float] = []
        monkeypatch.setattr("ragroute.embedding.time.sleep", sleeps.append)
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.5)
        assert backend.chat(user("ping"))[0] == "pong"
        assert backend.retries_used == 1
        assert sleeps == [slept]

    def test_429_retry_after_http_date(self, chat_server, monkeypatch):
        url, handler = chat_server
        when = datetime.now(timezone.utc) + timedelta(seconds=60)
        handler.fail_times, handler.fail_status = 1, 429
        handler.retry_after = format_datetime(when, usegmt=True)
        sleeps: list[float] = []
        monkeypatch.setattr("ragroute.embedding.time.sleep", sleeps.append)
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.5)
        assert backend.chat(user("ping"))[0] == "pong"
        assert len(sleeps) == 1 and 55.0 < sleeps[0] <= 60.0

    def test_429_counts_against_max_retries(self, chat_server):
        url, handler = chat_server
        handler.fail_times, handler.fail_status = 10, 429
        backend = RemoteChatBackend(remote_cfg(url, retries=1), retry_backoff=0.0)
        with pytest.raises(TransportError, match="429"):
            backend.chat(user("ping"))
        assert backend.retries_used == 1
        assert len(handler.seen) == 2


class TestTransport:
    @pytest.mark.parametrize("protocol", ["HTTP/1.0", "HTTP/1.1"])
    def test_each_call_opens_and_closes_one_connection(self, serve, protocol):
        handler = chat_handler(protocol)
        server, url = serve(handler, threaded=True)
        backend = RemoteChatBackend(remote_cfg(url + CHAT_PATH), retry_backoff=0.0)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            for _ in range(5):
                assert backend.chat(user("ping")) == ("pong", TokenUsage(12, 3))
            gc.collect()
        assert len(handler.seen) == 5
        assert server.connections == 5
        # A socket left for the garbage collector to close warns.
        assert [w for w in caught if issubclass(w.category, ResourceWarning)] == []

    def test_parallel_fan_out_answers_like_in_process(self, serve, mock_embedder):
        scripted = transcripts.script_backend(transcripts.WD_SCRIPT)
        handler = chat_handler(
            "HTTP/1.1",
            answer=lambda self, messages: scripted.chat(messages),
            delay_s=0.02,  # so the four agent calls overlap
        )
        server, url = serve(handler, threaded=True)
        remote = RemoteChatBackend(remote_cfg(url + CHAT_PATH), retry_backoff=0.0)
        routed = {}
        local = transcripts.script_backend(transcripts.WD_SCRIPT)
        for name, backend in (("local", local), ("http", remote)):
            agents, registry = make_agents(
                transcripts.WD_CORPUS, transcripts.WD_AGENT_IDS, transcripts.WD_CATEGORIES,
                mock_embedder,
            )
            system = system_of(
                agents, registry, backend, mock_embedder, max_agents=5, parallelism=4
            )
            routed[name] = route_and_answer(system, transcripts.WD_QUESTION)
        assert routed["http"] == routed["local"]
        assert routed["http"].final_answer == transcripts.WD_EXPECTED
        assert len(handler.seen) == 6
        assert server.connections == 6

    def test_body_bytes_match_requests(self, chat_server):
        url, handler = chat_server
        body = {"model": "m", "messages": [{"role": "user", "content": "naïve ☃ \"q\""}],
                "temperature": 0.7}
        post_json(url, body, None, timeout=5.0, max_retries=0, backoff=0.0)
        assert handler.seen[0]["raw"] == json.dumps(body, allow_nan=False).encode("utf-8")

    def test_gzipped_reply_is_inflated(self, chat_server):
        url, handler = chat_server
        handler.encode = gzip.compress
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
        assert backend.chat(user("ping")) == ("pong", TokenUsage(12, 3))
        assert handler.seen[0]["accept_encoding"] == "gzip"

    def test_client_error_raises_at_once(self, chat_server):
        url, handler = chat_server
        handler.fail_times, handler.fail_status = 5, 401
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
        message = rf"401 .*Unauthorized for url: {re.escape(url)}"
        with pytest.raises(HTTPStatusError, match=message):
            backend.chat(user("ping"))
        assert len(handler.seen) == 1
        assert backend.retries_used == 0

    def test_read_timeout_exhausts_retries(self, serve):
        handler = chat_handler("HTTP/1.1", delay_s=1.0)
        _, url = serve(handler, threaded=True)
        with pytest.raises(TransportError, match="timed out"):
            post_json(url + CHAT_PATH, {"messages": []}, None, timeout=0.2, max_retries=1,
                      backoff=0.0)
        assert len(handler.seen) == 2

    @pytest.mark.parametrize(
        "endpoint",
        ["http://127.0.0.1:8080/v1/chat", "http://Example.com/x?y=1", "http://example.com:80/",
         "https://example.com:443/v1", "https://example.com:8443/v1", "http://[::1]:9000/",
         "https://[2001:db8::1]/v1", "http://b\u00fccher.de/v1"],
    )
    def test_request_line_and_host_as_http_client_writes_them(self, endpoint):
        (scheme, host, port), head = endpoint_address(endpoint)
        cls = http.client.HTTPSConnection if scheme == "https" else http.client.HTTPConnection
        conn = cls(host, port)
        sent: list[bytes] = []
        conn.sock, conn.send = object(), sent.append  # a socket is set, so nothing connects
        url = urlsplit(endpoint)
        conn.request("POST", url.path + (f"?{url.query}" if url.query else ""), body=b"")
        assert sent[0].split(b"\r\n")[:2] == head.split(b"\r\n")[:2]

    def test_request_is_one_write_with_its_framing(self, chat_server, monkeypatch):
        url, handler = chat_server
        writes: list[bytes] = []  # the client's: the server writes from its own thread
        client, sendall = threading.get_ident(), socket.socket.sendall

        def record(sock, data):
            if threading.get_ident() == client:
                writes.append(data)
            return sendall(sock, data)

        monkeypatch.setattr(socket.socket, "sendall", record)
        for _ in range(2):
            post_json(url, {"messages": []}, None, timeout=5.0, max_retries=0, backoff=0.0)
        assert len(writes) == 2
        head, _, body = writes[0].partition(b"\r\n\r\n")
        assert body == handler.seen[0]["raw"] == b'{"messages": []}'
        port = url.split(":")[2].split("/")[0]
        assert head.split(b"\r\n")[:4] == [
            b"POST " + CHAT_PATH.encode() + b" HTTP/1.1",
            b"Host: 127.0.0.1:" + port.encode(),
            b"Content-Length: %d" % len(body),
            b"Connection: close",
        ]
        assert handler.seen[0]["connection"] == "close"

    @pytest.mark.parametrize(
        "wire",
        [
            b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
            b"9;ext=1\r\n%s\r\n%x\r\n%s\r\n0\r\nX-Trailer: 1\r\n\r\n"
            % (PONG[:9], len(PONG) - 9, PONG[9:]),
            b"HTTP/1.0 200 OK\r\nContent-Type: application/json\r\n\r\n" + PONG,
            b"HTTP/1.1 103 Early Hints\r\nLink: </a>\r\n\r\n"
            b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\nX-Folded: a\r\n b\r\n\r\n%s"
            % (len(PONG), PONG),
            b"HTTP/1.1 200 OK\nContent-Length: %d\n\n%s" % (len(PONG), PONG),
        ],
        ids=["chunked", "http10-to-eof", "interim-and-folded", "bare-lf"],
    )
    def test_reply_framings(self, chat_server, wire):
        url, handler = chat_server
        handler.wire = wire
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
        assert backend.chat(user("ping")) == ("pong", TokenUsage(12, 3))
        assert backend.retries_used == 0

    def test_body_past_the_preallocation_arrives_whole(self, chat_server):
        url, handler = chat_server
        body = PONG + b" " * (20 * 1024 * 1024)  # past one 16 MiB read
        handler.wire = b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(body), body)
        reply = post_json(url, {"messages": []}, None, timeout=5.0, max_retries=0, backoff=0.0)
        assert reply == json.loads(PONG)

    @pytest.mark.parametrize(
        "wire, message",
        [
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (len(PONG) + 5, PONG),
             "5 bytes short of its Content-Length"),
            (b"HTTP/1.1 OK\r\n\r\n", "malformed status line"),
            (b"ICY 200 OK\r\n\r\n" + PONG, "malformed status line"),
            (b"HTTP/1.1 200 OK\r\nno colon\r\n\r\n" + PONG, "malformed header line"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: 1e3\r\n\r\n" + PONG, "not a number"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n", "chunk size"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\n{}", "chunked reply"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (2**40, PONG),
             "short of its Content-Length"),
            (b"HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\nffffffffff\r\n" + PONG,
             "chunked reply"),
            (b"HTTP/1.1 200 OK\r\nContent-Length: %s\r\n\r\n%s" % (b"9" * 5000, PONG),
             "at most 18 digits"),
            (b"HTTP/1.1 200 OK\r\n", "before the reply head ended"),
            (b"", "before the reply head ended"),
        ],
        ids=["short-body", "no-status-code", "not-http", "no-colon", "length-not-digits",
             "chunk-size-not-hex", "chunked-cut-short", "terabyte-length", "terabyte-chunk",
             "length-past-int-limit", "head-cut-short", "no-reply"],
    )
    def test_framing_faults_are_retried_then_transport_error(self, chat_server, wire, message):
        url, handler = chat_server
        handler.wire = wire
        backend = RemoteChatBackend(remote_cfg(url, retries=2), retry_backoff=0.0)
        with pytest.raises(TransportError, match=message):
            backend.chat(user("ping"))
        assert len(handler.seen) == 3
        assert backend.retries_used == 2

    def test_head_over_the_cap_is_refused_without_reading_on(self, chat_server, monkeypatch):
        url, handler = chat_server
        handler.wire = b"HTTP/1.1 200 OK\r\n" + b"X-Pad: " + b"a" * (4 * REPLY_HEAD_CAP)
        received: list[int] = []  # the client's: the server reads from its own thread
        client = threading.get_ident()
        recv, recv_into = socket.socket.recv, socket.socket.recv_into

        def record(sock, size):
            data = recv(sock, size)
            if threading.get_ident() == client:
                received.append(len(data))
            return data

        def record_into(sock, buffer, *args):
            got = recv_into(sock, buffer, *args)
            if threading.get_ident() == client:
                received.append(got)
            return got

        monkeypatch.setattr(socket.socket, "recv", record)
        monkeypatch.setattr(socket.socket, "recv_into", record_into)
        with pytest.raises(TransportError, match=f"exceeds {REPLY_HEAD_CAP} bytes"):
            post_json(url, {"messages": []}, None, timeout=5.0, max_retries=1, backoff=0.0)
        assert len(handler.seen) == 2
        assert 0 < sum(received) <= 2 * REPLY_HEAD_CAP

    def test_interim_heads_share_the_head_cap(self, chat_server):
        url, handler = chat_server
        early = b"HTTP/1.1 103 Early Hints\r\nX-Pad: %s\r\n\r\n" % (b"a" * 40 * 1024)
        handler.wire = early * 2 + b"HTTP/1.1 200 OK\r\nContent-Length: %d\r\n\r\n%s" % (
            len(PONG), PONG,
        )
        with pytest.raises(TransportError, match=f"exceeds {REPLY_HEAD_CAP} bytes"):
            post_json(url, {"messages": []}, None, timeout=5.0, max_retries=0, backoff=0.0)

    def test_ipv6_literal_host_is_bracketed(self):
        class Server6(CountingHTTPServer):
            address_family = socket.AF_INET6

        handler = chat_handler()
        try:
            server = Server6(("::1", 0), handler)
        except OSError as exc:
            pytest.skip(f"cannot bind ::1: {exc}")
        threading.Thread(target=server.serve_forever, args=(0.05,), daemon=True).start()
        try:
            url = f"http://[::1]:{server.server_port}{CHAT_PATH}"
            backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
            assert backend.chat(user("ping")) == ("pong", TokenUsage(12, 3))
        finally:
            server.shutdown()
            server.server_close()
        assert handler.seen[0]["host"] == f"[::1]:{server.server_port}"

    @pytest.mark.parametrize("key", ["sek\trit", "sekrité"], ids=["htab", "latin-1"])
    def test_key_sent_as_its_latin1_bytes(self, chat_server, monkeypatch, key):
        url, handler = chat_server
        monkeypatch.setenv("TEST_CHAT_KEY", key)
        post_json(url, {"messages": []}, "TEST_CHAT_KEY", timeout=5.0, max_retries=0, backoff=0.0)
        assert handler.seen[0]["auth"] == f"Bearer {key}"

    @pytest.mark.parametrize(
        "key", ["sek\rrit", "sek\x01rit", "sek\x7frit", "sek\x85rit", "sekrit€"],
        ids=["cr", "soh", "del", "c1-control", "non-latin-1"],
    )
    def test_key_that_cannot_be_a_header_is_refused_before_sending(
        self, chat_server, monkeypatch, key
    ):
        url, handler = chat_server
        monkeypatch.setenv("TEST_CHAT_KEY", key)
        with pytest.raises(HTTPStatusError, match=r"\$TEST_CHAT_KEY holds"):
            post_json(url, {"messages": []}, "TEST_CHAT_KEY", timeout=5.0, max_retries=2,
                      backoff=0.0)
        assert handler.seen == []

    @pytest.mark.parametrize("name, answers", [("localhost", True), ("example.com", False)])
    def test_https_round_trip_checks_the_certificate(
        self, serve, tmp_path, monkeypatch, name, answers
    ):
        endpoint = https_endpoint(serve, tmp_path, monkeypatch, name)
        if answers:
            reply = post_json(endpoint, {"messages": []}, None, 5.0, max_retries=0, backoff=0.0)
            assert reply["choices"][0]["message"]["content"] == "pong"
        else:
            with pytest.raises(TransportError, match="certificate"):
                post_json(endpoint, {"messages": []}, None, 5.0, max_retries=0, backoff=0.0)

    def test_https_posts_share_one_tls_context(self, serve, tmp_path, monkeypatch):
        """The CA store is read once per trust store, not once per request."""
        endpoint = https_endpoint(serve, tmp_path, monkeypatch, "localhost")
        made = []
        create = ssl.create_default_context
        monkeypatch.setattr(ssl, "create_default_context", lambda: made.append(1) or create())
        for _ in range(2):
            reply = post_json(endpoint, {"messages": []}, None, 5.0, max_retries=0, backoff=0.0)
            assert reply["choices"][0]["message"]["content"] == "pong"
        assert len(made) == 1

    def test_a_post_loads_neither_http_client_nor_email_feedparser(self, chat_server):
        url, handler = chat_server
        probe = (
            "import sys; from ragroute.embedding import post_json; "
            f"post_json({url!r}, {{'messages': []}}, None, 5.0, 0, 0.0); "
            "print([m for m in ('http.client', 'email.feedparser') if m in sys.modules])"
        )
        env = dict(os.environ, PYTHONPATH=str(Path(ragroute.__file__).parents[1]))
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True,
            timeout=60,
        )
        assert done.stdout == "[]\n"
        assert len(handler.seen) == 1


def https_endpoint(serve, tmp_path, monkeypatch, name: str) -> str:
    """The chat endpoint, at ``https://localhost``, of a server that answers
    over TLS with a fresh self-signed certificate for ``name``, which is the
    one certificate ``SSL_CERT_FILE`` trusts."""
    cert_file = self_signed_cert(tmp_path, name)
    server, url = serve(chat_handler())
    context = ssl.SSLContext(ssl.PROTOCOL_TLS_SERVER)
    context.load_cert_chain(cert_file)
    # The wrapped socket keeps the descriptor that the running server loop
    # waits on, so each connection from here on is accepted over TLS.
    server.socket = context.wrap_socket(server.socket, server_side=True)
    monkeypatch.setenv("SSL_CERT_FILE", str(cert_file))
    monkeypatch.delenv("SSL_CERT_DIR", raising=False)
    return url.replace("http://127.0.0.1", "https://localhost") + CHAT_PATH


def self_signed_cert(tmp_path, name: str):
    """A PEM file holding a fresh key and a self-signed certificate for ``name``."""
    pytest.importorskip("cryptography")
    from cryptography import x509
    from cryptography.hazmat.primitives import hashes, serialization
    from cryptography.hazmat.primitives.asymmetric import ec
    from cryptography.x509.oid import NameOID

    key = ec.generate_private_key(ec.SECP256R1())
    subject = x509.Name([x509.NameAttribute(NameOID.COMMON_NAME, name)])
    now = datetime.now(timezone.utc)
    cert = (
        x509.CertificateBuilder()
        .subject_name(subject)
        .issuer_name(subject)
        .public_key(key.public_key())
        .serial_number(x509.random_serial_number())
        .not_valid_before(now - timedelta(days=1))
        .not_valid_after(now + timedelta(days=1))
        .add_extension(x509.SubjectAlternativeName([x509.DNSName(name)]), critical=False)
        .add_extension(x509.BasicConstraints(ca=True, path_length=None), critical=True)
        .sign(key, hashes.SHA256())
    )
    path = tmp_path / f"{name}.pem"
    path.write_bytes(
        key.private_bytes(
            serialization.Encoding.PEM,
            serialization.PrivateFormat.PKCS8,
            serialization.NoEncryption(),
        )
        + cert.public_bytes(serialization.Encoding.PEM)
    )
    return path


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "reply",
        [
            b'{"usage": {}}',
            b'{"choices": []}',
            b'{"choices": [{"text": "pong"}]}',
            b"pong",
            b'{"choices": [{"message": {"content": null}}]}',
            b'{"choices": [{"message": {"content": 7}}]}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": null}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": [1, 2]}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": "x"}}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"completion_tokens": -3}}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": 1.5}}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": true}}',
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"prompt_tokens": 1%s}}'
            % (b"0" * 400),
            b'{"choices": [{"message": {"content": "pong"}}], "usage": {"completion_tokens": %d}}'
            % 2**63,
            b"[" * 200_000,
        ],
        ids=["no-choices", "empty-choices", "no-message", "not-json", "null-content",
             "number-content", "null-usage", "list-usage", "string-count", "negative-count",
             "float-count", "bool-count", "count-beyond-float", "count-2**63", "nested"],
    )
    def test_chat_reply_is_typed_error(self, chat_server, reply):
        url, handler = chat_server
        handler.reply = reply
        cfg = ChatBackendConfig(backend="remote_http", model_name="m", endpoint=url)
        with pytest.raises(MalformedReplyError):
            RemoteChatBackend(cfg, retry_backoff=0.0).chat(user("ping"))

    @pytest.mark.parametrize(
        "usage, expected",
        [("", TokenUsage(0, 0)), (', "usage": {"prompt_tokens": 5}', TokenUsage(5, 0)),
         (', "usage": {"prompt_tokens": %d}' % (2**63 - 1), TokenUsage(2**63 - 1, 0))],
        ids=["absent", "one-count", "largest-count"],
    )
    def test_chat_reply_counts_left_out_are_zero(self, chat_server, usage, expected):
        url, handler = chat_server
        handler.reply = ('{"choices": [{"message": {"content": "pong"}}]%s}' % usage).encode()
        backend = RemoteChatBackend(remote_cfg(url), retry_backoff=0.0)
        assert backend.chat(user("ping")) == ("pong", expected)

    @pytest.mark.parametrize(
        "reply",
        [
            b'{"object": "list"}',
            b'{"data": [{"index": 0}]}',
            b'{"data": []}',
            b'{"data": 3}',
            b'{"data": [{"embedding": 3}]}',
            b'{"data": [{"embedding": ["a", "b", "c", "d"]}]}',
            b'{"data": [{"embedding": [NaN, 0.5, 0.5, 0.5]}]}',
            b'{"data": [{"embedding": [1%s, 0.5, 0.5, 0.5]}]}' % (b"0" * 400),
        ],
        ids=["no-data", "no-embedding", "too-few-rows", "data-not-list", "row-not-list",
             "row-not-numbers", "row-nan", "row-beyond-float"],
    )
    def test_embeddings_reply_is_typed_error(self, chat_server, reply):
        url, handler = chat_server
        handler.reply = reply
        cfg = EmbeddingProviderConfig("remote_http", "m", 4, endpoint=url)
        with pytest.raises(MalformedReplyError):
            RemoteEmbedder(cfg, retry_backoff=0.0).embed_batch(["x"])

    @pytest.mark.parametrize(
        "status, reply, key, message, sent",
        [
            (200, b'{"object": "list"}', "sekrit", "lacks data", 1),
            (200, b'{"data": [{"embedding": [0.5]}]}', "sekrit", "dim 1", 1),
            (200, b'{"data": [{"embedding": [NaN, 0.5, 0.5, 0.5]}]}', "sekrit", "non-finite", 1),
            (401, None, "sekrit", "401 Unauthorized for url: http://127.0.0.1:", 1),
            (200, None, "sek\nrit", "$TEST_EMBED_KEY holds a line break", 0),
            (200, None, "sekrit\u20ac", "$TEST_EMBED_KEY holds", 0),
        ],
        ids=["no-data", "wrong-dim", "row-nan", "unauthorized", "key-with-line-break",
             "key-outside-latin-1"],
    )
    def test_build_index_exits_2_with_json_error(
        self, chat_server, tmp_path, capsys, monkeypatch, status, reply, key, message, sent
    ):
        url, handler = chat_server
        handler.reply = reply
        handler.fail_times, handler.fail_status = int(status != 200), status
        monkeypatch.setenv("TEST_EMBED_KEY", key)
        config = embedding_config(tmp_path, url, api_key_env="TEST_EMBED_KEY")
        assert main(["ingest", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["build-index", "--config", str(config)]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        error = json.loads(err)
        assert sorted(error) == ["command", "error"]
        assert error["command"] == "build-index"
        assert message in error["error"]
        assert len(handler.seen) == sent

    def test_build_index_with_non_ascii_endpoint_path_exits_2(self, tmp_path, capsys):
        config = embedding_config(tmp_path, "http://127.0.0.1:9/v1/caf\u00e9")
        assert main(["build-index", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "build-index"
        assert "printable ASCII" in error["error"]

    @pytest.mark.parametrize(
        "encode",
        [lambda raw: raw, lambda raw: gzip.compress(raw)[:-12],
         lambda raw: gzip.compress(raw)[:10] + b"not deflate data" * 4],
        ids=["not-gzip", "truncated-gzip", "corrupt-gzip"],
    )
    def test_bad_gzip_reply_is_typed_error(self, chat_server, encode):
        url, handler = chat_server
        handler.encode = encode
        with pytest.raises(MalformedReplyError, match="not JSON"):
            RemoteChatBackend(remote_cfg(url), retry_backoff=0.0).chat(user("ping"))
        assert len(handler.seen) == 1


def embedding_config(tmp_path, endpoint: str, api_key_env: str | None = None):
    """A one-agent config whose embeddings go to ``endpoint``, with its corpus."""
    transcripts.write_jsonl(
        tmp_path / "corpus.jsonl",
        [{"doc_id": "d", "category": "c", "body": "one short document"}],
    )
    (tmp_path / "script.json").write_text("[]", encoding="utf-8")
    config = tmp_path / "config.json"
    config.write_text(json.dumps({
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "index_dir": str(tmp_path / "index"),
        "embedding": {"provider": "remote_http", "model_name": "m", "dim": 4, "endpoint": endpoint,
                      "api_key_env": api_key_env},
        "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
        "agents": [{"agent_id": "a", "category": "c"}],
    }), encoding="utf-8")
    return config


class TestSections:
    def test_each_label_maps_to_its_section(self):
        text = "Analysis: why\nit is so\nAnswer: because"
        assert sections(text, "analysis", "answer") == {
            "analysis": " why\nit is so\n", "answer": " because"
        }
        assert sections(text, "evaluation") == {}

    def test_the_last_occurrence_wins(self):
        text = "Answer: first\nAnswer: second\nmore"
        assert sections(text, "answer") == {"answer": " second\nmore"}

    def test_a_section_ends_at_the_next_given_label(self):
        text = "Evaluation: e\nAnswer: a\nAnalysis: late\nJustification: j"
        assert sections(text, "evaluation", "analysis", "answer") == {
            "evaluation": " e\n", "answer": " a\n", "analysis": " late\nJustification: j"
        }

    @pytest.mark.parametrize("text", [
        "So the Answer: is not here", "Answer the question: no", "Answers: no", "Answer - no",
        "\u3000Answer: no", "x\rAnswer: no",
    ])
    def test_a_label_starts_a_line_and_ends_at_a_colon(self, text):
        assert sections(text, "answer") == {}

    def test_leading_blanks_and_letter_case_are_ignored(self):
        text = "intro\n \t aNsWeR \t: yes"
        assert sections(text, "Answer") == {"Answer": " yes"}
        assert sections(text, "answer", "ANSWERABLE") == {"answer": " yes"}

    @pytest.mark.parametrize("section, yes", [
        (" yes", True), (" Yes.", True), ("yes, fresh", True), (" YES\n", True),
        (" eyes closed", False), (" yesterday", False), (" no", False), ("", False),
        ("\nyes", False), (" no\nyes", False),
    ])
    def test_a_yes_is_read_on_the_labels_own_line(self, section, yes):
        assert says_yes(section) is yes
        assert parse_judgment(f"Answerable:{section}").answerable is yes


class TestParseAgentReply:
    def test_analysis_and_answer_sections(self):
        reply = parse_agent_reply(transcripts.WD_AGENT_REPLIES["a2"])
        assert "The racist and volatile older brother" in reply.analysis
        assert reply.answer == "Daryl's brother in The Walking Dead is Merle Dixon."
        assert not reply.is_unknown and not reply.degraded

    def test_unknown_answer_flagged(self):
        reply = parse_agent_reply("Analysis: none\nAnswer: I don't know.")
        assert reply.is_unknown
        assert reply.answer == "I don't know."

    def test_unknown_with_curly_apostrophe(self):
        reply = parse_agent_reply("Analysis: n/a\nAnswer: I don’t know.")
        assert reply.is_unknown

    def test_no_labels_degrades(self):
        reply = parse_agent_reply("free text with no labels at all")
        assert reply.degraded
        assert reply.analysis == ""
        assert reply.answer == "free text with no labels at all"

    def test_splits_on_last_labels(self):
        text = (
            "Analysis: the docs say Answer: not this one\n"
            "Analysis: real analysis here\n"
            "Answer: the real answer"
        )
        reply = parse_agent_reply(text)
        assert reply.analysis == "real analysis here"
        assert reply.answer == "the real answer"

    def test_round_trip_identity(self):
        cases = [("a short analysis", "a crisp answer"), ("", "just an answer")]
        for analysis, answer in cases:
            text = f"Analysis: {analysis}\nAnswer: {answer}"
            reply = parse_agent_reply(text)
            assert reply.analysis == analysis
            assert reply.answer == answer


class TestParseJudgment:
    def test_unanswerable_with_new_questions(self):
        judgment = parse_judgment(transcripts.NR_JUDGER_REPLY_1)
        assert judgment.answerable is False
        assert "What were the main allegations" in judgment.response
        assert judgment.justification.startswith("The provided record")

    def test_answerable_with_short_response(self):
        judgment = parse_judgment(transcripts.NR_JUDGER_REPLY_2)
        assert judgment.answerable is True
        assert judgment.response.startswith("Both reports portray Google")
        assert len(judgment.response.split()) <= 20

    def test_bare_answerable_line(self):
        judgment = parse_judgment("Answerable: no")
        assert judgment.answerable is False
        assert judgment.justification == ""
        assert judgment.response == ""

    def test_missing_answerable_is_unusable(self):
        reply = "Justification: no idea\nResponse: nothing"
        assert parse_judgment(reply) is None
        backend = ScriptedChatBackend([ScriptEntry("justify if the query", reply, repeat=True)])
        with pytest.raises(ReplyParseError, match="unparseable judgment"):
            judge_and_split("q?", [], backend)
        assert len(backend.calls) == 2

    def test_yes_must_be_a_word(self):
        assert parse_judgment("Answerable: yes").answerable is True
        assert parse_judgment("Answerable: eyes closed").answerable is False


class TestExtractNumberedQuestions:
    def test_three_questions_in_order(self):
        questions = extract_numbered_questions(transcripts.NR_SPLITTER_REPLY)
        assert len(questions) == 3
        assert questions[0].startswith("What were the main claims made by The Age")

    def test_no_matches(self):
        assert extract_numbered_questions("no questions here") == []

    def test_blank_line_tolerance(self):
        assert extract_numbered_questions("1. A\n\n2. B") == ["A", "B"]

    def test_embedded_in_judgment_response(self):
        judgment = parse_judgment(transcripts.NR_JUDGER_REPLY_1)
        questions = extract_numbered_questions(judgment.response)
        assert len(questions) == 2
        assert questions[0].startswith("What were the main allegations made by TechCrunch")

    @pytest.mark.parametrize(
        "text, questions",
        [("1.   ", [" "]), ("3.", []), (" 12.\tWho?  \nx. no\n\u0663. Why", ["Who?", "Why"])],
    )
    def test_edge_lines(self, text, questions):
        assert extract_numbered_questions(text) == questions

    @given(st.text(alphabet=" \t\u3000\xa0\x85\n\r12\u0663\xb2.aq", max_size=16))
    def test_same_as_the_lazy_pattern(self, text):
        lazy = re.compile(r"^\s*\d+\.\s*(.+?)\s*$")
        expected = [m[1] for line in text.splitlines() if (m := lazy.match(line))]
        assert extract_numbered_questions(text) == expected

    def test_time_is_linear_in_a_whitespace_run(self):
        line = "1. q" + " " * 50_000 + "y"
        start = time.perf_counter()
        assert extract_numbered_questions(line) == [line[3:]]
        assert time.perf_counter() - start < 2.0
