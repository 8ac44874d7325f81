from __future__ import annotations

import gc
import gzip
import json
import re
import time
import warnings
from datetime import datetime, timedelta, timezone
from email.utils import format_datetime
from http.server import BaseHTTPRequestHandler

import pytest

import transcripts
from conftest import make_agents, system_of
from ragroute.cli import main
from ragroute.corpus import tokenize
from ragroute.embedding import (
    EmbeddingProviderConfig,
    HTTPStatusError,
    MalformedReplyError,
    RemoteEmbedder,
    TransportError,
    post_json,
)
from ragroute.llm import (
    CHAT_TIMEOUT_S,
    ChatBackendConfig,
    ChatMessage,
    RemoteChatBackend,
    ReplyParseError,
    ScriptedChatBackend,
    ScriptEntry,
    TokenUsage,
    UnscriptedPromptError,
    extract_numbered_questions,
    parse_agent_reply,
    parse_judgment,
)
from ragroute.router import route_and_answer


def user(text: str) -> list[ChatMessage]:
    return [ChatMessage("user", text)]


class TestTokenUsage:
    def test_additivity(self):
        total = TokenUsage()
        for _ in range(3):
            total = total + TokenUsage(10, 5)
        assert total == TokenUsage(30, 15)
        assert total.total == 45


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


class _ChatHandler(BaseHTTPRequestHandler):
    fail_times = 0
    fail_status = 500
    retry_after: str | None = None
    delay_s = 0.0
    encode = None  # applied to the reply bytes, which are then sent as gzip, when set
    seen: list[dict] = []
    reply: bytes | None = None  # sent instead of the chat reply when set

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
             "accept_encoding": self.headers.get("Accept-Encoding")}
        )
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
                backend, mock_embedder,
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
            b"[" * 200_000,
        ],
        ids=["no-choices", "empty-choices", "no-message", "not-json", "null-content",
             "number-content", "null-usage", "list-usage", "string-count", "negative-count",
             "float-count", "bool-count", "nested"],
    )
    def test_chat_reply_is_typed_error(self, chat_server, reply):
        url, handler = chat_server
        handler.reply = reply
        cfg = ChatBackendConfig(backend="remote_http", model_name="m", endpoint=url)
        with pytest.raises(MalformedReplyError):
            RemoteChatBackend(cfg, retry_backoff=0.0).chat(user("ping"))

    @pytest.mark.parametrize(
        "usage, expected",
        [("", TokenUsage(0, 0)), (', "usage": {"prompt_tokens": 5}', TokenUsage(5, 0))],
        ids=["absent", "one-count"],
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
        ],
        ids=["no-data", "wrong-dim", "row-nan", "unauthorized", "key-with-line-break"],
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

    def test_missing_answerable_raises(self):
        with pytest.raises(ReplyParseError, match="unparseable judgment"):
            parse_judgment("Justification: no idea\nResponse: nothing")

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
