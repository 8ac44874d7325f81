from __future__ import annotations

import json
import threading
from http.server import BaseHTTPRequestHandler, HTTPServer

import pytest

import transcripts
from ragroute.cli import main
from ragroute.corpus import tokenize
from ragroute.embedding import (
    EmbeddingProviderConfig,
    MalformedReplyError,
    RemoteEmbedder,
    TransportError,
)
from ragroute.llm import (
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
    seen: list[dict] = []
    reply: bytes | None = None  # sent instead of the chat reply when set

    def do_POST(self):
        body = json.loads(self.rfile.read(int(self.headers["Content-Length"])))
        type(self).seen.append(
            {"body": body, "auth": self.headers.get("Authorization", "")}
        )
        if type(self).fail_times > 0:
            type(self).fail_times -= 1
            self.send_response(500)
            self.end_headers()
            return
        payload = {
            "choices": [{"message": {"role": "assistant", "content": "pong"}}],
            "usage": {"prompt_tokens": 12, "completion_tokens": 3},
        }
        raw = type(self).reply or json.dumps(payload).encode()
        self.send_response(200)
        self.send_header("Content-Type", "application/json")
        self.send_header("Content-Length", str(len(raw)))
        self.end_headers()
        self.wfile.write(raw)

    def log_message(self, *args):
        pass


@pytest.fixture
def chat_server():
    _ChatHandler.fail_times = 0
    _ChatHandler.seen = []
    _ChatHandler.reply = None
    server = HTTPServer(("127.0.0.1", 0), _ChatHandler)
    threading.Thread(target=server.serve_forever, daemon=True).start()
    yield f"http://127.0.0.1:{server.server_port}/v1/chat/completions", _ChatHandler
    server.shutdown()


class TestRemoteBackend:
    def _cfg(self, url: str, retries: int = 2) -> ChatBackendConfig:
        return ChatBackendConfig(
            backend="remote_http",
            model_name="test-model",
            endpoint=url,
            temperature=0.0,
            max_rounds_retry=retries,
        )

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
        backend = RemoteChatBackend(self._cfg(url), retry_backoff=0.0)
        text, _ = backend.chat(user("ping"))
        assert text == "pong"
        assert backend.retries_used == 2

    def test_retries_exhausted_raises(self, chat_server):
        url, handler = chat_server
        handler.fail_times = 10
        backend = RemoteChatBackend(self._cfg(url, retries=1), retry_backoff=0.0)
        with pytest.raises(TransportError):
            backend.chat(user("ping"))
        handler.fail_times = 0


class TestMalformedReplies:
    @pytest.mark.parametrize(
        "reply",
        [b'{"usage": {}}', b'{"choices": []}', b'{"choices": [{"text": "pong"}]}', b"pong"],
        ids=["no-choices", "empty-choices", "no-message", "not-json"],
    )
    def test_chat_reply_is_typed_error(self, chat_server, reply):
        url, handler = chat_server
        handler.reply = reply
        cfg = ChatBackendConfig(backend="remote_http", model_name="m", endpoint=url)
        with pytest.raises(MalformedReplyError):
            RemoteChatBackend(cfg, retry_backoff=0.0).chat(user("ping"))

    @pytest.mark.parametrize(
        "reply",
        [b'{"object": "list"}', b'{"data": [{"index": 0}]}', b'{"data": []}', b'{"data": 3}'],
        ids=["no-data", "no-embedding", "too-few-rows", "data-not-list"],
    )
    def test_embeddings_reply_is_typed_error(self, chat_server, reply):
        url, handler = chat_server
        handler.reply = reply
        cfg = EmbeddingProviderConfig("remote_http", "m", 4, endpoint=url)
        with pytest.raises(MalformedReplyError):
            RemoteEmbedder(cfg, retry_backoff=0.0).embed_batch(["x"])

    @pytest.mark.parametrize(
        "reply, message",
        [(b'{"object": "list"}', "lacks data"), (b'{"data": [{"embedding": [0.5]}]}', "dim 1")],
        ids=["no-data", "wrong-dim"],
    )
    def test_build_index_exits_2_with_json_error(
        self, chat_server, tmp_path, capsys, reply, message
    ):
        url, handler = chat_server
        handler.reply = reply
        transcripts.write_jsonl(
            tmp_path / "corpus.jsonl",
            [{"doc_id": "d", "category": "c", "body": "one short document"}],
        )
        (tmp_path / "script.json").write_text("[]", encoding="utf-8")
        config = tmp_path / "config.json"
        config.write_text(json.dumps({
            "corpus_path": str(tmp_path / "corpus.jsonl"),
            "index_dir": str(tmp_path / "index"),
            "embedding": {"provider": "remote_http", "model_name": "m", "dim": 4, "endpoint": url},
            "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
            "agents": [{"agent_id": "a", "category": "c"}],
        }), encoding="utf-8")
        assert main(["ingest", "--config", str(config)]) == 0
        capsys.readouterr()
        assert main(["build-index", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "build-index"
        assert message in error["error"]


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
