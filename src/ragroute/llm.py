"""Chat backends, token accounting, and structured-reply parsing.

The remote backend speaks the common chat-completions wire shape. The
scripted mock replays canned transcripts for offline runs and tests: it scans
an ordered script and answers with the first unconsumed entry whose matcher
is a substring of the incoming prompt, charging usage at the exact token
counts of prompt and reply.
"""

from __future__ import annotations

import hashlib
import re
import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, TypeVar

from .corpus import tokenize
from .embedding import MalformedReplyError, endpoint_address, post_json
from .store import read_json, require_int, require_number, require_str

CHAT_TIMEOUT_S = 120.0

T = TypeVar("T")


class UnscriptedPromptError(RuntimeError):
    """The scripted mock has no remaining entry matching the prompt."""


class ReplyParseError(RuntimeError):
    """A structured reply was missing a required labeled section."""


@dataclass(frozen=True)
class ChatMessage:
    role: str  # "system" | "user" | "assistant"
    content: str

    def __post_init__(self) -> None:
        if self.role not in ("system", "user", "assistant"):
            raise ValueError(f"bad role {self.role!r}")
        if not self.content:
            raise ValueError("empty message content")


@dataclass(frozen=True)
class TokenUsage:
    prompt_tokens: int = 0
    completion_tokens: int = 0

    def __post_init__(self) -> None:
        if self.prompt_tokens < 0 or self.completion_tokens < 0:
            raise ValueError("token counts must be non-negative")

    def __add__(self, other: "TokenUsage") -> "TokenUsage":
        return TokenUsage(
            self.prompt_tokens + other.prompt_tokens,
            self.completion_tokens + other.completion_tokens,
        )

    @property
    def total(self) -> int:
        return self.prompt_tokens + self.completion_tokens


@dataclass(frozen=True)
class ChatBackendConfig:
    backend: str  # "remote_http" | "scripted_mock"
    model_name: str = ""
    endpoint: str | None = None
    temperature: float = 0.0
    max_rounds_retry: int = 2
    api_key_env: str | None = None
    script_path: str | None = None

    def __post_init__(self) -> None:
        for name in ("backend", "model_name"):
            require_str(name, getattr(self, name))
        for name in ("endpoint", "api_key_env", "script_path"):
            require_str(name, getattr(self, name), optional=True)
        require_int("max_rounds_retry", self.max_rounds_retry)
        require_number("temperature", self.temperature)
        if self.max_rounds_retry < 0:
            raise ValueError("max_rounds_retry must be >= 0")
        if self.backend == "remote_http":
            if not self.endpoint:
                raise ValueError("remote_http backend requires an endpoint")
            endpoint_address(self.endpoint)
        if self.backend == "scripted_mock" and not self.script_path:
            raise ValueError("scripted_mock backend requires a script source")
        if self.backend not in ("remote_http", "scripted_mock"):
            raise ValueError(f"unknown backend {self.backend!r}")


@dataclass(frozen=True)
class ChatCall:
    """One logged backend exchange: prompt text, reply, and exact usage."""

    prompt: str
    reply: str
    usage: TokenUsage

    @property
    def prompt_sha256(self) -> str:
        return hashlib.sha256(self.prompt.encode("utf-8")).hexdigest()


def _prompt_text(messages: list[ChatMessage]) -> str:
    return "\n".join(m.content for m in messages)


def _check_messages(messages: list[ChatMessage]) -> None:
    if not any(m.role == "user" for m in messages):
        raise ValueError("at least one user message required")


@dataclass
class ScriptEntry:
    match: str
    reply: str
    repeat: bool = False
    consumed: bool = False


class ScriptedChatBackend:
    """Deterministic mock: ordered (matcher, reply) script.

    Each chat() scans the script top to bottom and uses the first unconsumed
    entry whose ``match`` string occurs in the concatenated prompt text.
    Entries are one-shot unless marked ``repeat``. No entry matching ->
    UnscriptedPromptError. Usage counts prompt and reply tokens exactly under
    the corpus tokenizer.
    """

    def __init__(self, entries: list[ScriptEntry]):
        self.entries = entries
        self.calls: list[ChatCall] = []
        self._lock = threading.Lock()

    @classmethod
    def from_file(cls, path: str | Path) -> "ScriptedChatBackend":
        """The script in a JSON list of ``{match, reply[, repeat]}``
        objects, with string ``match`` and ``reply`` and a JSON boolean
        ``repeat``; IndexFileError names the file when it is not that."""

        def parse(raw) -> "ScriptedChatBackend":
            if not isinstance(raw, list):
                raise TypeError(f"a script is a JSON list, not {type(raw).__name__}")
            entries = [ScriptEntry(e["match"], e["reply"], e.get("repeat", False)) for e in raw]
            if not all(isinstance(e.match, str) and isinstance(e.reply, str) for e in entries):
                raise TypeError("every entry's match and reply must be strings")
            if not all(type(e.repeat) is bool for e in entries):
                raise TypeError("every entry's repeat must be a JSON boolean")
            return cls(entries)

        return read_json(path, parse)

    def chat(self, messages: list[ChatMessage]) -> tuple[str, TokenUsage]:
        _check_messages(messages)
        prompt = _prompt_text(messages)
        with self._lock:
            for entry in self.entries:
                if entry.consumed or entry.match not in prompt:
                    continue
                if not entry.repeat:
                    entry.consumed = True
                usage = TokenUsage(len(tokenize(prompt)), len(tokenize(entry.reply)))
                self.calls.append(ChatCall(prompt, entry.reply, usage))
                return entry.reply, usage
        raise UnscriptedPromptError(f"unscripted prompt (first 120 chars): {prompt[:120]!r}")


def _reply_usage(usage) -> TokenUsage:
    """The token counts of a chat reply's ``usage`` object; a count it leaves
    out is 0."""
    if type(usage) is dict:
        counts = (usage.get("prompt_tokens", 0), usage.get("completion_tokens", 0))
        if all(type(n) is int and n >= 0 for n in counts):
            return TokenUsage(*counts)
    raise MalformedReplyError(
        f"chat reply usage is not an object of non-negative integer counts: {usage!r:.80}"
    )


class RemoteChatBackend:
    """HTTP chat-completions client with bounded retry on transport failures."""

    def __init__(self, cfg: ChatBackendConfig, retry_backoff: float = 0.5):
        if cfg.backend != "remote_http":
            raise ValueError("RemoteChatBackend requires a remote_http config")
        self.cfg = cfg
        self.retry_backoff = retry_backoff
        self.calls: list[ChatCall] = []
        self.retries_used = 0
        self._lock = threading.Lock()

    def _count_retry(self) -> None:
        with self._lock:
            self.retries_used += 1

    def chat(self, messages: list[ChatMessage]) -> tuple[str, TokenUsage]:
        _check_messages(messages)
        body = {
            "model": self.cfg.model_name,
            "messages": [{"role": m.role, "content": m.content} for m in messages],
            "temperature": self.cfg.temperature,
        }
        payload = post_json(
            self.cfg.endpoint,
            body,
            self.cfg.api_key_env,
            timeout=CHAT_TIMEOUT_S,
            max_retries=self.cfg.max_rounds_retry,
            backoff=self.retry_backoff,
            on_retry=self._count_retry,
        )
        try:
            text = payload["choices"][0]["message"]["content"]
        except (KeyError, IndexError, TypeError) as exc:
            raise MalformedReplyError(
                f"chat reply lacks choices[0].message.content: {exc!r}"
            ) from exc
        if type(text) is not str:
            raise MalformedReplyError(f"chat reply content is not a string: {text!r:.60}")
        usage = _reply_usage(payload.get("usage", {}))
        with self._lock:
            self.calls.append(ChatCall(_prompt_text(messages), text, usage))
        return text, usage


def make_chat_backend(cfg: ChatBackendConfig):
    if cfg.backend == "scripted_mock":
        return ScriptedChatBackend.from_file(cfg.script_path)
    return RemoteChatBackend(cfg)


def ask_parsed(
    backend, messages: list[ChatMessage], parse: Callable[[str], T | None]
) -> tuple[T | None, TokenUsage]:
    """Ask and parse the reply, re-asking once with the same messages.

    ``parse`` returns None, or raises ReplyParseError, for a reply it cannot
    use. Returns the first usable parse, or None after two unusable replies,
    together with the summed usage of every call made.
    """
    usage = TokenUsage()
    for _ in range(2):
        text, call_usage = backend.chat(messages)
        usage = usage + call_usage
        try:
            parsed = parse(text)
        except ReplyParseError:
            continue
        if parsed is not None:
            return parsed, usage
    return None, usage


@dataclass(frozen=True)
class ParsedAgentReply:
    analysis: str
    answer: str
    is_unknown: bool
    degraded: bool = False


@dataclass(frozen=True)
class ParsedJudgment:
    justification: str
    answerable: bool
    response: str


_UNKNOWN_ANSWER = "i don't know"


def _normalize_answer(text: str) -> str:
    return text.strip().replace("’", "'").lower().rstrip(".").strip()


def _label_matches(label: str, text: str) -> list[re.Match]:
    return list(re.finditer(rf"(?im)^[ \t]*{label}[ \t]*:", text))


def parse_agent_reply(text: str) -> ParsedAgentReply:
    """Split a reply on its last line-anchored Analysis:/Answer: labels.

    A reply with no Answer label degrades to (analysis="", answer=full text)
    with the degraded flag set instead of failing.
    """
    answers = _label_matches("answer", text)
    if not answers:
        stripped = text.strip()
        return ParsedAgentReply(
            analysis="",
            answer=stripped,
            is_unknown=_normalize_answer(stripped) == _UNKNOWN_ANSWER,
            degraded=True,
        )
    ans_label = answers[-1]
    analyses = [m for m in _label_matches("analysis", text) if m.start() < ans_label.start()]
    analysis = text[analyses[-1].end() : ans_label.start()].strip() if analyses else ""
    answer = text[ans_label.end() :].strip()
    return ParsedAgentReply(
        analysis=analysis,
        answer=answer,
        is_unknown=_normalize_answer(answer) == _UNKNOWN_ANSWER,
    )


def parse_judgment(text: str) -> ParsedJudgment:
    """Extract Justification/Answerable/Response sections from a judger reply.

    Raises ReplyParseError when the Answerable line is missing; the caller
    re-asks once before giving up.
    """
    answerables = _label_matches("answerable", text)
    if not answerables:
        raise ReplyParseError("unparseable judgment: no Answerable line")
    ans_label = answerables[-1]
    line_end = text.find("\n", ans_label.end())
    if line_end == -1:
        line_end = len(text)
    answerable = re.search(r"\byes\b", text[ans_label.end() : line_end], re.I) is not None
    justs = [m for m in _label_matches("justification", text) if m.start() < ans_label.start()]
    justification = text[justs[-1].end() : ans_label.start()].strip() if justs else ""
    responses = [m for m in _label_matches("response", text) if m.start() >= line_end]
    response = text[responses[0].end() :].strip() if responses else ""
    return ParsedJudgment(justification=justification, answerable=answerable, response=response)


_NUMBER = re.compile(r"\s*\d+\.")


def extract_numbered_questions(text: str) -> list[str]:
    """The text after ``<int>.`` on each line that starts so, in order, with
    whitespace stripped (text that is all whitespace gives its last
    character); [] when none match. Time is linear in the text's length."""
    out: list[str] = []
    for line in text.splitlines():
        if m := _NUMBER.match(line):
            rest = line[m.end() :]
            if question := rest.strip() or rest[-1:]:
                out.append(question)
    return out
