"""Stand-in chat model for the benchmark.

Stateless: each reply is a pure function of the messages. The template is
picked from the system message. An agent reply quotes a planted fact only
when the fact appears in the documents the agent was sent; the router keeps
the first response that knows; the splitter and judge walk the question's
keys through the records; the selector rejects repeats; the defender joins
the record answers. Usage is counted with the program's own tokenizer, the
same rule the scripted mock uses.
"""

from __future__ import annotations

import re
import threading

from ragroute.corpus import tokenize
from ragroute.llm import ChatCall, TokenUsage
from ragroute.prompts import (
    AGENT_ANSWER_MULTI_HOP,
    AGENT_ANSWER_SINGLE_HOP,
    DEFENDER,
    JUDGER_SPLITTER,
    POLISH_QUERY,
    ROUTER_FINALIZE_MULTI_HOP,
    ROUTER_FINALIZE_SINGLE_HOP,
    SELECTOR_PAIRWISE,
    SPLITTER_FIRST_ROUND,
    TEMPLATES,
)

_TEMPLATE_OF = {text: template_id for template_id, text in TEMPLATES.items()}
_QUESTION_RE = re.compile(r"^What is the (.+) of (\S+)\?$")
_FACT_RE = re.compile(r"The (\w+) of (\w+) is (\w+)\.")
_UNKNOWN = "I don't know."


def parse_question(question: str) -> tuple[list[str], str] | None:
    """'What is the k2 of the k1 of e?' -> (['k1', 'k2'], 'e')."""
    m = _QUESTION_RE.match(question.strip())
    if not m:
        return None
    return list(reversed(m.group(1).split(" of the "))), m.group(2)


def _field(text: str, label: str) -> str:
    m = re.search(rf"^{label}: (.*)$", text, re.M)
    return m.group(1).strip() if m else ""


def _answer_of(response: str) -> str:
    answers = re.findall(r"(?m)^Answer:[ \t]*(.*)$", response)
    return answers[-1].strip() if answers else ""


def _records(user: str) -> list[tuple[str, str]]:
    return re.findall(r"Record \d+:\nQuestion: (.*)\nAnswer: (.*)", user)


def _agent(user: str) -> str:
    question = _field(user, "Question")
    docs = user.split("\n\nDocuments:\n", 1)[-1]
    parsed = parse_question(question)
    if parsed is None or len(parsed[0]) != 1:
        return f"Analysis: The question is not a single fact lookup.\nAnswer: {_UNKNOWN}"
    (key,), entity = parsed
    for k, e, value in _FACT_RE.findall(docs):
        if (k, e) == (key, entity):
            fact = f"The {key} of {entity} is {value}."
            return f'Analysis: The documents state "{fact}"\nAnswer: {fact}'
    return f"Analysis: No document states the {key} of {entity}.\nAnswer: {_UNKNOWN}"


def _router(user: str) -> str:
    responses = re.split(r"(?m)^Response \d+:\n", user.split("\n\nResponses:\n", 1)[-1])[1:]
    bullets, final = [], _UNKNOWN
    for i, response in enumerate(responses, 1):
        answer = _answer_of(response)
        if answer and answer != _UNKNOWN:
            bullets.append(f"- Response {i} quotes the documents and is reliable.")
            if final == _UNKNOWN:
                final = answer
        else:
            bullets.append(f"- Response {i} is unhelpful.")
    return (
        "Evaluation:\n" + "\n".join(bullets)
        + f"\nAnalysis: The reliable responses agree.\nAnswer: {final}"
    )


def next_hop(query: str, records: list[tuple[str, str]]) -> tuple[str | None, str]:
    """Walk the query's keys through the records.

    Returns (None, answer) when every hop is resolved, else
    (next subquestion, "").
    """
    parsed = parse_question(query)
    if parsed is None:
        return None, ""
    keys, entity = parsed
    for key in keys:
        sub = f"What is the {key} of {entity}?"
        found = None
        for question, answer in records:
            m = _FACT_RE.search(answer)
            if question == sub and m and m.group(1, 2) == (key, entity):
                found = m.group(3)
        if found is None:
            return sub, ""
        entity = found
    return None, entity


def _splitter(user: str) -> str:
    sub, _ = next_hop(_field(user, "Question"), [])
    return f"1. {sub}"


def _judge(user: str) -> str:
    sub, answer = next_hop(_field(user, "Query"), _records(user))
    if sub is None:
        return f"Justification: The records resolve every hop.\nAnswerable: yes\nResponse: {answer}"
    return f"Justification: One hop is still open.\nAnswerable: no\nResponse:\n1. {sub}"


def _selector(user: str) -> str:
    if _field(user, "Question 1") == _field(user, "Question 2"):
        return "Explanation: Question 2 repeats Question 1.\nMeets both requirements: no"
    return "Explanation: Question 2 differs from Question 1.\nMeets both requirements: yes"


def _defender(user: str) -> str:
    answers = [a for _, a in _records(user) if a != _UNKNOWN]
    final = " ".join(answers) if answers else "Insufficient information."
    return f"Analysis: The records answer the query hop by hop.\nAnswer: {final}"


def _polish(user: str) -> str:
    return f"Polished query: {_field(user, 'Query')}"


_HANDLERS = {
    AGENT_ANSWER_SINGLE_HOP: _agent,
    AGENT_ANSWER_MULTI_HOP: _agent,
    ROUTER_FINALIZE_SINGLE_HOP: _router,
    ROUTER_FINALIZE_MULTI_HOP: _router,
    SPLITTER_FIRST_ROUND: _splitter,
    JUDGER_SPLITTER: _judge,
    SELECTOR_PAIRWISE: _selector,
    DEFENDER: _defender,
    POLISH_QUERY: _polish,
}


def respond(messages: list[tuple[str, str]]) -> tuple[str, int, int]:
    """(role, content) pairs -> (reply, prompt_tokens, completion_tokens)."""
    template = _TEMPLATE_OF.get(messages[0][1]) if messages and messages[0][0] == "system" else None
    if template not in _HANDLERS:
        raise ValueError("stand-in model: unknown system prompt")
    reply = _HANDLERS[template](messages[-1][1])
    prompt = "\n".join(content for _, content in messages)
    return reply, len(tokenize(prompt)), len(tokenize(reply))


class StandInBackend:
    """In-process chat backend with the program's call log (``calls``)."""

    def __init__(self) -> None:
        self.calls: list[ChatCall] = []
        self._lock = threading.Lock()

    def chat(self, messages) -> tuple[str, TokenUsage]:
        pairs = [(m.role, m.content) for m in messages]
        reply, prompt_tokens, completion_tokens = respond(pairs)
        usage = TokenUsage(prompt_tokens, completion_tokens)
        with self._lock:
            self.calls.append(ChatCall("\n".join(c for _, c in pairs), reply, usage))
        return reply, usage
