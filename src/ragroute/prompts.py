"""Prompt templates and rendering.

Template texts are fixed system prompts (transcribed verbatim, including the
"respoonses" typo, so downstream parsers and replays can rely on exact
bytes). Slot values never touch the system message: they are composed into
the user message, and multi-hop conversation history becomes alternating
user/assistant turns between the two.
"""

from __future__ import annotations

from typing import Callable, Iterable

from .llm import ChatMessage

AGENT_ANSWER_SINGLE_HOP = "agent_answer_single_hop"
AGENT_ANSWER_MULTI_HOP = "agent_answer_multi_hop"
ROUTER_FINALIZE_SINGLE_HOP = "router_finalize_single_hop"
ROUTER_FINALIZE_MULTI_HOP = "router_finalize_multi_hop"
SPLITTER_FIRST_ROUND = "splitter_first_round"
JUDGER_SPLITTER = "judger_splitter"
SELECTOR_PAIRWISE = "selector_pairwise"
DEFENDER = "defender"
POLISH_QUERY = "polish_query"
CORRECTNESS_JUDGE_SINGLE_HOP = "correctness_judge_single_hop"
CORRECTNESS_JUDGE_MULTI_HOP = "correctness_judge_multi_hop"


class PromptSlotError(ValueError):
    """A template was rendered without one of its required slots."""


TEMPLATES: dict[str, str] = {
    AGENT_ANSWER_SINGLE_HOP: (
        "You are given a question, and a set of documents that are relevant to the question. "
        "FIRST, analyze the question based on the given documents, and quote the relevant "
        "sentences from the given documents to support your analysis. SECOND, on a new line, "
        "finalize the answer based on your analysis. If you cannot answer the question, please "
        'show "I don\'t know." Your response should use the format:\n'
        "Analysis: <a paragraph with no more than ten sentences. Use quotation marks (\"\") for "
        "the sentences cited from the given documents.>\n"
        "Answer: <a response in one sentence>"
    ),
    ROUTER_FINALIZE_SINGLE_HOP: (
        "You are given a question, and a set of respoonses. Each response includes an analysis "
        "and an answer to the question. FIRST, read all responses, and evaluate the soundness of "
        "each response. A good and reliable response should ensure the analysis is logical, the "
        "answer is coherent with its analysis, and the answer solves the question. SECOND, on a "
        "new line, analyze the question with the help of good and reliable responses. If none of "
        "the responses are good and reliable, you should utilize your own knowledge and analyze "
        "the question. THIRD, on a new line, finalize the answer based on your analysis with no "
        "more than twenty words. Your response should use the format:\n"
        "Evaluation: <bullet points that show and justify the soundness of each response>\n"
        "Analysis: <a paragraph with no more than six sentences>\n"
        "Answer: <a response no more than 20 words>"
    ),
    CORRECTNESS_JUDGE_SINGLE_HOP: (
        'You are given a question, a set of model answers (split by "/"), and a response from a '
        'model. Compare the "Model answers" and the "Response" to determine whether the response '
        "correctly answers the question. A CORRECT response could be different from any one of "
        "model answers, while an INCORRECT response is contradictory with all model answers. "
        "FIRST, provide a one-sentence justification, explaining the correctness of the response "
        'and why. SECOND, on a new line, state only "yes" or "no" to indicate whether the '
        "response is correct. Your response should use the format:\n"
        "Justification: <one-sentence explanation>\n"
        'Correct: <"yes" or "no">'
    ),
    AGENT_ANSWER_MULTI_HOP: (
        "You are provided with a question and a collection of knowledge that is relevant to the "
        "question. Your task is to answer the question with the following two steps: FIRST, you "
        "should read the given context and quote the sentences word-for-word to analyze the "
        "question. SECOND, on a new line, you should finalize the answer based on your analysis. "
        'If you cannot answer the question, please show "I don\'t know." Your response should '
        "use the format:\n"
        "Analysis: <a paragraph with no more than ten sentences. Use quotation marks (\"\") for "
        "the direct quotation.>\n"
        "Answer: <a response in one sentence>"
    ),
    ROUTER_FINALIZE_MULTI_HOP: (
        "You are provided with a conversation history, a question, and a set of respoonses. The "
        "conversation history contains a list of user queries and assistant responses. Each "
        "response includes an analysis and an answer to the question. Your task is to answer the "
        "question with the following three steps: FIRST, you should read all responses and "
        "evaluate the soundness of each response. A good and reliable response should ensure the "
        "analysis is logical, the answer is coherent with its analysis, and the answer solves "
        "the question. The response could be implicitly supported by the conversation history. "
        "SECOND, on a new line, you should analyze the question with the help of good and "
        "reliable responses. If none of the responses are good and reliable, you should utilize "
        "your own knowledge and analyze the question. THIRD, on a new line, you should finalize "
        "the answer based on your analysis. Your answer should be clear with convincing "
        'evidence. Your answer should not contain ambiguous references, such as "he," "she," '
        'and "it," and should use complete names. Your output should use the format:\n'
        "Evaluation: <bullet points that show and justify the soundness of each response one by "
        "one>\n"
        "Analysis: <a paragraph with no more than six sentences>\n"
        "Answer: <a response>"
    ),
    SPLITTER_FIRST_ROUND: (
        "You are provided with a question. Your task is to break the question into one or more "
        "subquestions. These questions should be clear and easy to answer. These subquestions "
        "should include the necessary details of the question. These subquestions should not "
        'contain ambiguous references, such as "he," "she," or "it," and should use complete '
        "names. You should enumerate and number these subquestions. For example, if there are "
        "three subquestions, the output format should follow\n"
        "1. <Question 1>\n"
        "2. <Question 2>\n"
        "3. <Question 3>"
    ),
    JUDGER_SPLITTER: (
        "You are provided with a query and a set of records. Each record includes a question and "
        "an answer. Your task is to answer the query based on the records with the following "
        "three steps: FIRST, you should write a paragraph to justify if the query can be "
        "answered according to the records and explain why. SECOND, on a new line, you should "
        'state only "yes" or "no" to indicate the answerable. THIRD, on a new line, you should '
        "provide an answer of 20 words or less if the query is answerable. Otherwise, you should "
        "enumerate one or more questions that are helpful to answer the query according to the "
        "justification. These questions should be clear and easy to answer. These questions "
        'should not contain ambiguous references, such as "he," "she," or "it," and should use '
        "complete names. These questions should not appear in the records. Enumerate and number "
        "the questions. Your output should use the format:\n"
        "Justification: <one-paragraph explanation>\n"
        'Answerable: <"yes" or "no">\n'
        "Response: <an answer of no more than 20 words or some questions>"
    ),
    SELECTOR_PAIRWISE: (
        "You are given two questions: Question 1 and Question 2. Your task is to assess whether "
        "Question 2 meets the following requirements:\n"
        "1. Question 2 must differ from Question 1 in terms of meaning, structure, scope, focus, "
        "or intent.\n"
        '2. Question 2 must be clear, without any ambiguous references (e.g., "he," "she," '
        '"it").\n'
        "Please follow these two steps to complete the task: FIRST, provide a one-sentence "
        "explanation indicating whether or not Question 2 satisfies both requirements. SECOND, "
        'on a new line, state "yes" or "no" to confirm whether Question 2 meets both '
        "requirements. Your response should follow this format:\n"
        "Explanation: <a single sentence that explains whether Question 2 meets both "
        "requirements>\n"
        'Meets both requirements: <"yes" or "no">'
    ),
    DEFENDER: (
        "You are provided with a query and a set of records. Each record includes a question and "
        "an answer. Your task is to answer the query based on the records with the following two "
        "steps: FIRST, you should write a paragraph to analyze and answer the query based on the "
        "records. If the records cannot fully answer the query, you should utilize your own "
        "knowledge and analyze the question. Or, you should state what kind of information can "
        "help you answer the query. SECOND, on a new line, finalize the answer based on your "
        'analysis with no more than 20 words. If you need more information to answer the query, '
        'please show "Insufficient information." Your output should use the format:\n'
        "Analysis: <a paragraph with no more than six sentences>\n"
        'Answer: <a response of no more than 20 words or "Insufficient information.">'
    ),
    POLISH_QUERY: (
        "You are provided with a query and a set of records. Each record includes a question and "
        "an answer. Your task is to polish the query based on the records that would help "
        "clarify or lead to a solution. The new query should not contain ambiguous references, "
        'such as "he," "she," and "it," and should use complete names. Your output should use '
        "the format:\n"
        "Polished query: <a new query>"
    ),
    CORRECTNESS_JUDGE_MULTI_HOP: (
        "You are given a question, a model answer, and a response from a model. Compare the "
        '"Model answers" and the "Response" to determine whether the response correctly answers '
        "the question. A CORRECT response could be different from any one of model answers, "
        "while an INCORRECT response is contradictory with all model answers. FIRST, provide a "
        "one-sentence justification, explaining the correctness of the response and why. SECOND, "
        'on a new line, state only "yes" or "no" to indicate whether the response is correct. '
        "Your response should use the format:\n"
        "Justification: <one-sentence explanation>\n"
        'Correct: <"yes" or "no">'
    ),
}


def _numbered_blocks(label: str, texts: Iterable[str]) -> str:
    return "\n\n".join(f"{label} {i}:\n{t}" for i, t in enumerate(texts, 1))


def _documents(slots: dict) -> str:
    documents = _numbered_blocks("Document", slots["documents"])
    return f"Question: {slots['question']}\n\nDocuments:\n{documents}"


def _responses(slots: dict) -> str:
    responses = _numbered_blocks("Response", slots["responses"])
    return f"Question: {slots['question']}\n\nResponses:\n{responses}"


def _records(slots: dict) -> str:
    blocks = [f"Question: {r.question}\nAnswer: {r.answer}" for r in slots["records"]]
    return f"Query: {slots['query']}\n\nRecords:\n{_numbered_blocks('Record', blocks) or '(none)'}"


# Each template's user message, built from its slots; a slot it reads that
# is missing raises KeyError.
_USER_MESSAGE: dict[str, Callable[[dict], str]] = {
    AGENT_ANSWER_SINGLE_HOP: _documents,
    AGENT_ANSWER_MULTI_HOP: _documents,
    ROUTER_FINALIZE_SINGLE_HOP: _responses,
    ROUTER_FINALIZE_MULTI_HOP: _responses,
    SPLITTER_FIRST_ROUND: lambda slots: f"Question: {slots['question']}",
    JUDGER_SPLITTER: _records,
    SELECTOR_PAIRWISE: lambda slots: (
        f"Question 1: {slots['question_1']}\nQuestion 2: {slots['question_2']}"
    ),
    DEFENDER: _records,
    POLISH_QUERY: _records,
    CORRECTNESS_JUDGE_SINGLE_HOP: lambda slots: (
        f"Question: {slots['question']}\nModel answers: {'/'.join(slots['model_answers'])}\n"
        f"Response: {slots['response']}"
    ),
    CORRECTNESS_JUDGE_MULTI_HOP: lambda slots: (
        f"Question: {slots['question']}\nModel answer: {slots['model_answer']}\n"
        f"Response: {slots['response']}"
    ),
}

# The templates that read the ``history`` slot, as turns before the user message.
_WITH_HISTORY = (AGENT_ANSWER_MULTI_HOP, ROUTER_FINALIZE_MULTI_HOP)


def render_prompt(template_id: str, slots: dict) -> list[ChatMessage]:
    """Render a template into chat messages.

    The system message is the template text byte-for-byte; slot values are
    composed into the final user message (and, for multi-hop templates, into
    alternating user/assistant history turns).
    """
    if template_id not in _USER_MESSAGE:
        raise KeyError(f"unknown template {template_id!r}")
    messages = [ChatMessage("system", TEMPLATES[template_id])]
    try:
        if template_id in _WITH_HISTORY:
            for turn in slots["history"]:
                messages.append(ChatMessage("user", turn.question))
                messages.append(ChatMessage("assistant", turn.answer))
        messages.append(ChatMessage("user", _USER_MESSAGE[template_id](slots)))
    except KeyError as exc:
        raise PromptSlotError(f"missing slot for {template_id}: {exc.args[0]}") from None
    return messages
