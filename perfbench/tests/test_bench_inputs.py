"""Generated inputs and the stand-in model."""

from __future__ import annotations

import dataclasses

import model
import workloads
from ragroute.corpus import tokenize
from ragroute.prompts import (
    AGENT_ANSWER_SINGLE_HOP,
    DEFENDER,
    JUDGER_SPLITTER,
    ROUTER_FINALIZE_SINGLE_HOP,
    SELECTOR_PAIRWISE,
    SPLITTER_FIRST_ROUND,
    render_prompt,
)
from ragroute.planner import QARecord

TINY = dataclasses.replace(
    workloads.WORKLOADS["greedy-multihop-http"], name="tiny", agents=3, docs_per_agent=3,
    doc_chunks=2, questions=6,
)


def _files(path):
    return {p.name: p.read_bytes() for p in sorted(path.iterdir())}


def test_same_seed_gives_byte_identical_inputs(tmp_path):
    for name in ("routed-1hop", "greedy-multihop-http"):
        spec = dataclasses.replace(workloads.WORKLOADS[name], agents=3, docs_per_agent=4)
        workloads.generate(spec, 7, tmp_path / f"{name}-a")
        workloads.generate(spec, 7, tmp_path / f"{name}-b")
        workloads.generate(spec, 8, tmp_path / f"{name}-c")
        assert _files(tmp_path / f"{name}-a") == _files(tmp_path / f"{name}-b")
        assert _files(tmp_path / f"{name}-a") != _files(tmp_path / f"{name}-c")


def test_question_text_round_trips():
    q = workloads.question_text(["founder", "river"], "zorvex")
    assert q == "What is the river of the founder of zorvex?"
    assert model.parse_question(q) == (["founder", "river"], "zorvex")


def _reply(template, slots):
    messages = render_prompt(template, slots)
    return model.respond([(m.role, m.content) for m in messages])


def test_agent_quotes_a_planted_fact_only_from_its_documents():
    fact = workloads.fact_sentence("capital", "zorvex", "quelm")
    question = "What is the capital of zorvex?"
    reply, prompt_tokens, completion_tokens = _reply(
        AGENT_ANSWER_SINGLE_HOP, {"question": question, "documents": [f"[doc:d chunk:0]\nA b. {fact}"]}
    )
    assert reply.splitlines()[-1] == f"Answer: {fact}"
    prompt = "\n".join(m.content for m in render_prompt(
        AGENT_ANSWER_SINGLE_HOP, {"question": question, "documents": [f"[doc:d chunk:0]\nA b. {fact}"]}
    ))
    assert (prompt_tokens, completion_tokens) == (len(tokenize(prompt)), len(tokenize(reply)))
    unknown, _, _ = _reply(
        AGENT_ANSWER_SINGLE_HOP,
        {"question": question, "documents": ["[doc:d chunk:0]\nThe capital of other is quelm."]},
    )
    assert unknown.endswith("Answer: I don't know.")


def test_router_keeps_the_first_response_that_knows():
    reply, _, _ = _reply(
        ROUTER_FINALIZE_SINGLE_HOP,
        {"question": "q?", "responses": ["Analysis: x\nAnswer: I don't know.",
                                         "Analysis: y\nAnswer: The a of b is c."]},
    )
    assert "Response 1 is unhelpful" in reply and "Response 2 quotes" in reply
    assert reply.endswith("Answer: The a of b is c.")


def test_planner_templates_walk_the_hops():
    query = "What is the river of the founder of zorvex?"
    split, _, _ = _reply(SPLITTER_FIRST_ROUND, {"question": query})
    assert split == "1. What is the founder of zorvex?"
    records = [QARecord("What is the founder of zorvex?", "The founder of zorvex is brin.", 1)]
    judged, _, _ = _reply(JUDGER_SPLITTER, {"query": query, "records": records})
    assert "Answerable: no" in judged and judged.endswith("1. What is the river of brin?")
    records.append(QARecord("What is the river of brin?", "The river of brin is tosk.", 2))
    judged, _, _ = _reply(JUDGER_SPLITTER, {"query": query, "records": records})
    assert "Answerable: yes" in judged and judged.endswith("Response: tosk")
    defended, _, _ = _reply(DEFENDER, {"query": query, "records": records})
    assert defended.endswith("Answer: The founder of zorvex is brin. The river of brin is tosk.")


def test_selector_rejects_repeats():
    same, _, _ = _reply(SELECTOR_PAIRWISE, {"question_1": "a?", "question_2": "a?"})
    new, _, _ = _reply(SELECTOR_PAIRWISE, {"question_1": "a?", "question_2": "b?"})
    assert same.endswith("requirements: no") and new.endswith("requirements: yes")


def test_model_answers_generated_questions_end_to_end(tmp_path):
    import run
    from ragroute.evalharness import load_eval_items, run_eval

    spec = dataclasses.replace(TINY, remote=False)
    info = workloads.generate(spec, 3, tmp_path / "data")
    cfg = workloads.write_config(spec, tmp_path / "data", tmp_path / "index", info["categories"], None)
    run.setup(cfg)
    backend, embedder = run.make_clients(cfg)
    system = run.load(cfg, backend, embedder)
    items = load_eval_items(tmp_path / "data" / "questions.jsonl")
    report = run_eval(items, system)
    outcomes = report.outcomes["with_rag"]
    assert all(o.error is None for o in outcomes)
    assert sum(o.lexical for o in outcomes) >= len(outcomes) - 1
