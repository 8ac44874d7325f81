"""Acceptance suite: one test per release criterion, at fixed tolerances.

Run with ``pytest tests/test_acceptance.py -v`` to get one pass/fail line per
criterion. Criteria cover: clustering and routing oracle equivalence, scale
invariance, synthetic routing quality, scripted end-to-end transcript replay,
exact token accounting, chunking conformance, plan termination, and golden
prompt templates.
"""

from __future__ import annotations

import json
import random
import time
from pathlib import Path

import numpy as np
import pytest

import transcripts
from test_boundary import (
    all_partitions,
    max_intra_distance,
    naive_complete_linkage,
    separable_embeddings,
)
from test_cli import build_lifecycle, wd_agents, write_config
from test_corpus import make_doc, oracle_windows
from test_evalharness import catch_all_backend, eight_topic_system
from test_router import random_registry, selection_oracle

from ragroute.boundary import cluster_indices
from ragroute.cli import main
from ragroute.corpus import ChunkingConfig, chunk_document
from ragroute.evalharness import AGENTS_ALL, EvalItem, run_eval
from ragroute.llm import ScriptedChatBackend, ScriptEntry, TokenUsage
from ragroute.planner import EXHAUSTED, run_plan
from ragroute.prompts import TEMPLATES
from ragroute.retrieval import UnitQuery
from ragroute.router import select_agents

GOLDEN_DIR = Path(__file__).parent / "golden"


def _report(criterion: str, detail: str) -> None:
    print(f"ACCEPTANCE PASS {criterion}: {detail}")


# -- criterion 1 ---------------------------------------------------------------

def test_c1_clustering_oracle_equivalence(mock_embedder):
    started = time.perf_counter()
    rng = np.random.default_rng(20240501)
    for _ in range(200):
        m = int(rng.integers(2, 9))
        n = int(rng.integers(1, m + 1))
        vectors = rng.normal(size=(m, 6))
        assert cluster_indices(vectors, n) == naive_complete_linkage(vectors, n)

    # brute-force optimum on the separable mock-embedding family, m <= 6, n <= 3
    seed_rng = random.Random(77)
    for _ in range(40):
        n_groups = seed_rng.randint(1, 3)
        sizes = [seed_rng.randint(1, 3) for _ in range(n_groups)]
        while sum(sizes) > 6:
            sizes[sizes.index(max(sizes))] -= 1
        matrix, _ = separable_embeddings(seed_rng, sizes, mock_embedder)
        partition = cluster_indices(matrix, n_groups)
        optimum = min(
            max_intra_distance(p, matrix)
            for p in all_partitions(list(range(len(matrix))), n_groups)
        )
        assert max_intra_distance(partition, matrix) == optimum

    elapsed = time.perf_counter() - started
    assert elapsed < 30.0
    _report("criterion 1", f"clustering matches oracles exactly in {elapsed:.1f}s")


# -- criterion 2 ---------------------------------------------------------------

def test_c2_routing_oracle_equivalence():
    started = time.perf_counter()
    rng = np.random.default_rng(20240502)
    for _ in range(1000):
        registry = random_registry(rng, int(rng.integers(1, 21)), 10)
        query = rng.normal(size=8)
        max_agents = int(rng.integers(1, 8))
        assert select_agents(registry, UnitQuery(query), max_agents) == selection_oracle(
            registry, query, max_agents
        )
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    _report("criterion 2", f"1000 registries match the exhaustive oracle in {elapsed:.1f}s")


# -- criterion 3 ---------------------------------------------------------------

def test_c3_selection_scale_invariance():
    rng = np.random.default_rng(20240503)
    registry = random_registry(rng, 15, 6)
    checked = 0
    for _ in range(500):
        query = rng.normal(size=8)
        base = select_agents(registry, UnitQuery(query), 5)
        for s in (0.01, 1.0, 100.0):
            assert select_agents(registry, UnitQuery(s * query), 5) == base
        checked += 1
    assert checked == 500
    _report("criterion 3", "selection invariant under query scaling on 500 queries")


# -- criterion 4 ---------------------------------------------------------------

def _topic_items_with_control() -> list[EvalItem]:
    items = []
    for topic in range(8):
        if topic == 6:
            # partially-overlapping control: heavy decoy vocabulary from
            # topic 2 plus one target token from topic 6
            question = "topic2word0 topic2word1 topic2word2 topic6word0?"
        else:
            question = f"topic{topic}word0 topic{topic}word3?"
        items.append(
            EvalItem(
                question=question,
                answers=("whatever",),
                target_doc_ids=frozenset({f"doc-t{topic}"}),
                target_agent_ids=frozenset({f"agent{topic}"}),
            )
        )
    return items


def test_c4_synthetic_answerable_rates(mock_embedder):
    items = _topic_items_with_control()
    five = run_eval(items, eight_topic_system(mock_embedder, catch_all_backend(), max_agents=5))
    one = run_eval(items, eight_topic_system(mock_embedder, catch_all_backend(), max_agents=1))
    rate_five = five.mode_reports["with_rag"]["answerable_agent_pct"]
    rate_one = one.mode_reports["with_rag"]["answerable_agent_pct"]
    assert rate_five == 100.0
    assert rate_one >= 87.5
    assert rate_five > rate_one
    _report(
        "criterion 4",
        f"agent-level answerable rate {rate_five:.2f}% @5 agents vs {rate_one:.2f}% @1",
    )


# -- criterion 5 ---------------------------------------------------------------

def test_c5_transcript_replay_via_cli(tmp_path, capsys):
    started = time.perf_counter()

    config = write_config(tmp_path / "single", transcripts.WD_CORPUS, transcripts.WD_SCRIPT,
                          wd_agents())
    build_lifecycle(config)
    capsys.readouterr()
    code = main(["ask", "--config", str(config), "--question", transcripts.WD_QUESTION,
                 "--trace", str(tmp_path / "single" / "trace.json")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == transcripts.WD_EXPECTED
    trace = json.loads((tmp_path / "single" / "trace.json").read_text())
    assert trace["verdicts"]["a2"] == "good_reliable"
    assert trace["verdicts"]["a4"] == "good_reliable"
    assert trace["verdicts"]["a1"] == "unhelpful"
    assert trace["verdicts"]["a3"] == "unhelpful"
    assert trace["verdicts"]["a5"] == "unhelpful"

    config = write_config(
        tmp_path / "multi", transcripts.NR_CORPUS, transcripts.NR_SCRIPT,
        [{"agent_id": "tech", "category": "technology", "retrieval_depth": 50, "min_keep": 10}],
    )
    build_lifecycle(config)
    capsys.readouterr()
    code = main(["ask", "--config", str(config), "--question", transcripts.NR_QUERY,
                 "--multihop", "--strategy", "greedy",
                 "--trace", str(tmp_path / "multi" / "trace.json")])
    assert code == 0
    assert capsys.readouterr().out.splitlines()[-1] == transcripts.NR_EXPECTED
    trace = json.loads((tmp_path / "multi" / "trace.json").read_text())
    assert len(trace["rounds"]) == 2

    elapsed = time.perf_counter() - started
    assert elapsed < 5.0
    _report("criterion 5", f"both transcripts replay verbatim in {elapsed:.2f}s")


# -- criterion 6 ---------------------------------------------------------------

def test_c6_token_accounting_exactness(mock_embedder):
    items = _topic_items_with_control()

    # per-item exactness: each item runs against a fresh backend so the call
    # log is exactly that item's calls
    for item in items:
        backend = catch_all_backend()
        system = eight_topic_system(mock_embedder, backend, max_agents=5)
        report = run_eval([item], system)
        outcome = report.outcomes["with_rag"][0]
        assert outcome.error is None
        logged = sum((c.usage for c in backend.calls), TokenUsage())
        assert outcome.usage == logged  # zero tolerance, integer equality

    selected = run_eval(
        items, eight_topic_system(mock_embedder, catch_all_backend(), agent_mode="selected")
    )
    everyone = run_eval(
        items, eight_topic_system(mock_embedder, catch_all_backend(), agent_mode=AGENTS_ALL)
    )
    sel_tokens = selected.mode_reports["with_rag"]["tokens_per_query"]
    all_tokens = everyone.mode_reports["with_rag"]["tokens_per_query"]
    assert all_tokens > sel_tokens
    _report(
        "criterion 6",
        f"usage exact per item; all-agents {all_tokens:.0f} > selected {sel_tokens:.0f} tokens/query",
    )


# -- criterion 7 ---------------------------------------------------------------

@pytest.mark.parametrize("cfg", [ChunkingConfig(1024, 40), ChunkingConfig(256, 20)],
                         ids=["1024/40", "256/20"])
def test_c7_chunking_conformance(cfg):
    rng = random.Random(20240507)
    for _ in range(1000):
        total = rng.randint(1, 10_000)
        got = [
            (c.token_start, c.token_start + c.token_len)
            for c in chunk_document(make_doc(total), cfg)
        ]
        assert got == oracle_windows(total, cfg)
    _report("criterion 7", f"1000 random lengths match the window oracle for {cfg}")


# -- criterion 8 ---------------------------------------------------------------

def test_c8_plan_termination_bound(mock_embedder):
    from conftest import make_agents, system_of

    rng = random.Random(20240508)
    for case in range(100):
        max_rounds = rng.randint(1, 5)
        entries = [
            ScriptEntry("break the question into", f"1. Seed question {case}?"),
            ScriptEntry("assess whether Question 2",
                        "Explanation: fresh.\nMeets both requirements: yes", repeat=True),
            ScriptEntry("collection of knowledge",
                        "Analysis: n/a\nAnswer: I don't know.", repeat=True),
            ScriptEntry("set of respoonses",
                        "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\n"
                        "Answer: I don't know.", repeat=True),
        ]
        for r in range(max_rounds):
            n_new = rng.randint(1, 3)
            numbered = "\n".join(f"{i + 1}. Fresh question {case}-{r}-{i}?" for i in range(n_new))
            entries.append(
                ScriptEntry("justify if the query",
                            f"Justification: missing facts.\nAnswerable: no\nResponse: {numbered}")
            )
        entries.append(
            ScriptEntry("If you need more information",
                        "Analysis: rounds exhausted.\nAnswer: Insufficient information.")
        )
        backend = ScriptedChatBackend(entries)
        agents, registry = make_agents(
            [{"doc_id": "d", "category": "c", "body": f"seed question {case} fresh words"}],
            ["a"], ["c"], mock_embedder,
        )
        system = system_of(
            agents, registry, backend, mock_embedder, strategy="greedy", max_rounds=max_rounds
        )
        result = run_plan(system, f"never answerable {case}?")
        assert len(result.rounds) <= max_rounds
        assert result.status == EXHAUSTED
        assert result.final_answer == "Insufficient information."
    _report("criterion 8", "100 never-answerable plans stay within bounds and defend")


# -- criterion 9 ---------------------------------------------------------------

def test_c9_golden_prompt_templates():
    mismatches = []
    for template_id, text in sorted(TEMPLATES.items()):
        golden = (GOLDEN_DIR / f"{template_id}.txt").read_text(encoding="utf-8")
        if text + "\n" != golden:
            mismatches.append(template_id)
    assert mismatches == []
    assert len(TEMPLATES) == 11
    _report("criterion 9", f"all {len(TEMPLATES)} templates byte-match their golden files")
