"""The benchmark command on a tiny workload: output contract and gates."""

from __future__ import annotations

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run
import workloads

ROOT = run.HERE.parent


@pytest.fixture
def tiny(monkeypatch):
    for remote in (False, True):
        name = f"tiny-{'http' if remote else 'local'}"
        spec = dataclasses.replace(
            workloads.WORKLOADS["greedy-multihop-http"], name=name, agents=3, docs_per_agent=3,
            doc_chunks=2, questions=6, remote=remote, hops=(1, 2) if remote else (1,),
        )
        monkeypatch.setitem(workloads.WORKLOADS, name, spec)
    monkeypatch.setattr(run, "MIN_QUESTIONS", 0)
    monkeypatch.setattr(run, "LOAD_SECONDS", 0.0)
    monkeypatch.chdir(ROOT)


def _run(capsys, workload, seed, trace=0):
    code = run.main(["--workload", workload, "--seed", str(seed), "--seconds", "0.2",
                     "--trace", str(trace)])
    lines = capsys.readouterr().out.strip().splitlines()
    return code, lines


def _names(kind):
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in bench[kind]}


@pytest.mark.parametrize("workload", ["tiny-local", "tiny-http"])
def test_run_prints_every_end_to_end_metric_and_repeats_its_outputs(tiny, capsys, workload):
    code, lines = _run(capsys, workload, 5)
    assert code == 0
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 6
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("end_to_end")
    assert all(v["value"] != 0 for v in result["metrics"].values())
    hashes = json.loads(lines[-2])
    code, again = _run(capsys, workload, 5)
    assert code == 0
    repeat = json.loads(again[-2])
    assert (repeat["index_sha256"], repeat["outputs_sha256"]) == (
        hashes["index_sha256"], hashes["outputs_sha256"])
    counts = ("embed_calls_per_question", "chat_calls_per_question", "tokens_per_question",
              "lexical_pct", "answerable_agent_pct", "answerable_doc_pct")
    first, second = json.loads(lines[-1])["metrics"], json.loads(again[-1])["metrics"]
    assert {k: first[k] for k in counts} == {k: second[k] for k in counts}
    assert not (ROOT / ".perfbench_run" / f"{workload}-{os.getpid()}").exists()


def _traced(capsys, workload):
    code, lines = _run(capsys, workload, 5, trace=1)
    assert code == 0
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert {k: v["unit"] for k, v in result["metrics"].items()} == _names("per_layer")
    return {k: v["value"] for k, v in result["metrics"].items()}


def test_traced_run_prints_every_layer_metric(tiny, capsys):
    remote = _traced(capsys, "tiny-http")
    assert remote["llm.http_requests_per_question"] > 0
    assert remote["planner.rounds_per_question"] > 0
    local = _traced(capsys, "tiny-local")
    assert local["llm.http_requests_per_question"] == 0
    # The query-path layers carry nearly all of an in-process single-hop
    # question, but leave out the embedding round trips and the planner of a
    # multi-hop one over HTTP.
    assert local["trace.self_sum_pct"] > 70.0
    assert remote["trace.self_sum_pct"] < local["trace.self_sum_pct"] - 20.0


def test_set_up_may_batch_its_embeddings(tiny, capsys, monkeypatch):
    from ragroute.embedding import RemoteEmbedder

    embed = RemoteEmbedder.embed_batch

    def in_halves(self, texts):  # two requests for each bulk embed, one for a query
        if len(texts) < 2:
            return embed(self, texts)
        half = len(texts) // 2
        return np.concatenate([embed(self, texts[:half]), embed(self, texts[half:])])

    monkeypatch.setattr(RemoteEmbedder, "embed_batch", in_halves)
    code, lines = _run(capsys, "tiny-http", 5)
    assert code == 0 and json.loads(lines[-1])["correct"] is True


def test_a_usage_mismatch_fails_the_run_without_numbers(tiny, capsys, monkeypatch):
    import model
    from ragroute.llm import TokenUsage

    chat = model.StandInBackend.chat

    def overcharge(self, messages):
        reply, usage = chat(self, messages)  # the call log keeps the model's usage
        return reply, usage + TokenUsage(1, 0)

    monkeypatch.setattr(model.StandInBackend, "chat", overcharge)
    code, lines = _run(capsys, "tiny-local", 5)
    assert code == 1
    result = json.loads(lines[-1])
    assert result == {"correct": False, "attempted": 1, "failed": 0, "metrics": {}}


def test_run_fails_without_the_program_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "routed-1hop", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_loop_reports_each_question_at_reference_speed(tiny, tmp_path, monkeypatch):
    from ragroute.evalharness import load_eval_items

    spec = workloads.WORKLOADS["tiny-local"]
    info = workloads.generate(spec, 3, tmp_path / "data")
    cfg = workloads.write_config(spec, tmp_path / "data", tmp_path / "index", info["categories"], None)
    run.setup(cfg)
    system = run.load(cfg, *run.make_clients(cfg))
    monkeypatch.setattr(run, "kernel_s", lambda: 2 * run.REFERENCE_S)  # a host at half speed
    loop = run.Loop(load_eval_items(tmp_path / "data" / "questions.jsonl"))
    loop.run(system, 0.3, finish=True)
    assert len(loop.times) > 1
    assert loop.scaled == [t / 2 for t in loop.times]
