"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions by
module or class attribute name. A rename, a removed import or a query path
that stops calling a stage through its traced name would silently drop a
span from ``--trace``, so every name it patches must still exist and be
entered."""

from __future__ import annotations

import importlib
import json
import random
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ragroute import agent as agent_module
from ragroute.agent import Agent, AgentConfig
from ragroute.cli import SystemConfig, _load_system, build_parser, main
from ragroute.corpus import Chunk, load_chunks
from ragroute.embedding import make_embedder
from ragroute.evalharness import EvalItem, answer, run_eval
from ragroute.llm import make_chat_backend
from ragroute.retrieval import Bm25Index, DenseIndex, UnitQuery
from test_cli import catch_all_script, topic_corpus_and_agents, write_config
from test_setup_oracles import _ORACLE_TOKEN

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_attribute_exists(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    table = spans.patch_table()
    missing = [
        f"{getattr(owner, '__qualname__', owner.__name__)}.{attr}"
        for owner, attr, _, _ in table
        if attr not in vars(owner)
    ]
    assert table
    assert missing == []


@pytest.mark.parametrize(
    "method, stages",
    [
        ("dense", ["retrieve", "dense_search", "rerank"]),
        ("bm25", ["retrieve", "bm25_search", "rerank"]),
        ("mixture", ["retrieve", "dense_search", "bm25_search", "mixture_search", "rerank"]),
    ],
)
def test_select_chunks_enters_each_traced_stage_once(monkeypatch, method, stages):
    """The tracer's ``retrieval.*`` and ``agent.retrieve`` spans wrap these
    names; one ``select_chunks`` must enter each stage its method uses,
    through them, once, with the arguments the tracer's counters read."""
    rng = np.random.default_rng(3)
    ids = [f"d:{i:05d}" for i in range(30)]
    chunks = [Chunk(c, "d", f"alpha beta w{i}", 0, 3) for i, c in enumerate(ids)]
    config = AgentConfig(agent_id="a", retrieval_method=method, retrieval_depth=10, min_keep=3)
    dense = DenseIndex(rng.normal(size=(30, 8)).astype(np.float32), ids)
    bm25 = Bm25Index.build(chunks)
    agent = Agent(config, chunks, dense, bm25)
    entered = []

    def counting(owner, name):
        real = getattr(owner, name)

        def wrapper(*args, **kwargs):
            entered.append((name, args))
            return real(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counting(Agent, "retrieve")
    for name in ("dense_search", "bm25_search", "mixture_search", "rerank"):
        counting(agent_module, name)
    kept = agent.select_chunks("alpha w3?", UnitQuery(rng.normal(size=8)))
    assert [name for name, _ in entered] == stages
    args = {name: a for name, a in entered}
    if "dense_search" in args:
        assert args["dense_search"][0] is dense
    if "bm25_search" in args:
        assert args["bm25_search"][0] is bm25
        assert args["bm25_search"][1] == ["alpha", "w3", "?"]
    assert len(args["rerank"][0]) == 10
    # a Ranked is a pair: the kept rows are its first member
    assert 3 <= len(kept.rows) <= 10


def test_build_index_enters_the_bm25_build_and_the_bulk_embed_once_per_agent(
    monkeypatch, tmp_path
):
    """The tracer's ``retrieval.bm25_build_s`` and ``embedding.bulk_embed_s``
    total the set-up spans around ``Bm25Index.build`` and the embedder's
    ``embed_batch``, and it counts each embed's texts. For them to keep
    timing one agent's whole build and embed, ``build-index`` must enter
    each once per agent, the embedder with all of that agent's chunk
    texts."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rng = random.Random(7)
    words = [f"w{i}" for i in range(60)]
    corpus = [
        {"doc_id": f"{area}-{d}", "category": area,
         "body": " ".join(rng.choice(words) + rng.choice([" ", ". "]) for _ in range(size))}
        for area, docs, size in (("a0", 1, 30), ("a1", 3, 70), ("a2", 2, 45))
        for d in range(docs)
    ]
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(rec) + "\n" for rec in corpus), encoding="utf-8"
    )
    config = {
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "index_dir": str(tmp_path / "index"),
        "chunking": {"chunk_tokens": 16, "overlap_tokens": 4},
        "embedding": {"provider": "deterministic_mock", "model_name": "mock", "dim": 32},
        "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
        "agents": [{"agent_id": area, "category": area} for area in ("a0", "a1", "a2")],
    }
    (tmp_path / "config.json").write_text(json.dumps(config), encoding="utf-8")
    assert main(["ingest", "--config", str(tmp_path / "config.json")]) == 0
    sizes = [
        len(load_chunks(tmp_path / "index" / "agents" / area / "chunks.jsonl"))
        for area in ("a0", "a1", "a2")
    ]
    recorder = spans.Recorder()
    with spans.patched(recorder), recorder.scope("setup"):
        assert main(["build-index", "--config", str(tmp_path / "config.json")]) == 0
    names = [s.name for s in recorder.spans]
    assert names.count("retrieval.bm25_build") == 3
    embeds = [s for s in recorder.spans if s.name == "embedding.embed"]
    assert [s.counts["texts"] for s in embeds] == sizes
    assert len(set(sizes)) == 3 and min(sizes) > 1


def test_benchmark_counts_each_query_terms_df_without_per_posting_objects(monkeypatch, tmp_path):
    """The tracer's ``retrieval.bm25_postings_per_question`` counts, inside
    the timed ``bm25_search`` span, ``len(index.postings.get(term, ()))`` per
    query token. On a built and on a loaded index that must be the term's df,
    found without building an object per posting."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    rng = random.Random(5)
    vocab = [f"w{i}" for i in range(40)] + ["W1"]
    chunks = [
        Chunk(f"d:{i:05d}", "d", " ".join(rng.choices(vocab, k=50)), 0, 50) for i in range(2000)
    ]
    df = Counter(term for c in chunks for term in {t.lower() for t in _ORACLE_TOKEN.findall(c.text)})
    query = ["W1", "w2", "zzz", "w1", "?", "w3"]
    want = sum(df[t.lower()] for t in query)
    assert want > 5000
    built = Bm25Index.build(chunks)
    built.save(tmp_path / "bm25.json")
    loaded = Bm25Index.load(tmp_path / "bm25.json")
    for index in (built, loaded):
        span = SimpleNamespace(counts={})
        tracemalloc.start()
        try:
            spans._count_postings(span, (index, query, 10), {}, [])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert span.counts == {"postings": want}
        # a list, dict or int32 copy of one term's postings alone takes more
        assert peak < 2048


def test_the_benchmarks_loader_answers_as_the_cli_does(monkeypatch, tmp_path):
    """``perfbench/run.py``'s ``load`` reads a built index through the public
    loaders, by path, outside the CLI: an index format it does not follow
    would end every benchmark run in ``run_failed``. The system it loads
    must answer as the one ``cli._load_system`` loads."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    run = importlib.import_module("run")
    corpus, agents = topic_corpus_and_agents(4)
    router = {"max_agents": 2, "parallelism": 1}
    config = write_config(tmp_path, corpus, catch_all_script(), agents, router=router)
    for step in ("ingest", "build-index", "register"):
        assert main([step, "--config", str(config)]) == 0
    question = "topic2word0 topic2word3?"
    cfg = SystemConfig.from_file(config)
    args = build_parser().parse_args(["ask", "--config", str(config), "--question", question])
    want = answer(_load_system(cfg, args), question)
    system = run.load(config, make_chat_backend(cfg.chat), make_embedder(cfg.embedding))
    got = answer(system, question)
    assert (got.final_answer, got.selected_agent_ids) == (
        want.final_answer, want.selected_agent_ids
    )
    assert len(want.selected_agent_ids) == 2 and want.selected_agent_ids[0] == "agent2"


# Every span the tracer counts at, and the keys its counter writes.
COUNTED_KEYS = {
    "boundary.build_profile": {"m", "clusters"},
    "embedding.embed": {"texts"},
    "retrieval.dense_search": {"rows"},
    "retrieval.bm25_search": {"postings"},
    "retrieval.rerank": {"hits", "kept"},
    "router.select": {"centroids", "agents"},
    "prompts.render": {"chars"},
    "agent.answer": {"unknown"},
    "planner.run_plan": {"rounds"},
    "llm.chat": {"prompt_tokens", "completion_tokens"},
}


def test_every_counter_reads_a_real_result(monkeypatch, tmp_path):
    """Each counter in the tracer reads program attributes off a real
    argument or result (``result.rounds``, ``result.reply.is_unknown``,
    ``registry.entries``, a profile's sizes, a reply's usage). Build an
    index through the CLI and ask one single-hop and one multi-hop item the
    way the benchmark does, all under the tracer: every counted span must
    be entered and carry its keys."""
    monkeypatch.syspath_prepend(str(PERFBENCH))
    spans = importlib.import_module("spans")
    run = importlib.import_module("run")
    corpus = [
        {"doc_id": "p1", "category": "people",
         "body": "The founder of zorvex is brin. Zorvex makes lamps in the hills."},
        {"doc_id": "g1", "category": "places",
         "body": "The river of brin is tosk. Tosk runs past the old mill."},
    ]
    agents = [{"agent_id": c, "category": c} for c in ("people", "places")]
    config = write_config(tmp_path, corpus, [], agents)
    items = [
        EvalItem("What is the founder of zorvex?", ("brin",)),
        EvalItem("What is the river of the founder of zorvex?", ("tosk",), hop="multi"),
    ]
    recorder = spans.Recorder()
    with spans.patched(recorder):
        with recorder.scope("setup"):
            for step in ("ingest", "build-index", "register"):
                assert main([step, "--config", str(config)]) == 0
        system = run.load(config, *run.make_clients(config))
        with recorder.scope("query", question=0):
            report = run_eval(items, system)
    assert [(o.error, o.lexical) for o in report.outcomes["with_rag"]] == [(None, True)] * 2
    assert {name for _, _, name, count in spans.patch_table() if count} == set(COUNTED_KEYS)
    for name, keys in COUNTED_KEYS.items():
        entered = [s for s in recorder.spans if s.name == name]
        assert entered, name
        assert all(set(s.counts) == keys for s in entered), name
    (plan,) = [s for s in recorder.spans if s.name == "planner.run_plan"]
    assert plan.counts["rounds"] >= 1
