"""The benchmark's tracer (``perfbench/spans.py``) wraps program functions by
module or class attribute name. A rename, a removed import or a query path
that stops calling a stage through its traced name would silently drop a
span from ``--trace``, so every name it patches must still exist and be
entered."""

from __future__ import annotations

import importlib
import random
import tracemalloc
from collections import Counter
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from ragroute import agent as agent_module
from ragroute.agent import Agent, AgentConfig
from ragroute.corpus import Chunk, tokenize
from ragroute.retrieval import Bm25Index, DenseIndex, RetrievalHit

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
    agent = Agent(config, chunks, dense, bm25, None, None)
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
    kept = agent.select_chunks("alpha w3?", rng.normal(size=8))
    assert [name for name, _ in entered] == stages
    args = {name: a for name, a in entered}
    if "dense_search" in args:
        assert args["dense_search"][0] is dense
    if "bm25_search" in args:
        assert args["bm25_search"][0] is bm25
        assert args["bm25_search"][1] == ["alpha", "w3", "?"]
    assert len(args["rerank"][0]) == 10
    assert 3 <= len(kept) <= 10


def test_retrieval_hit_is_an_immutable_record_with_an_unchanged_repr():
    hit = RetrievalHit(chunk_id="d:00001", score=0.25, rank=1, method="mixture")
    assert repr(hit) == "RetrievalHit(chunk_id='d:00001', score=0.25, rank=1, method='mixture')"
    with pytest.raises(AttributeError):
        hit.rank = 2


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
    df = Counter(term for c in chunks for term in {t.lower() for t in tokenize(c.text)})
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
