"""Span recorder and the patches that put spans around each layer.

The recorder keeps nested spans in memory: name, start, end, parent, the
question they belong to and the phase (set-up, load, query), plus counts
taken at the same boundary. ``contextvars`` carries the current span, so a
span opened inside another becomes its child.

The program binds most layer functions with ``from ... import``, so each
function is patched where it is looked up (``ragroute.agent.dense_search``,
not only ``ragroute.retrieval.dense_search``). ``patched`` restores every
attribute it replaced, byte-for-byte the same object, when it exits.
"""

from __future__ import annotations

import contextlib
import contextvars
import functools
import statistics
import time
from dataclasses import dataclass, field


@dataclass
class Span:
    name: str
    span_id: int
    parent: int | None
    question: int | None
    phase: str
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    @property
    def duration(self) -> float:
        return self.end - self.start


class Recorder:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._parent: contextvars.ContextVar[Span | None] = contextvars.ContextVar("span", default=None)
        self._question: contextvars.ContextVar[int | None] = contextvars.ContextVar("question", default=None)
        self._phase: contextvars.ContextVar[str] = contextvars.ContextVar("phase", default="")

    @contextlib.contextmanager
    def scope(self, phase: str, question: int | None = None):
        """Tag spans opened inside with a phase and, for queries, a question id."""
        phase_token = self._phase.set(phase)
        question_token = self._question.set(question)
        try:
            yield
        finally:
            self._question.reset(question_token)
            self._phase.reset(phase_token)

    @contextlib.contextmanager
    def span(self, name: str):
        parent = self._parent.get()
        span = Span(
            name=name,
            span_id=len(self.spans),
            parent=parent.span_id if parent else None,
            question=self._question.get(),
            phase=self._phase.get(),
            start=time.perf_counter(),
        )
        self.spans.append(span)
        token = self._parent.set(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            self._parent.reset(token)


def self_times(spans: list[Span]) -> dict[int, float]:
    """span_id -> duration minus the part of it that child spans cover."""
    children: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append(s)
    out = {}
    for s in spans:
        covered, cursor = 0.0, s.start
        for c in sorted(children.get(s.span_id, []), key=lambda c: c.start):
            lo, hi = max(c.start, cursor), min(c.end, s.end)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        out[s.span_id] = s.duration - covered
    return out


# --- counters taken at span boundaries -------------------------------------


def _count_rows(span, args, kwargs, result):
    span.counts["rows"] = len(args[0])


def _count_postings(span, args, kwargs, result):
    index, tokens = args[0], args[1]
    span.counts["postings"] = sum(len(index.postings.get(t.lower(), ())) for t in tokens)


def _count_rerank(span, args, kwargs, result):
    span.counts["hits"] = len(args[0])
    span.counts["kept"] = len(result)


def _count_select(span, args, kwargs, result):
    span.counts["centroids"] = len(args[0].entries)
    span.counts["agents"] = len(result)


def _count_render(span, args, kwargs, result):
    span.counts["chars"] = sum(len(m.content) for m in result)


def _count_chat(span, args, kwargs, result):
    span.counts["prompt_tokens"] = result[1].prompt_tokens
    span.counts["completion_tokens"] = result[1].completion_tokens


def _count_embed(span, args, kwargs, result):
    span.counts["texts"] = len(args[1])


def _count_answer(span, args, kwargs, result):
    span.counts["unknown"] = int(result.reply.is_unknown)


def _count_profile(span, args, kwargs, result):
    span.counts["m"] = result.num_chunks
    span.counts["clusters"] = result.num_clusters


def _count_rounds(span, args, kwargs, result):
    span.counts["rounds"] = len(result.rounds)


def patch_table():
    """(owner, attribute, span name, counter) for every traced boundary."""
    from ragroute import agent, boundary, cli, corpus, embedding, evalharness, llm, planner
    from ragroute import retrieval, router

    import model

    table = [
        # set-up commands and the builders/loaders they call
        (cli, "cmd_ingest", "cli.ingest", None),
        (cli, "cmd_build_index", "cli.build_index", None),
        (cli, "cmd_register", "cli.register", None),
        (cli, "load_corpus", "corpus.load_corpus", None),
        (cli, "chunk_document", "corpus.chunk", None),
        (cli, "save_chunks", "corpus.save_chunks", None),
        (cli, "load_chunks", "corpus.load_chunks", None),
        (corpus, "load_chunks", "corpus.load_chunks", None),
        (cli, "build_profile", "boundary.build_profile", _count_profile),
        (cli, "save_profile", "boundary.save_profile", None),
        (retrieval.Bm25Index, "build", "retrieval.bm25_build", None),
        (retrieval.Bm25Index, "save", "retrieval.bm25_save", None),
        (retrieval.Bm25Index, "load", "retrieval.bm25_load", None),
        (retrieval.DenseIndex, "load", "retrieval.dense_load", None),
        (router.RouterRegistry, "load", "router.registry_load", None),
        (router.RouterRegistry, "save", "router.registry_save", None),
        # agent: retrieve, rerank, generate
        (agent.Agent, "answer_question", "agent.answer", _count_answer),
        (agent.Agent, "retrieve", "agent.retrieve", None),
        (agent, "dense_search", "retrieval.dense_search", _count_rows),
        (agent, "bm25_search", "retrieval.bm25_search", _count_postings),
        (agent, "mixture_search", "retrieval.fuse", None),
        (agent, "rerank", "retrieval.rerank", _count_rerank),
        (agent, "render_prompt", "prompts.render", _count_render),
        (agent, "parse_agent_reply", "llm.parse", None),
        # router: select, curate
        (router, "select_agents", "router.select", _count_select),
        (router, "evaluate_and_curate", "router.curate", None),
        (router, "rerank", "retrieval.rerank", _count_rerank),
        (router, "render_prompt", "prompts.render", _count_render),
        (router, "_split_router_sections", "llm.parse", None),
        # planner
        (planner, "route_and_answer", "router.route", None),
        (planner, "split_first_round", "planner.split", None),
        (planner, "judge_and_split", "planner.judge", None),
        (planner, "select_subquestion", "planner.select", None),
        (planner, "_pairwise_ok", "planner.pairwise", None),
        (planner, "polish_query", "planner.polish", None),
        (planner, "defend", "planner.defend", None),
        (planner, "render_prompt", "prompts.render", _count_render),
        (planner, "parse_judgment", "llm.parse", None),
        (planner, "extract_numbered_questions", "llm.parse", None),
        (planner, "parse_agent_reply", "llm.parse", None),
        # eval harness
        (evalharness, "run_eval", "evalharness.run_eval", None),
        (evalharness, "route_and_answer", "router.route", None),
        (evalharness, "run_plan", "planner.run_plan", _count_rounds),
        # embedder and chat backend classes
        (embedding.MockEmbedder, "embed_batch", "embedding.embed", _count_embed),
        (embedding.RemoteEmbedder, "embed_batch", "embedding.embed", _count_embed),
        (llm.RemoteChatBackend, "chat", "llm.chat", _count_chat),
        (model.StandInBackend, "chat", "llm.chat", _count_chat),
    ]
    # vector files are read and written from four modules
    for module in (cli, router, retrieval, boundary):
        table.append((module, "save_vectors", "embedding.save_vectors", None))
        table.append((module, "load_vectors", "embedding.load_vectors", None))
    return table


def _wrap(recorder: Recorder, name: str, fn, count):
    @functools.wraps(fn)
    def traced(*args, **kwargs):
        with recorder.span(name) as span:
            result = fn(*args, **kwargs)
            if count is not None:
                count(span, args, kwargs, result)
            return result

    return traced


@contextlib.contextmanager
def patched(recorder: Recorder):
    """Replace every traced attribute for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, count in patch_table():
            raw = vars(owner)[attr]
            if isinstance(raw, classmethod):
                new = classmethod(_wrap(recorder, name, raw.__func__, count))
            else:
                new = _wrap(recorder, name, raw, count)
            saved.append((owner, attr, raw))
            setattr(owner, attr, new)
        yield
    finally:
        for owner, attr, raw in reversed(saved):
            setattr(owner, attr, raw)


# --- per-layer metrics -------------------------------------------------------


def _p50_ms(values: list[float]) -> float:
    return statistics.median(values) * 1000.0 if values else 0.0


def layer_metrics(recorder: Recorder, questions: list[int]) -> tuple[dict, dict[str, float]]:
    """Per-layer metrics over the set-up, load and query spans, and each
    layer's total self time (seconds) over the given questions."""
    spans = recorder.spans
    own = self_times(spans)
    n = max(len(questions), 1)

    def named(name, phase="query"):
        return [s for s in spans if s.name == name and s.phase == phase]

    def total_s(name, phase):
        return sum(s.duration for s in named(name, phase))

    def count(name, key, phase="query"):
        return sum(s.counts.get(key, 0) for s in named(name, phase))

    def durations(name):
        return [s.duration for s in named(name)]

    layer_self: dict[str, dict[int, float]] = {}
    for s in spans:
        if s.phase == "query":
            per_q = layer_self.setdefault(s.layer, {})
            per_q[s.question] = per_q.get(s.question, 0.0) + own[s.span_id]

    def self_p50(layer):
        per_q = layer_self.get(layer, {})
        return _p50_ms([per_q.get(q, 0.0) for q in questions]) if per_q else 0.0

    profiles = named("boundary.build_profile", "setup")
    reranks = named("retrieval.rerank")
    answers = named("agent.answer")
    curates = named("router.curate")
    curate_ids = {s.span_id for s in curates}
    plan_ids = {s.span_id for s in named("planner.run_plan")}
    chats = named("llm.chat")
    metrics = {
        "corpus.chunk_s": total_s("corpus.chunk", "setup"),
        "corpus.load_chunks_s": total_s("corpus.load_chunks", "load"),
        "embedding.bulk_embed_s": total_s("embedding.embed", "setup"),
        "embedding.query_embed_calls_per_question": len(durations("embedding.embed")) / n,
        "embedding.query_embed_ms_p50": _p50_ms(durations("embedding.embed")),
        "embedding.save_vectors_s": total_s("embedding.save_vectors", "setup"),
        "embedding.load_vectors_s": total_s("embedding.load_vectors", "load"),
        "retrieval.dense_search_ms_p50": _p50_ms(durations("retrieval.dense_search")),
        "retrieval.dense_rows_per_question": count("retrieval.dense_search", "rows") / n,
        "retrieval.bm25_search_ms_p50": _p50_ms(durations("retrieval.bm25_search")),
        "retrieval.bm25_postings_per_question": count("retrieval.bm25_search", "postings") / n,
        "retrieval.fuse_ms_p50": _p50_ms(durations("retrieval.fuse")),
        "retrieval.rerank_ms_p50": _p50_ms(durations("retrieval.rerank")),
        "retrieval.rerank_kept_ratio": (
            sum(s.counts["kept"] for s in reranks) / max(sum(s.counts["hits"] for s in reranks), 1)
        ),
        "retrieval.bm25_build_s": total_s("retrieval.bm25_build", "setup"),
        "retrieval.bm25_load_s": total_s("retrieval.bm25_load", "load"),
        "boundary.cluster_s": sum(s.duration for s in profiles),
        "boundary.cluster_s_max": max((s.duration for s in profiles), default=0.0),
        "boundary.cluster_m_max": max((s.counts["m"] for s in profiles), default=0),
        "boundary.centroids": sum(s.counts["clusters"] for s in profiles),
        "router.select_ms_p50": _p50_ms(durations("router.select")),
        "router.centroids_per_question": count("router.select", "centroids") / n,
        "router.curate_ms_p50": _p50_ms(durations("router.curate")),
        "router.curate_chat_calls_per_call": (
            sum(1 for s in chats if s.parent in curate_ids) / max(len(curates), 1)
        ),
        "router.agents_per_question": count("router.select", "agents") / n,
        "router.self_ms_p50": self_p50("router"),
        "router.registry_load_s": total_s("router.registry_load", "load"),
        "agent.answer_ms_p50": _p50_ms(durations("agent.answer")),
        "agent.retrieve_ms_p50": _p50_ms(durations("agent.retrieve")),
        "agent.self_ms_p50": self_p50("agent"),
        "agent.unknown_pct": 100.0 * sum(s.counts["unknown"] for s in answers) / max(len(answers), 1),
        "llm.chat_ms_p50": _p50_ms(durations("llm.chat")),
        "llm.prompt_tokens_per_question": count("llm.chat", "prompt_tokens") / n,
        "llm.completion_tokens_per_question": count("llm.chat", "completion_tokens") / n,
        "llm.parse_ms_p50": _p50_ms(durations("llm.parse")),
        "prompts.render_ms_p50": _p50_ms(durations("prompts.render")),
        "prompts.render_calls_per_question": len(durations("prompts.render")) / n,
        "prompts.prompt_kchars_per_question": count("prompts.render", "chars") / n / 1000.0,
        "planner.rounds_per_question": count("planner.run_plan", "rounds") / n,
        "planner.route_calls_per_question": (
            sum(1 for s in named("router.route") if s.parent in plan_ids) / n
        ),
        "planner.pairwise_calls_per_question": len(durations("planner.pairwise")) / n,
        "planner.plan_ms_p50": _p50_ms(durations("planner.run_plan")),
        "planner.self_ms_p50": self_p50("planner"),
        "planner.split_ms_p50": _p50_ms(durations("planner.split")),
        "planner.judge_ms_p50": _p50_ms(durations("planner.judge")),
        "planner.defend_ms_p50": _p50_ms(durations("planner.defend")),
        "evalharness.item_ms_p50": _p50_ms(durations("evalharness.run_eval")),
        "evalharness.self_ms_p50": self_p50("evalharness"),
        "cli.ingest_s": total_s("cli.ingest", "setup"),
        "cli.build_index_s": total_s("cli.build_index", "setup"),
        "cli.register_s": total_s("cli.register", "setup"),
    }
    self_by_layer = {
        layer: sum(per_q.get(q, 0.0) for q in questions) for layer, per_q in layer_self.items()
    }
    return metrics, self_by_layer
