"""Operator CLI: ingest, build-index, register, ask, eval, inspect.

One JSON config document drives every command; secrets only ever come from
environment variables named in that config. Exit codes: 0 success, 1 partial
item failures, 2 for every ``InputError`` (a config, input line, index file,
registry or endpoint reply that is not what the program needs) or
``OSError``. Index, profile, and registry files are deterministic functions
of their inputs, so re-running a command with unchanged inputs rewrites
byte-identical artifacts.
"""

from __future__ import annotations

import argparse
import json
import sys
from dataclasses import asdict, dataclass, replace
from pathlib import Path

import numpy as np

from .agent import Agent, AgentConfig
from .boundary import build_profile, save_profile
from .corpus import (
    DEFAULT_CHUNKING,
    Chunk,
    ChunkingConfig,
    TokenizedTexts,
    chunk_document,
    load_chunks,
    load_corpus,
    require_utf8,
    save_chunks,
    tokenize,
)
from .embedding import EmbeddingProviderConfig, make_embedder
from .evalharness import (
    AGENTS_ALL,
    AGENTS_RAW_KNOWLEDGE,
    AGENTS_SELECTED,
    MULTI,
    SINGLE,
    EvalSystem,
    answer,
    load_eval_items,
    run_eval,
)
from .llm import ChatBackendConfig, Metered, make_chat_backend
from .planner import PlanResult, PlanStrategy
from .prompts import TEMPLATES
from .retrieval import Bm25Index, DenseIndex
from .router import RouterRegistry, UnusableCentroidError
# load_vectors is unused here; perfbench/spans.py traces it by name on this module.
from .store import IndexFileError, InputError, load_vectors, read_json, require_int, save_vectors
from .store import write_atomic, write_json

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2

_STRATEGY_BY_FLAG = {
    "oneshot": PlanStrategy.ONE_SHOT,
    "presplit": PlanStrategy.PRESPLIT,
    "greedy": PlanStrategy.GREEDY,
}


class ConfigError(InputError):
    pass


def _count(name: str, value: int, error: type[Exception] = ConfigError) -> int:
    """``value``; TypeError naming ``name`` when it is not an int (a bool is
    not), ``error`` (ConfigError unless given) when it is below 1."""
    if require_int(name, value) < 1:
        raise error(f"{name} must be >= 1")
    return value


@dataclass
class SystemConfig:
    corpus_path: Path
    index_dir: Path
    chunking: ChunkingConfig
    embedding: EmbeddingProviderConfig
    chat: ChatBackendConfig
    agents: list[AgentConfig]
    max_agents: int = 5
    parallelism: int = 1
    strategy: PlanStrategy = PlanStrategy.GREEDY
    max_rounds: int = 5

    @classmethod
    def from_file(cls, path: str | Path) -> "SystemConfig":
        """The config in ``path``. ConfigError names the file when it is not
        UTF-8 JSON, a field is missing or of the wrong type or value (a
        count below 1 too), or an agent_id repeats."""
        return read_json(path, cls._parse, ConfigError)

    @classmethod
    def _parse(cls, raw) -> "SystemConfig":
        if not isinstance(raw, dict):
            raise TypeError(f"config must be a JSON object, not {type(raw).__name__}")
        chunking = ChunkingConfig(**raw["chunking"]) if "chunking" in raw else DEFAULT_CHUNKING
        embedding = EmbeddingProviderConfig(**raw["embedding"])
        chat = ChatBackendConfig(**raw["chat"])
        agent_cfgs = []
        for rec in raw["agents"]:
            rec = dict(rec)
            own = rec.pop("chunking", None)
            rec["chunking"] = chunking if own is None else ChunkingConfig(**own)
            agent_cfgs.append(AgentConfig(**rec))
        ids = [a.agent_id for a in agent_cfgs]
        if len(ids) != len(set(ids)):
            raise ValueError("agent_ids must be unique")
        router_cfg = raw.get("router", {})
        planner_cfg = raw.get("planner", {})
        return cls(
            corpus_path=Path(raw["corpus_path"]),
            index_dir=Path(raw["index_dir"]),
            chunking=chunking,
            embedding=embedding,
            chat=chat,
            agents=agent_cfgs,
            # an absent key keeps the dataclass default
            max_agents=_count(
                "router.max_agents", router_cfg.get("max_agents", cls.max_agents), ValueError
            ),
            parallelism=_count(
                "router.parallelism", router_cfg.get("parallelism", cls.parallelism), ValueError
            ),
            strategy=PlanStrategy(planner_cfg.get("strategy", cls.strategy)),
            max_rounds=_count(
                "planner.max_rounds", planner_cfg.get("max_rounds", cls.max_rounds), ValueError
            ),
        )

    def agent_dir(self, agent_id: str) -> Path:
        return self.index_dir / "agents" / agent_id

    def registry_json(self) -> Path:
        return self.index_dir / "registry.json"

    def registry_vectors(self) -> Path:
        return self.index_dir / "registry_vectors"


def _fail(command: str, message: str, code: int = EXIT_CONFIG) -> int:
    print(json.dumps({"command": command, "error": message}, sort_keys=True), file=sys.stderr)
    return code


def _select_agent_cfgs(cfg: SystemConfig, agent_id: str | None) -> list[AgentConfig]:
    if agent_id is None:
        return cfg.agents
    matches = [a for a in cfg.agents if a.agent_id == agent_id]
    if not matches:
        raise ConfigError(f"unknown agent {agent_id!r}")
    return matches


def cmd_ingest(cfg: SystemConfig, args: argparse.Namespace) -> int:
    if args.corpus:
        cfg.corpus_path = Path(args.corpus)
    flags = {"chunk_tokens": args.chunk_tokens, "overlap_tokens": args.overlap_tokens}
    overrides = {name: value for name, value in flags.items() if value is not None}
    if overrides:
        try:
            cfg.chunking = replace(cfg.chunking, **overrides)
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
        cfg.agents = [replace(a, chunking=cfg.chunking) for a in cfg.agents]
    if not cfg.corpus_path.exists():
        raise ConfigError(f"corpus path does not exist: {cfg.corpus_path}")
    docs, record_errors = load_corpus(cfg.corpus_path)
    by_category: dict[str, list] = {}
    for doc in docs:
        by_category.setdefault(doc.category, []).append(doc)
    known_categories = {a.category or a.agent_id for a in cfg.agents}
    unassigned = sorted(c for c in by_category if c not in known_categories)
    total_chunks = 0
    for agent_cfg in _select_agent_cfgs(cfg, args.agent):
        category = agent_cfg.category or agent_cfg.agent_id
        chunks = []
        for doc in by_category.get(category, []):
            chunks.extend(chunk_document(doc, agent_cfg.chunking))
        # chunk_id order is the one row order of the agent's files
        chunks.sort(key=lambda c: c.chunk_id)
        save_chunks(cfg.agent_dir(agent_cfg.agent_id) / "chunks.jsonl", chunks)
        total_chunks += len(chunks)
    summary = {
        "documents": len(docs),
        "chunks": total_chunks,
        "record_errors": [{"line": e.line_no, "reason": e.reason} for e in record_errors],
        "unassigned_categories": unassigned,
    }
    print(json.dumps(summary, sort_keys=True))
    if record_errors or unassigned:
        message = f"{len(record_errors)} record errors, {len(unassigned)} unassigned categories"
        return _fail("ingest", f"{cfg.corpus_path}: {message}", EXIT_PARTIAL)
    return EXIT_OK


def cmd_build_index(cfg: SystemConfig, args: argparse.Namespace) -> int:
    embedder = make_embedder(cfg.embedding)
    for agent_cfg in _select_agent_cfgs(cfg, args.agent):
        adir = cfg.agent_dir(agent_cfg.agent_id)
        chunks_path = adir / "chunks.jsonl"
        if not chunks_path.exists():
            raise ConfigError(f"no chunks for agent {agent_cfg.agent_id}: run ingest first")
        _build_agent_index(adir, load_chunks(chunks_path), embedder)
    return EXIT_OK


def _build_agent_index(adir: Path, chunks: list[Chunk], embedder) -> None:
    """Write one agent's vectors and BM25 index. The chunk texts are read
    once, into one ``corpus.TermTable`` (each distinct whitespace piece
    tokenized once, no string per token), which both the BM25 build and the
    mock embedder count from; a remote embedder is posted the texts. The
    table is freed on return, before the next agent's chunks are read.
    IndexFileError names ``chunks.jsonl`` and its first chunk_id that is not
    above the one before it."""
    texts = TokenizedTexts(c.text for c in chunks)
    try:
        bm25 = Bm25Index.build(chunks, texts.table)
    except ValueError as exc:
        raise IndexFileError(f"{adir / 'chunks.jsonl'}: {exc}") from exc
    if chunks:
        matrix = embedder.embed_batch(texts)
    else:
        matrix = np.zeros((0, embedder.dim), dtype=np.float32)
    save_vectors(adir / "vectors", matrix, [c.chunk_id for c in chunks])
    bm25.save(adir / "bm25.json")


def cmd_register(cfg: SystemConfig, args: argparse.Namespace) -> int:
    """Cluster each selected agent and save one registry of the centroids.
    A full register holds only these; ``--agent`` also keeps the saved
    centroids of the other agents that the config still lists."""
    centroids: dict[str, np.ndarray] = {}
    registry_path = cfg.registry_json()
    if args.agent is not None and registry_path.exists():
        saved = RouterRegistry.load(registry_path, cfg.registry_vectors())
        kept = {a.agent_id for a in cfg.agents} - {args.agent}
        centroids = {a: saved.centroids_of(a) for a in saved.agent_ids if a in kept}
        if centroids:
            _check_dim(cfg, registry_path, saved.dim)
    for agent_cfg in _select_agent_cfgs(cfg, args.agent):
        adir = cfg.agent_dir(agent_cfg.agent_id)
        if not (adir / "vectors.manifest.json").exists():
            raise ConfigError(f"no index for agent {agent_cfg.agent_id}: run build-index first")
        dense = DenseIndex.load(adir / "vectors")
        _check_dim(cfg, adir / "vectors.manifest.json", dense.dim)
        if not dense.chunk_ids:
            (adir / "profile.json").unlink(missing_ok=True)
            continue
        profile = build_profile(agent_cfg.agent_id, dense.chunk_ids, dense.rows)
        save_profile(profile, adir / "profile.json")
        centroids[agent_cfg.agent_id] = profile.centroids
    order = sorted(centroids)
    try:
        registry = RouterRegistry(
            [a for a in order for _ in range(len(centroids[a]))],
            np.concatenate([centroids[a] for a in order]) if order else None,
        )
    except UnusableCentroidError as exc:
        raise InputError(f"{cfg.agent_dir(exc.agent_id) / 'vectors.bin'}: {exc}") from None
    registry.save(registry_path, cfg.registry_vectors())
    print(
        json.dumps(
            {"agents": registry.agent_count, "centroids": len(registry.entries)}, sort_keys=True
        )
    )
    return EXIT_OK


def _check_dim(cfg: SystemConfig, manifest: Path, dim: int) -> None:
    """InputError naming ``manifest`` unless its vectors are of the configured ``embedding.dim``."""
    if dim != cfg.embedding.dim:
        raise InputError(f"{manifest} holds vectors of dim {dim},"
                         f" not the configured embedding.dim {cfg.embedding.dim}")


def _load_system(cfg: SystemConfig, args: argparse.Namespace) -> EvalSystem:
    """The system ``ask`` and ``eval`` answer with, with the command's
    ``--retrieval``, ``--max-agents``, ``--strategy``, ``--max-rounds`` and
    ``--agent-mode`` applied over the config.

    Raises ConfigError for a count flag below 1, when there is no registry,
    it names an agent that the config does not list, or an agent with
    chunks in its index is not in it, and InputError when its vectors or an
    agent's are not of the configured ``embedding.dim``.
    """
    max_agents, max_rounds = args.max_agents, getattr(args, "max_rounds", None)
    max_agents = _count("--max-agents", cfg.max_agents if max_agents is None else max_agents)
    max_rounds = _count("--max-rounds", cfg.max_rounds if max_rounds is None else max_rounds)
    if not cfg.registry_json().exists():
        raise ConfigError("no registry: run register first")
    backend = make_chat_backend(cfg.chat)
    embedder = make_embedder(cfg.embedding)
    registry = RouterRegistry.load(cfg.registry_json(), cfg.registry_vectors())
    configured, registered = {a.agent_id for a in cfg.agents}, set(registry.agent_ids)
    unknown = sorted(registered - configured)
    if unknown:
        raise ConfigError(f"registry names agents missing from the config: {', '.join(unknown)}")
    if registry.entries:
        _check_dim(cfg, cfg.registry_json(), registry.dim)
    retrieval = getattr(args, "retrieval", None)
    agents: dict[str, Agent] = {}
    for agent_cfg in cfg.agents:
        if retrieval:
            agent_cfg = replace(agent_cfg, retrieval_method=retrieval)
        adir = cfg.agent_dir(agent_cfg.agent_id)
        chunks = load_chunks(adir / "chunks.jsonl")
        dense = DenseIndex.load(adir / "vectors")
        _check_dim(cfg, adir / "vectors.manifest.json", dense.dim)
        if len(dense) and agent_cfg.agent_id not in registered:
            raise ConfigError(
                f"agent {agent_cfg.agent_id} is indexed but not in the registry: run register"
            )
        bm25 = Bm25Index.load(adir / "bm25.json")
        agents[agent_cfg.agent_id] = Agent(agent_cfg, chunks, dense, bm25)
    return EvalSystem(
        registry=registry,
        agents=agents,
        backend=backend,
        embedder=embedder,
        max_agents=max_agents,
        strategy=_STRATEGY_BY_FLAG[args.strategy] if args.strategy else cfg.strategy,
        max_rounds=max_rounds,
        agent_mode=getattr(args, "agent_mode", AGENTS_SELECTED),
        parallelism=cfg.parallelism,
    )


def _answer_trace(result, system: EvalSystem) -> dict:
    if isinstance(result, PlanResult):
        # The rounds the defender read; a one-shot plan has no defender.
        records = () if system.strategy == PlanStrategy.ONE_SHOT else result.rounds
        return {
            "mode": "multi_hop",
            "strategy": system.strategy.value,
            "status": result.status,
            "final_answer": result.final_answer,
            "records": [
                {"question": r.question, "answer": r.answer, "round": r.round}
                for r in records
            ],
            "rounds": [
                {
                    "round": r.round,
                    "question": r.question,
                    "answer": r.answer,
                    "selected_agents": list(r.routed.selected_agent_ids),
                    "verdicts": r.routed.verdicts,
                }
                for r in result.rounds
            ],
        }
    return {
        "mode": "single_hop",
        "final_answer": result.final_answer,
        "selected_agents": list(result.selected_agent_ids),
        "verdicts": result.verdicts,
    }


def cmd_ask(cfg: SystemConfig, args: argparse.Namespace) -> int:
    try:
        require_utf8("--question", args.question)
    except ValueError as exc:
        raise ConfigError(str(exc)) from None
    if not tokenize(args.question):
        raise ConfigError(f"--question has no tokens: {args.question!r}")
    system = _load_system(cfg, args)
    trace: dict = {"question": args.question, "max_agents": system.max_agents}
    code = EXIT_OK
    meter, hop = Metered(system.backend), MULTI if args.multihop else SINGLE
    try:
        result = answer(replace(system, backend=meter), args.question, hop)
        print(result.final_answer)
        trace.update(_answer_trace(result, system), usage=asdict(meter.total))
    except Exception as exc:
        trace["error"] = str(exc) or type(exc).__name__
        code = _fail("ask", trace["error"], EXIT_PARTIAL)
    trace["prompt_sha256"] = [call.prompt_sha256 for call in getattr(system.backend, "calls", [])]
    if args.trace_path:
        write_json(args.trace_path, trace, indent=2)
    return code


def cmd_eval(cfg: SystemConfig, args: argparse.Namespace) -> int:
    if not Path(args.dataset).exists():
        raise ConfigError(f"dataset does not exist: {args.dataset}")
    system = _load_system(cfg, args)
    report = run_eval(
        load_eval_items(args.dataset),
        system,
        modes=args.mode or ["with_rag"],
        judge_backend=system.backend if args.judge else None,
    )
    out = Path(args.report)
    write_json(out.with_suffix(".json"), report.to_json(), indent=2)
    write_atomic(out.with_suffix(".txt"), (report.table() + "\n").encode("utf-8"))
    print(report.table())
    hard_failures = sum(agg["n_errors"] for agg in report.mode_reports.values())
    if hard_failures:
        return _fail("eval", f"{hard_failures} item runs failed", EXIT_PARTIAL)
    return EXIT_OK


def cmd_inspect(cfg: SystemConfig, args: argparse.Namespace) -> int:
    summary: dict = {"agents": [], "templates": sorted(TEMPLATES)}
    if cfg.registry_json().exists():
        registry = RouterRegistry.load(cfg.registry_json(), cfg.registry_vectors())
        summary["registry"] = {
            "agents": registry.agent_count,
            "centroids": len(registry.entries),
        }
    for agent_cfg in cfg.agents:
        entry = {"agent_id": agent_cfg.agent_id, "category": agent_cfg.category}
        profile_path = cfg.agent_dir(agent_cfg.agent_id) / "profile.json"
        if profile_path.exists():
            entry["chunks"], entry["clusters"] = read_json(
                profile_path, lambda p: (require_int("m", p["m"]), require_int("n", p["n"]))
            )
        summary["agents"].append(entry)
    print(json.dumps(summary, sort_keys=True, indent=2))
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="ragroute", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", required=True, help="Path to the system config JSON")

    p = sub.add_parser("ingest", help="Chunk the corpus into per-agent chunk files")
    add_common(p)
    p.add_argument("--corpus", help="Override corpus path")
    p.add_argument("--chunk-tokens", type=int)
    p.add_argument("--overlap-tokens", type=int)
    p.add_argument("--agent")

    p = sub.add_parser("build-index", help="Embed chunks and build retrieval indexes")
    add_common(p)
    p.add_argument("--agent")

    p = sub.add_parser("register", help="Cluster chunks and push centroids to the registry")
    add_common(p)
    p.add_argument("--agent")

    p = sub.add_parser("ask", help="Answer one question")
    add_common(p)
    p.add_argument("--question", required=True)
    p.add_argument("--max-agents", type=int)
    p.add_argument("--multihop", action="store_true")
    p.add_argument("--strategy", choices=sorted(_STRATEGY_BY_FLAG))
    p.add_argument("--max-rounds", type=int)
    p.add_argument("--trace", dest="trace_path")

    p = sub.add_parser("eval", help="Run an eval dataset and write a report")
    add_common(p)
    p.add_argument("--dataset", required=True)
    p.add_argument("--report", required=True)
    p.add_argument("--strategy", choices=sorted(_STRATEGY_BY_FLAG))
    p.add_argument("--mode", action="append", choices=["raw_model", "with_rag"])
    p.add_argument(
        "--agent-mode",
        choices=[AGENTS_SELECTED, AGENTS_ALL, AGENTS_RAW_KNOWLEDGE],
        default=AGENTS_SELECTED,
    )
    p.add_argument("--retrieval", choices=["dense", "bm25", "mixture"])
    p.add_argument("--max-agents", type=int)
    p.add_argument("--judge", action="store_true")

    p = sub.add_parser("inspect", help="Print registry and profile summaries")
    add_common(p)
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = SystemConfig.from_file(args.config)
        # Looked up on each call, so a command wrapped after import still runs.
        command = globals()["cmd_" + args.command.replace("-", "_")]
        return command(cfg, args)
    except (InputError, OSError) as exc:
        return _fail(args.command, str(exc) or type(exc).__name__)


if __name__ == "__main__":
    sys.exit(main())
