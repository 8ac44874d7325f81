"""Offline benchmark for ragroute.

Run from the root of a checkout:

    python3 perfbench/run.py --workload routed-1hop --seed 1 --seconds 15 --trace 0

One run generates the workload's inputs from the seed, then three times
sets the system up through ``ragroute.cli.main`` (ingest, build-index,
register), loads it through the public loaders and asks questions one at a
time (a closed loop with one client) through
``ragroute.evalharness.run_eval``; the question time adds up to
``--seconds``. Times are reported at a reference host speed, measured by
timing a fixed piece of work next to each measurement (``Meter``); the
process and its stub run on one CPU. With ``--trace 1`` it instead sets up
and loads once with every layer wrapped in spans, asks the questions
untraced and then traced, and reports per-layer numbers. Every run checks its outputs (a failed check
raises ``GateError``); the last line of stdout is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. Inputs and indexes
live in ``.perfbench_run/<workload>-<pid>`` under the checkout and are
removed at the end. See README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import re
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SETUP_REPS = 3
LOADS_PER_SETUP = 3  # each set-up is loaded this many times, each time for at least LOAD_SECONDS
LOAD_SECONDS = 0.25
MIN_QUESTIONS = 100  # so that at least ten samples lie beyond p90
BATCH_SECONDS = 0.1  # question time between two marks of the speed meter
_KEPT_RE = re.compile(r"^\[doc:(\S+) chunk:(\d+)\]$", re.M)

# The host's speed changes by up to 1.6x from one minute to the next, and
# every timing moves with it. A fixed piece of pure-Python work, timed next to
# each measurement, tracks that speed; times are reported at the speed at
# which the work takes REFERENCE_S. The work is the benchmark's own, so no
# change to the program moves it.
REFERENCE_S = 0.004
_WORDS = re.compile(r"[a-z0-9]+")
_TEXT = " ".join(f"w{(i * 7919) % 1543}" for i in range(8000))
KERNEL_TIMES: list[float] = []  # every timing of the fixed work in this process


class GateError(RuntimeError):
    """A correctness check failed; the run reports no numbers."""

    attempted = 0  # questions asked, and failed, before the check failed
    failed = 0


def kernel_s() -> float:
    """Seconds the fixed work takes now."""
    start = time.perf_counter()
    counts: dict[str, int] = {}
    for word in _WORDS.findall(_TEXT):
        counts[word] = counts.get(word, 0) + 1
    sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
    elapsed = time.perf_counter() - start
    KERNEL_TIMES.append(elapsed)
    return elapsed


class Meter:
    """Times the fixed work at marks. ``factor()`` marks again and returns
    the scale, to reference speed, of what was measured since the last mark."""

    def __init__(self) -> None:
        self.last = kernel_s()

    def factor(self) -> float:
        now = kernel_s()
        scale = 2.0 * REFERENCE_S / (self.last + now)
        self.last = now
        return scale


def _import_program(root: Path) -> None:
    src = root / "src"
    if not (src / "ragroute" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no ragroute sources under {src}; run from a checkout root")
    sys.path[:0] = [p for p in (str(src), str(HERE)) if p not in sys.path]


def _p(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def _sha_dir(path: Path) -> str:
    h = hashlib.sha256()
    for f in sorted(p for p in path.rglob("*") if p.is_file()):
        h.update(str(f.relative_to(path)).encode())
        h.update(b"\0")
        h.update(f.read_bytes())
    return h.hexdigest()


class Stub:
    """The loopback stub as a child process; stopped and waited for on exit."""

    def __init__(self, root: Path, dim: int):
        env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--dim", str(dim)],
            stdout=subprocess.PIPE, env=env, text=True,
        )
        line = self.proc.stdout.readline()
        if not line.strip().isdigit():
            self.close()
            raise RuntimeError("stub did not start")
        self.url = f"http://127.0.0.1:{int(line)}"

    def stats(self) -> dict:
        import requests

        return requests.get(f"{self.url}/stats", timeout=10).json()

    def close(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class CountingEmbedder:
    """Passes embed calls through to the configured embedder and counts them."""

    def __init__(self, inner):
        self.inner = inner
        self.dim = inner.dim
        self.calls = 0

    def embed_batch(self, texts):
        self.calls += 1
        return self.inner.embed_batch(texts)


def setup(cfg_path: Path) -> float:
    """ingest + build-index + register through the CLI; returns seconds at
    reference speed."""
    from ragroute import cli

    gc.collect()  # each repeat starts from the same heap, not the last one's garbage
    meter = Meter()
    total = 0.0
    with contextlib.redirect_stdout(io.StringIO()):
        for command in ("ingest", "build-index", "register"):
            start = time.perf_counter()
            code = cli.main([command, "--config", str(cfg_path)])
            elapsed = time.perf_counter() - start
            if code != 0:
                raise GateError(f"{command} exited with {code}")
            total += elapsed * meter.factor()
    return total


def load(cfg_path: Path, backend, embedder):
    """A ready EvalSystem from the built files, through the public loaders."""
    from ragroute import corpus
    from ragroute.agent import Agent
    from ragroute.cli import SystemConfig
    from ragroute.evalharness import EvalSystem
    from ragroute.retrieval import Bm25Index, DenseIndex
    from ragroute.router import RouterRegistry

    cfg = SystemConfig.from_file(cfg_path)
    registry = RouterRegistry.load(cfg.registry_json(), cfg.registry_vectors())
    agents = {}
    for agent_cfg in cfg.agents:
        adir = cfg.agent_dir(agent_cfg.agent_id)
        agents[agent_cfg.agent_id] = Agent(
            agent_cfg,
            corpus.load_chunks(adir / "chunks.jsonl"),
            DenseIndex.load(adir / "vectors"),
            Bm25Index.load(adir / "bm25.json"),
            embedder,
            backend,
        )
    return EvalSystem(
        registry=registry, agents=agents, backend=backend, embedder=embedder,
        max_agents=cfg.max_agents, strategy=cfg.strategy, max_rounds=cfg.max_rounds,
        parallelism=cfg.parallelism,
    )


def make_clients(cfg_path: Path):
    """The configured HTTP chat backend, or else the in-process stand-in
    model, and the configured embedder behind a call counter."""
    from ragroute.cli import SystemConfig
    from ragroute.embedding import make_embedder
    from ragroute.llm import make_chat_backend

    import model

    cfg = SystemConfig.from_file(cfg_path)
    if cfg.chat.backend == "remote_http":
        backend = make_chat_backend(cfg.chat)
    else:
        backend = model.StandInBackend()
    return backend, CountingEmbedder(make_embedder(cfg.embedding))


class Loop:
    """Closed loop, one client: each question goes out after the last answer.

    Questions cycle through the workload's set. Each answer's digest
    (final answer, selected agents, kept chunk ids, usage) must match the
    first time the same question was answered; each answer's usage must
    equal the sum of the usages the model returned for its calls.
    """

    def __init__(self, items, scope=lambda index: contextlib.nullcontext()):
        self.system = None
        self.items = items
        self.scope = scope  # context entered around each question
        self.digests: dict[int, str] = {}
        self.first_pass = []  # (outcome, chat calls, embed calls) of each question once
        self.times: list[float] = []  # seconds per question
        self.scaled: list[float] = []  # the same at reference speed
        self.attempted = 0
        self.failed = 0
        self.chat_calls = 0
        self.embed_calls = 0

    def ask(self, index: int) -> float:
        from ragroute import evalharness

        backend, embedder = self.system.backend, self.system.embedder
        backend.calls.clear()  # the program's call log would otherwise grow with run length
        embeds_before = embedder.calls
        item = self.items[index % len(self.items)]
        with self.scope(index):
            start = time.perf_counter()
            try:
                outcome = evalharness.run_eval([item], self.system).outcomes["with_rag"][0]
            except Exception as exc:  # run_eval records item errors itself; count anything else too
                outcome = evalharness.ItemOutcome(item=item, error=f"run_eval raised: {exc!r}")
            elapsed = time.perf_counter() - start
        self.attempted += 1
        calls = list(backend.calls)
        embeds = embedder.calls - embeds_before
        self.chat_calls += len(calls)
        self.embed_calls += embeds
        if outcome.error is not None:
            self.failed += 1
        else:
            prompt = sum(c.usage.prompt_tokens for c in calls)
            completion = sum(c.usage.completion_tokens for c in calls)
            if (prompt, completion) != (outcome.usage.prompt_tokens, outcome.usage.completion_tokens):
                raise GateError(f"question {index}: reported usage {outcome.usage} != model usage "
                                f"({prompt}, {completion})")
        kept = sorted({f"{d}:{int(o):05d}" for c in calls for d, o in _KEPT_RE.findall(c.prompt)})
        digest = hashlib.sha256(json.dumps(
            [outcome.final_answer, list(outcome.selected_agent_ids), kept,
             outcome.usage.prompt_tokens, outcome.usage.completion_tokens, outcome.error],
        ).encode()).hexdigest()
        slot = index % len(self.items)
        if slot not in self.digests:
            self.digests[slot] = digest
            self.first_pass.append((outcome, len(calls), embeds))
        elif self.digests[slot] != digest:
            raise GateError(f"question {slot}: output differs between repeats")
        self.times.append(elapsed)
        return elapsed

    def run(self, system, seconds: float, finish: bool) -> tuple[int, int]:
        """Ask questions of ``system`` for ``seconds``; with ``finish``, go on
        until every question was asked once and MIN_QUESTIONS in all.

        Returns the chat and embed calls the program made meanwhile.
        """
        self.system = system
        chat_calls, embed_calls = self.chat_calls, self.embed_calls
        gc.collect()
        meter = Meter()
        batch = len(self.times)  # first question since the last mark
        deadline = time.perf_counter() + seconds
        while time.perf_counter() < deadline or (
            finish and (len(self.digests) < len(self.items) or self.attempted < MIN_QUESTIONS)
        ):
            self.ask(self.attempted)
            if sum(self.times[batch:]) >= BATCH_SECONDS:
                scale = meter.factor()
                self.scaled.extend(t * scale for t in self.times[batch:])
                batch = len(self.times)
        if batch < len(self.times):
            scale = meter.factor()
            self.scaled.extend(t * scale for t in self.times[batch:])
        return self.chat_calls - chat_calls, self.embed_calls - embed_calls

    def outputs_sha256(self) -> str:
        return hashlib.sha256("".join(self.digests[i] for i in sorted(self.digests)).encode()).hexdigest()


def end_to_end(loop: Loop, setup_times, load_times) -> dict:
    from ragroute.evalharness import aggregate

    first = loop.first_pass
    n = len(first)
    quality = aggregate([o for o, _, _ in first])
    return {
        "setup_s": statistics.median(setup_times),
        "load_s": statistics.median(load_times),
        "question_ms_p50": _p(loop.scaled, 0.5) * 1000.0,
        "question_ms_p90": _p(loop.scaled, 0.9) * 1000.0,
        "questions_per_s": len(loop.scaled) / sum(loop.scaled),
        "embed_calls_per_question": sum(e for _, _, e in first) / n,
        "chat_calls_per_question": sum(c for _, c, _ in first) / n,
        "tokens_per_question": sum(o.usage.total for o, _, _ in first) / n,
        "success_pct": 100.0 * (loop.attempted - loop.failed) / loop.attempted,
        "lexical_pct": quality["lexical_pct"],
        "answerable_agent_pct": quality["answerable_agent_pct"],
        "answerable_doc_pct": quality["answerable_doc_pct"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def check_stub(stub: Stub | None, before: dict | None, calls: tuple[int, int], retries: int) -> dict:
    """Stub request counts since ``before`` must equal the program's own
    (chat, embed) call counts; chat retries reach the stub too."""
    if stub is None:
        return {"chat": 0, "embed": 0, "chat_bytes": 0, "embed_bytes": 0}
    after = stub.stats()
    delta = {k: after["requests"][k] - before["requests"][k] for k in ("chat", "embed")}
    if delta["chat"] != calls[0] + retries:
        raise GateError(f"stub saw {delta['chat']} chat requests, program logged {calls[0]}")
    if delta["embed"] != calls[1]:
        raise GateError(f"stub saw {delta['embed']} embed requests, program made {calls[1]}")
    delta["chat_bytes"] = after["request_bytes"]["chat"] - before["request_bytes"]["chat"]
    delta["embed_bytes"] = after["request_bytes"]["embed"] - before["request_bytes"]["embed"]
    return delta


def check_setup_embeds(stub: Stub, before: dict, cfg_path: Path) -> None:
    """Set-up must send every chunk it built to the stub's embeddings
    endpoint once, in at least one request per agent with chunks; how it
    batches them is its own choice."""
    from ragroute import corpus
    from ragroute.cli import SystemConfig

    cfg = SystemConfig.from_file(cfg_path)
    sizes = [len(corpus.load_chunks(cfg.agent_dir(a.agent_id) / "chunks.jsonl")) for a in cfg.agents]
    after = stub.stats()
    made = after["requests"]["embed"] - before["requests"]["embed"]
    inputs = after["embed_inputs"] - before["embed_inputs"]
    if inputs != sum(sizes):
        raise GateError(f"set-up embedded {inputs} texts at the stub for {sum(sizes)} chunks")
    if made < sum(1 for n in sizes if n):
        raise GateError(f"set-up made {made} embeddings requests for {len(sizes)} agents")


def run(workload: str, seed: int, seconds: float, traced: bool, root: Path) -> dict:
    from ragroute.evalharness import load_eval_items

    import workloads

    spec = workloads.WORKLOADS[workload]
    work = root / ".perfbench_run" / f"{workload}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    data = work / "data"
    stub = None
    loops: list[Loop] = []  # every question loop of the run, for the counts if a check fails
    try:
        info = workloads.generate(spec, seed, data)
        items = load_eval_items(data / "questions.jsonl")
        if spec.remote:
            stub = Stub(root, workloads.DIM)

        def config(rep: int) -> Path:
            return workloads.write_config(spec, data, work / f"index{rep}", info["categories"],
                                          stub.url if stub else None)

        if traced:
            return run_traced(config(0), items, seconds, stub, loops)

        # Set-up, loads and questions take turns, so that each metric samples
        # the whole run rather than one stretch of it.
        loop = Loop(items)
        loops.append(loop)
        setup_times, load_times, index_shas = [], [], []
        for rep in range(SETUP_REPS):
            loop.system = system = None  # free the last system first
            before = stub.stats() if stub else None
            cfg_path = config(rep)
            setup_times.append(setup(cfg_path))
            index_shas.append(_sha_dir(work / f"index{rep}"))
            if stub:
                check_setup_embeds(stub, before, cfg_path)
            if rep:
                shutil.rmtree(work / f"index{rep - 1}")
            for part in range(LOADS_PER_SETUP):
                loads = []
                meter = Meter()
                while not loads or sum(loads) < LOAD_SECONDS:
                    loop.system = system = None  # measure one loaded system's memory, not two
                    backend, embedder = make_clients(cfg_path)
                    gc.collect()
                    start = time.perf_counter()
                    system = load(cfg_path, backend, embedder)
                    elapsed = time.perf_counter() - start
                    loads.append(elapsed * meter.factor())
                load_times.extend(loads)
                before = stub.stats() if stub else None
                last = rep == SETUP_REPS - 1 and part == LOADS_PER_SETUP - 1
                calls = loop.run(system, seconds / SETUP_REPS / LOADS_PER_SETUP, finish=last)
                check_stub(stub, before, calls, getattr(backend, "retries_used", 0))
        if len(set(index_shas)) != 1:
            raise GateError("rebuilds of one seed produced different index files")
        metrics = end_to_end(loop, setup_times, load_times)
        print(json.dumps({"workload": workload, "seed": seed, "index_sha256": index_shas[0],
                          "outputs_sha256": loop.outputs_sha256(), "questions": len(loop.times),
                          "kernel_ms_p50": statistics.median(KERNEL_TIMES) * 1000.0,
                          "unscaled_question_ms_p90": _p(loop.times, 0.9) * 1000.0,
                          "unscaled_questions_per_s": len(loop.times) / sum(loop.times)}))
        return {"attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}
    except GateError as exc:
        exc.attempted = sum(each.attempted for each in loops)
        exc.failed = sum(each.failed for each in loops)
        raise
    finally:
        if stub:
            stub.close()
        shutil.rmtree(work, ignore_errors=True)


def run_traced(cfg_path: Path, items, seconds: float, stub: Stub | None, loops: list) -> dict:
    """Set up and load once under spans, then ask untraced and traced."""
    import spans

    recorder = spans.Recorder()
    with spans.patched(recorder):
        with recorder.scope("setup"):
            setup(cfg_path)
        backend, embedder = make_clients(cfg_path)
        with recorder.scope("load"):
            system = load(cfg_path, backend, embedder)

    plain = Loop(items)
    loops.append(plain)
    plain.run(system, seconds / 2, finish=True)

    backend, embedder = make_clients(cfg_path)
    system = load(cfg_path, backend, embedder)
    traced = Loop(items, scope=lambda index: recorder.scope("query", question=index))
    loops.append(traced)
    stub_before = stub.stats() if stub else None
    with spans.patched(recorder):
        calls = traced.run(system, seconds / 2, finish=True)
    retries = getattr(backend, "retries_used", 0)
    http = check_stub(stub, stub_before, calls, retries)
    if plain.digests != {k: traced.digests[k] for k in plain.digests}:
        raise GateError("tracing changed the program's outputs")

    questions = list(range(len(traced.times)))
    metrics, self_by_layer = spans.layer_metrics(recorder, questions)
    n = len(questions)
    common = min(len(plain.times), n)
    # The query-path layers; the rest of the question time is embedding and
    # planner self time and the loop's own bookkeeping.
    listed = ("evalharness", "router", "agent", "retrieval", "prompts", "llm")
    metrics.update({
        "embedding.http_requests_per_question": http["embed"] / n,
        "embedding.request_kb_per_question": http["embed_bytes"] / 1024.0 / n,
        "llm.http_requests_per_question": http["chat"] / n,
        "llm.request_kb_per_question": http["chat_bytes"] / 1024.0 / n,
        "llm.retries": retries,
        "trace.overhead_pct": 100.0 * (sum(traced.scaled[:common]) / sum(plain.scaled[:common]) - 1.0),
        "trace.self_sum_pct": 100.0 * sum(self_by_layer.get(l, 0.0) for l in listed) / sum(traced.times),
    })
    return {
        "attempted": plain.attempted + traced.attempted,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def metric_units(traced: bool) -> dict[str, str]:
    """Name -> unit of the metrics a run prints, as BENCHMARK.json lists them."""
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in bench["per_layer" if traced else "end_to_end"]}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    _import_program(root)
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; one of {sorted(workloads.WORKLOADS)}")
    try:
        result = run(args.workload, args.seed, args.seconds, bool(args.trace), root)
    except GateError as exc:
        print(f"perfbench: correctness check failed: {exc}", file=sys.stderr)
        print(json.dumps({"correct": False, "attempted": exc.attempted, "failed": exc.failed,
                          "metrics": {}}))
        return 1
    units = metric_units(bool(args.trace))
    if set(result["metrics"]) != set(units):
        raise SystemExit(f"perfbench: metrics differ from BENCHMARK.json: "
                         f"{sorted(set(result['metrics']) ^ set(units))}")
    metrics = {name: {"value": float(result["metrics"][name]), "unit": unit} for name, unit in units.items()}
    print(json.dumps({"correct": True, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0


def pin_to_one_cpu() -> None:
    """Keep this process, and the stub it starts, on one CPU.

    The speed meter runs here, so it tracks the speed of the CPU the stub's
    work runs on too; a closed loop with one client never needs a second
    CPU at the same time. Called before numpy is imported, so that its BLAS
    sizes its thread pool to the one CPU.
    """
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


if __name__ == "__main__":
    pin_to_one_cpu()
    sys.exit(main())
