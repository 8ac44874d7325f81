from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
import zlib
from pathlib import Path

import numpy as np
import pytest

import ragroute
import transcripts
from test_corpus import CHUNK_FILE_KEYS, CHUNK_KEYS, per_line_bytes, per_line_refusal
from ragroute import cli
from ragroute.cli import SystemConfig, main
from ragroute.corpus import Chunk, ChunkingConfig, load_chunks, save_chunks
from ragroute.llm import ScriptedChatBackend
from ragroute.store import load_vectors, save_vectors


def write_config(
    tmp_path: Path,
    corpus: list[dict],
    script: list[dict],
    agents: list[dict],
    chunking: dict | None = None,
    router: dict | None = None,
    planner: dict | None = None,
) -> Path:
    transcripts.write_jsonl(tmp_path / "corpus.jsonl", corpus)
    (tmp_path / "script.json").write_text(json.dumps(script), encoding="utf-8")
    config = {
        "corpus_path": str(tmp_path / "corpus.jsonl"),
        "index_dir": str(tmp_path / "index"),
        "chunking": chunking or {"chunk_tokens": 256, "overlap_tokens": 20},
        "embedding": {
            "provider": "deterministic_mock",
            "model_name": "mock",
            "dim": transcripts.MOCK_DIM,
        },
        "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
        "agents": agents,
        "router": router or {"max_agents": 5, "parallelism": 1},
        "planner": planner or {"strategy": "greedy", "max_rounds": 5},
    }
    path = tmp_path / "config.json"
    path.write_text(json.dumps(config, indent=2), encoding="utf-8")
    return path


def wd_agents() -> list[dict]:
    return [
        {"agent_id": a, "category": c, "retrieval_method": "mixture",
         "retrieval_depth": 20, "min_keep": 5}
        for a, c in zip(transcripts.WD_AGENT_IDS, transcripts.WD_CATEGORIES)
    ]


def build_lifecycle(config: Path) -> None:
    assert main(["ingest", "--config", str(config)]) == 0
    assert main(["build-index", "--config", str(config)]) == 0
    assert main(["register", "--config", str(config)]) == 0


def file_hashes(root: Path) -> dict[str, str]:
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file():
            out[str(path.relative_to(root))] = hashlib.sha256(path.read_bytes()).hexdigest()
    return out


class TestLifecycle:
    def test_ingest_build_register_two_agents(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "d1", "category": "ca", "body": "alpha words " * 30},
            {"doc_id": "d2", "category": "ca", "body": "more alpha text " * 40},
            {"doc_id": "d3", "category": "cb", "body": "beta content " * 35},
        ]
        agents = [
            {"agent_id": "agA", "category": "ca"},
            {"agent_id": "agB", "category": "cb"},
        ]
        config = write_config(
            tmp_path, corpus, [], agents, chunking={"chunk_tokens": 16, "overlap_tokens": 4}
        )
        build_lifecycle(config)
        out = capsys.readouterr().out
        registry = json.loads((tmp_path / "index" / "registry.json").read_text())
        # one profile per agent, entries additive across agents
        profile_a = json.loads((tmp_path / "index" / "agents" / "agA" / "profile.json").read_text())
        profile_b = json.loads((tmp_path / "index" / "agents" / "agB" / "profile.json").read_text())
        assert registry["agent_of_row"] == ["agA"] * profile_a["n"] + ["agB"] * profile_b["n"]
        assert '"agents": 2' in out
        assert sorted(p.name for p in (tmp_path / "index").iterdir() if p.is_file()) == [
            "registry.json", "registry_vectors.bin"
        ]

    @pytest.mark.parametrize("flags", [[], ["--agent", "agent1"]], ids=["all", "one"])
    def test_register_drops_an_agent_whose_chunks_are_gone(self, tmp_path, capsys, flags):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, [], agents)
        build_lifecycle(config)
        transcripts.write_jsonl(tmp_path / "corpus.jsonl", corpus[:1])
        capsys.readouterr()
        for command in ("ingest", "build-index", "register"):
            assert main([command, "--config", str(config), *flags]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["agents"] == 1
        registry = json.loads((tmp_path / "index" / "registry.json").read_text())
        assert set(registry["agent_of_row"]) == {"agent0"}
        emptied = tmp_path / "index" / "agents" / "agent1"
        assert sorted(p.name for p in emptied.iterdir()) == [
            "bm25.bin", "bm25.json", "chunks.bin", "chunks.jsonl", "vectors.bin",
            "vectors.manifest.json"
        ]
        assert main(["inspect", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [a for a in summary["agents"] if a["agent_id"] == "agent1"] == [
            {"agent_id": "agent1", "category": "cat1"}
        ]

    @pytest.mark.parametrize("flags", [[], ["--agent", "agent0"]], ids=["all", "one"])
    def test_register_forgets_an_agent_dropped_from_the_config(self, tmp_path, capsys, flags):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        raw = json.loads(config.read_text())
        raw["agents"] = raw["agents"][:1]
        config.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert main(["register", "--config", str(config), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["agents"] == 1
        registry = json.loads((tmp_path / "index" / "registry.json").read_text())
        assert set(registry["agent_of_row"]) == {"agent0"}
        assert main(["ask", "--config", str(config), "--question", "topic0word0?"]) == 0

    def test_register_one_agent_replaces_its_entries(self, tmp_path, capsys):
        words = " ".join(f"topic0word{w}" for w in range(40))
        corpus, agents = topic_corpus_and_agents(2)
        corpus[0]["body"] = words
        config = write_config(
            tmp_path, corpus, [], agents, chunking={"chunk_tokens": 4, "overlap_tokens": 0}
        )
        build_lifecycle(config)
        index = tmp_path / "index"

        def registry_rows(agent_id):
            agent_of_row = json.loads((index / "registry.json").read_text())["agent_of_row"]
            rows = np.fromfile(index / "registry_vectors.bin", "<f4").reshape(len(agent_of_row), -1)
            return [row.tolist() for a, row in zip(agent_of_row, rows) if a == agent_id]

        assert len(registry_rows("agent0")) == 3  # 10 chunks: isqrt(10) clusters
        others = registry_rows("agent1")
        corpus[0]["body"] = " ".join(words.split()[:4])
        transcripts.write_jsonl(tmp_path / "corpus.jsonl", corpus)
        for command in ("ingest", "build-index", "register"):
            assert main([command, "--config", str(config), "--agent", "agent0"]) == 0
        assert json.loads(capsys.readouterr().out.splitlines()[-1]) == {"agents": 2, "centroids": 2}
        assert len(registry_rows("agent0")) == 1
        assert registry_rows("agent1") == others

    def test_a_leftover_vectors_manifest_is_neither_read_nor_removed(self, tmp_path, capsys):
        """Older versions wrote ``registry_vectors.manifest.json`` beside the
        registry; this one leaves such a file as it is."""
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        leftover = tmp_path / "index" / "registry_vectors.manifest.json"
        leftover.parent.mkdir(parents=True)
        leftover.write_bytes(b"{not json")
        build_lifecycle(config)
        for command in ("ask", "register", "inspect"):
            assert main([command, "--config", str(config),
                         *command_args(tmp_path, command)]) == 0, command
        assert leftover.read_bytes() == b"{not json"

    @pytest.mark.parametrize("command", ["ask", "eval"])
    def test_an_indexed_agent_missing_from_the_registry_is_refused(
        self, tmp_path, capsys, command
    ):
        """Agent b is added to the config and indexed after a register of a
        alone: the commands that route refuse to load, naming b and
        register, rather than never route to b."""
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus[:1], catch_all_script(), agents[:1])
        build_lifecycle(config)
        transcripts.write_jsonl(tmp_path / "corpus.jsonl", corpus)
        raw = json.loads(config.read_text())
        raw["agents"] = agents
        config.write_text(json.dumps(raw), encoding="utf-8")
        for step in ("ingest", "build-index"):
            assert main([step, "--config", str(config)]) == 0
        extra = {
            "ask": ["--question", "topic1word0?"],
            "eval": ["--dataset", str(topic_dataset(tmp_path, 2)), "--report",
                     str(tmp_path / "report"), "--agent-mode", "all"],
        }[command]
        capsys.readouterr()
        assert main([command, "--config", str(config), *extra]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": command,
            "error": "agent agent1 is indexed but not in the registry: run register",
        }
        assert main(["register", "--config", str(config)]) == 0
        assert main([command, "--config", str(config), *extra]) == 0

    def test_rerun_is_byte_identical(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "d1", "category": "ca", "body": "alpha words " * 30},
            {"doc_id": "d2", "category": "cb", "body": "beta content " * 35},
        ]
        agents = [
            {"agent_id": "agA", "category": "ca"},
            {"agent_id": "agB", "category": "cb"},
        ]
        config = write_config(
            tmp_path, corpus, [], agents, chunking={"chunk_tokens": 16, "overlap_tokens": 4}
        )
        build_lifecycle(config)
        first = file_hashes(tmp_path / "index")
        build_lifecycle(config)
        assert file_hashes(tmp_path / "index") == first

    def test_missing_corpus_exits_2_with_error_json(self, tmp_path, capsys):
        config = write_config(tmp_path, [], [], [{"agent_id": "a", "category": "c"}])
        (tmp_path / "corpus.jsonl").unlink()
        code = main(["ingest", "--config", str(config)])
        assert code == 2
        err = capsys.readouterr().err
        payload = json.loads(err.strip())
        assert "corpus.jsonl" in payload["error"]

    def test_bad_record_reported_with_partial_exit(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "good", "category": "c", "body": "fine text here"},
            {"doc_id": "nobody", "category": "c"},
        ]
        config = write_config(tmp_path, corpus, [], [{"agent_id": "a", "category": "c"}])
        code = main(["ingest", "--config", str(config)])
        assert code == 1
        captured = capsys.readouterr()
        summary = json.loads(captured.out.strip())
        assert summary["documents"] == 1
        assert len(summary["record_errors"]) == 1
        assert json.loads(captured.err)["error"] == (
            f"{tmp_path / 'corpus.jsonl'}: 1 record errors, 0 unassigned categories"
        )

    def test_blank_body_and_non_utf8_line_are_record_errors(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "good", "category": "c", "body": "fine text here"},
            {"doc_id": "blank", "category": "c", "body": "   "},
        ]
        config = write_config(tmp_path, corpus, [], [{"agent_id": "a", "category": "c"}])
        with (tmp_path / "corpus.jsonl").open("ab") as fh:
            fh.write(b'{"doc_id": "latin", "category": "c", "body": "caf\xe9"}\n')
            fh.write(b'{"doc_id": "last", "category": "c", "body": "more text"}\n')
        code = main(["ingest", "--config", str(config)])
        assert code == 1
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["documents"] == 2
        assert [e["line"] for e in summary["record_errors"]] == [2, 3]
        chunks = load_chunks(tmp_path / "index" / "agents" / "a" / "chunks.jsonl")
        assert [c.doc_id for c in chunks] == ["good", "last"]

    def test_doc_id_or_body_not_a_string_is_a_record_error(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "5", "category": "c", "body": "the string id"},
            {"doc_id": 5, "category": "c", "body": "the number id"},
            {"doc_id": ["x"], "category": "c", "body": "a list id"},
            {"doc_id": "listed", "category": "c", "body": ["a", "list", "body"]},
        ]
        config = write_config(tmp_path, corpus, [], [{"agent_id": "a", "category": "c"}])
        assert main(["ingest", "--config", str(config)]) == 1
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["documents"] == 1
        assert [e["line"] for e in summary["record_errors"]] == [2, 3, 4]
        chunks = load_chunks(tmp_path / "index" / "agents" / "a" / "chunks.jsonl")
        assert [c.text for c in chunks] == ["the string id"]

    def test_register_before_index_fails_cleanly(self, tmp_path, capsys):
        config = write_config(tmp_path, [{"doc_id": "d", "category": "c", "body": "words"}],
                              [], [{"agent_id": "a", "category": "c"}])
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["register", "--config", str(config)]) == 2
        assert "build-index" in json.loads(capsys.readouterr().err.strip())["error"]

    @pytest.mark.parametrize(
        "chunking, flags",
        [
            # 40 tokens at stride 12: ceil((40-4)/12) = 3 windows
            ((256, 20), ["--chunk-tokens", "16", "--overlap-tokens", "4"]),
            # an explicit 0 overlap wins over the config's 8: ceil(40/16) = 3 windows
            ((16, 8), ["--overlap-tokens", "0"]),
        ],
        ids=["both-flags", "zero-overlap"],
    )
    def test_chunking_flags_override_config(self, tmp_path, capsys, chunking, flags):
        body = " ".join(f"w{i}" for i in range(40))
        config = write_config(
            tmp_path,
            [{"doc_id": "d", "category": "c", "body": body}],
            [],
            [{"agent_id": "a", "category": "c"}],
            chunking={"chunk_tokens": chunking[0], "overlap_tokens": chunking[1]},
        )
        assert main(["ingest", "--config", str(config), *flags]) == 0
        records = load_chunks(tmp_path / "index" / "agents" / "a" / "chunks.jsonl")
        assert len(records) == 3
        assert records[0].token_len == 16

    def test_invalid_chunking_flags_exit_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            [{"doc_id": "d", "category": "c", "body": "words"}],
            [],
            [{"agent_id": "a", "category": "c"}],
        )
        assert main(["ingest", "--config", str(config), "--overlap-tokens", "300"]) == 2
        assert "overlap_tokens" in json.loads(capsys.readouterr().err.strip())["error"]

    @pytest.mark.parametrize("value", [128.0, True, "128", None])
    @pytest.mark.parametrize("field", ["chunk_tokens", "overlap_tokens"])
    @pytest.mark.parametrize("where", ["config", "agent"])
    def test_chunk_size_not_an_integer_exits_2(self, tmp_path, capsys, where, field, value):
        chunking = {"chunk_tokens": 16, "overlap_tokens": 2}
        bad = dict(chunking, **{field: value})
        agent = {"agent_id": "a", "category": "c"}
        if where == "agent":
            agent["chunking"] = bad
        config = write_config(
            tmp_path,
            [{"doc_id": "d", "category": "c", "body": "words " * 40}],
            [],
            [agent],
            chunking=bad if where == "config" else chunking,
        )
        assert main(["ingest", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "ingest"
        assert field in error["error"]

    def test_single_agent_build_leaves_others_untouched(self, tmp_path, capsys):
        corpus = [
            {"doc_id": "d1", "category": "ca", "body": "alpha words " * 10},
            {"doc_id": "d2", "category": "cb", "body": "beta content " * 10},
        ]
        agents = [
            {"agent_id": "agA", "category": "ca"},
            {"agent_id": "agB", "category": "cb"},
        ]
        config = write_config(tmp_path, corpus, [], agents)
        assert main(["ingest", "--config", str(config)]) == 0
        assert main(["build-index", "--config", str(config), "--agent", "agA"]) == 0
        assert (tmp_path / "index" / "agents" / "agA" / "vectors.bin").exists()
        assert not (tmp_path / "index" / "agents" / "agB" / "vectors.bin").exists()


THE_AGE_ANSWER = transcripts.NR_ROUTER_REPLY_1.rsplit("Answer: ", 1)[1]
TECHCRUNCH_ANSWER = transcripts.NR_ROUTER_REPLY_2.rsplit("Answer: ", 1)[1]
POLISHED_QUESTION = "What did TechCrunch allege about Google on December 15, 2023?"

# One scripted transcript per --strategy, all over the news_reports corpus.
TRACE_SCRIPTS = {
    "oneshot": [
        {"match": "collection of knowledge", "reply": transcripts.NR_AGENT_REPLY_1},
        {"match": "set of respoonses", "reply": transcripts.NR_ROUTER_REPLY_1},
    ],
    "presplit": [
        {"match": "break the question into",
         "reply": "1. What did The Age report on October 22, 2023?\n"
                  "2. What did TechCrunch report on December 15, 2023?"},
        {"match": "collection of knowledge", "reply": transcripts.NR_AGENT_REPLY_1},
        {"match": "set of respoonses", "reply": transcripts.NR_ROUTER_REPLY_1},
        {"match": "polish the query", "reply": f"Polished query: {POLISHED_QUESTION}"},
        {"match": "collection of knowledge", "reply": transcripts.NR_AGENT_REPLY_2},
        {"match": "set of respoonses", "reply": transcripts.NR_ROUTER_REPLY_2},
        {"match": "If you need more information", "reply": transcripts.NR_DEFENDER_REPLY},
    ],
    "greedy": transcripts.NR_SCRIPT,
}

# Per strategy: each routed round's (question, answer), then the trace's
# strategy, status, final answer, usage and the sha256 of every prompt sent.
TRACE_EXPECTED = {
    "oneshot": (
        [(transcripts.NR_QUERY, THE_AGE_ANSWER)],
        "one_shot", "answerable", THE_AGE_ANSWER,
        {"prompt_tokens": 1038, "completion_tokens": 423},
        [
            "a66b4e99c43c9ec53e3645a4333a4b098ef903aecf18af5befa5adab29bbf7e6",
            "7108b142a39a0f2f4c5ef172aab740c2bc754a9db5ef0fb69cfbb5da56bf98f7",
        ],
    ),
    "presplit": (
        [("What did The Age report on October 22, 2023?", THE_AGE_ANSWER),
         (POLISHED_QUESTION, TECHCRUNCH_ANSWER)],
        "presplit", "exhausted", transcripts.NR_EXPECTED,
        {"prompt_tokens": 2708, "completion_tokens": 995},
        [
            "96344fb0d4653ab3dbdf85b4c00b1f991f9a845556beffbce61e1f09748598c8",
            "a6d928bc6e032811fecac9665eb25ea631022e6b8bb23ee37d8012bca102392f",
            "0e793528920c1ace4c1ea3202dbd4547afa273801bf3aa82a69600acfa10ae91",
            "332c32a5af7c480efdc94340fc1e0e856ac10306f957b28ff730a9f1e8fcb4ed",
            "af6d22467a56e384f6c3cec001c5eeef9285e046a15b5c400caf4321dc3d4bcd",
            "1808110617e1b17c7733fb0a973964c27d61747de9c7e2ceb9e1fae615a5e76d",
            "72873e47a19e30c4b810f6eaae8c469f99a986d7d0e32fafaddfb0b49b322dd5",
        ],
    ),
    "greedy": (
        [(transcripts.NR_ROUND1_QUESTION, THE_AGE_ANSWER),
         (transcripts.NR_ROUND2_QUESTION, TECHCRUNCH_ANSWER)],
        "greedy", "answerable", transcripts.NR_EXPECTED,
        {"prompt_tokens": 3765, "completion_tokens": 1383},
        [
            "96344fb0d4653ab3dbdf85b4c00b1f991f9a845556beffbce61e1f09748598c8",
            "ac23730ede2801c2fc84844ba8026fe780b3cc5d0749b7c115ebd1ac86b3c281",
            "7aa02aa97ffdcf25f8400ed3e76fc6b941b131e4ef8254f8044d8440c7b98a99",
            "bb20e0ff9d8f3ad9883cb95252950dc240bd156a75d593f68d2bc6397fb7a45f",
            "079187ac6b586a5fa8e24dd6cbd07af14403f6c412883f07502377bcfb033111",
            "b67ac144037f0aed38d672f525b6d9953322452c26d41d58acdd259eaf21a2f9",
            "212ee495363f1a440b7f967795d8139647fddcc20a216bf295ace61888d3846e",
            "c61d4ea689093c47b3b44c381dc30caa1db1f14b483e847c4d07546bf6655f8a",
            "468e28051023434e95508eecdc6d3b6c47f2d5ee21ad44d39864a88efae70afc",
        ],
    ),
}


def expected_trace(strategy: str) -> dict:
    """The whole ``ask --multihop --trace`` document for ``strategy``; one-shot
    routes the query itself and keeps no records."""
    rounds, name, status, final, usage, prompts = TRACE_EXPECTED[strategy]
    records = [{"question": q, "answer": a, "round": i} for i, (q, a) in enumerate(rounds, 1)]
    return {
        "question": transcripts.NR_QUERY,
        "max_agents": 5,
        "mode": "multi_hop",
        "strategy": name,
        "status": status,
        "final_answer": final,
        "records": [] if name == "one_shot" else records,
        "rounds": [
            {**r, "selected_agents": ["tech"], "verdicts": {"tech": "unhelpful"}} for r in records
        ],
        "usage": usage,
        "prompt_sha256": prompts,
    }


class TestAsk:
    def _setup(self, tmp_path) -> Path:
        return write_config(tmp_path, transcripts.WD_CORPUS, transcripts.WD_SCRIPT, wd_agents())

    def test_single_hop_stdout_matches_script(self, tmp_path, capsys):
        config = self._setup(tmp_path)
        build_lifecycle(config)
        capsys.readouterr()
        code = main(
            ["ask", "--config", str(config), "--question", transcripts.WD_QUESTION,
             "--trace", str(tmp_path / "trace.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == transcripts.WD_EXPECTED
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert trace["selected_agents"] == transcripts.WD_AGENT_IDS
        assert trace["verdicts"]["a2"] == "good_reliable"
        assert trace["verdicts"]["a4"] == "good_reliable"
        assert trace["usage"]["prompt_tokens"] > 0
        assert len(trace["prompt_sha256"]) == 6  # five agents + one curation call

    def test_max_agents_flag_bounds_trace(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            transcripts.WD_CORPUS,
            transcripts.WD_SCRIPT[:3] + [transcripts.WD_SCRIPT[-1]],
            wd_agents(),
        )
        build_lifecycle(config)
        capsys.readouterr()
        code = main(
            ["ask", "--config", str(config), "--question", transcripts.WD_QUESTION,
             "--max-agents", "3", "--trace", str(tmp_path / "trace.json")]
        )
        assert code == 0
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["selected_agents"]) <= 3

    def test_multihop_trace_two_rounds(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            transcripts.NR_CORPUS,
            transcripts.NR_SCRIPT,
            [{"agent_id": "tech", "category": "technology",
              "retrieval_depth": 50, "min_keep": 10}],
        )
        build_lifecycle(config)
        capsys.readouterr()
        code = main(
            ["ask", "--config", str(config), "--question", transcripts.NR_QUERY,
             "--multihop", "--strategy", "greedy", "--max-rounds", "5",
             "--trace", str(tmp_path / "trace.json")]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert out.splitlines()[-1] == transcripts.NR_EXPECTED
        trace = json.loads((tmp_path / "trace.json").read_text())
        assert len(trace["rounds"]) == 2
        assert len(trace["records"]) == 2
        assert trace["status"] == "answerable"

    @pytest.mark.parametrize("strategy", sorted(TRACE_SCRIPTS))
    def test_multihop_trace_of_each_strategy_is_pinned(self, tmp_path, capsys, strategy):
        config = write_config(
            tmp_path, transcripts.NR_CORPUS, TRACE_SCRIPTS[strategy],
            [{"agent_id": "tech", "category": "technology",
              "retrieval_depth": 50, "min_keep": 10}],
        )
        build_lifecycle(config)
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        code = main(["ask", "--config", str(config), "--question", transcripts.NR_QUERY,
                     "--multihop", "--strategy", strategy, "--trace", str(trace_path)])
        assert code == 0
        assert json.loads(trace_path.read_text()) == expected_trace(strategy)

    @pytest.mark.parametrize("question", ["", "   ", "\t\n"])
    def test_question_without_tokens_exits_2(self, tmp_path, capsys, question):
        config = self._setup(tmp_path)
        build_lifecycle(config)
        capsys.readouterr()
        assert main(["ask", "--config", str(config), "--question", question]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == "ask"
        assert "--question has no tokens" in error["error"]

    def test_question_not_utf8_exits_2(self, tmp_path, capsys):
        """Bytes that are not UTF-8 reach argv as lone surrogates."""
        config = self._setup(tmp_path)
        build_lifecycle(config)
        capsys.readouterr()
        trace = tmp_path / "trace.json"
        args = ["ask", "--config", str(config), "--question", "alpha beta \udcff"]
        assert main([*args, "--trace", str(trace)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error == {"command": "ask", "error": "--question is not UTF-8: lone surrogate U+DCFF"}
        assert not trace.exists()

    def test_ask_without_registry_fails(self, tmp_path, capsys):
        config = self._setup(tmp_path)
        assert main(["ask", "--config", str(config), "--question", "hi"]) == 2

    @pytest.mark.parametrize(
        "flags, max_agents",
        [([], 5), (["--multihop", "--strategy", "presplit", "--max-agents", "2"], 2)],
        ids=["single-hop", "multihop"],
    )
    def test_failed_answer_exits_1_with_a_bare_trace(self, tmp_path, capsys, flags, max_agents):
        config = write_config(tmp_path, transcripts.WD_CORPUS, [], wd_agents())
        build_lifecycle(config)
        capsys.readouterr()
        trace_path = tmp_path / "trace.json"
        code = main(["ask", "--config", str(config), "--question", transcripts.WD_QUESTION,
                     "--trace", str(trace_path), *flags])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == "ask"
        assert "unscripted prompt" in error["error"]
        trace = json.loads(trace_path.read_text())
        assert trace == {
            "question": transcripts.WD_QUESTION,
            "max_agents": max_agents,
            "error": error["error"],
            "prompt_sha256": [],
        }

    @pytest.mark.parametrize(
        "flags, error",
        [
            ([], "all selected agents failed: {%s}" % ", ".join(
                f"'{a}': 'agent {a}: RuntimeError'" for a in transcripts.WD_AGENT_IDS)),
            (["--multihop", "--strategy", "presplit"], "RuntimeError"),
        ],
        ids=["agents", "planner"],
    )
    def test_an_exception_without_a_message_is_named_by_its_type(
        self, tmp_path, capsys, monkeypatch, flags, error
    ):
        config = self._setup(tmp_path)
        build_lifecycle(config)
        capsys.readouterr()

        def chat(backend, messages):
            raise RuntimeError()

        monkeypatch.setattr(ScriptedChatBackend, "chat", chat)
        args = ["ask", "--config", str(config), "--question", transcripts.WD_QUESTION]
        assert main([*args, *flags]) == 1
        assert json.loads(capsys.readouterr().err) == {"command": "ask", "error": error}

    def test_an_os_error_without_a_message_is_named_by_its_type(
        self, tmp_path, capsys, monkeypatch
    ):
        config = self._setup(tmp_path)
        build_lifecycle(config)
        capsys.readouterr()

        def load(cfg, args):
            raise OSError()

        monkeypatch.setattr(cli, "_load_system", load)
        assert main(["ask", "--config", str(config), "--question", "hi"]) == 2
        assert json.loads(capsys.readouterr().err) == {"command": "ask", "error": "OSError"}


def topic_corpus_and_agents(n=4):
    corpus = []
    agents = []
    for t in range(n):
        words = " ".join(f"topic{t}word{w}" for w in range(6))
        corpus.append({"doc_id": f"doc-t{t}", "category": f"cat{t}", "body": f"{words} {words}"})
        agents.append({"agent_id": f"agent{t}", "category": f"cat{t}"})
    return corpus, agents


def catch_all_script() -> list[dict]:
    return [
        {"match": "set of documents", "reply": "Analysis: none.\nAnswer: I don't know.",
         "repeat": True},
        {"match": "set of respoonses",
         "reply": "Evaluation: \n- Response 1 is unreliable.\nAnalysis: none\nAnswer: I don't know.",
         "repeat": True},
    ]


def topic_dataset(tmp_path: Path, n=4) -> Path:
    records = [
        {
            "question": f"topic{t}word0 topic{t}word3?",
            "answers": ["whatever"],
            "target_doc_ids": [f"doc-t{t}"],
            "target_agent_ids": [f"agent{t}"],
            "hop": "single",
        }
        for t in range(n)
    ]
    return transcripts.write_jsonl(tmp_path / "items.jsonl", records)


class TestEval:
    def test_report_files_written_with_all_columns(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        code = main(
            ["eval", "--config", str(config), "--dataset", str(dataset),
             "--report", str(tmp_path / "report")]
        )
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        agg = report["modes"]["with_rag"]
        for key in (
            "tokens_per_query", "lexical_pct", "answerable_doc_pct",
            "answerable_agent_pct", "useful_doc_pct", "useful_agent_pct",
        ):
            assert key in agg
        table = (tmp_path / "report.txt").read_text()
        assert "Tokens/Query" in table

    def test_trace_round_trip_reproduces_aggregates(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        main(["eval", "--config", str(config), "--dataset", str(dataset),
              "--report", str(tmp_path / "report")])
        report = json.loads((tmp_path / "report.json").read_text())
        items = report["items"]["with_rag"]
        mean_tokens = sum(i["prompt_tokens"] + i["completion_tokens"] for i in items) / len(items)
        assert report["modes"]["with_rag"]["tokens_per_query"] == pytest.approx(mean_tokens)
        answerable = sum(
            1 for i in items if set(i["selected_agent_ids"]) & set(i["target_agent_ids"])
        )
        assert report["modes"]["with_rag"]["answerable_agent_pct"] == pytest.approx(
            100 * answerable / len(items)
        )

    def test_retrieval_sweep_three_reports(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        for method in ("dense", "bm25", "mixture"):
            code = main(
                ["eval", "--config", str(config), "--dataset", str(dataset),
                 "--retrieval", method, "--report", str(tmp_path / f"report_{method}")]
            )
            assert code == 0
            assert (tmp_path / f"report_{method}.json").exists()

    def test_max_agents_sweep(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        rates = {}
        for cap in (1, 2, 4):
            main(["eval", "--config", str(config), "--dataset", str(dataset),
                  "--max-agents", str(cap), "--report", str(tmp_path / f"r{cap}")])
            report = json.loads((tmp_path / f"r{cap}.json").read_text())
            rates[cap] = report["modes"]["with_rag"]["answerable_agent_pct"]
        assert rates[1] <= rates[2] <= rates[4]

    def test_agent_mode_all_selects_every_registered_agent(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        selected = {}
        for mode in ("selected", "all"):
            code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                         "--max-agents", "1", "--agent-mode", mode,
                         "--report", str(tmp_path / mode)])
            assert code == 0
            items = json.loads((tmp_path / f"{mode}.json").read_text())["items"]["with_rag"]
            selected[mode] = [i["selected_agent_ids"] for i in items]
        assert selected["selected"] == [[f"agent{t}"] for t in range(4)]
        assert selected["all"] == [[f"agent{t}" for t in range(4)]] * 4

    def test_judge_failure_is_an_item_error_and_the_report_is_written(self, tmp_path, capsys):
        # The script answers every pipeline prompt but has no judge entry.
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        capsys.readouterr()
        dataset = topic_dataset(tmp_path)
        code = main(["eval", "--config", str(config), "--dataset", str(dataset), "--judge",
                     "--report", str(tmp_path / "r")])
        assert code == 1
        assert json.loads(capsys.readouterr().err) == {
            "command": "eval", "error": "4 item runs failed",
        }
        report = json.loads((tmp_path / "r.json").read_text())
        assert report["modes"]["with_rag"]["n_errors"] == 4
        items = report["items"]["with_rag"]
        assert all(i["error"].startswith("unscripted prompt") for i in items)
        assert (tmp_path / "r.txt").exists()
        # Each failed item keeps what its pipeline spent: the tokens of the
        # same items answered without the judge.
        assert main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--report", str(tmp_path / "plain")]) == 0
        plain = json.loads((tmp_path / "plain.json").read_text())["items"]["with_rag"]
        spent = [(i["prompt_tokens"], i["completion_tokens"]) for i in plain]
        assert all(prompt > 0 for prompt, _ in spent)
        assert [(i["prompt_tokens"], i["completion_tokens"]) for i in items] == spent

    def test_agent_mode_raw_knowledge_makes_one_generation_call_per_item(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        # One reply per item and nothing else: a second call for any item
        # would take the next item's reply, or find none left.
        script = [{"match": "set of documents", "reply": f"Analysis: -\nAnswer: reply {t}"}
                  for t in range(4)]
        config = write_config(tmp_path, corpus, script, agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--agent-mode", "raw_knowledge", "--report", str(tmp_path / "r")])
        assert code == 0
        items = json.loads((tmp_path / "r.json").read_text())["items"]["with_rag"]
        assert [(i["final_answer"], i["error"]) for i in items] == [
            (f"reply {t}", None) for t in range(4)
        ]

    def test_truncated_vectors_exit_2_with_json_error(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path)
        vectors = tmp_path / "index" / "agents" / agents[0]["agent_id"] / "vectors.bin"
        vectors.write_bytes(vectors.read_bytes()[:-6])
        capsys.readouterr()
        code = main(["eval", "--config", str(config), "--dataset", str(dataset),
                     "--report", str(tmp_path / "r")])
        assert code == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "eval"
        assert "vectors.bin holds" in error["error"]

    def test_missing_dataset_exits_2(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        code = main(["eval", "--config", str(config), "--dataset",
                     str(tmp_path / "nope.jsonl"), "--report", str(tmp_path / "r")])
        assert code == 2


BAD_LINES = [
    (b"{not json\n", 2),
    (b"[]\n", 2),
    (b"null\n", 2),
    (b"{}\n", 2),
    (b"\xff\xfe\n", 2),
]


class TestEmbeddingDim:
    """Vectors built under another ``embedding.dim`` exit 2 naming their
    manifest and both dims: here agent0 is rebuilt at twice the dim of the
    registry and of agent1."""

    @pytest.fixture
    def configs(self, tmp_path):
        """(the config the tree was built with, the one agent0 was rebuilt with)"""
        corpus, agents = topic_corpus_and_agents(2)
        narrow = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(narrow)
        raw = json.loads(narrow.read_text())
        raw["embedding"]["dim"] = 2 * transcripts.MOCK_DIM
        wide = tmp_path / "wide.json"
        wide.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["build-index", "--config", str(wide), "--agent", "agent0"]) == 0
        return narrow, wide

    def expected_errors(self, tmp_path, configs):
        index = tmp_path / "index"
        dim = transcripts.MOCK_DIM
        return [
            (configs[0], index / "agents" / "agent0" / "vectors.manifest.json", 2 * dim, dim),
            (configs[1], index / "registry.json", dim, 2 * dim),
        ]

    @pytest.mark.parametrize("command", ["register", "ask"])
    def test_mismatch_exits_2_naming_the_file(self, tmp_path, capsys, configs, command):
        args = {"register": ["--agent", "agent0"], "ask": ["--question", "topic0word0?"]}[command]
        registry = file_hashes(tmp_path / "index")
        for config, manifest, held, configured in self.expected_errors(tmp_path, configs):
            capsys.readouterr()
            assert main([command, "--config", str(config), *args]) == 2
            captured = capsys.readouterr()
            assert captured.out == ""
            assert json.loads(captured.err) == {
                "command": command,
                "error": f"{manifest} holds vectors of dim {held},"
                f" not the configured embedding.dim {configured}",
            }
        assert file_hashes(tmp_path / "index") == registry


class TestBadLines:
    """A bad line of a dataset file exits 2 naming the file and the line; a
    good first line is read, and blank lines are counted. The same bytes
    after a chunk file's one record exit 2 naming the file."""

    @pytest.mark.parametrize("bad, line_no, reason", [
        (b"{not json\n", 2, "malformed JSON: Expecting property name enclosed in double quotes:"
         " line 1 column 2 (char 1)"),
        (b"[]\n", 2, "not a JSON object"),
        (b"null\n", 2, "not a JSON object"),
        (b"{}\n", 2, "question must be a string with a token, not None"),
        (b"\xff\xfe\n", 2, "not UTF-8: byte 0xff at column 1"),
        (b'{"question": "q"}\n', 2, "answers must be a list of strings, not None"),
        (b'{"question": "q", "answers": []}\n', 2,
         "eval item needs at least one groundtruth answer"),
        (b'\n{"question": "q", "answers": 7}\n', 3, "answers must be a list of strings, not 7"),
        (b'{"question": "q", "answers": "Paris"}\n', 2,
         "answers must be a list of strings, not 'Paris'"),
        (b'{"question": "q", "answers": ["a", 1]}\n', 2,
         "answers must be a list of strings, not ['a', 1]"),
        (b'{"question": 42, "answers": ["a"]}\n', 2,
         "question must be a string with a token, not 42"),
        (b'{"question": "   ", "answers": ["a"]}\n', 2,
         "question must be a string with a token, not '   '"),
        (b'{"question": "q", "answers": ["a"], "target_doc_ids": "d1"}\n', 2,
         "target_doc_ids must be a list of strings, not 'd1'"),
        (b'{"question": "q", "answers": ["a"], "target_agent_ids": [7]}\n', 2,
         "target_agent_ids must be a list of strings, not [7]"),
        (b'{"question": "alpha beta \\udcff", "answers": ["a"]}\n', 2,
         "question is not UTF-8: lone surrogate U+DCFF"),
        (b'{"question": "q", "answers": ["a", "\\ud800"]}\n', 2,
         "answers is not UTF-8: lone surrogate U+D800"),
    ])
    def test_bad_dataset_line_exits_2(self, tmp_path, capsys, bad, line_no, reason):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        dataset = topic_dataset(tmp_path, n=1)
        dataset.write_bytes(dataset.read_bytes() + bad)
        capsys.readouterr()
        args = ["eval", "--config", str(config), "--dataset", str(dataset),
                "--report", str(tmp_path / "r")]
        assert main(args) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"command": "eval", "error": f"{dataset} line {line_no}: {reason}"}

    @pytest.mark.parametrize("command", ["eval", "build-index"])
    @pytest.mark.parametrize("bad, line_no", BAD_LINES)
    def test_bad_chunk_line_exits_2(self, tmp_path, capsys, command, bad, line_no):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        chunks = tmp_path / "index" / "agents" / "agent0" / "chunks.jsonl"
        chunks.write_bytes(chunks.read_bytes() + bad)
        capsys.readouterr()
        assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == command
        assert error["error"].startswith(f"{chunks} ")


def repin_registry(index: Path) -> None:
    """Rewrite ``registry.json``'s crc32 as that of ``registry_vectors.bin``."""
    path = index / "registry.json"
    registry = json.loads(path.read_text(encoding="utf-8"))
    registry["crc32"] = zlib.crc32((index / "registry_vectors.bin").read_bytes())
    path.write_text(json.dumps(registry), encoding="utf-8")


def command_args(tmp_path: Path, command: str) -> list[str]:
    """The arguments after --config with which ``command`` reads a built index."""
    if command == "ask":
        return ["--question", "topic0word0?"]
    if command == "eval":
        return ["--dataset", str(topic_dataset(tmp_path)), "--report", str(tmp_path / "r")]
    if command == "register":  # only a one-agent register reads the saved registry
        return ["--agent", "agent0"]
    return []


@pytest.fixture
def one_agent_tree(tmp_path):
    """A built one-agent, two-document index: (config, its chunks.jsonl)."""
    corpus = [
        {"doc_id": "d1", "category": "c", "body": "alpha beta gamma"},
        {"doc_id": "d2", "category": "c", "body": "delta epsilon"},
    ]
    config = write_config(tmp_path, corpus, catch_all_script(), [{"agent_id": "a", "category": "c"}])
    build_lifecycle(config)
    return config, tmp_path / "index" / "agents" / "a" / "chunks.jsonl"


def _with(name, value):
    return lambda columns: {**columns, name: value}


def _with_first(name, value):
    return lambda columns: {**columns, name: [value, *columns[name][1:]]}


class TestChunkFile:
    """``chunks.jsonl`` holds one JSON object of columns, and ``chunks.bin``
    the texts. A file that is not that object, with typed columns of one
    length, exits 2 naming the file and the column, never in a traceback;
    so do the layouts older versions wrote."""

    @pytest.mark.parametrize("command", ["ask", "build-index"])
    def test_texts_in_the_json_exit_2_naming_the_file(self, one_agent_tree, capsys, command):
        """The columns as older versions wrote them, texts and all."""
        config, path = one_agent_tree
        chunks = load_chunks(path)
        path.write_text(json.dumps({name: [getattr(c, name) for c in chunks]
                                    for name in Chunk._fields}), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config),
                     *command_args(path.parents[3], command)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": command,
            "error": f"{path} is valid JSON of the wrong shape: ValueError: its keys are "
                     f"{CHUNK_KEYS}, not {CHUNK_FILE_KEYS}",
        }

    def test_chunk_id_not_a_string_exits_2_at_ask(self, one_agent_tree, capsys):
        config, path = one_agent_tree
        first, *rest = load_chunks(path)
        save_chunks(path, [Chunk(5, first.doc_id, first.text, first.token_start,
                                 first.token_len), *rest])
        capsys.readouterr()
        assert main(["ask", "--config", str(config), "--question", "alpha?"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": "ask",
            "error": f"{path} is valid JSON of the wrong shape: "
                     "TypeError: column 'chunk_id' holds 5, not a string",
        }

    @pytest.mark.parametrize("command", ["ask", "build-index", "eval"])
    @pytest.mark.parametrize("n", [0, 1, 2])
    def test_older_per_line_format_exits_2_naming_the_file(self, one_agent_tree, capsys,
                                                           command, n):
        config, path = one_agent_tree
        older = per_line_bytes(load_chunks(path)[:n])
        path.write_bytes(older)
        capsys.readouterr()
        assert main([command, "--config", str(config),
                     *command_args(path.parents[3], command)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": command,
            "error": per_line_refusal(path, n, len(older.split(b"\n")[0]) + 1),
        }

    @pytest.mark.parametrize("command", ["ask", "build-index"])
    @pytest.mark.parametrize(
        "edit, words",
        [
            (lambda columns: [], "TypeError: [] is not an object"),
            (lambda columns: None, "TypeError: None is not an object"),
            (lambda columns: "columns", "TypeError: 'columns' is not an object"),
            (lambda columns: {"x": []}, f"ValueError: its keys are ['x'], not {CHUNK_FILE_KEYS}"),
            (lambda columns: {k: v for k, v in columns.items() if k != "token_len"},
             "ValueError: its keys are ['chunk_id', 'crc32', 'doc_id', 'text_bytes', "
             f"'token_start'], not {CHUNK_FILE_KEYS}"),
            (_with("title", ["", ""]),
             "ValueError: its keys are ['chunk_id', 'crc32', 'doc_id', 'text_bytes', 'title', "
             f"'token_len', 'token_start'], not {CHUNK_FILE_KEYS}"),
            (_with("doc_id", "d1"), "TypeError: column 'doc_id' is 'd1', not a list"),
            (_with("token_start", {"0": 0}),
             "TypeError: column 'token_start' is {'0': 0}, not a list"),
            (_with("text_bytes", [16]),
             "ValueError: columns have unequal lengths {'chunk_id': 2, 'doc_id': 2, "
             "'text_bytes': 1, 'token_start': 2, 'token_len': 2}"),
            (_with_first("chunk_id", ["d1:00000"]),
             "TypeError: column 'chunk_id' holds ['d1:00000'], not a string"),
            (_with_first("doc_id", None), "TypeError: column 'doc_id' holds None, not a string"),
            (_with_first("text_bytes", "5"),
             "TypeError: column 'text_bytes' holds '5', not an integer"),
            (_with_first("text_bytes", -1),
             "ValueError: column 'text_bytes' holds -1, not a size"),
            (_with("crc32", None), "TypeError: crc32 is None, not a crc32"),
            (_with("crc32", 2**32), "TypeError: crc32 is 4294967296, not a crc32"),
            (_with_first("token_start", "0"),
             "TypeError: column 'token_start' holds '0', not an integer"),
            (_with_first("token_len", True),
             "TypeError: column 'token_len' holds True, not an integer"),
            (_with_first("token_len", 3.0),
             "TypeError: column 'token_len' holds 3.0, not an integer"),
        ],
        ids=["list", "null", "string", "other-keys", "lacks-a-key", "extra-key", "str-column",
             "object-column", "unequal-lengths", "list-id", "null-doc-id", "string-size",
             "negative-size", "null-crc32", "wide-crc32", "string-start", "bool-len",
             "float-len"],
    )
    def test_bad_record_exits_2_naming_file_and_column(self, one_agent_tree, capsys, command,
                                                       edit, words):
        config, path = one_agent_tree
        path.write_text(json.dumps(edit(json.loads(path.read_bytes()))), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config),
                     *command_args(path.parents[3], command)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": command,
            "error": f"{path} is valid JSON of the wrong shape: {words}",
        }


class TestIndexFiles:
    @pytest.mark.parametrize(
        "relpath, command",
        [
            ("agents/agent0/vectors.manifest.json", "ask"),
            ("agents/agent0/bm25.json", "eval"),
            ("registry.json", "register"),
            ("agents/agent0/profile.json", "inspect"),
        ],
    )
    def test_file_that_is_not_json_exits_2_naming_it(self, tmp_path, capsys, relpath, command):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        cases = [
            ("{not json", "is not valid JSON"),
            ("{}", "is valid JSON of the wrong shape"),
            ("[]", "is valid JSON of the wrong shape"),
        ]
        if relpath == "registry.json":
            # the format older versions wrote, the first and last rows' agents
            # swapped (out of agent order), and a dim that is not an integer
            registry = json.loads((tmp_path / "index" / relpath).read_text(encoding="utf-8"))
            agent_of_row = registry["agent_of_row"]
            swapped = [agent_of_row[-1], *agent_of_row[1:-1], agent_of_row[0]]
            for edited in ({"entries": []}, {**registry, "agent_of_row": swapped},
                           {**registry, "dim": 0.5}):
                cases.append((json.dumps(edited), "is valid JSON of the wrong shape"))
        for content, problem in cases:
            (tmp_path / "index" / relpath).write_text(content, encoding="utf-8")
            capsys.readouterr()
            assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
            error = json.loads(capsys.readouterr().err)
            assert error["command"] == command
            assert f"{Path(relpath).name} {problem}" in error["error"]

    @pytest.mark.parametrize(
        "relpath, names_row",
        [("agents/agent0/vectors.bin", "row 0 "), ("registry_vectors.bin", "centroid agent0#0 ")],
    )
    @pytest.mark.parametrize("command", ["ask", "eval", "register"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0])
    def test_vector_row_nan_or_zero_exits_2_naming_the_bin(
        self, tmp_path, capsys, relpath, names_row, command, value
    ):
        """The registry's crc32 is rewritten to match, so the row itself is
        what is refused."""
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        bin_path = tmp_path / "index" / relpath
        rows = np.fromfile(bin_path, dtype="<f4").reshape(-1, transcripts.MOCK_DIM)
        rows[0, 0 if np.isnan(value) else slice(None)] = value
        rows.tofile(bin_path)
        if relpath == "registry_vectors.bin":
            repin_registry(tmp_path / "index")
        capsys.readouterr()
        assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == command
        assert f"{bin_path}: {names_row}" in error["error"]
        assert "zero or not finite" in error["error"]

    @pytest.mark.parametrize(
        "content, problem",
        [
            ("[{not json", "is not valid JSON"),
            ("{}", "is valid JSON of the wrong shape"),
            ('[{"match": "x"}]', "is valid JSON of the wrong shape"),
            ('[{"match": 1, "reply": "r"}]', "is valid JSON of the wrong shape"),
        ],
    )
    def test_script_file_not_a_script_exits_2_naming_it(self, tmp_path, capsys, content, problem):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        (tmp_path / "script.json").write_text(content, encoding="utf-8")
        capsys.readouterr()
        assert main(["ask", "--config", str(config), *command_args(tmp_path, "ask")]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "ask"
        assert f"script.json {problem}" in error["error"]

    @pytest.mark.parametrize("renamed", [slice(None), slice(1)], ids=["every", "first"])
    def test_registry_agent_id_not_a_string_exits_2_naming_it(self, tmp_path, capsys, renamed):
        """Numeric agent ids for the ``renamed`` rows."""
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        path = tmp_path / "index" / "registry.json"
        registry = json.loads(path.read_text(encoding="utf-8"))
        agent_of_row = registry["agent_of_row"]
        agent_of_row[renamed] = [10 + int(a.removeprefix("agent")) for a in agent_of_row[renamed]]
        path.write_text(json.dumps(registry), encoding="utf-8")
        capsys.readouterr()
        assert main(["ask", "--config", str(config), *command_args(tmp_path, "ask")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": "ask",
            "error": f"{path} is valid JSON of the wrong shape: "
                     f"TypeError: agent_of_row must be a list of strings, not {agent_of_row!r:.40}",
        }

    @pytest.mark.parametrize(
        "relpath, field",
        [("agents/agent0/vectors.manifest.json", "chunk_ids"), ("registry.json", "agent_of_row")],
        ids=["agents/agent0/vectors", "registry"],
    )
    def test_manifest_ids_as_an_object_exit_2_naming_it(self, tmp_path, capsys, relpath, field):
        """An object keyed by the right ids is not taken as its keys."""
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        manifest = tmp_path / "index" / relpath
        fields = json.loads(manifest.read_text(encoding="utf-8"))
        fields[field] = dict.fromkeys(fields[field], 0)
        manifest.write_text(json.dumps(fields), encoding="utf-8")
        capsys.readouterr()
        assert main(["ask", "--config", str(config), *command_args(tmp_path, "ask")]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": "ask",
            "error": f"{manifest} is valid JSON of the wrong shape: TypeError: "
                     f"{field} must be a list of strings, not {fields[field]!r:.40}",
        }

    def test_rows_that_cancel_out_exit_2_at_register_naming_the_agents_bin(self, tmp_path,
                                                                           capsys):
        """Two chunks make one cluster, whose mean is zero when their rows
        cancel out: there is no centroid to route by, and the registry as it
        was stays."""
        corpus = [{"doc_id": f"d{i}", "category": "c", "body": "alpha beta"} for i in range(2)]
        config = write_config(tmp_path, corpus, catch_all_script(),
                              [{"agent_id": "a", "category": "c"}])
        build_lifecycle(config)
        before = file_hashes(tmp_path / "index")
        vectors = tmp_path / "index" / "agents" / "a" / "vectors"
        matrix, ids = load_vectors(vectors)
        save_vectors(vectors, np.stack([matrix[0], -matrix[0]]), ids)
        capsys.readouterr()
        assert main(["register", "--config", str(config)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert json.loads(captured.err) == {
            "command": "register",
            "error": f"{vectors}.bin: centroid a#0 is zero or not finite",
        }
        after = file_hashes(tmp_path / "index")
        assert {k: v for k, v in after.items() if k.startswith("registry")} == {
            k: v for k, v in before.items() if k.startswith("registry")
        }

    @pytest.mark.parametrize("command", ["ask", "eval", "register"])
    def test_a_flipped_bit_in_the_registry_bin_exits_2_naming_it(self, tmp_path, capsys,
                                                                  command):
        """The lowest bit of the first centroid's first float: a value still
        finite and not zero, which only the crc32 tells from the one saved."""
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        bin_path = tmp_path / "index" / "registry_vectors.bin"
        data = bytearray(bin_path.read_bytes())
        data[0] ^= 1
        bin_path.write_bytes(bytes(data))
        capsys.readouterr()
        assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == command
        assert error["error"].startswith(f"{bin_path} has crc32 ")

    @pytest.mark.parametrize("command", ["ask", "eval"])
    def test_registry_agent_missing_from_config_exits_2(self, tmp_path, capsys, command):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        raw = json.loads(config.read_text())
        raw["agents"] = raw["agents"][1:]
        config.write_text(json.dumps(raw), encoding="utf-8")
        capsys.readouterr()
        assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == command
        assert "agent0" in error["error"]


def _swap(seq: list, i: int, j: int) -> None:
    seq[i], seq[j] = seq[j], seq[i]


def _second_row_of_a_term(ix: dict) -> int:
    """The place of the second posting of the first term with two."""
    offsets = ix["offsets"]
    return next(offsets[t] + 1 for t in range(len(offsets) - 1) if offsets[t + 1] - offsets[t] > 1)


# One damage per check that loading a BM25 index makes, each with the words
# of the refusal it must cause.
BM25_DAMAGE = {
    "size": (lambda ix: ix.update(n_postings=len(ix["rows"]) + 1), "its manifest needs"),
    "offsets-start": (lambda ix: ix["offsets"].__setitem__(0, 1), "offsets must start at 0"),
    "offsets-end": (
        lambda ix: ix["offsets"].__setitem__(-1, ix["offsets"][-1] - 1), "end at "
    ),
    "offsets-flat": (lambda ix: ix["offsets"].__setitem__(1, 0), "rise strictly"),
    "row-outside": (
        lambda ix: ix["rows"].__setitem__(-1, len(ix["chunk_ids"])), "is outside [0, "
    ),
    "rows-falling": (
        lambda ix: _swap(ix["rows"], _second_row_of_a_term(ix) - 1, _second_row_of_a_term(ix)),
        "do not rise strictly",
    ),
    "tf-zero": (lambda ix: ix["tf"].__setitem__(0, 0), "term frequency is below 1"),
    "doc-len": (
        lambda ix: ix["doc_len"].__setitem__(0, ix["doc_len"][0] + 1), "term frequencies sum to"
    ),
    "terms-unsorted": (lambda ix: _swap(ix["terms"], 0, 1), "terms are not sorted and unique"),
    "chunk-ids-repeated": (
        lambda ix: ix["chunk_ids"].__setitem__(1, ix["chunk_ids"][0]),
        "chunk ids are not sorted and unique",
    ),
}


@pytest.fixture(scope="module")
def bm25_tree(tmp_path_factory):
    """A built two-agent index whose agent0 holds four chunks, with the
    bytes of agent0's BM25 manifest and arrays as built."""
    root = tmp_path_factory.mktemp("bm25")
    corpus, agents = topic_corpus_and_agents(2)
    chunking = {"chunk_tokens": 4, "overlap_tokens": 1}
    config = write_config(root, corpus, catch_all_script(), agents, chunking=chunking)
    build_lifecycle(config)
    path = root / "index" / "agents" / "agent0" / "bm25.json"
    return config, path, path.read_bytes(), path.with_suffix(".bin").read_bytes()


class TestBm25Store:
    @staticmethod
    def arrays(manifest: bytes, binary: bytes) -> dict:
        """The manifest and arrays of a BM25 index, as plain lists."""
        ix = json.loads(manifest)
        v, p, n = len(ix["terms"]), ix["n_postings"], len(ix["chunk_ids"])
        at = 8 * (v + 1)
        ix["offsets"] = np.frombuffer(binary, "<i8", v + 1).tolist()
        for k, name in enumerate(("rows", "tf")):
            ix[name] = np.frombuffer(binary, "<i4", p, at + 4 * p * k).tolist()
        ix["doc_len"] = np.frombuffer(binary, "<i4", n, at + 8 * p).tolist()
        return ix

    @staticmethod
    def ask_error(config: Path, capsys) -> dict:
        capsys.readouterr()
        assert main(["ask", "--config", str(config), "--question", "topic0word0?"]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert sorted(error) == ["command", "error"] and error["command"] == "ask"
        return error

    @pytest.mark.parametrize("damage", sorted(BM25_DAMAGE))
    def test_damaged_index_exits_2_naming_the_file(self, bm25_tree, capsys, damage):
        config, path, manifest, binary = bm25_tree
        ix = self.arrays(manifest, binary)
        assert len(ix["chunk_ids"]) == 4 and len(ix["rows"]) > len(ix["terms"])
        change, words = BM25_DAMAGE[damage]
        change(ix)
        arrays = zip(("<i8", "<i4", "<i4", "<i4"), ("offsets", "rows", "tf", "doc_len"))
        try:
            path.with_suffix(".bin").write_bytes(
                b"".join(np.asarray(ix.pop(name), dt).tobytes() for dt, name in arrays)
            )
            path.write_text(json.dumps(ix), encoding="utf-8")
            error = self.ask_error(config, capsys)["error"]
        finally:
            path.write_bytes(manifest)
            path.with_suffix(".bin").write_bytes(binary)
        assert str(path.with_suffix(".bin" if damage == "size" else ".json")) in error
        assert words in error

    def test_index_in_the_older_json_format_exits_2_naming_the_file(self, bm25_tree, capsys):
        """JSON postings, as older versions wrote them, lack the manifest's
        fields."""
        config, path, manifest, binary = bm25_tree
        older = {"doc_len": {"doc-t0:00000": 1}, "postings": {"topic0word0": {"doc-t0:00000": 1}}}
        try:
            path.write_text(json.dumps(older), encoding="utf-8")
            error = self.ask_error(config, capsys)["error"]
        finally:
            path.write_bytes(manifest)
        assert error == f"{path} is valid JSON of the wrong shape: KeyError: 'terms'"

    def test_undamaged_index_answers(self, bm25_tree, capsys):
        config, _, _, _ = bm25_tree
        assert main(["ask", "--config", str(config), "--question", "topic0word0?"]) == 0

    def test_build_index_refuses_a_chunk_id_twice(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        assert main(["ingest", "--config", str(config)]) == 0
        chunks = tmp_path / "index" / "agents" / "agent0" / "chunks.jsonl"
        save_chunks(chunks, load_chunks(chunks) * 2)
        capsys.readouterr()
        assert main(["build-index", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "command": "build-index",
            "error": f"{chunks}: chunk ids are not sorted and unique at 'doc-t0:00000'",
        }


def row_order_corpus() -> list[dict]:
    """Doc ids out of chunk_id order (d10 sorts before d3, d1 before d2) in
    two interleaved categories, each doc several chunks long."""
    return [
        {"doc_id": doc_id, "category": category,
         "body": " ".join(f"{doc_id}w{i} topic{category}" for i in range(10))}
        for doc_id, category in (("d3", "ca"), ("d2", "cb"), ("d10", "ca"), ("d1", "cb"))
    ]


class TestRowOrder:
    """An agent's chunks.jsonl, vectors and BM25 index list its chunks in one
    order, chunk_id order, whatever order the corpus holds them in."""

    AGENTS = [{"agent_id": "ca", "category": "ca"}, {"agent_id": "cb", "category": "cb"}]
    CHUNKING = {"chunk_tokens": 8, "overlap_tokens": 2}

    def build_and_ask(self, root: Path, corpus: list[dict], capsys) -> tuple[dict, str, list]:
        root.mkdir()
        config = write_config(root, corpus, catch_all_script(), self.AGENTS, chunking=self.CHUNKING)
        build_lifecycle(config)
        capsys.readouterr()
        trace = root / "trace.json"
        question = ["--question", "d3w1 topicca d1w2?", "--trace", str(trace)]
        assert main(["ask", "--config", str(config), *question]) == 0
        files = {
            f"{agent}/{name}": (root / "index" / "agents" / agent / name).read_bytes()
            for agent in ("ca", "cb")
            for name in ("chunks.jsonl", "vectors.bin", "vectors.manifest.json", "bm25.json",
                         "bm25.bin")
        }
        return files, capsys.readouterr().out, json.loads(trace.read_text())["prompt_sha256"]

    def test_corpus_order_leaves_no_trace_in_the_index_or_the_answer(self, tmp_path, capsys):
        corpus = row_order_corpus()
        files, out, prompts = self.build_and_ask(tmp_path / "shuffled", corpus, capsys)
        for agent, doc_ids in (("ca", ["d10", "d3"]), ("cb", ["d1", "d2"])):
            ids = json.loads(files[f"{agent}/chunks.jsonl"])["chunk_id"]
            assert [i.split(":")[0] for i in ids] == sorted(doc_ids * (len(ids) // 2))
            assert ids == sorted(ids) and len(ids) > 2
            assert json.loads(files[f"{agent}/vectors.manifest.json"])["chunk_ids"] == ids
            assert json.loads(files[f"{agent}/bm25.json"])["chunk_ids"] == ids
        in_order = sorted(corpus, key=lambda rec: rec["doc_id"])
        assert (files, out, prompts) == self.build_and_ask(tmp_path / "sorted", in_order, capsys)

    def test_chunks_in_corpus_order_are_refused_naming_the_file(self, tmp_path, capsys):
        """A chunks.jsonl in corpus order, as older versions wrote it, stops
        both build-index and ask (exit 2), naming the file and the first
        chunk out of place."""
        config = write_config(
            tmp_path, row_order_corpus(), catch_all_script(), self.AGENTS, chunking=self.CHUNKING
        )
        build_lifecycle(config)
        path = tmp_path / "index" / "agents" / "ca" / "chunks.jsonl"
        chunks = load_chunks(path)
        save_chunks(path, sorted(chunks, key=lambda c: c.doc_id != "d3"))
        capsys.readouterr()
        assert main(["ask", "--config", str(config), "--question", "topicca?"]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            "agent ca: chunks.jsonl: row 0 is chunk 'd3:00000', bm25.json's is 'd10:00000'"
        )
        assert main(["build-index", "--config", str(config)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == (
            f"{path}: chunk ids are not sorted and unique at 'd10:00000'"
        )

    @pytest.mark.parametrize("name", ["chunks.jsonl", "vectors.manifest.json"])
    @pytest.mark.parametrize(
        "order, message",
        [
            ([0, 2, 3, 4, 5], "row 1 is chunk 'd10:00002', bm25.json's is 'd10:00001'"),
            ([0, 1, 2, 3, 4, 5, 5], "row 6 is chunk 'd3:00002', bm25.json's is None"),
            ([0, 1, 1, 2, 3, 4, 5], "row 2 is chunk 'd10:00001', bm25.json's is 'd10:00002'"),
            ([1, 0, 2, 3, 4, 5], "row 0 is chunk 'd10:00001', bm25.json's is 'd10:00000'"),
            ([0, 1, 2, 3, 4], "row 5 is chunk None, bm25.json's is 'd3:00002'"),
        ],
        ids=["missing", "extra", "twice", "out-of-order", "short"],
    )
    def test_rows_that_are_not_bm25s_exit_2_naming_the_first(self, tmp_path, capsys, name,
                                                             order, message):
        """Agent ca's six rows, re-saved in ``order`` in one file."""
        config = write_config(
            tmp_path, row_order_corpus(), catch_all_script(), self.AGENTS, chunking=self.CHUNKING
        )
        build_lifecycle(config)
        adir = tmp_path / "index" / "agents" / "ca"
        if name == "chunks.jsonl":
            chunks = load_chunks(adir / "chunks.jsonl")
            assert len(chunks) == 6
            save_chunks(adir / name, [chunks[i] for i in order])
        else:
            matrix, ids = load_vectors(adir / "vectors")
            save_vectors(adir / "vectors", matrix[order], [ids[i] for i in order])
        capsys.readouterr()
        assert main(["ask", "--config", str(config), "--question", "topicca?"]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": "ask", "error": f"agent ca: {name}: {message}"
        }


class TestInspect:
    def test_summary_lists_agents_and_registry(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, [], agents)
        build_lifecycle(config)
        capsys.readouterr()
        assert main(["inspect", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert summary["registry"]["agents"] == 2
        assert {a["agent_id"] for a in summary["agents"]} == {"agent0", "agent1"}
        assert all("clusters" in a for a in summary["agents"])

    @pytest.mark.parametrize("field, value", [("m", "12"), ("n", 3.9), ("n", True)])
    def test_counts_that_are_not_integers_exit_2_naming_the_profile(self, tmp_path, capsys,
                                                                    field, value):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, [], agents)
        build_lifecycle(config)
        profile = tmp_path / "index" / "agents" / "agent0" / "profile.json"
        fields = json.loads(profile.read_text(encoding="utf-8"))
        profile.write_text(json.dumps({**fields, field: value}), encoding="utf-8")
        capsys.readouterr()
        assert main(["inspect", "--config", str(config)]) == 2
        assert json.loads(capsys.readouterr().err) == {
            "command": "inspect",
            "error": f"{profile} is valid JSON of the wrong shape: "
                     f"TypeError: {field} must be an integer, not {value!r}",
        }


class TestConfigValidation:
    def test_duplicate_agent_ids_rejected(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            [{"doc_id": "d", "category": "c", "body": "words"}],
            [],
            [{"agent_id": "a", "category": "c"}, {"agent_id": "a", "category": "c2"}],
        )
        assert main(["ingest", "--config", str(config)]) == 2
        assert "unique" in json.loads(capsys.readouterr().err.strip())["error"]

    def test_unreadable_config_rejected(self, tmp_path, capsys):
        missing = tmp_path / "none.json"
        assert main(["ingest", "--config", str(missing)]) == 2

    @pytest.mark.parametrize(
        "content",
        [b"[]", b"null", b'"config"', b"\xff\xfe{}", b'{"corpus_path": "c\xe9"}', None],
    )
    def test_config_that_is_not_a_utf8_json_object_exits_2(self, tmp_path, capsys, content):
        config = write_config(tmp_path, [], [], [{"agent_id": "a", "category": "c"}])
        if content is None:  # a section of the wrong type
            raw = json.loads(config.read_text(encoding="utf-8"))
            raw["router"] = []
            content = json.dumps(raw).encode()
        config.write_bytes(content)
        assert main(["ingest", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "ingest"
        assert "config" in error["error"]

    @pytest.mark.parametrize(
        "content, problem",
        [
            (b"{not json", "is not valid JSON: Expecting property name enclosed in double quotes:"
             " line 1 column 2 (char 1)"),
            (b"\xff{}", "is not valid JSON: 'utf-8' codec can't decode byte 0xff in position 0:"
             " invalid start byte"),
            (b"[]", "is valid JSON of the wrong shape: TypeError: config must be a JSON object,"
             " not list"),
            (b"{}", "is valid JSON of the wrong shape: KeyError: 'embedding'"),
        ],
    )
    def test_config_error_names_the_file(self, tmp_path, capsys, content, problem):
        config = tmp_path / "config.json"
        config.write_bytes(content)
        assert main(["inspect", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"command": "inspect", "error": f"{config} {problem}"}

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("section, key", [("router", "max_agents"), ("planner", "max_rounds")])
    def test_count_below_1_rejected_at_load(self, tmp_path, capsys, section, key, value):
        agents = [{"agent_id": "a", "category": "c"}]
        config = write_config(tmp_path, [], [], agents, **{section: {key: value}})
        assert main(["inspect", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        problem = f"is valid JSON of the wrong shape: ValueError: {section}.{key} must be >= 1"
        assert error == {"command": "inspect", "error": f"{config} {problem}"}

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("router", "parallelism", 0, "router.parallelism must be >= 1"),
            ("router", "parallelism", -3, "router.parallelism must be >= 1"),
            ("router", "max_agents", 2.7, "router.max_agents must be an integer, not 2.7"),
            ("router", "max_agents", True, "router.max_agents must be an integer, not True"),
            ("router", "max_agents", "5", "router.max_agents must be an integer, not '5'"),
            ("router", "parallelism", None, "router.parallelism must be an integer, not None"),
            ("planner", "max_rounds", 1.5, "planner.max_rounds must be an integer, not 1.5"),
            ("agent", "retrieval_depth", 20.5, "retrieval_depth must be an integer, not 20.5"),
            ("agent", "min_keep", True, "min_keep must be an integer, not True"),
            ("agent", "rerank_threshold", "0.3", "rerank_threshold must be a number, not '0.3'"),
            ("agent", "rerank_threshold", True, "rerank_threshold must be a number, not True"),
            ("agent", "rerank_threshold", float("nan"), "rerank_threshold must be finite, not nan"),
            ("agent", "rerank_threshold", float("inf"), "rerank_threshold must be finite, not inf"),
            pytest.param("agent", "rerank_threshold", 10**400,
                         "rerank_threshold must be finite, not 1000", id="threshold-huge"),
        ],
    )
    def test_count_or_threshold_of_the_wrong_type_rejected_at_load(
        self, tmp_path, capsys, section, key, value, message
    ):
        agent = {"agent_id": "a", "category": "c"}
        sections = {}
        if section == "agent":
            agent[key] = value
        else:
            sections[section] = {key: value}
        config = write_config(tmp_path, [], [], [agent], **sections)
        assert main(["inspect", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["command"] == "inspect"
        assert message in error["error"]

    @pytest.mark.parametrize(
        "section, key, value, message",
        [
            ("embedding", "dim", 2.5, "dim must be an integer, not 2.5"),
            ("embedding", "dim", True, "dim must be an integer, not True"),
            ("embedding", "dim", 10**20,
             "ValueError: dim must be at most 65536, not 100000000000000000000"),
            ("embedding", "dim", 2**40, "ValueError: dim must be at most 65536, not 1099511627776"),
            ("chat", "max_rounds_retry", "2", "max_rounds_retry must be an integer, not '2'"),
            ("chat", "max_rounds_retry", -1, "max_rounds_retry must be >= 0"),
            ("agent", "agent_id", 5, "agent_id must be a string, not 5"),
            ("agent", "agent_id", "../../escaped",
             "agent_id must name one directory, not '../../escaped'"),
            ("agent", "agent_id", "a\\b", "agent_id must name one directory, not 'a\\\\b'"),
            ("agent", "agent_id", "..", "agent_id must name one directory, not '..'"),
            ("agent", "agent_id", ".", "agent_id must name one directory, not '.'"),
            ("agent", "agent_id", "", "agent_id must name one directory, not ''"),
            ("agent", "category", 5, "category must be a string, not 5"),
            ("agent", "chunking", [], "TypeError: ragroute.corpus.ChunkingConfig() argument"),
            ("agent", "chunking", {}, "TypeError: ChunkingConfig.__init__() missing 2 required"),
            ("chat", "script_path", 5, "TypeError: script_path must be a string, not 5"),
            ("chat", "api_key_env", ["K"], "TypeError: api_key_env must be a string, not ['K']"),
            ("embedding", "api_key_env", 5, "TypeError: api_key_env must be a string, not 5"),
            ("embedding", "model_name", 7, "TypeError: model_name must be a string, not 7"),
            ("chat", "temperature", True, "TypeError: temperature must be a number, not True"),
            ("chat", "temperature", "x", "TypeError: temperature must be a number, not 'x'"),
            ("chat", "temperature", [], "TypeError: temperature must be a number, not []"),
            ("chat", "temperature", {}, "TypeError: temperature must be a number, not {}"),
            ("chat", "temperature", None, "TypeError: temperature must be a number, not None"),
            ("chat", "temperature", float("nan"), "ValueError: temperature must be finite, not nan"),
            ("chat", "temperature", float("inf"), "ValueError: temperature must be finite, not inf"),
            pytest.param("chat", "temperature", -(10**400),
                         "ValueError: temperature must be finite, not -100", id="temperature-huge"),
        ],
    )
    def test_field_of_the_wrong_type_or_value_exits_2_before_any_write(
        self, tmp_path, capsys, section, key, value, message
    ):
        corpus = [{"doc_id": "d", "category": "c", "body": "words"}]
        config = write_config(tmp_path, corpus, [], [{"agent_id": "a", "category": "c"}])
        raw = json.loads(config.read_text(encoding="utf-8"))
        (raw["agents"][0] if section == "agent" else raw[section])[key] = value
        config.write_text(json.dumps(raw), encoding="utf-8")
        for command in ("ingest", "build-index", "register"):
            assert main([command, "--config", str(config)]) == 2
            error = json.loads(capsys.readouterr().err)
            assert error["command"] == command and message in error["error"]
            assert error["error"].startswith(f"{config} is valid JSON of the wrong shape: ")
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "config.json", "corpus.jsonl", "script.json"
        ]

    @pytest.mark.parametrize(
        "value, problem",
        [(True, "must be a number, not True"), ("0.5", "must be a number, not '0.5'")],
        ids=["true", "string"],
    )
    def test_remote_temperature_that_is_not_a_number_exits_2(
        self, tmp_path, capsys, value, problem
    ):
        config = write_config(tmp_path, [], [], [{"agent_id": "a", "category": "c"}])
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["chat"] = {"backend": "remote_http", "endpoint": "http://127.0.0.1:9/v1",
                       "temperature": value}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["inspect", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {
            "command": "inspect",
            "error": f"{config} is valid JSON of the wrong shape: TypeError: temperature {problem}",
        }

    def test_integral_remote_temperature_accepted(self, tmp_path, capsys):
        config = write_config(tmp_path, [], [], [{"agent_id": "a", "category": "c"}])
        raw = json.loads(config.read_text(encoding="utf-8"))
        raw["chat"] = {"backend": "remote_http", "endpoint": "http://127.0.0.1:9/v1",
                       "temperature": 1}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["inspect", "--config", str(config)]) == 0

    def test_chunking_is_1024_40_when_absent_and_refused_when_empty(self, tmp_path, capsys):
        config = write_config(tmp_path, [], [], [{"agent_id": "a", "category": "c"}])
        raw = json.loads(config.read_text(encoding="utf-8"))
        del raw["chunking"]
        config.write_text(json.dumps(raw), encoding="utf-8")
        cfg = SystemConfig.from_file(config)
        assert cfg.chunking == cfg.agents[0].chunking == ChunkingConfig(1024, 40)
        raw["chunking"] = {}
        config.write_text(json.dumps(raw), encoding="utf-8")
        assert main(["inspect", "--config", str(config)]) == 2
        error = json.loads(capsys.readouterr().err)["error"]
        assert "TypeError: ChunkingConfig.__init__() missing 2 required" in error

    def test_integral_threshold_accepted(self, tmp_path, capsys):
        agents = [{"agent_id": "a", "category": "c", "rerank_threshold": 0}]
        config = write_config(tmp_path, [], [], agents)
        assert main(["inspect", "--config", str(config)]) == 0

    @pytest.mark.parametrize(
        "command, flag, value",
        [("ask", "--max-agents", "0"), ("ask", "--max-rounds", "0"),
         ("ask", "--max-rounds", "-1"), ("eval", "--max-agents", "0")],
    )
    def test_count_flag_below_1_exits_2(self, tmp_path, capsys, command, flag, value):
        config = write_config(tmp_path, transcripts.WD_CORPUS, transcripts.WD_SCRIPT, wd_agents())
        build_lifecycle(config)
        dataset = tmp_path / "dataset.jsonl"
        dataset.write_text("", encoding="utf-8")
        extra = {
            "ask": ["--question", transcripts.WD_QUESTION, "--multihop"],
            "eval": ["--dataset", str(dataset), "--report", str(tmp_path / "report")],
        }[command]
        capsys.readouterr()
        assert main([command, "--config", str(config), *extra, flag, value]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error == {"command": command, "error": f"{flag} must be >= 1"}


def test_cli_import_does_not_load_requests():
    """The package runs on numpy and the standard library: importing the CLI
    in a fresh interpreter loads no ``requests`` module."""
    probe = "import sys, ragroute.cli; print(sorted(m for m in sys.modules if m.split('.')[0] == 'requests'))"
    env = dict(os.environ, PYTHONPATH=str(Path(ragroute.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def test_cli_import_does_not_load_http_client():
    """Only the remote backends talk HTTP: importing the CLI in a fresh
    interpreter loads neither ``http.client`` nor ``email.utils``, which
    with ``ssl`` cost a cold start ~30 ms."""
    probe = (
        "import sys, ragroute.cli; "
        "print([m for m in ('http.client', 'email.utils') if m in sys.modules])"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(ragroute.__file__).parents[1]))
    done = subprocess.run(
        [sys.executable, "-c", probe], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout == "[]\n"


def _flip_middle_byte(data: bytes) -> bytes:
    mid = len(data) // 2
    return data[:mid] + bytes([data[mid] ^ 0xFF]) + data[mid + 1 :]


CORRUPTIONS = {
    "empty": lambda data: b"",
    "list": lambda data: b"[]",
    "null": lambda data: b"null",
    "bom": lambda data: b"\xff\xfe" + data,
    "half": lambda data: data[: len(data) // 2],
    "flip": _flip_middle_byte,
    "nested": lambda data: b"[" * 200_000,
}

SWEEP_COMMANDS = {
    "inspect": [],
    "ask": ["--question", "topic0word0 topic0word3?"],
    "eval": ["--dataset", "{root}/items.jsonl", "--report", "{root}/report/r"],
    "ingest": [],
    "register": [],
    "register --agent": ["--agent", "agent0"],
}


@pytest.fixture(scope="module")
def built_tree(tmp_path_factory):
    """A small built index with its config, chat script, corpus and dataset,
    and a snapshot of every file in it, as ``(root, {path: bytes})``."""
    root = tmp_path_factory.mktemp("sweep")
    corpus, agents = topic_corpus_and_agents(2)
    config = write_config(root, corpus, catch_all_script(), agents)
    topic_dataset(root, n=2)
    for command in ("ingest", "build-index", "register"):
        assert main([command, "--config", str(config)]) == 0
    return root, {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def restore(root: Path, snapshot: dict[Path, bytes]) -> None:
    for path in [p for p in root.rglob("*") if p.is_file() and p not in snapshot]:
        path.unlink()
    for path, data in snapshot.items():
        path.write_bytes(data)


class TestCorruptionSweep:
    """Every input file and every file of a built index, damaged seven ways,
    under every command: each run exits 0, 1 or 2, prints a one-line JSON
    ``{"command", "error"}`` on stderr when it does not exit 0, and never
    raises."""

    @staticmethod
    def escape(root: Path, command: str, capsys) -> str | None:
        """Why the run of ``command`` broke the contract, or None."""
        name = command.split()[0]
        extra = [arg.format(root=root) for arg in SWEEP_COMMANDS[command]]
        capsys.readouterr()
        try:
            code = main([name, "--config", str(root / "config.json"), *extra])
        except Exception as exc:  # the sweep records every escape
            return f"raised {exc!r}"
        captured = capsys.readouterr()
        if code not in (0, 1, 2):
            return f"exit {code}"
        if code == 0:
            return None
        lines = captured.err.splitlines()
        try:
            error = json.loads(lines[0]) if len(lines) == 1 else None
        except ValueError:
            error = None
        if not isinstance(error, dict) or sorted(error) != ["command", "error"]:
            return f"exit {code} with stderr {captured.err!r}"
        if error["command"] != name:
            return f"exit {code} naming command {error['command']!r}"
        return None

    @pytest.mark.parametrize("command", sorted(SWEEP_COMMANDS))
    def test_every_file_every_corruption(self, built_tree, capsys, command):
        root, snapshot = built_tree
        escapes = []
        for path, data in snapshot.items():
            for kind, corrupt in CORRUPTIONS.items():
                restore(root, snapshot)
                path.write_bytes(corrupt(data))
                why = self.escape(root, command, capsys)
                if why:
                    escapes.append(f"{path.relative_to(root)} {kind}: {why}")
        restore(root, snapshot)
        assert escapes == []

    @pytest.mark.parametrize("name", ["chunks.jsonl", "vectors.manifest.json", "bm25.json"])
    def test_valid_json_naming_other_chunk_ids(self, built_tree, capsys, name):
        """One file of an agent names another chunk than the other two: every
        command keeps the contract, and ask and eval refuse the agent at load
        (exit 2), naming it and the chunk."""
        root, snapshot = built_tree
        path = root / "index" / "agents" / "agent0" / name
        renamed = snapshot[path].replace(b'"doc-t0:00000"', b'"doc-t0:00009"')
        assert renamed != snapshot[path]
        for command in sorted(SWEEP_COMMANDS):
            restore(root, snapshot)
            path.write_bytes(renamed)
            assert self.escape(root, command, capsys) is None, command
        for command in ("ask", "eval"):
            restore(root, snapshot)
            path.write_bytes(renamed)
            extra = [arg.format(root=root) for arg in SWEEP_COMMANDS[command]]
            capsys.readouterr()
            assert main([command, "--config", str(root / "config.json"), *extra]) == 2
            error = json.loads(capsys.readouterr().err)["error"]
            assert error.startswith("agent agent0: ") and "'doc-t0:00000'" in error
        restore(root, snapshot)

    @pytest.mark.parametrize(
        "doc_id", [["x"], {"k": "v"}, 5], ids=["list", "object", "number"]
    )
    def test_corpus_doc_id_not_a_string(self, built_tree, capsys, doc_id):
        root, snapshot = built_tree
        restore(root, snapshot)
        corpus = root / "corpus.jsonl"
        record = {"doc_id": doc_id, "category": "cat0", "body": "topic0word0 words"}
        corpus.write_bytes(snapshot[corpus] + json.dumps(record).encode() + b"\n")
        for command in sorted(SWEEP_COMMANDS):
            assert self.escape(root, command, capsys) is None, command
        restore(root, snapshot)
