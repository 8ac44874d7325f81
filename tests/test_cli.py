from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

import transcripts
from ragroute.cli import main


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
        assert len(registry["entries"]) == profile_a["n"] + profile_b["n"]
        assert '"agents": 2' in out

    def test_register_drops_an_agent_whose_chunks_are_gone(self, tmp_path, capsys):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, [], agents)
        build_lifecycle(config)
        transcripts.write_jsonl(tmp_path / "corpus.jsonl", corpus[:1])
        capsys.readouterr()
        build_lifecycle(config)
        assert json.loads(capsys.readouterr().out.splitlines()[-1])["agents"] == 1
        registry = json.loads((tmp_path / "index" / "registry.json").read_text())
        assert {e["agent_id"] for e in registry["entries"]} == {"agent0"}
        emptied = tmp_path / "index" / "agents" / "agent1"
        assert sorted(p.name for p in emptied.iterdir()) == [
            "bm25.json", "chunks.jsonl", "vectors.bin", "vectors.manifest.json"
        ]
        assert main(["inspect", "--config", str(config)]) == 0
        summary = json.loads(capsys.readouterr().out)
        assert [a for a in summary["agents"] if a["agent_id"] == "agent1"] == [
            {"agent_id": "agent1", "category": "cat1"}
        ]

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
        summary = json.loads(capsys.readouterr().out.strip())
        assert summary["documents"] == 1
        assert len(summary["record_errors"]) == 1

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
        chunks = (tmp_path / "index" / "agents" / "a" / "chunks.jsonl").read_text()
        assert [json.loads(line)["doc_id"] for line in chunks.splitlines()] == ["good", "last"]

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
        chunks = (tmp_path / "index" / "agents" / "a" / "chunks.jsonl").read_text()
        records = [json.loads(line) for line in chunks.splitlines()]
        assert len(records) == 3
        assert records[0]["token_len"] == 16

    def test_invalid_chunking_flags_exit_2(self, tmp_path, capsys):
        config = write_config(
            tmp_path,
            [{"doc_id": "d", "category": "c", "body": "words"}],
            [],
            [{"agent_id": "a", "category": "c"}],
        )
        assert main(["ingest", "--config", str(config), "--overlap-tokens", "300"]) == 2
        assert "overlap_tokens" in json.loads(capsys.readouterr().err.strip())["error"]

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


class TestBadLines:
    """A bad line of a dataset or chunk file exits 2 naming the file and the
    line; a good first line is read, and blank lines are counted."""

    @pytest.mark.parametrize("bad, line_no", BAD_LINES + [
        (b'{"question": "q"}\n', 2),
        (b'{"question": "q", "answers": []}\n', 2),
        (b'\n{"question": "q", "answers": 7}\n', 3),
    ])
    def test_bad_dataset_line_exits_2(self, tmp_path, capsys, bad, line_no):
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
        assert error["command"] == "eval"
        assert f"{dataset} line {line_no}:" in error["error"]

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
        assert f"{chunks} line {line_no}:" in error["error"]


def command_args(tmp_path: Path, command: str) -> list[str]:
    """The arguments after --config with which ``command`` reads a built index."""
    if command == "ask":
        return ["--question", "topic0word0?"]
    if command == "eval":
        return ["--dataset", str(topic_dataset(tmp_path)), "--report", str(tmp_path / "r")]
    return []


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
            # a row outside the centroid matrix, two entries on one row, and a
            # row that is not an integer
            registry = json.loads((tmp_path / "index" / relpath).read_text(encoding="utf-8"))
            for row in (-1, registry["entries"][1]["row"], 0.5):
                registry["entries"][0]["row"] = row
                cases.append((json.dumps(registry), "is valid JSON of the wrong shape"))
        for content, problem in cases:
            (tmp_path / "index" / relpath).write_text(content, encoding="utf-8")
            capsys.readouterr()
            assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
            error = json.loads(capsys.readouterr().err)
            assert error["command"] == command
            assert f"{Path(relpath).name} {problem}" in error["error"]

    @pytest.mark.parametrize("command", ["ask", "eval"])
    @pytest.mark.parametrize("value", [float("nan"), 0.0])
    def test_vector_row_nan_or_zero_exits_2_naming_the_bin(self, tmp_path, capsys, command, value):
        corpus, agents = topic_corpus_and_agents()
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        build_lifecycle(config)
        bin_path = tmp_path / "index" / "agents" / "agent0" / "vectors.bin"
        rows = np.fromfile(bin_path, dtype="<f4").reshape(-1, transcripts.MOCK_DIM)
        rows[0, 0 if np.isnan(value) else slice(None)] = value
        rows.tofile(bin_path)
        capsys.readouterr()
        assert main([command, "--config", str(config), *command_args(tmp_path, command)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        error = json.loads(captured.err)
        assert error["command"] == command
        assert f"{bin_path}: row 0 " in error["error"]
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
