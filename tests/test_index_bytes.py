"""Pinned index bytes: ingest, build-index and register a small fixed corpus
with the mock embedder, and compare the SHA-256 of every file under the index
directory with checked-in digests.

An intended change to an index format updates ``PINNED`` and says so; any
other change to these digests is a regression.
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

from ragroute.cli import main

CORPUS = [
    {"doc_id": "a1", "category": "ca", "title": "Tax",
     "body": "Tax law TAX law tax! The court, the COURT and the Court; tax law."},
    {"doc_id": "a2", "category": "ca",
     "body": "Café naïve façade: the café serves crème brûlée. Straße und Straße."},
    {"doc_id": "a3", "category": "ca",
     "body": "東京 タワー 東京 and Ünïcode ÜNÏCODE ünïcode words; ΑΒΓ αβγ Ωμέγα."},
    {"doc_id": "b1", "category": "cb",
     "body": "Cats chase mice. Cats chase birds. cats CHASE Cats chase mice mice mice."},
    {"doc_id": "b2", "category": "cb",
     "body": "Deadline forms: file the forms before the deadline, or the forms expire."},
    {"doc_id": "empty", "category": "cb", "body": ""},
    {"doc_id": "b3", "category": "cb", "body": "one"},
]
AGENTS = [
    {"agent_id": "alpha", "category": "ca"},
    {"agent_id": "beta", "category": "cb"},
    {"agent_id": "gamma", "category": "cc"},  # no documents: an empty index
]

PINNED = {
    "agents/alpha/bm25.bin":
        "9603917039eb53daaa6a6a994e8c8781dea4d05a43303bc024cee6d48eb86708",
    "agents/alpha/bm25.json":
        "7c6a60adafca439e2b7cb9ce0d735b9fa7d1c93a36a3fc2d054b74878c6319e3",
    "agents/alpha/chunks.bin":
        "00200a682823329d83861982e63e23d143ed680e8ad7975c524a1be19809fb20",
    "agents/alpha/chunks.jsonl":
        "f4175f535cb307d7c977ab6eae31db69b930fe59c4c627d8749208122c2ce16b",
    "agents/alpha/profile.json":
        "ae07bbcbf17b77850659acaaec78efdbf8e9a2f77cbafc26827890c1fa0f63a8",
    "agents/alpha/vectors.bin":
        "9bec0a0fc54c08f7aa74da750ab80a22e5a8e7f1334a3ef0ab5406aaf33caa3e",
    "agents/alpha/vectors.manifest.json":
        "d7189fdd16dd1fbcec744d9072ba58382470fa5b81cee9f6a45bb49f3fdce5c6",
    "agents/beta/bm25.bin":
        "24807aa865c2cf1508bf91e40ec83c2706d97d592394ade931a43532ca9b55f6",
    "agents/beta/bm25.json":
        "281cada5d107792ff4cecf7621f3662c88a57c6e3034363a0757104ee2bf8f2d",
    "agents/beta/chunks.bin":
        "08b2584f54fb8277e487334fc40584c58e7cc0b2d7d92e8bf097b8811e26b6bf",
    "agents/beta/chunks.jsonl":
        "3139291a36b301becc41d70b352f782fd78fd9192d7725cd188a87738bdc8f10",
    "agents/beta/profile.json":
        "e0f59742f119fedfe03ce5a385218fbf75f1645bed5f120937b053455c133034",
    "agents/beta/vectors.bin":
        "b9e2fe4de71fd5bdf000aea6f2406f2a9cc2d2c69b56a83904c3777cae410c24",
    "agents/beta/vectors.manifest.json":
        "1323ee6c983d335044307e7e9bbe360c0339783a4a655aafcff5280f6fc32596",
    "agents/gamma/bm25.bin":
        "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    "agents/gamma/bm25.json":
        "346e4374febad7552010836f37690f4c2284774f865fee34a4e2b5593b76d02f",
    "agents/gamma/chunks.bin":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "agents/gamma/chunks.jsonl":
        "e52d3447163f3e32c39320b5250411720e223ef8574cf40b10e680b8c414ac58",
    "agents/gamma/vectors.bin":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    "agents/gamma/vectors.manifest.json":
        "665a54a67242d9741bd199ccc283be17802f251fb3a4db72e50ea44fd0fa3038",
    "registry.json":
        "9abd22f2c0087d85907f4422aed695f417f597257ad0de94bd105dfb78d57bd4",
    "registry_vectors.bin":
        "207a597ec70054b076179d92ae4751bcc79d132d7195e1f25b607a4ef32cb266",
    "registry_vectors.manifest.json":
        "f0091affaba00ecebb0768210ea864af0d65656c355cdd468cc4a8c8c891c0d8",
}


def build(tmp_path: Path) -> Path:
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        "".join(json.dumps(rec, ensure_ascii=False) + "\n" for rec in CORPUS), encoding="utf-8"
    )
    config = tmp_path / "config.json"
    config.write_text(
        json.dumps({
            "corpus_path": str(corpus),
            "index_dir": str(tmp_path / "index"),
            "chunking": {"chunk_tokens": 8, "overlap_tokens": 2},
            "embedding": {"provider": "deterministic_mock", "model_name": "mock", "dim": 24},
            "chat": {"backend": "scripted_mock", "script_path": str(tmp_path / "script.json")},
            "agents": AGENTS,
        }),
        encoding="utf-8",
    )
    # the empty body is a rejected record, so ingest reports a partial run
    assert main(["ingest", "--config", str(config)]) == 1
    assert main(["build-index", "--config", str(config)]) == 0
    assert main(["register", "--config", str(config)]) == 0
    return tmp_path / "index"


def test_index_files_match_pinned_digests(tmp_path, capsys):
    index = build(tmp_path)
    got = {
        path.relative_to(index).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(index.rglob("*"))
        if path.is_file()
    }
    assert got == PINNED
