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
    "agents/alpha/bm25.json":
        "ac277f442f61d1b307a08e2a1e3ca67b28307cda3d6ccdff3ade3528141424c7",
    "agents/alpha/centroids.bin":
        "7908f48d5430a6528ee5e891aee44cd01b52c74fc8a9f5dffac7c389c3dc6f14",
    "agents/alpha/centroids.manifest.json":
        "56232d9b048321fdf51cc392b6dc8eb79e6541a3a099766e976191a08e639c93",
    "agents/alpha/chunks.jsonl":
        "3f33a3a822c98969432d11a3f0f9b041575af82d562c38e5cd2ad191f57536d3",
    "agents/alpha/profile.json":
        "5f9c3b4dc0219788796bef13cc954ef9dc043085ea84e2056f6c338128479917",
    "agents/alpha/vectors.bin":
        "9bec0a0fc54c08f7aa74da750ab80a22e5a8e7f1334a3ef0ab5406aaf33caa3e",
    "agents/alpha/vectors.manifest.json":
        "d7189fdd16dd1fbcec744d9072ba58382470fa5b81cee9f6a45bb49f3fdce5c6",
    "agents/beta/bm25.json":
        "0549777c3357fe910514233d2600beb2b06c885495417dc0cd85711a8f03f282",
    "agents/beta/centroids.bin":
        "7e6970b0b00444faeecb9a65b72062b6f498796894a153c58cff7fbebb7324ba",
    "agents/beta/centroids.manifest.json":
        "56232d9b048321fdf51cc392b6dc8eb79e6541a3a099766e976191a08e639c93",
    "agents/beta/chunks.jsonl":
        "a0552f448d8c668ca9e67f186c7a101a8be7bb19ac6bf09f8afd99013ab750d8",
    "agents/beta/profile.json":
        "6068864755136886a3c383d04dc983d7d05446d3ec84bbc31c72ca7579b8b722",
    "agents/beta/vectors.bin":
        "b9e2fe4de71fd5bdf000aea6f2406f2a9cc2d2c69b56a83904c3777cae410c24",
    "agents/beta/vectors.manifest.json":
        "1323ee6c983d335044307e7e9bbe360c0339783a4a655aafcff5280f6fc32596",
    "agents/gamma/bm25.json":
        "d0a9e9b8b5abecc044d66636800be28faaf4def2c7a8a16ce66796695b5114f1",
    "agents/gamma/chunks.jsonl":
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
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
