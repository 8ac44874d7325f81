"""Seeded workload generator: corpus, question sets and config files.

Every agent owns one category of documents. Each document is about one
entity (a made-up word) and plants facts of the form
``The <key> of <entity> is <value>.`` among filler sentences drawn from the
category's own vocabulary and a shared one. Some facts link to another
entity, and chains of links make the 2- and 3-hop questions
``What is the <k2> of the <k1> of <entity>?``.

The same seed gives byte-identical files. The program under test receives
only these files and, for the HTTP workload, the stub's endpoint.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path

KEYS = (
    "capital", "founder", "color", "river", "mascot", "anthem", "currency", "motto",
    "patron", "emblem", "harbor", "festival", "gemstone", "dialect", "treaty", "beacon",
)

_ONSETS = ("b", "d", "f", "g", "k", "l", "m", "n", "p", "r", "s", "t", "v", "z", "br", "kr", "st", "tr")
_VOWELS = ("a", "e", "i", "o", "u", "ai", "ou")
_CODAS = ("", "", "n", "r", "s", "x", "th", "l")

CHUNK_TOKENS = 128
OVERLAP_TOKENS = 16
DIM = 1024
COMMON_WORDS = 40
AREA_WORDS = 30


@dataclass(frozen=True)
class WorkloadSpec:
    """Shape of one workload; see README.md for why each one exists."""

    name: str
    agents: int
    docs_per_agent: int
    doc_chunks: int  # 128-token chunks per document, so chunks/agent = docs * doc_chunks
    facts_per_doc: int
    hops: tuple[int, ...]  # hop count of question i is hops[i % len(hops)]
    questions: int  # distinct questions; the measured loop cycles through them
    max_agents: int
    remote: bool = False  # embedding and chat over loopback HTTP


WORKLOADS = {
    spec.name: spec
    for spec in (
        WorkloadSpec("routed-1hop", agents=16, docs_per_agent=25, doc_chunks=10,
                     facts_per_doc=4, hops=(1,), questions=300, max_agents=5),
        WorkloadSpec("greedy-multihop-http", agents=8, docs_per_agent=12, doc_chunks=5,
                     facts_per_doc=4, hops=(2, 2, 3), questions=100, max_agents=3, remote=True),
        WorkloadSpec("large-agents", agents=3, docs_per_agent=40, doc_chunks=20,
                     facts_per_doc=6, hops=(1,), questions=300, max_agents=2),
    )
}


class _Lexicon:
    """Made-up words, each on its own axis of the mock embedder.

    The mock embeds a text as a bag of hashed token directions, so two words
    that hash to one axis look alike. Giving the question scaffolding, the
    area vocabularies and the entities an axis each makes routing depend on
    the entity a question names, not on which words a seed happens to
    collide. Fact values only avoid the scaffolding's axes.
    """

    def __init__(self, rng: random.Random, dim: int):
        from ragroute.embedding import MockEmbedder

        self.rng = rng
        self.embedder = MockEmbedder(dim)
        self.taken: set[str] = set(KEYS)
        self.scaffold = {self.axis(t) for t in ("what", "is", "the", "of", "?", ".", *KEYS)}
        self.used = set(self.scaffold)

    def axis(self, word: str) -> int:
        return int(self.embedder.embed_batch([word])[0].argmax())

    def words(self, count: int, own_axis: bool = True) -> list[str]:
        out = []
        while len(out) < count:
            word = "".join(
                self.rng.choice(_ONSETS) + self.rng.choice(_VOWELS)
                for _ in range(self.rng.randint(2, 3))
            ) + self.rng.choice(_CODAS)
            axis = self.axis(word)
            if word in self.taken or axis in (self.used if own_axis else self.scaffold):
                continue
            self.taken.add(word)
            if own_axis:
                self.used.add(axis)
            out.append(word)
        return out


def fact_sentence(key: str, entity: str, value: str) -> str:
    return f"The {key} of {entity} is {value}."


def question_text(keys: list[str], entity: str) -> str:
    """``keys`` innermost first: [k1, k2] -> 'What is the k2 of the k1 of e?'"""
    chain = " of the ".join(reversed(keys))
    return f"What is the {chain} of {entity}?"


def generate(spec: WorkloadSpec, seed: int, out_dir: Path) -> dict:
    """Write corpus.jsonl and questions.jsonl under out_dir.

    Returns the agent categories and counts; ``write_config`` writes the
    config once the stub (if any) is listening.
    """
    rng = random.Random(f"{spec.name}:{seed}")
    lexicon = _Lexicon(rng, DIM)
    common = lexicon.words(COMMON_WORDS)
    categories = [f"area{i:02d}" for i in range(spec.agents)]
    vocab = {c: lexicon.words(AREA_WORDS) for c in categories}
    entities = {c: lexicon.words(spec.docs_per_agent) for c in categories}
    owner = {e: c for c in categories for e in entities[c]}
    all_entities = [e for c in categories for e in entities[c]]

    # facts[entity] = {key: value}; a linked value is another entity.
    facts: dict[str, dict[str, str]] = {}
    for entity in all_entities:
        keys = rng.sample(KEYS, spec.facts_per_doc)
        facts[entity] = {}
        for i, key in enumerate(keys):
            if max(spec.hops) > 1 and i < 2:
                other = rng.choice(all_entities)
                while other == entity:
                    other = rng.choice(all_entities)
                facts[entity][key] = other
            else:
                facts[entity][key] = lexicon.words(1, own_axis=False)[0]

    stride = CHUNK_TOKENS - OVERLAP_TOKENS
    docs = []
    for c in categories:
        for d, entity in enumerate(entities[c]):
            target_tokens = spec.doc_chunks * stride
            fact_lines = [fact_sentence(k, entity, v) for k, v in facts[entity].items()]
            slots = sorted(rng.sample(range(1, spec.doc_chunks * 8), len(fact_lines)))
            sentences, tokens = [], 0
            while tokens < target_tokens:
                if slots and len(sentences) == slots[0]:
                    slots.pop(0)
                    sentences.append(fact_lines.pop(0))
                    tokens += 7
                    continue
                n = rng.randint(6, 12)
                words = [
                    rng.choice(vocab[c]) if rng.random() < 0.6 else rng.choice(common)
                    for _ in range(n)
                ]
                words[rng.randrange(n)] = entity  # every sentence names the document's entity
                sentences.append(" ".join(words).capitalize() + ".")
                tokens += n + 1
            sentences.extend(fact_lines)  # any fact whose slot fell past the end
            docs.append(
                {
                    "doc_id": f"{c}-d{d:03d}",
                    "title": entity,
                    "category": c,
                    "body": " ".join(sentences),
                }
            )
    doc_of = {doc["title"]: doc["doc_id"] for doc in docs}

    questions = []
    for i in range(spec.questions):
        # a fixed mix keeps the question-time percentiles inside one mode
        hops = spec.hops[i % len(spec.hops)]
        while True:
            start = rng.choice(all_entities)
            keys, entity, docs_used, agents_used = [], start, [], []
            for _ in range(hops):
                linked = [k for k, v in facts[entity].items() if (v in owner) == (len(keys) < hops - 1)]
                if not linked:
                    break
                key = rng.choice(sorted(linked))
                keys.append(key)
                docs_used.append(doc_of[entity])
                agents_used.append(owner[entity])
                entity = facts[entity][key]
            if len(keys) == hops:
                break
        questions.append(
            {
                "question": question_text(keys, start),
                "answers": [entity],
                "target_doc_ids": sorted(set(docs_used)),
                "target_agent_ids": sorted(set(agents_used)),
                "hop": "single" if hops == 1 else "multi",
            }
        )

    out_dir.mkdir(parents=True, exist_ok=True)
    with (out_dir / "corpus.jsonl").open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")
    with (out_dir / "questions.jsonl").open("w", encoding="utf-8") as fh:
        for q in questions:
            fh.write(json.dumps(q, sort_keys=True) + "\n")
    return {"categories": categories, "documents": len(docs), "questions": len(questions)}


def write_config(
    spec: WorkloadSpec, data_dir: Path, index_dir: Path, categories: list[str], endpoint: str | None
) -> Path:
    """Write config.json for one set-up; ``endpoint`` is the stub's base URL."""
    if spec.remote:
        embedding = {"provider": "remote_http", "model_name": "stand-in", "dim": DIM,
                     "endpoint": f"{endpoint}/v1/embeddings"}
        chat = {"backend": "remote_http", "model_name": "stand-in",
                "endpoint": f"{endpoint}/v1/chat/completions"}
    else:
        embedding = {"provider": "deterministic_mock", "model_name": "mock", "dim": DIM}
        # Never read: the in-process stand-in model is handed to the agents.
        chat = {"backend": "scripted_mock", "script_path": str(data_dir / "unused-script.json")}
    config = {
        "corpus_path": str(data_dir / "corpus.jsonl"),
        "index_dir": str(index_dir),
        "chunking": {"chunk_tokens": CHUNK_TOKENS, "overlap_tokens": OVERLAP_TOKENS},
        "embedding": embedding,
        "chat": chat,
        "agents": [
            {"agent_id": c, "category": c, "retrieval_method": "mixture",
             "retrieval_depth": 20, "min_keep": 5}
            for c in categories
        ],
        "router": {"max_agents": spec.max_agents, "parallelism": 1},
        "planner": {"strategy": "greedy", "max_rounds": 5},
    }
    path = data_dir / "config.json"
    path.write_text(json.dumps(config, sort_keys=True, indent=1), encoding="utf-8")
    return path
