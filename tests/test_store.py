"""The index store: vector files round-trip, only ``ragroute.store`` writes
or maps files, JSON is decoded in four named places, a loaded system holds
its array files as read-only mappings that a replaced file leaves as they
were, and a set-up command that fails part way leaves an index that
``ask`` either answers from as before or refuses with exit 2, never a
mixed one."""

from __future__ import annotations

import ast
import json
import mmap
import os
import shutil
from pathlib import Path
from typing import Callable

import numpy as np
import pytest

import ragroute
from ragroute.cli import SystemConfig, _load_system, build_parser, main
from ragroute.corpus import Chunk, load_chunks, save_chunks
from ragroute.evalharness import answer
from ragroute.retrieval import Bm25Index, DenseIndex
from ragroute.router import RouterRegistry
from ragroute.store import IndexFileError, VectorFileError, load_vectors, save_vectors
from test_cli import catch_all_script, restore, topic_corpus_and_agents, write_config

PACKAGE = Path(ragroute.__file__).parent
# Attribute calls that write or replace a file, or read or map one past the
# store.
WRITERS = {"write_text", "write_bytes", "tofile", "fromfile", "mmap", "memmap"}


def _writes_mode(call: ast.Call) -> bool:
    """Whether an ``open`` call may write: its mode holds w, a, x or +, or
    is not a string constant."""
    mode = next((k.value for k in call.keywords if k.arg == "mode"), None)
    place = 0 if isinstance(call.func, ast.Attribute) else 1  # path.open(mode), open(path, mode)
    if mode is None and len(call.args) > place:
        mode = call.args[place]
    if mode is None:
        return False
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and not set(mode.value) & set("wax+"))


def file_writes(source: str) -> list[str]:
    """``line: call`` for each call in ``source`` that writes a file."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        owner = getattr(func.value, "id", None) if isinstance(func, ast.Attribute) else None
        if (name in WRITERS or (owner, name) == ("os", "replace")
                or (name == "open" and _writes_mode(node))):
            found.append(f"{node.lineno}: {ast.unparse(func)}")
    return found


def method_calls(source: str, wanted: Callable[[ast.Attribute], bool]) -> list[str]:
    """``function: call`` for each method call in ``source`` whose callee
    ``wanted`` accepts, named by the innermost function around it."""
    found = []

    def visit(node: ast.AST, where: str) -> None:
        for child in ast.iter_child_nodes(node):
            if (isinstance(child, ast.Call) and isinstance(child.func, ast.Attribute)
                    and wanted(child.func)):
                found.append(f"{where}: {ast.unparse(child.func)}")
            is_def = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef))
            visit(child, child.name if is_def else where)

    visit(ast.parse(source), "<module>")
    return found


def json_decodes(source: str) -> list[str]:
    """The calls in ``source`` that decode JSON: ``json.load``,
    ``json.loads`` or a decoder's ``raw_decode``."""
    return method_calls(source, lambda func: func.attr == "raw_decode" or (
        getattr(func.value, "id", None), func.attr) in {("json", "load"), ("json", "loads")})


def socket_reads(source: str) -> list[str]:
    """The calls in ``source`` that read a socket: ``recv`` and its kin
    (``recv_into``, ``recvfrom``, ...) or ``makefile``."""
    return method_calls(
        source, lambda func: func.attr.startswith("recv") or func.attr == "makefile"
    )


class TestVectorFile:
    def test_round_trip(self, tmp_path):
        matrix = np.random.default_rng(0).normal(size=(5, 12)).astype(np.float32)
        ids = [f"c{i}" for i in range(5)]
        save_vectors(tmp_path / "vecs", matrix, ids)
        loaded, loaded_ids = load_vectors(tmp_path / "vecs")
        assert np.array_equal(loaded, matrix)
        assert loaded_ids == ids

    def test_manifest_fields(self, tmp_path):
        save_vectors(tmp_path / "v", np.zeros((2, 3), np.float32), ["a", "b"])
        manifest = json.loads((tmp_path / "v.manifest.json").read_text())
        assert manifest == {"dim": 3, "count": 2, "chunk_ids": ["a", "b"]}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda base: base.with_suffix(".bin").write_bytes(b"\0" * 44),
            lambda base: base.with_suffix(".manifest.json").write_text(
                json.dumps({"dim": 4, "count": 3, "chunk_ids": ["a", "b"]})
            ),
            lambda base: (
                base.with_suffix(".manifest.json").write_text(
                    json.dumps({"dim": -4, "count": 0, "chunk_ids": []})
                ),
                base.with_suffix(".bin").write_bytes(b""),
            ),
        ],
        ids=["truncated-bin", "ids-short", "no-rows-negative-dim"],
    )
    def test_disagreeing_files_raise_typed_error(self, tmp_path, damage):
        save_vectors(tmp_path / "v", np.ones((3, 4), np.float32), ["a", "b", "c"])
        damage(tmp_path / "v")
        with pytest.raises(VectorFileError):
            load_vectors(tmp_path / "v")

    @pytest.mark.parametrize("field, value", [
        ("count", "3"), ("count", 3.0), ("count", True), ("dim", "4"), ("dim", 4.0),
        ("dim", True),
    ])
    def test_manifest_counts_must_be_integers(self, tmp_path, field, value):
        save_vectors(tmp_path / "v", np.ones((3, 4), np.float32), ["a", "b", "c"])
        manifest = tmp_path / "v.manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), field: value}))
        with pytest.raises(IndexFileError, match=f"{field} must be an integer") as info:
            load_vectors(tmp_path / "v")
        assert str(info.value).startswith(f"{manifest} ")

    @pytest.mark.parametrize(
        "ids", [{"a": 0, "b": 1, "c": 2}, "abc", ["a", "b", 3], None],
        ids=["object", "string", "an-int", "null"],
    )
    def test_manifest_ids_must_be_a_list_of_strings(self, tmp_path, ids):
        """Not coerced: an object is not its keys, nor a string its characters."""
        save_vectors(tmp_path / "v", np.ones((3, 4), np.float32), ["a", "b", "c"])
        manifest = tmp_path / "v.manifest.json"
        manifest.write_text(json.dumps({**json.loads(manifest.read_text()), "chunk_ids": ids}))
        with pytest.raises(IndexFileError) as info:
            load_vectors(tmp_path / "v")
        assert str(info.value) == (
            f"{manifest} is valid JSON of the wrong shape: "
            f"TypeError: chunk_ids must be a list of strings, not {ids!r}"
        )

    def test_little_endian_layout(self, tmp_path):
        matrix = np.array([[1.0, 2.0]], dtype=np.float32)
        save_vectors(tmp_path / "v", matrix, ["a"])
        raw = (tmp_path / "v.bin").read_bytes()
        assert raw == np.array([1.0, 2.0], dtype="<f4").tobytes()


def test_only_the_store_writes_files():
    writes = {
        path.name: file_writes(path.read_text(encoding="utf-8"))
        for path in sorted(PACKAGE.glob("*.py"))
    }
    store_calls = writes.pop("store.py")
    assert any(call.endswith("os.replace") for call in store_calls), store_calls
    assert any(call.endswith("mmap.mmap") for call in store_calls), store_calls
    assert {name: calls for name, calls in writes.items() if calls} == {}


def top_level_names(source: str) -> set[str]:
    """The names a module's own top-level statements bind: its functions,
    classes and assignment targets. Imports do not count."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def borrowed_imports(sources: dict[str, str]) -> list[str]:
    """``module: from .m import name`` for each import, within the package,
    of a name that ``m`` does not define itself (``from . import`` reads
    ``__init__``)."""
    defined = {module: top_level_names(source) for module, source in sources.items()}
    return [
        f"{module}: from .{node.module or ''} import {alias.name}"
        for module, source in sources.items()
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.level == 1
        for alias in node.names
        if alias.name not in defined[node.module or "__init__"]
    ]


def test_each_imported_name_comes_from_the_module_that_defines_it():
    sources = {path.stem: path.read_text(encoding="utf-8") for path in PACKAGE.glob("*.py")}
    assert borrowed_imports(sources) == []


def test_guard_tells_borrowed_imports_from_own_definitions():
    sources = {
        "__init__": "__version__ = '1'",
        "a": "from .b import f, C, X\nfrom . import __version__\n",
        "b": "from .c import g\ndef f(): pass\nclass C: pass\nX: int = 1\n",
        "c": "def g():\n    from .a import h\n",
    }
    assert borrowed_imports(sources) == ["c: from .a import h"]
    sources["a"] += "from .b import g\n"
    assert borrowed_imports(sources) == ["a: from .b import g", "c: from .a import h"]


def test_json_is_decoded_in_three_places():
    """Every file the program reads as JSON goes through ``store.read_json``
    (index files, chunk files included, and the config) or
    ``corpus.read_jsonl`` (corpus and dataset lines), and ``post_json``
    decodes a reply."""
    decodes = [
        f"{path.name}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for call in json_decodes(path.read_text(encoding="utf-8"))
    ]
    assert sorted(decodes) == [
        "corpus.py: _json_value: json.loads",
        "embedding.py: post_json: json.loads",
        "store.py: read_json: json.loads",
    ]


@pytest.mark.parametrize(
    "source, decodes",
    [
        ("json.loads(text)", True),
        ("json.load(fh)", True),
        ("json.JSONDecoder().raw_decode(text)", True),
        ("decoder.raw_decode(text)", True),
        ("json.dumps(payload)", False),
        ("Bm25Index.load(path)", False),
        ("blob.decode('utf-8')", False),
    ],
)
def test_guard_tells_decodes_from_other_calls(source, decodes):
    assert bool(json_decodes(source)) is decodes


def test_sockets_are_read_in_one_place():
    """A reply is read through ``_exchange``'s one buffered reader, whose
    ``readline`` and ``read`` frame it; nothing else receives from a socket
    or keeps a receive buffer of its own."""
    reads = [
        f"{path.name}: {call}"
        for path in sorted(PACKAGE.glob("*.py"))
        for call in socket_reads(path.read_text(encoding="utf-8"))
    ]
    assert reads == ["embedding.py: _exchange: sock.makefile"]


@pytest.mark.parametrize(
    "source, reads",
    [
        ("sock.recv(4096)", True),
        ("sock.recv_into(view)", True),
        ("sock.recvfrom(4096)", True),
        ("socket.socket.recv_into(sock, view)", True),
        ('sock.makefile("rb")', True),
        ("reply.readline(limit)", False),
        ("reply.read(size)", False),
        ("sock.sendall(request)", False),
    ],
)
def test_guard_tells_socket_reads_from_other_calls(source, reads):
    assert bool(socket_reads(source)) is reads


@pytest.mark.parametrize(
    "source, writes",
    [
        ("p.write_text('x')", True),
        ("np.fromfile(p)", True),
        ("a.tofile(p)", True),
        ("os.replace(a, b)", True),
        ("open(p, 'w')", True),
        ("open(p, mode='ab')", True),
        ("p.open('r+')", True),
        ("p.open(mode)", True),
        ("mmap.mmap(fh.fileno(), 0, access=mmap.ACCESS_READ)", True),
        ("mmap(fd, 0)", True),
        ("np.memmap(p, mode='r')", True),
        ("np.frombuffer(data, 'u1')", False),
        ("open(p)", False),
        ("p.open('r', encoding='utf-8')", False),
        ("text.replace('a', 'b')", False),
    ],
)
def test_guard_tells_writes_from_reads(source, writes):
    assert bool(file_writes(source)) is writes


class TestMappedFiles:
    """Array files are read as read-only views of one mapping each, which
    lives as long as a loaded system holds the arrays, and no longer."""

    def test_an_agent_with_no_chunks_loads_empty(self, tmp_path):
        save_chunks(tmp_path / "chunks.jsonl", [])
        save_vectors(tmp_path / "vectors", np.zeros((0, 6), np.float32), [])
        Bm25Index.build([]).save(tmp_path / "bm25.json")
        # bm25.bin holds the one offset of no terms
        assert {p.name: p.stat().st_size for p in tmp_path.glob("*.bin")} == {
            "bm25.bin": 8, "chunks.bin": 0, "vectors.bin": 0
        }
        assert load_chunks(tmp_path / "chunks.jsonl") == []
        dense = DenseIndex.load(tmp_path / "vectors")
        assert (len(dense), dense.dim, dense.rows.flags.writeable) == (0, 6, False)
        assert Bm25Index.load(tmp_path / "bm25.json").n_chunks == 0

    def test_loaded_arrays_are_read_only(self, tmp_path):
        matrix = np.arange(12, dtype=np.float32).reshape(3, 4) + 1
        save_vectors(tmp_path / "vectors", matrix, ["d:0", "d:1", "d:2"])
        chunks = [Chunk(f"d:{i}", "d", f"word{i} shared", 0, 2) for i in range(3)]
        Bm25Index.build(chunks).save(tmp_path / "bm25.json")
        bm25 = Bm25Index.load(tmp_path / "bm25.json")
        arrays = [load_vectors(tmp_path / "vectors")[0], DenseIndex.load(tmp_path / "vectors").rows,
                  bm25.doc_len, bm25.postings.get("shared")]
        for array in arrays:
            assert not array.flags.writeable
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 0

    def test_a_loaded_registry_selects_over_the_mapped_rows(self, tmp_path):
        """The registry's selection rows are the read-only mapping of
        ``registry_vectors.bin`` itself, not a copy of it."""
        matrix = np.arange(12, dtype=np.float32).reshape(4, 3) + 1
        RouterRegistry(["a", "a", "b", "c"], matrix).save(
            tmp_path / "registry.json", tmp_path / "registry_vectors"
        )
        registry = RouterRegistry.load(tmp_path / "registry.json", tmp_path / "registry_vectors")
        rows = registry._centroids.rows
        assert not rows.flags.writeable
        assert np.array_equal(rows, matrix)
        base = rows
        while isinstance(base, np.ndarray):
            base = base.base
        assert isinstance(base, memoryview) and isinstance(base.obj, mmap.mmap)

    def test_replaced_files_leave_a_loaded_system_answering_as_before(self, tmp_path):
        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        for step in ("ingest", "build-index", "register"):
            assert main([step, "--config", str(config)]) == 0
        args = build_parser().parse_args(["ask", "--config", str(config), "--question", QUESTION])
        cfg = SystemConfig.from_file(config)

        def answered(system) -> tuple:
            before = len(system.backend.calls)
            result = answer(system, QUESTION)
            prompts = [call.prompt for call in system.backend.calls[before:]]
            return result.selected_agent_ids, result.final_answer, prompts

        system = _load_system(cfg, args)
        old = answered(system)
        assert old[0] == ("agent0", "agent1")
        # every index file is written anew, each through os.replace
        (tmp_path / "corpus.jsonl").write_text(
            "".join(json.dumps(doc) + "\n" for doc in new_corpus()), encoding="utf-8"
        )
        for step in ("ingest", "build-index", "register"):
            assert main([step, "--config", str(config)]) == 0
        assert answered(system) == old
        assert answered(_load_system(cfg, args))[0] == ("agent1", "agent0")

    def test_no_mapping_outlives_the_command(self, tmp_path, capsys):
        maps = Path("/proc/self/maps")
        if not maps.exists():
            pytest.skip("needs /proc/self/maps")

        def mapped() -> list[str]:
            lines = maps.read_text(encoding="utf-8").splitlines()
            return sorted({line.split()[-1] for line in lines if str(tmp_path) in line})

        corpus, agents = topic_corpus_and_agents(2)
        config = write_config(tmp_path, corpus, catch_all_script(), agents)
        for step in ("ingest", "build-index", "register"):
            assert main([step, "--config", str(config)]) == 0
        args = build_parser().parse_args(["ask", "--config", str(config), "--question", QUESTION])
        system = _load_system(SystemConfig.from_file(config), args)
        names = {Path(path).relative_to(tmp_path / "index").as_posix() for path in mapped()}
        assert {"registry_vectors.bin", "agents/agent0/vectors.bin",
                "agents/agent0/bm25.bin"} <= names
        assert not {name for name in names if name.endswith("chunks.bin")}
        del system
        assert mapped() == []
        for command in ("ask", "build-index", "register"):
            extra = ["--question", QUESTION] if command == "ask" else []
            assert main([command, "--config", str(config), *extra]) == 0
            assert mapped() == [], command


@pytest.mark.parametrize("command", ["ask", "build-index"])
@pytest.mark.parametrize("same_size", [False, True], ids=["other-size", "same-size"])
def test_chunk_files_of_two_ingest_runs_exit_2_naming_both(tmp_path, capsys, command,
                                                           same_size):
    """A ``chunks.bin`` beside the ``chunks.jsonl`` of another ingest run is
    refused by its size or, when the texts have the same sizes, its crc32."""
    corpus, agents = topic_corpus_and_agents(2)
    config = write_config(tmp_path, corpus, catch_all_script(), agents)
    for step in ("ingest", "build-index", "register"):
        assert main([step, "--config", str(config)]) == 0
    adir = tmp_path / "index" / "agents" / "agent0"
    shutil.copy(adir / "chunks.bin", tmp_path / "old.bin")
    corpus[0]["body"] = corpus[0]["body"].replace("word", "wOrd" if same_size else "words")
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in corpus), encoding="utf-8"
    )
    assert main(["ingest", "--config", str(config)]) == 0
    assert ((adir / "chunks.bin").stat().st_size == (tmp_path / "old.bin").stat().st_size) \
        is same_size
    os.replace(tmp_path / "old.bin", adir / "chunks.bin")
    capsys.readouterr()
    extra = ["--question", QUESTION] if command == "ask" else []
    assert main([command, "--config", str(config), *extra]) == 2
    error = json.loads(capsys.readouterr().err)
    assert error["command"] == command
    chunks_jsonl, chunks_bin = adir / "chunks.jsonl", adir / "chunks.bin"
    assert error["error"].startswith(f"{chunks_jsonl} with chunks.bin: {chunks_bin} ")
    assert ("has crc32" in error["error"]) is same_size


# The question names topic 0's words. The old corpus gives them to agent0
# alone. The new one gives agent1 four chunks of them, and agent0 two chunks
# of topic 2 (its cluster 0) and two that mix topics 0 and 3 (its cluster 1),
# so the selection flips, and also flips when agent1 is read with agent0's
# cluster 1. Every agent gets other chunk ids and two clusters in place of one.
QUESTION = "topic0word0 topic0word3?"


def _topic_doc(doc_id: str, category: str, *topics: int) -> dict:
    words = " ".join(f"topic{t}word{w}" for t in topics for w in range(6))
    return {"doc_id": doc_id, "category": category, "body": f"{words} {words}"}


def new_corpus() -> list[dict]:
    topics = {"cat0": [(2,), (2,), (0, 3), (0, 3)], "cat1": [(0,)] * 4}
    return [
        _topic_doc(f"new-{category}-{i}", category, *mix)
        for category, mixes in topics.items()
        for i, mix in enumerate(mixes)
    ]


def ask(root: Path, capsys) -> tuple[int, str, list[str] | None]:
    """``ask``'s exit code, its stdout and the agents its trace selected;
    the run must keep the CLI's contract: exit 0, or exit 2 with one JSON
    error line."""
    trace = root / "trace.json"
    trace.unlink(missing_ok=True)
    capsys.readouterr()
    code = main(["ask", "--config", str(root / "config.json"), "--question", QUESTION,
                 "--trace", str(trace)])
    captured = capsys.readouterr()
    if code != 0:
        assert code == 2, captured.err
        assert json.loads(captured.err)["command"] == "ask"
        assert len(captured.err.splitlines()) == 1
        return code, captured.out, None
    return code, captured.out, json.loads(trace.read_text(encoding="utf-8"))["selected_agents"]


class FailingReplace:
    """``os.replace`` that raises on its ``fail_at``-th call; ``store``'s
    ``write_atomic`` is the one caller in the package, so this fails that
    write after its temp file is written."""

    def __init__(self, fail_at: int | None):
        self.fail_at = fail_at
        self.calls = 0
        self.replace = os.replace

    def __call__(self, src, dst):
        self.calls += 1
        if self.calls == self.fail_at:
            raise OSError(28, "No space left on device")
        self.replace(src, dst)


class FailingJsonReplace:
    """``os.replace`` that raises when it would put a JSON file in the index
    directory itself (the registry's record) in place; a ``.bin`` goes in."""

    def __init__(self, index: Path):
        self.index = index
        self.replace = os.replace

    def __call__(self, src, dst):
        if Path(dst).parent == self.index and Path(dst).name.endswith(".json"):
            raise OSError(28, "No space left on device")
        self.replace(src, dst)


def test_register_cut_after_the_registry_bin_leaves_ask_refusing(tmp_path, capsys,
                                                                 monkeypatch):
    """agent0 has four chunks (two centroids) and agent1 one, then the other
    way round: the same three rows, given to other agents. A register that
    stops once the new ``registry_vectors.bin`` is in place leaves it beside
    the old record, which ``ask`` refuses, naming the ``.bin``, rather than
    route by rows read as other agents' centroids."""
    def corpus(big: str, small: str) -> list[dict]:
        return [_topic_doc(f"{big}-{i}", big, i) for i in range(4)] + [_topic_doc(small, small, 5)]

    agents = [{"agent_id": "agent0", "category": "cat0"}, {"agent_id": "agent1", "category": "cat1"}]
    config = write_config(tmp_path, corpus("cat0", "cat1"), catch_all_script(), agents)
    for step in ("ingest", "build-index", "register"):
        assert main([step, "--config", str(config)]) == 0
    index = tmp_path / "index"

    def agent_of_row() -> list[str]:
        registry = RouterRegistry.load(index / "registry.json", index / "registry_vectors")
        return [agent_id for agent_id, _ in registry.entries]

    assert agent_of_row() == ["agent0", "agent0", "agent1"]
    record = (index / "registry.json").read_bytes()
    old_bin = (index / "registry_vectors.bin").read_bytes()
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in corpus("cat1", "cat0")), encoding="utf-8"
    )
    for step in ("ingest", "build-index"):
        assert main([step, "--config", str(config)]) == 0
    monkeypatch.setattr(os, "replace", FailingJsonReplace(index))
    capsys.readouterr()
    assert main(["register", "--config", str(config)]) == 2
    monkeypatch.undo()
    assert "No space left on device" in json.loads(capsys.readouterr().err)["error"]
    new_bin = (index / "registry_vectors.bin").read_bytes()
    assert (index / "registry.json").read_bytes() == record
    assert len(new_bin) == len(old_bin) and new_bin != old_bin
    assert main(["ask", "--config", str(config), "--question", QUESTION]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    error = json.loads(captured.err)["error"]
    assert error.startswith(f"{index / 'registry_vectors.bin'} has crc32 ")
    assert main(["register", "--config", str(config)]) == 0
    assert agent_of_row() == ["agent0", "agent1", "agent1"]
    assert ask(tmp_path, capsys)[0] == 0


@pytest.mark.parametrize("command", ["ingest", "build-index", "register"])
def test_interrupted_setup_command_leaves_no_mixed_index(tmp_path, capsys, monkeypatch, command):
    corpus, agents = topic_corpus_and_agents(2)
    config = write_config(tmp_path, corpus, catch_all_script(), agents)
    for step in ("ingest", "build-index", "register"):
        assert main([step, "--config", str(config)]) == 0
    old = ask(tmp_path, capsys)
    assert old[0] == 0 and old[2] == ["agent0", "agent1"]

    # the new corpus, and the steps before the one that is interrupted
    (tmp_path / "corpus.jsonl").write_text(
        "".join(json.dumps(doc) + "\n" for doc in new_corpus()), encoding="utf-8"
    )
    steps = ["ingest", "build-index", "register"]
    for step in steps[: steps.index(command)]:
        assert main([step, "--config", str(config)]) == 0
    before = {p: p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()}

    # a whole run writes every file anew, so the old and new bytes differ
    counter = FailingReplace(None)
    monkeypatch.setattr(os, "replace", counter)
    assert main([command, "--config", str(config)]) == 0
    monkeypatch.undo()
    changed = [p for p, data in before.items() if p.read_bytes() != data]
    assert counter.calls == len(changed) >= 2
    if command == "register":
        assert ask(tmp_path, capsys)[2] == ["agent1", "agent0"]

    codes = []
    for k in range(1, counter.calls + 1):
        restore(tmp_path, before)
        monkeypatch.setattr(os, "replace", FailingReplace(k))
        capsys.readouterr()
        code = main([command, "--config", str(config)])
        monkeypatch.undo()
        error = json.loads(capsys.readouterr().err)
        assert (code, error["command"]) == (2, command), k
        assert "No space left on device" in error["error"]
        assert sorted(tmp_path.rglob(".*.tmp")) == [], k
        outcome = ask(tmp_path, capsys)
        assert outcome[0] == 2 or outcome == old, (k, outcome)
        codes.append(outcome[0])
    restore(tmp_path, before)
    # new chunks beside old vectors never load, so only build-index always
    # ends in exit 2
    assert 2 in codes and (0 in codes) is (command != "build-index"), codes
