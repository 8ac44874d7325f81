from __future__ import annotations

import json
import zlib

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import transcripts
from ragroute.agent import AgentAnswer
from ragroute.llm import ScriptedChatBackend, ScriptEntry, TokenUsage
from ragroute.retrieval import UnitQuery, unit_query, unit_scores
from ragroute.store import IndexFileError, VectorFileError, save_vectors
from conftest import cosine_similarity, count_embeds, registry_of, system_of
from ragroute.router import (
    CONJECTURE,
    GOOD_RELIABLE,
    UNHELPFUL,
    RouterError,
    RouterRegistry,
    UnusableCentroidError,
    _verdicts_from_evaluation,
    evaluate_and_curate,
    route_and_answer,
    route_raw_knowledge,
    select_agents,
)


def random_registry(rng: np.random.Generator, n_agents: int, max_clusters: int, dim: int = 8):
    rows = []
    for a in range(n_agents):
        n_clusters = int(rng.integers(1, max_clusters + 1))
        rows.extend((f"ag{a:03d}", rng.normal(size=dim)) for _ in range(n_clusters))
    return registry_of(rows)


def centroid(registry: RouterRegistry, agent_id: str, cluster_id: int) -> np.ndarray:
    return registry.centroids_of(agent_id)[cluster_id]


@st.composite
def tied_selections(draw):
    """Agents whose centroids are copies (some scaled by a power of two) of a
    few base vectors, so equal agent scores often straddle ``max_agents``."""
    dim = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 3)), dim))
    picks = st.tuples(st.integers(0, len(base) - 1), st.integers(0, 3))
    n_agents = draw(st.integers(1, 8))
    rows = []
    for a in range(n_agents):
        copies = draw(st.lists(picks, min_size=1, max_size=4))
        rows.extend((f"ag{a}", base[b] * 2.0**k) for b, k in copies)
    registry = registry_of(rows)
    on_a_copy = draw(st.booleans())
    query = base[draw(st.integers(0, len(base) - 1))] if on_a_copy else rng.normal(size=dim)
    return registry, query, draw(st.integers(1, n_agents))


def selection_oracle(registry: RouterRegistry, query: np.ndarray, max_agents: int) -> list[str]:
    """Oracle: score with the public cosine primitive, sort, dedupe."""
    scored = sorted(
        (
            (-cosine_similarity(centroid(registry, a, c), query), a, c)
            for a, c in registry.entries
        )
    )
    out: list[str] = []
    for _, agent_id, _ in scored:
        if agent_id not in out:
            out.append(agent_id)
        if len(out) == max_agents:
            break
    return out


class TestRegistry:
    def test_one_agent_counts_once(self):
        registry = registry_of([("a", [1.0, float(c)]) for c in range(3)])
        assert registry.agent_count == 1
        assert len(registry.entries) == 3

    def test_a_row_is_its_cluster_in_its_agents_run(self):
        matrix = np.array([[0.0, 1.0], [1.0, 1.0], [1.0, 0.0]], np.float32)
        registry = RouterRegistry(["a", "b", "b"], matrix)
        assert registry.entries == (("a", 0), ("b", 0), ("b", 1))
        assert registry.agent_ids == ["a", "b"]
        assert registry.dim == 2
        assert np.array_equal(registry.centroids_of("b"), matrix[1:])

    @pytest.mark.parametrize("agent_of_row", [["b", "a", "b"], ["a", "b", "a"]])
    def test_rows_out_of_agent_order_refused(self, agent_of_row):
        with pytest.raises(ValueError) as info:
            RouterRegistry(agent_of_row, np.eye(3, dtype=np.float32))
        assert str(info.value) == "centroid rows must run agent by agent, in sorted agent_id order"

    def test_two_agents_additive(self):
        registry = registry_of(
            [("a1", [1.0, 0.0]) for _ in range(3)] + [("a2", [0.0, 1.0]) for _ in range(2)]
        )
        assert len(registry.entries) == 5
        assert registry.agent_count == 2

    @pytest.mark.parametrize("bad", [[0.0, 0.0], [np.nan, 1.0], [np.inf, 1.0]])
    def test_zero_or_non_finite_centroid_named(self, bad):
        with pytest.raises(UnusableCentroidError) as info:
            RouterRegistry(["a", "b"], np.array([[1.0, 0.0], bad], np.float32))
        assert (str(info.value), info.value.agent_id) == ("centroid b#0 is zero or not finite", "b")

    def test_save_load_round_trip(self, tmp_path):
        rng = np.random.default_rng(0)
        registry = random_registry(rng, 4, 3)
        registry.save(tmp_path / "registry.json", tmp_path / "registry_vectors")
        loaded = RouterRegistry.load(tmp_path / "registry.json", tmp_path / "registry_vectors")
        assert loaded.entries == registry.entries
        for agent_id in registry.agent_ids:
            assert np.array_equal(loaded.centroids_of(agent_id), registry.centroids_of(agent_id))

    def test_saved_files_are_each_rows_agent_and_the_bins_crc32(self, tmp_path):
        matrix = np.array([[1, 0], [0, 1], [1, 1]], np.float32)
        RouterRegistry(["a", "a", "b"], matrix).save(
            tmp_path / "registry.json", tmp_path / "registry_vectors"
        )
        data = (tmp_path / "registry_vectors.bin").read_bytes()
        assert data == matrix.astype("<f4").tobytes()
        assert json.loads((tmp_path / "registry.json").read_text()) == {
            "agent_of_row": ["a", "a", "b"], "crc32": zlib.crc32(data), "dim": 2
        }
        assert sorted(p.name for p in tmp_path.iterdir()) == [
            "registry.json", "registry_vectors.bin"
        ]

    def test_an_empty_registry_round_trips(self, tmp_path):
        RouterRegistry().save(tmp_path / "registry.json", tmp_path / "registry_vectors")
        loaded = RouterRegistry.load(tmp_path / "registry.json", tmp_path / "registry_vectors")
        assert (loaded.entries, loaded.dim) == ((), 0)

    @pytest.mark.parametrize("agent_of_row", [["b", "a"], ["a", "b", "a"]])
    def test_rows_out_of_agent_order_in_the_file_refused(self, tmp_path, agent_of_row):
        """A file whose rows match its ``.bin`` but do not run agent by agent
        in sorted order is refused, naming it."""
        path, base = tmp_path / "registry.json", tmp_path / "registry_vectors"
        rows = np.eye(len(agent_of_row), dtype=np.float32)
        save_raw(path, base, agent_of_row, rows)
        with pytest.raises(IndexFileError) as info:
            RouterRegistry.load(path, base)
        assert str(info.value) == (
            f"{path} is valid JSON of the wrong shape: ValueError:"
            " centroid rows must run agent by agent, in sorted agent_id order"
        )

    @pytest.mark.parametrize("field, value, words", [
        ("dim", 2.0, "TypeError: dim must be an integer, not 2.0"),
        ("dim", True, "TypeError: dim must be an integer, not True"),
        ("dim", "2", "TypeError: dim must be an integer, not '2'"),
        ("dim", -2, "ValueError: dim is -2, not a size"),
        ("crc32", True, "TypeError: crc32 is True, not a crc32"),
        ("crc32", -1, "TypeError: crc32 is -1, not a crc32"),
        ("crc32", 2**32, "TypeError: crc32 is 4294967296, not a crc32"),
        ("agent_of_row", ["a", 1, "b"],
         "TypeError: agent_of_row must be a list of strings, not ['a', 1, 'b']"),
        ("agent_of_row", {"a": 0}, "TypeError: agent_of_row must be a list of strings, not"
         " {'a': 0}"),
    ])
    def test_fields_of_the_wrong_type_are_refused_naming_the_file(
        self, tmp_path, field, value, words
    ):
        """A value that ``int`` or ``list`` would turn into the right one is
        refused, naming the file, not read as it."""
        registry = RouterRegistry(["a", "a", "b"], np.array([[1, 0], [0, 1], [1, 1]], np.float32))
        path = tmp_path / "registry.json"
        registry.save(path, tmp_path / "registry_vectors")
        payload = json.loads(path.read_text())
        payload[field] = value
        path.write_text(json.dumps(payload))
        with pytest.raises(IndexFileError) as info:
            RouterRegistry.load(path, tmp_path / "registry_vectors")
        assert str(info.value) == f"{path} is valid JSON of the wrong shape: {words}"

    def test_the_entries_format_is_refused_naming_the_file(self, tmp_path):
        """The ``{"entries": ...}`` record older versions wrote, beside its
        ``.bin`` and vectors manifest."""
        path, base = tmp_path / "registry.json", tmp_path / "registry_vectors"
        save_vectors(base, np.eye(2, dtype=np.float32), ["a#0", "b#0"])
        entries = [{"agent_id": a, "cluster_id": 0, "row": i} for i, a in enumerate("ab")]
        path.write_text(json.dumps({"entries": entries}))
        with pytest.raises(IndexFileError) as info:
            RouterRegistry.load(path, base)
        assert str(info.value) == (
            f"{path} is valid JSON of the wrong shape: KeyError: 'agent_of_row'"
        )

    @pytest.mark.parametrize("damage, words", [
        (lambda data: data[:-4], "holds 20 bytes; its manifest needs 24"),
        (lambda data: data + data[:4], "holds 28 bytes; its manifest needs 24"),
        (lambda data: data[:5] + bytes([data[5] ^ 1]) + data[6:], "has crc32 "),
    ], ids=["short", "long", "flipped-bit"])
    def test_a_bin_of_other_bytes_is_refused_naming_it(self, tmp_path, damage, words):
        path, base = tmp_path / "registry.json", tmp_path / "registry_vectors"
        RouterRegistry(["a", "a", "b"], np.array([[1, 0], [0, 1], [1, 1]], np.float32)).save(
            path, base
        )
        bin_path = base.with_suffix(".bin")
        bin_path.write_bytes(damage(bin_path.read_bytes()))
        with pytest.raises(VectorFileError) as info:
            RouterRegistry.load(path, base)
        assert str(info.value).startswith(f"{bin_path} {words}")

    def test_a_zero_centroid_the_crc32_covers_is_refused_naming_the_bin(self, tmp_path):
        path, base = tmp_path / "registry.json", tmp_path / "registry_vectors"
        save_raw(path, base, ["a", "b"], np.array([[1, 0], [0, 0]], np.float32))
        with pytest.raises(VectorFileError) as info:
            RouterRegistry.load(path, base)
        assert str(info.value) == f"{base}.bin: centroid b#0 is zero or not finite"


def save_raw(path, base, agent_of_row: list, rows: np.ndarray) -> None:
    """A registry record and ``.bin`` as ``save`` writes them, of rows that
    the constructor may refuse."""
    data = rows.astype("<f4").tobytes()
    base.with_suffix(".bin").write_bytes(data)
    record = {"agent_of_row": agent_of_row, "crc32": zlib.crc32(data), "dim": rows.shape[1]}
    path.write_text(json.dumps(record))


class TestSelectAgents:
    def test_single_agent_always_selected(self):
        registry = registry_of([("only", [0.2, 0.9])])
        assert select_agents(registry, UnitQuery(np.array([1.0, 0.0])), 5) == ["only"]

    def test_query_equal_to_centroid(self):
        rng = np.random.default_rng(7)
        registry = random_registry(rng, 6, 3)
        agent_id, cluster_id = registry.entries[4]
        target = centroid(registry, agent_id, cluster_id).astype(np.float64)
        assert select_agents(registry, UnitQuery(target), 1) == [agent_id]

    def test_matches_exhaustive_oracle(self):
        rng = np.random.default_rng(40)
        for _ in range(100):
            registry = random_registry(rng, int(rng.integers(1, 21)), 10)
            query = rng.normal(size=8)
            max_agents = int(rng.integers(1, 6))
            assert select_agents(registry, UnitQuery(query), max_agents) == selection_oracle(
                registry, query, max_agents
            )

    @given(tied_selections())
    def test_ties_on_the_cap_match_oracle(self, case):
        registry, query, max_agents = case
        assert select_agents(registry, UnitQuery(query), max_agents) == selection_oracle(
            registry, query, max_agents
        )

    def test_registry_load_rebuilds_selection_matrix(self, tmp_path):
        rng = np.random.default_rng(43)
        registry = random_registry(rng, 6, 3)
        registry.save(tmp_path / "registry.json", tmp_path / "registry_vectors")
        loaded = RouterRegistry.load(tmp_path / "registry.json", tmp_path / "registry_vectors")
        for _ in range(20):
            query = rng.normal(size=8)
            want = selection_oracle(registry, query, 3)
            assert select_agents(loaded, UnitQuery(query), 3) == want

    def test_scale_invariance(self):
        rng = np.random.default_rng(41)
        registry = random_registry(rng, 10, 4)
        for _ in range(50):
            query = rng.normal(size=8)
            base = select_agents(registry, UnitQuery(query), 5)
            for s in (0.01, 1.0, 100.0):
                assert select_agents(registry, UnitQuery(s * query), 5) == base

    def test_empty_registry_rejected(self):
        with pytest.raises(RouterError, match="no agents registered"):
            select_agents(RouterRegistry(), UnitQuery(np.ones(4)), 1)

    def test_cap_respected_and_deterministic(self):
        rng = np.random.default_rng(42)
        registry = random_registry(rng, 12, 3)
        query = rng.normal(size=8)
        for cap in (1, 3, 7, 50):
            got = select_agents(registry, UnitQuery(query), cap)
            assert len(got) == min(cap, registry.agent_count)
            assert got == select_agents(registry, UnitQuery(query), cap)


def exact_select_agents(
    registry: RouterRegistry, query_vec: np.ndarray, max_agents: int
) -> list[str]:
    """Oracle: selection as it scored every centroid exactly, in one product
    over a float64 unit-centroid matrix, before centroids were screened."""
    matrix = np.array([centroid(registry, a, c) for a, c in registry.entries], np.float64)
    norms = np.linalg.norm(matrix, axis=1)
    unit = matrix / norms[:, None]
    agent_ids = sorted({a for a, _ in registry.entries})
    position = {agent_id: i for i, agent_id in enumerate(agent_ids)}
    agent_of_row = np.array([position[a] for a, _ in registry.entries], dtype=np.intp)
    sims = unit_scores(unit, unit_query(query_vec))
    best = np.full(len(agent_ids), -np.inf)
    np.maximum.at(best, agent_of_row, sims)
    order = np.argsort(-best, kind="stable")[:max_agents]
    return [agent_ids[i] for i in order]


@st.composite
def screened_selections(draw):
    """Registries of 1, 3 or up to 10 agents, each with one to five
    centroids copied from a few base vectors shared by all agents and scaled
    by powers of two, so agents tie, often across the ``max_agents`` cap;
    some copies are moved one float32 ulp on one axis, so the screen can
    order two centroids other than their exact cosines do. Now and then
    every centroid sits far from unit scale, or a few at 2**70, where the
    registry screens in float64. The query lies on a base vector or off
    them, and ``max_agents`` runs past the agent count."""
    dim = draw(st.one_of(st.integers(1, 48), st.sampled_from([384, 1024])))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.normal(size=(draw(st.integers(1, 4)), dim)).astype(np.float32)
    n_agents = draw(st.one_of(st.sampled_from([1, 3]), st.integers(1, 10)))
    scale = draw(st.sampled_from([1.0] * 5 + [2.0**-140, 2.0**100]))
    far = draw(st.booleans()) and scale == 1.0
    picks = st.tuples(
        st.integers(0, len(base) - 1), st.integers(-2, 3), st.booleans(), st.booleans()
    )
    rows = []
    for a in range(n_agents):
        for b, k, at_70, nudge in draw(st.lists(picks, min_size=1, max_size=5)):
            factor = 2.0**70 if far and at_70 else scale * 2.0**k
            vec = base[b] * np.float32(factor)
            if nudge:
                axis = draw(st.integers(0, dim - 1))
                vec[axis] = np.nextafter(vec[axis], np.float32(np.inf), dtype=np.float32)
            rows.append((f"ag{a}", vec))
    on_a_copy = draw(st.booleans())
    query = base[draw(st.integers(0, len(base) - 1))] if on_a_copy else rng.normal(size=dim)
    return registry_of(rows), query, draw(st.integers(1, n_agents + 2))


class TestScreenedSelectionAgainstExactScan:
    @given(screened_selections())
    def test_same_agents_in_the_same_order(self, case):
        registry, query, max_agents = case
        want = exact_select_agents(registry, query, max_agents)
        assert select_agents(registry, UnitQuery(query), max_agents) == want

    def test_routed_1hop_scale(self):
        """16 agents of 15 centroids of 1024 dimensions, as the routed-1hop
        benchmark registers; some centroids repeat across agents."""
        rng = np.random.default_rng(20251019)
        vectors = rng.normal(size=(16 * 15, 1024)).astype(np.float32)
        vectors[200:] = vectors[rng.integers(0, 200, size=40)]
        registry = RouterRegistry([f"area{i // 15:02d}" for i in range(len(vectors))], vectors)
        queries = [rng.normal(size=1024) for _ in range(30)]
        queries += [vectors[k].astype(np.float64) for k in (0, 7, 210, 239)]
        for query in queries:
            for max_agents in (1, 5, 16, 20):
                want = exact_select_agents(registry, query, max_agents)
                assert select_agents(registry, UnitQuery(query), max_agents) == want


def make_answer(agent_id: str, text: str) -> AgentAnswer:
    from ragroute.llm import parse_agent_reply

    return AgentAnswer(agent_id, parse_agent_reply(text), text, (), TokenUsage(5, 5))


class TestVerdictParsing:
    def test_reliable_and_unreliable_bullets(self):
        evaluation = (
            "- Response 1 and 3 are unreliable because they claim there is no information.\n"
            "- Response 2 and 4 are reliable as they identify the answer.\n"
            "- Response 5 is unreliable."
        )
        assert _verdicts_from_evaluation(evaluation, 5) == [
            UNHELPFUL, GOOD_RELIABLE, UNHELPFUL, GOOD_RELIABLE, UNHELPFUL,
        ]

    def test_conjecture_marker(self):
        evaluation = "- Response 1 is a conjecture without quotes.\n- Response 2 is reliable."
        assert _verdicts_from_evaluation(evaluation, 2) == [CONJECTURE, GOOD_RELIABLE]

    def test_unmentioned_responses_default_unhelpful(self):
        assert _verdicts_from_evaluation("- Response 2 is reliable.", 3) == [
            UNHELPFUL, GOOD_RELIABLE, UNHELPFUL,
        ]

    def test_dates_inside_bullets_do_not_create_indices(self):
        evaluation = "- Response 1: cites the December 15, 2023 report; reliable overall."
        assert _verdicts_from_evaluation(evaluation, 2) == [GOOD_RELIABLE, UNHELPFUL]


class TestEvaluateAndCurate:
    def test_transcript_replay_assigns_verdicts(self):
        backend = ScriptedChatBackend(
            [ScriptEntry("set of respoonses", transcripts.WD_ROUTER_REPLY)]
        )
        answers = [
            make_answer(a, transcripts.WD_AGENT_REPLIES[a]) for a in transcripts.WD_AGENT_IDS
        ]
        routed = evaluate_and_curate(transcripts.WD_QUESTION, answers, backend)
        assert routed.final_answer == transcripts.WD_EXPECTED
        assert routed.verdicts == {
            "a1": UNHELPFUL,
            "a2": GOOD_RELIABLE,
            "a3": UNHELPFUL,
            "a4": GOOD_RELIABLE,
            "a5": UNHELPFUL,
        }

    def test_all_unknown_falls_back_to_router_knowledge(self):
        reply = (
            "Evaluation: \n- Response 1 and 2 are unhelpful; they know nothing.\n"
            "Analysis: Using general knowledge instead.\n"
            "Answer: From my own knowledge: the answer is X."
        )
        backend = ScriptedChatBackend([ScriptEntry("set of respoonses", reply)])
        answers = [
            make_answer("a1", "Analysis: none\nAnswer: I don't know."),
            make_answer("a2", "Analysis: none\nAnswer: I don't know."),
        ]
        routed = evaluate_and_curate("q?", answers, backend)
        assert routed.final_answer == "From my own knowledge: the answer is X."
        assert set(routed.verdicts.values()) == {UNHELPFUL}

    def test_single_good_answer_consistent(self):
        reply = (
            "Evaluation: \n- Response 1 is reliable.\n"
            "Analysis: The single response answers the question.\n"
            "Answer: The answer is forty-two."
        )
        backend = ScriptedChatBackend([ScriptEntry("set of respoonses", reply)])
        routed = evaluate_and_curate(
            "q?", [make_answer("solo", "Analysis: ...\nAnswer: The answer is forty-two.")], backend
        )
        assert routed.final_answer == "The answer is forty-two."

    def test_unparseable_output_reasks_once_then_fails(self):
        backend = ScriptedChatBackend(
            [
                ScriptEntry("set of respoonses", "garbage with no sections"),
                ScriptEntry("set of respoonses", "still garbage"),
            ]
        )
        with pytest.raises(RouterError):
            evaluate_and_curate("q?", [make_answer("a", "Answer: hm")], backend)
        assert len(backend.calls) == 2

    def test_reask_recovers(self):
        good = "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: fine"
        backend = ScriptedChatBackend(
            [
                ScriptEntry("set of respoonses", "garbage"),
                ScriptEntry("set of respoonses", good),
            ]
        )
        routed = evaluate_and_curate("q?", [make_answer("a", "Answer: fine")], backend)
        assert routed.final_answer == "fine"

    def test_usage_accumulates_across_reasks(self):
        good = "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: fine"
        backend = ScriptedChatBackend(
            [
                ScriptEntry("set of respoonses", "garbage"),
                ScriptEntry("set of respoonses", good),
            ]
        )
        routed = evaluate_and_curate("q?", [make_answer("a", "Answer: fine")], backend)
        assert routed.usage == backend.calls[0].usage + backend.calls[1].usage


class TestRouteAndAnswer:
    def test_topical_question_reaches_topical_agent(self, walking_dead_setup, mock_embedder):
        agents, registry, backend = walking_dead_setup
        system = system_of(agents, registry, backend, mock_embedder, max_agents=5)
        routed = route_and_answer(system, transcripts.WD_QUESTION)
        assert routed.final_answer == transcripts.WD_EXPECTED
        assert routed.selected_agent_ids == tuple(transcripts.WD_AGENT_IDS)
        assert routed.verdicts["a2"] == GOOD_RELIABLE
        assert routed.verdicts["a4"] == GOOD_RELIABLE

    def test_max_agents_three_queries_exactly_three(self, mock_embedder):
        # fresh scripted backend: only the three best-matching agents plus the
        # curation step may be called
        script = [e for e in transcripts.WD_SCRIPT if e["match"] != "Celebrated biographies"]
        script = [e for e in script if e["match"] != "expert tracker"]
        backend = transcripts.script_backend(script)
        from conftest import make_agents

        agents, registry = make_agents(
            transcripts.WD_CORPUS,
            transcripts.WD_AGENT_IDS,
            transcripts.WD_CATEGORIES,
            backend,
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder, max_agents=3)
        routed = route_and_answer(system, transcripts.WD_QUESTION)
        assert len(routed.selected_agent_ids) == 3
        assert routed.selected_agent_ids == ("a1", "a2", "a3")
        # 3 agent calls + 1 curation call
        assert len(backend.calls) == 4

    def test_single_agent_registry_degenerates_to_plain_rag(self, mock_embedder):
        backend = ScriptedChatBackend(
            [
                ScriptEntry("set of documents", "Analysis: from docs.\nAnswer: topic answer."),
                ScriptEntry(
                    "set of respoonses",
                    "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: topic answer.",
                ),
            ]
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [{"doc_id": "d", "category": "t", "body": "topic words fill this corpus"}],
            ["solo"],
            ["t"],
            backend,
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder)
        routed = route_and_answer(system, "topic words?")
        assert routed.selected_agent_ids == ("solo",)
        assert routed.final_answer == "topic answer."

    def test_unselected_agent_chunks_never_reach_prompts(self, walking_dead_setup, mock_embedder):
        agents, registry, _ = walking_dead_setup
        script = [e for e in transcripts.WD_SCRIPT if e["match"] not in (
            "Dead Man Walking", "expert tracker", "Celebrated biographies")]
        backend = transcripts.script_backend(script)
        from conftest import make_agents

        agents, registry = make_agents(
            transcripts.WD_CORPUS,
            transcripts.WD_AGENT_IDS,
            transcripts.WD_CATEGORIES,
            backend,
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder, max_agents=2)
        route_and_answer(system, transcripts.WD_QUESTION)
        unselected_text = transcripts.WD_CORPUS[4]["body"]
        for call in backend.calls:
            assert "Celebrated biographies" not in call.prompt
            assert unselected_text not in call.prompt

    def test_failed_agent_recorded_unhelpful_not_fatal(self, mock_embedder):
        # agent "b" has no scripted reply: its call fails; "a" answers fine
        backend = ScriptedChatBackend(
            [
                ScriptEntry("alpha topic", "Analysis: ok\nAnswer: from a."),
                ScriptEntry(
                    "set of respoonses",
                    "Evaluation: \n- Response 1 is reliable.\nAnalysis: ok\nAnswer: from a.",
                ),
            ]
        )
        from conftest import make_agents

        agents, registry = make_agents(
            [
                {"doc_id": "da", "category": "ca", "body": "alpha topic words here"},
                {"doc_id": "db", "category": "cb", "body": "beta subject matter there"},
            ],
            ["a", "b"],
            ["ca", "cb"],
            backend,
            mock_embedder,
        )
        system = system_of(agents, registry, backend, mock_embedder)
        routed = route_and_answer(system, "alpha topic words beta subject")
        assert routed.final_answer == "from a."
        assert routed.verdicts["b"] == UNHELPFUL

    def test_usage_sums_agents_and_router(self, walking_dead_setup, mock_embedder):
        agents, registry, backend = walking_dead_setup
        system = system_of(agents, registry, backend, mock_embedder, max_agents=5)
        routed = route_and_answer(system, transcripts.WD_QUESTION)
        total = sum((c.usage for c in backend.calls), TokenUsage())
        assert routed.usage == total

    def test_concurrent_fan_out_matches_sequential(self, mock_embedder):
        # disjoint matchers keep the scripted backend deterministic even when
        # agents answer from worker threads
        def run(parallelism: int):
            from conftest import make_agents

            backend = transcripts.script_backend(transcripts.WD_SCRIPT)
            agents, registry = make_agents(
                transcripts.WD_CORPUS,
                transcripts.WD_AGENT_IDS,
                transcripts.WD_CATEGORIES,
                backend,
                mock_embedder,
            )
            system = system_of(
                agents, registry, backend, mock_embedder, max_agents=5, parallelism=parallelism
            )
            return route_and_answer(system, transcripts.WD_QUESTION)

        sequential = run(1)
        threaded = run(3)
        assert threaded.final_answer == sequential.final_answer
        assert threaded.selected_agent_ids == sequential.selected_agent_ids
        assert threaded.verdicts == sequential.verdicts
        assert threaded.usage == sequential.usage


class TestEmbedOnce:
    @pytest.mark.parametrize(
        "override", [None, transcripts.WD_AGENT_IDS], ids=["selected", "override"]
    )
    def test_route_and_answer_embeds_once(self, walking_dead_setup, override):
        agents, registry, backend = walking_dead_setup
        counter = count_embeds(agents)
        system = system_of(agents, registry, backend, counter, max_agents=5)
        routed = route_and_answer(system, transcripts.WD_QUESTION, selected_override=override)
        assert routed.final_answer == transcripts.WD_EXPECTED
        assert counter.calls == 1

    def test_route_raw_knowledge_embeds_once(self, walking_dead_setup):
        agents, registry, _ = walking_dead_setup
        counter = count_embeds(agents)
        backend = ScriptedChatBackend([ScriptEntry("Question:", "Answer: Merle Dixon")])
        system = system_of(agents, registry, backend, counter, max_agents=3)
        routed = route_raw_knowledge(system, transcripts.WD_QUESTION)
        assert len(routed.selected_agent_ids) == 3
        assert list(routed.doc_slots) == list(routed.selected_agent_ids)
        assert all(routed.doc_slots.values())
        assert counter.calls == 1
