from __future__ import annotations

import itertools
import json
import random
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from ragroute.boundary import (
    _pairwise_cosine_distance,
    build_profile,
    cluster_count,
    cluster_indices,
    save_profile,
)
from conftest import cosine_similarity
from ragroute.embedding import MockEmbedder
from ragroute.router import RouterRegistry


# --- independent oracles -----------------------------------------------------

def naive_complete_linkage(embeddings: np.ndarray, n: int) -> list[list[int]]:
    """Naive re-implementation: recompute every cluster-pair distance from
    scratch each merge (max over member pairs via cosine_similarity)."""
    clusters = [[i] for i in range(len(embeddings))]
    while len(clusters) > n:
        best = None
        best_pair = None
        for ia, ib in itertools.combinations(range(len(clusters)), 2):
            a, b = clusters[ia], clusters[ib]
            d = max(
                1.0 - cosine_similarity(embeddings[i], embeddings[j])
                for i in a
                for j in b
            )
            key = (d, min(a[0], b[0]), max(a[0], b[0]))
            if best is None or key < best:
                best = key
                best_pair = (ia, ib)
        ia, ib = best_pair
        merged = sorted(clusters[ia] + clusters[ib])
        clusters = [c for k, c in enumerate(clusters) if k not in (ia, ib)] + [merged]
    return sorted(clusters, key=lambda c: c[0])


def greedy_complete_linkage(embeddings: np.ndarray, n: int) -> list[list[int]]:
    """The global-minimum loop: scan the whole linkage matrix for the smallest
    distance at every merge and take the smallest (min member, min member)
    pair among the ties. O(m^3)."""
    m = len(embeddings)
    if not (1 <= n <= m):
        raise ValueError(f"need 1 <= n <= {m}, got n={n}")
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    link = _pairwise_cosine_distance(embeddings)
    np.fill_diagonal(link, np.inf)
    while len(members) > n:
        dmin = link.min()
        best_pair: tuple[int, int] | None = None
        best_key: tuple[int, int] | None = None
        for r, c in np.argwhere(link == dmin):
            if r >= c:
                continue
            key = (min(members[r][0], members[c][0]), max(members[r][0], members[c][0]))
            if best_key is None or key < best_key:
                best_key = key
                best_pair = (int(r), int(c))
        i, j = best_pair
        keep, drop = (i, j) if members[i][0] < members[j][0] else (j, i)
        members[keep] = sorted(members[keep] + members.pop(drop))
        merged = np.maximum(link[keep], link[drop])
        link[keep, :] = merged
        link[:, keep] = merged
        link[keep, keep] = np.inf
        link[drop, :] = np.inf
        link[:, drop] = np.inf
    return sorted(members.values(), key=lambda ms: ms[0])


@st.composite
def tie_heavy_inputs(draw) -> tuple[np.ndarray, int]:
    """Up to 60 rows of one-hot, small-integer or random normal vectors,
    optionally drawn with repeats, and a cluster count n in 1..m."""
    d = draw(st.integers(1, 6))
    k = draw(st.integers(1, 60))
    kind = draw(st.sampled_from(["one-hot", "small-int", "normal"]))
    if kind == "one-hot":
        rows = np.eye(d)[draw(st.lists(st.integers(0, d - 1), min_size=k, max_size=k))]
    elif kind == "small-int":
        row = st.lists(st.integers(-2, 2), min_size=d, max_size=d).filter(any)
        rows = np.array(draw(st.lists(row, min_size=k, max_size=k)), dtype=np.float64)
    else:
        rows = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).normal(size=(k, d))
    if draw(st.booleans()):
        rows = rows[draw(st.lists(st.integers(0, k - 1), min_size=1, max_size=60))]
    return rows, draw(st.integers(1, len(rows)))


def max_intra_distance(partition: list[list[int]], embeddings: np.ndarray) -> float:
    worst = 0.0
    for members in partition:
        for i, j in itertools.combinations(members, 2):
            worst = max(worst, 1.0 - cosine_similarity(embeddings[i], embeddings[j]))
    return worst


def all_partitions(items: list[int], n: int):
    """Every partition of items into exactly n non-empty blocks."""
    if n == 1:
        yield [list(items)]
        return
    if len(items) == n:
        yield [[i] for i in items]
        return
    head, rest = items[0], items[1:]
    for sub in all_partitions(rest, n - 1):
        yield [[head]] + [list(b) for b in sub]
    for sub in all_partitions(rest, n):
        for k in range(len(sub)):
            yield [sorted([head] + sub[k])] + [list(b) for b in sub[:k] + sub[k + 1 :]]


def separable_embeddings(
    rng: random.Random, group_sizes: list[int], embedder: MockEmbedder
) -> tuple[np.ndarray, list[int]]:
    """Mock embeddings in vocabulary-disjoint groups: every cross-group pair is
    orthogonal, every within-group pair shares a dominant base token."""
    texts = []
    labels = []
    for g, size in enumerate(group_sizes):
        base = f"grp{g}base"
        for k in range(size):
            texts.append(f"{base} {base} {base} grp{g}item{k}x")
            labels.append(g)
    matrix = embedder.embed_batch(texts)
    for i, j in itertools.combinations(range(len(texts)), 2):
        if labels[i] != labels[j]:
            assert cosine_similarity(matrix[i], matrix[j]) == 0.0
    return matrix, labels


# --- tests --------------------------------------------------------------------

class TestClusterCount:
    def test_examples(self):
        assert cluster_count(1) == 1
        assert cluster_count(100) == 10
        assert cluster_count(10) == 3

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            cluster_count(0)

    def test_floor_of_sqrt(self):
        for m in range(1, 500):
            assert cluster_count(m) == max(1, int(m**0.5))


class TestClusterIndices:
    def test_identity_partition(self):
        rng = np.random.default_rng(0)
        vectors = rng.normal(size=(5, 6))
        assert cluster_indices(vectors, 5) == [[0], [1], [2], [3], [4]]

    def test_matches_naive_oracle_small_instances(self):
        rng = np.random.default_rng(99)
        for _ in range(60):
            m = int(rng.integers(2, 9))
            n = int(rng.integers(1, m + 1))
            vectors = rng.normal(size=(m, 6))
            assert cluster_indices(vectors, n) == naive_complete_linkage(vectors, n)

    def test_six_vectors_three_clusters_vs_oracle(self):
        rng = np.random.default_rng(4)
        vectors = rng.normal(size=(6, 8))
        assert cluster_indices(vectors, 3) == naive_complete_linkage(vectors, 3)

    def test_two_separated_groups_recovered(self, mock_embedder):
        matrix, labels = separable_embeddings(random.Random(1), [3, 4], mock_embedder)
        partition = cluster_indices(matrix, 2)
        got = [sorted(members) for members in partition]
        want = [
            sorted(i for i, g in enumerate(labels) if g == 0),
            sorted(i for i, g in enumerate(labels) if g == 1),
        ]
        assert got == want
        # greedy result achieves the brute-force min-max objective exactly
        best = min(
            max_intra_distance(p, matrix) for p in all_partitions(list(range(len(labels))), 2)
        )
        assert max_intra_distance(partition, matrix) == best

    def test_merge_replay_picks_minimum_linkage_each_step(self):
        # replay: at every merge the chosen pair has minimal complete-linkage
        # distance among all live cluster pairs
        rng = np.random.default_rng(12)
        vectors = rng.normal(size=(7, 5))
        clusters = [[i] for i in range(7)]

        def linkage(a, b):
            return max(
                1.0 - cosine_similarity(vectors[i], vectors[j]) for i in a for j in b
            )

        for n in range(6, 2, -1):
            after = cluster_indices(vectors, n)
            merged = [c for c in after if c not in clusters]
            assert len(merged) == 1
            new = merged[0]
            halves = [c for c in clusters if set(c) <= set(new)]
            assert len(halves) == 2
            chosen = linkage(*halves)
            others = [
                linkage(a, b)
                for a, b in itertools.combinations(clusters, 2)
            ]
            assert chosen == min(others)
            clusters = after

    @given(tie_heavy_inputs())
    def test_matches_greedy_loop_with_ties(self, case):
        vectors, n = case
        assert cluster_indices(vectors, n) == greedy_complete_linkage(vectors, n)

    def test_matches_greedy_loop_at_agent_size(self):
        rng = np.random.default_rng(31)
        vectors = rng.integers(0, 2, size=(300, 12)).astype(np.float64)
        vectors[vectors.sum(axis=1) == 0, 0] = 1.0
        assert cluster_indices(vectors, 17) == greedy_complete_linkage(vectors, 17)

    def test_peak_memory_is_one_distance_matrix(self):
        m = 1000
        vectors = np.random.default_rng(32).normal(size=(m, 32))
        tracemalloc.start()
        try:
            cluster_indices(vectors, cluster_count(m))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * m * m * 8

    def test_bad_n_rejected(self):
        vectors = np.random.default_rng(0).normal(size=(3, 4))
        with pytest.raises(ValueError):
            cluster_indices(vectors, 4)
        with pytest.raises(ValueError):
            cluster_indices(vectors, 0)


class TestBuildProfile:
    def test_single_chunk(self):
        vec = np.array([[0.5, 0.5]], np.float32)
        profile = build_profile("agent", ["c0"], vec)
        assert profile.num_chunks == 1 and profile.num_clusters == 1
        assert np.array_equal(profile.centroids, vec)

    def test_four_identical_embeddings_two_clusters(self):
        vec = np.tile(np.array([[1.0, 2.0, 3.0]], np.float32), (4, 1))
        profile = build_profile("agent", ["a", "b", "c", "d"], vec)
        assert profile.num_clusters == 2
        for centroid in profile.centroids:
            assert np.allclose(centroid, vec[0], atol=1e-6)

    def test_three_topics_recovered(self, mock_embedder):
        matrix, labels = separable_embeddings(random.Random(5), [3, 3, 3], mock_embedder)
        ids = [f"c{i}" for i in range(9)]
        profile = build_profile("agent", ids, matrix)
        assert profile.num_clusters == 3
        got = sorted(tuple(sorted(members)) for members in profile.members)
        want = sorted(
            tuple(sorted(f"c{i}" for i, g in enumerate(labels) if g == topic))
            for topic in range(3)
        )
        assert got == want

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            build_profile("agent", [], np.zeros((0, 3)))

    def test_one_chunk_id_per_embedding(self):
        with pytest.raises(ValueError, match="one chunk_id per embedding required"):
            build_profile("agent", ["c0", "c1"], np.ones((3, 4)))

    def test_a_singleton_keeps_its_row(self):
        """Three near copies and one far row: the far row is cluster 1 alone,
        and its centroid is its row, bit for bit."""
        rng = np.random.default_rng(2)
        base = rng.normal(size=5)
        vectors = np.array([base, base + 1e-3, base - 1e-3, -base], np.float32)
        profile = build_profile("agent", ["c0", "c1", "c2", "c3"], vectors)
        assert profile.members == (("c0", "c1", "c2"), ("c3",))
        assert np.array_equal(profile.centroids[1], vectors[3])

    def test_centroid_is_the_float64_mean_rounded_to_float32(self):
        rng = np.random.default_rng(8)
        vectors = rng.normal(size=(9, 6)).astype(np.float32)
        ids = [f"c{i}" for i in range(9)]
        profile = build_profile("agent", ids, vectors)
        assert profile.centroids.dtype == np.float32
        for members, centroid in zip(profile.members, profile.centroids):
            rows = [ids.index(c) for c in members]
            mean = vectors[rows].astype(np.float64).mean(axis=0).astype(np.float32)
            assert np.array_equal(centroid, mean)

    def test_clusters_partition_the_chunks(self):
        rng = np.random.default_rng(13)
        ids = [f"c{i}" for i in range(20)]
        profile = build_profile("agent", ids, rng.normal(size=(20, 6)))
        assert profile.num_clusters == len(profile.members) == 4
        seen = [c for members in profile.members for c in members]
        assert sorted(seen) == sorted(ids)
        assert len(set(seen)) == len(ids)

    def test_cluster_budget_follows_chunk_count(self, mock_embedder):
        rng = random.Random(3)
        for m in (1, 2, 5, 16, 17):
            texts = [f"tok{i}a tok{i}b" for i in range(m)]
            matrix = mock_embedder.embed_batch(texts)
            profile = build_profile("a", [f"c{i}" for i in range(m)], matrix)
            assert profile.num_clusters == cluster_count(m)
            assert len(profile.members) == len(profile.centroids) == profile.num_clusters


class TestCentroidsInTheRegistry:
    def test_one_row_per_cluster_numbered_in_its_agents_run(self):
        rng = np.random.default_rng(1)
        p1 = build_profile("a1", [f"c{i}" for i in range(9)], rng.normal(size=(9, 4)))
        p2 = build_profile("a2", [f"c{i}" for i in range(4)], rng.normal(size=(4, 4)))
        matrix = np.concatenate([p1.centroids, p2.centroids])
        registry = RouterRegistry(["a1"] * 3 + ["a2"] * 2, matrix)
        assert registry.entries == (("a1", 0), ("a1", 1), ("a1", 2), ("a2", 0), ("a2", 1))
        assert np.array_equal(registry.centroids_of("a1"), p1.centroids)
        assert np.array_equal(registry.centroids_of("a2"), p2.centroids)

    def test_no_chunk_id_or_text_reaches_the_registry_files(self, tmp_path, mock_embedder):
        texts = ["private alpha words", "private beta words"]
        ids = ["doc-secret:0", "doc-secret:1"]
        profile = build_profile("a", ids, mock_embedder.embed_batch(texts))
        registry = RouterRegistry(["a"] * profile.num_clusters, profile.centroids)
        registry.save(tmp_path / "registry.json", tmp_path / "registry_vectors")
        for path in tmp_path.iterdir():
            data = path.read_bytes()
            assert b"secret" not in data and b"private" not in data, path.name


class TestProfilePersistence:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(21)
        profile = build_profile("aX", [f"c{i}" for i in range(6)], rng.normal(size=(6, 5)))
        save_profile(profile, tmp_path / "profile.json")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["profile.json"]
        saved = json.loads((tmp_path / "profile.json").read_text(encoding="utf-8"))
        assert saved == {
            "agent_id": profile.agent_id,
            "m": profile.num_chunks,
            "n": profile.num_clusters,
            "clusters": [
                {"cluster_id": i, "member_chunk_ids": list(members)}
                for i, members in enumerate(profile.members)
            ],
        }
