"""Knowledge-boundary profiles: cluster an agent's chunk embeddings into one
float32 matrix of per-cluster centroids for routing.

Clustering is complete-linkage agglomerative on distance 1 - cosine, run
until ``max(1, floor(sqrt(m)))`` clusters remain. It follows Muellner's
generic algorithm (arXiv:1109.2378): every cluster caches its nearest
neighbour, so a merge rescans only the few rows it can have changed. That
takes O(m^2) time in practice and O(m^3) at worst, and one m x m float64
distance matrix. On the perfbench ``large-agents`` seed-1 vectors (dim
1024; m=1600 is two agents' rows stacked), ``cluster_indices`` took
37-66 ms at m=800 and 0.18-0.24 s at m=1600, as the median of 9 calls in
each of four runs on a shared 2-vCPU host.
Equally distant pairs merge in the order of their (smallest member,
smallest member), as a scan of the whole matrix for its minimum at every
merge would. Centroids are plain arithmetic means of member embeddings (not
re-normalized: cosine scoring is scale-invariant, so normalization cannot
change routing order). Only centroids ever leave the agent; raw chunk text
stays local.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# load_vectors and save_vectors are unused; perfbench/spans.py traces them here.
from .store import load_vectors, save_vectors, write_json


@dataclass(frozen=True)
class AgentProfile:
    """An agent's clusters: cluster i holds the chunk ids ``members[i]``,
    and row i of ``centroids`` (float32) is their mean embedding."""

    agent_id: str
    num_chunks: int
    num_clusters: int
    members: tuple[tuple[str, ...], ...]
    centroids: np.ndarray


def cluster_count(m: int) -> int:
    """Cluster budget for an agent holding m chunks: max(1, floor(sqrt(m)))."""
    if m <= 0:
        raise ValueError("m must be >= 1")
    return max(1, math.isqrt(m))


def _pairwise_cosine_distance(matrix: np.ndarray) -> np.ndarray:
    mat = np.asarray(matrix, dtype=np.float64)
    norms = np.linalg.norm(mat, axis=1)
    if not np.all(norms > 0.0):
        raise ValueError("undefined similarity: zero vector")
    unit = mat / norms[:, None]
    # one m x m array: the product, clipped and turned into distances in place
    dist = unit @ unit.T
    np.clip(dist, -1.0, 1.0, out=dist)
    return np.subtract(1.0, dist, out=dist)


def cluster_indices(embeddings: np.ndarray, n: int) -> list[list[int]]:
    """Complete-linkage agglomerative clustering down to n clusters.

    Returns the partition as sorted member-index lists, ordered by smallest
    member. At each step the pair of clusters with the smallest
    complete-linkage distance (max pairwise member distance) merges; ties
    break on the smallest (min member, min member) pair, so the result is
    deterministic. Linkage distances are maintained by max-updates, which is
    exact for complete linkage.

    Each live cluster sits in the row of its smallest member, so the tie key
    is the row pair (r, c), r < c. Row r caches its nearest candidate
    ``nn[r]``, the first argmin of ``link[r, r+1:]``, and that distance
    ``best[r]``; the first argmin of ``best`` then names the smallest
    (r, c) at the minimum. Max-updates only raise distances, so after a
    merge only the kept row and the rows whose neighbour was the kept or
    the dropped cluster need a new scan.
    """
    m = len(embeddings)
    if not (1 <= n <= m):
        raise ValueError(f"need 1 <= n <= {m}, got n={n}")
    members: dict[int, list[int]] = {i: [i] for i in range(m)}
    link = _pairwise_cosine_distance(embeddings)
    np.fill_diagonal(link, np.inf)
    nn = np.full(m, -1, dtype=np.intp)
    best = np.full(m, np.inf)

    def rescan(r: int) -> None:
        row = link[r, r + 1 :]
        c = int(row.argmin())
        nn[r] = r + 1 + c
        best[r] = row[c]

    for r in range(m - 1):
        rescan(r)
    while len(members) > n:
        keep = int(best.argmin())
        drop = int(nn[keep])
        members[keep] += members.pop(drop)
        merged = np.maximum(link[keep], link[drop])
        link[keep, :] = merged
        link[:, keep] = merged
        link[keep, keep] = np.inf
        # retire drop: no row may pick it again, and its own row is never read
        link[:, drop] = np.inf
        nn[drop] = -1
        best[drop] = np.inf
        for r in np.flatnonzero((nn == keep) | (nn == drop)).tolist():
            rescan(r)
    return sorted((sorted(ms) for ms in members.values()), key=lambda ms: ms[0])


def build_profile(agent_id: str, chunk_ids: list[str], embeddings: np.ndarray) -> AgentProfile:
    """Cluster an agent's chunks into max(1, floor(sqrt(m))) clusters; each
    centroid is the float64 mean of its members, rounded to float32."""
    m = len(chunk_ids)
    if m == 0:
        raise ValueError("agent has no chunks")
    if m != len(embeddings):
        raise ValueError("one chunk_id per embedding required")
    n = cluster_count(m)
    mat = np.asarray(embeddings, dtype=np.float64)
    parts = cluster_indices(mat, n)
    return AgentProfile(
        agent_id=agent_id,
        num_chunks=m,
        num_clusters=n,
        members=tuple(tuple(chunk_ids[i] for i in part) for part in parts),
        centroids=np.array([mat[part].mean(axis=0) for part in parts], dtype=np.float32),
    )


def save_profile(profile: AgentProfile, json_path: str | Path) -> None:
    """Write the profile manifest: the counts and each cluster's members.
    The centroids themselves are stored once, in the registry."""
    manifest = {
        "agent_id": profile.agent_id,
        "m": profile.num_chunks,
        "n": profile.num_clusters,
        "clusters": [
            {"cluster_id": i, "member_chunk_ids": list(ids)}
            for i, ids in enumerate(profile.members)
        ],
    }
    write_json(json_path, manifest)
