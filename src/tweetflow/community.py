"""Community detection and hub extraction.

Two detectors are provided: asynchronous label propagation (seeded) and
greedy modularity agglomeration (merge the pair with the best modularity
gain, return the partition at peak modularity). Community ids are always
canonical: dense 0..C-1, ordered by descending size with ties going to
the community whose lexicographically smallest member is smaller.
"""

from __future__ import annotations

import heapq
import logging
import math
import random
from collections import Counter
from collections.abc import Iterable, Mapping
from dataclasses import dataclass

from .errors import DataError
from .netmetrics import _adjacency

log = logging.getLogger(__name__)

MAX_LPA_SWEEPS = 1000


@dataclass(frozen=True)
class Partition:
    assignment: dict[str, int]
    sizes: tuple[int, ...]
    modularity: float | None

    def communities(self) -> list[list[str]]:
        groups: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
            groups.setdefault(cid, []).append(node)
        return [sorted(groups[cid]) for cid in range(len(self.sizes))]


def _canonical_partition(groups: Iterable[Iterable[str]], q: float | None) -> Partition:
    ordered = sorted(
        (sorted(set(g)) for g in groups if g),
        key=lambda members: (-len(members), members[0]),
    )
    assignment = {}
    for cid, members in enumerate(ordered):
        for node in members:
            assignment[node] = cid
    return Partition(assignment, tuple(len(m) for m in ordered), q)


def label_propagation(graph, seed: int = 0) -> Partition:
    """Asynchronous majority-label propagation with seeded tie-breaking.

    Each sweep visits nodes in a fresh seeded random order; a node keeps
    its label if it is already among the neighborhood majority labels,
    otherwise it adopts one of them uniformly at random. Terminates when
    a sweep changes nothing, so every label sits in its neighborhood's
    majority set. Isolated nodes keep their own label.
    """
    adj = _adjacency(graph)
    nodes = list(adj)
    rng = random.Random(seed)
    labels = {node: i for i, node in enumerate(nodes)}
    for _sweep in range(MAX_LPA_SWEEPS):
        order = nodes[:]
        rng.shuffle(order)
        changed = False
        for node in order:
            neighbors = adj[node]
            if not neighbors:
                continue
            counts = Counter(labels[w] for w in neighbors)
            top = max(counts.values())
            candidates = sorted(lab for lab, c in counts.items() if c == top)
            if labels[node] in candidates:
                continue
            labels[node] = candidates[rng.randrange(len(candidates))]
            changed = True
        if not changed:
            break
    else:
        log.warning("label propagation hit the sweep cap without settling")
    groups: dict[int, list[str]] = {}
    for node, lab in labels.items():
        groups.setdefault(lab, []).append(node)
    q = modularity(graph, groups.values()) if any(adj.values()) else None
    return _canonical_partition(groups.values(), q)


def modularity(graph, partition) -> float:
    """Newman modularity of a node grouping, unweighted.

    `partition` may be a Partition, a node -> community mapping, or an
    iterable of communities.
    """
    adj = _adjacency(graph)
    m2 = sum(len(neigh) for neigh in adj.values())  # 2m
    if m2 == 0:
        raise DataError("modularity is undefined for an edgeless graph")
    community_of = _community_mapping(partition, adj)
    q = 0.0
    for comm in set(community_of.values()):
        members = [v for v, c in community_of.items() if c == comm]
        member_set = set(members)
        intra2 = sum(
            1 for v in members for w in adj[v] if w in member_set
        )  # 2 * intra edges
        degree_sum = sum(len(adj[v]) for v in members)
        q += intra2 / m2 - (degree_sum / m2) ** 2
    return q


def _community_mapping(partition, adj) -> dict[str, int]:
    if isinstance(partition, Partition):
        mapping = dict(partition.assignment)
    elif isinstance(partition, Mapping):
        mapping = dict(partition)
    else:
        mapping = {}
        for cid, members in enumerate(partition):
            for node in members:
                mapping[node] = cid
    missing = set(adj) - set(mapping)
    if missing:
        raise DataError(f"partition misses nodes: {sorted(missing)[:5]}")
    return mapping


def greedy_modularity(graph) -> Partition:
    """Agglomerative modularity maximization (merge best pair, keep peak).

    Starting from singletons, repeatedly merges the connected community
    pair with maximal modularity gain (ties by lexicographically smallest
    representative pair) and returns the partition where modularity
    peaked along the merge path.

    Clauset-Newman-Moore style: candidate pairs sit in a max-heap keyed by
    (-gain, u, v) and are checked lazily when popped. A community is named
    by its lexicographically smallest member; nodes are numbered in sorted
    order, so comparing numbers compares names.
    """
    adj = _adjacency(graph)
    m2 = sum(len(neigh) for neigh in adj.values())
    if m2 == 0:
        raise DataError("greedy modularity needs at least one edge")
    m = m2 / 2.0

    names = sorted(adj)
    index = {node: i for i, node in enumerate(names)}
    degree = [len(adj[node]) for node in names]
    links: list[dict[int, int]] = [{} for _ in names]
    for v, neigh in adj.items():
        iv = index[v]
        for w in neigh:
            if v < w:
                iw = index[w]
                links[iv][iw] = links[iv].get(iw, 0) + 1
                links[iw][iv] = links[iw].get(iv, 0) + 1
    alive = [True] * len(names)

    def gain(u: int, v: int) -> float:
        return links[u][v] / m - 2.0 * (degree[u] / m2) * (degree[v] / m2)

    # singletons: no intra edges; summed in the graph's node order
    best_q = current_q = sum(0.0 - (len(neigh) / m2) ** 2 for neigh in adj.values())
    heap = [(-gain(u, v), u, v) for u in range(len(names)) for v in links[u] if u < v]
    heapq.heapify(heap)
    merge_log: list[tuple[int, int]] = []
    best_merges = 0
    while heap:
        neg_gain, u, v = heapq.heappop(heap)
        if not (alive[u] and alive[v]):
            continue  # stale: an endpoint was merged away
        best_gain = gain(u, v)
        if best_gain != -neg_gain:
            continue  # stale: the gain moved since this entry was pushed
        current_q += best_gain
        # merge v into u; u < v, so u stays the representative
        alive[v] = False
        merge_log.append((u, v))
        links_u, links_v = links[u], links[v]
        del links_u[v], links_v[u]
        for other, count in links_v.items():
            del links[other][v]
            links_u[other] = links_u.get(other, 0) + count
        degree[u] += degree[v]
        for other, count in links_u.items():
            links[other][u] = count
            pair = (u, other) if u < other else (other, u)
            heapq.heappush(heap, (-gain(*pair), *pair))
        if current_q > best_q:
            best_q = current_q
            best_merges = len(merge_log)

    groups = {i: [name] for i, name in enumerate(names)}
    for u, v in merge_log[:best_merges]:
        groups[u].extend(groups.pop(v))
    return _canonical_partition(groups.values(), best_q)


def choose_communities(partition: Partition) -> tuple[float, tuple[int, ...]]:
    """Size-threshold selection: keep communities larger than the
    population standard deviation of community sizes.

    If none qualify, the single largest community is chosen.
    """
    sizes = partition.sizes
    if not sizes:
        raise DataError("partition has no communities")
    mean = sum(sizes) / len(sizes)
    threshold = math.sqrt(sum((s - mean) ** 2 for s in sizes) / len(sizes))
    chosen = tuple(cid for cid, size in enumerate(sizes) if size > threshold)
    if not chosen:
        chosen = (0,)  # ids are ordered by descending size
    return threshold, chosen


def hub_dominant(graph, community: Iterable[str]) -> str:
    """Highest-degree node within the community-induced subgraph.

    Degree centrality is computed on the induced subgraph, so external
    neighbors do not count; ties go to the lexicographically smallest
    member. A single-node community is its own hub.
    """
    member_set = set(community)
    if not member_set:
        raise DataError("community is empty")
    if len(member_set) == 1:
        return next(iter(member_set))
    adj = _adjacency(graph)
    best_node, best_degree = None, -1
    for node in sorted(member_set):
        degree = sum(1 for w in adj.get(node, ()) if w in member_set)
        if degree > best_degree:
            best_node, best_degree = node, degree
    assert best_node is not None
    return best_node
