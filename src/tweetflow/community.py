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
from collections.abc import Iterable
from dataclasses import dataclass, field

from .errors import DataError
from .floats import _sum_left
from .wordgraph import _adjacency, _int_adjacency

log = logging.getLogger(__name__)

MAX_LPA_SWEEPS = 1000


@dataclass(frozen=True)
class Partition:
    assignment: dict[str, int]
    sizes: tuple[int, ...]
    modularity: float | None
    # the detector's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)

    def communities(self) -> list[list[str]]:
        groups: dict[int, list[str]] = {}
        for node, cid in self.assignment.items():
            groups.setdefault(cid, []).append(node)
        return [sorted(groups[cid]) for cid in range(len(self.sizes))]


def _canonical_partition(
    groups: Iterable[Iterable[str]], q: float | None, diagnostics: dict | None = None
) -> Partition:
    ordered = sorted(
        (sorted(set(g)) for g in groups if g),
        key=lambda members: (-len(members), members[0]),
    )
    assignment = {}
    for cid, members in enumerate(ordered):
        for node in members:
            assignment[node] = cid
    return Partition(assignment, tuple(len(m) for m in ordered), q, diagnostics)


def label_propagation(graph, seed: int = 0) -> Partition:
    """Asynchronous majority-label propagation with seeded tie-breaking.

    Each sweep visits nodes in a fresh seeded random order; a node keeps
    its label if it is already among the neighborhood majority labels,
    otherwise it adopts one of them uniformly at random. Terminates when
    a sweep changes nothing, so every label sits in its neighborhood's
    majority set. Isolated nodes keep their own label.

    The diagnostics give the sweeps run, whether the last of
    MAX_LPA_SWEEPS still changed a label, and the largest community's
    share of the nodes.
    """
    adj = _adjacency(graph)
    nodes = list(adj)
    # nodes by their index in `nodes`; shuffling the indices draws the same
    # permutation as shuffling the names
    neighbors = _int_adjacency(adj)
    ids = list(range(len(nodes)))
    rng = random.Random(seed)
    labels = ids[:]
    for sweep in range(1, MAX_LPA_SWEEPS + 1):
        order = ids[:]
        rng.shuffle(order)
        changed = False
        for node in order:
            neigh = neighbors[node]
            if not neigh:
                continue
            counts = Counter(map(labels.__getitem__, neigh))
            top = max(counts.values())
            if counts.get(labels[node]) == top:
                continue
            candidates = sorted(lab for lab, c in counts.items() if c == top)
            labels[node] = candidates[rng.randrange(len(candidates))]
            changed = True
        if not changed:
            break
    else:
        log.warning("label propagation hit the sweep cap without settling")
    groups: dict[int, list[str]] = {}
    for node, lab in zip(nodes, labels):
        groups.setdefault(lab, []).append(node)
    q = modularity(adj, groups.values()) if any(adj.values()) else None
    diagnostics = {
        "sweeps": sweep,
        "hit_sweep_cap": changed,
        "largest_share": max(map(len, groups.values())) / len(nodes) if nodes else 0.0,
    }
    return _canonical_partition(groups.values(), q, diagnostics)


def modularity(graph, communities: Iterable[Iterable[str]]) -> float:
    """Newman modularity of a node grouping, unweighted.

    `communities` lists each community's members; every node of the graph
    must sit in exactly one of them.
    """
    adj = _adjacency(graph)
    m2 = sum(len(neigh) for neigh in adj.values())  # 2m
    if m2 == 0:
        raise DataError("modularity is undefined for an edgeless graph")
    groups = [set(members) for members in communities]
    covered = set().union(*groups)
    if sum(map(len, groups)) > len(covered):
        twice = sorted(v for v, n in Counter(v for g in groups for v in g).items() if n > 1)
        raise DataError(f"nodes in two communities: {twice[:5]}")
    if covered != adj.keys():
        missing, unknown = sorted(adj.keys() - covered), sorted(covered - adj.keys())
        raise DataError(f"partition misses nodes {missing[:5]}, names non-nodes {unknown[:5]}")
    q = 0.0
    for members in groups:
        intra2 = sum(1 for v in members for w in adj[v] if w in members)  # 2 * intra edges
        degree_sum = sum(len(adj[v]) for v in members)
        q += intra2 / m2 - (degree_sum / m2) ** 2
    return q


def greedy_modularity(graph) -> Partition:
    """Agglomerative modularity maximization (merge best pair, keep peak).

    Starting from singletons, repeatedly merges the connected community
    pair with maximal modularity gain (ties by lexicographically smallest
    representative pair) and returns the partition where modularity
    peaked along the merge path.

    A community is named by its lexicographically smallest member; nodes
    are numbered in sorted order, so comparing numbers compares names.
    Clauset-Newman-Moore style, one best pair per row: row r holds the
    linked pairs (r, c) with c > r, and best[r] is the row's largest gain,
    ties to the smallest c. The invariant is that best[r] is exact for every
    live row after each merge. A merge of v into u (u < v) changes only the
    gains of pairs that hold u or v, so it restores the invariant by
    rescanning row u, and for each neighbour o of the merged u: if o < u,
    rescanning row o when best[o] pointed at u or v, else offering the new
    gain(o, u); if o > u, rescanning row o when best[o] pointed at v. A
    heap holds one (-gain, r, c) entry per best[r] it was set to; an entry
    is live while it still equals best[r], so the first live entry popped
    is the largest gain with the smallest pair, the same merge the
    all-pairs rescan in tests/oracles.py picks.

    The diagnostics count the merges, the merges up to the peak, the peak Q
    and the heap entries popped, live or stale.
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
    best_gain = [0.0] * len(names)
    best_to = [-1] * len(names)  # -1: the row holds no pair
    heap: list[tuple[float, int, int]] = []

    def gain(u: int, v: int) -> float:
        return links[u][v] / m - 2.0 * (degree[u] / m2) * (degree[v] / m2)

    def settle(r: int, g: float, c: int) -> None:
        best_gain[r], best_to[r] = g, c
        heapq.heappush(heap, (-g, r, c))

    def rescan(r: int) -> None:
        # gain(r, c) inlined, same float operations in the same order
        links_r, scale = links[r], 2.0 * (degree[r] / m2)
        top = max(
            ((links_r[c] / m - scale * (degree[c] / m2), -c) for c in links_r if c > r),
            default=None,
        )
        if top is None:
            best_to[r] = -1
        else:
            settle(r, top[0], -top[1])

    for r in range(len(names)):
        rescan(r)
    # singletons: no intra edges; summed in the graph's node order
    best_q = current_q = _sum_left(0.0 - (len(neigh) / m2) ** 2 for neigh in adj.values())
    merge_log: list[tuple[int, int]] = []
    best_merges = pops = 0
    while heap:
        neg_gain, u, v = heapq.heappop(heap)
        pops += 1
        if not alive[u] or best_to[u] != v or best_gain[u] != -neg_gain:
            continue  # stale: row u's best moved since this entry was pushed
        current_q += best_gain[u]
        # merge v into u; u < v, so u stays the representative
        alive[v] = False
        merge_log.append((u, v))
        links_u, links_v = links[u], links[v]
        del links_u[v], links_v[u]
        for other, count in links_v.items():
            del links[other][v]
            links_u[other] = links_u.get(other, 0) + count
        degree[u] += degree[v]
        rescan(u)
        for other, count in links_u.items():
            links[other][u] = count
            if other > u:
                if best_to[other] == v:
                    rescan(other)
            elif best_to[other] in (u, v):
                rescan(other)
            else:  # row `other` holds (other, u), so it has a best
                g = gain(other, u)
                if g > best_gain[other] or (g == best_gain[other] and u < best_to[other]):
                    settle(other, g, u)
        if current_q > best_q:
            best_q = current_q
            best_merges = len(merge_log)

    groups = {i: [name] for i, name in enumerate(names)}
    for u, v in merge_log[:best_merges]:
        groups[u].extend(groups.pop(v))
    diagnostics = {
        "merges": len(merge_log),
        "merges_to_peak": best_merges,
        "peak_q": best_q,
        "heap_pops": pops,
    }
    return _canonical_partition(groups.values(), best_q, diagnostics)


def choose_communities(partition: Partition) -> tuple[float, tuple[int, ...]]:
    """Size-threshold selection: keep communities larger than the
    population standard deviation of community sizes.

    If none qualify, the single largest community is chosen.
    """
    sizes = partition.sizes
    if not sizes:
        raise DataError("partition has no communities")
    mean = sum(sizes) / len(sizes)
    threshold = math.sqrt(_sum_left((s - mean) ** 2 for s in sizes) / len(sizes))
    chosen = tuple(cid for cid, size in enumerate(sizes) if size > threshold)
    if not chosen:
        chosen = (0,)  # ids are ordered by descending size
    return threshold, chosen


def hub_dominant(graph, community: Iterable[str]) -> str:
    """Highest-degree node within the community-induced subgraph.

    Degree centrality is computed on the induced subgraph, so external
    neighbors do not count; ties go to the lexicographically smallest
    member. A single-node community is its own hub. Only the members'
    neighbour lists are read, so a mapping is not copied.
    """
    member_set = set(community)
    if not member_set:
        raise DataError("community is empty")
    if len(member_set) == 1:
        return next(iter(member_set))
    adj = graph.adjacency() if hasattr(graph, "adjacency") else graph
    best_node, best_degree = None, -1
    for node in sorted(member_set):
        degree = sum(1 for w in adj.get(node, ()) if w in member_set)
        if degree > best_degree:
            best_node, best_degree = node, degree
    assert best_node is not None
    return best_node
