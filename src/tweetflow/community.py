"""Community detection and hub extraction.

Two detectors are provided: asynchronous label propagation (seeded) and
greedy modularity agglomeration (merge the pair with the best modularity
gain, return the partition at peak modularity). The sweeps of the one and
the merge loop of the other are C kernels (_graph.c), built and loaded by
`_kernels`, over the CSR arrays of `netmetrics._prepared`; like the
centralities, every function here takes a graph object, a mapping or a
prepared `netmetrics._Graph`. Community ids are always canonical: dense
0..C-1, ordered by descending size with ties going to the community whose
lexicographically smallest member is smaller.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field
from itertools import pairwise

from . import _kernels
from .errors import DataError
from .floats import _sum_left
from .netmetrics import _adjacency, _Graph, _prepared

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


def _propagate(graph: _Graph, rng: random.Random) -> tuple[array, int, bool]:
    """Label propagation's sweeps, run by tf_label_propagation in C from
    every node in its own label: each node's last label (a node index), the
    sweeps run and whether the last of MAX_LPA_SWEEPS still changed a
    label. The kernel draws the words `rng` would draw for the same
    shuffles and randrange calls, and `rng` is left in the state they
    leave it in."""
    n = len(graph.adj)
    version, state, gauss_next = rng.getstate()
    mt = array("I", state)
    labels = array("i", range(n))
    result = array("q", [0, 0])
    _kernels._call("tf_label_propagation", n, graph.arc_start, graph.heads, MAX_LPA_SWEEPS, mt,
                   labels, array("i", [0]) * n, array("q", [0]) * n, array("i", [0]) * n, result)
    rng.setstate((version, tuple(mt), gauss_next))
    return labels, result[0], bool(result[1])


def label_propagation(graph, seed: int = 0) -> Partition:
    """Asynchronous majority-label propagation with seeded tie-breaking.

    Each sweep visits nodes in a fresh seeded random order; a node keeps
    its label if it is already among the neighborhood majority labels,
    otherwise it adopts one of them uniformly at random. Terminates when
    a sweep changes nothing, so every label sits in its neighborhood's
    majority set. Isolated nodes keep their own label.

    Nodes and labels are numbered in `_adjacency` order. Each sweep draws
    the order random.Random(seed).shuffle gives the indices 0..n-1, and a
    node that changes label takes the tied labels, in ascending order, at
    randrange(len); the loop over node indices in tests/oracles.py draws
    the same, so the C kernel gives its labels and sweeps.

    The diagnostics give the sweeps run, whether the last of
    MAX_LPA_SWEEPS still changed a label, and the largest community's
    share of the nodes.
    """
    prepared = _prepared(graph)
    nodes = list(prepared.adj)
    labels, sweeps, changed = _propagate(prepared, random.Random(seed))
    if changed:
        log.warning("label propagation hit the sweep cap without settling")
    groups: dict[int, list[str]] = {}
    for node, lab in zip(nodes, labels):
        groups.setdefault(lab, []).append(node)
    q = modularity(prepared, groups.values()) if prepared.heads else None
    diagnostics = {
        "sweeps": sweeps,
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

    Python sums the singletons' Q and replays the merge log to the peak;
    the merge loop runs in C (_graph.c) over the prepared graph's CSR
    arrays, renumbered by name when a graph object lists its nodes in
    another order, and over sorted rows of link counts, a merge making row
    u the union of rows u and v. It does the float operations of the loop
    over dict rows in tests/oracles.py in the same order, so every gain and
    Q has its bits.

    The diagnostics count the merges, the merges up to the peak, the peak Q
    and the heap entries popped, live or stale.
    """
    prepared = _prepared(graph)
    m2 = len(prepared.heads)
    if m2 == 0:
        raise DataError("greedy modularity needs at least one edge")
    # singletons: no intra edges; summed in the graph's node order
    q = _sum_left(0.0 - ((end - start) / m2) ** 2 for start, end in pairwise(prepared.arc_start))
    names = sorted(prepared.adj)
    if names != list(prepared.adj):
        prepared = _prepared({node: prepared.adj[node] for node in names})
    n = len(names)
    log_u, log_v = array("i", [0]) * n, array("i", [0]) * n
    result, peak_q = array("q", [0]) * 4, array("d", [0.0])
    _kernels._call("tf_greedy_modularity", n, prepared.arc_start, prepared.heads, q,
                   log_u, log_v, result, peak_q)
    merges, best_merges, pops, failed = result
    if failed:
        raise MemoryError("greedy modularity: the merge loop ran out of memory")

    groups = {i: [name] for i, name in enumerate(names)}
    for u, v in zip(log_u[:best_merges], log_v[:best_merges]):
        groups[u].extend(groups.pop(v))
    diagnostics = {
        "merges": merges,
        "merges_to_peak": best_merges,
        "peak_q": peak_q[0],
        "heap_pops": pops,
    }
    return _canonical_partition(groups.values(), peak_q[0], diagnostics)


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
