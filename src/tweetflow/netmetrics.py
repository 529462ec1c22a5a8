"""The four node-importance measures over undirected, unweighted graphs.

All functions accept either a graph object exposing adjacency() or a
plain node -> neighbors mapping. Shortest paths are unweighted (BFS);
the word networks are disconnected in practice, so closeness uses the
reach-scaled form

    C(v) = ((r - 1) / (N - 1)) * ((r - 1) / sum of distances from v)

where r is the number of nodes v can reach (itself included), which
degrades gracefully to 0 for isolated nodes. Betweenness follows
Brandes' dependency accumulation. Both BFS-based measures number the
nodes in adjacency order: closeness runs every source's BFS at once over
bit sets, betweenness expands whole BFS levels over CSR arrays in numpy.
Eigenvector centrality is power iteration with a self-damping fallback
for bipartite oscillation.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .errors import DataError
from .floats import _sum_left

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CentralityScores:
    measure: str
    values: dict[str, float]
    normalized: bool
    # the measure's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)


def _adjacency(graph) -> dict[str, list[str]]:
    if hasattr(graph, "adjacency"):
        return graph.adjacency()
    return {node: sorted(neigh) for node, neigh in sorted(graph.items())}


def degree_centrality(graph) -> CentralityScores:
    """Unweighted neighbor count scaled by N-1."""
    adj = _adjacency(graph)
    n = len(adj)
    if n < 2:
        raise DataError("degree centrality needs at least 2 nodes")
    values = {node: len(neigh) / (n - 1) for node, neigh in adj.items()}
    return CentralityScores("degree", values, normalized=True)


def _int_adjacency(adj: Mapping[str, Sequence[str]]) -> list[list[int]]:
    """Neighbour lists as node indices, numbering nodes in `adj` order."""
    index = {node: i for i, node in enumerate(adj)}
    return [[index[w] for w in neigh] for neigh in adj.values()]


def closeness_centrality(graph) -> CentralityScores:
    """Reach-scaled closeness per component; isolated nodes score 0.

    One breadth-first search from every source at once, one bit per source
    (Then et al., "The More the Merrier", PVLDB 2014). reached[v] has bit t
    set once v has reached node t, and grew[v] holds the bits v gained at
    the last level. v reaches t at depth d exactly when one of its
    neighbours reached t at depth d - 1, so the OR of the neighbours' grew,
    less reached[v], is the set of nodes at distance d from v. Their count
    gives v's reach and distance total as the integers a BFS from v counts,
    so the float expression gets the same bits. Each level costs one OR
    per arc over n-bit ints; the three int lists take about 3 n^2 / 8 bytes.
    """
    adj = _adjacency(graph)
    n = len(adj)
    if n < 2:
        raise DataError("closeness centrality needs at least 2 nodes")
    neighbors = _int_adjacency(adj)
    reached = [1 << v for v in range(n)]
    grew = reached[:]
    reach, total = [1] * n, [0] * n
    depth = 0
    while True:
        depth += 1
        nxt = [0] * n
        for v, neigh in enumerate(neighbors):
            acc = 0
            for w in neigh:
                acc |= grew[w]
            fresh = acc & ~reached[v]
            if fresh:
                reached[v] |= fresh
                nxt[v] = fresh
                count = fresh.bit_count()
                reach[v] += count
                total[v] += depth * count
        if not any(nxt):
            break
        grew = nxt
    values = {}
    for node, r, t in zip(adj, reach, total):
        values[node] = ((r - 1) / (n - 1)) * ((r - 1) / t) if r > 1 and t > 0 else 0.0
    return CentralityScores("closeness", values, normalized=True)


def _csr(neighbors: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer neighbour lists as CSR arrays (indptr, degree, heads): node v's
    arcs are indptr[v]:indptr[v + 1], in list order, and heads[a] is the node
    arc a points to."""
    degree = np.fromiter(map(len, neighbors), dtype=np.intp, count=len(neighbors))
    indptr = np.zeros(len(neighbors) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    heads = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=int(indptr[-1]))
    return indptr, degree, heads


def betweenness_centrality(graph, normalized: bool = False) -> CentralityScores:
    """Brandes' algorithm over unweighted shortest paths.

    Raw scores count each unordered node pair once; the normalized option
    divides by (N-1)(N-2)/2.

    Each source runs one breadth-first search a whole level at a time, in
    numpy, and gives the same float bits as the one-node-at-a-time queue
    loop (kept in tests/oracles.py), because every sum adds the same terms
    in the same order:

    - A level's arcs are expanded in queue order, then adjacency order: the
      order in which the queue loop meets them. A new node's first arc fixes
      its place in the queue (``minimum.at`` of the arc rank), so the next
      level comes out in queue order.
    - sigma (the shortest-path count, a float) is ``np.bincount`` over the
      arcs into the new level. bincount adds its weights one by one in input
      order, starting from 0.0, as the loop's ``sigma[w] += sigma[v]`` does;
      so the bits agree even once sigma exceeds 2**53 and rounds.
    - The dependency delta[v] sums over v's successors in stack-pop order,
      i.e. reverse queue order. Each level's predecessor arcs are stably
      sorted by their successor's queue place, descending, and summed into
      delta with ``np.bincount`` by v.
    - Every source's delta (its own entry zeroed) is added to the totals in
      source order; a node the source cannot reach adds 0.0, which changes
      no bit of a non-negative total.
    """
    adj = _adjacency(graph)
    nodes = list(adj)
    n = len(nodes)
    indptr, degree, heads = _csr(_int_adjacency(adj))
    tails = np.repeat(np.arange(n), degree)  # the node each arc leaves

    def arcs_of(level: np.ndarray) -> np.ndarray:
        """The level's arc indices, node by node in level order."""
        counts = degree[level]
        ends = np.cumsum(counts)
        return np.arange(ends[-1]) + np.repeat(indptr[level] - ends + counts, counts)

    centrality = np.zeros(n)
    first = np.empty(n, dtype=np.intp)  # a new node's first arc rank in its level
    for source in range(n):
        seen = np.zeros(n, dtype=bool)
        sigma = np.zeros(n)
        seen[source] = True
        sigma[source] = 1.0
        level = np.array([source], dtype=np.intp)
        steps = []  # per level: its predecessor arcs (v, w), w in reverse queue order
        while True:
            arcs = arcs_of(level)
            w = heads[arcs]
            fresh = ~seen[w]
            w = w[fresh]
            if not len(w):
                break
            v = tails[arcs[fresh]]
            rank = np.arange(len(w))
            first[w] = len(w)
            np.minimum.at(first, w, rank)
            level = w[first[w] == rank]
            seen[level] = True
            sigma += np.bincount(w, sigma[v], n)
            back = np.argsort(-first[w], kind="stable")
            steps.append((v[back], w[back]))
        delta = np.zeros(n)
        for v, w in reversed(steps):
            delta += np.bincount(v, (sigma[v] / sigma[w]) * (1.0 + delta[w]), n)
        delta[source] = 0.0
        centrality += delta
    # each unordered pair was accumulated from both endpoints
    centrality /= 2.0
    if normalized and n > 2:
        centrality *= 2.0 / ((n - 1) * (n - 2))
    return CentralityScores(
        "betweenness", dict(sorted(zip(nodes, centrality.tolist()))), normalized
    )


class NonConvergenceError(DataError):
    """Power iteration failed to converge even with damping."""


def _power_iteration(
    adj: Mapping[str, Sequence[str]],
    nodes: list[str],
    tol: float,
    max_iters: int,
    damping: float,
) -> tuple[dict[str, float] | None, int]:
    """The converged vector (None if it never converged) and the iterations run."""
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    neighbor_ids = [[index[w] for w in adj[v]] for v in nodes]
    x = [1.0 / n ** 0.5] * n
    for iteration in range(1, max_iters + 1):
        nxt = [damping * xi for xi in x]
        for i, neigh in enumerate(neighbor_ids):
            acc = nxt[i]
            for j in neigh:
                acc += x[j]
            nxt[i] = acc
        norm = _sum_left(v * v for v in nxt) ** 0.5
        if norm == 0.0:
            return None, iteration
        nxt = [v / norm for v in nxt]
        if max(abs(a - b) for a, b in zip(nxt, x)) < tol:
            return dict(zip(nodes, nxt)), iteration
        x = nxt
    return None, max_iters


def eigenvector_centrality(
    graph, tol: float = 1e-10, max_iters: int = 1000
) -> CentralityScores:
    """Dominant eigenvector of the adjacency operator, L2-normalized.

    Starts from the uniform positive vector; if plain power iteration
    oscillates (bipartite spectrum), a 0.5 self-damping term is added,
    which shifts the spectrum without changing eigenvectors. The
    diagnostics give the iterations of the run that converged and whether
    it was the damped one.
    """
    adj = _adjacency(graph)
    if not any(adj.values()):
        raise DataError("eigenvector centrality needs at least one edge")
    nodes = list(adj)
    damped = False
    values, iterations = _power_iteration(adj, nodes, tol, max_iters, damping=0.0)
    if values is None:
        log.debug("eigenvector: undamped iteration did not converge, damping")
        damped = True
        values, iterations = _power_iteration(adj, nodes, tol, max_iters, damping=0.5)
    if values is None:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores(
        "eigenvector", values, normalized=True,
        diagnostics={"iterations": iterations, "damped": damped},
    )


def top_k(scores: CentralityScores, k: int) -> list[tuple[str, float]]:
    """Highest-scoring nodes, descending; ties lexicographic; k may exceed N."""
    ranked = sorted(scores.values.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
