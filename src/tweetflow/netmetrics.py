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
bit sets, betweenness expands whole BFS levels of a batch of sources over
CSR arrays in numpy, each level top-down or bottom-up.
Eigenvector centrality is power iteration with a self-damping fallback
for bipartite oscillation.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field

from .errors import DataError
from .floats import _sum_left

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CentralityScores:
    values: dict[str, float]
    # the measure's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)


def _adjacency(graph) -> dict[str, list[str]]:
    """The sorted adjacency of a graph object or of a node -> neighbours mapping."""
    if hasattr(graph, "adjacency"):
        return graph.adjacency()
    return {node: sorted(neigh) for node, neigh in sorted(graph.items())}


def _int_adjacency(adj: Mapping[str, Sequence[str]]) -> list[list[int]]:
    """Neighbour lists as node indices, numbering nodes in `adj` order."""
    index = {node: i for i, node in enumerate(adj)}
    return [[index[w] for w in neigh] for neigh in adj.values()]


def degree_centrality(graph) -> CentralityScores:
    """Unweighted neighbor count scaled by N-1."""
    adj = _adjacency(graph)
    n = len(adj)
    if n < 2:
        raise DataError("degree centrality needs at least 2 nodes")
    values = {node: len(neigh) / (n - 1) for node, neigh in adj.items()}
    return CentralityScores(values)


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
    return CentralityScores(values)


def betweenness_centrality(graph, normalized: bool = False) -> CentralityScores:
    """Brandes' algorithm over unweighted shortest paths.

    Raw scores count each unordered node pair once; the normalized option
    divides by (N-1)(N-2)/2. The dependencies come from batched numpy
    searches (``_brandes``), with the float bits of the queue loop in
    tests/oracles.py.
    """
    from . import _brandes  # loads numpy: imported only when betweenness runs

    adj = _adjacency(graph)
    nodes = list(adj)
    n = len(nodes)
    centrality = _brandes._dependency_totals(_int_adjacency(adj))
    # each unordered pair was accumulated from both endpoints
    centrality /= 2.0
    if normalized and n > 2:
        centrality *= 2.0 / ((n - 1) * (n - 2))
    return CentralityScores(dict(sorted(zip(nodes, centrality.tolist()))))


class NonConvergenceError(DataError):
    """Power iteration failed to converge even with damping."""


def _power_iteration(
    neighbor_ids: list[list[int]],
    tol: float,
    max_iters: int,
    damping: float,
) -> tuple[list[float] | None, int]:
    """The converged vector (None if it never converged) and the iterations run."""
    n = len(neighbor_ids)
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
            return nxt, iteration
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
    neighbor_ids = _int_adjacency(adj)
    damped = False
    vector, iterations = _power_iteration(neighbor_ids, tol, max_iters, damping=0.0)
    if vector is None:
        log.debug("eigenvector: undamped iteration did not converge, damping")
        damped = True
        vector, iterations = _power_iteration(neighbor_ids, tol, max_iters, damping=0.5)
    if vector is None:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores(
        dict(zip(adj, vector)), diagnostics={"iterations": iterations, "damped": damped}
    )
