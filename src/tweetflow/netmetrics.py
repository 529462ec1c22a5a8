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
bit sets, betweenness runs Brandes' queue loop over CSR arrays in C
(_brandes.c, built and loaded by `_kernels`).
Eigenvector centrality is power iteration with a self-damping fallback
for bipartite oscillation, each iteration run over the same CSR arrays
in C (_graph.c).
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass, field
from itertools import accumulate, chain

from . import _kernels
from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CentralityScores:
    values: dict[str, float]
    # the measure's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)


def _adjacency(graph) -> dict[str, list[str]]:
    """The sorted adjacency of a graph object or of a node -> neighbours mapping.

    DataError if a mapping lists a neighbour that is not one of its nodes.
    """
    if hasattr(graph, "adjacency"):
        return graph.adjacency()
    adj = {node: sorted(neigh) for node, neigh in sorted(graph.items())}
    if not adj.keys() >= set(chain.from_iterable(adj.values())):
        node, neighbour = next((node, w) for node, neigh in adj.items() for w in neigh
                               if w not in adj)
        raise DataError(f"node {node!r} lists neighbour {neighbour!r}, which is not a node")
    return adj


def _int_adjacency(adj: Mapping[str, Sequence[str]]) -> list[list[int]]:
    """Neighbour lists as node indices, numbering nodes in `adj` order."""
    index = {node: i for i, node in enumerate(adj)}
    return [[index[w] for w in neigh] for neigh in adj.values()]


def _csr(adj: Mapping[str, Sequence[str]]) -> tuple[array, array]:
    """The arc starts and heads of `adj` numbered as by `_int_adjacency`:
    node i's neighbours are heads[arc_start[i] .. arc_start[i + 1])."""
    neighbors = _int_adjacency(adj)
    return (array("q", accumulate(map(len, neighbors), initial=0)),
            array("i", chain.from_iterable(neighbors)))


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
    divides by (N-1)(N-2)/2. The dependencies come from the queue loop of
    _brandes.c over CSR arrays, with the float bits of the loop over
    per-node dicts in tests/oracles.py.
    """
    adj = _adjacency(graph)
    n = len(adj)
    arc_start, heads = _csr(adj)
    in_degree = Counter(heads)
    pred_start = array("q", accumulate((in_degree[v] for v in range(n)), initial=0))
    totals = array("d", [0.0]) * n
    _kernels._call("tf_brandes", n, arc_start, heads, pred_start, array("i", [0]) * n,
                   array("i", [0]) * n, array("q", [0]) * n, array("i", [0]) * len(heads),
                   array("d", [0.0]) * n, array("d", [0.0]) * n, totals)
    # each unordered pair was accumulated from both endpoints; x * 1.0 is x
    scale = 2.0 / ((n - 1) * (n - 2)) if normalized and n > 2 else 1.0
    return CentralityScores(dict(sorted(zip(adj, (total / 2.0 * scale for total in totals)))))


class NonConvergenceError(DataError):
    """Power iteration failed to converge even with damping."""


def eigenvector_centrality(
    graph, tol: float = 1e-10, max_iters: int = 1000
) -> CentralityScores:
    """Dominant eigenvector of the adjacency operator, L2-normalized.

    Starts from the uniform positive vector; if plain power iteration
    oscillates (bipartite spectrum), a 0.5 self-damping term is added,
    which shifts the spectrum without changing eigenvectors. Each power
    iteration runs in _graph.c over CSR arrays, with the float bits of the
    loop over neighbour lists in tests/oracles.py. The diagnostics give the
    iterations of the run that converged and whether it was the damped one.
    """
    adj = _adjacency(graph)
    if not any(adj.values()):
        raise DataError("eigenvector centrality needs at least one edge")
    n = len(adj)
    arc_start, heads = _csr(adj)
    vector, scratch = array("d", [0.0]) * n, array("d", [0.0]) * n
    status = array("q", [0, 0])  # iterations run, converged
    for damping in (0.0, 0.5):
        _kernels._call("tf_power_iteration", n, arc_start, heads, damping, tol, max_iters,
                       vector, scratch, status)
        if status[1]:
            break
        log.debug("eigenvector: power iteration with damping %s did not converge", damping)
    else:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores(
        dict(zip(adj, vector)), diagnostics={"iterations": status[0], "damped": damping > 0.0}
    )
