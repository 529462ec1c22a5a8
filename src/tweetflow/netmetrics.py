"""The four node-importance measures over undirected, unweighted graphs.

All functions accept either a graph object exposing adjacency() or a
plain node -> neighbors mapping, and prepare it for the kernels with
`_prepared`: the node numbering and CSR arrays they share. A caller that
runs several measures (and the communities of `community`) on one graph
passes its `_Graph` to each, and each uses it as it is. Shortest paths
are unweighted (BFS); the word networks are disconnected in practice, so
closeness uses the reach-scaled form

    C(v) = ((r - 1) / (N - 1)) * ((r - 1) / sum of distances from v)

where r is the number of nodes v can reach (itself included), which
degrades gracefully to 0 for isolated nodes. Betweenness follows
Brandes' dependency accumulation. Both BFS-based measures number the
nodes in adjacency order: closeness runs every source's BFS at once over
bit sets, betweenness runs Brandes' queue loop over the CSR arrays in C
(_brandes.c, built and loaded by `_kernels`). Eigenvector centrality is
power iteration with a self-damping fallback for bipartite oscillation,
each iteration run over the same CSR arrays in C (_graph.c).
"""

from __future__ import annotations

import logging
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain, pairwise

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


@dataclass(frozen=True, eq=False)
class _Graph:
    """A graph prepared once for every kernel that runs on it. `adj` is its
    `_adjacency`, whose order numbers the nodes (sorted by name for a
    mapping or a WordGraph); node i's neighbours are
    heads[arc_start[i] .. arc_start[i + 1]), and pred_start holds the
    in-degree prefix sums, where Brandes' loop files each node's
    predecessors. adjacency() answers as a graph object does, so anything
    that reads a graph through `_adjacency` reads this one too."""

    adj: dict[str, list[str]]
    arc_start: array
    heads: array
    pred_start: array

    def adjacency(self) -> dict[str, list[str]]:
        return self.adj


def _prepared(graph) -> _Graph:
    """`graph` numbered in `_adjacency` order, as CSR arrays; a `_Graph` is
    returned as it is. DataError as `_adjacency` raises it."""
    if isinstance(graph, _Graph):
        return graph
    adj = _adjacency(graph)
    index = {node: i for i, node in enumerate(adj)}
    heads = array("i", map(index.__getitem__, chain.from_iterable(adj.values())))
    in_degree = Counter(heads)
    return _Graph(
        adj,
        array("q", accumulate(map(len, adj.values()), initial=0)),
        heads,
        array("q", accumulate((in_degree[v] for v in range(len(adj))), initial=0)),
    )


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
    prepared = _prepared(graph)
    n = len(prepared.adj)
    if n < 2:
        raise DataError("closeness centrality needs at least 2 nodes")
    heads = prepared.heads.tolist()
    neighbors = [heads[start:end] for start, end in pairwise(prepared.arc_start)]
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
    for node, r, t in zip(prepared.adj, reach, total):
        values[node] = ((r - 1) / (n - 1)) * ((r - 1) / t) if r > 1 and t > 0 else 0.0
    return CentralityScores(values)


def betweenness_centrality(graph, normalized: bool = False) -> CentralityScores:
    """Brandes' algorithm over unweighted shortest paths.

    Raw scores count each unordered node pair once; the normalized option
    divides by (N-1)(N-2)/2. The dependencies come from the queue loop of
    _brandes.c over CSR arrays, with the float bits of the loop over
    per-node dicts in tests/oracles.py.
    """
    prepared = _prepared(graph)
    n = len(prepared.adj)
    totals = array("d", [0.0]) * n
    _kernels._call("tf_brandes", n, prepared.arc_start, prepared.heads, prepared.pred_start,
                   array("i", [0]) * n, array("i", [0]) * n, array("q", [0]) * n,
                   array("i", [0]) * len(prepared.heads), array("d", [0.0]) * n,
                   array("d", [0.0]) * n, totals)
    # each unordered pair was accumulated from both endpoints; x * 1.0 is x
    scale = 2.0 / ((n - 1) * (n - 2)) if normalized and n > 2 else 1.0
    return CentralityScores(
        dict(sorted(zip(prepared.adj, (total / 2.0 * scale for total in totals))))
    )


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
    prepared = _prepared(graph)
    if not prepared.heads:
        raise DataError("eigenvector centrality needs at least one edge")
    n = len(prepared.adj)
    vector, scratch = array("d", [0.0]) * n, array("d", [0.0]) * n
    status = array("q", [0, 0])  # iterations run, converged
    for damping in (0.0, 0.5):
        _kernels._call("tf_power_iteration", n, prepared.arc_start, prepared.heads, damping,
                       tol, max_iters, vector, scratch, status)
        if status[1]:
            break
        log.debug("eigenvector: power iteration with damping %s did not converge", damping)
    else:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores(
        dict(zip(prepared.adj, vector)),
        diagnostics={"iterations": status[0], "damped": damping > 0.0},
    )
