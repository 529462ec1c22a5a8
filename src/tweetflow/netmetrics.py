"""The four node-importance measures over undirected, unweighted graphs.

All functions accept either a graph object exposing adjacency() or a
plain node -> neighbors mapping. Shortest paths are unweighted (BFS);
the word networks are disconnected in practice, so closeness uses the
reach-scaled form

    C(v) = ((r - 1) / (N - 1)) * ((r - 1) / sum of distances from v)

where r is the number of nodes v can reach (itself included), which
degrades gracefully to 0 for isolated nodes. Betweenness follows
Brandes' dependency accumulation; both BFS-based measures walk integer
neighbour lists, nodes numbered in adjacency order. Eigenvector
centrality is power iteration with a self-damping fallback for bipartite
oscillation.
"""

from __future__ import annotations

import logging
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DataError

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class CentralityScores:
    measure: str
    values: dict[str, float]
    normalized: bool


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
    """Reach-scaled closeness per component; isolated nodes score 0."""
    adj = _adjacency(graph)
    n = len(adj)
    if n < 2:
        raise DataError("closeness centrality needs at least 2 nodes")
    neighbors = _int_adjacency(adj)
    values = {}
    for source, node in enumerate(adj):
        seen = [False] * n
        seen[source] = True
        frontier = [source]
        reach, total, depth = 1, 0, 0
        while frontier:
            depth += 1
            nxt = []
            for v in frontier:
                for w in neighbors[v]:
                    if not seen[w]:
                        seen[w] = True
                        nxt.append(w)
            reach += len(nxt)
            total += depth * len(nxt)
            frontier = nxt
        if reach > 1 and total > 0:
            values[node] = ((reach - 1) / (n - 1)) * ((reach - 1) / total)
        else:
            values[node] = 0.0
    return CentralityScores("closeness", values, normalized=True)


def betweenness_centrality(graph, normalized: bool = False) -> CentralityScores:
    """Brandes' algorithm over unweighted shortest paths.

    Raw scores count each unordered node pair once; the normalized option
    divides by (N-1)(N-2)/2.
    """
    adj = _adjacency(graph)
    nodes = list(adj)
    neighbors = _int_adjacency(adj)
    n = len(nodes)
    centrality = [0.0] * n
    for source in range(n):
        sigma = [0.0] * n
        dist = [-1] * n
        preds: list[list[int] | None] = [None] * n
        sigma[source] = 1.0
        dist[source] = 0
        order = [source]  # BFS order, grown while it is walked: the queue
        for v in order:
            next_dist = dist[v] + 1
            sigma_v = sigma[v]
            for w in neighbors[v]:
                dist_w = dist[w]
                if dist_w < 0:
                    dist[w] = next_dist
                    order.append(w)
                    sigma[w] = sigma_v  # == 0.0 + sigma_v
                    preds[w] = [v]
                elif dist_w == next_dist:
                    sigma[w] += sigma_v
                    preds[w].append(v)
        # dependencies pushed to predecessors in stack-pop order; the source
        # comes last, has no predecessors and scores nothing
        delta = [0.0] * n
        for i in range(len(order) - 1, 0, -1):
            w = order[i]
            sigma_w = sigma[w]
            weight = 1.0 + delta[w]
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma_w) * weight
            centrality[w] += delta[w]
    # each unordered pair was accumulated from both endpoints
    centrality = [c / 2.0 for c in centrality]
    if normalized and n > 2:
        scale = 2.0 / ((n - 1) * (n - 2))
        centrality = [c * scale for c in centrality]
    return CentralityScores(
        "betweenness", dict(sorted(zip(nodes, centrality))), normalized
    )


class NonConvergenceError(DataError):
    """Power iteration failed to converge even with damping."""


def _power_iteration(
    adj: Mapping[str, Sequence[str]],
    nodes: list[str],
    tol: float,
    max_iters: int,
    damping: float,
) -> dict[str, float] | None:
    n = len(nodes)
    index = {v: i for i, v in enumerate(nodes)}
    neighbor_ids = [[index[w] for w in adj[v]] for v in nodes]
    x = [1.0 / n ** 0.5] * n
    for _ in range(max_iters):
        nxt = [damping * xi for xi in x]
        for i, neigh in enumerate(neighbor_ids):
            acc = nxt[i]
            for j in neigh:
                acc += x[j]
            nxt[i] = acc
        norm = sum(v * v for v in nxt) ** 0.5
        if norm == 0.0:
            return None
        nxt = [v / norm for v in nxt]
        if max(abs(a - b) for a, b in zip(nxt, x)) < tol:
            return dict(zip(nodes, nxt))
        x = nxt
    return None


def eigenvector_centrality(
    graph, tol: float = 1e-10, max_iters: int = 1000
) -> CentralityScores:
    """Dominant eigenvector of the adjacency operator, L2-normalized.

    Starts from the uniform positive vector; if plain power iteration
    oscillates (bipartite spectrum), a 0.5 self-damping term is added,
    which shifts the spectrum without changing eigenvectors.
    """
    adj = _adjacency(graph)
    if not any(adj.values()):
        raise DataError("eigenvector centrality needs at least one edge")
    nodes = list(adj)
    values = _power_iteration(adj, nodes, tol, max_iters, damping=0.0)
    if values is None:
        log.debug("eigenvector: undamped iteration did not converge, damping")
        values = _power_iteration(adj, nodes, tol, max_iters, damping=0.5)
    if values is None:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores("eigenvector", values, normalized=True)


def top_k(scores: CentralityScores, k: int) -> list[tuple[str, float]]:
    """Highest-scoring nodes, descending; ties lexicographic; k may exceed N."""
    ranked = sorted(scores.values.items(), key=lambda kv: (-kv[1], kv[0]))
    return ranked[:k]
