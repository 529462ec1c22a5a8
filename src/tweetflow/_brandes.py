"""Brandes' dependency accumulation over CSR arrays in numpy, the array
half of ``netmetrics.betweenness_centrality``.

A separate module so that importing ``netmetrics`` does not load numpy:
``betweenness_centrality`` imports this one when it runs, and the place
graph's degree and closeness need no numpy at all. Every name here is
private: perfbench/layertrace.py wraps public functions only, so it
times all of this work as the one betweenness call.
"""

from __future__ import annotations

from itertools import chain

import numpy as np


def _csr(neighbors: list[list[int]]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Integer neighbour lists as CSR arrays (indptr, degree, heads): node v's
    arcs are indptr[v]:indptr[v + 1], in list order, and heads[a] is the node
    arc a points to."""
    degree = np.fromiter(map(len, neighbors), dtype=np.intp, count=len(neighbors))
    indptr = np.zeros(len(neighbors) + 1, dtype=np.intp)
    np.cumsum(degree, out=indptr[1:])
    heads = np.fromiter(chain.from_iterable(neighbors), dtype=np.intp, count=int(indptr[-1]))
    return indptr, degree, heads


def _twin_places(tails: np.ndarray, heads: np.ndarray, indptr: np.ndarray) -> np.ndarray | None:
    """For each arc v -> w, the place of its twin w -> v in w's neighbour
    list, for any neighbour order; None if some arc has no twin (a mapping
    that is not symmetric)."""
    by_arc = np.lexsort((heads, tails))  # arcs by (tail, head)
    by_twin = np.lexsort((tails, heads))  # arcs by (head, tail)
    twin = np.empty_like(by_arc)
    twin[by_twin] = by_arc
    if np.array_equal(tails[twin], heads) and np.array_equal(heads[twin], tails):
        return twin - indptr[heads]
    return None


def _stable_order(keys: np.ndarray, bound: int) -> np.ndarray:
    """np.argsort(keys, kind="stable") for keys in [0, bound): as 16-bit keys
    when they fit, which numpy sorts by radix, to the same permutation."""
    if bound <= 1 << 16:
        keys = keys.astype(np.uint16)
    return np.argsort(keys, kind="stable")


def _arc_range(starts: np.ndarray, counts: np.ndarray) -> np.ndarray:
    """The arcs starts[i] : starts[i] + counts[i], block after block."""
    ends = np.cumsum(counts)
    return np.arange(ends[-1]) + np.repeat(starts - ends + counts, counts)


# A Brandes batch holds as many sources as keep its entries, n nodes plus
# the arcs per source, within this many (and at least one source).
_BATCH_ENTRIES = 1 << 16


def _dependencies(
    sources: np.ndarray,
    indptr: np.ndarray,
    degree: np.ndarray,
    tails: np.ndarray,
    heads: np.ndarray,
    twin_place: np.ndarray | None,
) -> np.ndarray:
    """Brandes' dependencies delta of each source, one row per source, its
    own entry 0.0: one breadth-first search per source, all in lockstep.

    Source b numbers node v as b * n + v, so the batch is one graph of
    disjoint copies, and each BFS level holds every source's level in
    source order, then queue order. A level is expanded top-down, over the
    arcs of its nodes, while they are at most the arcs of the unvisited
    nodes; otherwise bottom-up (Beamer et al., SC 2012): over the arcs of
    the unvisited nodes that lead into the level, each mapped to its twin.
    Both give the same predecessor arcs in the same order, the top-down
    one, so every float sum below adds the same terms in the same order as
    the one-node-at-a-time queue loop (kept in tests/oracles.py):

    - A bottom-up arc's top-down rank is its level node's block offset plus
      the arc's place in that node's list; the arcs are sorted by it.
    - A new node's first arc fixes its place in the queue (``minimum.at`` of
      the arc rank), so the next level comes out in queue order.
    - sigma (the shortest-path count, a float) is ``np.bincount`` over the
      arcs into the new level. bincount adds its weights one by one in input
      order, starting from 0.0, as the loop's ``sigma[w] += sigma[v]`` does;
      so the bits agree even once sigma exceeds 2**53 and rounds.
    - delta[v] sums over v's successors in stack-pop order, i.e. reverse
      queue order. Each level's predecessor arcs are stably sorted by their
      successor's queue place, descending, and summed into delta with
      ``np.bincount`` by v.
    """
    n = len(degree)
    size = len(sources) * n
    level = np.arange(0, size, n) + sources
    depth = np.full(size, -1, dtype=np.intp)
    depth[level] = 0
    sigma = np.zeros(size)
    sigma[level] = 1.0
    first = np.empty(size, dtype=np.intp)  # a new node's first arc rank in its level
    block = np.empty(size, dtype=np.intp)  # a level node's offset in the level's arcs
    unvisited = np.flatnonzero(depth < 0)  # a superset, pruned before use
    unvisited_arcs = len(sources) * len(heads) - int(degree[sources].sum())
    steps = []  # per level: its predecessor arcs (v, w), w in reverse queue order
    base = sources  # the level's nodes as nodes of the graph
    d = 0
    while unvisited_arcs:  # else no arc leads to an unvisited node
        counts = degree[base]
        level_arcs = int(counts.sum())
        # (index arrays rather than boolean masks below: numpy gathers faster)
        if twin_place is None or level_arcs <= unvisited_arcs:
            arcs = _arc_range(indptr[base], counts)
            w = heads[arcs] + np.repeat(level - base, counts)
            fresh = np.flatnonzero(depth[w] < 0)
            w = w[fresh]
            v = np.repeat(level, counts)[fresh]
        else:
            block[level] = np.cumsum(counts) - counts
            unvisited = unvisited[np.flatnonzero(depth[unvisited] < 0)]
            other = unvisited % n
            ucounts = degree[other]
            arcs = _arc_range(indptr[other], ucounts)
            offset = np.repeat(unvisited - other, ucounts)
            v = heads[arcs] + offset
            into = np.flatnonzero(depth[v] == d)
            arcs, v = arcs[into], v[into]
            order = _stable_order(block[v] + twin_place[arcs], level_arcs)
            v = v[order]
            w = tails[arcs[order]] + offset[into[order]]
        k = len(w)
        if not k:
            break
        rank = np.arange(k)
        first[w] = k
        np.minimum.at(first, w, rank)
        first_w = first[w]
        level = w[np.flatnonzero(first_w == rank)]
        base = level % n
        d += 1
        depth[level] = d
        sigma += np.bincount(w, sigma[v], size)
        back = _stable_order(k - 1 - first_w, k)
        steps.append((v[back], w[back]))
        unvisited_arcs -= int(degree[base].sum())
    delta = np.zeros(size)
    for v, w in reversed(steps):
        delta += np.bincount(v, (sigma[v] / sigma[w]) * (1.0 + delta[w]), size)
    delta[depth == 0] = 0.0
    return delta.reshape(len(sources), n)


def _dependency_totals(neighbors: list[list[int]]) -> np.ndarray:
    """Each node's dependencies summed over every source, in source order.

    The sources run in batches (see ``_dependencies``) of as many as keep
    n nodes plus the arcs per source within ``_BATCH_ENTRIES``. Every
    source's delta is added to the totals row by row; a node the source
    cannot reach adds 0.0, which changes no bit of a non-negative total.
    """
    n = len(neighbors)
    indptr, degree, heads = _csr(neighbors)
    tails = np.repeat(np.arange(n), degree)  # the node each arc leaves
    twin_place = _twin_places(tails, heads, indptr)
    batch = max(1, _BATCH_ENTRIES // (n + len(heads))) if n else 1
    totals = np.zeros(n)
    for start in range(0, n, batch):
        sources = np.arange(start, min(start + batch, n))
        for delta in _dependencies(sources, indptr, degree, tails, heads, twin_place):
            totals += delta
    return totals
