"""Independent brute-force oracles used to cross-check the fast kernels.

Everything here is deliberately naive and kept free of the package's own
algorithm implementations: betweenness by enumerating all shortest paths,
modularity by the pairwise double sum, the dominant eigenvector from a
dense eigendecomposition, exhaustive set-partition search, TF-IDF as
{term: weight} dict rows, k-means and silhouette as plain loops over
sparse dict rows, a centroid's squared norm
in the order of the BLAS ddot the goldens were frozen under with an exact
fma from Fractions, and Brandes betweenness,
closeness and greedy modularity over per-node dicts with an all-pairs
rescan on every merge, greedy modularity's row-best merge loop over dict
rows and a heapq heap, eigenvector power iteration over neighbour lists,
label propagation over node names, the collapsed
Gibbs LDA sampler over int topic-major tables that decrements and
re-increments every token, the GraphML writers as an
xml.etree.ElementTree tree, the word-graph JSON writer through
json.dumps, and the tokenizer as the regex substitute, collapse and split
chain that normalize -> tokenize -> lemmatize -> stopword filter ran.
"""

from __future__ import annotations

import heapq
import math
import random
import re
from array import array
from collections import Counter, deque
from collections.abc import Sequence
from fractions import Fraction
from itertools import combinations
from xml.etree import ElementTree as ET

import numpy as np

from tweetflow.clustering import ClusterModel
from tweetflow.community import MAX_LPA_SWEEPS, Partition, _canonical_partition, modularity
from tweetflow.errors import DataError
from tweetflow.netmetrics import CentralityScores, NonConvergenceError, _adjacency
from tweetflow.preprocess import TfIdfMatrix, TokenizedDoc
from tweetflow.storage import _json_text
from tweetflow.topics import LdaConfig, LdaModel
from tweetflow.wordgraph import GraphStats, PlaceGraph, WordGraph


def random_graph(n: int, p: float, seed: int) -> dict[str, list[str]]:
    """Seeded G(n, p) with string node names."""
    rng = random.Random(seed)
    nodes = [f"n{i}" for i in range(n)]
    adj = {v: set() for v in nodes}
    for u, v in combinations(nodes, 2):
        if rng.random() < p:
            adj[u].add(v)
            adj[v].add(u)
    return {v: sorted(neigh) for v, neigh in adj.items()}


class AdjacencyView:
    """A graph object whose adjacency() keeps the given node order (a plain
    mapping is sorted by the kernels), so node-order effects show."""

    def __init__(self, adj: dict[str, list[str]]):
        self._adj = adj

    def adjacency(self) -> dict[str, list[str]]:
        return self._adj


def _from_edges(nodes, edges) -> dict[str, list[str]]:
    adj = {v: set() for v in nodes}
    for u, v in edges:
        adj[u].add(v)
        adj[v].add(u)
    return {v: sorted(neigh) for v, neigh in adj.items()}


def _clique(prefix: str, k: int) -> list[tuple[str, str]]:
    return list(combinations([f"{prefix}{i}" for i in range(k)], 2))


def kernel_graphs() -> list[tuple[str, object]]:
    """Seeded random graphs (sparse ones are disconnected and carry isolated
    nodes, some in shuffled node order) and tie-heavy graphs: cycles,
    complete bipartite graphs, a barbell and equal cliques."""
    graphs: list[tuple[str, object]] = []
    rng = random.Random(2001)
    for seed in range(40):
        n = rng.randrange(2, 36)
        p = rng.choice([0.02, 0.06, 0.12, 0.3, 0.7])
        adj = random_graph(n, p, seed=seed)
        if seed % 4 == 0:
            adj.update({f"z{i}": [] for i in range(1 + seed % 3)})
        if seed % 3 == 0:
            order = list(adj)
            rng.shuffle(order)
            graphs.append((f"random{seed}-shuffled", AdjacencyView({v: adj[v] for v in order})))
        else:
            graphs.append((f"random{seed}", adj))
    for n in (3, 4, 5, 6, 9, 12):
        graphs.append((f"cycle{n}", _from_edges(
            [f"c{i:02d}" for i in range(n)],
            [(f"c{i:02d}", f"c{(i + 1) % n:02d}") for i in range(n)],
        )))
    for a, b in ((1, 4), (2, 3), (3, 3), (4, 2), (4, 5)):
        left, right = [f"l{i}" for i in range(a)], [f"r{j}" for j in range(b)]
        graphs.append((f"K{a},{b}", _from_edges(left + right, [(u, v) for u in left for v in right])))
    graphs.append(("barbell", _from_edges(
        [f"a{i}" for i in range(5)] + [f"b{i}" for i in range(5)],
        _clique("a", 5) + _clique("b", 5) + [("a0", "b0")],
    )))
    graphs.append(("two-cliques", _from_edges(
        [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)],
        _clique("a", 4) + _clique("b", 4),
    )))
    graphs.append(("two-cliques-path", _from_edges(
        [f"a{i}" for i in range(4)] + [f"b{i}" for i in range(4)] + ["m"],
        _clique("a", 4) + _clique("b", 4) + [("a3", "m"), ("m", "b3")],
    )))
    return graphs


def clique_union_graph(seed: int, docs: int = 180, vocabulary: int = 400) -> dict[str, list[str]]:
    """A word graph at real size: the union of the cliques of seeded docs of
    4-12 distinct words, drawn with Zipf weights, so a few hub words link
    most docs and the tail words form small cliques (about 300 nodes)."""
    rng = random.Random(seed)
    words = [f"w{i:03d}" for i in range(vocabulary)]
    weights = [1.0 / (i + 1) for i in range(vocabulary)]
    edges = set()
    nodes = set()
    for _ in range(docs):
        size = rng.randint(4, 12)
        doc = set()
        while len(doc) < size:
            doc.add(rng.choices(words, weights)[0])
        nodes |= doc
        edges.update(combinations(sorted(doc), 2))
    return _from_edges(sorted(nodes), sorted(edges))


def diamond_chain() -> dict[str, list[str]]:
    """A chain of diamonds with 2**53 + 2 shortest paths end to end.

    Seventeen diamonds of width 8 and one of width 4 take the shortest-path
    count from "c00" to "c18" to exactly 2**53. A private path of the same
    length reaches "q1" and "q2", one path each, and all three link to "t".
    So from "c00", sigma[t] adds 2**53, 1 and 1, and the float sum depends
    on their order: 2**53 when the big count comes first (each 1 rounds
    away), 2**53 + 2 when it comes last.
    """
    edges = []
    for i, width in enumerate([8] * 17 + [4]):
        for j in range(width):
            middle = f"m{i:02d}_{j}"
            edges += [(f"c{i:02d}", middle), (middle, f"c{i + 1:02d}")]
    side = ["c00"] + [f"p{i:02d}" for i in range(1, 36)]
    edges += list(zip(side, side[1:]))
    edges += [(side[-1], "q1"), (side[-1], "q2"), ("q1", "t"), ("q2", "t"), ("c18", "t")]
    return _from_edges(sorted({v for edge in edges for v in edge}), edges)


def path_counts(adj: dict[str, list[str]], source: str) -> dict[str, int]:
    """Exact number of shortest paths from `source` to each reachable node."""
    dist = bfs_dist(adj, source)
    counts = {source: 1}
    for v in sorted(dist, key=dist.get)[1:]:
        counts[v] = sum(counts[u] for u in adj[v] if dist.get(u) == dist[v] - 1)
    return counts


def real_size_graphs() -> list[tuple[str, object]]:
    """The clique-union word graph in sorted and shuffled node order, and the
    diamond chain: exact-equality cases at the size of a real word graph."""
    adj = clique_union_graph(seed=7)
    order = list(adj)
    random.Random(7).shuffle(order)
    return [
        ("clique-union", adj),
        ("clique-union-shuffled", AdjacencyView({v: adj[v] for v in order})),
        ("diamond-chain", diamond_chain()),
    ]


def disconnected_word_graph() -> dict[str, list[str]]:
    """The clique-union word graph beside a second, smaller clique union
    (words "x...") and five isolated words "z0".."z4": several components
    of different sizes, at the size of a real word graph."""
    adj = dict(clique_union_graph(seed=7))
    second = clique_union_graph(seed=8, docs=25, vocabulary=80)
    adj.update({"x" + v[1:]: ["x" + w[1:] for w in neigh] for v, neigh in second.items()})
    adj.update({f"z{i}": [] for i in range(5)})
    return adj


def is_connected(adj: dict[str, list[str]]) -> bool:
    nodes = list(adj)
    if not nodes:
        return True
    seen = {nodes[0]}
    queue = deque([nodes[0]])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return len(seen) == len(adj)


def bfs_dist(adj: dict[str, list[str]], source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def all_shortest_paths(adj: dict[str, list[str]], s: str, t: str) -> list[list[str]]:
    """Every shortest s-t path, by DFS over the BFS distance DAG."""
    dist = bfs_dist(adj, s)
    if t not in dist:
        return []
    paths = []

    def extend(path: list[str]) -> None:
        head = path[-1]
        if head == t:
            paths.append(list(path))
            return
        for w in adj[head]:
            if dist.get(w) == dist[head] + 1:
                path.append(w)
                extend(path)
                path.pop()

    extend([s])
    return paths


def brute_betweenness(adj: dict[str, list[str]]) -> dict[str, Fraction]:
    """Exact betweenness as Fractions: sum over pairs of the fraction of
    shortest paths running through each interior node."""
    nodes = sorted(adj)
    scores = {v: Fraction(0) for v in nodes}
    for s, t in combinations(nodes, 2):
        paths = all_shortest_paths(adj, s, t)
        if not paths:
            continue
        total = len(paths)
        for path in paths:
            for interior in path[1:-1]:
                scores[interior] += Fraction(1, total)
    return scores


def dense_dominant_eigenvector(adj: dict[str, list[str]]) -> dict[str, float]:
    """Dominant adjacency eigenvector via numpy, oriented non-negative and
    L2-normalized."""
    nodes = sorted(adj)
    index = {v: i for i, v in enumerate(nodes)}
    a = np.zeros((len(nodes), len(nodes)))
    for v in nodes:
        for w in adj[v]:
            a[index[v], index[w]] = 1.0
    eigenvalues, eigenvectors = np.linalg.eigh(a)
    vec = eigenvectors[:, int(np.argmax(eigenvalues))]
    if vec.sum() < 0:
        vec = -vec
    vec = np.abs(vec)  # Perron vector of a connected graph is positive
    vec = vec / np.linalg.norm(vec)
    return {v: float(vec[index[v]]) for v in nodes}


def all_partitions(items: list):
    """Every set partition of items (Bell-number many)."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in all_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [part[i] + [first]] + part[i + 1:]
        yield part + [[first]]


def pairwise_modularity(adj: dict[str, list[str]], groups) -> float:
    """Q from the literal double sum over node pairs."""
    community = {}
    for cid, group in enumerate(groups):
        for node in group:
            community[node] = cid
    m2 = sum(len(neigh) for neigh in adj.values())
    degree = {v: len(neigh) for v, neigh in adj.items()}
    q = 0.0
    for i in adj:
        for j in adj:
            if community[i] == community[j]:
                a_ij = 1.0 if j in adj[i] else 0.0
                q += a_ij - degree[i] * degree[j] / m2
    return q / m2


def best_partition_exhaustive(adj: dict[str, list[str]]) -> tuple[float, list[list[str]]]:
    """Globally optimal-modularity partition by exhaustive enumeration."""
    best_q, best_groups = float("-inf"), None
    for groups in all_partitions(sorted(adj)):
        q = pairwise_modularity(adj, groups)
        if q > best_q:
            best_q, best_groups = q, [sorted(g) for g in groups]
    assert best_groups is not None
    return best_q, best_groups


# ---------------------------------------------------------------------------
# TF-IDF as dict rows

def build_tfidf(
    docs: Sequence[TokenizedDoc],
) -> tuple[tuple[dict[int, float], ...], tuple[str, ...]]:
    """(rows, terms): one {term index: weight} dict per doc, its terms in the
    order they first occur in the doc, each weight count * ln(N / df) and
    stored only when positive, over the sorted terms."""
    if not docs:
        raise DataError("cannot build TF-IDF over an empty corpus")
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.lemmas):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    terms = tuple(sorted(doc_freq))
    index = {t: i for i, t in enumerate(terms)}
    idf = [math.log(len(docs) / doc_freq[t]) for t in terms]
    rows = []
    for doc in docs:
        counts: dict[int, int] = {}
        for lem in doc.lemmas:
            i = index[lem]
            counts[i] = counts.get(i, 0) + 1
        row = {}
        for i, c in counts.items():
            w = c * idf[i]
            if w > 0.0:
                row[i] = w
        rows.append(row)
    return tuple(rows), terms


def tfidf_matrix(rows: Sequence[dict[int, float]], terms: Sequence[str]) -> TfIdfMatrix:
    """The TfIdfMatrix whose row i holds rows[i]'s (term index, weight)
    pairs in the dict's order; nothing is checked, so a test can pass rows
    the package must refuse."""
    starts, term_ids, weights = array("q", [0]), array("i"), array("d")
    for row in rows:
        term_ids.extend(row)
        weights.extend(row.values())
        starts.append(len(term_ids))
    return TfIdfMatrix(tuple(terms), starts, term_ids, weights)


# ---------------------------------------------------------------------------
# k-means and silhouette, one row pair at a time

def _normalized_rows(matrix: TfIdfMatrix) -> list[dict[int, float]]:
    rows = []
    for row in matrix.rows:
        norm = math.sqrt(sum(w * w for w in row.values()))
        if norm > 0:
            rows.append({i: w / norm for i, w in row.items()})
        else:
            rows.append({})
    return rows


def _sq_norm(row: dict[int, float]) -> float:
    return sum(w * w for w in row.values())


def _fma(a: float, b: float, c: float) -> float:
    """a * b + c rounded once, as C99 fma() rounds it (finite results only)."""
    return float(Fraction(a) * Fraction(b) + Fraction(c))


def sq_norm_frozen_order(x: Sequence[float]) -> float:
    """x.x in the order of OpenBLAS 0.3.31's SkylakeX ddot on one thread,
    the BLAS kernel the goldens were frozen under. Below n & -16 the terms
    go to four 8-lane accumulators over blocks of 32 (lane l of accumulator
    u takes term 8u + l of the block), each folded to 4 lanes (l + l+4), then
    to four 4-lane accumulators over blocks of 16 (term 4u + l); the lanes
    are added per lane as ((a0 + a1) + a2) + a3 and paired as
    (s0 + s2) + (s1 + s3). The tail is fused into that sum one term at a time."""
    x = [float(value) for value in x]
    n32, n16 = len(x) & -32, len(x) & -16
    acc = 0.0
    if n16 > 0:
        wide = [[0.0] * 8 for _ in range(4)]
        for i in range(0, n32, 32):
            for u in range(4):
                for lane in range(8):
                    value = x[i + 8 * u + lane]
                    wide[u][lane] = _fma(value, value, wide[u][lane])
        narrow = [[row[lane] + row[lane + 4] for lane in range(4)] for row in wide]
        for i in range(n32, n16, 16):
            for u in range(4):
                for lane in range(4):
                    value = x[i + 4 * u + lane]
                    narrow[u][lane] = _fma(value, value, narrow[u][lane])
        s = [((narrow[0][lane] + narrow[1][lane]) + narrow[2][lane]) + narrow[3][lane]
             for lane in range(4)]
        acc = (s[0] + s[2]) + (s[1] + s[3])
    for value in x[n16:]:
        acc = _fma(value, value, acc)
    return acc


def _dist_sq_to_centroid(row: dict[int, float], centroid: np.ndarray, c_sq: float) -> float:
    dot = 0.0
    for i, w in row.items():
        dot += w * centroid[i]
    return max(0.0, _sq_norm(row) - 2.0 * dot + c_sq)


def _row_distance(a: dict[int, float], b: dict[int, float]) -> float:
    if len(b) < len(a):
        a, b = b, a
    dot = 0.0
    for i, w in a.items():
        if i in b:
            dot += w * b[i]
    return math.sqrt(max(0.0, _sq_norm(a) + _sq_norm(b) - 2.0 * dot))


def _kmeanspp_init(
    rows: list[dict[int, float]], k: int, v_size: int, rng: random.Random
) -> np.ndarray:
    n = len(rows)
    centroids = np.zeros((k, v_size))
    first = rng.randrange(n)
    chosen = [first]
    d_sq = [_row_distance(rows[i], rows[first]) ** 2 for i in range(n)]
    for c in range(1, k):
        total = sum(d_sq)
        if total <= 0.0:
            candidates = [i for i in range(n) if i not in chosen]
            if not candidates:
                raise DataError("fewer distinct rows than clusters")
            chosen.append(candidates[0])
        else:
            r = rng.random() * total
            acc = 0.0
            pick = n - 1
            for i, d in enumerate(d_sq):
                acc += d
                if r < acc:
                    pick = i
                    break
            chosen.append(pick)
        for i in range(n):
            d = _row_distance(rows[i], rows[chosen[-1]]) ** 2
            if d < d_sq[i]:
                d_sq[i] = d
    for c, idx in enumerate(chosen):
        for i, w in rows[idx].items():
            centroids[c, i] = w
    return centroids


def kmeans(matrix: TfIdfMatrix, k: int, seed: int, max_iters: int = 100) -> ClusterModel:
    """Seeded k-means++ and Lloyd iterations, one row-centroid pair at a time."""
    n = len(matrix.rows)
    n_nonempty = sum(1 for row in matrix.rows if row)
    if n_nonempty == 0:
        raise DataError("cannot cluster an all-zero matrix")
    if not 2 <= k <= n_nonempty:
        raise DataError(f"k={k} out of range 2..{n_nonempty}")
    v_size = len(matrix.terms)
    rows = _normalized_rows(matrix)
    rng = random.Random(seed)
    centroids = _kmeanspp_init(rows, k, v_size, rng)

    assignments = [-1] * n
    wcss_history: list[float] = []
    n_iters = 0
    for _ in range(max_iters):
        n_iters += 1
        c_sq = [sq_norm_frozen_order(centroids[c].tolist()) for c in range(k)]
        new_assignments = []
        wcss = 0.0
        for row in rows:
            best_c, best_d = 0, _dist_sq_to_centroid(row, centroids[0], c_sq[0])
            for c in range(1, k):
                d = _dist_sq_to_centroid(row, centroids[c], c_sq[c])
                if d < best_d:
                    best_c, best_d = c, d
            new_assignments.append(best_c)
            wcss += best_d
        wcss_history.append(wcss)
        if new_assignments == assignments:
            break
        assignments = new_assignments

        counts = [0] * k
        for c in assignments:
            counts[c] += 1
        empties = [c for c in range(k) if counts[c] == 0]
        taken: set[int] = set()
        for c in empties:
            far_i, far_d = -1, -1.0
            for i, row in enumerate(rows):
                if i in taken or counts[assignments[i]] <= 1:
                    continue
                d = _dist_sq_to_centroid(row, centroids[assignments[i]], c_sq[assignments[i]])
                if d > far_d:
                    far_i, far_d = i, d
            if far_i < 0:
                raise DataError("fewer distinct rows than clusters")
            taken.add(far_i)
            counts[assignments[far_i]] -= 1
            assignments[far_i] = c
            counts[c] += 1

        centroids = np.zeros((k, v_size))
        for i, row in enumerate(rows):
            c = assignments[i]
            for j, w in row.items():
                centroids[c, j] += w
        for c in range(k):
            if counts[c] > 0:
                centroids[c] /= counts[c]

    return ClusterModel(k, array("d", centroids.ravel()), assignments, n_iters, wcss_history)


def silhouette(
    matrix: TfIdfMatrix,
    assignments: list[int],
    sample_size: int | None = None,
    seed: int = 0,
) -> float:
    """Mean silhouette from every (point, point) distance, one pair at a time."""
    n = len(matrix.rows)
    if n != len(assignments):
        raise DataError("assignments must be parallel to matrix rows")
    clusters = sorted(set(assignments))
    if len(clusters) < 2:
        raise DataError("silhouette requires at least 2 clusters")
    rows = _normalized_rows(matrix)
    members: dict[int, list[int]] = {c: [] for c in clusters}
    for i, c in enumerate(assignments):
        members[c].append(i)

    indices = list(range(n))
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        indices = sorted(rng.sample(indices, sample_size))

    total = 0.0
    for i in indices:
        own = assignments[i]
        own_members = members[own]
        if len(own_members) == 1:
            continue
        dists = {c: 0.0 for c in clusters}
        for c, idxs in members.items():
            acc = 0.0
            for j in idxs:
                if j != i:
                    acc += _row_distance(rows[i], rows[j])
            dists[c] = acc
        a = dists[own] / (len(own_members) - 1)
        b = min(
            dists[c] / len(members[c])
            for c in clusters
            if c != own and members[c]
        )
        denom = max(a, b)
        if denom > 0:
            total += (b - a) / denom
    return total / len(indices)


def _left_fold(values) -> float:
    acc = 0.0
    for v in values:
        acc += v
    return acc


def silhouette_exact_order(
    matrix: TfIdfMatrix,
    assignments: list,
    sample_size: int | None = None,
    seed: int = 0,
) -> float:
    """Mean silhouette with every float operation in the order the package
    takes it, one pair at a time: norms and dot products add a row's terms
    in the row's own order (the query row's, for a pair), each cluster's
    distances are added left to right in row order, and every float sum is
    a left fold from 0.0."""
    n = len(matrix.rows)
    if n != len(assignments):
        raise DataError("assignments must be parallel to matrix rows")
    clusters = sorted(set(assignments))
    if len(clusters) < 2:
        raise DataError("silhouette requires at least 2 clusters")
    rows = []
    for row in matrix.rows:
        norm = math.sqrt(_left_fold(w * w for w in row.values()))
        rows.append({t: w / norm for t, w in row.items()} if norm > 0 else {})
    sq = [_left_fold(w * w for w in row.values()) for row in rows]
    sizes = Counter(assignments)

    indices = list(range(n))
    if sample_size is not None and sample_size < n:
        indices = sorted(random.Random(seed).sample(indices, sample_size))

    scores = []
    for i in indices:
        sums = dict.fromkeys(clusters, 0.0)
        for j in range(n):
            d = 0.0
            if j != i:
                dot = _left_fold(w * rows[j][t] for t, w in rows[i].items() if t in rows[j])
                d = math.sqrt(max(0.0, (sq[i] + sq[j]) - 2.0 * dot))
            sums[assignments[j]] += d
        own = assignments[i]
        a = sums[own] / max(sizes[own] - 1, 1)
        b = min(sums[c] / sizes[c] for c in clusters if c != own)
        denom = max(a, b)
        scores.append((b - a) / denom if sizes[own] > 1 and denom > 0 else 0.0)
    return _left_fold(scores) / len(indices)


# ---------------------------------------------------------------------------
# betweenness, closeness, greedy modularity and label propagation over
# per-node dicts, and greedy modularity's row-best loop over dict rows

def _bfs_distances(adj, source: str) -> dict[str, int]:
    dist = {source: 0}
    queue = deque([source])
    while queue:
        v = queue.popleft()
        for w in adj[v]:
            if w not in dist:
                dist[w] = dist[v] + 1
                queue.append(w)
    return dist


def closeness_centrality(graph) -> CentralityScores:
    """Reach-scaled closeness per component; isolated nodes score 0."""
    adj = _adjacency(graph)
    n = len(adj)
    if n < 2:
        raise DataError("closeness centrality needs at least 2 nodes")
    values = {}
    for node in adj:
        dist = _bfs_distances(adj, node)
        reach = len(dist)
        total = sum(dist.values())
        if reach > 1 and total > 0:
            values[node] = ((reach - 1) / (n - 1)) * ((reach - 1) / total)
        else:
            values[node] = 0.0
    return CentralityScores(values)


def betweenness_centrality(graph, normalized: bool = False) -> CentralityScores:
    """Brandes' algorithm with per-source dicts and a deque."""
    adj = _adjacency(graph)
    nodes = list(adj)
    centrality = {v: 0.0 for v in nodes}
    for source in nodes:
        stack: list[str] = []
        preds: dict[str, list[str]] = {v: [] for v in nodes}
        sigma = {v: 0.0 for v in nodes}
        dist = {v: -1 for v in nodes}
        sigma[source] = 1.0
        dist[source] = 0
        queue = deque([source])
        while queue:
            v = queue.popleft()
            stack.append(v)
            for w in adj[v]:
                if dist[w] < 0:
                    dist[w] = dist[v] + 1
                    queue.append(w)
                if dist[w] == dist[v] + 1:
                    sigma[w] += sigma[v]
                    preds[w].append(v)
        delta = {v: 0.0 for v in nodes}
        while stack:
            w = stack.pop()
            for v in preds[w]:
                delta[v] += (sigma[v] / sigma[w]) * (1.0 + delta[w])
            if w != source:
                centrality[w] += delta[w]
    for v in centrality:
        centrality[v] /= 2.0
    if normalized:
        n = len(nodes)
        if n > 2:
            scale = 2.0 / ((n - 1) * (n - 2))
            for v in centrality:
                centrality[v] *= scale
    return CentralityScores(dict(sorted(centrality.items())))


def greedy_modularity(graph) -> Partition:
    """Merge the best-gain community pair, found by rescanning every pair
    (ties by smallest representative pair); keep the peak-Q partition."""
    adj = _adjacency(graph)
    m2 = sum(len(neigh) for neigh in adj.values())
    if m2 == 0:
        raise DataError("greedy modularity needs at least one edge")
    m = m2 / 2.0

    members: dict[str, set[str]] = {v: {v} for v in adj}
    degree_sum: dict[str, int] = {v: len(adj[v]) for v in adj}
    intra: dict[str, int] = {v: 0 for v in adj}
    links: dict[str, Counter] = {v: Counter() for v in adj}
    for v in adj:
        for w in adj[v]:
            if v < w:
                links[v][w] += 1
                links[w][v] += 1

    def q_now() -> float:
        return sum(
            intra[c] / m - (degree_sum[c] / m2) ** 2 for c in members
        )

    best_q = q_now()
    best_groups = [set(g) for g in members.values()]
    current_q = best_q
    while True:
        best_pair = None
        best_gain = -math.inf
        for u in sorted(members):
            for v in sorted(links[u]):
                if v <= u:
                    continue
                gain = links[u][v] / m - 2.0 * (degree_sum[u] / m2) * (degree_sum[v] / m2)
                if gain > best_gain or (gain == best_gain and (u, v) < best_pair):
                    best_gain = gain
                    best_pair = (u, v)
        if best_pair is None:
            break
        u, v = best_pair
        current_q += best_gain
        merged = members.pop(u) | members.pop(v)
        e_uv = links[u].pop(v)
        links[v].pop(u)
        new_intra = intra.pop(u) + intra.pop(v) + e_uv
        new_degree = degree_sum.pop(u) + degree_sum.pop(v)
        new_links = links.pop(u) + links.pop(v)
        rep = min(merged)
        members[rep] = merged
        intra[rep] = new_intra
        degree_sum[rep] = new_degree
        links[rep] = new_links
        for other in new_links:
            links[other].pop(u, None)
            links[other].pop(v, None)
            links[other][rep] = new_links[other]
        if current_q > best_q:
            best_q = current_q
            best_groups = [set(g) for g in members.values()]
    return _canonical_partition(best_groups, best_q)


def greedy_modularity_row_best(graph) -> Partition:
    """The row-best merge loop over dict rows and a heapq heap (see
    community.greedy_modularity's docstring), with its diagnostics: the
    merges, the merges up to the peak, the peak Q and the heap entries
    popped, live or stale."""
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
    best_q = current_q = _left_fold(0.0 - (len(neigh) / m2) ** 2 for neigh in adj.values())
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


def propagate_labels(
    neighbors: list[list[int]], rng: random.Random
) -> tuple[list[int], int, bool]:
    """Label propagation's sweeps over node indices, the loop that
    community._propagate runs in C: each node's last label, the sweeps run
    and whether the last of MAX_LPA_SWEEPS still changed a label; `rng` is
    advanced by the draws. Shuffling the indices draws the same permutation
    as shuffling the names."""
    ids = list(range(len(neighbors)))
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
    return labels, sweep, changed


def label_propagation(graph, seed: int = 0) -> Partition:
    """Seeded asynchronous label propagation over node names and a label dict."""
    adj = _adjacency(graph)
    nodes = list(adj)
    rng = random.Random(seed)
    labels = {node: i for i, node in enumerate(nodes)}
    for sweep in range(1, MAX_LPA_SWEEPS + 1):
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
    groups: dict[int, list[str]] = {}
    for node, lab in labels.items():
        groups.setdefault(lab, []).append(node)
    q = modularity(adj, groups.values()) if any(adj.values()) else None
    diagnostics = {
        "sweeps": sweep,
        "hit_sweep_cap": changed,
        "largest_share": max(map(len, groups.values())) / len(nodes) if nodes else 0.0,
    }
    return _canonical_partition(groups.values(), q, diagnostics)


# ---------------------------------------------------------------------------
# eigenvector power iteration over neighbour lists

def int_adjacency(adj: dict[str, list[str]]) -> list[list[int]]:
    """Neighbour lists as node indices, numbering nodes in `adj` order."""
    index = {node: i for i, node in enumerate(adj)}
    return [[index[w] for w in neigh] for neigh in adj.values()]


def power_iteration(
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
        norm = _left_fold(v * v for v in nxt) ** 0.5
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
    """Power iteration over neighbour lists, undamped and then damped by
    0.5, with the iterations of the run that converged and whether it was
    the damped one."""
    adj = _adjacency(graph)
    if not any(adj.values()):
        raise DataError("eigenvector centrality needs at least one edge")
    neighbor_ids = int_adjacency(adj)
    damped = False
    vector, iterations = power_iteration(neighbor_ids, tol, max_iters, damping=0.0)
    if vector is None:
        damped = True
        vector, iterations = power_iteration(neighbor_ids, tol, max_iters, damping=0.5)
    if vector is None:
        raise NonConvergenceError(
            f"power iteration did not converge in {max_iters} iterations"
        )
    return CentralityScores(
        dict(zip(adj, vector)), diagnostics={"iterations": iterations, "damped": damped}
    )


# ---------------------------------------------------------------------------
# collapsed Gibbs LDA over int topic-major tables

def fit_lda(docs: Sequence[TokenizedDoc], config: LdaConfig) -> LdaModel:
    """Fit an LDA model over the documents' lemma streams.

    Empty documents keep their row in the doc-topic table (all zeros) but
    contribute no tokens.
    """
    vocab = sorted({lem for doc in docs for lem in doc.lemmas})
    if not vocab:
        raise DataError("cannot fit LDA on an empty vocabulary")
    n_nonempty = sum(1 for doc in docs if doc.lemmas)
    if config.k > n_nonempty:
        raise DataError(
            f"k={config.k} exceeds the {n_nonempty} non-empty documents"
        )
    word_index = {w: i for i, w in enumerate(vocab)}
    token_ids = [[word_index[lem] for lem in doc.lemmas] for doc in docs]

    k = config.k
    v_size = len(vocab)
    alpha = config.effective_alpha
    beta = config.beta
    v_beta = v_size * beta
    rng = random.Random(config.seed)

    doc_topic = [[0] * k for _ in docs]
    topic_word = [[0] * v_size for _ in range(k)]
    topic_total = [0] * k
    assignments: list[list[int]] = []
    for d, words in enumerate(token_ids):
        zs = []
        for w in words:
            z = rng.randrange(k)
            zs.append(z)
            doc_topic[d][z] += 1
            topic_word[z][w] += 1
            topic_total[z] += 1
        assignments.append(zs)

    model = LdaModel(topic_word, doc_topic, topic_total, assignments, vocab, config)
    topics = list(range(k))
    rand = rng.random
    for _sweep in range(config.iterations):
        for d, words in enumerate(token_ids):
            dt_row = doc_topic[d]
            zs = assignments[d]
            for i, w in enumerate(words):
                z = zs[i]
                dt_row[z] -= 1
                topic_word[z][w] -= 1
                topic_total[z] -= 1
                total = 0.0
                cumulative = []
                for t in topics:
                    total += (
                        (dt_row[t] + alpha)
                        * (topic_word[t][w] + beta)
                        / (topic_total[t] + v_beta)
                    )
                    cumulative.append(total)
                r = rand() * total
                for t in topics:
                    if r < cumulative[t]:
                        break
                zs[i] = t
                dt_row[t] += 1
                topic_word[t][w] += 1
                topic_total[t] += 1
    return model


# ---------------------------------------------------------------------------
# graph statistics from the full sorted adjacency

def graph_stats(graph: WordGraph | PlaceGraph) -> GraphStats:
    """Node/edge counts, density 2E/(N(N-1)), and degrees read from adjacency()."""
    adj = graph.adjacency()
    n = len(adj)
    e = len(graph.edges)
    degrees = [len(neigh) for neigh in adj.values()]
    return GraphStats(
        nodes=n,
        edges=e,
        density=(2.0 * e / (n * (n - 1))) if n >= 2 else 0.0,
        max_degree=max(degrees, default=0),
        avg_degree=(2.0 * e / n) if n else 0.0,
    )


# ---------------------------------------------------------------------------
# GraphML through an xml.etree.ElementTree tree, ET.indent and tostring

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def _graphml_skeleton(keys: list[tuple[str, str, str, str]]) -> tuple[ET.Element, ET.Element]:
    root = ET.Element("graphml", xmlns=GRAPHML_NS)
    for key_id, domain, name, attr_type in keys:
        ET.SubElement(
            root,
            "key",
            {"id": key_id, "for": domain, "attr.name": name, "attr.type": attr_type},
        )
    graph = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    return root, graph


def _data(parent: ET.Element, key: str, value) -> None:
    el = ET.SubElement(parent, "data", {"key": key})
    el.text = repr(value) if isinstance(value, float) else str(value)


def _serialize(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def word_graph_to_graphml(graph: WordGraph) -> str:
    root, g = _graphml_skeleton(
        [("d_freq", "node", "frequency", "int"), ("d_w", "edge", "weight", "int")]
    )
    for node in sorted(graph.nodes):
        el = ET.SubElement(g, "node", {"id": node})
        _data(el, "d_freq", graph.nodes[node])
    for i, ((u, v), w) in enumerate(sorted(graph.edges.items())):
        el = ET.SubElement(g, "edge", {"id": f"e{i}", "source": u, "target": v})
        _data(el, "d_w", w)
    return _serialize(root)


def place_graph_to_graphml(graph: PlaceGraph) -> str:
    root, g = _graphml_skeleton(
        [
            ("d_kind", "node", "kind", "string"),
            ("d_mentions", "node", "mentions", "int"),
            ("d_degree", "node", "degree", "int"),
            ("d_dc", "node", "degree_centrality", "double"),
            ("d_cc", "node", "closeness", "double"),
            ("d_w", "edge", "weight", "int"),
        ]
    )
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        el = ET.SubElement(g, "node", {"id": name})
        _data(el, "d_kind", node.kind)
        _data(el, "d_mentions", node.mentions)
        _data(el, "d_degree", node.degree)
        _data(el, "d_dc", round(node.degree_centrality, 6))
        _data(el, "d_cc", round(node.closeness, 6))
    for i, ((u, v), w) in enumerate(sorted(graph.edges.items())):
        el = ET.SubElement(g, "edge", {"id": f"e{i}", "source": u, "target": v})
        _data(el, "d_w", w)
    return _serialize(root)


def word_graph_to_json(graph: WordGraph) -> str:
    doc = {
        "directed": False,
        "split": {
            "language": graph.split[0] if graph.split else None,
            "polarity": graph.split[1] if graph.split else None,
        },
        "nodes": {node: freq for node, freq in sorted(graph.nodes.items())},
        "edges": [[u, v, w] for (u, v), w in sorted(graph.edges.items())],
    }
    return _json_text(doc)


# ---------------------------------------------------------------------------
# The tokenizer as a chain of regex substitutions and a split on spaces

URL_RE = re.compile(r"(?:https?://|www\.)\S+")
MENTION_RE = re.compile(r"@\w+")
NON_WORD_RE = re.compile(r"[^\w\s]")
WS_RE = re.compile(r"\s+")
NUMERIC_RE = re.compile(r"^\d+$")


def normalize(text: str) -> str:
    t = MENTION_RE.sub(" ", URL_RE.sub(" ", text.casefold())).replace("#", "")
    t = NON_WORD_RE.sub(" ", t)
    return WS_RE.sub(" ", t).strip()


def tokenize(text: str) -> list[str]:
    if not text:
        return []
    return [tok for tok in text.split(" ") if len(tok) >= 2 and not NUMERIC_RE.match(tok)]


def lemmatize(tokens: Sequence[str], lemma_table) -> list[str]:
    return [lemma_table.get(tok, tok) for tok in tokens]


def pipeline_doc(tweet_id: str, text: str, lemma_table, stoplist) -> TokenizedDoc:
    lemmas = lemmatize(tokenize(normalize(text)), lemma_table)
    return TokenizedDoc(tweet_id, tuple(lem for lem in lemmas if lem not in stoplist))
