"""K-means over TF-IDF rows with silhouette-based model selection.

Rows are L2-normalized before clustering, so Euclidean distance orders
pairs the same way cosine distance does. Initialization is seeded
k-means++; Lloyd iterations run to an assignment fixpoint, re-seeding any
empty cluster to the farthest point. All tie-breaks are by lowest index,
making a fit a pure function of (matrix, k, seed).

Both kernels run in C (_cluster.c, built and loaded by `_kernels`) over
one CSR of the L2-normalized rows, which each public call builds once:
int64 row starts, int32 terms, float64 weights and each row's squared
norm. Every dot product adds a row's products in the row's own order and
every sum over rows is a left fold in row-index order, so fits and scores
have the bits of the loops over row dicts in tests/oracles.py. The one
sum in an order that numpy picks, and so the one whose bits can follow
the CPU, is each centroid's squared norm (`_sq_norms`, ROADMAP item 1),
the only numpy in the package: the first `kmeans` call imports it.
Silhouette takes each query row's dot products from postings lists (each
term's rows and weights), so its working memory is O(nnz + n + V) for
nnz stored weights and V terms.
"""

from __future__ import annotations

import logging
import math
import random
from array import array
from collections import Counter
from dataclasses import dataclass, field
from itertools import accumulate, chain
from typing import NamedTuple

from . import _kernels
from .errors import DataError
from .floats import _sum_left
from .preprocess import TfIdfMatrix

log = logging.getLogger(__name__)


@dataclass
class ClusterModel:
    k: int
    centroids: array               # "d": k x V, row-major (centroid c at c*V .. (c+1)*V)
    assignments: list[int]
    n_iters: int
    wcss_history: list[float]      # within-cluster sum of squares per Lloyd iteration
    # the fit's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)


class _Rows(NamedTuple):
    """A matrix's L2-normalized rows as CSR. Row i's terms and weights are
    terms and weights[starts[i]:starts[i + 1]], in the row's own order, and
    sq[i] is its squared norm. A row whose norm is 0 keeps its terms, with
    weights 0.0 and sq 0.0: it adds nothing to any product or sum."""

    starts: array
    terms: array
    weights: array
    sq: array
    v_size: int


def _normalized_rows(matrix: TfIdfMatrix) -> _Rows:
    rows, v_size = matrix.rows, len(matrix.terms)
    terms = array("i", chain.from_iterable(rows))
    if terms and not 0 <= min(terms) <= max(terms) < v_size:
        raise DataError(f"a row holds a term index outside 0..{v_size - 1}")
    starts = array("q", accumulate(map(len, rows), initial=0))
    weights = array("d", chain.from_iterable(row.values() for row in rows))
    sq = array("d", [0.0]) * len(rows)
    _kernels._call("tf_normalize", len(rows), starts, weights, sq)
    return _Rows(starts, terms, weights, sq, v_size)


def _n_distinct(rows: _Rows) -> int:
    starts, terms, weights = rows.starts, rows.terms, rows.weights
    return len({frozenset(zip(terms[a:b], weights[a:b]))
                for a, b, sq in zip(starts, starts[1:], rows.sq) if sq > 0.0})


def distinct_rows(matrix: TfIdfMatrix) -> int:
    """Distinct non-empty rows once L2-normalized: the most clusters k-means
    can keep apart. With more, a tied centroid empties a cluster on every
    iteration and the fit never settles."""
    return _n_distinct(_normalized_rows(matrix))


def _kmeanspp_init(rows: _Rows, k: int, rng: random.Random) -> array:
    n = len(rows.sq)
    dense, dist = array("d", [0.0]) * rows.v_size, array("d", [0.0]) * n

    def sq_dists_to(j: int) -> list[float]:
        _kernels._call("tf_row_distances", n, rows.starts, rows.terms, rows.weights, rows.sq,
                       j, dense, dist)
        return [d ** 2 for d in dist]

    first = rng.randrange(n)
    chosen = [first]
    d_sq = sq_dists_to(first)
    for c in range(1, k):
        total = _sum_left(d_sq)
        if total <= 0.0:
            # all remaining points coincide with a centroid; spread over
            # the lowest-index unchosen rows
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
        d_sq = list(map(min, d_sq, sq_dists_to(chosen[-1])))
    centroids = array("d", [0.0]) * (k * rows.v_size)
    for c, i in enumerate(chosen):
        a, b = rows.starts[i], rows.starts[i + 1]
        for t, w in zip(rows.terms[a:b], rows.weights[a:b]):
            centroids[c * rows.v_size + t] = w
    return centroids


def _sq_norms(centroids: array, k: int) -> array:
    """Each of the k centroids' squared norm, by BLAS ddot over its
    contiguous float64 row: the one sum in an order that numpy picks."""
    import numpy as np

    rows = np.frombuffer(centroids).reshape(k, -1)
    return array("d", [float(np.dot(row, row)) for row in rows])


def kmeans(
    matrix: TfIdfMatrix, k: int, seed: int, max_iters: int = 100
) -> ClusterModel:
    """Cluster the matrix rows into k groups; deterministic given the seed.

    k may not exceed the distinct non-empty rows (`distinct_rows`). The
    diagnostics say whether the fit converged, i.e. stopped on unchanged
    assignments rather than at max_iters, and whether it cycled: the
    assignments after an empty-cluster re-seed, which alone fix the next
    centroids, repeated an earlier iteration's, so the rest of the run
    would only replay the cycle and the fit stops there.
    """
    if max_iters < 1:
        raise DataError(f"kmeans max_iters must be at least 1, got {max_iters}")
    rows = _normalized_rows(matrix)
    n = len(rows.sq)
    n_distinct = _n_distinct(rows)
    if n_distinct == 0:
        raise DataError("cannot cluster an all-zero matrix")
    if k < 2:
        raise DataError(f"k={k} out of range 2..{n_distinct}")
    if k > n_distinct:
        raise DataError(f"k={k} exceeds the {n_distinct} distinct non-empty rows")
    csr = rows.starts, rows.terms, rows.weights
    rng = random.Random(seed)
    centroids = _kmeanspp_init(rows, k, rng)
    nearest, best = array("i", [0]) * n, array("d", [0.0]) * n

    assignments = [-1] * n
    wcss_history: list[float] = []
    n_iters = 0
    converged = cycled = False
    seen: set[tuple[int, ...]] = set()  # post-re-seed assignments of every iteration
    for _ in range(max_iters):
        n_iters += 1
        # ties go to the lowest index
        _kernels._call("tf_assign", n, k, rows.v_size, *csr, rows.sq, centroids,
                       _sq_norms(centroids, k), nearest, best)
        best_d = best.tolist()
        new_assignments = nearest.tolist()
        wcss_history.append(_sum_left(best_d))
        if new_assignments == assignments:
            converged = True
            break
        assignments = new_assignments

        # re-seed empty clusters onto the farthest points before updating;
        # best_d is each point's distance to its assigned centroid
        counts = [0] * k
        for c in assignments:
            counts[c] += 1
        empties = [c for c in range(k) if counts[c] == 0]
        taken: set[int] = set()
        for c in empties:
            far_i, far_d = -1, -1.0
            for i, d in enumerate(best_d):
                if i in taken or counts[assignments[i]] <= 1:
                    continue
                if d > far_d:
                    far_i, far_d = i, d
            if far_i < 0:
                raise DataError("fewer distinct rows than clusters")
            taken.add(far_i)
            counts[assignments[far_i]] -= 1
            assignments[far_i] = c
            counts[c] += 1

        _kernels._call("tf_centroids", n, k, rows.v_size, *csr, array("i", assignments),
                       array("q", counts), centroids)
        state = tuple(assignments)
        if state in seen:
            cycled = True
            break
        seen.add(state)

    diagnostics = {"converged": converged}
    if cycled:
        diagnostics["cycled"] = True
    return ClusterModel(k, centroids, assignments, n_iters, wcss_history, diagnostics)


def silhouette(
    matrix: TfIdfMatrix,
    assignments: list[int],
    sample_size: int | None = None,
    seed: int = 0,
) -> float:
    """Mean silhouette value over points; exact O(n^2) by default.

    A point in a singleton cluster contributes 0. With sample_size set,
    the score is computed over a seeded sample of points against the full
    set of points (useful beyond ~50k rows). Pair distances come from
    sqrt(|x|^2 + |y|^2 - 2 x.y), and each cluster's distances are summed
    in row order.
    """
    n = len(matrix.rows)
    if n != len(assignments):
        raise DataError("assignments must be parallel to matrix rows")
    if sample_size is not None and sample_size < 1:
        raise DataError(f"silhouette sample_size must be at least 1, got {sample_size}")
    clusters = sorted(set(assignments))
    if len(clusters) < 2:
        raise DataError("silhouette requires at least 2 clusters")
    rows = _normalized_rows(matrix)
    label = array("i", map({c: i for i, c in enumerate(clusters)}.__getitem__, assignments))
    sizes = Counter(label)

    indices = list(range(n))
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        indices = sorted(rng.sample(indices, sample_size))

    nnz, n_labels = len(rows.terms), len(clusters)
    scores = array("d", [0.0]) * len(indices)
    _kernels._call(
        "tf_silhouette", n, rows.v_size, rows.starts, rows.terms, rows.weights, rows.sq,
        n_labels, label, array("q", map(sizes.__getitem__, range(n_labels))), len(indices),
        array("q", indices), array("q", [0]) * (rows.v_size + 1), array("i", [0]) * nnz,
        array("d", [0.0]) * nnz, array("d", [0.0]) * n, array("d", [0.0]) * n_labels, scores,
    )
    return _sum_left(scores) / len(indices)


@dataclass
class KSelection:
    """Every fit select_k made, in k order with its silhouette, and the argmax."""

    fits: list[tuple[ClusterModel, float]]
    best: ClusterModel


def select_k(
    matrix: TfIdfMatrix,
    k_range: tuple[int, int],
    seed: int,
    max_iters: int = 100,
    sample_size: int | None = None,
) -> KSelection:
    """Fit each k in the inclusive range; keep every fit and the silhouette argmax.

    The range is capped at the matrix's distinct non-empty rows. Ties go to
    the smallest k. Every fit uses the same seed, so the whole selection is
    reproducible.
    """
    lo, hi = k_range
    if lo > hi:
        raise DataError(f"empty k range {lo}..{hi}")
    n_distinct = distinct_rows(matrix)
    if lo > n_distinct:
        raise DataError(
            f"k range {lo}..{hi} starts above the {n_distinct} distinct non-empty rows"
        )
    hi = min(hi, n_distinct)
    fits = []
    best, best_score = None, -math.inf
    for k in range(lo, hi + 1):
        model = kmeans(matrix, k, seed, max_iters)
        score = silhouette(matrix, model.assignments, sample_size=sample_size, seed=seed)
        log.info("select_k: k=%d silhouette=%.4f", k, score)
        fits.append((model, score))
        if score > best_score:
            best, best_score = model, score
    return KSelection(fits, best)
