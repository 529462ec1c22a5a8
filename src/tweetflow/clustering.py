"""K-means over TF-IDF rows with silhouette-based model selection.

Rows are L2-normalized before clustering, so Euclidean distance orders
pairs the same way cosine distance does. Initialization is seeded
k-means++; Lloyd iterations run to an assignment fixpoint, re-seeding any
empty cluster to the farthest point. All tie-breaks are by lowest index,
making a fit a pure function of (matrix, k, seed).

Both kernels run in C (_cluster.c, built and loaded by `_kernels`) over
the matrix's own CSR, as `build_tfidf` writes it (int64 row starts, int32
term indices), with an L2-normalized copy of its float64 weights and each
row's squared norm, which `_prepared` makes once per matrix (every public
function takes the `_Rows` it returns as it is). Every dot product adds
a row's products in the row's own order and every sum over rows is a
left fold in row-index order, so fits and scores have the bits of the
loops over row dicts in tests/oracles.py. Each centroid's squared norm
is summed in the fixed order of the BLAS `ddot` that the goldens were
frozen under (`tests/oracles.py::sq_norm_frozen_order`), so no result
depends on the CPU, and no numpy is needed.
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


@dataclass(frozen=True, eq=False)
class _Rows(TfIdfMatrix):
    """A matrix with its rows L2-normalized, so it answers as the matrix
    does: it shares the matrix's terms, starts, term_ids and raw weights.
    Row i's normalized weights are unit[starts[i]:starts[i + 1]], and sq[i] is
    its squared norm. A row whose norm is 0 keeps its terms, with unit
    weights 0.0 and sq 0.0: it adds nothing to any product or sum.
    n_distinct counts the distinct non-empty normalized rows: the most
    clusters k-means can keep apart. With more, a tied centroid empties a
    cluster on every iteration and the fit never settles."""

    unit: array
    sq: array
    n_distinct: int


def _prepared(matrix: TfIdfMatrix) -> _Rows:
    """`matrix` with its rows normalized and its distinct rows counted; a
    `_Rows` is returned as it is. DataError for arrays the kernels cannot
    read: a wrong typecode, row starts that do not rise from 0 to the
    number of weights, or a term index outside the terms."""
    if isinstance(matrix, _Rows):
        return matrix
    starts, term_ids, weights = matrix.starts, matrix.term_ids, matrix.weights
    if [getattr(a, "typecode", None) for a in (starts, term_ids, weights)] != ["q", "i", "d"]:
        raise DataError("TF-IDF starts, term_ids and weights must be arrays of typecodes q, i, d")
    if len(weights) != len(term_ids):
        raise DataError(f"{len(weights)} TF-IDF weights for {len(term_ids)} term indices")
    if not (starts and starts[0] == 0 and starts[-1] == len(term_ids)
            and all(map(int.__le__, starts, starts[1:]))):
        raise DataError(f"TF-IDF row starts must rise from 0 to {len(term_ids)}")
    v_size = len(matrix.terms)
    if term_ids and not 0 <= min(term_ids) <= max(term_ids) < v_size:
        raise DataError(f"a row holds a term index outside 0..{v_size - 1}")
    n = len(starts) - 1
    unit, sq = array("d", weights), array("d", [0.0]) * n
    _kernels._call("tf_normalize", n, starts, unit, sq)
    n_distinct = len({frozenset(zip(term_ids[a:b], unit[a:b]))
                      for a, b, norm in zip(starts, starts[1:], sq) if norm > 0.0})
    return _Rows(matrix.terms, starts, term_ids, weights, unit, sq, n_distinct)


def _kmeanspp_init(rows: _Rows, k: int, rng: random.Random) -> array:
    n, v_size = len(rows.sq), len(rows.terms)
    dense, dist = array("d", [0.0]) * v_size, array("d", [0.0]) * n

    def sq_dists_to(j: int) -> list[float]:
        _kernels._call("tf_row_distances", n, rows.starts, rows.term_ids, rows.unit, rows.sq,
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
    centroids = array("d", [0.0]) * (k * v_size)
    for c, i in enumerate(chosen):
        a, b = rows.starts[i], rows.starts[i + 1]
        for t, w in zip(rows.term_ids[a:b], rows.unit[a:b]):
            centroids[c * v_size + t] = w
    return centroids


def kmeans(
    matrix: TfIdfMatrix, k: int, seed: int, max_iters: int = 100
) -> ClusterModel:
    """Cluster the matrix rows into k groups; deterministic given the seed.

    k may not exceed the distinct non-empty rows (`_Rows.n_distinct`). The
    diagnostics say whether the fit converged, i.e. stopped on unchanged
    assignments rather than at max_iters, and whether it cycled: the
    assignments after an empty-cluster re-seed, which alone fix the next
    centroids, repeated an earlier iteration's, so the rest of the run
    would only replay the cycle and the fit stops there.
    """
    if max_iters < 1:
        raise DataError(f"kmeans max_iters must be at least 1, got {max_iters}")
    rows = _prepared(matrix)
    n, n_distinct = len(rows.sq), rows.n_distinct
    if n_distinct == 0:
        raise DataError("cannot cluster an all-zero matrix")
    if k < 2:
        raise DataError(f"k={k} out of range 2..{n_distinct}")
    if k > n_distinct:
        raise DataError(f"k={k} exceeds the {n_distinct} distinct non-empty rows")
    v_size, csr = len(rows.terms), (rows.starts, rows.term_ids, rows.unit)
    rng = random.Random(seed)
    centroids = _kmeanspp_init(rows, k, rng)
    nearest, best, c_sq = array("i", [0]) * n, array("d", [0.0]) * n, array("d", [0.0]) * k

    assignments = [-1] * n
    wcss_history: list[float] = []
    n_iters = 0
    converged = cycled = False
    seen: set[tuple[int, ...]] = set()  # post-re-seed assignments of every iteration
    for _ in range(max_iters):
        n_iters += 1
        # ties go to the lowest index
        _kernels._call("tf_assign", n, k, v_size, *csr, rows.sq, centroids,
                       c_sq, nearest, best)
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

        _kernels._call("tf_centroids", n, k, v_size, *csr, array("i", assignments),
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
    rows = _prepared(matrix)
    n = len(rows.starts) - 1
    if n != len(assignments):
        raise DataError("assignments must be parallel to matrix rows")
    if sample_size is not None and sample_size < 1:
        raise DataError(f"silhouette sample_size must be at least 1, got {sample_size}")
    clusters = sorted(set(assignments))
    if len(clusters) < 2:
        raise DataError("silhouette requires at least 2 clusters")
    label = array("i", map({c: i for i, c in enumerate(clusters)}.__getitem__, assignments))
    sizes = Counter(label)

    indices = list(range(n))
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        indices = sorted(rng.sample(indices, sample_size))

    nnz, v_size, n_labels = len(rows.term_ids), len(rows.terms), len(clusters)
    scores = array("d", [0.0]) * len(indices)
    _kernels._call(
        "tf_silhouette", n, v_size, rows.starts, rows.term_ids, rows.unit, rows.sq,
        n_labels, label, array("q", map(sizes.__getitem__, range(n_labels))), len(indices),
        array("q", indices), array("q", [0]) * (v_size + 1), array("i", [0]) * nnz,
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
    matrix = _prepared(matrix)
    n_distinct = matrix.n_distinct
    if lo > n_distinct:
        raise DataError(
            f"k range {lo}..{hi} starts above the {n_distinct} distinct non-empty rows"
        )
    fits = []
    best, best_score = None, -math.inf
    for k in range(lo, min(hi, n_distinct) + 1):
        model = kmeans(matrix, k, seed, max_iters)
        score = silhouette(matrix, model.assignments, sample_size=sample_size, seed=seed)
        log.info("select_k: k=%d silhouette=%.4f", k, score)
        fits.append((model, score))
        if score > best_score:
            best, best_score = model, score
    return KSelection(fits, best)
