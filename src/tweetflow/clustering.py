"""K-means over TF-IDF rows with silhouette-based model selection.

Rows are L2-normalized before clustering, so Euclidean distance orders
pairs the same way cosine distance does. Initialization is seeded
k-means++; Lloyd iterations run to an assignment fixpoint, re-seeding any
empty cluster to the farthest point. All tie-breaks are by lowest index,
making a fit a pure function of (matrix, k, seed).

Both kernels are numpy array code over the normalized rows, without
BLAS: dot products add each row's terms in the row's own order, exactly
as a loop over the sparse row would, so k-means fits match that loop bit
for bit on any machine. Silhouette takes its pairwise distances from Gram
products over blocks of rows, so its working memory is one block of rows
by n, not n by n.
"""

from __future__ import annotations

import logging
import math
import random
from collections import Counter
from collections.abc import Iterable
from dataclasses import dataclass, field

import numpy as np

from .errors import DataError
from .floats import _sum_left
from .preprocess import TfIdfMatrix

log = logging.getLogger(__name__)


@dataclass
class ClusterModel:
    k: int
    centroids: np.ndarray          # k x V dense
    assignments: list[int]
    n_iters: int
    wcss_history: list[float]      # within-cluster sum of squares per Lloyd iteration
    # the fit's own run statistics, for the manifest; not part of the result
    diagnostics: dict | None = field(default=None, compare=False)


def _normalized(row: dict[int, float]) -> dict[int, float]:
    norm = math.sqrt(_sum_left(w * w for w in row.values()))
    return {i: w / norm for i, w in row.items()} if norm > 0 else {}


def _normalized_rows(matrix: TfIdfMatrix) -> list[dict[int, float]]:
    return [_normalized(row) for row in matrix.rows]


def _n_distinct(rows: Iterable[dict[int, float]]) -> int:
    return len({tuple(sorted(row.items())) for row in rows if row})


def distinct_rows(matrix: TfIdfMatrix) -> int:
    """Distinct non-empty rows once L2-normalized: the most clusters k-means
    can keep apart. With more, a tied centroid empties a cluster on every
    iteration and the fit never settles."""
    return _n_distinct(map(_normalized, matrix.rows))


def _sq_norms(rows: list[dict[int, float]]) -> np.ndarray:
    return np.array([_sum_left(w * w for w in row.values()) for row in rows], dtype=float)


def _padded(rows: list[dict[int, float]]) -> tuple[np.ndarray, np.ndarray]:
    """Rows as n x L term-index and weight arrays, zero-padded to the longest row.

    Column p holds each row's p-th entry in the row's own order.
    """
    width = max(len(row) for row in rows)
    idx = np.zeros((len(rows), width), dtype=np.intp)
    val = np.zeros((len(rows), width))
    for i, row in enumerate(rows):
        idx[i, : len(row)] = list(row)
        val[i, : len(row)] = list(row.values())
    return idx, val


def _dots(idx: np.ndarray, val: np.ndarray, dense: np.ndarray) -> np.ndarray:
    """Dot products of the padded rows with each column of dense (V x m).

    Accumulates one padded column at a time, so each row's products are
    added in the row's own order, as a loop over the row dict adds them.
    """
    out = np.zeros((idx.shape[0], dense.shape[1]))
    for p in range(idx.shape[1]):
        out += val[:, p, None] * dense[idx[:, p]]
    return out


def _sq_dists_to_row(
    rows: list[dict[int, float]], sq: np.ndarray, idx: np.ndarray, val: np.ndarray,
    v_size: int, j: int,
) -> list[float]:
    """Squared Euclidean distance from every row to row j."""
    target = np.zeros((v_size, 1))
    for t, w in rows[j].items():
        target[t, 0] = w
    dist = np.sqrt(np.maximum(0.0, sq + sq[j] - 2.0 * _dots(idx, val, target)[:, 0]))
    return [d ** 2 for d in dist.tolist()]


def _kmeanspp_init(
    rows: list[dict[int, float]], sq: np.ndarray, idx: np.ndarray, val: np.ndarray,
    k: int, v_size: int, rng: random.Random,
) -> np.ndarray:
    n = len(rows)
    centroids = np.zeros((k, v_size))
    first = rng.randrange(n)
    chosen = [first]
    d_sq = _sq_dists_to_row(rows, sq, idx, val, v_size, first)
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
        d_sq = list(map(min, d_sq, _sq_dists_to_row(rows, sq, idx, val, v_size, chosen[-1])))
    for c, i in enumerate(chosen):
        for t, w in rows[i].items():
            centroids[c, t] = w
    return centroids


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
    n = len(matrix.rows)
    rows = _normalized_rows(matrix)
    n_distinct = _n_distinct(rows)
    if n_distinct == 0:
        raise DataError("cannot cluster an all-zero matrix")
    if k < 2:
        raise DataError(f"k={k} out of range 2..{n_distinct}")
    if k > n_distinct:
        raise DataError(f"k={k} exceeds the {n_distinct} distinct non-empty rows")
    v_size = len(matrix.terms)
    sq = _sq_norms(rows)
    idx, val = _padded(rows)
    filled = np.arange(idx.shape[1]) < np.array([len(row) for row in rows])[:, None]
    # every stored entry as (row, term, weight), rows in index order
    entry_row = np.nonzero(filled)[0]
    entry_term, entry_weight = idx[filled], val[filled]
    rng = random.Random(seed)
    centroids = _kmeanspp_init(rows, sq, idx, val, k, v_size, rng)

    assignments = [-1] * n
    wcss_history: list[float] = []
    n_iters = 0
    converged = cycled = False
    seen: set[tuple[int, ...]] = set()  # post-re-seed assignments of every iteration
    for _ in range(max_iters):
        n_iters += 1
        c_sq = np.array([float(np.dot(centroids[c], centroids[c])) for c in range(k)])
        d_sq = np.maximum(0.0, sq[:, None] - 2.0 * _dots(idx, val, centroids.T) + c_sq)
        nearest = d_sq.argmin(axis=1)  # first minimum: ties go to the lowest index
        best_d = d_sq[np.arange(n), nearest].tolist()
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

        # add.at is unbuffered: each centroid sums its rows in index order
        centroids = np.zeros((k, v_size))
        np.add.at(centroids, (np.array(assignments)[entry_row], entry_term), entry_weight)
        for c in range(k):
            if counts[c] > 0:
                centroids[c] /= counts[c]
        state = tuple(assignments)
        if state in seen:
            cycled = True
            break
        seen.add(state)

    diagnostics = {"converged": converged}
    if cycled:
        diagnostics["cycled"] = True
    return ClusterModel(k, centroids, assignments, n_iters, wcss_history, diagnostics)


SILHOUETTE_BLOCK = 64  # query rows per Gram block


def _shared_columns(rows: list[dict[int, float]], v_size: int) -> tuple[np.ndarray, np.ndarray]:
    """Term-major dense block over the m terms found in at least two rows.

    Only those terms can add to the dot product of two different rows.
    Returns the (m + 1) x n block, whose last line is zeros, and each
    vocabulary term's line in it (m for the other terms).
    """
    df = Counter(t for row in rows for t in row)
    shared = sorted(t for t, c in df.items() if c >= 2)
    lines = np.full(v_size, len(shared), dtype=np.intp)
    lines[shared] = np.arange(len(shared))
    block = np.zeros((len(shared) + 1, len(rows)))
    for i, row in enumerate(rows):
        for t, w in row.items():
            block[lines[t], i] = w
    block[-1] = 0.0  # the terms of one row only were written there
    return block, lines


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
    sqrt(|x|^2 + |y|^2 - 2 x.y), SILHOUETTE_BLOCK points at a time.
    """
    n = len(matrix.rows)
    if n != len(assignments):
        raise DataError("assignments must be parallel to matrix rows")
    clusters = sorted(set(assignments))
    if len(clusters) < 2:
        raise DataError("silhouette requires at least 2 clusters")
    rows = _normalized_rows(matrix)
    sq = _sq_norms(rows)
    block, lines = _shared_columns(rows, len(matrix.terms))
    idx, val = _padded(rows)
    idx = lines[idx]
    label = np.searchsorted(clusters, assignments)
    sizes = np.bincount(label)
    by_cluster = np.argsort(label, kind="stable")
    starts = np.concatenate(([0], np.cumsum(sizes)[:-1]))

    indices = list(range(n))
    if sample_size is not None and sample_size < n:
        rng = random.Random(seed)
        indices = sorted(rng.sample(indices, sample_size))

    scores: list[float] = []
    for start in range(0, len(indices), SILHOUETTE_BLOCK):
        q = np.array(indices[start : start + SILHOUETTE_BLOCK])
        here = np.arange(len(q))
        gram = _dots(idx[q], val[q], block)
        gram *= 2.0
        dist = sq[q, None] + sq
        dist -= gram
        np.maximum(dist, 0.0, out=dist)
        np.sqrt(dist, out=dist)
        dist[here, q] = 0.0  # the block leaves out terms of one row only
        sums = np.add.reduceat(dist[:, by_cluster], starts, axis=1)  # per cluster
        own = label[q]
        a = sums[here, own] / np.maximum(sizes[own] - 1, 1)
        mean_other = sums / sizes
        mean_other[here, own] = np.inf
        b = mean_other.min(axis=1)
        denom = np.maximum(a, b)
        # a point in a singleton cluster contributes 0
        scores += np.divide(
            b - a, denom, out=np.zeros(len(q)), where=(sizes[own] > 1) & (denom > 0)
        ).tolist()
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
