from __future__ import annotations

import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import oracles
from tweetflow import pipeline
from tweetflow.clustering import distinct_rows, kmeans, select_k, silhouette
from tweetflow.config import load_config
from tweetflow.errors import DataError
from tweetflow.preprocess import TfIdfMatrix, build_tfidf


def matrix_from_rows(rows, v_size):
    return TfIdfMatrix(tuple(dict(r) for r in rows), tuple(f"w{i}" for i in range(v_size)))


def blob_matrix(n_blobs, per_blob, seed, spread=0.08, dims_per_blob=3):
    """Blobs around orthogonal direction bundles; all weights positive so the
    rows qualify as TF-IDF rows."""
    rng = random.Random(seed)
    rows = []
    v_size = n_blobs * dims_per_blob
    for b in range(n_blobs):
        base = b * dims_per_blob
        for _ in range(per_blob):
            row = {base + j: 1.0 + rng.random() * spread for j in range(dims_per_blob)}
            other = (base + dims_per_blob) % v_size
            row[other] = spread * rng.random() + 1e-6
            rows.append(row)
    return matrix_from_rows(rows, v_size)


def random_sparse_matrix(seed, n, v_size, p_empty=0.1, p_duplicate=0.15):
    """Seeded sparse rows with some empty rows and some copies of earlier rows."""
    rng = random.Random(seed)
    rows = []
    for _ in range(n):
        if rows and rng.random() < p_duplicate:
            rows.append(dict(rows[rng.randrange(len(rows))]))
        elif rng.random() < p_empty:
            rows.append({})
        else:
            terms = rng.sample(range(v_size), rng.randint(1, max(1, v_size // 4)))
            rows.append({t: 0.05 + 3.0 * rng.random() for t in terms})
    return matrix_from_rows(rows, v_size)


def assert_same_fit(matrix, k, seed):
    expected = oracles.kmeans(matrix, k, seed)
    got = kmeans(matrix, k, seed)
    assert got.assignments == expected.assignments
    assert got.n_iters == expected.n_iters
    assert got.centroids == expected.centroids
    assert got.wcss_history == expected.wcss_history


class TestOracleEquivalence:
    """The array kernels against the pair-at-a-time loops in tests/oracles.py."""

    @pytest.mark.parametrize("seed", range(12))
    def test_kmeans_fits_identical(self, seed):
        matrix = random_sparse_matrix(seed, 20 + 7 * seed, 12 + seed)
        for k in (2, 3, 5, 8):
            if k <= distinct_rows(matrix):
                assert_same_fit(matrix, k, seed)

    def test_kmeans_empty_cluster_reseed_identical(self):
        # 4 clusters over 6 distinct rows ({0: 6, 1: 6} and {0: 3, 1: 3}
        # normalize alike): at seed 0 the second iteration's nearest
        # centroids leave a cluster empty, the farthest point re-seeds it,
        # and the fit still converges
        rows = [{0: 2, 1: 5}, {0: 2, 1: 9}, {0: 6, 1: 6}, {0: 8, 1: 9},
                {0: 3, 1: 3}, {0: 6, 1: 3}, {0: 6}]
        matrix = matrix_from_rows(rows, 2)
        points = np.array([[row.get(0, 0), row.get(1, 0)] for row in rows], dtype=float)
        points /= np.linalg.norm(points, axis=1)[:, None]
        centroids = np.frombuffer(kmeans(matrix, 4, seed=0, max_iters=1).centroids).reshape(4, 2)
        nearest = ((points[:, None, :] - centroids[None]) ** 2).sum(axis=2).argmin(axis=1)
        assert len(set(nearest.tolist())) == 3
        assert_same_fit(matrix, 4, seed=0)
        model = kmeans(matrix, 4, seed=0)
        assert sorted(set(model.assignments)) == [0, 1, 2, 3]
        assert model.diagnostics == {"converged": True}

    @pytest.mark.parametrize("seed", range(12))
    def test_silhouette_matches(self, seed):
        matrix = random_sparse_matrix(seed, 15 + 6 * seed, 10 + seed)
        n = len(matrix.rows)
        rng = random.Random(seed)
        for n_clusters in (2, 3, 6):
            assignments = [rng.randrange(n_clusters) for _ in range(n)]
            assignments[-1] = n_clusters  # a singleton cluster
            for sample_size in (None, 1, n // 3, n, n + 5):
                expected = oracles.silhouette(matrix, assignments, sample_size, seed)
                got = silhouette(matrix, assignments, sample_size, seed)
                assert type(got) is float
                assert got == pytest.approx(expected, rel=0, abs=1e-12)

    def test_silhouette_of_fitted_clusters_matches(self):
        matrix = blob_matrix(4, 30, seed=13, spread=0.3)
        model = kmeans(matrix, 4, seed=2)
        expected = oracles.silhouette(matrix, model.assignments)
        assert silhouette(matrix, model.assignments) == pytest.approx(expected, rel=0, abs=1e-12)

    def test_silhouette_empty_and_duplicate_rows(self):
        rows = [{}, {}, {0: 1.0, 1: 2.0, 2: 0.5}, {0: 1.0, 1: 2.0, 2: 0.5}, {2: 1.0}, {}]
        matrix = matrix_from_rows(rows, 3)
        for assignments in ([0, 0, 1, 1, 1, 0], [0, 1, 0, 1, 2, 2], [1, 0, 0, 0, 0, 0]):
            expected = oracles.silhouette(matrix, assignments)
            assert silhouette(matrix, assignments) == pytest.approx(expected, rel=0, abs=1e-12)
        all_empty = matrix_from_rows([{}, {}, {}], 2)
        assert silhouette(all_empty, [0, 1, 1]) == oracles.silhouette(all_empty, [0, 1, 1])


@pytest.fixture(scope="module")
def fixture_matrices(tmp_path_factory, fixture_config_path):
    """The TF-IDF matrix the cluster stage builds for each language of the
    bundled fixture, with the stage's seed for that language."""
    config = load_config(fixture_config_path,
                         out_override=str(tmp_path_factory.mktemp("run") / "out"))
    pipeline.run_stage("ingest", config)
    with pipeline._docs_scope():
        return {
            lang: (build_tfidf(pipeline._lang_docs(config, lang, pipeline.CORPUS)[1]),
                   config.stage_seed(f"cluster:{lang}"))
            for lang in config.languages
        }


@st.composite
def labelled_matrices(draw):
    """Sparse rows with empty rows, copies of earlier rows, terms in any
    order, and labels from a non-contiguous set: (matrix, labels, sample_size)."""
    v_size = draw(st.integers(1, 8))
    rows = []
    for _ in range(draw(st.integers(2, 14))):
        kind = draw(st.sampled_from(["fresh", "fresh", "fresh", "empty", "copy"]))
        if kind == "copy" and rows:
            rows.append(dict(draw(st.sampled_from(rows))))
        elif kind == "empty":
            rows.append({})
        else:
            terms = draw(st.permutations(range(v_size)))[: draw(st.integers(1, v_size))]
            rows.append({t: draw(st.floats(0.01, 5.0)) for t in terms})
    labels = draw(st.lists(st.sampled_from([7, 3, 9, 0, 12]), min_size=len(rows),
                           max_size=len(rows)).filter(lambda ls: len(set(ls)) >= 2))
    sample_size = draw(st.one_of(st.none(), st.integers(1, len(rows) + 2)))
    return matrix_from_rows(rows, v_size), labels, sample_size


class TestExactOrderOracle:
    """silhouette against the pair loop in tests/oracles.py that adds each
    dot product in the query row's term order and each cluster's distances
    in row order: the same float operations in the same order, so repr-equal."""

    @pytest.mark.parametrize("lang", ["en", "it"])
    def test_fixture_fits_repr_equal(self, fixture_matrices, lang):
        matrix, seed = fixture_matrices[lang]
        assert len(matrix.rows) > 50
        for k in (2, 3, 4):
            assignments = kmeans(matrix, k, seed).assignments
            for sample_size in (None, 30):
                expected = oracles.silhouette_exact_order(matrix, assignments, sample_size, seed)
                got = silhouette(matrix, assignments, sample_size, seed)
                assert repr(got) == repr(expected)

    @settings(max_examples=150, deadline=None)
    @given(labelled_matrices(), st.integers(0, 2**32))
    def test_generated_matrices_repr_equal(self, case, seed):
        matrix, labels, sample_size = case
        expected = oracles.silhouette_exact_order(matrix, labels, sample_size, seed)
        assert repr(silhouette(matrix, labels, sample_size, seed)) == repr(expected)

    def test_non_contiguous_labels_singletons_duplicates_and_empty_rows(self):
        rows = [{2: 1.0, 0: 2.0}, {0: 2.0, 2: 1.0}, {}, {1: 0.5, 2: 3.0}, {1: 1.0}, {}]
        matrix = matrix_from_rows(rows, 3)
        for labels in ([7, 3, 7, 9, 3, 7], [7, 7, 3, 7, 7, 7], [9, 3, 3, 3, 12, 12]):
            expected = oracles.silhouette_exact_order(matrix, labels)
            assert repr(silhouette(matrix, labels)) == repr(expected)
            assert silhouette(matrix, labels) == pytest.approx(
                oracles.silhouette(matrix, labels), rel=0, abs=1e-12)

    def test_term_index_outside_the_vocabulary_rejected(self):
        matrix = matrix_from_rows([{0: 1.0}, {3: 1.0}], 2)
        with pytest.raises(DataError, match=r"term index outside 0\.\.1"):
            silhouette(matrix, [0, 1])
        with pytest.raises(DataError, match=r"term index outside 0\.\.1"):
            kmeans(matrix, 2, seed=0)


class TestKmeans:
    def test_two_planted_groups_recovered(self):
        matrix = blob_matrix(2, 10, seed=0)
        model = kmeans(matrix, 2, seed=5)
        first, second = model.assignments[:10], model.assignments[10:]
        assert len(set(first)) == 1 and len(set(second)) == 1
        assert first[0] != second[0]

    def test_k_equals_n_each_point_own_cluster(self):
        rows = [{i: 1.0} for i in range(5)]
        matrix = matrix_from_rows(rows, 5)
        model = kmeans(matrix, 5, seed=1)
        assert sorted(model.assignments) == list(range(5))
        assert model.wcss_history[-1] == pytest.approx(0.0, abs=1e-12)

    def test_same_seed_identical(self):
        matrix = blob_matrix(3, 8, seed=2)
        a = kmeans(matrix, 3, seed=9)
        b = kmeans(matrix, 3, seed=9)
        assert a == b
        # one flat row-major array of the k x V centroids
        assert a.centroids.typecode == "d" and len(a.centroids) == 3 * len(matrix.terms)

    def test_wcss_monotone_descent(self):
        matrix = blob_matrix(3, 12, seed=4)
        for seed in range(5):
            model = kmeans(matrix, 4, seed=seed)
            history = model.wcss_history
            assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))

    def test_every_cluster_nonempty(self):
        matrix = blob_matrix(2, 10, seed=6)
        model = kmeans(matrix, 4, seed=3)
        assert set(model.assignments) == set(range(4))

    def test_k_out_of_range(self):
        matrix = blob_matrix(2, 3, seed=0)
        with pytest.raises(DataError):
            kmeans(matrix, 1, seed=0)
        with pytest.raises(DataError):
            kmeans(matrix, 7, seed=0)

    def test_all_zero_matrix_rejected(self):
        matrix = matrix_from_rows([{}, {}], 3)
        with pytest.raises(DataError):
            kmeans(matrix, 2, seed=0)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, max_iters):
        matrix = blob_matrix(2, 10, seed=0)
        with pytest.raises(DataError, match=f"max_iters must be at least 1, got {max_iters}"):
            kmeans(matrix, 2, seed=0, max_iters=max_iters)

    @pytest.mark.parametrize(
        "rows, k",
        [
            # a tied centroid would empty a cluster on every iteration and
            # run all max_iters
            ([{0: 1.0}] * 4 + [{1: 1.0}], 3),
            ([{0: 1.0, 1: 0.1}] * 3 + [{0: 0.1, 1: 1.0}] * 3 + [{2: 1.0}, {}], 5),
        ],
    )
    def test_k_above_distinct_rows_rejected(self, rows, k):
        matrix = matrix_from_rows(rows, 3)
        n_distinct = distinct_rows(matrix)
        assert n_distinct < k
        with pytest.raises(DataError, match=f"{n_distinct} distinct non-empty rows"):
            kmeans(matrix, k, seed=0)
        assert kmeans(matrix, n_distinct, seed=0).diagnostics == {"converged": True}

    def test_distinct_rows_counts_normalized_rows(self):
        rows = [{0: 1.0}, {0: 2.0}, {}, {0: 1.0, 1: 1.0}, {1: 2.0, 0: 2.0}, {1: 1.0}]
        assert distinct_rows(matrix_from_rows(rows, 2)) == 3

    def test_reseed_cycle_stops_early(self):
        # the three diagonal rows normalize alike only to the last bits, so
        # they count apart; at k=4 two centroids tie on them, a cluster
        # empties every iteration and its re-seed replays the same states
        rows = [{0: 0.7, 1: 1.0}, {1: 1.1}, {0: 0.6, 1: 0.6},
                {0: 1.1, 1: 1.1}, {0: 0.6, 1: 0.6}, {0: 0.2, 1: 0.2}]
        matrix = matrix_from_rows(rows, 2)
        assert distinct_rows(matrix) == 4
        model = kmeans(matrix, 4, seed=0)
        assert model.diagnostics == {"converged": False, "cycled": True}
        assert model.n_iters < 100
        # the run so far is the full run's prefix, and the full run only replays it
        prefix = oracles.kmeans(matrix, 4, 0, max_iters=model.n_iters)
        assert model.assignments == prefix.assignments
        assert model.centroids == prefix.centroids
        assert model.wcss_history == prefix.wcss_history
        full = oracles.kmeans(matrix, 4, 0)
        assert full.n_iters == 100
        assert full.assignments == model.assignments

    def test_converged_flag(self):
        matrix = blob_matrix(3, 8, seed=2)
        model = kmeans(matrix, 3, seed=9)
        assert model.n_iters > 1
        assert model.diagnostics == {"converged": True}
        assert kmeans(matrix, 3, seed=9, max_iters=1).diagnostics == {"converged": False}


class TestSilhouette:
    def test_two_tight_far_blobs(self):
        matrix = blob_matrix(2, 10, seed=1, spread=0.02)
        model = kmeans(matrix, 2, seed=0)
        assert silhouette(matrix, model.assignments) > 0.9

    def test_one_blob_split_scores_low(self):
        matrix = blob_matrix(1, 20, seed=2, spread=0.3)
        assignments = [i % 2 for i in range(20)]
        assert silhouette(matrix, assignments) < 0.25

    def test_all_singletons_zero(self):
        rows = [{i: 1.0} for i in range(4)]
        matrix = matrix_from_rows(rows, 4)
        assert silhouette(matrix, [0, 1, 2, 3]) == 0.0

    def test_bounds(self):
        rng = random.Random(3)
        rows = [{rng.randrange(6): 1.0 + rng.random()} for _ in range(30)]
        matrix = matrix_from_rows(rows, 6)
        score = silhouette(matrix, [rng.randrange(3) for _ in range(30)])
        assert -1.0 <= score <= 1.0

    def test_single_cluster_rejected(self):
        matrix = blob_matrix(2, 5, seed=0)
        with pytest.raises(DataError):
            silhouette(matrix, [0] * 10)

    def test_sampled_mode_deterministic(self):
        matrix = blob_matrix(3, 20, seed=5)
        model = kmeans(matrix, 3, seed=1)
        a = silhouette(matrix, model.assignments, sample_size=20, seed=7)
        b = silhouette(matrix, model.assignments, sample_size=20, seed=7)
        assert a == b

    @pytest.mark.parametrize("sample_size", [0, -1])
    def test_sample_size_below_one_rejected(self, sample_size):
        matrix = matrix_from_rows([{0: 1.0}, {1: 1.0}, {0: 0.5, 1: 0.1}], 2)
        with pytest.raises(DataError, match=f"sample_size must be at least 1, got {sample_size}"):
            silhouette(matrix, [0, 1, 0], sample_size=sample_size)


class TestSelectK:
    def test_three_planted_blobs(self):
        matrix = blob_matrix(3, 15, seed=8)
        best = select_k(matrix, (2, 6), seed=0).best
        assert best.k == 3
        assert len(set(best.assignments)) == 3

    def test_single_value_range(self):
        matrix = blob_matrix(2, 10, seed=9)
        selection = select_k(matrix, (2, 2), seed=0)
        assert selection.best.k == 2
        assert [model.k for model, _ in selection.fits] == [2]

    def test_tie_takes_smallest_k(self, monkeypatch):
        import tweetflow.clustering as clustering_mod

        matrix = blob_matrix(2, 10, seed=10)
        monkeypatch.setattr(clustering_mod, "silhouette", lambda *a, **k: 0.5)
        assert clustering_mod.select_k(matrix, (2, 5), seed=0).best.k == 2

    def test_empty_range_rejected(self):
        matrix = blob_matrix(2, 10, seed=0)
        with pytest.raises(DataError):
            select_k(matrix, (4, 2), seed=0)

    def test_range_capped_at_distinct_rows(self):
        matrix = matrix_from_rows([{0: 1.0}] * 4 + [{1: 1.0}, {2: 1.0}, {}], 3)
        selection = select_k(matrix, (2, 6), seed=0)
        assert [model.k for model, _ in selection.fits] == [2, 3]
        with pytest.raises(DataError, match="3 distinct non-empty rows"):
            select_k(matrix, (4, 6), seed=0)

    @pytest.mark.parametrize("sample_size", [0, -1])
    def test_sample_size_below_one_rejected(self, sample_size):
        matrix = blob_matrix(2, 10, seed=9)
        with pytest.raises(DataError, match=f"sample_size must be at least 1, got {sample_size}"):
            select_k(matrix, (2, 3), seed=0, sample_size=sample_size)

    @pytest.mark.parametrize("max_iters", [0, -1])
    def test_max_iters_below_one_rejected(self, max_iters):
        # not "silhouette requires at least 2 clusters" from a fit that
        # assigned every row to no cluster
        matrix = blob_matrix(2, 10, seed=9)
        with pytest.raises(DataError, match=f"max_iters must be at least 1, got {max_iters}"):
            select_k(matrix, (2, 3), seed=0, max_iters=max_iters)

    def test_reproducible(self):
        matrix = blob_matrix(3, 10, seed=11)
        a = select_k(matrix, (2, 5), seed=3)
        b = select_k(matrix, (2, 5), seed=3)
        assert a.best.k == b.best.k and a.best.assignments == b.best.assignments

    def test_every_fit_kept_with_its_score(self):
        matrix = blob_matrix(3, 10, seed=12)
        selection = select_k(matrix, (2, 5), seed=4, sample_size=20)
        assert [model.k for model, _ in selection.fits] == [2, 3, 4, 5]
        for model, score in selection.fits:
            assert model.assignments == kmeans(matrix, model.k, seed=4).assignments
            assert score == silhouette(matrix, model.assignments, sample_size=20, seed=4)
        best_score = max(score for _, score in selection.fits)
        first_best = next(m for m, score in selection.fits if score == best_score)
        assert selection.best is first_best
