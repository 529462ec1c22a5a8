from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tweetflow import netmetrics
from tweetflow.errors import DataError
from tweetflow.netmetrics import (
    _adjacency,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
    top_k,
)
from tweetflow.wordgraph import WordGraph

import oracles
from oracles import (
    brute_betweenness,
    dense_dominant_eigenvector,
    disconnected_word_graph,
    is_connected,
    kernel_graphs,
    path_counts,
    random_graph,
    real_size_graphs,
)

KERNEL_GRAPHS = kernel_graphs()
REAL_SIZE_GRAPHS = real_size_graphs()
DISCONNECTED = disconnected_word_graph()


def over(graphs):
    return pytest.mark.parametrize(
        "graph", [g for _, g in graphs], ids=[label for label, _ in graphs]
    )


over_kernel_graphs = over(KERNEL_GRAPHS)


class TestDegreeCentrality:
    def test_path(self, path3):
        values = degree_centrality(path3).values
        assert values == {"a": 0.5, "b": 1.0, "c": 0.5}

    def test_star(self, star4):
        values = degree_centrality(star4).values
        assert values["hub"] == 1.0
        assert all(values[f"l{i}"] == 0.25 for i in range(1, 5))

    def test_matches_neighbor_recount(self):
        adj = random_graph(8, 0.4, seed=3)
        values = degree_centrality(adj).values
        for node, neighbors in adj.items():
            assert values[node] == pytest.approx(len(neighbors) / 7)

    def test_single_node_rejected(self):
        with pytest.raises(DataError):
            degree_centrality({"a": []})

    def test_accepts_word_graph(self):
        graph = WordGraph({"a": 1, "b": 1}, {("a", "b"): 1})
        assert degree_centrality(graph).values == {"a": 1.0, "b": 1.0}


class TestClosenessCentrality:
    def test_triangle_all_one(self, triangle):
        assert closeness_centrality(triangle).values == {"a": 1.0, "b": 1.0, "c": 1.0}

    def test_path(self, path3):
        values = closeness_centrality(path3).values
        assert values["b"] == pytest.approx(1.0)
        assert values["a"] == pytest.approx(2 / 3)

    def test_two_disjoint_edges_reach_scaling(self):
        adj = {"a": ["b"], "b": ["a"], "c": ["d"], "d": ["c"]}
        values = closeness_centrality(adj).values
        assert all(v == pytest.approx(1 / 3) for v in values.values())

    def test_isolated_node_scores_zero(self):
        adj = {"a": ["b"], "b": ["a"], "z": []}
        assert closeness_centrality(adj).values["z"] == 0.0

    def test_within_unit_interval(self):
        for seed in range(10):
            adj = random_graph(9, 0.3, seed=seed)
            for value in closeness_centrality(adj).values.values():
                assert 0.0 <= value <= 1.0


class TestBetweennessCentrality:
    def test_path_bridge(self, path3):
        values = betweenness_centrality(path3).values
        assert values == {"a": 0.0, "b": 1.0, "c": 0.0}

    def test_star_center_all_pairs(self, star4):
        values = betweenness_centrality(star4).values
        assert values["hub"] == pytest.approx(6.0)  # C(4,2) leaf pairs
        assert all(values[f"l{i}"] == 0.0 for i in range(1, 5))

    def test_normalized_path(self, path3):
        values = betweenness_centrality(path3, normalized=True).values
        assert values["b"] == pytest.approx(1.0)

    def test_degree_one_nodes_score_zero(self):
        for seed in range(5):
            adj = random_graph(8, 0.35, seed=seed)
            values = betweenness_centrality(adj).values
            for node, neighbors in adj.items():
                if len(neighbors) == 1:
                    assert values[node] == pytest.approx(0.0)

    def test_matches_path_enumeration_oracle(self):
        rng = random.Random(0)
        for trial in range(30):
            n = rng.randrange(2, 11)
            adj = random_graph(n, rng.choice([0.2, 0.4, 0.6, 0.8]), seed=trial)
            ours = betweenness_centrality(adj).values
            oracle = brute_betweenness(adj)
            for node in adj:
                assert ours[node] == pytest.approx(float(oracle[node]), abs=1e-9)

    def test_vertex_transitive_constant(self, k4):
        values = betweenness_centrality(k4).values
        assert len(set(values.values())) == 1


class TestEigenvectorCentrality:
    def test_complete_k4_uniform(self, k4):
        values = eigenvector_centrality(k4).values
        assert all(v == pytest.approx(0.5, abs=1e-6) for v in values.values())

    def test_star_analytic(self, star4):
        values = eigenvector_centrality(star4).values
        assert values["hub"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert values["l1"] == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-6)

    def test_l2_norm_one(self):
        for seed in range(5):
            adj = random_graph(8, 0.4, seed=seed)
            if not any(adj.values()):
                continue
            values = eigenvector_centrality(adj).values
            norm = math.sqrt(sum(v * v for v in values.values()))
            assert norm == pytest.approx(1.0, abs=1e-9)

    def test_all_nonnegative(self):
        for seed in range(5):
            adj = random_graph(7, 0.5, seed=seed + 100)
            if not any(adj.values()):
                continue
            assert all(v >= 0 for v in eigenvector_centrality(adj).values.values())

    def test_matches_dense_oracle_on_connected_graphs(self):
        rng = random.Random(7)
        found = 0
        seed = 0
        while found < 25:
            seed += 1
            n = rng.randrange(3, 11)
            adj = random_graph(n, 0.5, seed=seed)
            if not is_connected(adj):
                continue
            found += 1
            ours = eigenvector_centrality(adj, max_iters=20000).values
            oracle = dense_dominant_eigenvector(adj)
            for node in adj:
                assert ours[node] == pytest.approx(oracle[node], abs=1e-6)

    def test_bipartite_oscillation_handled(self):
        # K_{2,3}: bipartite and not regular, so the uniform start has a
        # component on the -lambda eigenvector and plain power iteration
        # oscillates until the damped fallback takes over
        k23 = {
            "a": ["x", "y", "z"], "b": ["x", "y", "z"],
            "x": ["a", "b"], "y": ["a", "b"], "z": ["a", "b"],
        }
        scores = eigenvector_centrality(k23)
        assert scores.diagnostics["damped"] is True
        for node in "ab":
            assert scores.values[node] == pytest.approx(0.5, rel=0, abs=1e-9)
        for node in "xyz":
            assert scores.values[node] == pytest.approx(1 / math.sqrt(6), rel=0, abs=1e-9)
        nx = pytest.importorskip("networkx")
        expected = nx.eigenvector_centrality(nx.Graph(k23), max_iter=1000, tol=1e-12)
        for node in k23:
            assert scores.values[node] == pytest.approx(expected[node], rel=0, abs=1e-9)

    def test_regular_bipartite_converges_undamped(self):
        # the 4-cycle is bipartite but regular: the uniform start is already
        # its eigenvector, so the undamped iteration converges at once
        cycle = {
            "a": ["b", "d"], "b": ["a", "c"], "c": ["b", "d"], "d": ["c", "a"],
        }
        scores = eigenvector_centrality(cycle)
        assert scores.diagnostics["damped"] is False
        assert all(v == pytest.approx(0.5, abs=1e-6) for v in scores.values.values())

    def test_diagnostics(self, k4, star4):
        scores = eigenvector_centrality(k4)
        # the uniform start is already K4's eigenvector
        assert scores.diagnostics == {"iterations": 1, "damped": False}
        assert scores == eigenvector_centrality(k4, max_iters=5)
        # a star is bipartite and not regular: undamped iteration oscillates
        star = eigenvector_centrality(star4).diagnostics
        assert star["damped"] is True and 1 < star["iterations"] <= 1000

    def test_edgeless_rejected(self):
        with pytest.raises(DataError):
            eigenvector_centrality({"a": [], "b": []})


class TestRelabelingInvariance:
    def test_all_measures_invariant_under_relabeling(self):
        rng = random.Random(5)
        for trial in range(10):
            n = rng.randrange(3, 9)
            adj = random_graph(n, 0.5, seed=trial + 50)
            nodes = sorted(adj)
            permuted = nodes[:]
            rng.shuffle(permuted)
            mapping = dict(zip(nodes, permuted))
            relabeled = {
                mapping[v]: sorted(mapping[w] for w in neigh)
                for v, neigh in adj.items()
            }
            for measure in (degree_centrality, closeness_centrality, betweenness_centrality):
                original = measure(adj).values
                shuffled = measure(relabeled).values
                for node in nodes:
                    assert original[node] == pytest.approx(shuffled[mapping[node]], abs=1e-9)
            if any(adj.values()):
                original = eigenvector_centrality(adj, max_iters=20000).values
                shuffled = eigenvector_centrality(relabeled, max_iters=20000).values
                for node in nodes:
                    assert original[node] == pytest.approx(shuffled[mapping[node]], abs=1e-6)

    def test_cycle_constant_on_all_measures(self):
        cycle5 = {
            f"n{i}": [f"n{(i - 1) % 5}", f"n{(i + 1) % 5}"] for i in range(5)
        }
        for measure in (
            degree_centrality,
            closeness_centrality,
            betweenness_centrality,
            eigenvector_centrality,
        ):
            values = measure(cycle5).values
            assert max(values.values()) - min(values.values()) < 1e-6


class TestTopK:
    def test_descending_with_lexicographic_ties(self):
        scores = degree_centrality(
            {"b": ["c"], "a": ["c"], "c": ["a", "b"]}
        )
        ranked = top_k(scores, 3)
        assert [node for node, _ in ranked] == ["c", "a", "b"]

    def test_k_larger_than_n(self, path3):
        ranked = top_k(degree_centrality(path3), 10)
        assert len(ranked) == 3

    def test_matches_oracle_sort(self):
        adj = random_graph(9, 0.4, seed=11)
        scores = betweenness_centrality(adj)
        ranked = top_k(scores, 5)
        expected = sorted(scores.values.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert ranked == expected


class TestNonConvergence:
    def test_exhausted_budget_raises(self, star4):
        from tweetflow.netmetrics import NonConvergenceError

        with pytest.raises(NonConvergenceError):
            eigenvector_centrality(star4, max_iters=0)


class TestOracleEquivalence:
    """The integer-indexed kernels against the per-node dict loops in
    tests/oracles.py: same keys in the same order, same float bits."""

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_betweenness_identical(self, graph):
        for normalized in (False, True):
            expected = oracles.betweenness_centrality(graph, normalized)
            got = betweenness_centrality(graph, normalized)
            assert got == expected
            assert repr(got.values) == repr(expected.values)

    @pytest.mark.parametrize("entries", [1, 1 << 40], ids=["one-source", "all-sources"])
    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_betweenness_identical_at_any_batch_size(self, graph, entries, monkeypatch):
        # one source per batch, and every source in one batch
        monkeypatch.setattr(netmetrics, "_BATCH_ENTRIES", entries)
        expected = oracles.betweenness_centrality(graph)
        assert repr(betweenness_centrality(graph).values) == repr(expected.values)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.floats(0.02, 0.7),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_betweenness_identical_on_random_graphs(self, n, p, shuffled, seed):
        # sparse graphs expand every level top-down, dense ones switch to
        # bottom-up; a shuffled node order gives neighbour lists in any order
        adj = random_graph(n, p, seed)
        graph = adj
        if shuffled:
            order = list(adj)
            random.Random(seed).shuffle(order)
            graph = oracles.AdjacencyView({v: adj[v] for v in order})
        assert repr(betweenness_centrality(graph).values) == repr(
            oracles.betweenness_centrality(graph).values
        )

    @pytest.mark.parametrize("adj", [
        {"a": ["b"], "b": ["a"]},
        {"a": [], "b": [], "c": []},
        {"a": ["b"], "b": ["a", "c"], "c": ["b"], "y": [], "z": []},
        {"a": []},
        {},
    ], ids=["single-edge", "no-edges", "isolated-sources", "single-node", "empty"])
    def test_betweenness_edge_cases(self, adj):
        for normalized in (False, True):
            expected = oracles.betweenness_centrality(adj, normalized)
            got = betweenness_centrality(adj, normalized)
            assert repr(got.values) == repr(expected.values)
            assert all(value == 0.0 for node, value in got.values.items() if node != "b")

    def test_betweenness_of_arcs_without_twins(self):
        # a mapping that is not symmetric is searched top-down only, along its arcs
        adj = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["e"], "e": []}
        expected = oracles.betweenness_centrality(adj)
        assert repr(betweenness_centrality(adj).values) == repr(expected.values)
        assert expected.values["d"] == 1.5

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_closeness_identical(self, graph):
        expected = oracles.closeness_centrality(graph)
        got = closeness_centrality(graph)
        assert got == expected
        assert repr(got.values) == repr(expected.values)

    def test_closeness_isolated_nodes_of_a_real_size_graph_score_zero(self):
        values = closeness_centrality(DISCONNECTED).values
        isolated = [v for v, neigh in DISCONNECTED.items() if not neigh]
        assert isolated == [f"z{i}" for i in range(5)]
        assert [values[v] for v in isolated] == [0.0] * 5
        assert all(values[v] > 0.0 for v, neigh in DISCONNECTED.items() if neigh)

    @settings(max_examples=60, deadline=None)
    @given(
        n=st.integers(2, 60),
        p=st.sampled_from([0.01, 0.02, 0.04, 0.08]),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_closeness_identical_on_sparse_random_graphs(self, n, p, seed):
        # sparse G(n, p): many components, paths and isolated nodes
        adj = random_graph(n, p, seed)
        assert repr(closeness_centrality(adj).values) == repr(
            oracles.closeness_centrality(adj).values
        )

    def test_diamond_chain_path_counts_pass_2_53(self):
        # sigma passes 2**53 and rounds: the case where the order of its float sums matters
        adj = dict(REAL_SIZE_GRAPHS)["diamond-chain"]
        assert path_counts(adj, "c00")["t"] == 2**53 + 2


class TestNetworkxCrossCheck:
    """Independent reference values from networkx (a test-only dependency)."""

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS[:1])
    def test_betweenness_and_closeness(self, graph):
        nx = pytest.importorskip("networkx")
        adj = _adjacency(graph)
        g = nx.Graph(adj)
        expected = nx.betweenness_centrality(g, normalized=True)
        got = betweenness_centrality(graph, normalized=True).values
        for node in adj:
            assert got[node] == pytest.approx(expected[node], rel=0, abs=1e-12)
        expected = nx.closeness_centrality(g, wf_improved=True)
        got = closeness_centrality(graph).values
        for node in adj:
            assert got[node] == pytest.approx(expected[node], rel=0, abs=1e-12)
