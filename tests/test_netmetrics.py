from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, settings, strategies as st

from tweetflow import community
from tweetflow.errors import DataError
from tweetflow.netmetrics import (
    NonConvergenceError,
    _adjacency,
    _prepared,
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from tweetflow.preprocess import ranked
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


# 'b' is a neighbour of 'a' but not a node
OPEN_MAPPING = {"a": ["b"], "c": ["a"]}


@pytest.mark.parametrize("kernel", [
    degree_centrality, closeness_centrality, betweenness_centrality, eigenvector_centrality,
])
def test_neighbour_that_is_not_a_node_rejected(kernel):
    with pytest.raises(DataError, match="node 'a' lists neighbour 'b', which is not a node"):
        kernel(OPEN_MAPPING)


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


class TestRankedScores:
    """Centrality rankings go through preprocess.ranked over float scores."""

    def test_descending_with_lexicographic_ties(self):
        scores = degree_centrality(
            {"b": ["c"], "a": ["c"], "c": ["a", "b"]}
        )
        top = ranked(scores.values, 3)
        assert [node for node, _ in top] == ["c", "a", "b"]
        assert top[1][1] == top[2][1] == 0.5

    def test_n_larger_than_item_count(self, path3):
        top = ranked(degree_centrality(path3).values, 10)
        assert len(top) == 3

    def test_matches_reference_sort(self):
        adj = random_graph(9, 0.4, seed=11)
        scores = betweenness_centrality(adj)
        top = ranked(scores.values, 5)
        expected = sorted(scores.values.items(), key=lambda kv: (-kv[1], kv[0]))[:5]
        assert top == tuple(expected)


class TestNonConvergence:
    def test_exhausted_budget_raises(self, star4):
        with pytest.raises(NonConvergenceError):
            eigenvector_centrality(star4, max_iters=0)

    def test_exhausted_budget_raises_like_the_oracle(self):
        # neither run of the bipartite path converges in 3 iterations
        path = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        for eigenvector in (eigenvector_centrality, oracles.eigenvector_centrality):
            with pytest.raises(NonConvergenceError, match="did not converge in 3 iterations"):
                eigenvector(path, max_iters=3)


def assert_same_eigenvector(graph, **budget):
    """eigenvector_centrality and its oracle give repr-equal values and
    diagnostics, or both raise the same error; the package's result, if any."""
    outcomes = []
    for eigenvector in (eigenvector_centrality, oracles.eigenvector_centrality):
        try:
            scores = eigenvector(graph, **budget)
        except DataError as exc:
            outcomes.append((type(exc), str(exc)))
        else:
            outcomes.append(scores)
    got, expected = outcomes
    if isinstance(expected, tuple):
        assert got == expected
        return None
    assert list(got.values) == list(expected.values)
    assert repr(got.values) == repr(expected.values)
    assert repr(got.diagnostics) == repr(expected.diagnostics)
    return got


class TestOracleEquivalence:
    """The integer-indexed kernels against the per-node dict loops and the
    neighbour-list power iteration in tests/oracles.py: same keys in the
    same order, same float bits."""

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_betweenness_identical(self, graph):
        for normalized in (False, True):
            expected = oracles.betweenness_centrality(graph, normalized)
            got = betweenness_centrality(graph, normalized)
            assert got == expected
            assert repr(got.values) == repr(expected.values)

    @pytest.mark.parametrize("order", ["reversed", "shuffled"])
    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_betweenness_identical_in_any_node_order(self, graph, order):
        # a new node order renumbers the sources and a new neighbour order
        # changes the queue order, so sigma sums and predecessor slots run in
        # another order; the kernel must still add what the oracle adds
        adj = _adjacency(graph)
        nodes = list(adj)
        if order == "reversed":
            permuted = {v: adj[v][::-1] for v in reversed(nodes)}
        else:
            rng = random.Random(len(nodes))
            rng.shuffle(nodes)
            permuted = {v: rng.sample(adj[v], len(adj[v])) for v in nodes}
        graph = oracles.AdjacencyView(permuted)
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
        # a shuffled node order gives neighbour lists in any order
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
        # a mapping that is not symmetric: d has two predecessors but one
        # successor, so its slots must follow its in-degree
        adj = {"a": ["b", "c"], "b": ["d"], "c": ["d"], "d": ["e"], "e": []}
        expected = oracles.betweenness_centrality(adj)
        assert repr(betweenness_centrality(adj).values) == repr(expected.values)
        assert expected.values["d"] == 1.5

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS + [("clique-union-disconnected", DISCONNECTED)])
    def test_eigenvector_identical(self, graph):
        # the C power iteration against the loop over neighbour lists: the
        # same values, iterations and damping, or the same error
        assert_same_eigenvector(graph)

    @settings(max_examples=80, deadline=None)
    @given(
        n=st.integers(2, 70),
        p=st.floats(0.01, 0.3),
        shuffled=st.booleans(),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_eigenvector_identical_on_random_graphs(self, n, p, shuffled, seed):
        adj = random_graph(n, p, seed)
        graph = adj
        if shuffled:
            order = list(adj)
            random.Random(seed).shuffle(order)
            graph = oracles.AdjacencyView({v: adj[v] for v in order})
        assert_same_eigenvector(graph)

    @pytest.mark.parametrize("adj", [
        {"a": ["a", "b"], "b": ["a", "c"], "c": ["b", "c", "c"]},
        {"a": ["b", "b", "c"], "b": ["a", "a", "c"], "c": ["a", "b"], "d": ["d"]},
        {"a": ["b", "b"], "b": ["a", "a", "b"], "c": ["d"], "d": ["c", "c"]},
    ], ids=["self-loops", "repeated-neighbours", "both-and-one-sided"])
    def test_eigenvector_identical_on_self_loops_and_repeated_neighbours(self, adj):
        assert_same_eigenvector(adj)

    def test_eigenvector_of_a_bipartite_path_converges_damped(self):
        path = {"a": ["b"], "b": ["a", "c"], "c": ["b"]}
        got = assert_same_eigenvector(path)
        assert got.diagnostics == {"iterations": 30, "damped": True}

    @pytest.mark.parametrize("tol, max_iters", [(1e-10, 1), (1e-10, 3), (1e-3, 50), (0.0, 40)])
    def test_eigenvector_identical_under_other_budgets(self, tol, max_iters):
        for _, graph in KERNEL_GRAPHS[::5] + REAL_SIZE_GRAPHS:
            assert_same_eigenvector(graph, tol=tol, max_iters=max_iters)

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


def _word_graph(adj: dict[str, list[str]]) -> WordGraph:
    return WordGraph({v: 1 for v in adj}, {(v, w): 1 for v, neigh in adj.items() for w in neigh
                                          if v < w})


def _graph_functions(adj: dict[str, list[str]]):
    """(name, function of a graph) for every public graph function that the
    word graphs of a run go through."""
    nodes = sorted(adj)
    halves = [nodes[::2], nodes[1::2]]
    return [
        ("degree", degree_centrality),
        ("closeness", closeness_centrality),
        ("betweenness", betweenness_centrality),
        ("betweenness-normalized", lambda graph: betweenness_centrality(graph, normalized=True)),
        ("eigenvector", eigenvector_centrality),
        ("label_propagation", lambda graph: community.label_propagation(graph, 11)),
        ("greedy_modularity", community.greedy_modularity),
        ("modularity", lambda graph: community.modularity(graph, [h for h in halves if h])),
        ("hub_dominant", lambda graph: community.hub_dominant(graph, nodes[::3])),
    ]


def _outcome(function, graph) -> str:
    """repr of the result, diagnostics included, or of the error raised."""
    try:
        result = function(graph)
    except DataError as exc:
        return f"DataError({exc})"
    return repr((result, getattr(result, "diagnostics", None)))


class TestPreparedGraph:
    """A prepared graph gives every public function the result of the graph
    it was prepared from, and passes through `_prepared` as it is."""

    @over(REAL_SIZE_GRAPHS[:1] + [("disconnected", DISCONNECTED)] + KERNEL_GRAPHS[::4])
    def test_each_function_gives_the_result_of_the_unprepared_graph(self, graph):
        adj = _adjacency(graph)
        order = list(adj)
        random.Random(len(order)).shuffle(order)
        forms = {
            "mapping": dict(adj),
            "word-graph": _word_graph(adj),
            "shuffled-view": oracles.AdjacencyView({v: adj[v] for v in order}),
        }
        for name, function in _graph_functions(adj):
            by_form = {}
            for form, unprepared in forms.items():
                expected = _outcome(function, unprepared)
                assert _outcome(function, _prepared(unprepared)) == expected, (name, form)
                by_form[form] = expected
            # a sorted mapping and a WordGraph number the nodes alike
            assert by_form["mapping"] == by_form["word-graph"], name

    def test_a_prepared_graph_passes_through(self):
        prepared = _prepared(dict(REAL_SIZE_GRAPHS)["clique-union"])
        assert _prepared(prepared) is prepared
        # what the perfbench tracer reads from a public call's first argument
        assert _adjacency(prepared) is prepared.adj


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
