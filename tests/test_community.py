from __future__ import annotations

import math
import random

import pytest

from tweetflow import community
from tweetflow.community import (
    Partition,
    choose_communities,
    greedy_modularity,
    hub_dominant,
    label_propagation,
    modularity,
)
from tweetflow.errors import DataError
from tweetflow.netmetrics import _adjacency

import oracles
from oracles import (
    best_partition_exhaustive,
    kernel_graphs,
    pairwise_modularity,
    random_graph,
    real_size_graphs,
)

KERNEL_GRAPHS = kernel_graphs()
REAL_SIZE_GRAPHS = real_size_graphs()


def over(graphs):
    return pytest.mark.parametrize(
        "graph", [g for _, g in graphs], ids=[label for label, _ in graphs]
    )


@pytest.mark.parametrize("kernel", [
    label_propagation, greedy_modularity, lambda graph: modularity(graph, [["a", "c"]]),
], ids=["label_propagation", "greedy_modularity", "modularity"])
def test_neighbour_that_is_not_a_node_rejected(kernel):
    # 'b' is a neighbour of 'a' but not a node
    with pytest.raises(DataError, match="node 'a' lists neighbour 'b', which is not a node"):
        kernel({"a": ["b"], "c": ["a"]})


class TestLabelPropagation:
    def test_single_clique_one_community(self, k4):
        partition = label_propagation(k4, seed=0)
        assert partition.sizes == (4,)

    def test_edgeless_all_singletons(self):
        adj = {"a": [], "b": [], "c": []}
        partition = label_propagation(adj, seed=0)
        assert partition.sizes == (1, 1, 1)
        assert partition.modularity is None

    def test_fixed_seed_reproducible(self, barbell):
        a = label_propagation(barbell, seed=13)
        b = label_propagation(barbell, seed=13)
        assert a.assignment == b.assignment

    def test_every_node_assigned_once(self):
        adj = random_graph(12, 0.3, seed=4)
        partition = label_propagation(adj, seed=1)
        assert set(partition.assignment) == set(adj)
        assert sum(partition.sizes) == len(adj)

    def test_converged_labels_in_neighborhood_majority(self):
        for seed in range(10):
            adj = random_graph(10, 0.4, seed=seed)
            partition = label_propagation(adj, seed=seed)
            for node, neighbors in adj.items():
                if not neighbors:
                    continue
                counts: dict[int, int] = {}
                for w in neighbors:
                    counts[partition.assignment[w]] = counts.get(partition.assignment[w], 0) + 1
                top = max(counts.values())
                majority = {c for c, n in counts.items() if n == top}
                assert partition.assignment[node] in majority

    def test_two_triangles_seed_sweep(self):
        # seed-sweep experiment, frozen: the bridged-triangle pair splits in
        # 93 of seeds 0..99 (the rest collapse into one community); the
        # long-run rate of the asynchronous dynamics is just under 95%
        adj = {
            "a": ["b", "c"], "b": ["a", "c", "x"], "c": ["a", "b"],
            "x": ["b", "y", "z"], "y": ["x", "z"], "z": ["x", "y"],
        }
        split = sum(
            1 for seed in range(100) if len(label_propagation(adj, seed).sizes) == 2
        )
        assert split == 93
        assert split >= 90


class TestDiagnostics:
    def test_greedy_on_barbell(self, barbell):
        partition = greedy_modularity(barbell)
        diagnostics = partition.diagnostics
        # 8 nodes in one component: 7 merges; the peak is the two cliques, 6 in
        assert diagnostics["merges"] == 7
        assert diagnostics["merges_to_peak"] == 6
        assert diagnostics["peak_q"] == partition.modularity == pytest.approx(11 / 26)
        assert diagnostics["heap_pops"] >= diagnostics["merges"]

    def test_lpa_on_barbell(self, barbell):
        partition = label_propagation(barbell, seed=13)
        diagnostics = partition.diagnostics
        assert partition.sizes == (4, 4)
        assert diagnostics["largest_share"] == 0.5
        assert diagnostics["hit_sweep_cap"] is False
        # the first sweep relabels every node, the last one changes nothing
        assert diagnostics["sweeps"] >= 2

    def test_lpa_sweep_cap_reported(self, barbell, monkeypatch):
        monkeypatch.setattr(community, "MAX_LPA_SWEEPS", 1)
        diagnostics = label_propagation(barbell, seed=13).diagnostics
        assert diagnostics["sweeps"] == 1
        assert diagnostics["hit_sweep_cap"] is True

    def test_not_part_of_equality(self, barbell):
        partition = greedy_modularity(barbell)
        assert partition == Partition(partition.assignment, partition.sizes, partition.modularity)


class TestModularity:
    def test_single_community_zero(self, k4):
        assert modularity(k4, [list(k4)]) == pytest.approx(0.0)

    def test_two_cliques_half(self, two_k3):
        q = modularity(two_k3, [["a", "b", "c"], ["x", "y", "z"]])
        assert q == pytest.approx(0.5)

    def test_singletons_negative(self):
        for seed in range(5):
            adj = random_graph(8, 0.5, seed=seed)
            if not any(adj.values()):
                continue
            q = modularity(adj, [[v] for v in adj])
            assert q < 0

    def test_matches_pairwise_oracle(self):
        rng = random.Random(2)
        for trial in range(20):
            adj = random_graph(rng.randrange(3, 9), 0.5, seed=trial + 30)
            if not any(adj.values()):
                continue
            nodes = sorted(adj)
            rng.shuffle(nodes)
            cut = rng.randrange(1, len(nodes))
            groups = [nodes[:cut], nodes[cut:]]
            assert modularity(adj, groups) == pytest.approx(
                pairwise_modularity(adj, groups), abs=1e-12
            )

    def test_edgeless_rejected(self):
        with pytest.raises(DataError):
            modularity({"a": [], "b": []}, [["a"], ["b"]])

    def test_node_in_two_communities_rejected(self, two_k3):
        with pytest.raises(DataError, match=r"two communities: \['c'\]"):
            modularity(two_k3, [["a", "b", "c"], ["c", "x", "y", "z"]])

    def test_missing_node_rejected(self, two_k3):
        with pytest.raises(DataError, match=r"misses nodes \['z'\]"):
            modularity(two_k3, [["a", "b", "c"], ["x", "y"]])

    def test_unknown_node_rejected(self, two_k3):
        with pytest.raises(DataError, match=r"names non-nodes \['q'\]"):
            modularity(two_k3, [["a", "b", "c"], ["x", "y", "z", "q"]])


class TestGreedyModularity:
    def test_two_cliques_found_exactly(self, two_k3):
        partition = greedy_modularity(two_k3)
        assert partition.sizes == (3, 3)
        assert partition.modularity == pytest.approx(0.5)
        assert partition.communities() == [["a", "b", "c"], ["x", "y", "z"]]

    def test_k4_single_community(self, k4):
        partition = greedy_modularity(k4)
        assert partition.sizes == (4,)
        assert partition.modularity == pytest.approx(0.0)

    def test_barbell_splits_at_bridge(self, barbell):
        partition = greedy_modularity(barbell)
        assert partition.communities() == [
            ["a0", "a1", "a2", "a3"],
            ["b0", "b1", "b2", "b3"],
        ]

    @pytest.mark.parametrize("fixture", ["two_k3", "k4", "barbell"])
    def test_matches_exhaustive_optimum(self, fixture, request):
        adj = request.getfixturevalue(fixture)
        partition = greedy_modularity(adj)
        best_q, best_groups = best_partition_exhaustive(adj)
        assert partition.modularity == pytest.approx(best_q, abs=1e-12)
        assert sorted(map(tuple, partition.communities())) == sorted(map(tuple, best_groups))

    def test_q_at_least_trivial_partitions(self):
        for seed in range(8):
            adj = random_graph(9, 0.35, seed=seed + 60)
            if not any(adj.values()):
                continue
            partition = greedy_modularity(adj)
            assert partition.modularity >= -1e-12  # one community scores 0
            singles_q = modularity(adj, [[v] for v in adj])
            assert partition.modularity >= singles_q

    def test_edgeless_rejected(self):
        with pytest.raises(DataError):
            greedy_modularity({"a": [], "b": []})

    def test_q_within_enumerated_range_small_graphs(self):
        rng = random.Random(9)
        for trial in range(5):
            adj = random_graph(rng.randrange(3, 7), 0.6, seed=trial + 90)
            if not any(adj.values()):
                continue
            partition = greedy_modularity(adj)
            best_q, _ = best_partition_exhaustive(adj)
            assert partition.modularity <= best_q + 1e-12


class TestChooseCommunities:
    def _partition(self, sizes):
        assignment = {}
        node = 0
        for cid, size in enumerate(sizes):
            for _ in range(size):
                assignment[f"n{node}"] = cid
                node += 1
        return Partition(assignment, tuple(sizes), None)

    def test_population_sigma_threshold(self):
        threshold, chosen = choose_communities(self._partition([10, 8, 1, 1]))
        assert threshold == pytest.approx(math.sqrt(16.5), abs=1e-9)  # ~4.06
        assert chosen == (0, 1)

    def test_all_equal_sizes_all_chosen(self):
        threshold, chosen = choose_communities(self._partition([4, 4, 4]))
        assert threshold == 0.0
        assert chosen == (0, 1, 2)

    def test_one_dominant_community(self):
        threshold, chosen = choose_communities(self._partition([100, 3, 3, 3]))
        assert threshold == pytest.approx(42.0022, abs=1e-3)
        assert chosen == (0,)

    def test_fallback_single_largest(self):
        # sizes [2, 1]: sigma = 0.5, only the 2 passes; [1]: sigma 0 -> chosen
        threshold, chosen = choose_communities(self._partition([1]))
        assert chosen == (0,)

    def test_none_above_threshold_falls_back(self):
        # a single community of size n: sigma 0 < n, chosen normally;
        # construct a tie where nothing exceeds sigma strictly
        partition = self._partition([5, 5])
        threshold, chosen = choose_communities(partition)
        assert chosen == (0, 1)

    def test_empty_partition_rejected(self):
        with pytest.raises(DataError):
            choose_communities(Partition({}, (), None))

    def test_growing_a_chosen_community_keeps_it_chosen(self):
        # threshold recomputed after the growth; verified on the fixture lists
        for sizes in ([10, 8, 1, 1], [3, 3, 3, 100], [4, 4, 4], [5, 5], [7, 2, 2]):
            _, chosen = choose_communities(self._partition(sizes))
            for cid in chosen:
                grown = list(sizes)
                grown[cid] += 1
                _, chosen_after = choose_communities(self._partition(grown))
                assert cid in chosen_after, (sizes, cid)


class TestHubDominant:
    def test_star_center(self, star4):
        assert hub_dominant(star4, ["hub", "l1", "l2", "l3", "l4"]) == "hub"

    def test_single_node_community(self, star4):
        assert hub_dominant(star4, ["l2"]) == "l2"

    def test_clique_tie_lexicographic(self, k4):
        assert hub_dominant(k4, ["a", "b", "c", "d"]) == "a"

    def test_induced_subgraph_only(self):
        # y has higher global degree, but within {a, b, x} the hub is x
        adj = {
            "a": ["x"], "b": ["x"], "x": ["a", "b", "y"],
            "y": ["x", "p", "q", "r"], "p": ["y"], "q": ["y"], "r": ["y"],
        }
        assert hub_dominant(adj, ["a", "b", "x"]) == "x"
        assert hub_dominant(adj, ["a", "b", "y"]) == "a"  # y isolated inside

    def test_empty_community_rejected(self, k4):
        with pytest.raises(DataError):
            hub_dominant(k4, [])

    def test_graph_object_and_its_mapping_agree(self):
        adj = dict(REAL_SIZE_GRAPHS)["clique-union"]
        graph = oracles.AdjacencyView(adj)
        members = sorted(adj)[::7]
        assert hub_dominant(graph, members) == hub_dominant(adj, members)
        assert hub_dominant(adj, members) == max(
            members, key=lambda v: (sum(w in members for w in adj[v]), -members.index(v))
        )


class TestPartitionCanonicalOrder:
    def test_ids_by_descending_size_then_smallest_member(self):
        adj = {
            "m": ["n"], "n": ["m"],
            "a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"],
            "x": ["y", "z"], "y": ["x", "z"], "z": ["x", "y"],
        }
        partition = greedy_modularity(adj)
        assert partition.sizes == (3, 3, 2)
        groups = partition.communities()
        assert groups[0][0] == "a" and groups[1][0] == "x" and groups[2] == ["m", "n"]


class TestOracleEquivalence:
    """The row-best greedy modularity against the all-pairs rescan, and label
    propagation over node indices against the loop over node names, in
    tests/oracles.py: the same partition, in the same order, with the same Q."""

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS)
    def test_greedy_identical(self, graph):
        if not any(_adjacency(graph).values()):
            for greedy in (oracles.greedy_modularity, greedy_modularity):
                with pytest.raises(DataError):
                    greedy(graph)
            return
        expected = oracles.greedy_modularity(graph)
        got = greedy_modularity(graph)
        assert got == expected
        assert list(got.assignment.items()) == list(expected.assignment.items())
        assert repr(got.modularity) == repr(expected.modularity)

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS)
    def test_label_propagation_identical(self, graph):
        for seed in (0, 7, 12345):
            expected = oracles.label_propagation(graph, seed)
            got = label_propagation(graph, seed)
            assert got == expected
            assert list(got.assignment.items()) == list(expected.assignment.items())
            assert repr(got.modularity) == repr(expected.modularity)
            assert repr(got.diagnostics) == repr(expected.diagnostics)


class TestNetworkxCrossCheck:
    """modularity() against networkx (a test-only dependency)."""

    @over(KERNEL_GRAPHS + REAL_SIZE_GRAPHS[:1])
    def test_modularity(self, graph):
        nx = pytest.importorskip("networkx")
        adj = _adjacency(graph)
        if not any(adj.values()):
            return
        g = nx.Graph(adj)
        rng = random.Random(len(adj))
        nodes = sorted(adj)
        random_groups = [[v for v in nodes if rng.random() < 0.5]]
        random_groups.append([v for v in nodes if v not in random_groups[0]])
        for groups in (
            greedy_modularity(graph).communities(),
            [group for group in random_groups if group],
            [nodes],
        ):
            expected = nx.community.modularity(g, [set(group) for group in groups])
            assert modularity(graph, groups) == pytest.approx(expected, rel=0, abs=1e-12)
