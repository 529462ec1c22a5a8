from __future__ import annotations

import logging
import random

import pytest

from tweetflow.categorize import EntityMentions
from tweetflow.preprocess import TokenizedDoc
from tweetflow.wordgraph import (
    GraphStats,
    WordGraph,
    build_place_graph,
    build_word_graph,
    graph_stats,
)


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


class TestBuildWordGraph:
    def test_single_tweet_triangle(self):
        graph = build_word_graph([doc("1", ["a", "b", "c"])])
        assert graph.nodes == {"a": 1, "b": 1, "c": 1}
        assert graph.edges == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}

    def test_repeated_pair_weight_two(self):
        graph = build_word_graph([doc("1", ["a", "b"]), doc("2", ["a", "b"])])
        assert graph.edges == {("a", "b"): 2}
        assert graph.nodes == {"a": 2, "b": 2}

    def test_repeated_lemma_no_self_loop(self):
        graph = build_word_graph([doc("1", ["a", "a", "b"])])
        assert graph.edges == {("a", "b"): 1}
        assert all(u != v for u, v in graph.edges)

    def test_empty_split_warns_and_returns_empty(self, caplog):
        graph = build_word_graph([], split=("en", "negative"))
        assert graph.nodes == {} and graph.edges == {}

    def test_edge_weight_bounded_by_node_freq(self):
        rng = random.Random(0)
        docs = [
            doc(str(i), [rng.choice("abcdef") for _ in range(5)]) for i in range(40)
        ]
        graph = build_word_graph(docs)
        for (u, v), weight in graph.edges.items():
            assert weight <= min(graph.nodes[u], graph.nodes[v])

    def test_disjoint_corpus_additivity(self):
        rng = random.Random(1)
        for trial in range(50):
            docs = [
                doc(f"{trial}-{i}", [rng.choice("abcdefgh") for _ in range(rng.randrange(1, 6))])
                for i in range(20)
            ]
            cut = rng.randrange(21)
            whole = build_word_graph(docs)
            left = build_word_graph(docs[:cut])
            right = build_word_graph(docs[cut:])
            merged_nodes = dict(left.nodes)
            for node, freq in right.nodes.items():
                merged_nodes[node] = merged_nodes.get(node, 0) + freq
            merged_edges = dict(left.edges)
            for edge, weight in right.edges.items():
                merged_edges[edge] = merged_edges.get(edge, 0) + weight
            assert whole.nodes == merged_nodes
            assert whole.edges == merged_edges

    def test_clique_cap_truncates(self, caplog):
        lemmas = [f"w{i:02d}" for i in range(10)] + ["w00", "w01"]  # w00, w01 repeated
        graph = build_word_graph([doc("1", lemmas)], clique_cap=4)
        assert len(graph.nodes) == 4
        # the repeated lemmas outrank the others
        assert "w00" in graph.nodes and "w01" in graph.nodes

    def test_capped_tweets_counted_with_one_warning(self, caplog):
        wide = [f"w{i:02d}" for i in range(10)]
        docs = [doc("1", wide), doc("2", ["a", "b"]), doc("3", wide[::-1])]
        with caplog.at_level(logging.WARNING, logger="tweetflow.wordgraph"):
            graph = build_word_graph(docs, clique_cap=4)
        assert graph.capped_tweets == 2
        warnings = [r for r in caplog.records if r.levelno == logging.WARNING]
        assert len(warnings) == 1 and "2 of 3 tweets" in warnings[0].getMessage()
        assert build_word_graph(docs, clique_cap=10).capped_tweets == 0

    def test_split_recorded(self):
        graph = build_word_graph([doc("1", ["a", "b"])], split=("it", "positive"))
        assert graph.split == ("it", "positive")

    def test_canonical_edge_order(self):
        graph = build_word_graph([doc("1", ["zeta", "alpha", "mid"])])
        assert list(graph.edges) == sorted(graph.edges)
        assert all(u < v for u, v in graph.edges)


def mention(tweet_id, cities=(), attractions=()):
    return EntityMentions(
        tweet_id=tweet_id,
        cities=tuple(cities),
        attractions=tuple(attractions),
        hashtags=(),
        adjectives=(),
    )


KINDS = {
    "bari": "city",
    "gallipoli": "city",
    "castello_svevo": "attraction",
    "torre_dell_orso": "attraction",
}


class TestBuildPlaceGraph:
    def test_co_mention_edge(self):
        graph = build_place_graph([mention("1", ["bari"], ["castello_svevo"])], KINDS)
        assert graph.edges == {("bari", "castello_svevo"): 1}
        assert graph.nodes["bari"].mentions == 1

    def test_no_co_mention_no_edge(self):
        graph = build_place_graph(
            [mention("1", ["bari"]), mention("2", [], ["castello_svevo"])], KINDS
        )
        assert graph.edges == {}
        assert len(graph.nodes) == 2

    def test_metrics_attached(self):
        mentions = [
            mention("1", ["bari"], ["castello_svevo"]),
            mention("2", ["bari"], ["torre_dell_orso"]),
            mention("3", ["gallipoli"], ["torre_dell_orso"]),
        ]
        graph = build_place_graph(mentions, KINDS)
        assert graph.nodes["bari"].degree == 2
        assert graph.nodes["bari"].degree_centrality == pytest.approx(2 / 3)
        assert graph.nodes["gallipoli"].degree == 1

    def test_mean_sentiment(self):
        mentions = [mention("1", ["bari"]), mention("2", ["bari"])]
        graph = build_place_graph(mentions, KINDS, sentiments={"1": 0.5, "2": -0.1})
        assert graph.nodes["bari"].mean_sentiment == pytest.approx(0.2)

    def test_duplicate_mentions_in_one_tweet_count_once(self):
        graph = build_place_graph(
            [mention("1", ["bari", "bari"], ["castello_svevo"])], KINDS
        )
        assert graph.nodes["bari"].mentions == 1
        assert graph.edges[("bari", "castello_svevo")] == 1


class TestGraphStats:
    def test_complete_k4(self):
        graph = build_word_graph([doc("1", ["a", "b", "c", "d"])])
        stats = graph_stats(graph)
        assert stats == GraphStats(nodes=4, edges=6, density=1.0, max_degree=3, avg_degree=3.0)

    def test_edgeless(self):
        graph = WordGraph({"a": 1, "b": 1}, {})
        stats = graph_stats(graph)
        assert stats.density == 0.0 and stats.edges == 0

    def test_path_of_three(self):
        graph = WordGraph({"a": 1, "b": 1, "c": 1}, {("a", "b"): 1, ("b", "c"): 1})
        stats = graph_stats(graph)
        assert stats.density == pytest.approx(2 / 3)
        assert stats.max_degree == 2
        assert stats.avg_degree == pytest.approx(4 / 3)

    def test_empty_graph(self):
        stats = graph_stats(WordGraph({}, {}))
        assert stats.nodes == 0 and stats.density == 0.0 and stats.avg_degree == 0.0

    def test_density_formula_on_random_graphs(self):
        rng = random.Random(2)
        for _ in range(20):
            docs = [
                doc(str(i), [rng.choice("abcdefg") for _ in range(rng.randrange(1, 5))])
                for i in range(15)
            ]
            graph = build_word_graph(docs)
            stats = graph_stats(graph)
            n, e = stats.nodes, stats.edges
            if n >= 2:
                assert stats.density == pytest.approx(2 * e / (n * (n - 1)))
            assert stats.avg_degree == pytest.approx(2 * e / n if n else 0.0)
