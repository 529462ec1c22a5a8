from __future__ import annotations

import json
from xml.etree import ElementTree as ET

import pytest

from tweetflow.categorize import EntityMentions, Place
from tweetflow.exports import (
    export_geojson,
    place_graph_from_json,
    place_graph_to_graphml,
    place_graph_to_json,
    word_graph_from_json,
    word_graph_to_graphml,
    word_graph_to_json,
)
from tweetflow.netmetrics import _adjacency
from tweetflow.preprocess import TokenizedDoc
from tweetflow.wordgraph import (
    PlaceGraph,
    PlaceNode,
    WordGraph,
    build_place_graph,
    build_word_graph,
)

import oracles

# every character ElementTree escapes in attributes or text, and some it leaves alone
AWKWARD_NAMES = [
    "a&b", "<tag>", 'say "hi"', "it's", "tab\there", "line\nbreak", "cr\rreturn",
    "città", "東京", "plain", "&amp;",
]


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


def mention(tweet_id, cities=(), attractions=()):
    return EntityMentions(tweet_id, tuple(cities), tuple(attractions), (), ())


GAZ = (
    Place("bari", "city", (), 41.1171, 16.8719),
    Place("castello_svevo", "attraction", (), 41.1292, 16.8675),
    Place("nowhere", "city", (), 40.0, 17.0),
)
KINDS = {p.name: p.kind for p in GAZ} | {"ghost_town": "city"}


class TestWordGraphExports:
    def test_graphml_parses_and_counts(self):
        graph = build_word_graph([doc("1", ["a", "b", "c"])], split=("en", "positive"))
        xml = word_graph_to_graphml(graph)
        root = ET.fromstring(xml)
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        nodes = root.findall(f"{ns}graph/{ns}node")
        edges = root.findall(f"{ns}graph/{ns}edge")
        assert len(nodes) == 3 and len(edges) == 3

    def test_json_roundtrip_fields(self):
        graph = build_word_graph([doc("1", ["a", "b"])], split=("it", "negative"))
        payload = json.loads(word_graph_to_json(graph))
        assert payload["directed"] is False
        assert payload["split"] == {"language": "it", "polarity": "negative"}
        assert payload["nodes"] == {"a": 1, "b": 1}
        assert payload["edges"] == [["a", "b", 1]]

    @pytest.mark.parametrize("split", [("en", "positive"), None])
    def test_json_reads_back_equal(self, split):
        graph = build_word_graph(
            [doc("1", ["a", "b", "c"]), doc("2", ["c", "d"]), doc("3", ["e"])], split=split
        )
        assert word_graph_from_json(word_graph_to_json(graph)) == graph

    def test_deterministic_bytes(self):
        docs = [doc("1", ["b", "a"]), doc("2", ["c", "a"])]
        assert word_graph_to_json(build_word_graph(docs)) == word_graph_to_json(
            build_word_graph(docs)
        )
        assert word_graph_to_graphml(build_word_graph(docs)) == word_graph_to_graphml(
            build_word_graph(docs)
        )


class TestPlaceGraphExports:
    def _graph(self):
        return build_place_graph(
            [mention("1", ["bari"], ["castello_svevo"])], KINDS, {"1": 0.4588}
        )

    def test_graphml_has_metric_attrs(self):
        xml = place_graph_to_graphml(self._graph())
        assert "degree_centrality" in xml and "closeness" in xml

    def test_json_reads_back_equal(self):
        graph = self._graph()
        assert place_graph_from_json(place_graph_to_json(graph)) == graph

    def test_json_reads_back_to_the_same_bytes(self):
        # a path of three places: closeness 2/3 is stored rounded, so only the
        # bytes (not the floats) survive a round trip; "nowhere" has no sentiment
        graph = build_place_graph(
            [
                mention("1", ["bari"], ["castello_svevo"]),
                mention("2", ["nowhere"], ["castello_svevo"]),
            ],
            KINDS,
            {"1": 0.25},
        )
        text = place_graph_to_json(graph)
        assert place_graph_to_json(place_graph_from_json(text)) == text

    def test_json_has_sentiment(self):
        payload = json.loads(place_graph_to_json(self._graph()))
        assert payload["nodes"]["bari"]["mean_sentiment"] == pytest.approx(0.4588)


class TestGeoJson:
    def test_empty_graph(self):
        graph = build_place_graph([], KINDS)
        geo = export_geojson(graph, GAZ)
        assert geo == {"type": "FeatureCollection", "features": []}

    def test_one_city_one_attraction_one_edge(self):
        geo = export_geojson(self._simple_graph(), GAZ)
        kinds = [f["geometry"]["type"] for f in geo["features"]]
        assert kinds.count("Point") == 2
        assert kinds.count("LineString") == 1

    def test_point_coordinates_lon_lat(self):
        geo = export_geojson(self._simple_graph(), GAZ)
        bari = next(f for f in geo["features"] if f["properties"].get("name") == "bari")
        assert bari["geometry"]["coordinates"] == [16.8719, 41.1171]

    def test_missing_coordinates_skipped(self, caplog):
        graph = build_place_graph(
            [mention("1", ["ghost_town"], ["castello_svevo"])], KINDS
        )
        geo = export_geojson(graph, GAZ)
        names = [f["properties"].get("name") for f in geo["features"]]
        assert "ghost_town" not in names
        # the edge touching the skipped place is skipped too
        assert all(f["geometry"]["type"] == "Point" for f in geo["features"])

    def test_feature_count_matches_recount(self):
        mentions = [
            mention("1", ["bari"], ["castello_svevo"]),
            mention("2", ["bari"]),
            mention("3", ["ghost_town"]),
        ]
        graph = build_place_graph(mentions, KINDS)
        geo = export_geojson(graph, GAZ)
        with_coords = {p.name for p in GAZ}
        expected_points = sum(1 for n in graph.nodes if n in with_coords)
        expected_lines = sum(
            1 for u, v in graph.edges if u in with_coords and v in with_coords
        )
        assert len(geo["features"]) == expected_points + expected_lines

    def _simple_graph(self):
        return build_place_graph(
            [mention("1", ["bari"], ["castello_svevo"])], KINDS, {"1": 0.2}
        )


def _word_graph(adj) -> WordGraph:
    return WordGraph(
        nodes={v: 1 + len(neigh) for v, neigh in adj.items()},
        edges={(u, v): 1 + len(u + v) % 3 for u in adj for v in adj[u] if u < v},
    )


def _place_graph(adj, kinds=("city", "attraction")) -> PlaceGraph:
    n = max(len(adj) - 1, 1)
    return PlaceGraph(
        nodes={
            v: PlaceNode(
                name=v,
                kind=kinds[i % len(kinds)],
                mentions=3 * i,
                degree=len(neigh),
                degree_centrality=len(neigh) / n,
                closeness=1.0 / (i + 3) if i % 4 else 1e-7 * i,
            )
            for i, (v, neigh) in enumerate(adj.items())
        },
        edges={(u, v): 1 + len(u + v) % 3 for u in adj for v in adj[u] if u < v},
    )


def _path(names) -> dict[str, list[str]]:
    names = sorted(names)
    adj = {v: [] for v in names}
    for u, v in zip(names, names[1:]):
        adj[u].append(v)
        adj[v].append(u)
    return adj


class TestGraphmlByteOracle:
    """The string writers against the ElementTree writers in tests/oracles.py."""

    def _assert_same_bytes(self, word: WordGraph, place: PlaceGraph) -> None:
        assert word_graph_to_graphml(word) == oracles.word_graph_to_graphml(word)
        assert place_graph_to_graphml(place) == oracles.place_graph_to_graphml(place)

    @pytest.mark.parametrize(
        "graph",
        [g for _, g in oracles.kernel_graphs()],
        ids=[label for label, _ in oracles.kernel_graphs()],
    )
    def test_kernel_graphs(self, graph):
        adj = _adjacency(graph)
        self._assert_same_bytes(_word_graph(adj), _place_graph(adj))

    def test_awkward_names_and_kinds(self):
        adj = _path(AWKWARD_NAMES)
        self._assert_same_bytes(_word_graph(adj), _place_graph(adj, kinds=AWKWARD_NAMES))

    def test_awkward_names_read_back(self):
        root = ET.fromstring(word_graph_to_graphml(_word_graph(_path(AWKWARD_NAMES))))
        ns = "{http://graphml.graphdrawing.org/xmlns}"
        assert [n.get("id") for n in root.iter(f"{ns}node")] == sorted(AWKWARD_NAMES)

    def test_empty_graph(self):
        self._assert_same_bytes(WordGraph({}, {}), PlaceGraph({}, {}))

    def test_isolated_nodes(self):
        adj = {"a": [], "b": ["c"], "c": ["b"], "z": []}
        self._assert_same_bytes(_word_graph(adj), _place_graph(adj))
        only_isolated = {"x": [], "y": []}
        self._assert_same_bytes(_word_graph(only_isolated), _place_graph(only_isolated))

    def test_empty_kind(self):
        # an element with empty text is closed as " />", like a childless one
        adj = _path(["a", "b"])
        self._assert_same_bytes(_word_graph(adj), _place_graph(adj, kinds=("",)))
