"""Serializers for graphs and geodata: GraphML, JSON adjacency, GeoJSON,
and the readers of the JSON adjacency files.

All output is deterministic: nodes and edges are emitted in lexicographic
order and JSON keys are sorted.
"""

from __future__ import annotations

import json
import logging

from .categorize import Place
from .storage import _json_text
from .wordgraph import PlaceGraph, PlaceNode, WordGraph

log = logging.getLogger(__name__)

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"

# GraphML is written as strings, byte for byte what xml.etree.ElementTree
# wrote for the same tree after ET.indent (tests/oracles.py keeps that
# writer): two spaces per level, a childless element closed as " />", the
# escapes below and nothing else escaped.


def _escape_text(text: str) -> str:
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _escape_attr(text: str) -> str:
    return (
        _escape_text(text)
        .replace('"', "&quot;")
        .replace("\r", "&#13;")
        .replace("\n", "&#10;")
        .replace("\t", "&#09;")
    )


def _data(key: str, value) -> str:
    text = repr(value) if isinstance(value, float) else str(value)
    if not text:
        return f'      <data key="{key}" />\n'
    return f'      <data key="{key}">{_escape_text(text)}</data>\n'


def _graphml(keys: list[tuple[str, str, str, str]], graph, node_data) -> str:
    """The document for `graph`: its keys, then each node (sorted, with the
    data lines `node_data(name)` gives) and each edge (sorted, numbered)."""
    ids = {name: _escape_attr(name) for name in graph.nodes}
    parts = ["<?xml version='1.0' encoding='utf-8'?>\n", f'<graphml xmlns="{GRAPHML_NS}">\n']
    parts += [
        f'  <key id="{key_id}" for="{domain}" attr.name="{name}" attr.type="{attr_type}" />\n'
        for key_id, domain, name, attr_type in keys
    ]
    if not graph.nodes and not graph.edges:
        parts.append('  <graph id="G" edgedefault="undirected" />\n</graphml>\n')
        return "".join(parts)
    parts.append('  <graph id="G" edgedefault="undirected">\n')
    parts += [
        f'    <node id="{ids[name]}">\n{node_data(name)}    </node>\n'
        for name in sorted(graph.nodes)
    ]
    parts += [
        f'    <edge id="e{i}" source="{ids[u]}" target="{ids[v]}">\n'
        f'{_data("d_w", w)}    </edge>\n'
        for i, ((u, v), w) in enumerate(sorted(graph.edges.items()))
    ]
    parts.append("  </graph>\n</graphml>\n")
    return "".join(parts)


def word_graph_to_graphml(graph: WordGraph) -> str:
    return _graphml(
        [("d_freq", "node", "frequency", "int"), ("d_w", "edge", "weight", "int")],
        graph,
        lambda name: _data("d_freq", graph.nodes[name]),
    )


def place_graph_to_graphml(graph: PlaceGraph) -> str:
    def node_data(name: str) -> str:
        node = graph.nodes[name]
        return (
            _data("d_kind", node.kind)
            + _data("d_mentions", node.mentions)
            + _data("d_degree", node.degree)
            + _data("d_dc", round(node.degree_centrality, 6))
            + _data("d_cc", round(node.closeness, 6))
        )

    return _graphml(
        [
            ("d_kind", "node", "kind", "string"),
            ("d_mentions", "node", "mentions", "int"),
            ("d_degree", "node", "degree", "int"),
            ("d_dc", "node", "degree_centrality", "double"),
            ("d_cc", "node", "closeness", "double"),
            ("d_w", "edge", "weight", "int"),
        ],
        graph,
        node_data,
    )


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


def _place_fields(node: PlaceNode) -> dict:
    """The place-node fields that the JSON and GeoJSON exports share."""
    return {
        "kind": node.kind,
        "mentions": node.mentions,
        "degree": node.degree,
        "closeness": round(node.closeness, 6),
        "mean_sentiment": (
            round(node.mean_sentiment, 4) if node.mean_sentiment is not None else None
        ),
    }


def place_graph_to_json(graph: PlaceGraph) -> str:
    doc = {
        "directed": False,
        "nodes": {
            name: {
                **_place_fields(node),
                "degree_centrality": round(node.degree_centrality, 6),
            }
            for name, node in sorted(graph.nodes.items())
        },
        "edges": [[u, v, w] for (u, v), w in sorted(graph.edges.items())],
    }
    return _json_text(doc)


def word_graph_from_json(text: str) -> WordGraph:
    """Inverse of word_graph_to_json; capped_tweets is not stored and reads 0."""
    doc = json.loads(text)
    lang, polarity = doc["split"]["language"], doc["split"]["polarity"]
    return WordGraph(
        nodes={str(k): int(v) for k, v in doc["nodes"].items()},
        edges={(u, v): int(w) for u, v, w in doc["edges"]},
        split=None if lang is None and polarity is None else (lang, polarity),
    )


def place_graph_from_json(text: str) -> PlaceGraph:
    """Inverse of place_graph_to_json, up to its rounding of the node metrics."""
    doc = json.loads(text)
    return PlaceGraph(
        nodes={name: PlaceNode(name=name, **attrs) for name, attrs in doc["nodes"].items()},
        edges={(u, v): int(w) for u, v, w in doc["edges"]},
    )


def export_geojson(place_graph: PlaceGraph, gazetteer: tuple[Place, ...]) -> dict:
    """Build a FeatureCollection of place Points and co-mention LineStrings.

    Places missing coordinates in the gazetteer are skipped with a
    warning, as are edges touching them.
    """
    coords = {p.name: (p.lon, p.lat) for p in gazetteer}
    features = []
    for name in sorted(place_graph.nodes):
        node = place_graph.nodes[name]
        if name not in coords:
            log.warning("geojson: no coordinates for %s, skipping", name)
            continue
        features.append(
            {
                "type": "Feature",
                "geometry": {"type": "Point", "coordinates": list(coords[name])},
                "properties": {"name": name, **_place_fields(node)},
            }
        )
    for (u, v), w in sorted(place_graph.edges.items()):
        if u not in coords or v not in coords:
            log.warning("geojson: edge (%s, %s) missing coordinates, skipping", u, v)
            continue
        features.append(
            {
                "type": "Feature",
                "geometry": {
                    "type": "LineString",
                    "coordinates": [list(coords[u]), list(coords[v])],
                },
                "properties": {"source": u, "target": v, "weight": w},
            }
        )
    return {"type": "FeatureCollection", "features": features}
