"""Serializers for graphs and geodata: GraphML, JSON adjacency, GeoJSON,
and the readers of the JSON adjacency files.

All output is deterministic: nodes and edges are emitted in lexicographic
order and JSON keys are sorted.
"""

from __future__ import annotations

import json
import logging
from xml.etree import ElementTree as ET

from .categorize import Gazetteer
from .wordgraph import PlaceGraph, PlaceNode, WordGraph

log = logging.getLogger(__name__)

GRAPHML_NS = "http://graphml.graphdrawing.org/xmlns"


def _graphml_skeleton(keys: list[tuple[str, str, str, str]]) -> tuple[ET.Element, ET.Element]:
    root = ET.Element("graphml", xmlns=GRAPHML_NS)
    for key_id, domain, name, attr_type in keys:
        ET.SubElement(
            root,
            "key",
            {"id": key_id, "for": domain, "attr.name": name, "attr.type": attr_type},
        )
    graph = ET.SubElement(root, "graph", {"id": "G", "edgedefault": "undirected"})
    return root, graph


def _data(parent: ET.Element, key: str, value) -> None:
    el = ET.SubElement(parent, "data", {"key": key})
    el.text = repr(value) if isinstance(value, float) else str(value)


def _serialize(root: ET.Element) -> str:
    ET.indent(root)
    return ET.tostring(root, encoding="unicode", xml_declaration=True) + "\n"


def word_graph_to_graphml(graph: WordGraph) -> str:
    root, g = _graphml_skeleton(
        [("d_freq", "node", "frequency", "int"), ("d_w", "edge", "weight", "int")]
    )
    for node in sorted(graph.nodes):
        el = ET.SubElement(g, "node", {"id": node})
        _data(el, "d_freq", graph.nodes[node])
    for i, ((u, v), w) in enumerate(sorted(graph.edges.items())):
        el = ET.SubElement(g, "edge", {"id": f"e{i}", "source": u, "target": v})
        _data(el, "d_w", w)
    return _serialize(root)


def place_graph_to_graphml(graph: PlaceGraph) -> str:
    root, g = _graphml_skeleton(
        [
            ("d_kind", "node", "kind", "string"),
            ("d_mentions", "node", "mentions", "int"),
            ("d_degree", "node", "degree", "int"),
            ("d_dc", "node", "degree_centrality", "double"),
            ("d_cc", "node", "closeness", "double"),
            ("d_w", "edge", "weight", "int"),
        ]
    )
    for name in sorted(graph.nodes):
        node = graph.nodes[name]
        el = ET.SubElement(g, "node", {"id": name})
        _data(el, "d_kind", node.kind)
        _data(el, "d_mentions", node.mentions)
        _data(el, "d_degree", node.degree)
        _data(el, "d_dc", round(node.degree_centrality, 6))
        _data(el, "d_cc", round(node.closeness, 6))
    for i, ((u, v), w) in enumerate(sorted(graph.edges.items())):
        el = ET.SubElement(g, "edge", {"id": f"e{i}", "source": u, "target": v})
        _data(el, "d_w", w)
    return _serialize(root)


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
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def place_graph_to_json(graph: PlaceGraph) -> str:
    doc = {
        "directed": False,
        "nodes": {
            name: {
                "kind": node.kind,
                "mentions": node.mentions,
                "degree": node.degree,
                "degree_centrality": round(node.degree_centrality, 6),
                "closeness": round(node.closeness, 6),
                "mean_sentiment": (
                    round(node.mean_sentiment, 4)
                    if node.mean_sentiment is not None
                    else None
                ),
            }
            for name, node in sorted(graph.nodes.items())
        },
        "edges": [[u, v, w] for (u, v), w in sorted(graph.edges.items())],
    }
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


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


def export_geojson(place_graph: PlaceGraph, gazetteer: Gazetteer) -> dict:
    """Build a FeatureCollection of place Points and co-mention LineStrings.

    Places missing coordinates in the gazetteer are skipped with a
    warning, as are edges touching them.
    """
    coords = {p.name: (p.lon, p.lat) for p in gazetteer.places}
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
                "properties": {
                    "name": name,
                    "kind": node.kind,
                    "mentions": node.mentions,
                    "degree": node.degree,
                    "closeness": round(node.closeness, 6),
                    "mean_sentiment": (
                        round(node.mean_sentiment, 4)
                        if node.mean_sentiment is not None
                        else None
                    ),
                },
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
