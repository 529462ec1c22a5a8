#!/usr/bin/env python3
"""Check that other CPython interpreters compute the numpy-free steps of the pipeline to the same bytes.

Usage: python scripts/check_interpreters.py PYTHON [PYTHON ...]

For each interpreter given, one subprocess runs this script with --digests:
it computes each step on tests/fixtures/corpus200.jsonl with the bundled
resources and prints the sha256 of every step's result as JSON. The script
compares those digests with the running interpreter's, prints one line per
interpreter and exits 1 naming the first step that differs (or the
interpreter that failed to run). The steps are dedup, tokenise, dictionary
filter, fit_lda at k = 3 and 8, the distinct TF-IDF rows, the exact and a
sampled silhouette of the TF-IDF rows under the assignment i % 3,
sentiment, category assignment, entity extraction, the word and place
graphs as GraphML and JSON, GeoJSON, label propagation, greedy modularity,
modularity, closeness, degree and eigenvector centrality, and normalized
betweenness, per language. They import neither numpy nor PyYAML, so the
other interpreters need only the standard library, src/ and, for the C
kernels that fit_lda, silhouette, greedy modularity, eigenvector
centrality and betweenness build and load through ctypes, the C compiler
cc (or the library it built before, in the kernel cache).

Not checked, so unverified on any interpreter but the one that froze the
goldens: k-means, whose centroid norms need numpy, and the end-to-end run.
"""

from __future__ import annotations

import hashlib
import json
import subprocess
import sys
from dataclasses import asdict
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
FIXTURE = REPO / "tests" / "fixtures" / "corpus200.jsonl"
LANGUAGES = ("en", "it")
SEED = 42


def _sha(value) -> str:
    """sha256 of a string, or of the repr of anything else (floats by their
    shortest round-trip text, so a last-bit difference shows)."""
    text = value if isinstance(value, str) else repr(value)
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def step_digests() -> dict[str, str]:
    """sha256 of each numpy-free step's result on the fixture, in step order."""
    sys.path.insert(0, str(REPO / "src"))
    from tweetflow import community, exports, netmetrics
    from tweetflow.categorize import (
        assign_category, extract_entities, gazetteer_index, load_category_rules, load_gazetteer,
    )
    from tweetflow.clustering import distinct_rows, silhouette
    from tweetflow.corpus import dedup, filter_language, in_time_order, load_corpus
    from tweetflow.domainfilter import load_dictionary, match_strings
    from tweetflow.preprocess import build_tfidf, pipeline_doc
    from tweetflow.resources import (
        default_path, load_lemma_table, load_sentiment_lexicon, load_stopwords, load_valences,
    )
    from tweetflow.sentiment import score, scoring_tokens
    from tweetflow.topics import LdaConfig, fit_lda, log_likelihood
    from tweetflow.wordgraph import build_place_graph, build_word_graph

    digests = {}
    corpus = dedup(in_time_order(load_corpus(FIXTURE, strict=True)))
    digests["dedup"] = _sha([(r.id, r.text, r.lang, r.hashtags) for r in corpus])
    tourism = load_dictionary(default_path("dictionary_default.csv"))
    rules = load_category_rules(default_path("category_rules.json"))
    gazetteer = load_gazetteer(default_path("gazetteer.csv"))
    index = gazetteer_index(gazetteer)
    kinds = {place.name: place.kind for place in gazetteer}
    for lang in LANGUAGES:
        records = filter_language(corpus, lang)
        lemmas = load_lemma_table(default_path(f"lemmas_{lang}.tsv"))
        stopwords = load_stopwords(default_path(f"stopwords_{lang}.txt"))
        docs = [pipeline_doc(r.id, r.text, lemmas, stopwords) for r in records]
        digests[f"tokenise {lang}"] = _sha([doc.lemmas for doc in docs])
        matched = match_strings(records, docs, tourism, min_hits=3)
        digests[f"dictionary filter {lang}"] = _sha([r.id for r in matched])
        for k in (3, 8):
            model = fit_lda(docs, LdaConfig(k=k, alpha=0.5, iterations=400, seed=SEED))
            digests[f"fit_lda k={k} {lang}"] = _sha(
                (model.assignments, model.topic_word_counts, log_likelihood(model))
            )
        matrix = build_tfidf(docs)
        digests[f"distinct rows {lang}"] = _sha(distinct_rows(matrix))
        labels = [i % 3 for i in range(len(docs))]
        digests[f"silhouette {lang}"] = _sha(silhouette(matrix, labels))
        digests[f"sampled silhouette {lang}"] = _sha(
            silhouette(matrix, labels, sample_size=len(docs) // 3, seed=SEED)
        )
        lexicon = load_sentiment_lexicon(
            default_path(f"sentiment_{lang}.tsv"),
            default_path(f"boosters_{lang}.txt"),
            default_path(f"negators_{lang}.txt"),
        )
        results = [score(scoring_tokens(r.text), lexicon, r.id) for r in records]
        digests[f"sentiment {lang}"] = _sha(results)
        digests[f"category assignment {lang}"] = _sha([assign_category(d, rules) for d in docs])
        valences = load_valences(default_path(f"sentiment_{lang}.tsv"))
        mentions = [extract_entities(r, d, index, valences) for r, d in zip(records, docs)]
        digests[f"entity extraction {lang}"] = _sha([asdict(m) for m in mentions])
        positive = [d for d, result in zip(docs, results) if result.compound >= 0]
        graph = build_word_graph(positive, (lang, "positive"))
        digests[f"word graph GraphML {lang}"] = _sha(exports.word_graph_to_graphml(graph))
        digests[f"word graph JSON {lang}"] = _sha(exports.word_graph_to_json(graph))
        places = build_place_graph(mentions, kinds, {r.tweet_id: r.compound for r in results})
        digests[f"place graph GraphML {lang}"] = _sha(exports.place_graph_to_graphml(places))
        digests[f"place graph JSON {lang}"] = _sha(exports.place_graph_to_json(places))
        geojson = exports.export_geojson(places, gazetteer)
        digests[f"GeoJSON {lang}"] = _sha(json.dumps(geojson, sort_keys=True))
        adj = graph.adjacency()
        lpa = community.label_propagation(adj, SEED)
        digests[f"label propagation {lang}"] = _sha((lpa.assignment, lpa.sizes, lpa.modularity))
        greedy = community.greedy_modularity(adj)
        digests[f"greedy modularity {lang}"] = _sha(
            (greedy.assignment, greedy.sizes, greedy.modularity)
        )
        digests[f"modularity {lang}"] = _sha(community.modularity(adj, lpa.communities()))
        for name in ("closeness", "degree", "eigenvector"):
            scores = getattr(netmetrics, f"{name}_centrality")(adj)
            digests[f"{name} centrality {lang}"] = _sha(scores)
        betweenness = netmetrics.betweenness_centrality(adj, normalized=True)
        digests[f"betweenness centrality {lang}"] = _sha(betweenness)
    return digests


def first_difference(expected: dict[str, str], actual: dict[str, str]) -> str | None:
    """The first step, in the order of `expected`, whose digest differs or is missing."""
    for step, digest in expected.items():
        if actual.get(step) != digest:
            return step
    return None


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv == ["--digests"]:
        print(json.dumps(step_digests()))
        return 0
    if not argv or argv[0].startswith("-"):
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    expected = step_digests()
    status = 0
    for python in argv:
        result = subprocess.run(
            [python, str(Path(__file__).resolve()), "--digests"],
            capture_output=True, text=True, timeout=600,
        )
        if result.returncode != 0:
            error = (result.stderr.strip().splitlines() or ["no output"])[-1]
            print(f"FAILED {python}: exit {result.returncode}: {error}")
            status = 1
            continue
        step = first_difference(expected, json.loads(result.stdout))
        if step is None:
            print(f"same   {python}: all {len(expected)} steps")
        else:
            print(f"differ {python}: first at step {step!r}")
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
