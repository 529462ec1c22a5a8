"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with `pytest tests/test_acceptance.py -v -s`).

Expected values come from independent oracles (exhaustive path
enumeration, dense eigensolves, exhaustive partition search, brute-force
recounts) or from hand-applied formulas; tolerances are pinned here and
nowhere else.
"""

from __future__ import annotations

import csv
import json
import math
import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from oracles import (
    best_partition_exhaustive,
    brute_betweenness,
    dense_dominant_eigenvector,
    is_connected,
    random_graph,
)

from tweetflow.clustering import kmeans, select_k
from tweetflow.community import (
    Partition,
    choose_communities,
    greedy_modularity,
    hub_dominant,
)
from tweetflow.config import load_config
from tweetflow.corpus import filter_language, load_corpus
from tweetflow.domainfilter import match_strings, merge_results
from tweetflow.netmetrics import (
    betweenness_centrality,
    closeness_centrality,
    degree_centrality,
    eigenvector_centrality,
)
from tweetflow.pipeline import run_all
from tweetflow.preprocess import TfIdfMatrix, TokenizedDoc, pipeline_doc
from tweetflow.resources import default_path, load_lemma_table, load_stopwords
from tweetflow.sentiment import SentimentLexicon, score
from tweetflow.storage import sha256_file
from tweetflow.topics import LdaConfig, fit_lda, top_words
from tweetflow.wordgraph import build_word_graph, graph_stats

FIXTURES = Path(__file__).parent / "fixtures"


@contextmanager
def criterion(number: int, name: str):
    try:
        yield
    except BaseException:
        print(f"\nACCEPTANCE {number:>2} {name}: FAIL")
        raise
    print(f"\nACCEPTANCE {number:>2} {name}: PASS")


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


# ---------------------------------------------------------------------------
# 1. centrality oracle equivalence


def test_criterion_1_centrality_oracle_equivalence():
    with criterion(1, "centrality oracle equivalence"):
        started = time.perf_counter()
        rng = random.Random(2024)
        n_graphs = 0
        n_eigen = 0
        seed = 0
        while n_graphs < 100 or n_eigen < 100:
            seed += 1
            n = rng.randrange(2, 11)
            p = rng.choice([0.2, 0.3, 0.5, 0.7, 0.9])
            adj = random_graph(n, p, seed=seed)
            n_graphs += 1

            # betweenness: exact vs exhaustive path enumeration
            ours = betweenness_centrality(adj).values
            oracle = brute_betweenness(adj)
            for node in adj:
                assert abs(ours[node] - float(oracle[node])) < 1e-9

            # degree and closeness: exact vs hand formulas
            degrees = degree_centrality(adj).values
            for node, neighbors in adj.items():
                assert degrees[node] == len(neighbors) / (n - 1)
            closeness = closeness_centrality(adj).values
            for node in adj:
                dist = {node: 0}
                frontier = [node]
                while frontier:
                    nxt = []
                    for v in frontier:
                        for w in adj[v]:
                            if w not in dist:
                                dist[w] = dist[v] + 1
                                nxt.append(w)
                    frontier = nxt
                reach, total = len(dist), sum(dist.values())
                expected = (
                    ((reach - 1) / (n - 1)) * ((reach - 1) / total)
                    if reach > 1
                    else 0.0
                )
                assert closeness[node] == expected

            # eigenvector: dense dominant-eigenvector oracle within 1e-6
            if is_connected(adj) and any(adj.values()):
                n_eigen += 1
                vec = eigenvector_centrality(adj, max_iters=50000).values
                dense = dense_dominant_eigenvector(adj)
                for node in adj:
                    assert abs(vec[node] - dense[node]) < 1e-6

        elapsed = time.perf_counter() - started
        assert n_graphs >= 100 and n_eigen >= 100
        assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 2. named-graph fixtures


def test_criterion_2_named_graph_fixtures(path3, star4, triangle, k4, two_k3, barbell):
    with criterion(2, "named-graph fixtures"):
        # path-3
        assert degree_centrality(path3).values == {"a": 0.5, "b": 1.0, "c": 0.5}
        closeness = closeness_centrality(path3).values
        assert closeness["b"] == pytest.approx(1.0) and closeness["a"] == pytest.approx(2 / 3)
        assert betweenness_centrality(path3).values == {"a": 0.0, "b": 1.0, "c": 0.0}

        # star K1,4
        star_bc = betweenness_centrality(star4).values
        assert star_bc["hub"] == pytest.approx(6.0)
        star_ec = eigenvector_centrality(star4).values
        assert star_ec["hub"] == pytest.approx(1 / math.sqrt(2), abs=1e-6)
        assert star_ec["l1"] == pytest.approx(1 / (2 * math.sqrt(2)), abs=1e-6)
        assert degree_centrality(star4).values["hub"] == 1.0

        # triangle
        assert closeness_centrality(triangle).values == {"a": 1.0, "b": 1.0, "c": 1.0}
        assert all(v == 0.0 for v in betweenness_centrality(triangle).values.values())

        # K4
        k4_ec = eigenvector_centrality(k4).values
        assert all(v == pytest.approx(0.5, abs=1e-6) for v in k4_ec.values())

        # two disjoint K3: clique partition scores Q = 0.5
        partition = greedy_modularity(two_k3)
        assert partition.modularity == pytest.approx(0.5, abs=1e-12)
        assert partition.communities() == [["a", "b", "c"], ["x", "y", "z"]]

        # barbell K4-bridge-K4 splits at the bridge
        sides = greedy_modularity(barbell).communities()
        assert sides == [["a0", "a1", "a2", "a3"], ["b0", "b1", "b2", "b3"]]


# ---------------------------------------------------------------------------
# 3. LDA conservation + recovery


TOURISM_VOCAB = [
    "beach", "sea", "hotel", "travel", "holiday", "summer", "visit",
    "trip", "coast", "sunset", "resort", "swim", "relax", "town", "wine",
]
NOISE_VOCAB = [
    "match", "wrestling", "arena", "champion", "takeover", "roster",
    "heel", "promo", "belt", "crowd", "referee", "smackdown", "cage",
    "rematch", "entrance",
]


def _planted_two_vocab_corpus(seed):
    rng = random.Random(seed)
    docs = []
    for i in range(50):
        docs.append(doc(f"a{i}", [rng.choice(TOURISM_VOCAB) for _ in range(8)]))
    for i in range(50):
        docs.append(doc(f"b{i}", [rng.choice(NOISE_VOCAB) for _ in range(8)]))
    return docs


def _purity(model):
    tops = [{w for w, _ in top_words(model, z, 10).top_words} for z in (0, 1)]
    tourism, noise = set(TOURISM_VOCAB), set(NOISE_VOCAB)
    straight = len(tops[0] & tourism) + len(tops[1] & noise)
    swapped = len(tops[0] & noise) + len(tops[1] & tourism)
    return max(straight, swapped) / (len(tops[0]) + len(tops[1]))


def test_criterion_3_lda_conservation_and_recovery(fixture_corpus_path):
    with criterion(3, "LDA conservation + recovery"):
        started = time.perf_counter()

        # conservation: invariants checked after every sweep on the fixture; a
        # fit of i sweeps is the state after sweep i of a longer fit
        corpus = filter_language(load_corpus(fixture_corpus_path), "en")
        lemmas = load_lemma_table(default_path("lemmas_en.tsv"))
        stopwords = load_stopwords(default_path("stopwords_en.txt"))
        docs = [pipeline_doc(r.id, r.text, lemmas, stopwords) for r in corpus]
        for iterations in range(1, 31):
            config = LdaConfig(k=3, alpha=0.5, iterations=iterations, seed=42)
            fit_lda(docs, config).check_invariants()

        # recovery: planted 2-vocabulary corpus, 500 sweeps, 10 seeds
        hits = 0
        for seed in range(10):
            planted = _planted_two_vocab_corpus(seed)
            fitted = fit_lda(
                planted, LdaConfig(k=2, alpha=0.5, iterations=500, seed=seed)
            )
            if _purity(fitted) >= 0.8:
                hits += 1
        elapsed = time.perf_counter() - started
        assert hits >= 9, f"purity reached on only {hits}/10 seeds"
        assert elapsed < 30.0, f"criterion 3 took {elapsed:.1f}s"


# ---------------------------------------------------------------------------
# 4. clustering recovery


def _blob_matrix(n_blobs, per_blob, seed, spread=0.08):
    rng = random.Random(seed)
    rows = []
    dims = 3
    v_size = n_blobs * dims
    for b in range(n_blobs):
        base = b * dims
        for _ in range(per_blob):
            row = {base + j: 1.0 + rng.random() * spread for j in range(dims)}
            rows.append(row)
    return TfIdfMatrix(tuple(rows), tuple(f"w{i}" for i in range(v_size)))


def test_criterion_4_clustering_recovery():
    with criterion(4, "clustering recovery"):
        recovered = 0
        for seed in range(10):
            matrix = _blob_matrix(3, 15, seed=seed)
            model = select_k(matrix, (2, 6), seed=seed).best
            if model.k == 3:
                recovered += 1
            history = model.wcss_history
            assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
        # monotone descent also on a fit forced away from the optimum
        for seed in range(5):
            matrix = _blob_matrix(3, 15, seed=seed + 50)
            model = kmeans(matrix, 5, seed=seed)
            history = model.wcss_history
            assert all(a >= b - 1e-12 for a, b in zip(history, history[1:]))
        assert recovered >= 9, f"planted k found on only {recovered}/10 seeds"


# ---------------------------------------------------------------------------
# 5. filtering semantics


def test_criterion_5_filtering_semantics(fixture_corpus_path):
    with criterion(5, "filtering semantics"):
        corpus = load_corpus(fixture_corpus_path)
        lemmas_en = load_lemma_table(default_path("lemmas_en.tsv"))
        stopwords_en = load_stopwords(default_path("stopwords_en.txt"))
        docs = [
            pipeline_doc(r.id, r.text, lemmas_en, stopwords_en) for r in corpus
        ]
        from tweetflow.domainfilter import load_dictionary

        tourism = load_dictionary(default_path("dictionary_default.csv"))
        kept = match_strings(corpus, docs, tourism, min_hits=3)

        # exhaustive recount, independently of match_strings internals
        expected_ids = [
            record.id
            for record, d in zip(corpus, docs)
            if sum(1 for lem in d.lemmas if lem in tourism) >= 3
        ]
        assert [record.id for record in kept] == expected_ids
        assert len(expected_ids) > 0

        # merge cardinality on randomized id sets
        rng = random.Random(7)
        from tweetflow.corpus import TweetRecord

        for _ in range(50):
            universe = [str(i) for i in range(rng.randrange(1, 60))]
            ids_a = sorted(rng.sample(universe, rng.randrange(len(universe) + 1)))
            ids_b = sorted(rng.sample(universe, rng.randrange(len(universe) + 1)))
            a = tuple(TweetRecord(i, f"text {i}", "en") for i in ids_a)
            b = tuple(TweetRecord(i, f"text {i}", "en") for i in ids_b)
            merged = merge_results(a, b)
            assert len(merged) == len(set(ids_a) | set(ids_b))


# ---------------------------------------------------------------------------
# 6. sentiment bounds and formula


def test_criterion_6_sentiment_bounds_and_formula():
    with criterion(6, "sentiment bounds and formula"):
        lexicon = SentimentLexicon(
            valences={"good": 2.0, "great": 3.1, "bad": -2.5, "awful": -3.4},
            boosters={"very": 0.293, "slightly": -0.293},
            negators=frozenset({"not", "never"}),
        )
        vocabulary = ["good", "great", "bad", "awful", "not", "never", "very",
                      "slightly", "the", "zz", "road"]
        rng = random.Random(99)
        for _ in range(10000):
            tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(25))]
            compound = score(tokens, lexicon).compound
            assert -1.0 < compound < 1.0

        single = score(["good"], lexicon)
        assert abs(single.compound - 0.4588) < 1e-4
        assert single.compound == pytest.approx(2 / math.sqrt(19))

        # label interval convention: zero is negative, above zero positive
        zero = score([], lexicon)
        assert zero.compound == 0.0 and zero.label == "negative"
        assert score(["good"], lexicon).label == "positive"
        assert score(["bad"], lexicon).label == "negative"


# ---------------------------------------------------------------------------
# 7. word-graph algebra


def test_criterion_7_word_graph_algebra():
    with criterion(7, "word-graph algebra"):
        # clique-expansion examples, exact
        g1 = build_word_graph([doc("1", ["a", "b", "c"])])
        assert g1.edges == {("a", "b"): 1, ("a", "c"): 1, ("b", "c"): 1}
        assert g1.nodes == {"a": 1, "b": 1, "c": 1}
        g2 = build_word_graph([doc("1", ["a", "b"]), doc("2", ["a", "b"])])
        assert g2.edges == {("a", "b"): 2}
        g3 = build_word_graph([doc("1", ["a", "a", "b"])])
        assert g3.edges == {("a", "b"): 1}

        # additivity over 50 random corpus splits
        rng = random.Random(123)
        for trial in range(50):
            docs = [
                doc(f"{trial}:{i}", [rng.choice("abcdefgh") for _ in range(rng.randrange(1, 7))])
                for i in range(25)
            ]
            cut = rng.randrange(26)
            whole = build_word_graph(docs)
            left, right = build_word_graph(docs[:cut]), build_word_graph(docs[cut:])
            sum_nodes = dict(left.nodes)
            for node, freq in right.nodes.items():
                sum_nodes[node] = sum_nodes.get(node, 0) + freq
            sum_edges = dict(left.edges)
            for edge, w in right.edges.items():
                sum_edges[edge] = sum_edges.get(edge, 0) + w
            assert whole.nodes == sum_nodes and whole.edges == sum_edges

        # density / average-degree formulas on the named fixtures
        k4_graph = build_word_graph([doc("1", ["a", "b", "c", "d"])])
        stats = graph_stats(k4_graph)
        assert stats.density == 1.0 and stats.avg_degree == 3.0
        from tweetflow.wordgraph import WordGraph

        edgeless = graph_stats(WordGraph({"a": 1, "b": 1}, {}))
        assert edgeless.density == 0.0
        path_graph = graph_stats(
            WordGraph({"a": 1, "b": 1, "c": 1}, {("a", "b"): 1, ("b", "c"): 1})
        )
        assert path_graph.density == pytest.approx(2 / 3)
        assert path_graph.max_degree == 2
        assert path_graph.avg_degree == pytest.approx(4 / 3)


# ---------------------------------------------------------------------------
# 8. community pipeline


def test_criterion_8_community_pipeline(star4, two_k3, k4, barbell):
    with criterion(8, "community pipeline"):
        # size thresholding on [10, 8, 1, 1]
        assignment = {}
        node = 0
        for cid, size in enumerate([10, 8, 1, 1]):
            for _ in range(size):
                assignment[f"n{node}"] = cid
                node += 1
        partition = Partition(assignment, (10, 8, 1, 1), None)
        threshold, chosen = choose_communities(partition)
        assert threshold == pytest.approx(4.06, abs=0.01)
        assert chosen == (0, 1)

        # greedy modularity equals the exhaustive optimum on every fixture
        for adj in (two_k3, k4, barbell):
            partition = greedy_modularity(adj)
            best_q, best_groups = best_partition_exhaustive(adj)
            assert partition.modularity == pytest.approx(best_q, abs=1e-12)
            assert sorted(map(tuple, partition.communities())) == sorted(
                map(tuple, best_groups)
            )

        # hub extraction
        assert hub_dominant(star4, list(star4)) == "hub"


# ---------------------------------------------------------------------------
# 9 + 10. end-to-end determinism and report shape


@pytest.fixture(scope="module")
def golden_runs(tmp_path_factory, fixture_config_path):
    base = tmp_path_factory.mktemp("golden")
    elapsed = []
    outs = []
    for run in (1, 2):
        started = time.perf_counter()
        config = load_config(
            fixture_config_path,
            out_override=str(base / f"run{run}"),
            seed_override=42,
        )
        run_all(config)
        elapsed.append(time.perf_counter() - started)
        outs.append(config.out)
    return outs, sum(elapsed)


def _checksums(out_dir: Path) -> dict[str, str]:
    return {
        str(p.relative_to(out_dir)): sha256_file(p)
        for p in sorted(out_dir.rglob("*"))
        if p.is_file() and p.name != "manifest.json"
    }


def test_criterion_9_end_to_end_determinism(golden_runs):
    with criterion(9, "end-to-end determinism"):
        (run1, run2), elapsed = golden_runs
        golden = json.loads(
            (FIXTURES / "golden_checksums.json").read_text(encoding="utf-8")
        )
        first, second = _checksums(run1), _checksums(run2)
        assert first == second, "two identical runs diverged"
        assert first == golden, "run diverged from the frozen golden outputs"
        # the manifest's recorded checksums must match the files it describes
        manifest = json.loads((run1 / "manifest.json").read_text(encoding="utf-8"))
        for stage in manifest["stages"].values():
            for rel, meta in stage["outputs"].items():
                assert meta["sha256"] == first[rel]
        assert elapsed < 60.0, f"two runs took {elapsed:.1f}s"


def test_classic_retweet_copy_leaves_the_golden_outputs(tmp_path, fixture_config_path):
    # an "RT @handle:" copy of a fixture tweet is a duplicate, so the run
    # drops it at ingest and every output keeps its golden bytes
    lines = (FIXTURES / "corpus200.jsonl").read_text(encoding="utf-8").splitlines()
    rows = [json.loads(line) for line in lines]
    original = next(row for row in rows if row["id"] == "t0003")
    rows.append(dict(original, id="t9999", text="RT @someone: " + original["text"]))
    corpus = tmp_path / "corpus201.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    config = load_config(
        fixture_config_path, input_override=str(corpus), out_override=str(tmp_path / "out")
    )
    results = run_all(config)
    golden = json.loads((FIXTURES / "golden_checksums.json").read_text(encoding="utf-8"))
    assert _checksums(config.out) == golden
    assert results["ingest"]["loaded"] == 201
    assert results["ingest"]["dropped_duplicates"] == 4


REPORT_SCHEMAS = {
    "topic_words_en.csv": ["round", "topic_id", "rank", "word", "probability"],
    "topic_words_it.csv": ["round", "topic_id", "rank", "word", "probability"],
    "clusters_en.csv": ["k", "silhouette", "cluster_id", "size", "top_words"],
    "clusters_it.csv": ["k", "silhouette", "cluster_id", "size", "top_words"],
    "graph_stats.csv": ["Network", "Nodes", "Edges", "Density", "Max Degree", "Avg Degree"],
    "centrality_betweenness.csv": ["network", "polarity", "language", "rank", "word", "score"],
    "centrality_closeness.csv": ["network", "polarity", "language", "rank", "word", "score"],
    "centrality_degree.csv": ["network", "polarity", "language", "rank", "word", "score"],
    "centrality_eigenvector.csv": ["network", "polarity", "language", "rank", "word", "score"],
    "communities.csv": ["network", "algorithm", "community_count", "chosen_count", "threshold"],
    "hubs.csv": ["network", "community", "hub"],
    "category_distribution_en.csv": ["category", "count", "percent"],
    "category_distribution_it.csv": ["category", "count", "percent"],
    "category_top_words_en.csv": ["category", "rank", "word", "frequency"],
    "category_top_words_it.csv": ["category", "rank", "word", "frequency"],
    "category_top_attractions_en.csv": ["category", "rank", "attraction", "mentions"],
    "category_top_attractions_it.csv": ["category", "rank", "attraction", "mentions"],
    "by_category_en.csv": ["group", "count", "mean_compound", "pct_positive", "pct_negative"],
    "by_category_it.csv": ["group", "count", "mean_compound", "pct_positive", "pct_negative"],
    "word_frequencies_en.csv": ["word", "frequency"],
    "word_frequencies_it.csv": ["word", "frequency"],
}


def test_criterion_10_report_shape_conformance(golden_runs):
    with criterion(10, "report-shape conformance"):
        (run1, _), _ = golden_runs
        report = run1 / "report"
        for name, header in REPORT_SCHEMAS.items():
            path = report / name
            assert path.is_file(), f"missing report table {name}"
            with path.open(newline="", encoding="utf-8") as fh:
                actual = next(csv.reader(fh))
            assert actual == header, f"{name}: header {actual} != {header}"

        # centrality scores carry two decimals
        with (report / "centrality_degree.csv").open(newline="", encoding="utf-8") as fh:
            for row in csv.DictReader(fh):
                whole, _, frac = row["score"].partition(".")
                assert len(frac) == 2, row

        # GeoJSON structure
        for lang in ("en", "it"):
            geo = json.loads((report / f"places_{lang}.geojson").read_text(encoding="utf-8"))
            assert geo["type"] == "FeatureCollection"
            for feature in geo["features"]:
                assert feature["type"] == "Feature"
                assert feature["geometry"]["type"] in ("Point", "LineString")

        # explore label template: exactly min(1000, |vocab|) word rows
        explore_words = run1 / "explore" / "words_en.csv"
        with explore_words.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            assert next(reader) == ["term", "label", "frequency"]
            word_rows = list(reader)
        vocab = {
            lemma
            for line in (run1 / "ingest" / "corpus_en.jsonl")
            .read_text(encoding="utf-8")
            .splitlines()
            for lemma in pipeline_doc(
                "x",
                json.loads(line)["text"],
                load_lemma_table(default_path("lemmas_en.tsv")),
                load_stopwords(default_path("stopwords_en.txt")),
            ).lemmas
        }
        assert len(word_rows) == min(1000, len(vocab))


def test_route_b_log_likelihood_in_manifest(golden_runs):
    # the fixture config refines route B with LDA; its rounds' log p(w | z)
    # land in the cluster stage's manifest counts, outside the checksums
    (run1, _), _ = golden_runs
    manifest = json.loads((run1 / "manifest.json").read_text(encoding="utf-8"))
    counts = manifest["stages"]["cluster"]["counts"]
    for lang in ("en", "it"):
        logliks = counts[f"route_b_loglik_{lang}"]
        assert 1 <= len(logliks) <= 2
        assert all(isinstance(v, float) and v < 0.0 for v in logliks)
