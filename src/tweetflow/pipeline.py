"""Stage orchestration: each stage reads the previous stage's files from
the output directory, writes its own atomically, and records counts and
checksums in the run manifest.

Stage map:
    ingest      load, dedup, split per language
    explore     ranked word/hashtag label templates for curation
    filter      dictionary string-matching route
    topics      iterative LDA refinement of the matched route
    cluster     k-means route, then merge of both routes
    categorize  sub-category assignment + entity extraction
    sentiment   compound scores + per-category aggregation
    graph       word-pair networks (language x polarity) + place graph
    metrics     the four centralities, ranked
    communities label propagation + greedy modularity + hubs
    report      assembled report directory (tables, frequencies, GeoJSON)
"""

from __future__ import annotations

import csv
import json
import logging
import time
from collections.abc import Sequence
from pathlib import Path

from . import (
    categorize as categorize_mod,
    clustering,
    community,
    domainfilter,
    exports,
    netmetrics,
    preprocess,
    resources,
    sentiment as sentiment_mod,
    topics as topics_mod,
)
from .config import STAGES, PipelineConfig
from .corpus import Corpus, dedup, filter_language, load_corpus
from .errors import StageError
from .storage import atomic_write_text, count_rows, sha256_file, write_csv, write_json, write_jsonl
from .wordgraph import PlaceGraph, PlaceNode, WordGraph, build_place_graph, build_word_graph, graph_stats

log = logging.getLogger(__name__)

POLARITIES = ("positive", "negative")


# ---------------------------------------------------------------------------
# manifest

def _manifest_path(config: PipelineConfig) -> Path:
    return config.out / "manifest.json"


def _load_manifest(config: PipelineConfig) -> dict:
    path = _manifest_path(config)
    if path.is_file():
        return json.loads(path.read_text(encoding="utf-8"))
    return {"config": config.snapshot(), "stages": {}}


def _record_stage(
    config: PipelineConfig,
    stage: str,
    counts: dict,
    outputs: Sequence[Path],
    elapsed: float,
) -> None:
    manifest = _load_manifest(config)
    manifest["config"] = config.snapshot()
    manifest["stages"][stage] = {
        "counts": counts,
        "elapsed_s": round(elapsed, 3),
        "outputs": {
            str(path.relative_to(config.out)): {
                "rows": count_rows(path),
                "sha256": sha256_file(path),
            }
            for path in sorted(outputs)
        },
    }
    write_json(_manifest_path(config), manifest)


# ---------------------------------------------------------------------------
# shared loading helpers

def _require(config: PipelineConfig, *relpaths: str) -> list[Path]:
    paths = []
    for rel in relpaths:
        path = config.out / rel
        if not path.is_file():
            raise StageError(f"missing upstream output {rel}: run the earlier stages first")
        paths.append(path)
    return paths


def _lang_resources(config: PipelineConfig, lang: str):
    lemmas = resources.load_lemma_table(config.resource(f"lemmas_{lang}"))
    stopwords = resources.load_stopwords(config.resource(f"stopwords_{lang}"))
    return lemmas, stopwords


def _docs_for(corpus: Corpus, lemmas, stopwords) -> list[preprocess.TokenizedDoc]:
    return [
        preprocess.pipeline_doc(record.id, record.text, lemmas, stopwords)
        for record in corpus.records
    ]


def _load_stage_corpus(path: Path) -> Corpus:
    return load_corpus(path, "jsonl", strict=True)


def _load_scores(path: Path) -> dict[str, tuple[float, str]]:
    out = {}
    with path.open("r", encoding="utf-8", newline="") as fh:
        for row in csv.DictReader(fh):
            out[row["tweet_id"]] = (float(row["compound"]), row["label"])
    return out


def _load_entities(path: Path) -> list[categorize_mod.EntityMentions]:
    mentions = []
    with path.open("r", encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            row = json.loads(line)
            mentions.append(
                categorize_mod.EntityMentions(
                    tweet_id=row["tweet_id"],
                    cities=tuple(row["cities"]),
                    attractions=tuple(row["attractions"]),
                    hashtags=tuple(row["hashtags"]),
                    adjectives=tuple((a, p) for a, p in row["adjectives"]),
                )
            )
    return mentions


def _load_word_graph(path: Path) -> WordGraph:
    doc = json.loads(path.read_text(encoding="utf-8"))
    split = doc.get("split") or {}
    return WordGraph(
        nodes={str(k): int(v) for k, v in doc["nodes"].items()},
        edges={(u, v): int(w) for u, v, w in doc["edges"]},
        split=(split.get("language"), split.get("polarity")),
    )


def _load_place_graph(path: Path) -> PlaceGraph:
    doc = json.loads(path.read_text(encoding="utf-8"))
    nodes = {}
    for name, attrs in doc["nodes"].items():
        nodes[name] = PlaceNode(
            name=name,
            kind=attrs["kind"],
            mentions=attrs["mentions"],
            degree=attrs["degree"],
            degree_centrality=attrs["degree_centrality"],
            closeness=attrs["closeness"],
            mean_sentiment=attrs["mean_sentiment"],
        )
    edges = {(u, v): int(w) for u, v, w in doc["edges"]}
    return PlaceGraph(nodes, edges)


def _save_corpus_atomic(corpus: Corpus, path: Path) -> int:
    rows = [record.to_json_dict() for record in corpus.records]
    return write_jsonl(path, rows)


# ---------------------------------------------------------------------------
# stages

def stage_ingest(config: PipelineConfig) -> tuple[dict, list[Path]]:
    raw = load_corpus(config.input, config.format, strict=config.strict)
    deduped = dedup(raw)
    counts = {
        "loaded": len(raw),
        "after_dedup": len(deduped),
        "dropped_duplicates": len(raw) - len(deduped),
    }
    outputs = []
    kept_total = 0
    for lang in config.languages:
        subset = filter_language(deduped, lang)
        counts[f"kept_{lang}"] = len(subset)
        kept_total += len(subset)
        path = config.out / "ingest" / f"corpus_{lang}.jsonl"
        _save_corpus_atomic(subset, path)
        outputs.append(path)
    counts["dropped_other_lang"] = len(deduped) - kept_total
    return counts, outputs


def stage_explore(config: PipelineConfig) -> tuple[dict, list[Path]]:
    counts = {}
    outputs = []
    for lang in config.languages:
        (corpus_path,) = _require(config, f"ingest/corpus_{lang}.jsonl")
        corpus = _load_stage_corpus(corpus_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        report = domainfilter.explore(corpus, docs, config.explore_top_n)
        words_path = config.out / "explore" / f"words_{lang}.csv"
        tags_path = config.out / "explore" / f"hashtags_{lang}.csv"
        domainfilter.write_label_file(words_path, report.top_words)
        domainfilter.write_label_file(tags_path, report.top_hashtags)
        counts[f"words_{lang}"] = len(report.top_words)
        counts[f"hashtags_{lang}"] = len(report.top_hashtags)
        outputs.extend([words_path, tags_path])
    return counts, outputs


def stage_filter(config: PipelineConfig) -> tuple[dict, list[Path]]:
    dictionary = domainfilter.load_dictionary(config.resource("dictionary"))
    counts = {}
    outputs = []
    for lang in config.languages:
        (corpus_path,) = _require(config, f"ingest/corpus_{lang}.jsonl")
        corpus = _load_stage_corpus(corpus_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        matched = domainfilter.match_strings(corpus, docs, dictionary, config.filter_min_hits)
        path = config.out / "filter" / f"matched_{lang}.jsonl"
        _save_corpus_atomic(matched, path)
        counts[f"in_{lang}"] = len(corpus)
        counts[f"matched_{lang}"] = len(matched)
        outputs.append(path)
    return counts, outputs


def _interactive_selector(summaries):
    print("Round topics:")
    for summary in summaries:
        words = ", ".join(w for w, _ in summary.top_words[:10])
        print(f"  [{summary.topic_id}] {words}")
    reply = input("Keep which topic ids (comma-separated)? ").strip()
    return {int(tok) for tok in reply.split(",") if tok.strip()}


def _refine_corpus(
    config: PipelineConfig,
    corpus: Corpus,
    docs: Sequence[preprocess.TokenizedDoc],
    dictionary: domainfilter.TermDictionary,
    seed: int,
) -> topics_mod.RefineResult:
    lda_config = topics_mod.LdaConfig(
        k=config.lda_k,
        alpha=config.lda_alpha,
        beta=config.lda_beta,
        iterations=config.lda_iterations,
        seed=seed,
    )
    if config.interactive:
        selector = _interactive_selector
    else:
        selector = topics_mod.dictionary_selector(
            dictionary.tourism_terms,
            top_n=config.lda_top_words,
            threshold=config.overlap_threshold,
        )
    return topics_mod.iterative_refine(
        corpus, docs, lda_config, selector, config.lda_max_rounds,
        top_n=config.lda_top_words,
    )


def _topic_report_rows(rounds) -> list[list]:
    rows = []
    for round_log in rounds:
        for summary in round_log.summaries:
            for rank, (word, prob) in enumerate(summary.top_words, start=1):
                rows.append(
                    [round_log.round_no, summary.topic_id, rank, word, f"{prob:.6f}"]
                )
    return rows


def stage_topics(config: PipelineConfig) -> tuple[dict, list[Path]]:
    dictionary = domainfilter.load_dictionary(config.resource("dictionary"))
    counts = {}
    outputs = []
    for lang in config.languages:
        (matched_path,) = _require(config, f"filter/matched_{lang}.jsonl")
        corpus = _load_stage_corpus(matched_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        seed = config.stage_seed(f"topics:{lang}")
        result = _refine_corpus(config, corpus, docs, dictionary, seed)
        refined_path = config.out / "topics" / f"refined_{lang}.jsonl"
        _save_corpus_atomic(result.corpus, refined_path)
        report_path = config.out / "topics" / f"topic_words_{lang}.csv"
        write_csv(
            report_path,
            ["round", "topic_id", "rank", "word", "probability"],
            _topic_report_rows(result.rounds),
        )
        counts[f"in_{lang}"] = len(corpus)
        counts[f"refined_{lang}"] = len(result.corpus)
        counts[f"rounds_{lang}"] = len(result.rounds)
        outputs.extend([refined_path, report_path])
    return counts, outputs


def stage_cluster(config: PipelineConfig) -> tuple[dict, list[Path]]:
    dictionary = domainfilter.load_dictionary(config.resource("dictionary"))
    tourism_terms = dictionary.tourism_terms
    counts = {}
    outputs = []
    for lang in config.languages:
        corpus_path, refined_path = _require(
            config, f"ingest/corpus_{lang}.jsonl", f"topics/refined_{lang}.jsonl"
        )
        corpus = _load_stage_corpus(corpus_path)
        route_a = _load_stage_corpus(refined_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        matrix = preprocess.build_tfidf(docs)
        # k-means cannot settle with more clusters than distinct points
        n_distinct = len({frozenset(row.items()) for row in matrix.rows if row})
        k_max = min(config.cluster_k_max, n_distinct)
        seed = config.stage_seed(f"cluster:{lang}")

        report_rows: list[list] = []
        if k_max < config.cluster_k_min:
            # degenerate corpus: too few rows with any distinguishing terms
            log.warning(
                "cluster %s: only %d distinct non-empty TF-IDF rows, skipping this route",
                lang,
                n_distinct,
            )
            selected = []
            route_b = Corpus((), corpus.lang_filter)
            counts[f"best_k_{lang}"] = 0
        else:
            selection = clustering.select_k(
                matrix, (config.cluster_k_min, k_max), seed,
                config.cluster_max_iters, config.cluster_sample_size,
            )
            fits = []
            words_by_k = {}
            for model, score in selection.fits:
                words_by_k[model.k] = _cluster_top_words(docs, model.assignments, model.k)
                for cid in range(model.k):
                    size = sum(1 for a in model.assignments if a == cid)
                    report_rows.append(
                        [model.k, f"{score:.4f}", cid, size,
                         "|".join(w for w, _ in words_by_k[model.k][cid])]
                    )
                fits.append({
                    "k": model.k,
                    "silhouette": score,
                    "n_iters": model.n_iters,
                    "wcss": model.wcss_history[-1],
                })
            best = selection.best
            selected = []
            for cid in range(best.k):
                words = [w for w, _ in words_by_k[best.k][cid]]
                if not words:
                    continue
                overlap = sum(1 for w in words if w in tourism_terms) / len(words)
                if overlap >= config.overlap_threshold:
                    selected.append(cid)
            selected_set = set(selected)
            route_b = Corpus(
                tuple(
                    record
                    for record, assignment in zip(corpus.records, best.assignments)
                    if assignment in selected_set
                ),
                corpus.lang_filter,
            )
            counts[f"best_k_{lang}"] = best.k
            counts[f"fits_{lang}"] = fits
        counts[f"clustered_{lang}"] = len(corpus)
        counts[f"tourism_clusters_{lang}"] = len(selected)
        counts[f"route_b_{lang}"] = len(route_b)

        if config.cluster_lda_refine and len(route_b) > 0:
            docs_by_id = {doc.tweet_id: doc for doc in docs}
            route_b_docs = [docs_by_id[r.id] for r in route_b.records]
            n_nonempty_b = sum(1 for d in route_b_docs if d.lemmas)
            if n_nonempty_b >= config.lda_k:
                try:
                    result = _refine_corpus(
                        config, route_b, route_b_docs, dictionary,
                        config.stage_seed(f"cluster:lda:{lang}"),
                    )
                    route_b = result.corpus
                except topics_mod.SelectorAbort:
                    # the clusters were already dictionary-selected; keep them
                    log.warning(
                        "cluster %s: refinement found no on-domain topic, "
                        "keeping the unrefined cluster selection",
                        lang,
                    )
            counts[f"route_b_refined_{lang}"] = len(route_b)

        merged = domainfilter.merge_results(route_a, route_b, config.merge_mode)
        counts[f"merged_{lang}"] = len(merged)

        report_path = config.out / "cluster" / f"clusters_{lang}.csv"
        write_csv(
            report_path,
            ["k", "silhouette", "cluster_id", "size", "top_words"],
            report_rows,
        )
        tourism_path = config.out / "cluster" / f"tourism_{lang}.jsonl"
        _save_corpus_atomic(merged, tourism_path)
        outputs.extend([report_path, tourism_path])
    return counts, outputs


def _cluster_top_words(
    docs: Sequence[preprocess.TokenizedDoc], assignments: Sequence[int], k: int, n: int = 10
) -> list[list[tuple[str, int]]]:
    from collections import Counter

    counters = [Counter() for _ in range(k)]
    for doc, assignment in zip(docs, assignments):
        counters[assignment].update(doc.lemmas)
    return [
        sorted(counter.items(), key=lambda kv: (-kv[1], kv[0]))[:n]
        for counter in counters
    ]


def stage_categorize(config: PipelineConfig) -> tuple[dict, list[Path]]:
    rules = categorize_mod.load_category_rules(config.resource("category_rules"))
    gazetteer = categorize_mod.load_gazetteer(config.resource("gazetteer"))
    counts = {}
    outputs = []
    for lang in config.languages:
        (tourism_path,) = _require(config, f"cluster/tourism_{lang}.jsonl")
        corpus = _load_stage_corpus(tourism_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        valences = resources.load_valences(config.resource(f"sentiment_{lang}"))

        assignments = {}
        mentions = []
        for record, doc in zip(corpus.records, docs):
            assignments[record.id] = categorize_mod.assign_category(doc, rules)
            mentions.append(
                categorize_mod.extract_entities(record, doc, gazetteer, valences)
            )

        categories_path = config.out / "categorize" / f"categories_{lang}.csv"
        write_csv(
            categories_path,
            ["tweet_id", "category"],
            [[record.id, assignments[record.id]] for record in corpus.records],
        )
        entities_path = config.out / "categorize" / f"entities_{lang}.jsonl"
        write_jsonl(
            entities_path,
            [
                {
                    "tweet_id": m.tweet_id,
                    "cities": list(m.cities),
                    "attractions": list(m.attractions),
                    "hashtags": list(m.hashtags),
                    "adjectives": [list(pair) for pair in m.adjectives],
                }
                for m in mentions
            ],
        )
        report = categorize_mod.category_report(assignments, docs, mentions, rules)
        dist_path = config.out / "categorize" / f"category_distribution_{lang}.csv"
        write_csv(
            dist_path,
            ["category", "count", "percent"],
            [[name, count, f"{pct:.2f}"] for name, count, pct in report.distribution],
        )
        words_path = config.out / "categorize" / f"category_top_words_{lang}.csv"
        write_csv(
            words_path,
            ["category", "rank", "word", "frequency"],
            [
                [name, rank, word, freq]
                for name, _, _ in report.distribution
                for rank, (word, freq) in enumerate(report.top_words[name], start=1)
            ],
        )
        attr_path = config.out / "categorize" / f"category_top_attractions_{lang}.csv"
        write_csv(
            attr_path,
            ["category", "rank", "attraction", "mentions"],
            [
                [name, rank, attraction, n]
                for name, _, _ in report.distribution
                for rank, (attraction, n) in enumerate(
                    report.top_attractions[name], start=1
                )
            ],
        )
        counts[f"categorized_{lang}"] = len(corpus)
        outputs.extend([categories_path, entities_path, dist_path, words_path, attr_path])
    return counts, outputs


def stage_sentiment(config: PipelineConfig) -> tuple[dict, list[Path]]:
    counts = {}
    outputs = []
    for lang in config.languages:
        tourism_path, categories_path = _require(
            config, f"cluster/tourism_{lang}.jsonl", f"categorize/categories_{lang}.csv"
        )
        corpus = _load_stage_corpus(tourism_path)
        lexicon = resources.load_sentiment_lexicon(
            config.resource(f"sentiment_{lang}"),
            config.resource(f"boosters_{lang}"),
            config.resource(f"negators_{lang}"),
            lang,
        )
        results = [
            sentiment_mod.score(
                sentiment_mod.scoring_tokens(record.text), lexicon, record.id
            )
            for record in corpus.records
        ]
        scores_path = config.out / "sentiment" / f"scores_{lang}.csv"
        write_csv(
            scores_path,
            ["tweet_id", "compound", "label"],
            [[r.tweet_id, f"{r.compound:.4f}", r.label] for r in results],
        )
        grouping = {}
        with categories_path.open("r", encoding="utf-8", newline="") as fh:
            for row in csv.DictReader(fh):
                grouping[row["tweet_id"]] = row["category"]
        by_cat_path = config.out / "sentiment" / f"by_category_{lang}.csv"
        if results:
            aggregated = sentiment_mod.aggregate(results, grouping)
            write_csv(
                by_cat_path,
                ["group", "count", "mean_compound", "pct_positive", "pct_negative"],
                [
                    [
                        g.group,
                        g.count,
                        f"{g.mean_compound:.4f}",
                        f"{g.pct_positive:.2f}",
                        f"{g.pct_negative:.2f}",
                    ]
                    for g in aggregated.values()
                ],
            )
        else:
            write_csv(
                by_cat_path,
                ["group", "count", "mean_compound", "pct_positive", "pct_negative"],
                [],
            )
        n_pos = sum(1 for r in results if r.label == "positive")
        counts[f"scored_{lang}"] = len(results)
        counts[f"positive_{lang}"] = n_pos
        counts[f"negative_{lang}"] = len(results) - n_pos
        outputs.extend([scores_path, by_cat_path])
    return counts, outputs


def stage_graph(config: PipelineConfig) -> tuple[dict, list[Path]]:
    gazetteer = categorize_mod.load_gazetteer(config.resource("gazetteer"))
    kinds = {p.name: p.kind for p in gazetteer.places}
    counts = {}
    outputs = []
    stats_rows = []
    for lang in config.languages:
        tourism_path, scores_path, entities_path = _require(
            config,
            f"cluster/tourism_{lang}.jsonl",
            f"sentiment/scores_{lang}.csv",
            f"categorize/entities_{lang}.jsonl",
        )
        corpus = _load_stage_corpus(tourism_path)
        scores = _load_scores(scores_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)

        for polarity in POLARITIES:
            split_docs = [
                doc
                for record, doc in zip(corpus.records, docs)
                if scores.get(record.id, (0.0, "negative"))[1] == polarity
            ]
            graph = build_word_graph(
                split_docs, (lang, polarity), config.graph_clique_cap
            )
            stats = graph_stats(graph)
            stats_rows.append(
                [
                    f"{lang}_{polarity}",
                    stats.nodes,
                    stats.edges,
                    f"{stats.density:.4f}",
                    stats.max_degree,
                    f"{stats.avg_degree:.2f}",
                ]
            )
            gml_path = config.out / "graph" / f"wordgraph_{lang}_{polarity}.graphml"
            json_path = config.out / "graph" / f"wordgraph_{lang}_{polarity}.json"
            atomic_write_text(gml_path, exports.word_graph_to_graphml(graph))
            atomic_write_text(json_path, exports.word_graph_to_json(graph))
            counts[f"nodes_{lang}_{polarity}"] = stats.nodes
            counts[f"edges_{lang}_{polarity}"] = stats.edges
            counts[f"clique_capped_{lang}_{polarity}"] = graph.capped_tweets
            outputs.extend([gml_path, json_path])

        mentions = _load_entities(entities_path)
        sentiments = {tid: compound for tid, (compound, _) in scores.items()}
        place_graph = build_place_graph(mentions, kinds, sentiments)
        pg_gml = config.out / "graph" / f"placegraph_{lang}.graphml"
        pg_json = config.out / "graph" / f"placegraph_{lang}.json"
        atomic_write_text(pg_gml, exports.place_graph_to_graphml(place_graph))
        atomic_write_text(pg_json, exports.place_graph_to_json(place_graph))
        counts[f"places_{lang}"] = len(place_graph.nodes)
        outputs.extend([pg_gml, pg_json])

    stats_path = config.out / "graph" / "graph_stats.csv"
    write_csv(
        stats_path,
        ["Network", "Nodes", "Edges", "Density", "Max Degree", "Avg Degree"],
        stats_rows,
    )
    outputs.append(stats_path)
    return counts, outputs


MEASURES = ("betweenness", "closeness", "degree", "eigenvector")


def stage_metrics(config: PipelineConfig) -> tuple[dict, list[Path]]:
    counts = {}
    rows: dict[str, list[list]] = {measure: [] for measure in MEASURES}
    for lang in config.languages:
        for polarity in POLARITIES:
            (json_path,) = _require(
                config, f"graph/wordgraph_{lang}_{polarity}.json"
            )
            graph = _load_word_graph(json_path)
            network = f"{lang}_{polarity}"
            if len(graph.nodes) < 2:
                log.warning("metrics: %s has fewer than 2 nodes, skipping", network)
                counts[f"skipped_{network}"] = 1
                continue
            scores = {
                "betweenness": netmetrics.betweenness_centrality(graph, normalized=True),
                "closeness": netmetrics.closeness_centrality(graph),
                "degree": netmetrics.degree_centrality(graph),
            }
            if graph.edges:
                scores["eigenvector"] = netmetrics.eigenvector_centrality(graph)
            else:
                log.warning("metrics: %s has no edges, skipping eigenvector", network)
            for measure, centrality in scores.items():
                ranked = netmetrics.top_k(centrality, config.metrics_top_k)
                for rank, (word, value) in enumerate(ranked, start=1):
                    rows[measure].append(
                        [network, polarity, lang, rank, word, f"{value:.2f}"]
                    )
            counts[f"ranked_{network}"] = min(config.metrics_top_k, len(graph.nodes))
    outputs = []
    for measure in MEASURES:
        path = config.out / "metrics" / f"centrality_{measure}.csv"
        write_csv(
            path,
            ["network", "polarity", "language", "rank", "word", "score"],
            rows[measure],
        )
        outputs.append(path)
    return counts, outputs


def stage_communities(config: PipelineConfig) -> tuple[dict, list[Path]]:
    counts = {}
    outputs = []
    community_rows = []
    hub_rows = []
    for lang in config.languages:
        for polarity in POLARITIES:
            (json_path,) = _require(
                config, f"graph/wordgraph_{lang}_{polarity}.json"
            )
            graph = _load_word_graph(json_path)
            network = f"{lang}_{polarity}"
            if not graph.edges:
                log.warning("communities: %s has no edges, skipping", network)
                counts[f"skipped_{network}"] = 1
                continue
            seed = config.stage_seed(f"communities:{network}")
            lpa = community.label_propagation(graph, seed)
            greedy = community.greedy_modularity(graph)
            membership = {}
            for algorithm, partition in (
                ("label_propagation", lpa),
                ("greedy_modularity", greedy),
            ):
                threshold, chosen = community.choose_communities(partition)
                community_rows.append(
                    [
                        network,
                        algorithm,
                        len(partition.sizes),
                        len(chosen),
                        f"{threshold:.4f}",
                    ]
                )
                membership[algorithm] = {
                    "communities": partition.communities(),
                    "modularity": partition.modularity,
                    "threshold": threshold,
                    "chosen": list(chosen),
                }
                counts[f"{algorithm}_{network}"] = len(partition.sizes)
            # hubs from the greedy partition's chosen communities
            threshold, chosen = community.choose_communities(greedy)
            groups = greedy.communities()
            for group_no, cid in enumerate(chosen, start=1):
                hub = community.hub_dominant(graph, groups[cid])
                hub_rows.append([network, f"Group-{group_no}", hub])
            membership_path = (
                config.out / "communities" / f"membership_{lang}_{polarity}.json"
            )
            write_json(membership_path, membership)
            outputs.append(membership_path)
    communities_path = config.out / "communities" / "communities.csv"
    write_csv(
        communities_path,
        ["network", "algorithm", "community_count", "chosen_count", "threshold"],
        community_rows,
    )
    hubs_path = config.out / "communities" / "hubs.csv"
    write_csv(hubs_path, ["network", "community", "hub"], hub_rows)
    outputs.extend([communities_path, hubs_path])
    return counts, outputs


REPORT_COPIES = [
    "topics/topic_words_{lang}.csv",
    "cluster/clusters_{lang}.csv",
    "categorize/category_distribution_{lang}.csv",
    "categorize/category_top_words_{lang}.csv",
    "categorize/category_top_attractions_{lang}.csv",
    "sentiment/by_category_{lang}.csv",
]
REPORT_COPIES_GLOBAL = [
    "graph/graph_stats.csv",
    "metrics/centrality_betweenness.csv",
    "metrics/centrality_closeness.csv",
    "metrics/centrality_degree.csv",
    "metrics/centrality_eigenvector.csv",
    "communities/communities.csv",
    "communities/hubs.csv",
]


def stage_report(config: PipelineConfig) -> tuple[dict, list[Path]]:
    gazetteer = categorize_mod.load_gazetteer(config.resource("gazetteer"))
    counts = {}
    outputs = []
    report_dir = config.out / "report"

    to_copy = list(REPORT_COPIES_GLOBAL)
    for lang in config.languages:
        to_copy.extend(rel.format(lang=lang) for rel in REPORT_COPIES)
    for rel in to_copy:
        (src,) = _require(config, rel)
        dst = report_dir / Path(rel).name
        atomic_write_text(dst, src.read_text(encoding="utf-8"))
        outputs.append(dst)

    for lang in config.languages:
        (tourism_path,) = _require(config, f"cluster/tourism_{lang}.jsonl")
        corpus = _load_stage_corpus(tourism_path)
        lemmas, stopwords = _lang_resources(config, lang)
        docs = _docs_for(corpus, lemmas, stopwords)
        freq: dict[str, int] = {}
        for doc in docs:
            for lemma in doc.lemmas:
                freq[lemma] = freq.get(lemma, 0) + 1
        freq_path = report_dir / f"word_frequencies_{lang}.csv"
        write_csv(
            freq_path,
            ["word", "frequency"],
            sorted(freq.items(), key=lambda kv: (-kv[1], kv[0])),
        )
        counts[f"vocabulary_{lang}"] = len(freq)
        outputs.append(freq_path)

        (pg_path,) = _require(config, f"graph/placegraph_{lang}.json")
        place_graph = _load_place_graph(pg_path)
        geojson = exports.export_geojson(place_graph, gazetteer)
        geo_path = report_dir / f"places_{lang}.geojson"
        write_json(geo_path, geojson)
        counts[f"geo_features_{lang}"] = len(geojson["features"])
        outputs.append(geo_path)
    return counts, outputs


_STAGE_FUNCS = {
    "ingest": stage_ingest,
    "explore": stage_explore,
    "filter": stage_filter,
    "topics": stage_topics,
    "cluster": stage_cluster,
    "categorize": stage_categorize,
    "sentiment": stage_sentiment,
    "graph": stage_graph,
    "metrics": stage_metrics,
    "communities": stage_communities,
    "report": stage_report,
}


def run_stage(name: str, config: PipelineConfig) -> dict:
    """Execute one stage, updating the run manifest; returns its counts."""
    if name not in _STAGE_FUNCS:
        raise StageError(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")
    config.out.mkdir(parents=True, exist_ok=True)
    log.info("stage %s starting", name)
    started = time.perf_counter()
    counts, outputs = _STAGE_FUNCS[name](config)
    elapsed = time.perf_counter() - started
    _record_stage(config, name, counts, outputs, elapsed)
    log.info("stage %s done in %.2fs: %s", name, elapsed, counts)
    return counts


def run_all(config: PipelineConfig) -> dict:
    """Run every stage in order; returns per-stage counts."""
    results = {}
    for name in STAGES:
        results[name] = run_stage(name, config)
    return results
