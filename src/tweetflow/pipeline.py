"""Stage orchestration: each stage reads the previous stage's files from
the output directory, writes its own atomically, and records counts and
checksums in the run manifest.

A stage is `stage_<name>(config, out) -> counts`; it writes each file to
`out(rel)`, where `rel` is the run-relative path that the manifest, the
goldens and the readers use. Its first part is the stage that writes it.

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
import hashlib
import json
import logging
import resource
import time
from collections import Counter
from collections.abc import Callable, Iterator, Sequence
from contextlib import contextmanager
from dataclasses import asdict
from pathlib import Path
from typing import TypeVar

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
from .corpus import Corpus, dedup, filter_language, in_time_order, load_corpus, save_corpus
from .errors import DataError, StageError, TweetflowError
from .preprocess import ranked
from .storage import (
    _csv_table,
    atomic_write_text,
    count_rows,
    read_csv,
    read_jsonl,
    sha256_file,
    write_csv,
    write_json,
    write_jsonl,
)
from .wordgraph import build_place_graph, build_word_graph, graph_stats

log = logging.getLogger(__name__)

POLARITIES = ("positive", "negative")

Out = Callable[[str], Path]
T = TypeVar("T")

# The stage files that a later stage reads, each spelled once: the writer and
# every reader format the same template, whose first part names the writer.
CORPUS = "ingest/corpus_{lang}.jsonl"
MATCHED = "filter/matched_{lang}.jsonl"
REFINED = "topics/refined_{lang}.jsonl"
TOURISM = "cluster/tourism_{lang}.jsonl"
CATEGORIES = "categorize/categories_{lang}.csv"
ENTITIES = "categorize/entities_{lang}.jsonl"
SCORES = "sentiment/scores_{lang}.csv"
WORDGRAPH = "graph/wordgraph_{lang}_{polarity}.json"
PLACEGRAPH = "graph/placegraph_{lang}.json"
CATEGORIES_HEADER = ("tweet_id", "category")
SCORES_HEADER = ("tweet_id", "compound", "label")

# (language, text) -> the doc of its first tweet: each distinct text is
# tokenized once per run_all, or per run_stage called on its own. A run's
# config, and so its lemma and stopword files, is fixed, so the language
# decides the doc. None outside a run: nothing outlives the call that
# opened the map (_docs_scope).
_docs: dict[tuple[str, str], preprocess.TokenizedDoc] | None = None
# (run-relative path, sha256 of its bytes) -> the word graph read from them,
# prepared for the graph kernels: metrics and communities read each graph
# file once per run_all, and a file rewritten in between is read again.
# Opened and dropped with _docs.
_graphs: dict[tuple[str, bytes], netmetrics._Graph] | None = None


# ---------------------------------------------------------------------------
# manifest

def _peak_rss_mb() -> float:
    """The process's peak resident set so far (ru_maxrss, KiB on Linux), in MB."""
    return round(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, 2)


def _record_stage(
    config: PipelineConfig,
    stage: str,
    counts: dict,
    outputs: Sequence[Path],
    elapsed: float,
    peak_before: float,
) -> None:
    """Write the stage's entry into the run manifest. Its peak_rss_mb is the
    process's peak resident set so far, not the stage's own: a stage that
    allocates less than an earlier one repeats the earlier peak.
    rss_growth_mb is how far the stage raised that peak above
    `peak_before`, the peak when it started: 0 when an earlier stage set
    it."""
    path = config.out / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {"stages": {}}
    manifest["config"] = config.snapshot()
    peak = _peak_rss_mb()
    manifest["stages"][stage] = {
        "counts": counts,
        "elapsed_s": round(elapsed, 3),
        "peak_rss_mb": peak,
        "peak_rss_scope": "process peak so far",
        "rss_growth_mb": round(peak - peak_before, 2),
        "outputs": {
            str(output.relative_to(config.out)): {
                "rows": count_rows(output),
                "sha256": sha256_file(output),
            }
            for output in sorted(outputs)
        },
    }
    write_json(path, manifest)


# ---------------------------------------------------------------------------
# upstream readers

def _read(config: PipelineConfig, rel: str, reader: Callable[[Path], T]) -> T:
    """reader(path) on the upstream output `rel`. A missing file is a
    StageError; malformed content is a DataError naming the file."""
    path = config.out / rel
    if not path.is_file():
        raise StageError(f"missing upstream output {rel}: run the earlier stages first")
    try:
        return reader(path)
    except (ValueError, KeyError, TypeError, csv.Error, DataError) as exc:
        raise DataError(f"malformed upstream output {rel}: {type(exc).__name__}: {exc}") from exc


def _read_corpus(config: PipelineConfig, rel: str) -> Corpus:
    return _read(config, rel, lambda path: load_corpus(path, "jsonl", strict=True))


def _lang_docs(
    config: PipelineConfig, lang: str, template: str
) -> tuple[Corpus, list[preprocess.TokenizedDoc]]:
    """The language's stage corpus at `template` and its tokenized docs, in
    record order. The lemma table and stoplist are loaded on the first text
    that the run's map misses."""
    corpus = _read_corpus(config, template.format(lang=lang))
    tables = None
    docs = []
    for record in corpus:
        doc = _docs.get((lang, record.text))
        if doc is None:
            tables = tables or (resources.load_lemma_table(config.resource(f"lemmas_{lang}")),
                                resources.load_stopwords(config.resource(f"stopwords_{lang}")))
            doc = preprocess.pipeline_doc(record.id, record.text, *tables)
            _docs[lang, record.text] = doc
        elif doc.tweet_id != record.id:
            doc = preprocess.TokenizedDoc(record.id, doc.lemmas)
        docs.append(doc)
    return corpus, docs


def _prepared_word_graph(rel: str, path: Path) -> netmetrics._Graph:
    """The word graph in `path`, the run's file `rel`, prepared for the graph
    kernels; parsed only when the run's map does not hold its bytes."""
    data = path.read_bytes()
    key = (rel, hashlib.sha256(data).digest())
    graph = _graphs.get(key)
    if graph is None:
        graph = netmetrics._prepared(exports.word_graph_from_json(data.decode("utf-8")))
        _graphs[key] = graph
    return graph


def _word_graphs(
    config: PipelineConfig,
) -> Iterator[tuple[str, str, str, netmetrics._Graph]]:
    """(lang, polarity, network, graph) for every word graph of the run."""
    for lang in config.languages:
        for polarity in POLARITIES:
            rel = WORDGRAPH.format(lang=lang, polarity=polarity)
            graph = _read(config, rel, lambda path: _prepared_word_graph(rel, path))
            yield lang, polarity, f"{lang}_{polarity}", graph


def _per_tweet(
    config: PipelineConfig, rel: str, reader: Callable[[Path], dict[str, T]],
    corpus: Corpus, what: str,
) -> dict[str, T]:
    """reader's {tweet id: value} map of `rel`; a tweet of `corpus` it lacks is a DataError."""
    values = _read(config, rel, reader)
    missing = [record.id for record in corpus if record.id not in values]
    if missing:
        raise DataError(f"{rel} has no {what} for tweet {missing[0]!r}: rerun {rel.split('/')[0]}")
    return values


def _load_scores(path: Path) -> dict[str, tuple[float, str]]:
    scores = {}
    for tweet_id, compound, label in read_csv(path, SCORES_HEADER):
        if label not in POLARITIES:
            raise ValueError(f"tweet {tweet_id!r}: label {label!r} is not one of {POLARITIES}")
        scores[tweet_id] = (float(compound), label)
    return scores


def _load_entities(path: Path) -> list[categorize_mod.EntityMentions]:
    return [categorize_mod.EntityMentions.from_json_dict(row) for row in read_jsonl(path)]


# ---------------------------------------------------------------------------
# stages

def stage_ingest(config: PipelineConfig, out: Out) -> dict:
    raw = load_corpus(config.input, config.format, strict=config.strict)
    deduped = dedup(in_time_order(raw))
    counts = {
        "loaded": len(raw),
        "after_dedup": len(deduped),
        "dropped_duplicates": len(raw) - len(deduped),
    }
    subsets = {lang: filter_language(deduped, lang) for lang in config.languages}
    for lang, subset in subsets.items():
        if not subset:
            # every later stage needs records in each configured language
            raise DataError(
                f"{config.input.name}: 0 of {len(deduped)} deduplicated records are in "
                f"language {lang!r}; drop it from 'languages:' or restrict the run with --lang"
            )
    for lang, subset in subsets.items():
        counts[f"kept_{lang}"] = len(subset)
        save_corpus(subset, out(CORPUS.format(lang=lang)))
    counts["dropped_other_lang"] = len(deduped) - sum(map(len, subsets.values()))
    return counts


def stage_explore(config: PipelineConfig, out: Out) -> dict:
    counts = {}
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, CORPUS)
        report = domainfilter.explore(corpus, docs, config.explore_top_n)
        domainfilter.write_label_file(out(f"explore/words_{lang}.csv"), report.top_words)
        domainfilter.write_label_file(out(f"explore/hashtags_{lang}.csv"), report.top_hashtags)
        counts[f"words_{lang}"] = len(report.top_words)
        counts[f"hashtags_{lang}"] = len(report.top_hashtags)
    return counts


def stage_filter(config: PipelineConfig, out: Out) -> dict:
    tourism = domainfilter.load_dictionary(config.resource("dictionary"))
    counts = {}
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, CORPUS)
        matched = domainfilter.match_strings(corpus, docs, tourism, config.filter_min_hits)
        save_corpus(matched, out(MATCHED.format(lang=lang)))
        counts[f"in_{lang}"] = len(corpus)
        counts[f"matched_{lang}"] = len(matched)
    return counts


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
    tourism: frozenset[str],
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
            tourism,
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


def stage_topics(config: PipelineConfig, out: Out) -> dict:
    tourism = domainfilter.load_dictionary(config.resource("dictionary"))
    counts = {}
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, MATCHED)
        seed = config.stage_seed(f"topics:{lang}")
        try:
            result = _refine_corpus(config, corpus, docs, tourism, seed)
        except topics_mod.SelectorAbort as abort:
            raise DataError(
                f"topics: no topic of refinement round {len(abort.rounds) + 1} on the "
                f"{lang!r} tweets passes the topic selector; lower topics.overlap_threshold, "
                "drop the language from 'languages:' or restrict the run with --lang"
            ) from abort
        save_corpus(result.corpus, out(REFINED.format(lang=lang)))
        write_csv(
            out(f"topics/topic_words_{lang}.csv"),
            ["round", "topic_id", "rank", "word", "probability"],
            _topic_report_rows(result.rounds),
        )
        counts[f"in_{lang}"] = len(corpus)
        counts[f"refined_{lang}"] = len(result.corpus)
        counts[f"rounds_{lang}"] = len(result.rounds)
        counts[f"loglik_{lang}"] = [r.log_likelihood for r in result.rounds]
    return counts


def stage_cluster(config: PipelineConfig, out: Out) -> dict:
    tourism = domainfilter.load_dictionary(config.resource("dictionary"))
    # a cluster is on-domain by the topic rule, applied to its 10 most frequent lemmas
    select_tourism = topics_mod.dictionary_selector(
        tourism, top_n=10, threshold=config.overlap_threshold
    )
    counts = {}
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, CORPUS)
        route_a = _read_corpus(config, REFINED.format(lang=lang))
        # prepared once for every fit and score; select_k caps k at its
        # distinct rows, since k-means cannot keep more apart
        matrix = clustering._prepared(preprocess.build_tfidf(docs))

        report_rows: list[list] = []
        selected: set[int] = set()
        route_b: Corpus = ()
        route_b_docs: list[preprocess.TokenizedDoc] = []
        if matrix.n_distinct < config.cluster_k_min:
            # degenerate corpus: too few rows with any distinguishing terms
            log.warning(
                "cluster %s: only %d distinct non-empty TF-IDF rows, skipping this route",
                lang,
                matrix.n_distinct,
            )
            counts[f"best_k_{lang}"] = 0
        else:
            selection = clustering.select_k(
                matrix, (config.cluster_k_min, config.cluster_k_max),
                config.stage_seed(f"cluster:{lang}"),
                config.cluster_max_iters, config.cluster_sample_size,
            )
            fits = []
            summaries_by_k = {}
            for model, score in selection.fits:
                lemma_counts = [Counter() for _ in range(model.k)]
                for doc, cid in zip(docs, model.assignments):
                    lemma_counts[cid].update(doc.lemmas)
                sizes = Counter(model.assignments)
                summaries = [
                    topics_mod.TopicSummary(cid, ranked(counter, 10))
                    for cid, counter in enumerate(lemma_counts)
                ]
                summaries_by_k[model.k] = summaries
                report_rows.extend(
                    [model.k, f"{score:.4f}", s.topic_id, sizes[s.topic_id],
                     "|".join(w for w, _ in s.top_words)]
                    for s in summaries
                )
                fits.append({
                    "k": model.k,
                    "silhouette": score,
                    "n_iters": model.n_iters,
                    "wcss": model.wcss_history[-1],
                    **model.diagnostics,
                })
            best = selection.best
            selected = select_tourism(summaries_by_k[best.k])
            picked = [
                (record, doc)
                for record, doc, cid in zip(corpus, docs, best.assignments)
                if cid in selected
            ]
            route_b = tuple(record for record, _ in picked)
            route_b_docs = [doc for _, doc in picked]
            counts[f"best_k_{lang}"] = best.k
            counts[f"fits_{lang}"] = fits
        counts[f"clustered_{lang}"] = len(corpus)
        counts[f"tourism_clusters_{lang}"] = len(selected)
        counts[f"route_b_{lang}"] = len(route_b)

        if config.cluster_lda_refine and route_b:
            try:
                result = _refine_corpus(
                    config, route_b, route_b_docs, tourism,
                    config.stage_seed(f"cluster:lda:{lang}"),
                )
                route_b = result.corpus
                rounds = result.rounds
            except topics_mod.SelectorAbort as abort:
                rounds = abort.rounds
                # the clusters were already dictionary-selected; keep them
                log.warning(
                    "cluster %s: refinement found no on-domain topic, "
                    "keeping the unrefined cluster selection",
                    lang,
                )
            counts[f"route_b_loglik_{lang}"] = [r.log_likelihood for r in rounds]
            counts[f"route_b_refined_{lang}"] = len(route_b)

        merged = domainfilter.merge_results(route_a, route_b, config.merge_mode)
        if not merged:
            raise DataError(
                f"cluster: 0 of the {len(corpus)} clustered {lang!r} tweets are on-domain "
                f"({config.merge_mode} of {len(route_a)} topic-route and {len(route_b)} "
                "cluster-route tweets); later stages would have nothing to report"
            )
        counts[f"merged_{lang}"] = len(merged)
        write_csv(
            out(f"cluster/clusters_{lang}.csv"),
            ["k", "silhouette", "cluster_id", "size", "top_words"],
            report_rows,
        )
        save_corpus(merged, out(TOURISM.format(lang=lang)))
    return counts


def stage_categorize(config: PipelineConfig, out: Out) -> dict:
    rules = categorize_mod.load_category_rules(config.resource("category_rules"))
    place_index = categorize_mod.gazetteer_index(
        categorize_mod.load_gazetteer(config.resource("gazetteer"))
    )
    counts = {}
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, TOURISM)
        valences = resources.load_valences(config.resource(f"sentiment_{lang}"))
        assignments = {}
        mentions = []
        for record, doc in zip(corpus, docs):
            assignments[record.id] = categorize_mod.assign_category(doc, rules)
            mentions.append(categorize_mod.extract_entities(record, doc, place_index, valences))
        write_csv(
            out(CATEGORIES.format(lang=lang)),
            CATEGORIES_HEADER,
            [[record.id, assignments[record.id]] for record in corpus],
        )
        write_jsonl(out(ENTITIES.format(lang=lang)), [asdict(m) for m in mentions])
        report = categorize_mod.category_report(assignments, docs, rules, mentions)
        write_csv(
            out(f"categorize/category_distribution_{lang}.csv"),
            ["category", "count", "percent"],
            [[name, count, f"{pct:.2f}"] for name, count, pct in report.distribution],
        )
        for table, column, measure, top in (
            ("words", "word", "frequency", report.top_words),
            ("attractions", "attraction", "mentions", report.top_attractions),
        ):
            write_csv(
                out(f"categorize/category_top_{table}_{lang}.csv"),
                ["category", "rank", column, measure],
                [
                    [name, rank, item, n]
                    for name, _, _ in report.distribution
                    for rank, (item, n) in enumerate(top[name], start=1)
                ],
            )
        counts[f"categorized_{lang}"] = len(corpus)
    return counts


def stage_sentiment(config: PipelineConfig, out: Out) -> dict:
    counts = {}
    for lang in config.languages:
        corpus = _read_corpus(config, TOURISM.format(lang=lang))
        grouping = _per_tweet(
            config, CATEGORIES.format(lang=lang),
            lambda path: dict(read_csv(path, CATEGORIES_HEADER)), corpus, "category",
        )
        lexicon = resources.load_sentiment_lexicon(
            config.resource(f"sentiment_{lang}"),
            config.resource(f"boosters_{lang}"),
            config.resource(f"negators_{lang}"),
        )
        results = [
            sentiment_mod.score(sentiment_mod.scoring_tokens(record.text), lexicon, record.id)
            for record in corpus
        ]
        write_csv(
            out(SCORES.format(lang=lang)),
            SCORES_HEADER,
            [[r.tweet_id, f"{r.compound:.4f}", r.label] for r in results],
        )
        aggregated = sentiment_mod.aggregate(results, grouping) if results else {}
        write_csv(
            out(f"sentiment/by_category_{lang}.csv"),
            ["group", "count", "mean_compound", "pct_positive", "pct_negative"],
            [
                [g.group, g.count, f"{g.mean_compound:.4f}", f"{g.pct_positive:.2f}",
                 f"{g.pct_negative:.2f}"]
                for g in aggregated.values()
            ],
        )
        n_pos = sum(1 for r in results if r.label == "positive")
        counts[f"scored_{lang}"] = len(results)
        counts[f"positive_{lang}"] = n_pos
        counts[f"negative_{lang}"] = len(results) - n_pos
    return counts


def stage_graph(config: PipelineConfig, out: Out) -> dict:
    gazetteer = categorize_mod.load_gazetteer(config.resource("gazetteer"))
    kinds = {p.name: p.kind for p in gazetteer}
    counts = {}
    stats_rows = []
    for lang in config.languages:
        corpus, docs = _lang_docs(config, lang, TOURISM)
        scores = _per_tweet(config, SCORES.format(lang=lang), _load_scores, corpus, "score")
        mentions = _read(config, ENTITIES.format(lang=lang), _load_entities)

        for polarity in POLARITIES:
            split_docs = [
                doc for record, doc in zip(corpus, docs) if scores[record.id][1] == polarity
            ]
            graph = build_word_graph(split_docs, (lang, polarity), config.graph_clique_cap)
            stats = graph_stats(graph)
            stats_rows.append([
                f"{lang}_{polarity}", stats.nodes, stats.edges, f"{stats.density:.4f}",
                stats.max_degree, f"{stats.avg_degree:.2f}",
            ])
            rel = WORDGRAPH.format(lang=lang, polarity=polarity)
            atomic_write_text(out(rel), exports.word_graph_to_json(graph))
            graphml = out(rel.removesuffix(".json") + ".graphml")
            atomic_write_text(graphml, exports.word_graph_to_graphml(graph))
            counts[f"nodes_{lang}_{polarity}"] = stats.nodes
            counts[f"edges_{lang}_{polarity}"] = stats.edges
            counts[f"clique_capped_{lang}_{polarity}"] = graph.capped_tweets

        sentiments = {tid: compound for tid, (compound, _) in scores.items()}
        place_graph = build_place_graph(mentions, kinds, sentiments)
        rel = PLACEGRAPH.format(lang=lang)
        atomic_write_text(out(rel), exports.place_graph_to_json(place_graph))
        graphml = out(rel.removesuffix(".json") + ".graphml")
        atomic_write_text(graphml, exports.place_graph_to_graphml(place_graph))
        counts[f"places_{lang}"] = len(place_graph.nodes)

    write_csv(
        out("graph/graph_stats.csv"),
        ["Network", "Nodes", "Edges", "Density", "Max Degree", "Avg Degree"],
        stats_rows,
    )
    return counts


MEASURES = ("betweenness", "closeness", "degree", "eigenvector")


def stage_metrics(config: PipelineConfig, out: Out) -> dict:
    counts = {}
    rows: dict[str, list[list]] = {measure: [] for measure in MEASURES}
    for lang, polarity, network, graph in _word_graphs(config):
        n = len(graph.adj)
        if n < 2:
            log.warning("metrics: %s has fewer than 2 nodes, skipping", network)
            counts[f"skipped_{network}"] = 1
            continue
        scores = {
            "betweenness": netmetrics.betweenness_centrality(graph, normalized=True),
            "closeness": netmetrics.closeness_centrality(graph),
            "degree": netmetrics.degree_centrality(graph),
        }
        if graph.heads:
            scores["eigenvector"] = netmetrics.eigenvector_centrality(graph)
            counts[f"eigenvector_{network}"] = scores["eigenvector"].diagnostics
        else:
            log.warning("metrics: %s has no edges, skipping eigenvector", network)
        for measure, centrality in scores.items():
            top = ranked(centrality.values, config.metrics_top_k)
            for rank, (word, value) in enumerate(top, start=1):
                rows[measure].append(
                    [network, polarity, lang, rank, word, f"{value:.2f}"]
                )
        counts[f"ranked_{network}"] = min(config.metrics_top_k, n)
    for measure in MEASURES:
        write_csv(
            out(f"metrics/centrality_{measure}.csv"),
            ["network", "polarity", "language", "rank", "word", "score"],
            rows[measure],
        )
    return counts


def stage_communities(config: PipelineConfig, out: Out) -> dict:
    counts = {}
    community_rows = []
    hub_rows = []
    for lang, polarity, network, graph in _word_graphs(config):
        if not graph.heads:
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
                [network, algorithm, len(partition.sizes), len(chosen), f"{threshold:.4f}"]
            )
            membership[algorithm] = {
                "communities": partition.communities(),
                "modularity": partition.modularity,
                "threshold": threshold,
                "chosen": list(chosen),
            }
            counts[f"{algorithm}_{network}"] = len(partition.sizes)
        counts[f"lpa_{network}"] = lpa.diagnostics
        counts[f"greedy_{network}"] = greedy.diagnostics
        # hubs of the greedy partition's chosen communities
        greedy_choice = membership["greedy_modularity"]
        for group_no, cid in enumerate(greedy_choice["chosen"], start=1):
            hub = community.hub_dominant(graph, greedy_choice["communities"][cid])
            hub_rows.append([network, f"Group-{group_no}", hub])
        write_json(out(f"communities/membership_{lang}_{polarity}.json"), membership)
    write_csv(
        out("communities/communities.csv"),
        ["network", "algorithm", "community_count", "chosen_count", "threshold"],
        community_rows,
    )
    write_csv(out("communities/hubs.csv"), ["network", "community", "hub"], hub_rows)
    return counts


# Written by hand, not derived from the manifest: the report's bytes must
# not depend on which files an earlier stage happened to list. A path
# without {lang} is copied once.
REPORT_COPIES = [
    "topics/topic_words_{lang}.csv",
    "cluster/clusters_{lang}.csv",
    "categorize/category_distribution_{lang}.csv",
    "categorize/category_top_words_{lang}.csv",
    "categorize/category_top_attractions_{lang}.csv",
    "sentiment/by_category_{lang}.csv",
    "graph/graph_stats.csv",
    "metrics/centrality_betweenness.csv",
    "metrics/centrality_closeness.csv",
    "metrics/centrality_degree.csv",
    "metrics/centrality_eigenvector.csv",
    "communities/communities.csv",
    "communities/hubs.csv",
]


def stage_report(config: PipelineConfig, out: Out) -> dict:
    gazetteer = categorize_mod.load_gazetteer(config.resource("gazetteer"))
    counts = {}
    copies = (rel.format(lang=lang) for lang in config.languages for rel in REPORT_COPIES)
    for rel in dict.fromkeys(copies):
        text = _read(config, rel, lambda path: _csv_table(path)[0])
        atomic_write_text(out(f"report/{Path(rel).name}"), text)

    for lang in config.languages:
        _, docs = _lang_docs(config, lang, TOURISM)
        freq = Counter(lemma for doc in docs for lemma in doc.lemmas)
        write_csv(out(f"report/word_frequencies_{lang}.csv"), ["word", "frequency"], ranked(freq))
        counts[f"vocabulary_{lang}"] = len(freq)

        place_graph = _read(
            config,
            PLACEGRAPH.format(lang=lang),
            lambda path: exports.place_graph_from_json(path.read_text(encoding="utf-8")),
        )
        geojson = exports.export_geojson(place_graph, gazetteer)
        write_json(out(f"report/places_{lang}.geojson"), geojson)
        counts[f"geo_features_{lang}"] = len(geojson["features"])
    return counts


_STAGE_FUNCS = {name: globals()[f"stage_{name}"] for name in STAGES}


@contextmanager
def _docs_scope() -> Iterator[None]:
    """Open the run's maps of tokenized docs and prepared word graphs unless
    a caller has, and drop them when the block that opened them ends."""
    global _docs, _graphs
    if _docs is not None:
        yield
        return
    _docs, _graphs = {}, {}
    try:
        yield
    finally:
        _docs = _graphs = None


def run_stage(name: str, config: PipelineConfig) -> dict:
    """Execute one stage, updating the run manifest; returns its counts.
    Any failure that is not a TweetflowError becomes a StageError naming the stage."""
    if name not in _STAGE_FUNCS:
        raise StageError(f"unknown stage {name!r}; expected one of {', '.join(STAGES)}")
    outputs: list[Path] = []

    def out(rel: str) -> Path:
        if rel.split("/")[0] != name:
            raise StageError(f"stage {name} cannot write {rel}: outside {name}/")
        path = config.out / rel
        outputs.append(path)
        return path

    log.info("stage %s starting", name)
    started, peak_before = time.perf_counter(), _peak_rss_mb()
    try:
        config.out.mkdir(parents=True, exist_ok=True)
        with _docs_scope():
            counts = _STAGE_FUNCS[name](config, out)
        elapsed = time.perf_counter() - started
        _record_stage(config, name, counts, outputs, elapsed, peak_before)
    except TweetflowError:
        raise
    except Exception as exc:
        raise StageError(f"stage {name} failed: {type(exc).__name__}: {exc}") from exc
    log.info("stage %s done in %.2fs: %s", name, elapsed, counts)
    return counts


def run_all(config: PipelineConfig) -> dict:
    """Run every stage in order; returns per-stage counts. The stages share
    one map of tokenized docs and one of prepared word graphs."""
    with _docs_scope():
        return {name: run_stage(name, config) for name in STAGES}
