"""Out-of-program tracing: wrap the public functions of every tweetflow
module, record one span per call, and reduce the spans to per-layer metrics.

A layer is a module (``tweetflow.clustering`` -> ``clustering``). A span
records its name, start, end, parent span and op id; its self time is its
duration minus the durations of its direct children (the pipeline is one
sequential process, so children never overlap). Spans stay in memory and
are written once, when the run ends.

Computed counts (Gibbs tokens, silhouette pairs, BFS arcs, ...) are derived
from the recorded call arguments and return values after the op, outside
every span, so they cost no traced time and repeat exactly for the same
input. Keeping those objects alive until then also moves their deallocation
out of the traced op, which is why trace.overhead_ratio can read below 1.
"""

from __future__ import annotations

import importlib
import inspect
import json
import os
import pkgutil
import statistics
import time
from collections import defaultdict
from math import comb
from pathlib import Path

LAYERS = (
    "cli", "config", "pipeline", "corpus", "preprocess", "resources", "domainfilter",
    "topics", "clustering", "categorize", "sentiment", "wordgraph", "netmetrics",
    "community", "exports", "storage",
)
STAGES = (
    "ingest", "explore", "filter", "topics", "cluster", "categorize", "sentiment",
    "graph", "metrics", "communities", "report",
)
_STORAGE_WRITES = {"atomic_write_text", "write_csv", "write_json", "write_jsonl"}

# metric prefix -> the functions whose busy time (and call count) it sums
_FUNCTION_METRICS = {
    "corpus.load_corpus": ("corpus.load_corpus",),
    "corpus.dedup": ("corpus.dedup",),
    "preprocess.pipeline_doc": ("preprocess.pipeline_doc",),
    "preprocess.build_tfidf": ("preprocess.build_tfidf",),
    "domainfilter.explore": ("domainfilter.explore",),
    "domainfilter.match_strings": ("domainfilter.match_strings",),
    "topics.fit_lda": ("topics.fit_lda",),
    "clustering.kmeans": ("clustering.kmeans",),
    "clustering.silhouette": ("clustering.silhouette",),
    "categorize.assign_category": ("categorize.assign_category",),
    "categorize.extract_entities": ("categorize.extract_entities",),
    "categorize.category_report": ("categorize.category_report",),
    "sentiment.score": ("sentiment.score",),
    "sentiment.aggregate": ("sentiment.aggregate",),
    "wordgraph.build_word_graph": ("wordgraph.build_word_graph",),
    "wordgraph.build_place_graph": ("wordgraph.build_place_graph",),
    "netmetrics.betweenness": ("netmetrics.betweenness_centrality",),
    "netmetrics.closeness": ("netmetrics.closeness_centrality",),
    "netmetrics.eigenvector": ("netmetrics.eigenvector_centrality",),
    "netmetrics.degree": ("netmetrics.degree_centrality",),
    "community.label_propagation": ("community.label_propagation",),
    "community.greedy_modularity": ("community.greedy_modularity",),
    "community.modularity": ("community.modularity",),
    "community.hub_dominant": ("community.hub_dominant",),
    "exports.graphml": ("exports.word_graph_to_graphml", "exports.place_graph_to_graphml"),
    "exports.json": ("exports.word_graph_to_json", "exports.place_graph_to_json"),
    "exports.geojson": ("exports.export_geojson",),
    "storage.sha256_file": ("storage.sha256_file",),
    "storage.count_rows": ("storage.count_rows",),
}
_CALL_METRICS = (
    "corpus.load_corpus", "preprocess.pipeline_doc", "topics.fit_lda", "clustering.kmeans",
    "clustering.silhouette", "sentiment.score", "storage.sha256_file",
)


def metric_names() -> list[str]:
    """Every per-layer metric a traced run reports, in report order."""
    names = ["cli.startup_s"]
    names += [f"stage.{stage}.s" for stage in STAGES]
    for key in _FUNCTION_METRICS:
        names.append(f"{key}.s")
        if key in _CALL_METRICS:
            names.append(f"{key}.calls")
    names += [
        "corpus.records_read", "corpus.dedup.kept_ratio",
        "preprocess.docs_per_tweet",
        "resources.load.calls", "resources.load.s",
        "domainfilter.match_ratio",
        "topics.gibbs_tokens", "topics.gibbs_tokens_per_s", "topics.refine_rounds",
        "topics.selector_aborts",
        "clustering.kmeans.iters", "clustering.silhouette.pairs",
        "clustering.silhouette.pairs_per_s",
        "wordgraph.pairs_emitted", "wordgraph.clique_capped", "wordgraph.nodes",
        "wordgraph.edges",
        "netmetrics.bfs_arcs",
        "community.greedy_merges",
        "exports.bytes",
        "storage.write.calls", "storage.write.s", "storage.bytes_written",
    ]
    names += [f"{layer}.self_s" for layer in LAYERS]
    names += [f"{layer}.errors" for layer in LAYERS]
    names += ["trace.overhead_ratio"]
    return names


def metric_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith(("_s", ".s")):
        return "s"
    if name.endswith(("_ratio", ".docs_per_tweet")):
        return "ratio"
    if name.endswith(("bytes", "bytes_written")):
        return "bytes"
    return "count"


def must_repeat(name: str) -> bool:
    """Whether the metric is an operation count that the same input fixes.

    storage.bytes_written is not: it includes the manifest, whose recorded
    stage timings change length from run to run.
    """
    return metric_unit(name) not in ("s", "1/s") and name != "storage.bytes_written"


class Span:
    __slots__ = ("index", "name", "layer", "start", "end", "parent", "op", "error", "error_name",
                 "args", "kwargs", "result", "size")

    def __init__(self, index, name, layer, parent, op, args, kwargs):
        self.index, self.name, self.layer, self.parent, self.op = index, name, layer, parent, op
        self.args, self.kwargs = args, kwargs
        self.start = self.end = 0.0
        self.error = self.error_name = None
        self.result = None
        self.size = 0


class Tracer:
    """Installs timing wrappers around tweetflow's public functions."""

    def __init__(self):
        self.spans: list[Span] = []
        self.stack: list[int] = []
        self.op = -1
        self._originals: dict[str, object] = {}   # "layer.func" -> function
        self._bindings: list[tuple[object, str, object]] = []  # (module, attr, original)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        """Wrap every public function of every tweetflow module, and every
        name bound to one of them in any tweetflow module namespace."""
        import tweetflow

        modules = [importlib.import_module(f"tweetflow.{m.name}")
                   for m in pkgutil.iter_modules(tweetflow.__path__)]
        wrappers = {}
        for module in modules:
            layer = module.__name__.rsplit(".", 1)[1]
            for attr, obj in vars(module).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == module.__name__):
                    qualname = f"{layer}.{attr}"
                    self._originals[qualname] = obj
                    wrappers[id(obj)] = self._wrap(qualname, layer, obj)
        for module in modules:
            for attr, obj in list(vars(module).items()):
                wrapper = wrappers.get(id(obj))
                if wrapper is not None:
                    self._bindings.append((module, attr, obj))
                    setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original in self._bindings:
            setattr(module, attr, original)
        self._bindings.clear()

    def _wrap(self, qualname: str, layer: str, fn):
        spans, stack, clock = self.spans, self.stack, time.perf_counter
        is_write = layer == "storage" and fn.__name__ in _STORAGE_WRITES

        def wrapper(*args, **kwargs):
            span = Span(len(spans), qualname, layer, stack[-1] if stack else -1, self.op,
                        args, kwargs)
            stack.append(span.index)
            spans.append(span)
            span.start = clock()
            try:
                span.result = fn(*args, **kwargs)
            except BaseException as exc:
                span.end = clock()
                span.error, span.error_name = exc, type(exc).__name__
                raise
            else:
                span.end = clock()
                if is_write:
                    span.size = os.path.getsize(args[0])
                return span.result
            finally:
                stack.pop()

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- ops ----------------------------------------------------------------

    def begin_op(self, op: int) -> None:
        self.op = op

    def op_spans(self, op: int) -> list[Span]:
        return [s for s in self.spans if s.op == op]

    def dump(self, path: Path) -> None:
        """Write every span recorded in this run as one JSON document."""
        rows = [
            [s.name, s.op, s.parent, round(s.start, 7), round(s.end, 7), round(own, 7),
             s.error_name]
            for s, own in zip(self.spans, self_times(self.spans, 0))
        ]
        fields = ["name", "op", "parent", "start", "end", "self", "error"]
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"fields": fields, "spans": rows}), encoding="utf-8")

    def bound(self, span: Span) -> dict:
        """The span's call arguments by parameter name."""
        sig = inspect.signature(self._originals[span.name])
        bound = sig.bind(*span.args, **span.kwargs)
        bound.apply_defaults()
        return bound.arguments


def self_times(spans: list[Span], base: int) -> list[float]:
    """Self time per span; `base` is the global index of spans[0]."""
    out = [s.end - s.start for s in spans]
    for s in spans:
        if s.parent >= base:
            out[s.parent - base] -= s.end - s.start
    return out


def _components(adj: dict) -> int:
    seen: set = set()
    count = 0
    for start in adj:
        if start in seen:
            continue
        count += 1
        seen.add(start)
        frontier = [start]
        while frontier:
            node = frontier.pop()
            for nxt in adj[node]:
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return count


def op_metrics(tracer: Tracer, op: int, deduped_tweets: int) -> dict[str, float]:
    """Per-layer metrics of one traced op (everything but the run-level ones)."""
    from tweetflow.netmetrics import _adjacency  # private helper, never wrapped

    spans = tracer.op_spans(op)
    base = spans[0].index if spans else 0
    selfs = self_times(spans, base)
    by_name: dict[str, list[Span]] = defaultdict(list)
    for span in spans:
        by_name[span.name].append(span)

    def busy(names) -> float:
        return sum(s.end - s.start for n in names for s in by_name[n])

    def parent_layer(span: Span) -> str | None:
        return tracer.spans[span.parent].layer if span.parent >= 0 else None

    m: dict[str, float] = {}
    for key, names in _FUNCTION_METRICS.items():
        m[f"{key}.s"] = busy(names)
        if key in _CALL_METRICS:
            m[f"{key}.calls"] = sum(len(by_name[n]) for n in names)

    stage_s = dict.fromkeys(STAGES, 0.0)
    for span in by_name["pipeline.run_stage"]:
        stage_s[tracer.bound(span)["name"]] += span.end - span.start
    for stage, seconds in stage_s.items():
        m[f"stage.{stage}.s"] = seconds

    layer_self = dict.fromkeys(LAYERS, 0.0)
    layer_errors = dict.fromkeys(LAYERS, 0)
    for span, own in zip(spans, selfs):
        if span.layer in layer_self:
            layer_self[span.layer] += own
            layer_errors[span.layer] += span.error_name is not None
    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
        m[f"{layer}.errors"] = layer_errors[layer]

    loads = [s for s in spans if s.name.startswith("resources.load_")
             and parent_layer(s) != "resources"]
    m["resources.load.calls"] = len(loads)
    m["resources.load.s"] = sum(s.end - s.start for s in loads)

    m["corpus.records_read"] = sum(len(s.result) for s in by_name["corpus.load_corpus"] if s.error is None)
    dedup_in = sum(len(s.args[0]) for s in by_name["corpus.dedup"])
    dedup_out = sum(len(s.result) for s in by_name["corpus.dedup"] if s.error is None)
    m["corpus.dedup.kept_ratio"] = dedup_out / dedup_in if dedup_in else 0.0
    m["preprocess.docs_per_tweet"] = (
        m["preprocess.pipeline_doc.calls"] / deduped_tweets if deduped_tweets else 0.0
    )

    match_in = sum(len(tracer.bound(s)["corpus"]) for s in by_name["domainfilter.match_strings"])
    match_out = sum(len(s.result) for s in by_name["domainfilter.match_strings"] if s.error is None)
    m["domainfilter.match_ratio"] = match_out / match_in if match_in else 0.0

    gibbs = 0
    for span in by_name["topics.fit_lda"]:
        args = tracer.bound(span)
        gibbs += sum(len(doc.lemmas) for doc in args["docs"]) * args["config"].iterations
    m["topics.gibbs_tokens"] = gibbs
    m["topics.gibbs_tokens_per_s"] = gibbs / m["topics.fit_lda.s"] if m["topics.fit_lda.s"] else 0.0
    rounds = aborts = 0
    for span in by_name["topics.iterative_refine"]:
        if span.error is None:
            rounds += len(span.result.rounds)
        elif hasattr(span.error, "rounds"):  # SelectorAbort: its fits are discarded
            rounds += len(span.error.rounds)
            aborts += sum(1 for s in by_name["topics.fit_lda"] if s.parent == span.index)
    m["topics.refine_rounds"] = rounds
    m["topics.selector_aborts"] = aborts

    m["clustering.kmeans.iters"] = sum(
        s.result.n_iters for s in by_name["clustering.kmeans"] if s.error is None)
    pairs = 0
    for span in by_name["clustering.silhouette"]:
        args = tracer.bound(span)
        n = len(args["matrix"].rows)
        sample = args["sample_size"]
        pairs += (sample if sample is not None and sample < n else n) * n
    m["clustering.silhouette.pairs"] = pairs
    sil_s = m["clustering.silhouette.s"]
    m["clustering.silhouette.pairs_per_s"] = pairs / sil_s if sil_s else 0.0

    emitted = capped = nodes = edges = 0
    for span in by_name["wordgraph.build_word_graph"]:
        args = tracer.bound(span)
        cap = args["clique_cap"]
        for doc in args["docs"]:
            distinct = len(set(doc.lemmas))
            emitted += comb(min(distinct, cap), 2)
            capped += distinct > cap
        if span.error is None:
            nodes += len(span.result.nodes)
            edges += len(span.result.edges)
    m["wordgraph.pairs_emitted"] = emitted
    m["wordgraph.clique_capped"] = capped
    m["wordgraph.nodes"] = nodes
    m["wordgraph.edges"] = edges

    arcs = 0
    for name in ("netmetrics.betweenness_centrality", "netmetrics.closeness_centrality"):
        for span in by_name[name]:
            adj = _adjacency(span.args[0])
            arcs += len(adj) * sum(len(v) for v in adj.values())
    m["netmetrics.bfs_arcs"] = arcs

    merges = 0
    for span in by_name["community.greedy_modularity"]:
        adj = _adjacency(span.args[0])
        merges += len(adj) - _components(adj)
    m["community.greedy_merges"] = merges

    out_bytes = 0
    for names in (_FUNCTION_METRICS["exports.graphml"], _FUNCTION_METRICS["exports.json"]):
        for name in names:
            out_bytes += sum(len(s.result.encode("utf-8")) for s in by_name[name] if s.error is None)
    out_bytes += sum(
        len(json.dumps(s.result, indent=2, sort_keys=True, ensure_ascii=False).encode("utf-8"))
        for s in by_name["exports.export_geojson"] if s.error is None)
    m["exports.bytes"] = out_bytes

    writes = [s for s in spans if s.layer == "storage"
              and s.name.split(".", 1)[1] in _STORAGE_WRITES and parent_layer(s) != "storage"]
    m["storage.write.calls"] = len(writes)
    m["storage.write.s"] = sum(s.end - s.start for s in writes)
    m["storage.bytes_written"] = sum(s.size for s in writes)
    for span in spans:  # counted: let the op's data go
        span.args, span.kwargs, span.result, span.error = (), {}, None, None
    return m


def layer_self_table(m: dict[str, float]) -> list[tuple[str, float]]:
    """(layer, self seconds) sorted by descending self time."""
    return sorted(((layer, m[f"{layer}.self_s"]) for layer in LAYERS), key=lambda r: -r[1])


def combine(per_op: list[dict[str, float]]) -> tuple[dict[str, float], list[str]]:
    """Median of each timing across traced ops; counts must agree exactly.

    Returns the combined metrics and the names of counts that differed.
    """
    combined, unstable = {}, []
    for name in per_op[0]:
        values = [m[name] for m in per_op]
        if must_repeat(name):
            if len(set(values)) > 1:
                unstable.append(name)
            combined[name] = values[0]
        else:
            combined[name] = statistics.median(values)
    return combined, unstable
