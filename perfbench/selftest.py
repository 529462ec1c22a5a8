"""Checks of the benchmark itself (not collected by the repository's test run).

    python3 -m pytest perfbench/selftest.py -q

Takes about a minute: it runs traced fixture-200 and graphs-rerun ops.
"""

from __future__ import annotations

import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))
sys.path.insert(0, str(BENCH_DIR))

import hostspeed  # noqa: E402
import layertrace  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

COMPUTED = (
    "topics.gibbs_tokens",
    "clustering.silhouette.pairs",
    "wordgraph.pairs_emitted",
    "netmetrics.bfs_arcs",
    "community.greedy_merges",
)


def traced_op(name: str, seed: int, work: Path) -> dict[str, float]:
    """Set up the workload in `work` and return the metrics of one traced op."""
    setup = run.Setup(name, seed, work)
    tracer = layertrace.Tracer()
    tracer.install()
    tracer.begin_op(0)
    try:
        ok, _ = setup.inprocess_op()
    finally:
        tracer.uninstall()
    assert ok
    return layertrace.op_metrics(tracer, 0, setup.deduped_tweets())


def counts(metrics: dict[str, float]) -> dict[str, float]:
    return {k: v for k, v in metrics.items() if layertrace.must_repeat(k)}


@pytest.mark.parametrize("name", ["fixture-200", "graphs-rerun"])
def test_counts_repeat_exactly(name, tmp_path):
    first = traced_op(name, 7, tmp_path / "a")
    second = traced_op(name, 7, tmp_path / "b")
    names = [k for k in first if k.endswith(".calls")] + list(COMPUTED)
    assert {k: first[k] for k in names} == {k: second[k] for k in names}
    assert counts(first) == counts(second)


def test_graphs_rerun_never_clusters_or_fits(tmp_path):
    metrics = traced_op("graphs-rerun", workloads.DEFAULT_SEED, tmp_path / "w")
    assert metrics["clustering.kmeans.calls"] == 0
    assert metrics["clustering.silhouette.calls"] == 0
    assert metrics["topics.fit_lda.calls"] == 0
    assert metrics["netmetrics.bfs_arcs"] > 0
    assert metrics["netmetrics.self_s"] + metrics["community.self_s"] > 0.5 * sum(
        seconds for _, seconds in layertrace.layer_self_table(metrics))


def test_tracing_leaves_the_program_as_it_was():
    from tweetflow import pipeline

    original = pipeline.load_corpus
    tracer = layertrace.Tracer()
    tracer.install()
    assert pipeline.load_corpus is not original
    tracer.uninstall()
    assert pipeline.load_corpus is original


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_inputs_follow_the_seed(name, tmp_path):
    def corpus(seed, sub):
        workloads.write_inputs(run.ROOT, name, seed, tmp_path / sub)
        return (tmp_path / sub / "corpus.jsonl").read_bytes()

    assert corpus(3, "a") == corpus(3, "b")
    assert corpus(3, "a") != corpus(4, "c")
    rows = corpus(3, "a").decode("utf-8").splitlines()
    assert len(rows) == workloads.WORKLOADS[name].rows


def test_fixture_default_seed_is_the_bundled_corpus(tmp_path):
    workloads.write_inputs(run.ROOT, "fixture-200", workloads.DEFAULT_SEED, tmp_path)
    bundled = run.ROOT / "tests" / "fixtures" / "corpus200.jsonl"
    assert (tmp_path / "corpus.jsonl").read_bytes() == bundled.read_bytes()


def test_sampler_keeps_bursts_inside_the_spans():
    with hostspeed.Sampler(interval=0.01, work=lambda: time.sleep(0.001)) as sampler:
        time.sleep(0.2)
    assert sampler.samples
    first_start, first_end, _ = sampler.samples[0]
    last_start, last_end, _ = sampler.samples[-1]
    assert sampler.inside([(first_start, last_end)]) == [f for _, _, f in sampler.samples]
    assert sampler.inside([(first_start, first_end)]) == [sampler.samples[0][2]]
    assert sampler.inside([(first_start + 1e-9, first_end)]) == []
    assert all(f > 0 for f in sampler.inside([(first_start, last_end)]))


def test_tail_needs_ten_ops_beyond_it():
    assert run.tail([1.0, 3.0, 2.0])[0] == 3.0
    values = [float(i) for i in range(1, 41)]  # 40 ops: p75 has 10 slower ops
    value, label = run.tail(values)
    assert value == 30.0 and label.startswith("p75 of 40")


def test_refuses_a_directory_without_the_program(tmp_path):
    shutil.copytree(BENCH_DIR, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "fixture-200", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_matches_the_code():
    import json

    bench = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    listed = [(w["name"], w["why"]) for w in bench["workloads"]]
    assert listed == [(w.name, w.why) for w in workloads.WORKLOADS.values() if w.name in dict(listed)]
    assert len(listed) >= 2
    assert [(m["name"], m["unit"]) for m in bench["per_layer"]] == [
        (name, layertrace.metric_unit(name)) for name in layertrace.metric_names()]
    assert max(m["bound"] for m in bench["end_to_end"]) == next(
        m["bound"] for m in bench["end_to_end"] if m["name"] == "setup_s")
