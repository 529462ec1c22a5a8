"""The pipeline's outputs depend on the set of tweets, not on the input
file's row order: ingest puts the records in time order before dedup."""

from __future__ import annotations

import importlib.util
import json
import random
import tempfile
from datetime import datetime, timedelta, timezone
from pathlib import Path

import pytest
import yaml
from hypothesis import given, settings, strategies as st

from tweetflow.config import load_config
from tweetflow.corpus import TweetRecord, dedup, in_time_order
from tweetflow.pipeline import run_all, run_stage

FIXTURES = Path(__file__).parent / "fixtures"
SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "freeze_golden.py"
GOLDEN = json.loads((FIXTURES / "golden_checksums.json").read_text(encoding="utf-8"))
ROWS = (FIXTURES / "corpus200.jsonl").read_text(encoding="utf-8").splitlines(keepends=True)


def freeze_golden():
    spec = importlib.util.spec_from_file_location("freeze_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def fixture_config(directory: Path, rows: list[str]):
    """The fixture pipeline config, reading `rows` as its input corpus."""
    corpus = directory / "corpus.jsonl"
    corpus.write_text("".join(rows), encoding="utf-8")
    payload = yaml.safe_load((FIXTURES / "pipeline.yaml").read_text(encoding="utf-8"))
    payload.update(input=str(corpus), out=str(directory / "out"))
    path = directory / "pipeline.yaml"
    path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return load_config(path)


def shuffled(rows, seed):
    rows = list(rows)
    random.Random(seed).shuffle(rows)
    return rows


@pytest.mark.parametrize(
    "rows", [shuffled(ROWS, 5), ROWS[::-1]], ids=["shuffled", "reversed"]
)
def test_fixture_in_another_row_order_gives_the_golden_outputs(tmp_path, rows):
    script = freeze_golden()
    config = fixture_config(tmp_path, rows)
    run_all(config)
    assert script.differences(GOLDEN, script.run_checksums(config.out)) == []


# Each example runs the ingest stage once on the 200 fixture rows (about
# 40 ms), so the 25 examples add about 1 s to tier-1.
@settings(max_examples=25, deadline=None)
@given(order=st.permutations(range(len(ROWS))))
def test_ingest_outputs_do_not_depend_on_row_order(order):
    script = freeze_golden()
    with tempfile.TemporaryDirectory() as scratch:
        config = fixture_config(Path(scratch), [ROWS[i] for i in order])
        run_stage("ingest", config)
        produced = script.run_checksums(config.out)
    assert produced and all(GOLDEN[rel] == digest for rel, digest in produced.items())


def record(tweet_id, created_at=None, text=None):
    return TweetRecord(id=tweet_id, text=text or f"text {tweet_id}", lang="en",
                       created_at=created_at)


class TestInTimeOrder:
    def test_naive_time_reads_as_utc(self):
        noon_utc = datetime(2020, 6, 1, 12, 0)
        noon_rome = datetime(2020, 6, 1, 12, 0, tzinfo=timezone(timedelta(hours=2)))
        records = (record("a", noon_utc), record("b", noon_rome))
        assert [r.id for r in in_time_order(records)] == ["b", "a"]

    def test_same_instant_in_two_offsets_breaks_the_tie_by_id(self):
        utc = datetime(2020, 6, 1, 10, 0, tzinfo=timezone.utc)
        rome = datetime(2020, 6, 1, 12, 0, tzinfo=timezone(timedelta(hours=2)))
        assert [r.id for r in in_time_order((record("b", utc), record("a", rome)))] == ["a", "b"]

    def test_missing_time_sorts_last_then_by_id(self):
        when = datetime(2020, 6, 1, tzinfo=timezone.utc)
        records = (record("z"), record("y", when), record("x"))
        assert [r.id for r in in_time_order(records)] == ["y", "x", "z"]

    def test_ids_compare_as_strings(self):
        records = (record("9"), record("10"), record("100"))
        assert [r.id for r in in_time_order(records)] == ["10", "100", "9"]

    def test_dedup_after_it_keeps_the_earliest_copy(self):
        early = record("late-id", datetime(2020, 6, 1, tzinfo=timezone.utc), "same text")
        late = record("early-id", datetime(2020, 6, 2, tzinfo=timezone.utc), "same text")
        for records in ((early, late), (late, early)):
            assert [r.id for r in dedup(in_time_order(records))] == ["late-id"]
