"""Edge-case corpora through `tweetflow all`: every run exits 0 or 2, never
3, and a refusal names the language that has nothing left to work on."""

from __future__ import annotations

import json
from pathlib import Path

import pytest
import yaml
from hypothesis import HealthCheck, given, settings, strategies as st

from tweetflow.cli import main

FIXTURES = Path(__file__).parent / "fixtures"
ROWS = [
    json.loads(line)
    for line in (FIXTURES / "corpus200.jsonl").read_text(encoding="utf-8").splitlines()
]
EN = [row for row in ROWS if row["lang"] == "en"]
IT = [row for row in ROWS if row["lang"] == "it"]
COMMON_TOURISM_WORDS = {
    "beach", "sea", "hotel", "trip", "travel", "visit", "food", "city", "vacation",
    "mare", "spiaggia", "albergo", "viaggio", "vacanza", "città",
}
STOPWORD_TEXTS = {
    "en": ["the and for", "are the so", "some such same"],
    "it": ["là cosa fa", "fare fatto ne", "può ce ne"],
}


def per_language(n):
    return EN[:n] + IT[:n]


def retexted(rows, text):
    return [{**row, "text": text(i, row)} for i, row in enumerate(rows)]


def run_all_on(directory: Path, rows: list[dict], out: str = "out") -> int:
    """`tweetflow all` with the fixture config on `rows`; returns the exit code."""
    corpus = directory / "corpus.jsonl"
    corpus.write_text("".join(json.dumps(row) + "\n" for row in rows), encoding="utf-8")
    payload = yaml.safe_load((FIXTURES / "pipeline.yaml").read_text(encoding="utf-8"))
    payload.update(input=str(corpus), out=str(directory / out))
    config = directory / "pipeline.yaml"
    config.write_text(yaml.safe_dump(payload), encoding="utf-8")
    return main(["all", "--config", str(config)])


# (corpus, exit code, the language a refusal names)
EDGE_CORPORA = {
    "only-en": (EN, 2, "it"),
    "only-it": (IT, 2, "en"),
    "empty-texts": (retexted(per_language(5), lambda i, row: ""), 2, "it"),
    "emoji-only": (retexted(per_language(5), lambda i, row: "😀🌊" * (i + 1)), 2, "it"),
    "empty-file": ([], 2, "en"),
    "one-per-language": (per_language(1), 2, "en"),
    "stopword-only": (
        retexted(per_language(3), lambda i, row: STOPWORD_TEXTS[row["lang"]][i % 3]), 2, "en"
    ),
    "identical-texts": (retexted(per_language(5), lambda i, row: "a day at the sea"), 2, "it"),
    # the topic selector keeps no topic of the Italian tweets
    "no-on-domain-topic": (
        per_language(7) + [{
            "id": "g0", "lang": "it", "created_at": "2020-06-01T08:00:30Z",
            "text": "Dinner at a lovely restaurant in Lecce: fresh seafood, pasta and primitivo wine",
        }],
        2, "it",
    ),
    "ten-per-language": (per_language(10), 0, None),
    "no-common-tourism-words": (
        [row for row in ROWS if not set(row["text"].casefold().split()) & COMMON_TOURISM_WORDS],
        0, None,
    ),
}


@pytest.mark.parametrize("name", list(EDGE_CORPORA))
def test_edge_corpus_exits_0_or_names_the_language(tmp_path, caplog, name):
    rows, code, lang = EDGE_CORPORA[name]
    assert run_all_on(tmp_path, rows) == code
    errors = [r.getMessage() for r in caplog.records if r.levelname == "ERROR"]
    if code == 0:
        assert errors == []
    else:
        assert len(errors) == 1 and errors[0].startswith("data error: ")
        assert f"{lang!r}" in errors[0]


TEXTS = st.one_of(
    st.sampled_from([row["text"] for row in ROWS[:40]]),
    st.sampled_from(["", "   ", "😀", "🌊🏖️ 😎"]),
    st.sampled_from([f"RT @user{i}: {row['text']}" for i, row in enumerate(ROWS[:20])]),
)
ROW = st.tuples(st.sampled_from(["en", "it", "fr"]), TEXTS, st.booleans())


# Each example runs `tweetflow all` twice on at most 40 rows (0.05-0.4 s a
# run), so the 20 examples add at most about 15 s to tier-1. The first
# `n` fixture rows of each language let some runs get past ingest and cluster.
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(n=st.integers(0, 12), rows=st.lists(ROW, max_size=16))
def test_generated_corpus_exits_0_or_2_with_the_same_bytes_twice(tmp_path_factory, n, rows):
    directory = tmp_path_factory.mktemp("generated")
    corpus = per_language(n) + [
        {"id": f"g{i}", "lang": lang, "text": text,
         "created_at": None if undated else f"2020-06-01T08:{i:02d}:30Z"}
        for i, (lang, text, undated) in enumerate(rows)
    ]
    codes = [run_all_on(directory, corpus, out) for out in ("first", "second")]
    assert codes[0] in (0, 2) and codes[0] == codes[1]
    first, second = (
        {
            path.relative_to(directory / out): path.read_bytes()
            for path in sorted((directory / out).rglob("*"))
            if path.is_file() and path.name != "manifest.json"
        }
        for out in ("first", "second")
    )
    assert first == second
