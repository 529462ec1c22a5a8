from __future__ import annotations

import json

import pytest

from tweetflow.corpus import TweetRecord, dedup, filter_language, load_corpus, save_corpus
from tweetflow.errors import DataError


def record(tweet_id, text, lang="en"):
    return TweetRecord(id=tweet_id, text=text, lang=lang)


def ids(corpus):
    return [r.id for r in corpus]


def write_jsonl(path, rows):
    path.write_text("\n".join(json.dumps(r) for r in rows) + "\n", encoding="utf-8")


class TestLoadCorpus:
    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("", encoding="utf-8")
        assert len(load_corpus(path)) == 0

    def test_hashtag_extraction(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [{"id": "1", "text": "Visit #Puglia"}])
        corpus = load_corpus(path)
        assert len(corpus) == 1
        assert corpus[0].hashtags == ("puglia",)

    def test_explicit_hashtags_win_over_extraction(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [{"id": "1", "text": "Visit #Puglia", "hashtags": ["sea"]}])
        assert load_corpus(path)[0].hashtags == ("sea",)

    def test_missing_lang_becomes_und(self, tmp_path):
        path = tmp_path / "one.jsonl"
        write_jsonl(path, [{"id": "1", "text": "hello"}])
        assert load_corpus(path)[0].lang == "und"

    def test_malformed_row_skipped_by_default(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "text": "ok"}\nnot json\n{"text": "no id"}\n', encoding="utf-8")
        corpus = load_corpus(path)
        assert ids(corpus) == ["1"]

    def test_malformed_row_aborts_in_strict_mode(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "1", "text": "ok"}\nnot json\n', encoding="utf-8")
        with pytest.raises(DataError, match="line 2"):
            load_corpus(path, strict=True)

    @pytest.mark.parametrize(
        "field, value, message",
        [
            ("hashtags", 5, "hashtags must be a list"),
            ("hashtags", "sea", "hashtags must be a list"),
            ("created_at", 5, "created_at must be a string or null"),
        ],
    )
    def test_mistyped_field_is_malformed_row(self, tmp_path, caplog, field, value, message):
        path = tmp_path / "typed.jsonl"
        write_jsonl(path, [{"id": "1", "text": "ok"}, {"id": "2", "text": "bad", field: value}])
        assert ids(load_corpus(path)) == ["1"]
        assert "typed.jsonl: skipping malformed row at line 2" in caplog.text
        with pytest.raises(DataError, match=f"line 2: {message}"):
            load_corpus(path, strict=True)

    def test_null_and_empty_created_at_accepted(self, tmp_path):
        path = tmp_path / "dates.jsonl"
        write_jsonl(path, [{"id": "1", "text": "a", "created_at": None},
                           {"id": "2", "text": "b", "created_at": ""}])
        corpus = load_corpus(path, strict=True)
        assert [r.created_at for r in corpus] == [None, None]

    def test_duplicate_id_rejected_in_strict_mode(self, tmp_path):
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, [{"id": "1", "text": "a"}, {"id": "1", "text": "b"}])
        with pytest.raises(DataError, match="duplicate id"):
            load_corpus(path, strict=True)

    @pytest.mark.parametrize("order", [1, -1], ids=["as-written", "reversed"])
    def test_repeated_id_drops_every_row_in_either_order(self, tmp_path, caplog, order):
        rows = [{"id": "1", "text": "first beach"}, {"id": "2", "text": "other"},
                {"id": "1", "text": "second sea"}][::order]
        path = tmp_path / "dup.jsonl"
        write_jsonl(path, rows)
        assert ids(load_corpus(path)) == ["2"]
        assert caplog.text.count("dup.jsonl: skipping every row of the repeated id '1', "
                                 "at lines 1, 3") == 1
        assert "malformed" not in caplog.text

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError):
            load_corpus(tmp_path / "nope.jsonl")

    def test_bad_format(self, tmp_path):
        path = tmp_path / "x.jsonl"
        write_jsonl(path, [{"id": "1", "text": "a"}])
        with pytest.raises(DataError):
            load_corpus(path, format="parquet")

    def test_csv_roundtrip(self, tmp_path):
        path = tmp_path / "rows.csv"
        path.write_text(
            "id,text,lang,created_at,hashtags\n"
            '1,"Visit #Puglia",en,2020-06-01T08:00:00Z,puglia|sea\n'
            "2,Ciao,it,,\n",
            encoding="utf-8",
        )
        corpus = load_corpus(path, format="csv")
        assert ids(corpus) == ["1", "2"]
        assert corpus[0].hashtags == ("puglia", "sea")
        assert corpus[0].created_at is not None
        assert corpus[1].hashtags == ()

    def test_fixture_corpus_loads_200(self, fixture_corpus_path):
        assert len(load_corpus(fixture_corpus_path)) == 200

    def test_preserves_input_order(self, tmp_path):
        path = tmp_path / "rows.jsonl"
        write_jsonl(path, [{"id": f"t{i}", "text": f"tweet number {i}"} for i in range(10)])
        assert ids(load_corpus(path)) == [f"t{i}" for i in range(10)]


class TestDedup:
    def test_identical_text_keeps_first(self):
        corpus = (record("1", "same text"), record("2", "same text"))
        assert ids(dedup(corpus)) == ["1"]

    def test_url_only_difference_collapses(self):
        corpus = (record("1", "see http://a.co"), record("2", "see http://b.co"))
        assert ids(dedup(corpus)) == ["1"]

    def test_all_distinct_unchanged(self):
        corpus = (record("1", "one"), record("2", "two"))
        assert ids(dedup(corpus)) == ["1", "2"]

    def test_idempotent(self):
        corpus = (record("1", "a b"), record("2", "A b!"), record("3", "c"))
        once = dedup(corpus)
        assert ids(dedup(once)) == ids(once)

    def test_never_grows(self):
        corpus = tuple(record(str(i), f"text {i % 4}") for i in range(12))
        assert len(dedup(corpus)) <= len(corpus)

    def test_classic_retweet_collapses_with_its_original(self):
        corpus = (
            record("1", "Lovely dinner in Lecce"),
            record("2", "RT @someone: Lovely dinner in Lecce"),
            record("3", "RT @someone: another text"),
        )
        assert ids(dedup(corpus)) == ["1", "3"]

    def test_rt_inside_the_text_is_kept(self):
        corpus = (record("1", "great beach"), record("2", "great beach RT @someone:"))
        assert ids(dedup(corpus)) == ["1", "2"]

    def test_fixture_has_three_duplicates(self, fixture_corpus_path):
        corpus = load_corpus(fixture_corpus_path)
        assert len(corpus) == 200
        assert len(dedup(corpus)) == 197


class TestFilterLanguage:
    def test_keeps_matching(self):
        corpus = (record("1", "a", "en"), record("2", "b", "it"), record("3", "c", "en"))
        assert ids(filter_language(corpus, "en")) == ["1", "3"]

    def test_empty_result(self):
        corpus = (record("1", "a", "en"),)
        assert len(filter_language(corpus, "it")) == 0

    def test_unsupported_language(self):
        with pytest.raises(DataError):
            filter_language((), "fr")

    def test_order_preserved(self):
        corpus = tuple(record(str(i), f"t {i}", "it" if i % 3 else "en") for i in range(9))
        filtered = filter_language(corpus, "it")
        assert ids(filtered) == [str(i) for i in range(9) if i % 3]

    def test_fixture_split_120_80(self, fixture_corpus_path):
        corpus = load_corpus(fixture_corpus_path)
        assert len(filter_language(corpus, "en")) == 120
        assert len(filter_language(corpus, "it")) == 80


class TestSaveCorpus:
    def test_roundtrip(self, tmp_path):
        corpus = (record("1", "Visit #Puglia"), record("2", "ciao", "it"))
        path = tmp_path / "out.jsonl"
        assert save_corpus(corpus, path) == 2
        reloaded = load_corpus(path)
        assert ids(reloaded) == ["1", "2"]
        assert reloaded[0].text == "Visit #Puglia"
