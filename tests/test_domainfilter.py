from __future__ import annotations

import random
from collections import Counter

import pytest
from hypothesis import given, strategies as st

from tweetflow.corpus import TweetRecord
from tweetflow.domainfilter import (
    explore,
    load_dictionary,
    match_strings,
    merge_results,
    write_label_file,
)
from tweetflow.errors import DataError
from tweetflow.preprocess import TokenizedDoc


def record(tweet_id, text="x", hashtags=()):
    return TweetRecord(id=tweet_id, text=text, lang="en", hashtags=tuple(hashtags))


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


def ids(corpus):
    return [r.id for r in corpus]


def dictionary(tourism=("beach", "hotel", "travel")):
    return frozenset(tourism)


class TestExplore:
    def test_counts_with_multiplicity(self):
        corpus = (record("1"),)
        report = explore(corpus, [doc("1", ["sea", "sea", "sun"])])
        assert report.top_words == (("sea", 2), ("sun", 1))

    def test_no_hashtags(self):
        corpus = (record("1"),)
        report = explore(corpus, [doc("1", ["sea"])])
        assert report.top_hashtags == ()

    def test_hashtags_counted_across_records(self):
        corpus = (record("1", hashtags=["puglia"]), record("2", hashtags=["puglia", "sea"]))
        report = explore(corpus, [doc("1", []), doc("2", [])])
        assert report.top_hashtags == (("puglia", 2), ("sea", 1))

    def test_matches_brute_force_recount(self):
        rng = random.Random(0)
        words = ["sea", "sun", "sand", "wave", "rock"]
        docs = [doc(str(i), [rng.choice(words) for _ in range(10)]) for i in range(30)]
        corpus = tuple(record(str(i)) for i in range(30))
        report = explore(corpus, docs)
        recount = Counter(lem for d in docs for lem in d.lemmas)
        expected = sorted(recount.items(), key=lambda kv: (-kv[1], kv[0]))
        assert list(report.top_words) == expected

    def test_truncates_to_n(self):
        corpus = (record("1"),)
        report = explore(corpus, [doc("1", ["a1", "b2", "c3", "d4"])], n=2)
        assert len(report.top_words) == 2

    def test_frequencies_non_increasing_ties_lexicographic(self):
        corpus = (record("1"),)
        report = explore(corpus, [doc("1", ["pear", "apple", "apple", "mango"])])
        assert report.top_words == (("apple", 2), ("mango", 1), ("pear", 1))


class TestMatchStrings:
    def test_three_distinct_hits_kept(self):
        corpus = (record("1"),)
        out = match_strings(corpus, [doc("1", ["beach", "hotel", "travel"])], dictionary())
        assert ids(out) == ["1"]

    def test_two_hits_dropped(self):
        corpus = (record("1"),)
        out = match_strings(corpus, [doc("1", ["beach", "hotel"])], dictionary())
        assert ids(out) == []

    def test_multiplicity_counting(self):
        corpus = (record("1"),)
        out = match_strings(corpus, [doc("1", ["beach", "beach", "beach"])], dictionary())
        assert ids(out) == ["1"]

    def test_min_hits_zero_keeps_everything(self):
        corpus = (record("1"), record("2"))
        docs = [doc("1", ["nothing"]), doc("2", [])]
        out = match_strings(corpus, docs, dictionary(), min_hits=0)
        assert ids(out) == ["1", "2"]

    def test_monotone_in_min_hits(self):
        rng = random.Random(1)
        words = ["beach", "hotel", "travel", "rock", "mud"]
        corpus = tuple(record(str(i)) for i in range(40))
        docs = [doc(str(i), [rng.choice(words) for _ in range(6)]) for i in range(40)]
        kept_sizes = [
            len(match_strings(corpus, docs, dictionary(), min_hits=h)) for h in range(6)
        ]
        assert all(a >= b for a, b in zip(kept_sizes, kept_sizes[1:]))

    def test_not_tourism_terms_do_not_count(self):
        corpus = (record("1"),)
        out = match_strings(corpus, [doc("1", ["match", "match", "match"])], dictionary())
        assert ids(out) == []

    def test_empty_tourism_dictionary_rejected(self):
        corpus = (record("1"),)
        with pytest.raises(DataError):
            match_strings(corpus, [doc("1", [])], dictionary(tourism=()))


class TestMergeResults:
    def test_union(self):
        a = (record("1"), record("2"))
        b = (record("2"), record("3"))
        assert ids(merge_results(a, b)) == ["1", "2", "3"]

    def test_empty_b_identity(self):
        a = (record("1"),)
        assert ids(merge_results(a, ())) == ["1"]

    def test_disjoint_cardinalities_add(self):
        a = tuple(record(f"a{i}") for i in range(8160))
        b = tuple(record(f"b{i}") for i in range(2262))
        assert len(merge_results(a, b)) == 10422

    def test_exclusive_mode_drops_shared(self):
        a = (record("1"), record("2"))
        b = (record("2"), record("3"))
        assert ids(merge_results(a, b, mode="exclusive")) == ["1", "3"]

    def test_conflicting_texts_rejected(self):
        a = (record("1", "text A"),)
        b = (record("1", "text B"),)
        with pytest.raises(DataError):
            merge_results(a, b)

    def test_idempotent_on_own_output(self):
        a = (record("1"), record("2"))
        b = (record("2"), record("3"))
        merged = merge_results(a, b)
        again = merge_results(merged, merged)
        assert ids(again) == ids(merged)

    @given(
        st.sets(st.integers(0, 50)),
        st.sets(st.integers(0, 50)),
    )
    def test_union_cardinality_property(self, ids_a, ids_b):
        a = tuple(record(str(i)) for i in sorted(ids_a))
        b = tuple(record(str(i)) for i in sorted(ids_b))
        merged = merge_results(a, b)
        assert len(merged) == len(ids_a | ids_b)
        assert len(set(ids(merged))) == len(merged)

    def test_commutative_up_to_ordering(self):
        a = (record("1"), record("2"))
        b = (record("3"), record("2"))
        ab = merge_results(a, b)
        ba = merge_results(b, a)
        assert set(ids(ab)) == set(ids(ba))


class TestDictionaryFile:
    def test_roundtrip(self, tmp_path):
        path = tmp_path / "dict.csv"
        write_label_file(path, [("beach", 10), ("match", 5)])
        text = path.read_text(encoding="utf-8")
        assert text.splitlines()[0] == "term,label,frequency"
        # curate and reload
        curated = text.replace("beach,,", "beach,Tourism,").replace("match,,", "match,NotTourism,")
        path.write_text(curated, encoding="utf-8")
        loaded = load_dictionary(path)
        assert loaded == frozenset({"beach"})

    def test_blank_labels_ignored(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("term,label,frequency\nbeach,Tourism,3\nsun,,2\n", encoding="utf-8")
        loaded = load_dictionary(path)
        assert "sun" not in loaded

    def test_unknown_label_rejected(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("term,label,frequency\nbeach,Maybe,3\n", encoding="utf-8")
        with pytest.raises(DataError, match="dict.csv line 2: unknown label 'Maybe'"):
            load_dictionary(path)

    def test_conflicting_duplicate_rejected(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text(
            "term,label,frequency\nbeach,Tourism,3\nbeach,NotTourism,1\n", encoding="utf-8"
        )
        with pytest.raises(DataError, match="dict.csv line 3: term 'beach' labeled twice"):
            load_dictionary(path)

    def test_non_integer_frequency_rejected(self, tmp_path):
        path = tmp_path / "dict.csv"
        path.write_text("term,label,frequency\nbeach,Tourism,3\nsea,NotTourism,1.5\n", encoding="utf-8")
        with pytest.raises(DataError, match="dict.csv line 3: bad frequency '1.5'"):
            load_dictionary(path)

    def test_mixed_file_returns_only_the_tourism_terms(self, tmp_path, caplog):
        path = tmp_path / "dict.csv"
        path.write_text(
            "term,label,frequency\n"
            "Beach,Tourism,3\nmatch,NotTourism,5\nsun,,2\nhotel,Tourism,1\n"
            "beach,Tourism,3\ncovid,NotTourism,4\n,Tourism,9\n",
            encoding="utf-8",
        )
        assert load_dictionary(path) == frozenset({"beach", "hotel"})
        assert "dict.csv: ignored 1 unlabeled rows" in caplog.text

    def test_bundled_default_loads(self):
        from tweetflow.resources import default_path

        loaded = load_dictionary(default_path("dictionary_default.csv"))
        assert "beach" in loaded
        assert "covid" not in loaded  # labeled NotTourism
