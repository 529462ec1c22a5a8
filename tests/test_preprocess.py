from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from tweetflow.errors import DataError
from tweetflow.preprocess import (
    TokenizedDoc,
    build_tfidf,
    build_vocabulary,
    extract_hashtags,
    lemmatize,
    normalize,
    pipeline_doc,
    tokenize,
)


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


class TestNormalize:
    def test_empty(self):
        assert normalize("") == ""

    def test_strips_urls_mentions_emoji(self):
        assert normalize("Visit #Puglia! http://t.co/x @user 😀") == "visit puglia"

    def test_casefold_and_punctuation(self):
        assert normalize("SEA,  sea; Sea.") == "sea sea sea"

    def test_apostrophe_splits(self):
        assert normalize("Torre dell'Orso") == "torre dell orso"

    def test_www_url(self):
        assert normalize("see www.example.com now") == "see now"

    @given(st.text(max_size=200))
    def test_idempotent(self, text):
        once = normalize(text)
        assert normalize(once) == once

    @given(st.text(max_size=200))
    def test_output_charset(self, text):
        out = normalize(text)
        assert "#" not in out and "@" not in out
        assert "  " not in out
        assert out == out.strip()


class TestTokenize:
    def test_basic(self):
        assert tokenize("visit puglia") == ["visit", "puglia"]

    def test_short_and_numeric_dropped(self):
        assert tokenize("a 1 22 sea") == ["sea"]

    def test_empty(self):
        assert tokenize("") == []

    def test_alphanumeric_kept(self):
        assert tokenize("covid19 2020") == ["covid19"]


class TestLemmatize:
    def test_table_lookup(self):
        assert lemmatize(["beaches"], {"beaches": "beach"}) == ["beach"]

    def test_unknown_passes_through(self):
        assert lemmatize(["xqzw"], {"beaches": "beach"}) == ["xqzw"]

    def test_italian_table(self):
        table = {"spiagge": "spiaggia", "belle": "bello"}
        assert lemmatize(["spiagge", "belle"], table) == ["spiaggia", "bello"]

    def test_parallel_length(self):
        tokens = ["beaches", "sun", "beaches"]
        assert len(lemmatize(tokens, {"beaches": "beach"})) == len(tokens)


class TestRemoveStopwords:
    """Stopword removal, as the step of `pipeline_doc` after lemmatising."""

    def test_removed(self):
        assert pipeline_doc("1", "the sea", {}, {"the"}) == TokenizedDoc("1", ("sea",))

    def test_empty(self):
        assert pipeline_doc("1", "", {}, {"the"}) == TokenizedDoc("1", ())

    def test_all_stopwords(self):
        assert pipeline_doc("1", "The a", {}, {"the", "a"}) == TokenizedDoc("1", ())


class TestHashtags:
    def test_extracted_lowercased(self):
        assert extract_hashtags("Visit #Puglia and #SALENTO") == ["puglia", "salento"]

    def test_none(self):
        assert extract_hashtags("no tags here") == []


class TestPipelineDoc:
    def test_lemmas_after_stopwords(self):
        d = pipeline_doc("1", "The beaches are beautiful", {"beaches": "beach"}, {"the", "are"})
        assert d.lemmas == ("beach", "beautiful")


class TestTfIdf:
    def test_hand_computed_example(self):
        docs = [doc("1", ["sea", "sea"]), doc("2", ["sun"])]
        matrix = build_tfidf(docs)
        index = matrix.vocabulary.index()
        assert matrix.rows[0][index["sea"]] == pytest.approx(2 * math.log(2))
        assert matrix.rows[1][index["sun"]] == pytest.approx(math.log(2))

    def test_term_in_every_doc_weight_zero(self):
        docs = [doc("1", ["sea", "sun"]), doc("2", ["sea"])]
        matrix = build_tfidf(docs)
        index = matrix.vocabulary.index()
        # df == N means idf == 0: the weight is not materialized
        assert index["sea"] not in matrix.rows[0]
        assert index["sun"] in matrix.rows[0]

    def test_single_document_all_zero(self):
        matrix = build_tfidf([doc("1", ["sea", "sun"])])
        assert matrix.rows[0] == {}

    def test_empty_corpus_rejected(self):
        with pytest.raises(DataError):
            build_tfidf([])

    def test_stored_weights_positive(self):
        docs = [doc(str(i), words) for i, words in enumerate(
            [["sea", "sun"], ["sun", "hill"], ["sea"], ["hill", "hill", "dune"]]
        )]
        matrix = build_tfidf(docs)
        assert all(w > 0 for row in matrix.rows for w in row.values())

    def test_row_permutation_permutes_rows(self):
        docs = [doc(str(i), words) for i, words in enumerate(
            [["sea", "sun"], ["sun"], ["dune", "sea"]]
        )]
        matrix = build_tfidf(docs)
        flipped = build_tfidf(docs[::-1])
        assert matrix.rows == flipped.rows[::-1]

    def test_weight_positive_iff_occurs_and_df_lt_n(self):
        docs = [doc(str(i), words) for i, words in enumerate(
            [["sea", "sun", "sand"], ["sun", "sand"], ["sand"]]
        )]
        matrix = build_tfidf(docs)
        index = matrix.vocabulary.index()
        n = len(docs)
        for d_i, document in enumerate(docs):
            for term, df in zip(matrix.vocabulary.terms, matrix.vocabulary.doc_freq):
                stored = index[term] in matrix.rows[d_i]
                assert stored == (term in document.lemmas and df < n)


class TestVocabulary:
    def test_sorted_and_doc_freqs(self):
        docs = [doc("1", ["sun", "sea", "sun"]), doc("2", ["sea"])]
        vocab = build_vocabulary(docs)
        assert vocab.terms == ("sea", "sun")
        assert vocab.doc_freq == (2, 1)
