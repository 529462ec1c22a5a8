from __future__ import annotations

import math

import pytest
from hypothesis import given, strategies as st

from tweetflow import resources
from tweetflow.corpus import filter_language, load_corpus
from tweetflow.errors import DataError
from tweetflow.preprocess import (
    TokenizedDoc,
    build_tfidf,
    extract_hashtags,
    normalize,
    pipeline_doc,
    tokenize,
)

import oracles

# Characters where a token rule could slip: other scripts' decimal digits,
# digits that are not decimal, combining marks, separators that are
# whitespace to the regex engine and to str.isspace alike (\x1c-\x1f,
# U+2028, U+3000) and one that is neither (U+200B), case folds that grow,
# and the markup the strip removes.
AWKWARD = (
    list("09٣५৩၉²½Ⅷ\u0301\u0308\u20dd\x1c\x1d\x1e\x1f\u200b\u3000\u00a0\u2028\x85")
    + list("ßİﬁǅΣς _'.,:/#@-\t\n\r😀")
    + ["http://t.co/x", "www.x.it", "@user", "#tag", "rt "]
)
RUNS = ["ab", "a1", "12", "٣٣", "²²", "ⅧⅧ"]
texts = st.lists(
    st.one_of(st.characters(), st.sampled_from(AWKWARD), st.sampled_from(RUNS)), max_size=40
).map("".join)


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
    """Lemmatizing, as the step of `pipeline_doc` before the stopword filter."""

    def test_table_lookup(self):
        assert pipeline_doc("1", "beaches", {"beaches": "beach"}, set()).lemmas == ("beach",)

    def test_unknown_passes_through(self):
        assert pipeline_doc("1", "xqzw", {"beaches": "beach"}, set()).lemmas == ("xqzw",)

    def test_italian_table(self):
        table = {"spiagge": "spiaggia", "belle": "bello"}
        assert pipeline_doc("1", "spiagge belle", table, set()).lemmas == ("spiaggia", "bello")

    def test_parallel_length(self):
        doc = pipeline_doc("1", "beaches sun beaches", {"beaches": "beach"}, set())
        assert doc.lemmas == ("beach", "sun", "beach")


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

    @pytest.mark.parametrize(
        "lang, text, lemmas",
        [
            ("en", "RT @someone: great beach", ("great", "beach")),
            ("it", "RT @qualcuno: bella spiaggia", ("bello", "spiaggia")),
        ],
    )
    def test_bundled_stoplists_drop_the_retweet_marker(self, lang, text, lemmas):
        doc = pipeline_doc(
            "1",
            text,
            resources.load_lemma_table(resources.default_path(f"lemmas_{lang}.tsv")),
            resources.load_stopwords(resources.default_path(f"stopwords_{lang}.txt")),
        )
        assert doc.lemmas == lemmas


class TestTokenizerOracle:
    """normalize, tokenize and pipeline_doc equal the substitute, collapse and
    split chain of tests/oracles.py on any text."""

    @pytest.mark.parametrize("text", [
        "", "a", "visit #Puglia!", "٣٣ 12 x٣ ab² ²² a\u0301b", "a\x1cb c\u200bd e\u3000f",
        "İstanbul STRASSE straße", "RT @user: ok http://t.co/x ok", "__ _a a_ 1_",
    ])
    def test_examples(self, text):
        assert normalize(text) == oracles.normalize(text)
        assert tokenize(normalize(text)) == oracles.tokenize(oracles.normalize(text))
        assert pipeline_doc("1", text, {}, set()) == oracles.pipeline_doc("1", text, {}, set())

    @given(texts)
    def test_normalize(self, text):
        assert normalize(text) == oracles.normalize(text)

    @given(texts)
    def test_tokenize_normalized_text(self, text):
        normalized = oracles.normalize(text)
        assert tokenize(normalized) == oracles.tokenize(normalized)

    @given(
        texts,
        st.dictionaries(st.sampled_from(["ab", "a1", "aa", "٣٣"]), st.sampled_from(["ab", "x"])),
        st.frozensets(st.sampled_from(["ab", "a1", "x", "zz"])),
    )
    def test_pipeline_doc(self, text, table, stoplist):
        assert pipeline_doc("7", text, table, stoplist) == oracles.pipeline_doc(
            "7", text, table, stoplist
        )


class TestTfIdf:
    def test_hand_computed_example(self):
        docs = [doc("1", ["sea", "sea"]), doc("2", ["sun"])]
        matrix = build_tfidf(docs)
        index = {t: i for i, t in enumerate(matrix.terms)}
        assert matrix.rows[0][index["sea"]] == pytest.approx(2 * math.log(2))
        assert matrix.rows[1][index["sun"]] == pytest.approx(math.log(2))

    def test_term_in_every_doc_weight_zero(self):
        docs = [doc("1", ["sea", "sun"]), doc("2", ["sea"])]
        matrix = build_tfidf(docs)
        index = {t: i for i, t in enumerate(matrix.terms)}
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
        n = len(docs)
        for d_i, document in enumerate(docs):
            for i, term in enumerate(matrix.terms):
                df = sum(term in other.lemmas for other in docs)
                stored = i in matrix.rows[d_i]
                assert stored == (term in document.lemmas and df < n)


def tfidf_entries(rows):
    """Each row's (term index, weight) pairs in the row's order. Every
    weight is a positive finite float, so == holds only for equal bits."""
    return [list(row.items()) for row in rows]


class TestTfIdfOracle:
    """build_tfidf's CSR against the dict rows of tests/oracles.py: the
    same terms, and every row's pairs in the same order with the same bits."""

    @pytest.mark.parametrize("lang", ["en", "it"])
    def test_fixture_rows_equal(self, fixture_corpus_path, lang):
        table = resources.load_lemma_table(resources.default_path(f"lemmas_{lang}.tsv"))
        stoplist = resources.load_stopwords(resources.default_path(f"stopwords_{lang}.txt"))
        docs = [pipeline_doc(r.id, r.text, table, stoplist)
                for r in filter_language(load_corpus(fixture_corpus_path), lang)]
        rows, terms = oracles.build_tfidf(docs)
        matrix = build_tfidf(docs)
        assert len(docs) > 50 and matrix.terms == terms
        assert tfidf_entries(matrix.rows) == tfidf_entries(rows)
        assert (matrix.starts.typecode, matrix.term_ids.typecode, matrix.weights.typecode) == (
            "q", "i", "d")

    @given(st.lists(st.lists(st.sampled_from(["sea", "sun", "sand", "dune", "è", "a"]),
                             max_size=12), min_size=1, max_size=10))
    def test_generated_docs_rows_equal(self, lemma_lists):
        docs = [doc(str(i), lemmas) for i, lemmas in enumerate(lemma_lists)]
        rows, terms = oracles.build_tfidf(docs)
        matrix = build_tfidf(docs)
        assert matrix.terms == terms
        assert tfidf_entries(matrix.rows) == tfidf_entries(rows)
        assert matrix.starts[0] == 0 and matrix.starts[-1] == len(matrix.term_ids)
        assert len(matrix.starts) == len(docs) + 1 and len(matrix.weights) == len(matrix.term_ids)


class TestVocabulary:
    def test_sorted_and_doc_freqs(self):
        docs = [doc("1", ["sun", "sea", "sun"]), doc("2", ["sea"])]
        matrix = build_tfidf(docs)
        assert matrix.terms == ("sea", "sun")
        # df(sea) = 2 = N gives weight 0; df(sun) = 1 gives count 2 times ln 2
        assert matrix.rows == ({1: 2 * math.log(2)}, {})
