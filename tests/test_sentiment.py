from __future__ import annotations

import math
import random

import pytest
from hypothesis import given, strategies as st

from tweetflow.errors import DataError
from tweetflow.resources import (
    default_path,
    load_boosters,
    load_negators,
    load_sentiment_lexicon,
    load_valences,
)
from tweetflow.sentiment import (
    SentimentLexicon,
    SentimentResult,
    aggregate,
    score,
    scoring_tokens,
)

LEXICON = SentimentLexicon(
    valences={"good": 2.0, "great": 3.1, "bad": -2.5, "flat": 0.0},
    boosters={"very": 0.293, "slightly": -0.293},
    negators=frozenset({"not", "never"}),
)


class TestScore:
    def test_empty_tokens(self):
        result = score([], LEXICON)
        assert result.compound == 0.0
        assert result.label == "negative"

    def test_out_of_lexicon_only(self):
        assert score(["random", "words"], LEXICON).compound == 0.0

    def test_single_token_valence_two(self):
        result = score(["good"], LEXICON)
        assert result.compound == pytest.approx(2 / math.sqrt(4 + 15), abs=1e-12)
        assert result.compound == pytest.approx(0.4588, abs=1e-4)
        assert result.label == "positive"

    def test_negator_flips_scaled(self):
        plain = score(["good"], LEXICON)
        negated = score(["not", "good"], LEXICON)
        s_plain = 2.0
        s_negated = 2.0 * -0.74
        assert negated.compound == pytest.approx(
            s_negated / math.sqrt(s_negated**2 + 15), abs=1e-12
        )
        assert negated.label == "negative"
        assert plain.label == "positive"

    def test_negator_outside_window_ignored(self):
        tokens = ["not", "a", "b", "c", "good"]  # negator 4 positions back
        assert score(tokens, LEXICON).compound == score(["good"], LEXICON).compound

    def test_booster_intensifies(self):
        boosted = score(["very", "good"], LEXICON)
        expected_s = 2.0 + 0.293
        assert boosted.compound == pytest.approx(
            expected_s / math.sqrt(expected_s**2 + 15), abs=1e-12
        )

    def test_dampener_reduces(self):
        dampened = score(["slightly", "good"], LEXICON)
        expected_s = 2.0 - 0.293
        assert dampened.compound == pytest.approx(
            expected_s / math.sqrt(expected_s**2 + 15), abs=1e-12
        )

    def test_booster_on_negative_valence_intensifies_down(self):
        result = score(["very", "bad"], LEXICON)
        expected_s = -2.5 - 0.293
        assert result.compound == pytest.approx(
            expected_s / math.sqrt(expected_s**2 + 15), abs=1e-12
        )

    def test_zero_compound_is_negative_label(self):
        # symmetric valences cancel exactly
        lex = SentimentLexicon({"up": 1.0, "down": -1.0}, {}, frozenset())
        result = score(["up", "down"], lex)
        assert result.compound == 0.0
        assert result.label == "negative"

    def test_appending_neutral_tokens_beyond_window_invariant(self):
        base = score(["good"], LEXICON).compound
        extended = score(["good", "xx", "yy", "zz", "ww"], LEXICON).compound
        assert base == extended

    def test_monotone_adding_positive_token(self):
        rng = random.Random(0)
        words = ["good", "bad", "neutral", "very", "great"]
        for _ in range(50):
            tokens = [rng.choice(words) for _ in range(rng.randrange(6))]
            before = score(tokens, LEXICON).compound
            after = score(tokens + ["xx", "xx", "xx", "great"], LEXICON).compound
            assert after >= before

    def test_compound_strictly_inside_unit_interval(self):
        rng = random.Random(1)
        vocabulary = ["good", "great", "bad", "not", "very", "slightly", "xyz"]
        for _ in range(500):
            tokens = [rng.choice(vocabulary) for _ in range(rng.randrange(20))]
            compound = score(tokens, LEXICON).compound
            assert -1.0 < compound < 1.0

    @given(st.lists(st.sampled_from(["good", "bad", "not", "very", "zz"]), max_size=30))
    def test_sign_matches_summed_valence(self, tokens):
        result = score(tokens, LEXICON)
        assert result.label == ("positive" if result.compound > 0 else "negative")


class TestScoringTokens:
    def test_keeps_contractions(self):
        assert scoring_tokens("Don't like it!") == ["don't", "like", "it"]

    def test_strips_urls_and_mentions(self):
        assert scoring_tokens("nice http://a.co @you #sea") == ["nice", "sea"]


class TestAggregate:
    def test_balanced_group(self):
        results = [
            SentimentResult("1", 0.5, "positive"),
            SentimentResult("2", -0.5, "negative"),
        ]
        out = aggregate(results, {"1": "Sea", "2": "Sea"})
        group = out["Sea"]
        assert group.mean_compound == pytest.approx(0.0)
        assert group.pct_positive == 50.0 and group.pct_negative == 50.0

    def test_all_positive(self):
        results = [SentimentResult(str(i), 0.3, "positive") for i in range(4)]
        out = aggregate(results, {str(i): "Sea" for i in range(4)})
        assert out["Sea"].pct_positive == 100.0
        assert out["Sea"].pct_negative == 0.0

    def test_planted_shares(self):
        results = []
        grouping = {}
        for i in range(10):
            label = "positive" if i < 7 else "negative"
            results.append(SentimentResult(str(i), 0.2 if i < 7 else -0.2, label))
            grouping[str(i)] = "Hotel"
        out = aggregate(results, grouping)
        assert out["Hotel"].pct_positive == pytest.approx(70.0)
        assert out["Hotel"].pct_negative == pytest.approx(30.0)
        assert out["Hotel"].pct_positive + out["Hotel"].pct_negative == pytest.approx(100.0)

    def test_ungrouped_rejected(self):
        with pytest.raises(DataError):
            aggregate([SentimentResult("1", 0.1, "positive")], {})

    def test_empty_rejected(self):
        with pytest.raises(DataError):
            aggregate([], {})


class TestLexiconFiles:
    def test_bundled_english_lexicon(self):
        lexicon = load_sentiment_lexicon(
            default_path("sentiment_en.tsv"),
            default_path("boosters_en.txt"),
            default_path("negators_en.txt"),
        )
        assert lexicon.valences["beautiful"] > 0
        assert lexicon.valences["dirty"] < 0
        assert lexicon.boosters["very"] == pytest.approx(0.293)
        assert lexicon.boosters["slightly"] == pytest.approx(-0.293)
        assert "not" in lexicon.negators
        assert all(abs(v) <= 4.0 for v in lexicon.valences.values())

    def test_bundled_italian_lexicon(self):
        valences = load_valences(default_path("sentiment_it.tsv"))
        assert valences["bellissimo"] > 0 and valences["pessimo"] < 0

    def test_bad_valence_rejected(self, tmp_path):
        path = tmp_path / "lex.tsv"
        path.write_text("word\t9.5\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_valences(path)

    def test_bad_booster_rejected(self, tmp_path):
        path = tmp_path / "boosters.txt"
        path.write_text("very\n", encoding="utf-8")
        with pytest.raises(Exception):
            load_boosters(path)

    def test_negators_comments_skipped(self, tmp_path):
        path = tmp_path / "neg.txt"
        path.write_text("# comment\nnot\n\nno\n", encoding="utf-8")
        assert load_negators(path) == frozenset({"not", "no"})
