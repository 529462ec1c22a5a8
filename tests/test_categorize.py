from __future__ import annotations

import json
from dataclasses import asdict

import pytest

from tweetflow.categorize import (
    CategoryRule,
    CategoryRules,
    EntityMentions,
    Place,
    assign_category,
    category_report,
    extract_entities,
    load_category_rules,
    load_gazetteer,
)
from tweetflow.corpus import TweetRecord
from tweetflow.errors import DataError
from tweetflow.preprocess import TokenizedDoc
from tweetflow.resources import default_path


def doc(tweet_id, lemmas):
    return TokenizedDoc(tweet_id, tuple(lemmas))


@pytest.fixture
def rules():
    return CategoryRules(
        categories=(
            CategoryRule("Sea", frozenset({"beach", "sea"}), ()),
            CategoryRule("Historical", frozenset({"castle", "trullo"}), ()),
            CategoryRule("Nature", frozenset({"olive", "park"}), ()),
            CategoryRule("Hotel", frozenset({"hotel", "masseria"}), ()),
            CategoryRule("Restaurant", frozenset({"wine", "pasta"}), ()),
            CategoryRule("Music", frozenset({"concert", "dance"}), ()),
        ),
    )


@pytest.fixture
def gazetteer():
    return (
        Place("bari", "city", (), 41.1171, 16.8719),
        Place("otranto", "city", (), 40.1464, 18.4901),
        Place("polignano_a_mare", "city", ("polignano",), 40.9955, 17.2188),
        Place("mare_piccolo", "attraction", (), 40.48, 17.27),
        Place("torre_dell_orso", "attraction", ("Torre dell'Orso",), 40.2758, 18.4310),
        Place("castello_svevo", "attraction", ("castello svevo di bari",), 41.1292, 16.8675),
    )


LEXICON = {"bello": 2.8, "beautiful": 2.9, "dirty": -1.8, "neutralword": 0.0}


class TestAssignCategory:
    def test_keyword_match(self, rules):
        assert assign_category(doc("1", ["beach", "day"]), rules) == "Sea"

    def test_precedence(self, rules):
        assert assign_category(doc("1", ["hotel", "beach"]), rules) == "Sea"

    def test_all_matches_in_precedence_order(self, rules):
        # Sea, Hotel and Restaurant all match: each is chosen once those ahead drop out
        assert assign_category(doc("1", ["hotel", "beach", "wine"]), rules) == "Sea"
        assert assign_category(doc("2", ["hotel", "wine"]), rules) == "Hotel"
        assert assign_category(doc("3", ["wine"]), rules) == "Restaurant"

    def test_fallback(self, rules):
        assert assign_category(doc("1", ["nothing", "specific"]), rules) == "General Tourism"

    def test_fallback_when_nothing_matches(self, rules):
        assert assign_category(doc("1", ["xyz"]), rules) == "General Tourism"
        assert assign_category(doc("2", []), rules) == "General Tourism"

    def test_regex_match(self):
        import re

        rules = CategoryRules(
            categories=(CategoryRule("Sea", frozenset(), (re.compile(r"spiagg\w+"),)),),
        )
        assert assign_category(doc("1", ["spiaggia"]), rules) == "Sea"
        assert assign_category(doc("2", ["montagna"]), rules) == "General Tourism"

    def test_total_and_single_valued(self, rules):
        docs = [doc(str(i), words) for i, words in enumerate(
            [["beach"], ["castle"], ["x"], [], ["wine", "dance"]]
        )]
        for d in docs:
            category = assign_category(d, rules)
            assert isinstance(category, str) and category


class TestExtractEntities:
    def test_city_and_adjective(self, gazetteer):
        record = TweetRecord(id="1", text="che bello polignano a mare", lang="it")
        d = doc("1", ["bello", "polignano", "mare"])
        mentions = extract_entities(record, d, gazetteer, LEXICON)
        assert mentions.cities == ("polignano_a_mare",)
        assert mentions.adjectives == (("bello", "positive"),)

    def test_json_row_reads_back_equal(self, gazetteer):
        record = TweetRecord(
            id="1", text="che bello polignano a mare #puglia", lang="it", hashtags=("puglia",)
        )
        d = doc("1", ["bello", "polignano", "mare"])
        mentions = extract_entities(record, d, gazetteer, LEXICON)
        assert mentions.hashtags and mentions.adjectives
        row = json.loads(json.dumps(asdict(mentions)))
        assert EntityMentions.from_json_dict(row) == mentions

    def test_longest_match_over_substrings(self, gazetteer):
        record = TweetRecord(id="1", text="torre dell'orso e otranto", lang="it")
        mentions = extract_entities(record, doc("1", []), gazetteer, {})
        assert mentions.attractions == ("torre_dell_orso",)
        assert mentions.cities == ("otranto",)

    def test_no_hits(self, gazetteer):
        record = TweetRecord(id="1", text="nothing to see", lang="en")
        mentions = extract_entities(record, doc("1", ["nothing"]), gazetteer, {})
        assert mentions.cities == () and mentions.attractions == ()
        assert mentions.adjectives == ()

    def test_alias_resolves_to_canonical(self, gazetteer):
        record = TweetRecord(id="1", text="Visiting Polignano today", lang="en")
        mentions = extract_entities(record, doc("1", []), gazetteer, {})
        assert mentions.cities == ("polignano_a_mare",)

    def test_no_overlapping_submatch(self, gazetteer):
        # "castello svevo di bari" must consume "bari" inside the alias
        record = TweetRecord(id="1", text="il castello svevo di bari", lang="it")
        mentions = extract_entities(record, doc("1", []), gazetteer, {})
        assert mentions.attractions == ("castello_svevo",)
        assert mentions.cities == ()

    def test_separate_mentions_both_found(self, gazetteer):
        record = TweetRecord(id="1", text="castello svevo a bari stasera", lang="it")
        mentions = extract_entities(record, doc("1", []), gazetteer, {})
        assert mentions.attractions == ("castello_svevo",)
        assert mentions.cities == ("bari",)

    def test_zero_valence_not_an_adjective(self, gazetteer):
        record = TweetRecord(id="1", text="x", lang="en")
        mentions = extract_entities(record, doc("1", ["neutralword", "dirty"]), gazetteer, LEXICON)
        assert mentions.adjectives == (("dirty", "negative"),)

    def test_hashtags_carried_through(self, gazetteer):
        record = TweetRecord(id="1", text="x", lang="en", hashtags=("puglia",))
        mentions = extract_entities(record, doc("1", []), gazetteer, {})
        assert mentions.hashtags == ("puglia",)

    def test_idempotent(self, gazetteer):
        record = TweetRecord(id="1", text="bari e otranto al mare", lang="it")
        d = doc("1", ["bello"])
        first = extract_entities(record, d, gazetteer, LEXICON)
        second = extract_entities(record, d, gazetteer, LEXICON)
        assert first == second


class TestCategoryReport:
    def test_single_category_is_100_percent(self, rules):
        assignments = {"1": "Sea", "2": "Sea"}
        docs = [doc("1", ["beach"]), doc("2", ["sea"])]
        report = category_report(assignments, docs, rules=rules)
        by_name = {name: pct for name, _, pct in report.distribution}
        assert by_name["Sea"] == pytest.approx(100.0)

    def test_planted_split_40_60(self, rules):
        assignments = {}
        docs = []
        for i in range(40):
            assignments[f"s{i}"] = "Sea"
            docs.append(doc(f"s{i}", ["beach"]))
        for i in range(60):
            assignments[f"h{i}"] = "Hotel"
            docs.append(doc(f"h{i}", ["hotel"]))
        report = category_report(assignments, docs, rules=rules)
        by_name = {name: pct for name, _, pct in report.distribution}
        assert by_name["Sea"] == pytest.approx(40.0)
        assert by_name["Hotel"] == pytest.approx(60.0)
        assert sum(pct for _, _, pct in report.distribution) == pytest.approx(100.0, abs=0.1)

    def test_top_words_truncated_to_15(self, rules):
        assignments = {"1": "Sea"}
        docs = [doc("1", [f"w{i:02d}" for i in range(30)])]
        report = category_report(assignments, docs, rules=rules)
        assert len(report.top_words["Sea"]) == 15

    def test_top_words_shorter_when_vocab_small(self, rules):
        assignments = {"1": "Sea"}
        report = category_report(assignments, [doc("1", ["sea", "beach"])], rules=rules)
        assert len(report.top_words["Sea"]) == 2

    def test_empty_rejected(self, rules):
        with pytest.raises(DataError):
            category_report({}, [], rules=rules)


class TestBundledResources:
    def test_category_rules_load_and_order(self):
        rules = load_category_rules(default_path("category_rules.json"))
        assert [c.name for c in rules.categories] == [
            "Sea", "Historical", "Nature", "Hotel", "Restaurant", "Music",
        ]
        assert rules.fallback == "General Tourism"

    def test_gazetteer_loads_within_puglia_bounds(self):
        gaz = load_gazetteer(default_path("gazetteer.csv"))
        assert len(gaz) > 20
        for place in gaz:
            assert 39.7 <= place.lat <= 42.3, place
            assert 14.9 <= place.lon <= 18.6, place
            assert place.kind in ("city", "attraction")

    def test_gazetteer_duplicate_rejected(self, tmp_path):
        path = tmp_path / "gaz.csv"
        path.write_text(
            "name,kind,aliases,lat,lon\nbari,city,,41.1,16.8\nbari,city,,41.1,16.8\n",
            encoding="utf-8",
        )
        with pytest.raises(DataError):
            load_gazetteer(path)
