"""Sub-category assignment and gazetteer entity extraction.

Categories are exclusive: the first rule in precedence order that matches
a tweet's lemma stream wins, with a configurable fallback for tweets that
are on-domain but unspecific. Place extraction is a longest-match scan of
the normalized text against the gazetteer, so "polignano a mare" is found
before its substring "mare".
"""

from __future__ import annotations

import json
import logging
import re
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import TweetRecord
from .errors import DataError
from .preprocess import TokenizedDoc, normalize, ranked
from .storage import _csv_records

log = logging.getLogger(__name__)

DEFAULT_FALLBACK = "General Tourism"
# per-category lengths of the category report's frequent-lemma and attraction lists
REPORT_TOP_WORDS = 15
REPORT_TOP_ATTRACTIONS = 3

CITY = "city"
ATTRACTION = "attraction"


@dataclass(frozen=True)
class CategoryRule:
    name: str
    keywords: frozenset[str]
    regexes: tuple[re.Pattern, ...]


@dataclass(frozen=True)
class CategoryRules:
    categories: tuple[CategoryRule, ...]
    fallback: str = DEFAULT_FALLBACK

    def names(self) -> list[str]:
        return [c.name for c in self.categories] + [self.fallback]


@dataclass(frozen=True)
class Place:
    name: str          # canonical, multiword joined with '_'
    kind: str          # city | attraction
    aliases: tuple[str, ...]
    lat: float
    lon: float

    def match_forms(self) -> list[tuple[str, ...]]:
        """Token sequences this place can appear as in normalized text."""
        forms = {tuple(normalize(self.name.replace("_", " ")).split())}
        for alias in self.aliases:
            toks = tuple(normalize(alias).split())
            if toks:
                forms.add(toks)
        return sorted(forms)


@dataclass(frozen=True)
class EntityMentions:
    tweet_id: str
    cities: tuple[str, ...]
    attractions: tuple[str, ...]
    hashtags: tuple[str, ...]
    adjectives: tuple[tuple[str, str], ...]  # (adjective, positive|negative)

    @classmethod
    def from_json_dict(cls, row: dict) -> EntityMentions:
        """Inverse of dataclasses.asdict after a JSON round trip (lists back to tuples)."""
        return cls(
            tweet_id=row["tweet_id"],
            cities=tuple(row["cities"]),
            attractions=tuple(row["attractions"]),
            hashtags=tuple(row["hashtags"]),
            adjectives=tuple((a, p) for a, p in row["adjectives"]),
        )


def load_category_rules(path: str | Path) -> CategoryRules:
    """Read the category -> keywords/regexes config (JSON)."""
    path = Path(path)
    if not path.is_file():
        raise DataError(f"category rules file not found: {path}")
    try:
        raw = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise DataError(f"{path.name} line {exc.lineno}: invalid JSON ({exc.msg})") from None
    if not isinstance(raw, dict):
        raise DataError(f"{path.name}: the top level is not an object")
    entries, fallback = raw.get("categories", []), raw.get("fallback", DEFAULT_FALLBACK)
    if not isinstance(entries, list) or not isinstance(fallback, str):
        raise DataError(f"{path.name}: 'categories' must be a list and 'fallback' a string")
    categories = []
    seen = {fallback}  # the fallback is a category name too
    for number, entry in enumerate(entries, start=1):
        if not isinstance(entry, dict) or not isinstance(entry.get("name"), str):
            raise DataError(f"{path.name}: category {number} has no name")
        name = entry["name"]
        if name in seen:
            raise DataError(f"{path.name}: duplicate category name {name!r}")
        seen.add(name)
        for key in ("keywords", "regexes"):
            value = entry.get(key, [])
            if not isinstance(value, list) or not all(isinstance(v, str) for v in value):
                raise DataError(f"{path.name}: category {name!r}: {key!r} must list strings")
        try:
            regexes = tuple(re.compile(p) for p in entry.get("regexes", []))
        except re.error as exc:
            raise DataError(
                f"{path.name}: category {name!r}: bad regex {exc.pattern!r} ({exc})"
            ) from None
        categories.append(
            CategoryRule(
                name=name,
                keywords=frozenset(k.casefold() for k in entry.get("keywords", [])),
                regexes=regexes,
            )
        )
    return CategoryRules(tuple(categories), fallback)


def load_gazetteer(path: str | Path) -> tuple[Place, ...]:
    """Read the name,kind,aliases,lat,lon gazetteer CSV."""
    path = Path(path)
    places = []
    seen = set()
    for line_no, row in _csv_records(path, "gazetteer"):
        name = (row.get("name") or "").strip()
        kind = (row.get("kind") or "").strip()
        if not name:
            continue
        if name in seen:
            raise DataError(f"{path.name} line {line_no}: duplicate place {name!r}")
        if kind not in (CITY, ATTRACTION):
            raise DataError(f"{path.name} line {line_no}: bad kind {kind!r}")
        seen.add(name)
        aliases = tuple(a for a in (row.get("aliases") or "").split("|") if a)
        try:
            lat, lon = float(row["lat"]), float(row["lon"])
        except (KeyError, TypeError, ValueError):
            raise DataError(
                f"{path.name} line {line_no}: bad lat/lon "
                f"{row.get('lat')!r}, {row.get('lon')!r}"
            ) from None
        places.append(Place(name=name, kind=kind, aliases=aliases, lat=lat, lon=lon))
    return tuple(places)


def assign_category(doc: TokenizedDoc, rules: CategoryRules) -> str:
    """First matching category in precedence order, else the fallback."""
    lemma_set = set(doc.lemmas)
    lemma_text = " ".join(doc.lemmas)
    for rule in rules.categories:
        if lemma_set & rule.keywords:
            return rule.name
        if any(rx.search(lemma_text) for rx in rule.regexes):
            return rule.name
    return rules.fallback


def gazetteer_index(places: Sequence[Place]) -> dict[int, dict[tuple[str, ...], Place]]:
    """Form length -> {match form -> its place}, longest forms first, as
    extract_entities takes it. An empty form can match nothing and is left out."""
    index: dict[int, dict[tuple[str, ...], Place]] = {}
    for place in places:
        for form in place.match_forms():
            if not form:
                continue
            forms = index.setdefault(len(form), {})
            existing = forms.get(form)
            # deterministic collision rule: lexicographically smaller canonical wins
            if existing is None or place.name < existing.name:
                forms[form] = place
    return {length: index[length] for length in sorted(index, reverse=True)}


def extract_entities(
    record: TweetRecord,
    doc: TokenizedDoc,
    index: Mapping[int, Mapping[tuple[str, ...], Place]],
    adjective_lexicon: Mapping[str, float],
) -> EntityMentions:
    """Scan for place mentions, polarity-tagged adjectives, and hashtags.

    The place scan is greedy longest-match of the `gazetteer_index` forms
    over the normalized raw text, so no reported mention is a
    token-substring of another mention at the same position. Adjectives
    are lemmas found in the valence lexicon.
    """
    tokens = normalize(record.text).split()
    cities: list[str] = []
    attractions: list[str] = []
    pos = 0
    while pos < len(tokens):
        for length, forms in index.items():
            # a window cut short by the text's end is shorter than every form here
            place = forms.get(tuple(tokens[pos:pos + length]))
            if place is not None:
                (cities if place.kind == CITY else attractions).append(place.name)
                pos += length
                break
        else:
            pos += 1

    adjectives = []
    for lemma in doc.lemmas:
        valence = adjective_lexicon.get(lemma)
        if valence:
            adjectives.append((lemma, "positive" if valence > 0 else "negative"))

    return EntityMentions(
        tweet_id=record.id,
        cities=tuple(cities),
        attractions=tuple(attractions),
        hashtags=record.hashtags,
        adjectives=tuple(adjectives),
    )


@dataclass(frozen=True)
class CategoryReport:
    distribution: tuple[tuple[str, int, float], ...]          # (category, count, percent)
    top_words: dict[str, tuple[tuple[str, int], ...]]          # category -> top lemmas
    top_attractions: dict[str, tuple[tuple[str, int], ...]]    # category -> top attractions


def category_report(
    assignments: Mapping[str, str],
    docs: Sequence[TokenizedDoc],
    rules: CategoryRules,
    mentions: Sequence[EntityMentions] = (),
) -> CategoryReport:
    """Distribution plus per-category frequent lemmas and attractions.

    `assignments` maps tweet_id to category; docs (and mentions, if given)
    must cover exactly the assigned tweets. Categories follow the order of
    `rules`, fallback last. Percentages sum to 100 within rounding.
    """
    if not assignments:
        raise DataError("no category assignments to report")
    counts: Counter = Counter(assignments.values())
    total = sum(counts.values())
    names = rules.names()
    for name in counts:
        if name not in names:
            names.append(name)
    distribution = tuple(
        (name, counts.get(name, 0), 100.0 * counts.get(name, 0) / total)
        for name in names
    )

    words_by_cat: dict[str, Counter] = {name: Counter() for name in names}
    for doc in docs:
        cat = assignments.get(doc.tweet_id)
        if cat is None:
            raise DataError(f"tweet {doc.tweet_id!r} has no category")
        words_by_cat[cat].update(doc.lemmas)
    attractions_by_cat: dict[str, Counter] = {name: Counter() for name in names}
    for mention in mentions:
        cat = assignments.get(mention.tweet_id)
        if cat is None:
            raise DataError(f"tweet {mention.tweet_id!r} has no category")
        attractions_by_cat[cat].update(mention.attractions)

    return CategoryReport(
        distribution=distribution,
        top_words={name: ranked(words_by_cat[name], REPORT_TOP_WORDS) for name in names},
        top_attractions={
            name: ranked(attractions_by_cat[name], REPORT_TOP_ATTRACTIONS) for name in names
        },
    )
