"""Rule-based lexicon sentiment scoring with a compound score in [-1, 1].

Each lexicon token contributes its valence, adjusted by boosters and
negators found within the three preceding tokens; the summed valence s is
squashed to s / sqrt(s^2 + 15). Scoring uses its own light tokenizer that
keeps contractions intact ("don't" stays one token), because negators
would not survive the aggressive corpus normalization.
"""

from __future__ import annotations

import math
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DataError
from .floats import _sum_left
from .preprocess import _strip_markup

NEGATION_SCALAR = -0.74
BOOSTER_INCREMENT = 0.293
NORMALIZATION_CONSTANT = 15.0
MODIFIER_WINDOW = 3

_KEEP_RE = re.compile(r"[^\w\s']")


@dataclass(frozen=True)
class SentimentLexicon:
    valences: Mapping[str, float]   # token -> valence in [-4, 4]
    boosters: Mapping[str, float]   # token -> signed increment
    negators: frozenset[str]


@dataclass(frozen=True)
class SentimentResult:
    tweet_id: str
    compound: float
    label: str  # "positive" iff compound > 0 else "negative"


def scoring_tokens(text: str) -> list[str]:
    """Tokenize raw text for scoring: casefold, strip URLs/mentions/'#',
    keep apostrophes so contractions like "don't" survive."""
    t = _KEEP_RE.sub(" ", _strip_markup(text))
    return [tok.strip("'") for tok in t.split() if tok.strip("'")]


def score(tokens: Sequence[str], lexicon: SentimentLexicon, tweet_id: str = "") -> SentimentResult:
    """Score a token stream; compound is strictly inside (-1, 1).

    For each lexicon hit, boosters in the preceding window push the
    valence away from (or toward) zero along its own sign, then each
    negator flips it scaled by 0.74.
    """
    s = 0.0
    valences = lexicon.valences
    boosters = lexicon.boosters
    negators = lexicon.negators
    for i, tok in enumerate(tokens):
        v = valences.get(tok)
        if v is None or v == 0.0:
            continue
        preceding = tokens[max(0, i - MODIFIER_WINDOW):i]
        for prev in preceding:
            inc = boosters.get(prev)
            if inc is not None and v != 0.0:
                v += inc if v > 0 else -inc
        for prev in preceding:
            if prev in negators:
                v *= NEGATION_SCALAR
        s += v
    compound = s / math.sqrt(s * s + NORMALIZATION_CONSTANT)
    label = "positive" if compound > 0 else "negative"
    return SentimentResult(tweet_id, compound, label)


@dataclass(frozen=True)
class GroupSentiment:
    group: str
    count: int
    mean_compound: float
    pct_positive: float
    pct_negative: float


def aggregate(
    results: Sequence[SentimentResult], grouping: Mapping[str, str]
) -> dict[str, GroupSentiment]:
    """Mean compound and positive/negative shares per group.

    `grouping` maps tweet_id to its group (category or place); every
    result must be grouped.
    """
    if not results:
        raise DataError("no sentiment results to aggregate")
    buckets: dict[str, list[SentimentResult]] = {}
    for result in results:
        group = grouping.get(result.tweet_id)
        if group is None:
            raise DataError(f"tweet {result.tweet_id!r} has no group")
        buckets.setdefault(group, []).append(result)
    out = {}
    for group in sorted(buckets):
        members = buckets[group]
        n = len(members)
        n_pos = sum(1 for r in members if r.label == "positive")
        out[group] = GroupSentiment(
            group=group,
            count=n,
            mean_compound=_sum_left(r.compound for r in members) / n,
            pct_positive=100.0 * n_pos / n,
            pct_negative=100.0 * (n - n_pos) / n,
        )
    return out
