"""Loaders for language resources: stopwords, lemma tables, sentiment
lexicons, boosters, and negators.

Each loader takes a file path; default_path() resolves a name against the
data files bundled with the package, so the pipeline runs out of the box.
"""

from __future__ import annotations

import importlib.resources
from pathlib import Path

from .errors import ConfigError
from .sentiment import BOOSTER_INCREMENT, SentimentLexicon

MAX_VALENCE = 4.0


def default_path(name: str) -> Path:
    path = importlib.resources.files("tweetflow").joinpath("resources", name)
    return Path(str(path))


def _lines(path: str | Path):
    """(physical line number, line) of each line that is not blank or a comment."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"resource file not found: {path}")
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if line and not line.startswith("#"):
                yield line_no, line


def load_stopwords(path: str | Path) -> frozenset[str]:
    return frozenset(tok.casefold() for _, tok in _lines(path))


def load_lemma_table(path: str | Path) -> dict[str, str]:
    table = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{Path(path).name}: bad lemma row {line_no}: {line!r}")
        surface, lemma = parts[0].casefold().strip(), parts[1].casefold().strip()
        if surface and lemma:
            table[surface] = lemma
    return table


def load_valences(path: str | Path) -> dict[str, float]:
    valences = {}
    for line_no, line in _lines(path):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{Path(path).name}: bad valence row {line_no}: {line!r}")
        token, raw = parts[0].casefold().strip(), parts[1].strip()
        try:
            value = float(raw)
        except ValueError:
            raise ConfigError(f"{Path(path).name}: bad valence row {line_no}: {line!r}") from None
        if not abs(value) <= MAX_VALENCE:
            raise ConfigError(
                f"{Path(path).name}: valence {value} for {token!r} outside ±{MAX_VALENCE}"
            )
        valences[token] = value
    return valences


def load_boosters(path: str | Path) -> dict[str, float]:
    """Boosters are one token per line, '+' or '-' prefixed; the sign sets
    whether the increment intensifies or dampens."""
    boosters = {}
    for line_no, line in _lines(path):
        sign, token = line[0], line[1:].casefold().strip()
        if sign not in "+-" or not token:
            raise ConfigError(f"{Path(path).name}: bad booster row {line_no}: {line!r}")
        boosters[token] = BOOSTER_INCREMENT if sign == "+" else -BOOSTER_INCREMENT
    return boosters


def load_sentiment_lexicon(
    valences_path: str | Path,
    boosters_path: str | Path,
    negators_path: str | Path,
) -> SentimentLexicon:
    return SentimentLexicon(
        valences=load_valences(valences_path),
        boosters=load_boosters(boosters_path),
        negators=load_stopwords(negators_path),  # one token per line, as stopwords are
    )
