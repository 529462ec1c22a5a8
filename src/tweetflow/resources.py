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


def _lines(path: str | Path) -> list[str]:
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"resource file not found: {path}")
    out = []
    for line in path.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def load_stopwords(path: str | Path) -> frozenset[str]:
    return frozenset(tok.casefold() for tok in _lines(path))


def load_lemma_table(path: str | Path) -> dict[str, str]:
    table = {}
    for line_no, line in enumerate(_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{Path(path).name}: bad lemma row {line_no}: {line!r}")
        surface, lemma = parts[0].casefold().strip(), parts[1].casefold().strip()
        if surface and lemma:
            table[surface] = lemma
    return table


def load_valences(path: str | Path) -> dict[str, float]:
    valences = {}
    for line_no, line in enumerate(_lines(path), start=1):
        parts = line.split("\t")
        if len(parts) != 2:
            raise ConfigError(f"{Path(path).name}: bad valence row {line_no}: {line!r}")
        token, raw = parts[0].casefold().strip(), parts[1].strip()
        value = float(raw)
        if abs(value) > MAX_VALENCE:
            raise ConfigError(
                f"{Path(path).name}: valence {value} for {token!r} outside ±{MAX_VALENCE}"
            )
        valences[token] = value
    return valences


def load_boosters(path: str | Path) -> dict[str, float]:
    """Boosters are one token per line, '+' or '-' prefixed; the sign sets
    whether the increment intensifies or dampens."""
    boosters = {}
    for line_no, line in enumerate(_lines(path), start=1):
        sign, token = line[0], line[1:].casefold().strip()
        if sign not in "+-" or not token:
            raise ConfigError(f"{Path(path).name}: bad booster row {line_no}: {line!r}")
        boosters[token] = BOOSTER_INCREMENT if sign == "+" else -BOOSTER_INCREMENT
    return boosters


def load_negators(path: str | Path) -> frozenset[str]:
    return frozenset(tok.casefold() for tok in _lines(path))


def load_sentiment_lexicon(
    valences_path: str | Path,
    boosters_path: str | Path,
    negators_path: str | Path,
) -> SentimentLexicon:
    return SentimentLexicon(
        valences=load_valences(valences_path),
        boosters=load_boosters(boosters_path),
        negators=load_negators(negators_path),
    )
