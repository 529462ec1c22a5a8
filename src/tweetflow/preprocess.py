"""Text normalization, tokenization, lemmatization, and TF-IDF vectors.

All operations are pure functions. Lemmatization is table-driven (bundled
two-column TSV files per language), which keeps the whole pipeline
deterministic and dependency-free.
"""

from __future__ import annotations

import math
import re
from collections.abc import Iterable, Mapping, Sequence
from dataclasses import dataclass

from .errors import DataError

URL_RE = re.compile(r"(?:https?://|www\.)\S+")
MENTION_RE = re.compile(r"@\w+")
# Anything that is not a word character or whitespace becomes a space:
# punctuation, emoji, symbols. Accented letters are word characters and
# survive; apostrophes split ("dell'orso" -> "dell orso").
NON_WORD_RE = re.compile(r"[^\w\s]")
WS_RE = re.compile(r"\s+")
NUMERIC_RE = re.compile(r"^\d+$")
HASHTAG_RE = re.compile(r"#(\w+)")


def normalize(text: str) -> str:
    """Case-fold and strip URLs, mentions, emoji, and punctuation.

    '#tag' keeps its tag token; whitespace collapses to single spaces.
    Idempotent: normalize(normalize(t)) == normalize(t).
    """
    t = text.casefold()
    t = URL_RE.sub(" ", t)
    t = MENTION_RE.sub(" ", t)
    t = t.replace("#", "")
    t = NON_WORD_RE.sub(" ", t)
    return WS_RE.sub(" ", t).strip()


def tokenize(text: str) -> list[str]:
    """Split normalized text on whitespace, dropping short and numeric-only tokens."""
    if not text:
        return []
    return [
        tok
        for tok in text.split(" ")
        if len(tok) >= 2 and not NUMERIC_RE.match(tok)
    ]


def lemmatize(tokens: Sequence[str], lemma_table: Mapping[str, str]) -> list[str]:
    """Map each token through the lemma table; unknown tokens pass through."""
    return [lemma_table.get(tok, tok) for tok in tokens]


def extract_hashtags(text: str) -> list[str]:
    """Pull '#word' tags out of raw text, lowercased, marker stripped."""
    return [m.casefold() for m in HASHTAG_RE.findall(text)]


def ranked(counts: Mapping[str, int], n: int | None = None) -> tuple[tuple[str, int], ...]:
    """The first n (term, count) pairs by descending count, ties alphabetical."""
    return tuple(sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))[:n])


@dataclass(frozen=True)
class TokenizedDoc:
    """Parallel token/lemma streams for one tweet.

    tokens[i] is the surface form of lemmas[i]. When stopwords are removed
    positionally (see pipeline_doc), both streams stay parallel.
    """

    tweet_id: str
    tokens: tuple[str, ...]
    lemmas: tuple[str, ...]

    def __post_init__(self) -> None:
        if len(self.tokens) != len(self.lemmas):
            raise DataError(
                f"tweet {self.tweet_id}: token/lemma streams differ in length"
            )


def pipeline_doc(
    tweet_id: str,
    text: str,
    lemma_table: Mapping[str, str],
    stoplist: frozenset[str] | set[str],
) -> TokenizedDoc:
    """Run the full normalize -> tokenize -> lemmatize -> stopword chain.

    Stopword positions are dropped from both streams so the result stays
    parallel; filtering keys on the lemma form.
    """
    tokens = tokenize(normalize(text))
    lemmas = lemmatize(tokens, lemma_table)
    kept_tokens = []
    kept_lemmas = []
    for tok, lem in zip(tokens, lemmas):
        if lem not in stoplist:
            kept_tokens.append(tok)
            kept_lemmas.append(lem)
    return TokenizedDoc(tweet_id, tuple(kept_tokens), tuple(kept_lemmas))


@dataclass(frozen=True)
class Vocabulary:
    """Lexicographically sorted unique terms with document frequencies."""

    terms: tuple[str, ...]
    doc_freq: tuple[int, ...]

    def index(self) -> dict[str, int]:
        return {t: i for i, t in enumerate(self.terms)}


@dataclass(frozen=True)
class TfIdfMatrix:
    """One sparse row per document; entries index into the vocabulary.

    Zero weights are never materialized.
    """

    rows: tuple[dict[int, float], ...]
    vocabulary: Vocabulary


def build_vocabulary(docs: Iterable[TokenizedDoc]) -> Vocabulary:
    """Collect sorted vocabulary and per-term document frequencies."""
    df: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.lemmas):
            df[term] = df.get(term, 0) + 1
    terms = tuple(sorted(df))
    return Vocabulary(terms, tuple(df[t] for t in terms))


def build_tfidf(docs: Sequence[TokenizedDoc]) -> TfIdfMatrix:
    """Weight each (term, doc) as raw count times ln(N / df).

    Terms occurring in every document get weight 0 and are not stored;
    empty documents yield empty rows.
    """
    if not docs:
        raise DataError("cannot build TF-IDF over an empty corpus")
    vocab = build_vocabulary(docs)
    index = vocab.index()
    n_docs = len(docs)
    idf = [math.log(n_docs / df) for df in vocab.doc_freq]
    rows = []
    for doc in docs:
        counts: dict[int, int] = {}
        for lem in doc.lemmas:
            i = index[lem]
            counts[i] = counts.get(i, 0) + 1
        row = {}
        for i, c in counts.items():
            w = c * idf[i]
            if w > 0.0:
                row[i] = w
        rows.append(row)
    return TfIdfMatrix(tuple(rows), vocab)
