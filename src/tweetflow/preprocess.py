"""Text normalization, tokenization, lemmatization, and TF-IDF vectors.

All operations are pure functions. One token rule serves every caller: a
token is a maximal run of word characters in the case-folded text with
URLs, mentions and the '#' of hashtags removed. Lemmatization is
table-driven (bundled two-column TSV files per language), which keeps the
whole pipeline deterministic and dependency-free. `pipeline_doc` makes one
regex pass per text; the pipeline calls it once per distinct text of a run.
"""

from __future__ import annotations

import math
import re
import sys
from array import array
from collections import Counter
from collections.abc import Mapping, Sequence
from dataclasses import dataclass

from .errors import DataError

URL_RE = re.compile(r"(?:https?://|www\.)\S+")
MENTION_RE = re.compile(r"@\w+")
# Everything between tokens is dropped: punctuation, emoji, symbols and
# whitespace. Accented letters are word characters and survive;
# apostrophes split ("dell'orso" -> "dell orso").
WORD_RE = re.compile(r"\w+")
# The tokens that tokenize keeps are at least two characters long.
TOKEN_RE = re.compile(r"\w{2,}")
HASHTAG_RE = re.compile(r"#(\w+)")


def _strip_markup(text: str) -> str:
    """Case-fold and drop URLs, mentions and the '#' of hashtags."""
    t = text.casefold()
    t = URL_RE.sub(" ", t)
    t = MENTION_RE.sub(" ", t)
    return t.replace("#", "")


def normalize(text: str) -> str:
    """Case-fold and strip URLs, mentions, emoji, and punctuation.

    '#tag' keeps its tag token; tokens are joined by single spaces.
    Idempotent: normalize(normalize(t)) == normalize(t).
    """
    return " ".join(WORD_RE.findall(_strip_markup(text)))


def tokenize(text: str) -> list[str]:
    """The word-character runs of `text` that are at least two characters
    long and not all digits (str.isdecimal is exactly the regex class \\d).
    On normalized text these are its space-separated tokens."""
    return [tok for tok in TOKEN_RE.findall(text) if not tok.isdecimal()]


def extract_hashtags(text: str) -> list[str]:
    """Pull '#word' tags out of raw text, lowercased, marker stripped."""
    return [m.casefold() for m in HASHTAG_RE.findall(text)]


def ranked(values: Mapping[str, float], n: int | None = None) -> tuple[tuple[str, float], ...]:
    """The first n (name, value) pairs by descending value, ties alphabetical."""
    return tuple(sorted(values.items(), key=lambda kv: (-kv[1], kv[0]))[:n])


@dataclass(frozen=True)
class TokenizedDoc:
    """The lemma stream of one tweet, stopwords dropped."""

    tweet_id: str
    lemmas: tuple[str, ...]


def pipeline_doc(
    tweet_id: str,
    text: str,
    lemma_table: Mapping[str, str],
    stoplist: frozenset[str] | set[str],
) -> TokenizedDoc:
    """The tweet's tokens, each mapped through the lemma table (unknown
    tokens pass through), with the lemmas in the stoplist dropped.

    The tokens are tokenize(normalize(text)), found in one regex pass;
    filtering keys on the lemma form. The lemmas are interned: a run keeps
    every tweet's doc, and most lemmas recur across tweets.
    """
    lemmas = []
    for tok in tokenize(_strip_markup(text)):
        lemma = lemma_table.get(tok, tok)
        if lemma not in stoplist:
            lemmas.append(sys.intern(lemma))
    return TokenizedDoc(tweet_id, tuple(lemmas))


@dataclass(frozen=True)
class TfIdfMatrix:
    """One sparse row per document as CSR over the sorted terms: row i's
    term indices and weights are term_ids and weights[starts[i]:starts[i + 1]],
    in the order the terms first occur in document i. Zero weights are never
    stored."""

    terms: tuple[str, ...]
    starts: array    # "q": n + 1 row starts, from 0 to len(term_ids)
    term_ids: array  # "i"
    weights: array   # "d"

    @property
    def rows(self) -> tuple[dict[int, float], ...]:
        """Each row as a {term index: weight} dict in the row's order, built
        on every access: a view for tests and tracing, not for the package."""
        ids, weights, starts = self.term_ids, self.weights, self.starts
        return tuple(dict(zip(ids[a:b], weights[a:b])) for a, b in zip(starts, starts[1:]))


def build_tfidf(docs: Sequence[TokenizedDoc]) -> TfIdfMatrix:
    """Weight each (term, doc) as raw count times ln(N / df).

    Terms occurring in every document get weight 0 and are not stored;
    empty documents yield empty rows.
    """
    if not docs:
        raise DataError("cannot build TF-IDF over an empty corpus")
    doc_freq: dict[str, int] = {}
    for doc in docs:
        for term in set(doc.lemmas):
            doc_freq[term] = doc_freq.get(term, 0) + 1
    terms = tuple(sorted(doc_freq))
    index = {t: i for i, t in enumerate(terms)}
    n_docs = len(docs)
    idf = [math.log(n_docs / doc_freq[t]) for t in terms]
    starts, term_ids, weights = array("q", [0]), array("i"), array("d")
    for doc in docs:
        for lemma, c in Counter(doc.lemmas).items():
            i = index[lemma]
            w = c * idf[i]
            if w > 0.0:
                term_ids.append(i)
                weights.append(w)
        starts.append(len(term_ids))
    return TfIdfMatrix(terms, starts, term_ids, weights)
