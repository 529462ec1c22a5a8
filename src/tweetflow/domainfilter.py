"""Domain filtering: frequency exploration, term dictionaries, string
matching, and the merge of the two filtering routes.

The exploration step emits ranked word/hashtag lists as editable label
files; once a curator fills in the Tourism / NotTourism labels, the
dictionary drives both the string-matching filter and the automatic
topic/cluster selectors.
"""

from __future__ import annotations

import logging
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass
from pathlib import Path

from .corpus import Corpus
from .errors import DataError
from .preprocess import TokenizedDoc, ranked
from .storage import _csv_records, write_csv

log = logging.getLogger(__name__)

TOURISM = "Tourism"
NOT_TOURISM = "NotTourism"


@dataclass(frozen=True)
class ExplorationReport:
    top_words: tuple[tuple[str, int], ...]
    top_hashtags: tuple[tuple[str, int], ...]


def explore(corpus: Corpus, docs: Sequence[TokenizedDoc], n: int = 1000) -> ExplorationReport:
    """Rank the corpus's lemmas and hashtags by occurrence count.

    Both lists count with multiplicity; ties break lexicographically.
    """
    if len(docs) != len(corpus):
        raise DataError("docs must be parallel to corpus records")
    words: Counter = Counter()
    for doc in docs:
        words.update(doc.lemmas)
    hashtags: Counter = Counter()
    for record in corpus:
        hashtags.update(record.hashtags)
    return ExplorationReport(ranked(words, n), ranked(hashtags, n))


def write_label_file(path: str | Path, ranked: Sequence[tuple[str, int]]) -> int:
    """Emit a term,label,frequency CSV with the label column left blank."""
    return write_csv(
        path, ["term", "label", "frequency"], [[term, "", freq] for term, freq in ranked]
    )


def load_dictionary(path: str | Path) -> frozenset[str]:
    """Read a curated term,label,frequency CSV; returns its Tourism terms.

    Blank labels are ignored with a warning; a term may carry exactly one
    label, so conflicting duplicates abort the load, as do unknown labels
    and frequencies that are not integers.
    """
    path = Path(path)
    labels: dict[str, str] = {}
    blank = 0
    for line_no, row in _csv_records(path, "dictionary"):
        term = (row.get("term") or "").strip().casefold()
        label = (row.get("label") or "").strip()
        if not term:
            continue
        if not label:
            blank += 1
            continue
        if label not in (TOURISM, NOT_TOURISM):
            raise DataError(f"{path.name} line {line_no}: unknown label {label!r}")
        try:
            int(row.get("frequency") or 0)  # checked, though no caller reads it
        except ValueError:
            raise DataError(
                f"{path.name} line {line_no}: bad frequency {row['frequency']!r}"
            ) from None
        if labels.setdefault(term, label) != label:
            raise DataError(f"{path.name} line {line_no}: term {term!r} labeled twice")
    if blank:
        log.warning("%s: ignored %d unlabeled rows", path.name, blank)
    return frozenset(term for term, label in labels.items() if label == TOURISM)


def match_strings(
    corpus: Corpus,
    docs: Sequence[TokenizedDoc],
    tourism: frozenset[str],
    min_hits: int = 3,
) -> Corpus:
    """Keep tweets whose lemma stream hits domain-labeled terms often enough.

    Occurrences count with multiplicity: three repeats of one term
    qualify just like three distinct terms.
    """
    if len(docs) != len(corpus):
        raise DataError("docs must be parallel to corpus records")
    if not tourism:
        raise DataError("dictionary has no Tourism entries")
    kept = []
    for record, doc in zip(corpus, docs):
        hits = sum(1 for lem in doc.lemmas if lem in tourism)
        if hits >= min_hits:
            kept.append(record)
    return tuple(kept)


def merge_results(a: Corpus, b: Corpus, mode: str = "union") -> Corpus:
    """Combine the two filtering routes' outputs by tweet id.

    union (default): every id once, a's order first then b's novel ids.
    exclusive: ids present in both corpora are dropped entirely.
    An id carrying different texts in a and b signals corrupted inputs.
    """
    if mode not in ("union", "exclusive"):
        raise DataError(f"unknown merge mode {mode!r}")
    a_by_id = {r.id: r for r in a}
    for record in b:
        other = a_by_id.get(record.id)
        if other is not None and other.text != record.text:
            raise DataError(f"id {record.id!r} carries different texts in the inputs")
    b_ids = {r.id for r in b}
    if mode == "union":
        merged = list(a)
    else:
        merged = [r for r in a if r.id not in b_ids]
    merged.extend(r for r in b if r.id not in a_by_id)
    return tuple(merged)
