"""Tweet corpus loading, validation, deduplication, and language filtering.

A Corpus is a tuple of TweetRecords, so it is immutable after load and
safe to share read-only. Record order is the canonical tiebreak
everywhere: the first occurrence of a duplicate wins, and filters
preserve order. The pipeline puts the loaded records in_time_order
first, so its outputs do not depend on the input file's row order.
"""

from __future__ import annotations

import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime, timezone
from pathlib import Path

from .errors import DataError
from .preprocess import extract_hashtags, normalize
from .storage import _csv_records, _jsonl_records, write_jsonl

log = logging.getLogger(__name__)

SUPPORTED_LANGUAGES = ("en", "it")
# the classic retweet form "RT @user: <text>"
RETWEET_PREFIX_RE = re.compile(r"^\s*RT @\w+:")
# stands in for a missing created_at, which in_time_order sorts last anyway
_EPOCH = datetime(1970, 1, 1, tzinfo=timezone.utc)


@dataclass(frozen=True)
class TweetRecord:
    id: str
    text: str
    lang: str
    created_at: datetime | None = None
    hashtags: tuple[str, ...] = ()

    def to_json_dict(self) -> dict:
        return {
            "id": self.id,
            "text": self.text,
            "lang": self.lang,
            "created_at": self.created_at.isoformat() if self.created_at else None,
            "hashtags": list(self.hashtags),
        }


Corpus = tuple[TweetRecord, ...]


def _parse_created_at(value, line_no: int) -> datetime | None:
    if value is None or value == "":
        return None
    if not isinstance(value, str):
        raise DataError(f"line {line_no}: created_at must be a string or null, not {value!r}")
    try:
        # fromisoformat in 3.10 does not accept a trailing 'Z'
        return datetime.fromisoformat(value.replace("Z", "+00:00"))
    except ValueError as exc:
        raise DataError(f"line {line_no}: bad created_at {value!r}") from exc


def _clean_hashtags(raw: Iterable[str]) -> tuple[str, ...]:
    tags = []
    for tag in raw:
        tag = str(tag).casefold().lstrip("#").strip()
        if tag and not any(ch.isspace() for ch in tag):
            tags.append(tag)
    return tuple(tags)


def _make_record(row: dict, line_no: int) -> TweetRecord:
    tweet_id = str(row.get("id") or "").strip()
    text = row.get("text")
    if not tweet_id or text is None:
        raise DataError(f"line {line_no}: row must have non-empty id and text")
    text = str(text)
    lang = str(row.get("lang") or "und").strip() or "und"
    hashtags_raw = row.get("hashtags")
    if hashtags_raw is None:
        hashtags = tuple(extract_hashtags(text))
    elif isinstance(hashtags_raw, list):
        hashtags = _clean_hashtags(hashtags_raw)
    else:
        raise DataError(f"line {line_no}: hashtags must be a list, not {hashtags_raw!r}")
    return TweetRecord(
        id=tweet_id,
        text=text,
        lang=lang,
        created_at=_parse_created_at(row.get("created_at"), line_no),
        hashtags=hashtags,
    )


def load_corpus(path: str | Path, format: str = "jsonl", strict: bool = False) -> Corpus:
    """Load a corpus from a JSONL or CSV file, preserving input order.

    Malformed rows are skipped with a warning unless strict is set, in
    which case the first bad row aborts the load. Rows without a language
    tag are kept with lang='und' and fall out at filter_language.
    """
    path = Path(path)
    if format not in ("jsonl", "csv"):
        raise DataError(f"unsupported corpus format: {format!r}")
    rows = (_jsonl_records if format == "jsonl" else _csv_records)(path, "corpus")
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for line_no, row in rows:
        try:
            if isinstance(row, DataError):
                raise row
            if format == "csv" and row.get("hashtags") is not None:
                row["hashtags"] = [tag for tag in row["hashtags"].split("|") if tag]
            record = _make_record(row, line_no)
            if record.id in seen_ids:
                raise DataError(f"line {line_no}: duplicate id {record.id!r}")
        except DataError:
            if strict:
                raise
            skipped += 1
            log.warning("%s: skipping malformed row at line %d", path.name, line_no)
            continue
        seen_ids.add(record.id)
        records.append(record)
    if skipped:
        log.warning("%s: skipped %d malformed rows", path.name, skipped)
    return tuple(records)


def in_time_order(corpus: Corpus) -> Corpus:
    """The records by created_at in UTC (a naive time read as UTC, a missing
    one last), then by id compared as a string."""

    def key(record: TweetRecord) -> tuple:
        when = record.created_at
        if when is not None and when.tzinfo is None:
            when = when.replace(tzinfo=timezone.utc)
        return (when is None, when or _EPOCH, record.id)

    return tuple(sorted(corpus, key=key))


def dedup(corpus: Corpus) -> Corpus:
    """Drop records whose normalized text was already seen, keeping the first.

    Duplicate detection keys on the normalized text (URLs, mentions, and
    punctuation stripped) after a leading classic-retweet "RT @handle:",
    so retweets that differ only in that prefix, links or handles
    collapse together.
    """
    seen: set[str] = set()
    kept = []
    for record in corpus:
        key = normalize(RETWEET_PREFIX_RE.sub("", record.text))
        if key in seen:
            continue
        seen.add(key)
        kept.append(record)
    return tuple(kept)


def filter_language(corpus: Corpus, lang: str) -> Corpus:
    """Keep only records tagged with the given language, in original order."""
    if lang not in SUPPORTED_LANGUAGES:
        raise DataError(f"unsupported language code: {lang!r}")
    kept = tuple(r for r in corpus if r.lang == lang)
    log.info(
        "language filter %s: kept %d, dropped %d",
        lang,
        len(kept),
        len(corpus) - len(kept),
    )
    return kept


def save_corpus(corpus: Corpus, path: str | Path) -> int:
    """Write a corpus atomically as JSONL with sorted keys; returns the row count."""
    return write_jsonl(path, (record.to_json_dict() for record in corpus))
