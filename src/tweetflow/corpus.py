"""Tweet corpus loading, validation, deduplication, and language filtering.

A Corpus is a tuple of TweetRecords, so it is immutable after load and
safe to share read-only. Input order is the canonical tiebreak
everywhere: the first occurrence of a duplicate wins, and filters
preserve order.
"""

from __future__ import annotations

import csv
import json
import logging
import re
from collections.abc import Iterable
from dataclasses import dataclass
from datetime import datetime
from pathlib import Path

from .errors import DataError
from .preprocess import extract_hashtags, normalize
from .storage import write_jsonl

log = logging.getLogger(__name__)

SUPPORTED_LANGUAGES = ("en", "it")
# the classic retweet form "RT @user: <text>"
RETWEET_PREFIX_RE = re.compile(r"^\s*RT @\w+:")


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


def _iter_jsonl(path: Path):
    """(line number, row) pairs; a line that is no JSON object comes as its DataError."""
    with path.open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                row = DataError(f"line {line_no}: invalid JSON ({exc.msg})")
            if not isinstance(row, (dict, DataError)):
                row = DataError(f"line {line_no}: row is not an object")
            yield line_no, row


def _iter_csv(path: Path):
    with path.open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for line_no, row in enumerate(reader, start=2):
            parsed = dict(row)
            tags = parsed.get("hashtags")
            if tags is not None:
                parsed["hashtags"] = [t for t in tags.split("|") if t] if tags else []
            yield line_no, parsed


def load_corpus(path: str | Path, format: str = "jsonl", strict: bool = False) -> Corpus:
    """Load a corpus from a JSONL or CSV file, preserving input order.

    Malformed rows are skipped with a warning unless strict is set, in
    which case the first bad row aborts the load. Rows without a language
    tag are kept with lang='und' and fall out at filter_language.
    """
    path = Path(path)
    if not path.is_file():
        raise DataError(f"corpus file not found: {path}")
    if format not in ("jsonl", "csv"):
        raise DataError(f"unsupported corpus format: {format!r}")
    rows = _iter_jsonl(path) if format == "jsonl" else _iter_csv(path)
    records: list[TweetRecord] = []
    seen_ids: set[str] = set()
    skipped = 0
    for line_no, row in rows:
        try:
            if isinstance(row, DataError):
                raise row
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
