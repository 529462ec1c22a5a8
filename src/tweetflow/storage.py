"""Atomic file writes, checksums, and every CSV/JSON(L) writer and reader.

Every stage output goes through write-to-temp-then-rename so a crashed
run never leaves a truncated file behind. CSVs are UTF-8, comma
separated, minimally quoted, with '\n' line endings; JSON is pretty
printed with sorted keys.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import os
import tempfile
from collections.abc import Iterable, Sequence
from pathlib import Path

from .errors import DataError


def atomic_write_text(path: str | Path, text: str) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=f".{path.name}.", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_csv(path: str | Path, header: Sequence[str], rows: Iterable[Sequence]) -> int:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    count = 0
    for row in rows:
        writer.writerow(row)
        count += 1
    atomic_write_text(path, buf.getvalue())
    return count


def _json_text(payload) -> str:
    """The text of every JSON output file: indented, keys sorted, UTF-8 kept."""
    return json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


def write_json(path: str | Path, payload) -> None:
    atomic_write_text(path, _json_text(payload))


def write_jsonl(path: str | Path, rows: Iterable[dict]) -> int:
    buf = io.StringIO()
    count = 0
    for row in rows:
        buf.write(json.dumps(row, sort_keys=True, ensure_ascii=False))
        buf.write("\n")
        count += 1
    atomic_write_text(path, buf.getvalue())
    return count


def _csv_table(path: str | Path) -> tuple[str, list[list[str]]]:
    """The text and rows of a CSV that write_csv wrote whole: it ends in a
    newline and each row is as wide as the header. ValueError otherwise."""
    with Path(path).open("r", encoding="utf-8", newline="") as fh:
        text = fh.read()
    if not text.endswith("\n"):
        raise ValueError("no newline at the end: the file was cut short")
    rows = list(csv.reader(io.StringIO(text, newline="")))
    for number, row in enumerate(rows[1:], start=2):
        if len(row) != len(rows[0]):
            raise ValueError(f"row {number} has {len(row)} fields, the header {len(rows[0])}")
    return text, rows


def read_csv(path: str | Path, header: Sequence[str]) -> list[list[str]]:
    """The data rows of a CSV that write_csv wrote whole with `header`;
    ValueError if it was cut short, has another header or a row is not as
    wide as the header."""
    rows = _csv_table(path)[1]
    if rows[0] != list(header):
        raise ValueError(f"not a CSV table of {','.join(header)}")
    return rows[1:]


def _existing(path: str | Path, what: str) -> Path:
    path = Path(path)
    if not path.is_file():
        raise DataError(f"{what} file not found: {path}")
    return path


def _csv_records(path: str | Path, what: str):
    """(line number, row dict) of each data row of a headed CSV input, numbered
    by the physical line it ends on, so quoted line breaks do not shift it."""
    with _existing(path, what).open("r", encoding="utf-8", newline="") as fh:
        reader = csv.DictReader(fh)
        for row in reader:
            yield reader.line_num, row


def _jsonl_records(path: str | Path, what: str):
    """(line number, row) for each non-blank line of a JSONL input; a line
    that is no JSON object comes as its DataError, for the caller to raise
    or skip."""
    with _existing(path, what).open("r", encoding="utf-8") as fh:
        for line_no, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                row = json.loads(line)
            except json.JSONDecodeError as exc:
                row = DataError(f"line {line_no}: invalid JSON ({exc.msg})")
            if not isinstance(row, (dict, DataError)):
                row = DataError(f"line {line_no}: row is not an object")
            yield line_no, row


def read_jsonl(path: str | Path) -> list[dict]:
    """The rows of a JSONL file; DataError at the first line that is no JSON object."""
    rows = [row for _, row in _jsonl_records(path, "JSONL")]
    for row in rows:
        if isinstance(row, DataError):
            raise row
    return rows


def sha256_file(path: str | Path) -> str:
    digest = hashlib.sha256()
    with Path(path).open("rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            digest.update(chunk)
    return digest.hexdigest()


def count_rows(path: str | Path) -> int:
    """Data rows in a file: lines for JSONL/GeoJSON-free formats, lines
    minus header for CSV."""
    path = Path(path)
    with path.open("r", encoding="utf-8") as fh:
        lines = sum(1 for line in fh if line.strip())
    if path.suffix == ".csv":
        return max(0, lines - 1)
    return lines
