#!/usr/bin/env python3
"""Freeze, or check, the golden output checksums for the bundled fixture pipeline.

Runs the full pipeline on tests/fixtures/corpus200.jsonl with seed 42 into
a scratch directory and records the sha256 of every produced file (the
manifest is excluded: it carries wall-clock timings). The acceptance suite
replays the run twice and compares byte-for-byte against this file.

Rerun this script whenever an intentional change alters pipeline output.
With --check it writes nothing: it lists the files whose checksum
changed, the golden files the run did not produce and the produced files
the goldens lack, and exits 1 on any difference. With --check --out DIR
it runs nothing either: it hashes the existing run directory DIR, for
example one written by an installed `tweetflow all`, and imports no
tweetflow code.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "fixtures" / "golden_checksums.json"


def run_checksums(out: Path) -> dict[str, str]:
    """sha256 of every file under the run directory `out`, manifest aside."""
    return {
        str(path.relative_to(out)): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file() and path.name != "manifest.json"
    }


def fixture_checksums() -> dict[str, str]:
    """run_checksums of a seed-42 fixture run of the code under src/."""
    sys.path.insert(0, str(REPO / "src"))
    from tweetflow.config import load_config
    from tweetflow.pipeline import run_all

    with tempfile.TemporaryDirectory() as scratch:
        config = load_config(
            REPO / "tests" / "fixtures" / "pipeline.yaml",
            out_override=str(Path(scratch) / "out"),
            seed_override=42,
        )
        run_all(config)
        return run_checksums(config.out)


def differences(golden: dict[str, str], actual: dict[str, str]) -> list[str]:
    """One line per changed, missing or extra file, in path order."""
    lines = []
    for path in sorted(golden.keys() | actual.keys()):
        if path not in actual:
            lines.append(f"missing {path}")
        elif path not in golden:
            lines.append(f"extra   {path}")
        elif golden[path] != actual[path]:
            lines.append(f"changed {path}")
    return lines


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--check", action="store_true",
        help="compare the run with the goldens instead of writing them",
    )
    parser.add_argument(
        "--out", type=Path, metavar="DIR",
        help="with --check: hash this existing run directory instead of running the pipeline",
    )
    args = parser.parse_args(argv)
    if args.out is not None and not args.check:
        parser.error("--out needs --check")
    if args.out is not None and not args.out.is_dir():
        parser.error(f"--out {args.out} is not a directory")
    checksums = run_checksums(args.out) if args.out is not None else fixture_checksums()
    if args.check:
        golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
        lines = differences(golden, checksums)
        for line in lines:
            print(line)
        print(f"{len(lines)} of {len(golden.keys() | checksums.keys())} files differ from {GOLDEN}")
        return 1 if lines else 0
    GOLDEN.write_text(
        json.dumps(checksums, indent=2, sort_keys=True) + "\n", encoding="utf-8"
    )
    print(f"froze {len(checksums)} file checksums to {GOLDEN}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
