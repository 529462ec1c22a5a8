#!/usr/bin/env python3
"""Freeze, or check, the golden output checksums for the bundled fixture pipeline.

Runs the full pipeline on tests/fixtures/corpus200.jsonl with seed 42 into
a scratch directory and records the sha256 of every produced file (the
manifest is excluded: it carries wall-clock timings). The acceptance suite
replays the run twice and compares byte-for-byte against this file.

Rerun this script whenever an intentional change alters pipeline output.
With --check it writes nothing: it lists the files whose checksum
changed, the golden files the run did not produce and the produced files
the goldens lack, and exits 1 on any difference.
"""

from __future__ import annotations

import argparse
import json
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parents[1]
GOLDEN = REPO / "tests" / "fixtures" / "golden_checksums.json"


def fixture_checksums() -> dict[str, str]:
    """sha256 of every file the seed-42 fixture run writes, manifest aside."""
    sys.path.insert(0, str(REPO / "src"))
    from tweetflow.config import load_config
    from tweetflow.pipeline import run_all
    from tweetflow.storage import sha256_file

    with tempfile.TemporaryDirectory() as scratch:
        config = load_config(
            REPO / "tests" / "fixtures" / "pipeline.yaml",
            out_override=str(Path(scratch) / "out"),
            seed_override=42,
        )
        run_all(config)
        return {
            str(path.relative_to(config.out)): sha256_file(path)
            for path in sorted(config.out.rglob("*"))
            if path.is_file() and path.name != "manifest.json"
        }


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
    args = parser.parse_args(argv)
    checksums = fixture_checksums()
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
