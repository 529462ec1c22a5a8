"""Modules that import without numpy or PyYAML, so they can be run and
compared on interpreters that have neither installed."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

NUMPY_FREE = (
    "corpus", "preprocess", "resources", "domainfilter", "topics",
    "sentiment", "categorize", "wordgraph", "exports", "storage",
)


def test_numpy_free_modules_import_with_numpy_and_yaml_blocked():
    # a None entry in sys.modules makes `import numpy` raise ImportError
    code = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        'sys.modules["numpy"] = sys.modules["yaml"] = None',
        f"for name in {NUMPY_FREE!r}:",
        '    importlib.import_module("tweetflow." + name)',
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def test_blocking_numpy_is_seen():
    # the check above would pass vacuously if blocking did not stop an import
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        'sys.modules["numpy"] = None',
        "import tweetflow.netmetrics",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode != 0
    assert "ImportError" in result.stderr or "ModuleNotFoundError" in result.stderr
