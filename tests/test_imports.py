"""Modules that import without numpy or PyYAML, so they can be run and
compared on interpreters that have neither installed; and the stage
commands that never load numpy."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

from tweetflow.config import load_config
from tweetflow.pipeline import run_all
from tweetflow.storage import sha256_file

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"

NUMPY_FREE = (
    "corpus", "preprocess", "resources", "domainfilter", "topics",
    "sentiment", "categorize", "wordgraph", "exports", "storage", "community", "netmetrics",
)
NUMPY_FREE_STAGES = (
    "ingest", "explore", "filter", "topics", "categorize", "sentiment", "graph", "communities",
    "report",
)
NUMPY_STAGES = ("cluster", "metrics")


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
        "import tweetflow.clustering",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode != 0
    assert "ImportError" in result.stderr or "ModuleNotFoundError" in result.stderr


def test_graph_kernels_import_without_wordgraph():
    # the centrality and community kernels take any adjacency mapping;
    # wordgraph depends on them, not the other way round
    code = "\n".join([
        "import sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        "import tweetflow.netmetrics, tweetflow.community",
        'assert "tweetflow.wordgraph" not in sys.modules, "wordgraph was imported"',
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )
    assert result.returncode == 0, result.stderr


def _main_with_numpy_blocked(stages, config_path: Path, after: str = "") -> tuple[dict, str]:
    """Run each stage through the CLI's main, in one process where `import
    numpy` fails, then the code `after`; returns the exit codes by stage and
    the process's stderr."""
    code = "\n".join([
        "import json, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        'sys.modules["numpy"] = None',
        "from tweetflow.cli import main",
        f"stages = {tuple(stages)!r}",
        f"codes = [main([stage, '--config', {str(config_path)!r}]) for stage in stages]",
        after,
        "print(json.dumps(dict(zip(stages, codes))))",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return json.loads(result.stdout), result.stderr


def test_numpy_free_stage_commands_rerun_with_numpy_blocked(tmp_path, fixture_config_path):
    config = load_config(fixture_config_path, out_override=str(tmp_path / "out"))
    run_all(config)
    golden = json.loads((FIXTURES / "golden_checksums.json").read_text(encoding="utf-8"))
    config_path = tmp_path / "pipeline.yaml"
    payload = yaml.safe_load(fixture_config_path.read_text(encoding="utf-8"))
    payload.update(input=str(FIXTURES / payload["input"]), out=str(config.out))
    config_path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    # the reruns must write every file of these stages again
    for stage in NUMPY_FREE_STAGES:
        shutil.rmtree(config.out / stage)

    codes, _ = _main_with_numpy_blocked(NUMPY_FREE_STAGES, config_path)
    assert codes == dict.fromkeys(NUMPY_FREE_STAGES, 0)
    assert {rel: sha256_file(config.out / rel) for rel in golden} == golden

    # the graph command fits no LDA model, so it needs no C kernel
    codes, _ = _main_with_numpy_blocked(
        ("graph",), config_path,
        after='assert "ctypes" not in sys.modules, "ctypes was imported"\n'
              "from tweetflow.topics import _gibbs_kernel\n"
              'assert _gibbs_kernel.cache_info().currsize == 0, "the Gibbs kernel was loaded"',
    )
    assert codes == {"graph": 0}

    codes, stderr = _main_with_numpy_blocked(NUMPY_STAGES, config_path)
    assert codes == dict.fromkeys(NUMPY_STAGES, 3)
    for stage in NUMPY_STAGES:
        assert f"stage failure: stage {stage} failed: ModuleNotFoundError: import of numpy" in stderr
