"""Modules that import without numpy or PyYAML, so they can be run and
compared on interpreters that have neither installed; and the stage
commands and whole runs, which never load numpy: it is a test dependency
only."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import yaml

from tweetflow.config import STAGES, load_config
from tweetflow.pipeline import run_all
from tweetflow.storage import sha256_file

SRC = Path(__file__).resolve().parents[1] / "src"
FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = json.loads((FIXTURES / "golden_checksums.json").read_text(encoding="utf-8"))

NUMPY_FREE = (
    "corpus", "preprocess", "resources", "domainfilter", "topics", "clustering",
    "sentiment", "categorize", "wordgraph", "exports", "storage", "community", "netmetrics",
)
# these read the YAML config: they import with numpy blocked, not with yaml
NUMPY_FREE_WITH_YAML = ("config", "pipeline", "cli")


def _with_blocked(blocked: tuple[str, ...], *lines: str) -> subprocess.CompletedProcess:
    """Run the code lines in a fresh interpreter where importing any of the
    `blocked` modules fails: a None entry in sys.modules makes `import
    numpy` raise ImportError."""
    code = "\n".join([
        "import importlib, sys",
        f"sys.path.insert(0, {str(SRC)!r})",
        *(f"sys.modules[{name!r}] = None" for name in blocked),
        *lines,
    ])
    return subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=120
    )


def test_numpy_free_modules_import_with_numpy_and_yaml_blocked():
    result = _with_blocked(
        ("numpy", "yaml"),
        f"for name in {NUMPY_FREE!r}:",
        '    importlib.import_module("tweetflow." + name)',
    )
    assert result.returncode == 0, result.stderr


def test_config_readers_import_with_numpy_blocked():
    result = _with_blocked(
        ("numpy",),
        f"for name in {NUMPY_FREE_WITH_YAML!r}:",
        '    importlib.import_module("tweetflow." + name)',
        'assert "tweetflow.clustering" in sys.modules, "the pipeline did not import clustering"',
    )
    assert result.returncode == 0, result.stderr


def test_blocking_numpy_is_seen():
    # the checks here would pass vacuously if blocking did not stop an
    # import, as it would not on an interpreter without numpy installed
    result = _with_blocked(("numpy",), "import numpy")
    assert result.returncode != 0
    assert "ModuleNotFoundError: import of numpy halted; None in sys.modules" in result.stderr


def test_graph_kernels_import_without_wordgraph():
    # the centrality and community kernels take any adjacency mapping;
    # wordgraph depends on them, not the other way round
    result = _with_blocked(
        (),
        "import tweetflow.netmetrics, tweetflow.community",
        'assert "tweetflow.wordgraph" not in sys.modules, "wordgraph was imported"',
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
    config_path = tmp_path / "pipeline.yaml"
    payload = yaml.safe_load(fixture_config_path.read_text(encoding="utf-8"))
    payload.update(input=str(FIXTURES / payload["input"]), out=str(config.out))
    config_path.write_text(yaml.safe_dump(payload), encoding="utf-8")
    # the reruns must write every file of every stage again
    for stage in STAGES:
        shutil.rmtree(config.out / stage)

    codes, _ = _main_with_numpy_blocked(STAGES, config_path)
    assert codes == dict.fromkeys(STAGES, 0)
    assert {rel: sha256_file(config.out / rel) for rel in GOLDEN} == GOLDEN

    # the graph command fits no LDA model and computes no betweenness, so it
    # needs no C kernel
    codes, _ = _main_with_numpy_blocked(
        ("graph",), config_path,
        after='assert "ctypes" not in sys.modules, "ctypes was imported"\n'
              "from tweetflow._kernels import _library\n"
              'assert _library.cache_info().currsize == 0, "the C kernels were loaded"',
    )
    assert codes == {"graph": 0}


def _run_all_digests(out: Path, config_path: Path, blocked: tuple[str, ...]) -> dict[str, str]:
    """One run_all of the config into `out`, in a fresh interpreter where the
    `blocked` modules cannot be imported and that must load no other numpy
    module; the sha256 of each golden file it wrote."""
    result = _with_blocked(
        blocked,
        "from tweetflow.config import load_config",
        "from tweetflow.pipeline import run_all",
        f"run_all(load_config({str(config_path)!r}, out_override={str(out)!r}))",
        'loaded = [name for name in sys.modules if name.split(".")[0] == "numpy"]',
        f"assert loaded == {list(blocked)!r}, loaded",
    )
    assert result.returncode == 0, result.stderr
    return {rel: sha256_file(out / rel) for rel in GOLDEN}


def test_run_all_reproduces_the_goldens_with_numpy_blocked(tmp_path, fixture_config_path):
    assert _run_all_digests(tmp_path / "out", fixture_config_path, ("numpy",)) == GOLDEN


def test_run_all_imports_no_numpy(tmp_path, fixture_config_path):
    # numpy is installed for the tests, and still no stage loads it
    assert _run_all_digests(tmp_path / "out", fixture_config_path, ()) == GOLDEN
