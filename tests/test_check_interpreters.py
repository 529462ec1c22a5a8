from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "check_interpreters.py"


def load_script():
    spec = importlib.util.spec_from_file_location("check_interpreters", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run(*argv):
    return subprocess.run(
        [sys.executable, str(SCRIPT), *argv], capture_output=True, text=True, timeout=600
    )


def test_this_interpreter_matches_itself():
    result = run(sys.executable)
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith(f"same   {sys.executable}: all ")


def test_digests_need_neither_numpy_nor_yaml():
    # a None entry in sys.modules makes `import numpy` raise ImportError
    code = "\n".join([
        "import runpy, sys",
        'sys.modules["numpy"] = sys.modules["yaml"] = None',
        'sys.argv = ["check_interpreters.py", "--digests"]',
        f"runpy.run_path({str(SCRIPT)!r}, run_name='__main__')",
    ])
    result = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stderr
    steps = load_script().step_digests()
    assert result.stdout.strip() == json.dumps(steps)
    for step in ("dedup", "fit_lda k=8 it", "distinct rows en", "silhouette it",
                 "sampled silhouette en", "GeoJSON en", "greedy modularity it",
                 "eigenvector centrality en", "betweenness centrality it"):
        assert step in steps


def test_a_differing_step_is_named_and_exits_1(tmp_path):
    fake = tmp_path / "fake-python"
    fake.write_text(f'#!{sys.executable}\nprint(\'{{"dedup": "0"}}\')\n', encoding="utf-8")
    fake.chmod(0o755)
    result = run(str(fake))
    assert result.returncode == 1
    assert result.stdout == f"differ {fake}: first at step 'dedup'\n"


def test_an_interpreter_that_fails_exits_1(tmp_path):
    broken = tmp_path / "broken-python"
    broken.write_text(f"#!{sys.executable}\nraise SystemExit('no such module')\n",
                      encoding="utf-8")
    broken.chmod(0o755)
    result = run(str(broken))
    assert result.returncode == 1
    assert result.stdout == f"FAILED {broken}: exit 1: no such module\n"


def test_first_difference_follows_the_expected_order():
    first_difference = load_script().first_difference
    expected = {"a": "1", "b": "2", "c": "3"}
    assert first_difference(expected, dict(expected)) is None
    assert first_difference(expected, {"a": "1", "b": "9", "c": "9"}) == "b"
    assert first_difference(expected, {"a": "1", "c": "3"}) == "b"


def test_no_interpreter_is_a_usage_error():
    result = run()
    assert result.returncode == 2
    assert "Usage: python scripts/check_interpreters.py PYTHON" in result.stderr
