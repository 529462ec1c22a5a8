from __future__ import annotations

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "freeze_golden.py"
GOLDEN = SCRIPT.parents[1] / "tests" / "fixtures" / "golden_checksums.json"


def load_script():
    spec = importlib.util.spec_from_file_location("freeze_golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_check_passes_on_this_tree():
    before = GOLDEN.read_bytes()
    result = subprocess.run(
        [sys.executable, str(SCRIPT), "--check"], capture_output=True, text=True, timeout=600
    )
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("0 of ")
    assert GOLDEN.read_bytes() == before


def test_differences_lists_changed_missing_and_extra():
    golden = {"a.csv": "1", "b.csv": "2", "c.csv": "3"}
    actual = {"a.csv": "1", "b.csv": "9", "d.csv": "4"}
    assert load_script().differences(golden, actual) == [
        "changed b.csv", "missing c.csv", "extra   d.csv",
    ]
    assert load_script().differences(golden, dict(golden)) == []


def test_check_exits_1_and_writes_nothing_on_a_difference(tmp_path, monkeypatch, capsys):
    script = load_script()
    golden = tmp_path / "golden_checksums.json"
    golden.write_text('{"a.csv": "1", "b.csv": "2"}\n', encoding="utf-8")
    monkeypatch.setattr(script, "GOLDEN", golden)
    monkeypatch.setattr(script, "fixture_checksums", lambda: {"a.csv": "1", "b.csv": "3"})
    assert script.main(["--check"]) == 1
    assert capsys.readouterr().out.splitlines()[0] == "changed b.csv"
    assert golden.read_text(encoding="utf-8") == '{"a.csv": "1", "b.csv": "2"}\n'


def test_check_out_hashes_an_existing_run_directory(tmp_path, fixture_config_path):
    from tweetflow.config import load_config
    from tweetflow.pipeline import run_all

    config = load_config(fixture_config_path, out_override=str(tmp_path / "out"))
    run_all(config)

    def check():
        return subprocess.run(
            [sys.executable, str(SCRIPT), "--check", "--out", str(config.out)],
            capture_output=True, text=True, timeout=120,
        )

    result = check()
    assert result.returncode == 0, result.stdout + result.stderr
    assert result.stdout.startswith("0 of 76 files differ")

    changed = config.out / "sentiment" / "scores_en.csv"
    data = bytearray(changed.read_bytes())
    data[-2] ^= 1
    changed.write_bytes(bytes(data))
    result = check()
    assert result.returncode == 1
    assert result.stdout.splitlines()[:2] == [
        "changed sentiment/scores_en.csv",
        f"1 of 76 files differ from {GOLDEN}",
    ]


def test_out_needs_check(tmp_path, capsys):
    with pytest.raises(SystemExit) as exit_info:
        load_script().main(["--out", str(tmp_path)])
    assert exit_info.value.code == 2
    assert "--out needs --check" in capsys.readouterr().err
