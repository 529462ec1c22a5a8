from __future__ import annotations

from pathlib import Path

import pytest
from hypothesis import settings

FIXTURES = Path(__file__).parent / "fixtures"

# every run draws the same examples, and no example database carries a
# failing example from one run into the next, so a defect a property test
# can reach fails every checkout or none
settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def fixture_corpus_path() -> Path:
    return FIXTURES / "corpus200.jsonl"


@pytest.fixture(scope="session")
def fixture_config_path() -> Path:
    return FIXTURES / "pipeline.yaml"


# named small graphs used across netmetrics/community tests
@pytest.fixture
def path3():
    return {"a": ["b"], "b": ["a", "c"], "c": ["b"]}


@pytest.fixture
def star4():
    return {
        "hub": ["l1", "l2", "l3", "l4"],
        "l1": ["hub"],
        "l2": ["hub"],
        "l3": ["hub"],
        "l4": ["hub"],
    }


@pytest.fixture
def triangle():
    return {"a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"]}


@pytest.fixture
def k4():
    return {n: sorted(set("abcd") - {n}) for n in "abcd"}


@pytest.fixture
def two_k3():
    return {
        "a": ["b", "c"], "b": ["a", "c"], "c": ["a", "b"],
        "x": ["y", "z"], "y": ["x", "z"], "z": ["x", "y"],
    }


@pytest.fixture
def barbell():
    adj = {f"a{i}": sorted({f"a{j}" for j in range(4)} - {f"a{i}"}) for i in range(4)}
    adj.update(
        {f"b{i}": sorted({f"b{j}" for j in range(4)} - {f"b{i}"}) for i in range(4)}
    )
    adj["a0"] = sorted(adj["a0"] + ["b0"])
    adj["b0"] = sorted(adj["b0"] + ["a0"])
    return adj
