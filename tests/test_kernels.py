"""The C kernel library: its cache, its call helper and its sources; the
guard that keeps every float sum of src/tweetflow/*.py in a fixed order;
and the guard that keeps numpy inside the one function that needs it."""

from __future__ import annotations

import ast
import fnmatch
import tomllib
from array import array
from pathlib import Path

import numpy as np
import pytest

from tweetflow import _kernels

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "tweetflow"


@pytest.fixture
def cache(monkeypatch, tmp_path):
    """An empty library cache under tmp_path, with the library unloaded
    before and after the test."""
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    _kernels._library.cache_clear()
    yield tmp_path / "tweetflow"
    _kernels._library.cache_clear()


class TestCache:
    def test_a_build_removes_the_libraries_of_other_digests(self, cache):
        cache.mkdir(mode=0o700)
        kept = ("notes.txt", "kernels-3333.so.bak")
        for name in ("kernels-0000.so", "gibbs-1111.so", "gibbs-2222.so", *kept):
            (cache / name).write_bytes(b"stale")
        (cache / "kernels-4444.so").mkdir()  # cannot be unlinked: the OSError is ignored
        library = _kernels._library()
        built = [p.name for p in cache.glob("kernels-*.so") if p.is_file()]
        assert len(built) == 1 and library._name.endswith(built[0])
        assert sorted(p.name for p in cache.iterdir()) == sorted([*built, *kept, "kernels-4444.so"])

    def test_a_cached_library_is_loaded_and_nothing_removed(self, cache):
        _kernels._library()
        (built,) = cache.iterdir()
        (cache / "kernels-0000.so").write_bytes(b"stale")
        _kernels._library.cache_clear()
        _kernels._library()
        assert sorted(p.name for p in cache.iterdir()) == sorted([built.name, "kernels-0000.so"])

    def test_the_digest_covers_the_link_flags(self, cache, monkeypatch):
        _kernels._library()
        (first,) = cache.iterdir()
        monkeypatch.setattr(_kernels, "_LINK", ("-lm", "-lc"))
        _kernels._library.cache_clear()
        _kernels._library()
        (second,) = cache.iterdir()
        assert second != first


def test_call_passes_array_buffers_by_address():
    starts = array("q", [0, 2, 2, 3])
    weights = array("d", [3.0, 4.0, 0.0])
    sq = array("d", [-1.0]) * 3
    _kernels._call("tf_normalize", 3, starts, weights, sq)
    assert weights.tolist() == [0.6, 0.8, 0.0]
    assert sq.tolist() == [0.6 * 0.6 + 0.8 * 0.8, 0.0, 0.0]
    # every buffer is an array.array: a numpy array is not passed
    with pytest.raises(AttributeError, match="buffer_info"):
        _kernels._call("tf_normalize", 3, starts, np.zeros(3), sq)


def test_every_kernel_source_is_built_and_packaged():
    sources = sorted(PACKAGE.glob("*.c"))
    assert sources, "no C sources found"
    assert sorted(source.resolve() for source in _kernels._SOURCES) == sources
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["tweetflow"]
    for source in sources:
        assert any(fnmatch.fnmatch(source.name, glob) for glob in globs), source.name


# numpy calls that sum in an order the BLAS kernel or the numpy version picks
UNORDERED = {"reduceat", "matmul", "einsum", "inner", "vdot", "tensordot", "linalg", "dot"}


def _unordered_sums(path: Path) -> list[str]:
    found = []
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Attribute) and node.attr in UNORDERED:
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            found.append(f"{path.name}:{node.lineno}: {ast.unparse(node)}")
        elif isinstance(node, ast.ImportFrom) and (node.module or "").startswith("numpy"):
            found += [f"{path.name}:{node.lineno}: from {node.module} import {alias.name}"
                      for alias in node.names
                      if alias.name in UNORDERED or "linalg" in node.module]
        elif isinstance(node, ast.Import):
            found += [f"{path.name}:{node.lineno}: import {alias.name}"
                      for alias in node.names if alias.name.startswith("numpy.")]
    return found


def test_no_float_sum_in_an_order_numpy_or_blas_picks():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _unordered_sums(path)]
    norm = [hit for hit in found if hit.startswith("clustering.py:") and hit.endswith(": np.dot")]
    rest = [hit for hit in found if hit not in norm]
    assert len(norm) == 1 and rest == [], (
        f"{found}: these sum in an order that the BLAS kernel or the numpy version picks, so "
        "their bits can change with the CPU or numpy (ROADMAP item 1). Only the centroids' "
        "squared norms in clustering.kmeans may still use np.dot, until item 1 retires it; "
        "add other terms in a fixed order (a C kernel or _sum_left)"
    )


def _numpy_imports(path: Path) -> list[str]:
    """Each import of numpy in the file, as "file:scope", the scope being
    the innermost function or class around it, or <module>."""
    found = []

    def visit(node: ast.AST, scope: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.Import):
                names = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom):
                names = [child.module or ""]
            else:
                names = []
            if any(name.split(".")[0] == "numpy" for name in names):
                found.append(f"{path.name}:{scope}")
            defines = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, child.name if defines else scope)

    visit(ast.parse(path.read_text(encoding="utf-8")), "<module>")
    return found


def test_numpy_is_imported_only_for_the_centroid_norms():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _numpy_imports(path)]
    assert found == ["clustering.py:_sq_norms"], (
        f"{found}: numpy is imported only inside clustering._sq_norms, so that no other "
        "function, module or stage command needs it"
    )


def test_the_numpy_import_guard_sees_each_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy as np\nfrom numpy.linalg import norm\n"
        "def f():\n    import os, numpy.random\n"
        "class C:\n    def g(self):\n        from numpy import dot\n    import numpy\n",
        encoding="utf-8",
    )
    assert _numpy_imports(source) == [
        "sample.py:<module>", "sample.py:<module>", "sample.py:f", "sample.py:g", "sample.py:C",
    ]


def test_the_guard_sees_each_form(tmp_path):
    source = tmp_path / "sample.py"
    source.write_text(
        "import numpy as np\nimport numpy.linalg\nfrom numpy import einsum, zeros\n"
        "a = x @ y\nx @= y\nb = np.add.reduceat(x, s)\nc = np.linalg.norm(x)\n"
        "d = np.tensordot(x, y)\ne = x.dot(y)\n",
        encoding="utf-8",
    )
    assert len(_unordered_sums(source)) == 8
