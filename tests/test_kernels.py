"""The C kernel library: its cache, its call helper and its sources; the
centroid norm's summation order, against its model and against the BLAS
kernel it was taken from; the guard that keeps every float sum of
src/tweetflow/*.py in a fixed order; and the guard that keeps numpy out of
src/tweetflow."""

from __future__ import annotations

import ast
import fnmatch
import json
import os
import random
import subprocess
import sys
import time
import tomllib
from array import array
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from oracles import sq_norm_frozen_order
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
    def test_a_build_keeps_the_newest_libraries_of_other_digests(self, cache):
        cache.mkdir(mode=0o700)
        kept = ("notes.txt", "kernels-3333.so.bak")
        for name in ("gibbs-1111.so", "gibbs-2222.so", *kept):
            (cache / name).write_bytes(b"stale")
        # built oldest first, each a minute after the one before, up to an hour ago
        others = ["kernels-0000.so", "kernels-0001.so", "kernels-0002.so", "kernels-0003.so"]
        (cache / "kernels-4444.so").mkdir()  # cannot be unlinked: the OSError is ignored
        for age, name in enumerate(["kernels-4444.so", *others][::-1]):
            if not (cache / name).exists():
                (cache / name).write_bytes(b"stale")
            stamp = time.time_ns() - (3600 + 60 * age) * 10**9
            os.utime(cache / name, ns=(stamp, stamp))
        library = _kernels._library()
        built = [p.name for p in cache.glob("kernels-*.so")
                 if p.name not in (*others, "kernels-4444.so")]
        assert len(built) == 1 and library._name.endswith(built[0])
        newest = others[-_kernels._KEEP_OTHERS:]
        assert sorted(p.name for p in cache.iterdir()) == sorted(
            [*built, *kept, *newest, "kernels-4444.so"])

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
        assert sorted(cache.iterdir()) == sorted([first, *rebuilt(cache, first)])

    def test_the_digest_covers_the_header(self, cache, monkeypatch, tmp_path):
        _kernels._library()
        (first,) = cache.iterdir()
        header = tmp_path / "_mt.h"
        header.write_bytes(_kernels._HEADERS[0].read_bytes() + b"\n/* changed */\n")
        monkeypatch.setattr(_kernels, "_HEADERS", (header,))
        _kernels._library.cache_clear()
        _kernels._library()
        assert sorted(cache.iterdir()) == sorted([first, *rebuilt(cache, first)])

    def test_switching_back_to_a_kept_digest_does_not_rebuild(self, cache, monkeypatch):
        link = _kernels._LINK
        _kernels._library()
        monkeypatch.setattr(_kernels, "_LINK", ("-lm", "-lc"))
        _kernels._library.cache_clear()
        _kernels._library()
        monkeypatch.setattr(_kernels, "_LINK", link)
        compiled = []
        monkeypatch.setattr(_kernels, "_compile", compiled.append)
        _kernels._library.cache_clear()
        _kernels._library()
        assert compiled == [] and len(list(cache.iterdir())) == 2

    def test_a_library_removed_before_it_loads_is_rebuilt(self, cache, monkeypatch):
        _kernels._library()
        (library,) = cache.iterdir()
        load = _kernels._load
        loads = []

        def pruned_first(path):
            loads.append(path)
            if len(loads) == 1:
                # another process's prune, after exists() saw it; this process
                # has the library mapped, so CDLL would still find it here
                path.unlink()
                raise OSError(f"{path}: cannot open shared object file")
            return load(path)

        monkeypatch.setattr(_kernels, "_load", pruned_first)
        _kernels._library.cache_clear()
        _kernels._library()
        assert loads == [library, library] and list(cache.iterdir()) == [library]


def rebuilt(cache, first):
    """The one library in `cache` besides `first`."""
    (second,) = [path for path in cache.iterdir() if path != first]
    return [second]


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
    headers = sorted(PACKAGE.glob("*.h"))
    assert sorted(header.resolve() for header in _kernels._HEADERS) == headers
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text(encoding="utf-8"))
    globs = pyproject["tool"]["setuptools"]["package-data"]["tweetflow"]
    for path in sources + headers:
        assert any(fnmatch.fnmatch(path.name, glob) for glob in globs), path.name


def kernel_sq_norm(x: list[float]) -> float:
    """The squared norm tf_assign computes for the centroid x: with k = 1,
    one empty row's squared distance to it is (0 - 2 * 0) + |x|^2. An empty
    x is passed as a one-entry buffer that the kernel does not read."""
    best = array("d", [-1.0])
    _kernels._call("tf_assign", 1, 1, len(x), array("q", [0, 0]), array("i", [0]),
                   array("d", [0.0]), array("d", [0.0]), array("d", x or [0.0]),
                   array("d", [0.0]), array("i", [-1]), best)
    return best[0]


def _vector(rng: random.Random, n: int) -> list[float]:
    """n seeded entries, about half of them 0.0, the rest of any magnitude a
    term weight or a norm test needs: unit-range, tiny, subnormal and large
    (at most 1e150, so that no sum of squares below 12,000 terms overflows)."""
    draws = (
        lambda: 0.0,
        lambda: rng.random(),
        lambda: rng.random() * 10 ** rng.uniform(-6, 0),
        lambda: rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(-160, -140),
        lambda: rng.uniform(0.0, 2.0 ** -1022),  # subnormal
        lambda: rng.uniform(-1.0, 1.0) * 10 ** rng.uniform(100, 150),
    )
    weights = (12, 6, 3, 1, 1, 1)
    return [rng.choices(draws, weights)[0]() for _ in range(n)]


FINITE = st.floats(min_value=-1e150, max_value=1e150, allow_nan=False, allow_infinity=False)


class TestCentroidNorm:
    """tf_assign's centroid norms against tests/oracles.py::sq_norm_frozen_order,
    the one-thread order of the BLAS ddot the goldens were frozen under."""

    def test_every_length_to_130_matches_the_model(self):
        # covers n < 16, n % 32 == 16, n >= 32 and every tail length; the
        # dense vectors round often enough that an unfused multiply-add in
        # any block shows
        rng = random.Random(0)
        for n in range(131):
            for x in [*(_vector(rng, n) for _ in range(3)),
                      *([rng.random() for _ in range(n)] for _ in range(5))]:
                assert kernel_sq_norm(x) == sq_norm_frozen_order(x), (n, x)

    @settings(max_examples=300, deadline=None)
    @given(st.lists(FINITE | st.sampled_from([0.0, 5e-324, -2.0 ** -1022, 1.0]), max_size=130))
    def test_drawn_vectors_match_the_model(self, x):
        assert kernel_sq_norm(x) == sq_norm_frozen_order(x)

    @settings(max_examples=5, deadline=None)
    @given(st.integers(10_001, 12_000), st.integers(0, 2 ** 32))
    def test_long_vectors_match_the_model(self, n, seed):
        # above 10,000 terms OpenBLAS may split ddot across threads; the
        # kernel keeps the one-thread order
        x = _vector(random.Random(seed), n)
        assert kernel_sq_norm(x) == sq_norm_frozen_order(x)

    def test_the_model_is_the_blas_order_it_was_taken_from(self):
        flags = Path("/proc/cpuinfo").read_text() if Path("/proc/cpuinfo").exists() else ""
        if "avx512f" not in flags.split():
            pytest.skip("the SkylakeX ddot kernel needs a CPU with AVX-512F")
        rng = random.Random(1)
        vectors = [_vector(rng, n) for n in [*range(131), 10_001, 10_016, 11_999]]
        code = ("import json, sys, numpy as np\n"
                "vectors = [np.array([float.fromhex(v) for v in x]) for x in json.load(sys.stdin)]\n"
                "print(json.dumps([float(np.dot(x, x)).hex() for x in vectors]))")
        env = {**os.environ, "OPENBLAS_CORETYPE": "SkylakeX", "OPENBLAS_NUM_THREADS": "1"}
        result = subprocess.run(
            [sys.executable, "-c", code], input=json.dumps([[v.hex() for v in x] for x in vectors]),
            capture_output=True, text=True, env=env, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        blas = [float.fromhex(value) for value in json.loads(result.stdout)]
        assert blas == [sq_norm_frozen_order(x) for x in vectors]


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
    assert found == [], (
        f"{found}: these sum in an order that the BLAS kernel or the numpy version picks, so "
        "their bits can change with the CPU or numpy; add terms in a fixed order (a C kernel "
        "or _sum_left)"
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


def test_no_module_imports_numpy():
    found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _numpy_imports(path)]
    assert found == [], (
        f"{found}: numpy is not a runtime dependency, so no function, module or stage "
        "command may import it"
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
