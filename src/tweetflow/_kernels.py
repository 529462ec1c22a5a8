"""The C kernels, _gibbs.c for ``topics.fit_lda``, _brandes.c for
``netmetrics.betweenness_centrality``, _cluster.c for ``clustering``'s
k-means and silhouette, and _graph.c for the power iteration of
``netmetrics.eigenvector_centrality`` and the merge loop of
``community.greedy_modularity``, built into one library with `cc` and loaded
through ctypes when a kernel first runs in a process; `_call` runs one.
All names are private: perfbench/layertrace.py wraps public functions
only, so it times the kernels' work as the calls that run them."""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from pathlib import Path

from .errors import StageError

_SOURCES = tuple(
    Path(__file__).with_name(name)
    for name in ("_gibbs.c", "_brandes.c", "_cluster.c", "_graph.c")
)
# no -ffast-math or -march, and no contraction into fused multiply-adds:
# each float operation rounds as the same operation does in Python
_COMPILE = ("cc", "-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")
_LINK = ("-lm",)


def _compile(library: Path) -> None:
    """Build the sources into the shared library `library`; StageError if cc cannot."""
    import shlex
    import subprocess

    argv = [*_COMPILE, "-o", str(library), *map(str, _SOURCES), *_LINK]
    try:
        result = subprocess.run(argv, capture_output=True, text=True)
    except OSError as exc:
        raise StageError(f"cannot build the C kernels with `{shlex.join(argv)}`: {exc}") from exc
    if result.returncode != 0:
        raise StageError(
            f"cannot build the C kernels: `{shlex.join(argv)}` exited {result.returncode}: "
            f"{result.stderr.strip()}"
        )


def _load(library: Path):
    """The shared library `library`, the C signatures of its kernels declared."""
    import ctypes

    lib = ctypes.CDLL(str(library))
    i32, i64, ptr, f64 = ctypes.c_int32, ctypes.c_int64, ctypes.c_void_p, ctypes.c_double
    for name, argtypes in (
        ("tf_gibbs_sweeps", (i64, *[ptr] * 6, i32, f64, f64, f64, i64, ptr, ptr)),
        ("tf_brandes", (i32, *[ptr] * 10)),
        ("tf_normalize", (i64, ptr, ptr, ptr)),
        ("tf_row_distances", (i64, *[ptr] * 4, i64, ptr, ptr)),
        ("tf_assign", (i64, i32, i64, *[ptr] * 8)),
        ("tf_centroids", (i64, i32, i64, *[ptr] * 6)),
        ("tf_silhouette", (i64, i64, *[ptr] * 4, i32, ptr, ptr, i64, *[ptr] * 7)),
        ("tf_power_iteration", (i32, ptr, ptr, f64, f64, i64, ptr, ptr, ptr)),
        ("tf_greedy_modularity", (i32, *[ptr] * 3, i64, f64, *[ptr] * 4)),
    ):
        kernel = getattr(lib, name)
        kernel.argtypes, kernel.restype = argtypes, None
    return lib


def _prune(cache: Path, library: Path) -> None:
    """Remove the libraries of other sources or commands from the cache,
    and those of the loaders before this one; a library another process
    has mapped outlives its name."""
    for stale in [*cache.glob("kernels-*.so"), *cache.glob("gibbs-*.so")]:
        if stale != library:
            try:
                stale.unlink()
            except OSError:
                pass


@functools.lru_cache(maxsize=None)
def _library():
    """The kernels' shared library, built at most once per source and command.

    It is kept in $XDG_CACHE_HOME/tweetflow (~/.cache/tweetflow by default)
    under the sha256 of the sources and the compiler command, compiled to a
    temporary name there and renamed into place, so a process never loads a
    half-written library; or, when that directory cannot be written, built
    in a temporary directory of this process. A build into the cache
    removes the libraries of other digests.
    """
    digest = hashlib.sha256(b"\0".join([*(source.read_bytes() for source in _SOURCES),
                                         " ".join((*_COMPILE, *_LINK)).encode()])).hexdigest()
    cache = Path(os.environ.get("XDG_CACHE_HOME") or Path.home() / ".cache") / "tweetflow"
    library = cache / f"kernels-{digest}.so"
    if library.exists():
        return _load(library)
    try:
        cache.mkdir(mode=0o700, parents=True, exist_ok=True)
        fd, partial = tempfile.mkstemp(dir=cache, prefix=".kernels-", suffix=".so")
    except OSError:
        with tempfile.TemporaryDirectory(prefix="tweetflow-") as directory:
            private = Path(directory) / "kernels.so"
            _compile(private)
            return _load(private)  # mapped, so its directory may go
    os.close(fd)
    try:
        _compile(Path(partial))
        os.replace(partial, library)
    finally:
        if os.path.exists(partial):
            os.unlink(partial)
    _prune(cache, library)
    return _load(library)


def _call(name: str, *args) -> None:
    """Run kernel `name` on args: each int or float by value, each
    array.array by the address of its data. `args` holds every array until
    the kernel returns, so none can be freed while the kernel reads or
    writes it."""
    getattr(_library(), name)(*(arg if isinstance(arg, (int, float)) else arg.buffer_info()[0]
                                for arg in args))
