"""The C kernels, _gibbs.c for ``topics.fit_lda`` and _brandes.c for
``netmetrics.betweenness_centrality``, built into one library with `cc` and
loaded through ctypes when a kernel first runs in a process. All names are
private: perfbench/layertrace.py wraps public functions only, so it times
the kernels' work as the calls that run them."""

from __future__ import annotations

import functools
import hashlib
import os
import tempfile
from pathlib import Path

from .errors import StageError

_SOURCES = (Path(__file__).with_name("_gibbs.c"), Path(__file__).with_name("_brandes.c"))
# no -ffast-math or -march, and no contraction into fused multiply-adds:
# each float operation rounds as the same operation does in Python
_COMPILE = ("cc", "-O2", "-std=c99", "-fPIC", "-shared", "-ffp-contract=off")


def _compile(library: Path) -> None:
    """Build the sources into the shared library `library`; StageError if cc cannot."""
    import shlex
    import subprocess

    argv = [*_COMPILE, "-o", str(library), *map(str, _SOURCES)]
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
    lib.tf_gibbs_sweeps.argtypes = (i64, *[ptr] * 6, i32, f64, f64, f64, i64, ptr, ptr)
    lib.tf_gibbs_sweeps.restype = None
    lib.tf_brandes.argtypes = (i32, *[ptr] * 10)
    lib.tf_brandes.restype = None
    return lib


@functools.lru_cache(maxsize=None)
def _library():
    """The kernels' shared library, built at most once per source and command.

    It is kept in $XDG_CACHE_HOME/tweetflow (~/.cache/tweetflow by default)
    under the sha256 of the sources and the compiler command, compiled to a
    temporary name there and renamed into place, so a process never loads a
    half-written library; or, when that directory cannot be written, built
    in a temporary directory of this process.
    """
    digest = hashlib.sha256(b"\0".join([*(source.read_bytes() for source in _SOURCES),
                                         " ".join(_COMPILE).encode()])).hexdigest()
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
    return _load(library)
