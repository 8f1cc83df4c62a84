"""Loader of the compiled sweep and seed kernels in ``_kernels.c``.

At first import the C source is compiled with the system C compiler into
this package's ``__pycache__/``, under a name carrying a hash of the source,
the flags and the platform, and loaded with ``ctypes``.  The compiler writes
to a temporary file that is then renamed into place, so concurrent processes
never load a half-written library; a successful build removes every other
``_kernels.*.so`` from the cache directory.  ``sweep`` and ``bfs_grow`` are the loaded
functions, or ``None`` when no compiler is found or the build fails; callers
then run their pure-Python loops, which give bit-identical results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

_DIR = os.path.dirname(os.path.abspath(__file__))
_SOURCE = os.path.join(_DIR, "_kernels.c")
_CACHE = os.path.join(_DIR, "__pycache__")
# no -ffast-math or -march=native: results stay bit-identical and the cache portable
CFLAGS = ("-O2", "-shared", "-fPIC")


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _build(source: bytes, target: str) -> None:
    """Compiles ``source`` to ``target``; raises OSError or SubprocessError on failure."""
    cc = _compiler()
    if cc is None:
        raise FileNotFoundError("no C compiler on PATH")
    os.makedirs(_CACHE, exist_ok=True)
    fd, tmp = tempfile.mkstemp(prefix="_kernels.", suffix=".tmp", dir=_CACHE)
    os.close(fd)
    try:
        subprocess.run([cc, *CFLAGS, "-x", "c", "-o", tmp, "-"], input=source,
                       capture_output=True, check=True, timeout=120)
        os.chmod(tmp, 0o755)  # mkstemp made it private; other users load it too
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    # libraries built from earlier sources are never loaded again
    for name in os.listdir(_CACHE):
        path = os.path.join(_CACHE, name)
        if name.startswith("_kernels.") and name.endswith(".so") and path != target:
            try:
                os.remove(path)
            except OSError:
                pass


def _load():
    try:
        with open(_SOURCE, "rb") as fh:
            source = fh.read()
        tag = " ".join((*CFLAGS, sys.platform, platform.machine())).encode()
        target = os.path.join(_CACHE, f"_kernels.{hashlib.sha256(source + tag).hexdigest()[:16]}.so")
        if not os.path.exists(target):
            _build(source, target)
        lib = ctypes.CDLL(target)
    except (OSError, subprocess.SubprocessError):
        return None, None
    i64 = ctypes.c_int64
    ptr_i64 = np.ctypeslib.ndpointer(np.int64, flags="C_CONTIGUOUS")
    ptr_i8 = np.ctypeslib.ndpointer(np.int8, flags="C_CONTIGUOUS")
    ptr_f64 = np.ctypeslib.ndpointer(np.float64, flags="C_CONTIGUOUS")
    lib.sweep.argtypes = [i64, ptr_i64, ptr_i64, ptr_i64, ptr_i64, ptr_i8, ptr_f64, ptr_f64,
                          ptr_i64, i64, ctypes.c_int32]
    lib.sweep.restype = i64
    lib.bfs_grow.argtypes = [i64, ptr_i64, ptr_i64, ptr_i64, ptr_i64, i64, i64, ptr_i8, ptr_i64]
    lib.bfs_grow.restype = None
    return lib.sweep, lib.bfs_grow


sweep, bfs_grow = _load()


def kernel_name() -> str:
    """``"native"`` when the compiled kernels run, ``"python"`` for the fallback loops."""
    return "native" if sweep is not None and bfs_grow is not None else "python"
