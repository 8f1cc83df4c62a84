"""The loader of the compiled kernels."""

import os
import stat
import subprocess

import numpy as np
import pytest

from streamcut import _kernels


def test_native_kernels_load_when_a_compiler_is_present():
    if _kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")
    assert all(getattr(_kernels, name) is not None for name in _kernels.KERNELS)
    assert _kernels.kernel_name() == "native"


def test_kernel_name_is_native_only_with_every_handle(monkeypatch):
    if _kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")
    for name in _kernels.KERNELS:
        with monkeypatch.context() as patch:
            patch.setattr(_kernels, name, None)
            assert _kernels.kernel_name() == "python", name
    assert _kernels.kernel_name() == "native"


def _fake_compiler(tmp_path, script):
    path = tmp_path / "fake-cc"
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_failed_build_falls_back_and_leaves_nothing(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    # writes a partial library to its -o argument, then fails
    cc = _fake_compiler(tmp_path, 'while [ "$1" != -o ]; do shift; done\necho partial > "$2"\nexit 1\n')
    monkeypatch.setattr(_kernels, "_CACHE", str(cache))
    monkeypatch.setattr(_kernels, "_compiler", lambda: cc)
    assert _kernels._load() == (None,) * len(_kernels.KERNELS)
    assert os.listdir(cache) == []


def test_no_compiler_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path))
    monkeypatch.setattr(_kernels, "_compiler", lambda: None)
    assert _kernels._load() == (None,) * len(_kernels.KERNELS)
    assert os.listdir(tmp_path) == []


def test_build_is_cached_by_source_hash(tmp_path, monkeypatch):
    if _kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path))
    assert None not in _kernels._load()
    (built,) = os.listdir(tmp_path)
    assert built.startswith("_kernels.") and built.endswith(".so")
    # a second load reuses the library without compiling
    monkeypatch.setattr(_kernels, "_compiler", lambda: None)
    sweep = _kernels._load()[0]
    assert sweep is not None
    assert os.listdir(tmp_path) == [built]
    # and the loaded kernel runs: one fresh node with a neighbour in partition 1
    nodes, starts, ends, nbrs = (np.array([v], dtype=np.int64) for v in (0, 0, 1, 1))
    parts = np.array([-1, 1], dtype=np.int8)
    nbr0, nbr1 = np.zeros(2), np.zeros(2)
    sizes = np.array([0, 1], dtype=np.int64)
    failed = sweep(1, nodes, starts, ends, nbrs, parts, nbr0, nbr1, sizes, 2, 1)
    assert failed == -1
    assert parts.tolist() == [1, 1] and sizes.tolist() == [0, 2]
    assert (nbr0[0], nbr1[0]) == (0.0, 1.0)


def test_build_removes_stale_libraries(tmp_path, monkeypatch):
    if _kernels._compiler() is None:
        pytest.skip("no C compiler on PATH")
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "_kernels.0000000000000000.so"
    stale.write_bytes(b"library of an older source")
    other = cache / "notes.txt"
    other.write_text("not a kernel library")
    monkeypatch.setattr(_kernels, "_CACHE", str(cache))
    assert None not in _kernels._load()
    built = [name for name in os.listdir(cache) if name.endswith(".so")]
    assert len(built) == 1 and built[0] != stale.name
    assert other.exists()


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = _kernels._compiler()
    if cc is None:
        pytest.skip("no C compiler on PATH")
    result = subprocess.run(
        [cc, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
         _kernels._SOURCE],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr
