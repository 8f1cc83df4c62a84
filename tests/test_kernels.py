"""The loader of the compiled kernels."""

import os
import stat
import subprocess
from types import SimpleNamespace

import numpy as np
import pytest

from streamcut import EdgeChunk, GremConfig, PartitionState, _kernels, grem, model
from streamcut import placement, seed

from helpers import make_edge_file


def test_native_kernels_load_when_a_compiler_is_present():
    assert all(callable(getattr(_kernels, name)) for name in _kernels.KERNELS)


def _fake_compiler(tmp_path, script):
    path = tmp_path / "fake-cc"
    path.write_text("#!/bin/sh\n" + script)
    path.chmod(path.stat().st_mode | stat.S_IXUSR)
    return str(path)


def test_failed_build_falls_back_and_leaves_nothing(tmp_path, monkeypatch):
    # nothing to fall back to: the import fails, saying why, and leaves no
    # partial library
    cache = tmp_path / "cache"
    # writes a partial library to its -o argument and an error, then fails
    cc = _fake_compiler(tmp_path, 'while [ "$1" != -o ]; do shift; done\necho partial > "$2"\n'
                                  'echo "k.c:1: error: bad" >&2\nexit 3\n')
    monkeypatch.setattr(_kernels, "_CACHE", str(cache))
    monkeypatch.setattr(_kernels, "_compiler", lambda: cc)
    message = r"failed to build .*\(exit status 3\):\nk\.c:1: error: bad$"
    with pytest.raises(ImportError, match=message):
        _kernels._load()
    assert os.listdir(cache) == []


def test_no_compiler_falls_back(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path))
    monkeypatch.setattr(_kernels, "_compiler", lambda: None)
    with pytest.raises(ImportError, match="needs a C compiler: no cc, gcc or clang on PATH"):
        _kernels._load()
    assert os.listdir(tmp_path) == []


def test_an_unwritable_cache_raises(tmp_path, monkeypatch):
    blocker = tmp_path / "file"
    blocker.write_text("a file where the cache directory would go")
    monkeypatch.setattr(_kernels, "_CACHE", str(blocker / "cache"))
    with pytest.raises(ImportError, match="cannot write the kernel cache"):
        _kernels._load()
    assert os.listdir(tmp_path) == ["file"]


def test_build_is_cached_by_source_hash(tmp_path, monkeypatch):
    monkeypatch.setattr(_kernels, "_CACHE", str(tmp_path))
    _kernels._load()
    (built,) = os.listdir(tmp_path)
    assert built.startswith("_kernels.") and built.endswith(".so")
    # a second load reuses the library without compiling
    monkeypatch.setattr(_kernels, "_compiler", lambda: None)
    sweep = _kernels._load()[0]
    assert os.listdir(tmp_path) == [built]
    # and the loaded kernel runs: one fresh node with a neighbour in
    # partition 1, the key 0 << 1 | 1 of width 2
    keys = np.array([1], dtype=np.uint32)
    parts = np.array([-1, 1], dtype=np.int8)
    lean = np.zeros(2)
    tally = np.array([0, 1, 0, 0], dtype=np.int64)
    ptr = _kernels.ptr
    failed = sweep(1, ptr(keys, np.uint32, 1), 4, 1, ptr(parts, np.int8, 2),
                   ptr(lean, np.float64, 2), ptr(tally, np.int64, 4), 2, 1)
    assert failed == -1
    assert parts.tolist() == [1, 1] and tally.tolist() == [0, 2, 1, 0]
    assert lean[0] == 1.0


def test_every_kernel_refuses_a_call_with_the_wrong_argument_count():
    # ctypes checks only for too few arguments and passes extra ones on to C,
    # where a stale call's arguments land shifted (a segmentation fault for
    # an 11-argument sweep once it took 9)
    for name in _kernels.KERNELS:
        kernel = getattr(_kernels, name)
        nargs = len(kernel.argtypes)
        for count in (nargs + 1, nargs - 1):
            with pytest.raises(TypeError, match=rf"^{name}\(\) takes {nargs} arguments "
                                                rf"\({count} given\)$"):
                kernel(*[0] * count)


def test_build_removes_stale_libraries(tmp_path, monkeypatch):
    cache = tmp_path / "cache"
    cache.mkdir()
    stale = cache / "_kernels.0000000000000000.so"
    stale.write_bytes(b"library of an older source")
    other = cache / "notes.txt"
    other.write_text("not a kernel library")
    monkeypatch.setattr(_kernels, "_CACHE", str(cache))
    _kernels._load()
    built = [name for name in os.listdir(cache) if name.endswith(".so")]
    assert len(built) == 1 and built[0] != stale.name
    assert other.exists()


def test_kernel_source_compiles_without_warnings(tmp_path):
    cc = _kernels._compiler()
    result = subprocess.run(
        [cc, *_kernels.CFLAGS, "-Wall", "-Wextra", "-Werror", "-o", str(tmp_path / "k.so"),
         _kernels._SOURCE],
        capture_output=True, text=True, timeout=120,
    )
    assert result.returncode == 0, result.stderr


def _strided(arr):
    """A non-contiguous view equal to ``arr``."""
    wide = np.repeat(arr, 2)
    return wide[::2]


def _chunk_with(chunk, **swap):
    """A chunk whose width and sorted keys are those of ``chunk`` with some replaced."""
    return SimpleNamespace(**{"width": chunk.width, "keys": chunk.keys, **swap})


def _bad_kernel_calls(tmp_path, monkeypatch):
    """(kernel, call) pairs: each call hands its kernel an array of the wrong
    dtype or layout through the code that calls it."""
    chunk = EdgeChunk(1, np.array([[0, 1], [1, 2], [2, 3], [3, 0], [1, 1]]))
    nodes, offsets, nbrs = chunk.nodes, chunk.offsets, chunk.nbrs

    def state(**swap):
        fresh = PartitionState(4, capacity=3)
        for name, arr in swap.items():
            setattr(fresh, name, arr)
        return fresh

    def sweep(**swap):
        return lambda: grem.process_chunk(state(), _chunk_with(chunk, **swap), GremConfig())

    def sweep_state(**swap):
        return lambda: grem.process_chunk(state(**swap), chunk, GremConfig())

    def seed_counts(**swap):
        return lambda: grem._seed_chunk(state(**swap), chunk)

    def bfs_grow(**swap):
        fake = SimpleNamespace(**{"nodes": nodes, "offsets": offsets, "nbrs": nbrs,
                                  "width": chunk.width, **swap})
        return lambda: seed.seed_bisect(fake, 3)

    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 3]], 4)
    plan = placement.plan_assignment(2, 2, rng_seed=0)

    def comm_walk(snbrs):
        def run():
            real = placement.build_adjacency
            with monkeypatch.context() as patch:
                patch.setattr(placement, "build_adjacency", lambda *args: (*real(*args)[:2], snbrs))
                placement.estimate_comm(efile, np.array([0, 0, 1, 1]), plan, (2,), 2, 0)
        return run

    rows = np.array([[0, 1], [2, 3]], dtype=np.uint32)

    def pack_keys(fwd, rev):
        return lambda: model._pack_block(rows, 4, 2, fwd, rev)

    def pack_parts(keys, cursors, ends=None):
        # width 65,537: u32 keys of shift 17 in three parts
        return lambda: model._pack_block(rows, 65_537, 17, keys, None, cursors, ends)

    def tail(keys):
        return lambda: model._adjacency_tail(keys, None, 4)

    keys32 = np.zeros(4, dtype=np.uint32)
    cursors, ends = np.array([0, 4, 4], dtype=np.int64), np.array([4, 4, 4], dtype=np.int64)
    return [
        ("sweep", sweep(keys=chunk.keys.astype(np.int32))),
        ("sweep", sweep(keys=_strided(chunk.keys))),
        ("sweep", sweep_state(lean=np.zeros(4, dtype=np.float32))),
        ("sweep", sweep_state(parts=_strided(np.full(4, -1, dtype=np.int8)))),
        ("bfs_grow", bfs_grow(offsets=offsets.astype(np.int32))),
        ("bfs_grow", bfs_grow(offsets=_strided(offsets))),
        ("bfs_grow", bfs_grow(nodes=nodes.astype(np.uint32))),
        ("bfs_grow", bfs_grow(nbrs=_strided(nbrs))),
        ("seed_counts", seed_counts(lean=np.zeros(4, dtype=np.float32))),
        ("seed_counts", seed_counts(lean=_strided(np.zeros(4)))),
        ("comm_walk", comm_walk(np.array([1, 0, 2, 1, 3, 2], dtype=np.int32))),
        ("comm_walk", comm_walk(_strided(np.array([1, 0, 2, 1, 3, 2])))),
        ("pack_keys", pack_keys(np.zeros(2, dtype=np.int32), np.zeros(2, dtype=np.uint32))),
        ("pack_keys", pack_keys(np.zeros(2, dtype=np.uint32), _strided(np.zeros(2, np.uint32)))),
        ("pack_keys", pack_parts(None, np.zeros(3, dtype=np.int32))),
        ("pack_keys", pack_parts(None, np.zeros(2, dtype=np.int64))),
        ("pack_keys", pack_parts(np.zeros(4, dtype=np.int32), cursors.copy(), ends)),
        ("pack_keys", pack_parts(_strided(keys32), cursors.copy(), ends)),
        ("pack_keys", pack_parts(keys32, cursors.copy(), _strided(ends))),
        ("adjacency_tail", tail(np.zeros(4, dtype=np.int64))),
        ("adjacency_tail", tail(_strided(keys32))),
    ]


def test_kernels_reject_arrays_of_the_wrong_dtype_or_layout(tmp_path, monkeypatch):
    calls = _bad_kernel_calls(tmp_path, monkeypatch)
    assert {name for name, _ in calls} == {"sweep", "bfs_grow", "seed_counts", "comm_walk",
                                           "pack_keys", "adjacency_tail"}
    for name, call in calls:
        with pytest.raises(ValueError, match="kernel array must be contiguous"):
            call()


SANITIZE = ("-O1", "-g", "-fsanitize=address,undefined", "-fno-sanitize-recover=all",
            "-ffp-contract=off")


def test_kernels_keep_their_buffer_contracts_under_sanitizers(tmp_path):
    # pack_keys (into parts through their cursors, too), adjacency_tail (u32
    # neighbour ids over the keys), sweep (over a chunk's one array of sorted
    # u32 or u64 keys, against a CSR loop), seed_counts and bfs_grow on the
    # key-layout edge cases (split keys at widths 200,000 and 2**19 among
    # them), comm_walk on a graph with isolated ids, the four edge
    # passes on rows whose ids reach num_nodes - 1 at both id widths, with
    # u32 labels and counters, scatter_rows on feature records of 1, 3 and
    # 128 bytes, and curve_point on a packed lgamma table,
    # every buffer sized exactly as the Python callers size it: an access
    # past one (such as a `nodes` without its spare entry) aborts
    cc = _kernels._compiler()
    probe = tmp_path / "probe.c"
    probe.write_text("int main(void) { return 0; }\n")
    built = subprocess.run([cc, *SANITIZE, str(probe), "-o", str(tmp_path / "probe")],
                           capture_output=True, timeout=120)
    if built.returncode != 0 or subprocess.run([str(tmp_path / "probe")]).returncode != 0:
        pytest.skip("no address or undefined-behaviour sanitizer runtime")
    source = os.path.join(os.path.dirname(os.path.abspath(__file__)), "kernels_sanitized.c")
    # it includes _kernels.c, so every call is checked against its definition
    built = subprocess.run([cc, *SANITIZE, source, "-lm", "-o", str(tmp_path / "checks")],
                           capture_output=True, text=True, timeout=120)
    assert built.returncode == 0, built.stderr
    run = subprocess.run([str(tmp_path / "checks")], capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "ok\n"
