"""Loader of the compiled kernels in ``_kernels.c``.

At first import the C source is compiled with the system C compiler into
this package's ``__pycache__/``, under a name carrying a hash of the source,
the flags and the platform, and loaded with ``ctypes``.  The compiler writes
to a temporary file that is then renamed into place, so concurrent processes
never load a half-written library; a successful build removes every other
``_kernels.*.so`` from the cache directory.

The kernels, named in ``KERNELS``, each run one inner loop;
``bfs_grow``, ``seed_counts`` and ``comm_walk`` read ``model.build_adjacency``'s
CSR index ``(nodes, offsets, nbrs)``, node i's neighbours
``nbrs[offsets[i]:offsets[i + 1]]``, int64 nodes and offsets and u32
neighbour ids, and ``sweep`` the sorted keys it is built from:

* ``sweep`` -- the greedy chunk sweep of ``grem.process_chunk``, straight
  off an ``EdgeChunk``'s one array of sorted ``src << shift | dst`` keys,
  u32 or u64, each run of one owner a node's neighbour list; its decision
  (``grem.assign``) is computed without branches, since which side a
  re-placed node takes is unpredictable, and it branches only to leave
  when no side can take a node; it reads and writes one estimate per node, its lean (side-1
  neighbours less side-0 ones), and adds the nodes it visited and moved to
  two counters;
* ``bfs_grow`` -- the BFS-grow seed, its restart order (a counting sort on
  degree) and its refinement, ``seed.seed_bisect``, over a u32 rank from id
  to position whose pages are touched only where they hold a chunk node;
* ``seed_counts`` -- the leans of the seeded chunk nodes,
  ``grem._seed_chunk``;
* ``pack_keys`` -- the adjacency builder's keys, ``src << shift | dst`` in
  both directions, u64 or their low 32 bits, from a block of u32 or u64
  rows: ``model._pack_block``.  Where ``model.key_layout`` splits u32 keys
  of widths above 65,536 into parts on their high ``2 * shift - 32`` bits
  (at most 64 parts, width 2**19; in ``model.build_adjacency`` only), it
  counts each part's keys on a first pass and writes each key straight to
  its part's cursor on a second, so each part sorts as u32;
* ``adjacency_tail`` -- the run split and self-loop removal after the key
  sort, part by part, branch-free, writing the u32 neighbour ids over the
  sorted keys, in ``model._adjacency_tail``;
* ``comm_walk`` -- the sampling walk of ``placement.estimate_comm``;
* ``label_pass`` -- gathers both u32 labels of each edge of a block, tallies
  cut edges and optionally counts and writes p x p bucket ids:
  ``grem.count_cuts`` and both passes of ``store.write_buckets``;
* ``extract_rows`` -- keeps the rows whose endpoints both have a new id and
  writes them relabelled at the output id width, returning how many:
  ``grem._extract_induced``;
* ``scatter_rows`` -- a stable counting scatter of a block's rows by bucket
  id, each row copied as ``row_bytes`` bytes: 8 or 16 for an edge row of two
  u32 or u64 ids, any width for a feature record; the write pass of
  ``store.write_buckets``, the scatter pass of ``edgefile.external_shuffle``
  and ``store.reorder_features``;
* ``endpoint_counts`` -- per-node counts of non-self-loop endpoints, plain
  or split by the other endpoint's u32 side, added to u32 counters:
  ``placement.select_replicated`` and ``theory.compute_node_stats``;
* ``curve_point`` -- one point of ``theory.theory_curve``: each (k, k0)
  pair's cdf terms, read from one packed lgamma table and added left to
  right, then the node total in node order.

The four edge passes take blocks of 4- or 8-byte ids as
``edgefile.iter_edge_blocks`` yields them (``scatter_rows``, which never
reads an id, also takes feature records).  Their precondition is that
reader's check: every id is below the node count that sizes the per-node
arrays, which they index unchecked.  They check only the labels and bucket
ids they read (``extract_rows`` reads neither) and return the first row they
reject.  Labels reach ``label_pass`` and ``endpoint_counts`` as one u32
array, a label file's form, made once where they enter by
``edgefile._check_labels``: every label is below p (2 for a bisection), and
an unassigned one is 0xFFFFFFFF, which the passes reject like any label out
of their range; ``edgefile._raise_rejected`` makes a row with a 0xFFFFFFFF
endpoint a FormatError, any other a ValueError.  ``endpoint_counts`` adds
into u32 counters, which its caller folds into the int64 result at the end
and every 2**32 - 1 rows before that, so no count wraps.

A C compiler is required: each kernel is the only implementation of its
loop.  When the library cannot be built or loaded, importing this module,
and so the package, raises ImportError saying why: no compiler on PATH, the
compiler's exit status and the first lines of its stderr, or a cache
directory that cannot be written.

Every array goes to a kernel as a plain address through ``ptr``, which
checks its dtype, size and contiguity and raises ValueError otherwise.
Each kernel refuses a call with any other number of arguments than its C
function takes with TypeError: ctypes itself passes extra ones on unchecked.
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
# no -ffast-math or -march=native, and no contraction into fused multiply-adds:
# results stay bit-identical and the cache portable
CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off")
_STDERR_LINES = 10  # of a failed build's stderr, quoted in its ImportError


def _compiler() -> str | None:
    for name in ("cc", "gcc", "clang"):
        path = shutil.which(name)
        if path is not None:
            return path
    return None


def _build(source: bytes, target: str) -> None:
    """Compiles ``source`` to ``target``; ImportError saying why it could not."""
    cc = _compiler()
    if cc is None:
        raise ImportError("streamcut needs a C compiler: no cc, gcc or clang on PATH")
    try:
        os.makedirs(_CACHE, exist_ok=True)
        fd, tmp = tempfile.mkstemp(prefix="_kernels.", suffix=".tmp", dir=_CACHE)
        os.close(fd)
    except OSError as exc:
        raise ImportError(f"cannot write the kernel cache {_CACHE}: {exc}") from exc
    try:
        built = subprocess.run([cc, *CFLAGS, "-x", "c", "-o", tmp, "-", "-lm"], input=source,
                               capture_output=True, timeout=120)
        if built.returncode == 0:
            os.chmod(tmp, 0o755)  # mkstemp made it private; other users load it too
            os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        raise ImportError(f"cannot build the kernels into {_CACHE} with {cc}: {exc}") from exc
    finally:
        if os.path.exists(tmp):
            os.remove(tmp)
    if built.returncode != 0:
        stderr = "\n".join(built.stderr.decode(errors="replace").splitlines()[:_STDERR_LINES])
        raise ImportError(f"the C compiler {cc} failed to build {_SOURCE} "
                          f"(exit status {built.returncode}):\n{stderr}")
    # libraries built from earlier sources are never loaded again
    for name in os.listdir(_CACHE):
        path = os.path.join(_CACHE, name)
        if name.startswith("_kernels.") and name.endswith(".so") and path != target:
            try:
                os.remove(path)
            except OSError:
                pass


KERNELS = ("sweep", "bfs_grow", "seed_counts", "pack_keys", "adjacency_tail", "comm_walk",
           "label_pass", "extract_rows", "scatter_rows", "endpoint_counts", "curve_point")


def _load():
    """The kernels in ``KERNELS`` order; ImportError when they cannot be built or loaded."""
    with open(_SOURCE, "rb") as fh:
        source = fh.read()
    tag = " ".join((*CFLAGS, sys.platform, platform.machine())).encode()
    target = os.path.join(_CACHE, f"_kernels.{hashlib.sha256(source + tag).hexdigest()[:16]}.so")
    if not os.path.exists(target):
        _build(source, target)
    try:
        lib = ctypes.CDLL(target)
    except OSError as exc:
        raise ImportError(f"cannot load the compiled kernels {target}: {exc}") from exc
    # every array, the bit generator's next_uint64 and state_address included,
    # travels as a plain pointer (see ``ptr``)
    i64, p = ctypes.c_int64, ctypes.c_void_p
    signatures = {
        "sweep": ([i64, p, i64, i64, p, p, p, i64, ctypes.c_int32], i64),
        "bfs_grow": ([i64, p, p, p, i64, i64, i64, p], i64),
        "seed_counts": ([i64, p, p, p, p, p], None),
        "pack_keys": ([i64, p, i64, i64, i64, i64, p, p, p, p], i64),
        "adjacency_tail": ([i64, p, i64, i64, i64, p, p, p, p], i64),
        "comm_walk": ([i64, p, p, p, p, i64, p, i64, p, p, p], i64),
        "label_pass": ([i64, p, i64, p, i64, p, p, p], i64),
        "extract_rows": ([i64, p, i64, p, i64, p], i64),
        "scatter_rows": ([i64, p, i64, p, i64, p, p], i64),
        "endpoint_counts": ([i64, p, i64, p, p], i64),
        "curve_point": ([i64, p, p, p, p, p, p, p, p, i64, p, p, p, p], None),
    }
    for name, (argtypes, restype) in signatures.items():
        getattr(lib, name).argtypes = argtypes
        getattr(lib, name).restype = restype
    return tuple(_arity_checked(getattr(lib, name)) for name in KERNELS)


def _arity_checked(fn):
    """``fn``, called only with exactly ``len(fn.argtypes)`` arguments; TypeError
    otherwise, where ctypes would pass extra ones on to the C function.  The
    call keeps ``fn``'s ``__name__`` and ``argtypes``."""
    nargs = len(fn.argtypes)

    def call(*args):
        if len(args) != nargs:
            raise TypeError(f"{fn.__name__}() takes {nargs} arguments ({len(args)} given)")
        return fn(*args)

    call.__name__, call.argtypes = fn.__name__, fn.argtypes
    return call


(sweep, bfs_grow, seed_counts, pack_keys, adjacency_tail, comm_walk, label_pass, extract_rows,
 scatter_rows, endpoint_counts, curve_point) = _load()


def ptr(arr: np.ndarray | None, dtype, size: int) -> int | None:
    """The address a kernel gets for ``arr`` (NULL for None), once ``arr`` is
    checked to be a contiguous array of ``size`` entries of ``dtype``;
    ValueError otherwise.

    A writable array's address comes from a ctypes view of its buffer, a
    few times cheaper per call than ``arr.ctypes``.
    """
    if arr is None:
        return None
    if arr.dtype != dtype or arr.size != size or not arr.flags.c_contiguous:
        layout = "contiguous" if arr.flags.c_contiguous else "non-contiguous"
        raise ValueError(f"kernel array must be contiguous {np.dtype(dtype)} of {size}, "
                         f"got {layout} {arr.dtype} of {arr.size}")
    if arr.size and arr.flags.writeable:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data

