"""In-memory seed bisection of the first streamed chunk.

``bfs_grow`` grows one side by breadth-first search from the highest-degree
chunk node, restarting from the highest-degree unpicked node whenever the
queue runs dry, until it holds half the nodes, then runs a few boundary
refinement passes (``REFINEMENT_PASSES``): a boundary node moves when it
has more neighbours on the other side than on its own and that side has
room.  It is a pure function of (chunk contents, capacity).  The compiled
kernel ``_kernels.bfs_grow`` runs all of it, and orders its restarts by
degree, descending, with a counting sort that keeps ties in id order.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .errors import CapacityError, FormatError
from .model import EdgeChunk


REFINEMENT_PASSES = 2


def seed_bisect(chunk: EdgeChunk, capacity: int) -> np.ndarray:
    """Labels every chunk node 0 or 1; returned array is aligned with chunk.nodes.

    The BFS split starts out within one node of balance; refinement passes
    may trade balance for cut quality up to ``capacity`` per side.
    """
    n = len(chunk.nodes)
    if n == 0:
        raise FormatError("cannot seed an empty chunk")
    if 2 * capacity < n:
        raise CapacityError(f"capacity {capacity} infeasible for {n} chunk nodes")
    return _bfs_grow(chunk.nodes, chunk.offsets, chunk.nbrs, REFINEMENT_PASSES, capacity)


def _local_positions(nodes: np.ndarray, nbrs: np.ndarray) -> np.ndarray:
    """Neighbor node ids as positions in ``nodes``, which is sorted and unique.

    A rank array over the id range makes this one gather.  It is used while
    the range is at most eight times the length of ``nodes`` and ``nbrs``
    together, so the array stays within a small multiple of the chunk's own
    index; ids spread wider fall back to a binary search.
    """
    span = int(nodes[-1]) + 1
    if span > 8 * (nodes.size + nbrs.size):
        return np.searchsorted(nodes, nbrs)
    rank = np.empty(span, dtype=np.int64)
    rank[nodes] = np.arange(nodes.size, dtype=np.int64)
    return rank[nbrs]


def _bfs_grow(nodes, offsets, nbrs, refinement_passes: int, capacity: int) -> np.ndarray:
    n = len(nodes)
    local = _local_positions(nodes, nbrs)
    ptr, labels = _kernels.ptr, np.ones(n, dtype=np.int8)
    if _kernels.bfs_grow(n, ptr(offsets, np.int64, n + 1), ptr(local, np.int64, local.size),
                         refinement_passes, capacity, ptr(labels, np.int8, n)) < 0:
        raise MemoryError("bfs_grow could not allocate its scratch arrays")
    return labels
