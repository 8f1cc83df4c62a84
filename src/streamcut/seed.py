"""In-memory seed bisection of the first streamed chunk.

``bfs_grow`` grows one side by breadth-first search from the highest-degree
chunk node, restarting from the highest-degree unpicked node whenever the
queue runs dry, until it holds half the nodes, then runs a few boundary
refinement passes (``REFINEMENT_PASSES``): a boundary node moves when it
has more neighbours on the other side than on its own and that side has
room.  It is a pure function of (chunk contents, capacity).  The compiled
kernel ``_kernels.bfs_grow`` runs all of it, and orders its restarts by
degree, descending, with a counting sort that keeps ties in id order, and
finds each neighbour's position through a u32 rank over the chunk's width.
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
    nodes, offsets, nbrs = chunk.nodes, chunk.offsets, chunk.nbrs
    n = nodes.size
    if n == 0:
        raise FormatError("cannot seed an empty chunk")
    if 2 * capacity < n:
        raise CapacityError(f"capacity {capacity} infeasible for {n} chunk nodes")
    ptr, labels = _kernels.ptr, np.ones(n, dtype=np.int8)
    if _kernels.bfs_grow(n, ptr(nodes, np.int64, n), ptr(offsets, np.int64, n + 1),
                         ptr(nbrs, np.uint32, nbrs.size), chunk.width, REFINEMENT_PASSES,
                         capacity, ptr(labels, np.int8, n)) < 0:
        raise MemoryError("bfs_grow could not allocate its scratch arrays")
    return labels
