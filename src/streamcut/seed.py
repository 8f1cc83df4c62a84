"""In-memory seed bisection of the first streamed chunk.

``bfs_grow`` grows one side by breadth-first search from the highest-degree
chunk node, restarting from the highest-degree unpicked node whenever the
queue runs dry, until it holds half the nodes, then runs a few boundary
refinement passes (``REFINEMENT_PASSES``).  It is a pure function of
(chunk contents, capacity).  The compiled kernel orders its restarts with a
counting sort on degree; the Python fallback with a stable argsort, to the
same order.
"""

from __future__ import annotations

from collections import deque
from math import ceil

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
    if _kernels.bfs_grow is not None:
        ptr, labels = _kernels.ptr, np.ones(n, dtype=np.int8)
        if _kernels.bfs_grow(n, ptr(offsets, np.int64, n + 1), ptr(local, np.int64, local.size),
                             refinement_passes, capacity, ptr(labels, np.int8, n)) < 0:
            raise MemoryError("bfs_grow could not allocate its scratch arrays")
        return labels

    # BFS (re)starts go to the highest-degree unpicked node, lowest id on ties
    restart_order = np.argsort(-np.diff(offsets), kind="stable")
    target = ceil(n / 2)
    local = local.tolist()
    restart_order = restart_order.tolist()
    offsets = offsets.tolist()

    picked = [False] * n
    count = 0
    cursor = 0
    queue: deque[int] = deque()
    while count < target:
        if not queue:
            while picked[restart_order[cursor]]:
                cursor += 1
            best = restart_order[cursor]
            queue.append(best)
            picked[best] = True
            count += 1
            if count >= target:
                break
        v = queue.popleft()
        for w in local[offsets[v] : offsets[v + 1]]:  # neighbor lists are ascending
            if not picked[w]:
                picked[w] = True
                count += 1
                queue.append(w)
                if count >= target:
                    break

    labels = [1] * n
    for i in range(n):
        if picked[i]:
            labels[i] = 0
    sizes = [target, n - target]

    for _ in range(refinement_passes):
        moved = False
        for i in range(n):
            side = labels[i]
            same = other = 0
            for w in local[offsets[i] : offsets[i + 1]]:
                if labels[w] == side:
                    same += 1
                else:
                    other += 1
            if other == 0:
                continue  # not a boundary node
            # move iff it strictly reduces the chunk-local cut and the
            # receiving side has capacity
            if other > same and sizes[1 - side] < capacity:
                labels[i] = 1 - side
                sizes[side] -= 1
                sizes[1 - side] += 1
                moved = True
        if not moved:
            break

    return np.asarray(labels, dtype=np.int8)
