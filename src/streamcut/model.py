"""Core value types (graph metadata, edge chunks, bisection state, reports)
and the chunk adjacency builder."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernels
from .errors import FormatError


@dataclass(frozen=True)
class GraphMeta:
    """Size and id-width metadata for an edge list."""

    num_nodes: int
    num_edges: int
    node_id_width: int = 32  # bits per node id, 32 or 64

    def __post_init__(self):
        if self.num_nodes < 1:
            raise FormatError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.num_edges < 0:
            raise FormatError(f"num_edges must be >= 0, got {self.num_edges}")
        if self.node_id_width not in (32, 64):
            raise FormatError(f"node_id_width must be 32 or 64, got {self.node_id_width}")
        if self.node_id_width == 32 and self.num_nodes > 2**32:
            raise FormatError("num_nodes does not fit in 32-bit node ids")


def width_for(num_nodes: int) -> int:
    """Smallest supported id width that can address ``num_nodes`` dense ids."""
    return 32 if num_nodes <= 2**32 else 64


def packed_keys_fit(width: int) -> bool:
    """Whether shift-packed keys of ids below ``width`` fit in 64 bits: width <= 2**32."""
    return width <= 1 << 32


def key_layout(width: int) -> tuple[int, type]:
    """(shift, key dtype) of the ``src << shift | dst`` keys of ids below ``width``:
    shift = bit_length(width - 1), u32 keys when width << shift <= 2**32, else u64."""
    shift = max(width - 1, 0).bit_length()
    return shift, np.uint32 if width << shift <= 1 << 32 else np.uint64


def build_adjacency(blocks, num_edges: int, width: int) -> tuple[np.ndarray, ...]:
    """Symmetric int64 adjacency index as (nodes, starts, ends, nbrs) of ``num_edges``
    edges, yielded by ``blocks`` as (m, 2) arrays of any integer id width, ids below ``width``.

    ``nodes`` holds the sorted unique endpoints, including nodes that appear
    only in self-loops; ``nbrs[starts[i]:ends[i]]`` are the neighbors of
    ``nodes[i]``, ascending, with duplicate edges kept and self-loops left
    out.  Both directions of every edge are indexed.  One sort of packed
    ``src << shift | dst`` keys, shift = bit_length(width - 1), orders the
    whole index: the order is that of ``src * width + dst``.  The keys are u32
    while width << shift <= 2**32 (width up to 65,536), u64 while
    shift <= 32; ids of 2**32 and above are gathered and ranked first.
    """
    if num_edges == 0:
        return tuple(np.empty(0, dtype=np.int64) for _ in range(4))
    if packed_keys_fit(width):
        return adjacency_from_keys(*_pack_keys(blocks, num_edges, width), width)
    ids, ranks = np.unique(np.concatenate(list(blocks)), return_inverse=True)
    packed = _pack_keys((ranks.reshape(-1, 2),), num_edges, ids.size)
    del ranks  # release before the sort
    nodes, starts, ends, nbrs = adjacency_from_keys(*packed, ids.size)
    ids = ids.astype(np.int64)
    return ids[nodes], starts, ends, ids[nbrs]


def _pack_keys(blocks, num_edges: int, width: int) -> tuple[np.ndarray, np.ndarray]:
    """(buffer, keys): both directions of every edge as ``key_layout(width)`` keys,
    filled block by block; no block outlives the fill.

    ``buffer`` holds 2 * num_edges int64 entries, the room the index's
    neighbour ids need; u64 keys are the whole of it, u32 keys its upper half.
    """
    buf = np.empty(2 * num_edges, dtype=np.int64)
    keys = buf.view(key_layout(width)[1])[-2 * num_edges:]
    fwd, rev = keys[:num_edges], keys[num_edges:]
    pos = 0
    for block in blocks:
        end = pos + block.shape[0]
        _pack_block(block, width, fwd[pos:end], rev[pos:end])
        pos = end
    return buf, keys


def _pack_block(block: np.ndarray, width: int, fwd: np.ndarray, rev: np.ndarray) -> None:
    """``_kernels.pack_keys`` over one (m, 2) block: row i's ``key_layout(width)`` key
    to ``fwd[i]``, its reverse's to ``rev[i]``; ValueError for an id outside [0, width)."""
    shift, dtype = key_layout(width)
    rows = np.ascontiguousarray(block)
    if rows.dtype not in (np.uint32, np.uint64, np.int64):
        rows = rows.astype(np.int64)
    m = rows.shape[0]
    if _kernels.pack_keys is not None:
        ptr = _kernels.ptr
        bad = _kernels.pack_keys(m, ptr(rows, rows.dtype, 2 * m), rows.itemsize, width, shift,
                                 fwd.itemsize, ptr(fwd, dtype, m), ptr(rev, dtype, m))
    else:
        bad = m and (int(rows.max()) >= width or int(rows.min()) < 0)
        if not bad:
            src, dst = rows[:, 0], rows[:, 1]
            for out, a, b in ((fwd, src, dst), (rev, dst, src)):
                np.left_shift(a, shift, out=out, dtype=out.dtype, casting="unsafe")
                np.bitwise_or(out, b, out=out, dtype=out.dtype, casting="unsafe")
    if bad:
        raise ValueError(f"edge ids must lie in [0, {width})")


def adjacency_from_keys(
    buf: np.ndarray, keys: np.ndarray, width: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The ``build_adjacency`` index of the (buffer, keys) of ``_pack_keys(..., width)``.

    ``keys`` is sorted in place, then ``buf`` is overwritten from its front
    with the neighbor ids, and ``nbrs`` is a view of that front.
    """
    keys.sort()
    shift, dtype = key_layout(width)
    if _kernels.adjacency_tail is not None:
        ptr, m = _kernels.ptr, keys.size
        # each run has a distinct owner and at least one key, and the tail
        # writes each key's owner to the next run's slot: one past the last
        slots = min(m, width) + 1
        nodes = np.empty(slots, dtype=np.int64)
        offsets = np.empty(slots, dtype=np.int64)
        runs = _kernels.adjacency_tail(m, ptr(keys, dtype, m), keys.itemsize, shift,
                                       ptr(buf, np.int64, m), ptr(nodes, np.int64, slots),
                                       ptr(offsets, np.int64, slots))
        return nodes[:runs], offsets[:runs], offsets[1 : runs + 1], buf[: offsets[runs]]
    owner = keys >> shift
    nbrs = np.bitwise_and(keys, (1 << shift) - 1, out=keys)
    # run starts of each owner, then the end of the last run
    bounds = np.flatnonzero(np.concatenate([[True], owner[1:] != owner[:-1], [True]]))
    nodes = owner[bounds[:-1]].astype(np.int64)
    loops = np.flatnonzero(owner == nbrs)
    del owner  # release before the copy that drops self-loops
    offsets = bounds - np.searchsorted(loops, bounds)
    kept = np.delete(nbrs, loops)
    buf[: kept.size] = kept
    return nodes, offsets[:-1], offsets[1:], buf[: kept.size]


class EdgeChunk:
    """A contiguous in-memory slice of the edge list with a chunk-local adjacency index.

    ``edges`` is the block as read, at its stored id width.  The index is the
    one ``build_adjacency`` returns: ``nodes`` holds the sorted unique
    endpoints of the chunk's edges (self-loop-only nodes included), both
    directions of every edge are indexed, duplicate edges count with
    multiplicity, self-loops are excluded, and neighbor lists are sorted
    ascending so traversals over them are deterministic.
    """

    __slots__ = ("chunk_index", "edges", "nodes", "_starts", "_ends", "_nbrs")

    def __init__(self, chunk_index: int, edges: np.ndarray):
        edges = np.asarray(edges).reshape(-1, 2)
        self.chunk_index = int(chunk_index)
        self.edges = edges
        width = int(edges.max()) + 1 if edges.size else 0
        self.nodes, self._starts, self._ends, self._nbrs = build_adjacency(
            (edges,), edges.shape[0], width)

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    def csr(self) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """Raw (nodes, starts, ends, neighbors) arrays of the adjacency index."""
        return self.nodes, self._starts, self._ends, self._nbrs


class PartitionState:
    """Mutable state of one streaming bisection.

    ``parts`` is an int8 array: parts[n] is -1 (unassigned), 0 or 1.
    ``sizes`` is a two-int list tracking the node count of each partition; it
    must match a recount of ``parts`` at every observable point.
    ``nbr0``/``nbr1`` are float64 arrays of the running per-node estimates of
    the number of neighbors in each partition; they stay (0, 0) for nodes
    never seen in a processed chunk.  ``capacity`` is the maximum node count
    per partition.
    """

    __slots__ = ("parts", "sizes", "nbr0", "nbr1", "capacity")

    def __init__(self, num_nodes: int, capacity: int):
        if num_nodes < 1:
            raise FormatError("PartitionState needs num_nodes >= 1")
        self.parts = np.full(num_nodes, -1, dtype=np.int8)
        self.sizes: list[int] = [0, 0]
        self.nbr0 = np.zeros(num_nodes, dtype=np.float64)
        self.nbr1 = np.zeros(num_nodes, dtype=np.float64)
        self.capacity = int(capacity)

    @property
    def num_nodes(self) -> int:
        return self.parts.shape[0]

    def labels_array(self) -> np.ndarray:
        return self.parts.astype(np.int32)


@dataclass(frozen=True)
class CutReport:
    """Measured edge-cut quality of a labeling."""

    total_edges: int
    cut_edges: int
    cut_fraction: float
    partition_sizes: tuple[int, ...]
    balance_ratio: float  # max partition size / ceil(num_nodes / p)

    def to_dict(self) -> dict:
        return {
            "total_edges": self.total_edges,
            "cut_edges": self.cut_edges,
            "cut_fraction": self.cut_fraction,
            "partition_sizes": list(self.partition_sizes),
            "balance_ratio": self.balance_ratio,
        }


class NodeStats:
    """Per-node degree ``k`` and majority-side degree ``k0``.

    ``k0[n]`` is the larger of the two per-side neighbor counts of node n
    relative to a reference bisection, so k0 >= k - k0 always holds.
    """

    __slots__ = ("k", "k0")

    def __init__(self, k: np.ndarray, k0: np.ndarray):
        k = np.asarray(k, dtype=np.int64)
        k0 = np.asarray(k0, dtype=np.int64)
        if k.shape != k0.shape:
            raise FormatError("k and k0 must have the same shape")
        if np.any(k0 < 0) or np.any(k0 > k) or np.any(2 * k0 < k):
            raise FormatError("need 0 <= k - k0 <= k0 <= k for every node")
        self.k = k
        self.k0 = k0

    def __len__(self) -> int:
        return len(self.k)

    @property
    def total_endpoints(self) -> int:
        """Sum of degrees; equals twice the number of indexed edges."""
        return int(self.k.sum())
