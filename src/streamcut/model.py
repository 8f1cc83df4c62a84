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


def check_id_width(width: int) -> None:
    """FormatError past 2**32 ids, the limit of every in-memory index."""
    if width > 1 << 32:
        raise FormatError(f"node ids must lie below 2**32, got ids up to {width - 1}")


# The estimator's keys of widths above 65,536 sort as u32 in parts only where
# that beats one u64 sort.  Measured on a 2-vCPU VM, the whole build took
# 0.68-0.83 of its u64 time at 37 and 64 parts with 0.5-4M keys, 0.84-0.95 at
# 171-245 parts and 0.97-1.00 at 1,024, where the split's scatter is slow;
# with a few hundred keys per part it took 1.1-1.9, the split and the
# per-part numpy sort calls outweighing the narrower sort.  A chunk's keys
# are never split: no benchmark chunk is wider than 65,536 ids, and on wider
# ones the split saved at most 15 % of the build plus one sweep
_MAX_PARTS = 64  # width 2**19
_MIN_PART_KEYS = 8192  # on average
_U32_WIDTH = 1 << 16  # the widest ids whose whole packed keys fit in 32 bits
_KEY_DTYPES = {4: np.uint32, 8: np.uint64}  # by itemsize


def _key_shift(width: int) -> int:
    """bit_length(width - 1): the bits of an id below ``width``."""
    return max(width - 1, 0).bit_length()


def key_layout(width: int, num_keys: int) -> tuple[int, type, int]:
    """(shift, key dtype, parts) of ``num_keys`` ``src << shift | dst`` keys of ids
    below ``width``, shift = ``_key_shift(width)``.

    The keys are u32, in one part, while width << shift <= 2**32 (width up to
    65,536).  Above that a key is held as its low 32 bits, u32, in the part
    its high ``2 * shift - 32`` bits name, when that makes at most 64 parts
    (width up to 2**19) of 8,192 keys each on average; otherwise the keys
    are u64, in one part.
    """
    shift = _key_shift(width)
    if width <= _U32_WIDTH:
        return shift, np.uint32, 1
    parts = ((width - 1) << shift >> 32) + 1
    if parts <= _MAX_PARTS and num_keys >= _MIN_PART_KEYS * parts:
        return shift, np.uint32, parts
    return shift, np.uint64, 1


def build_adjacency(blocks, num_edges: int, width: int) -> tuple[np.ndarray, ...]:
    """Symmetric adjacency index as CSR (nodes, offsets, nbrs) of ``num_edges``
    edges, yielded by ``blocks`` as (m, 2) arrays of any integer id width, ids below ``width``.

    ``nodes`` holds the sorted unique endpoints, including nodes that appear
    only in self-loops; ``offsets`` has ``nodes.size + 1`` entries, from 0 to
    ``nbrs.size``, and ``nbrs[offsets[i]:offsets[i + 1]]`` are the neighbors
    of ``nodes[i]``, ascending, with duplicate edges kept and self-loops left
    out.  Both directions of every edge are indexed.  ``nodes`` and
    ``offsets`` are int64, ``nbrs`` u32.  Packed ``src << shift | dst`` keys,
    shift = bit_length(width - 1), order the whole index: the order is that
    of ``src * width + dst``.  The keys sort as u32 in one sort while
    width << shift <= 2**32 (width up to 65,536); above that, when there are
    enough of them (``key_layout``), in one sort per part of keys sharing
    their high ``2 * shift - 32`` bits, at most 64 parts (width up to
    2**19); else as u64 while shift <= 32: a width above 2**32 is a
    FormatError.  ``blocks`` must be re-iterable, each iteration yielding
    the same rows, since split keys read it twice (``_pack_keys``); a
    one-shot iterator is a TypeError.  Each block is read before the next is
    requested, so an iteration may reuse one buffer, as ``iter_edge_blocks``
    does.
    """
    check_id_width(width)
    if iter(blocks) is blocks:
        raise TypeError("blocks must be re-iterable, not a one-shot iterator: "
                        "split keys read them twice")
    keys, bounds = _pack_keys(blocks, num_edges, width)
    if bounds is None:
        keys.sort()
    else:
        ends = bounds.tolist()
        for q in np.flatnonzero(np.diff(bounds) > 1).tolist():
            keys[ends[q] : ends[q + 1]].sort()
    return _adjacency_tail(keys, bounds, width)


def _pack_keys(blocks, num_edges: int, width: int) -> tuple[np.ndarray, np.ndarray | None]:
    """(keys, bounds): both directions of every edge as ``key_layout(width,
    2 * num_edges)`` keys, in one array of ``2 * num_edges``, filled block by
    block, with no block outliving its pack; bounds is None for one part,
    else part q's keys are ``keys[bounds[q]:bounds[q + 1]]``, in no order.

    One part takes one pass over ``blocks``: row i's two keys go to i and
    ``num_edges + i``.  More parts take two: the first counts each part's
    keys, the second writes each key straight to its part's cursor.
    ValueError when the blocks hold other than ``num_edges`` rows, or the
    second pass other rows than the first.
    """
    shift, dtype, parts = key_layout(width, 2 * num_edges)
    keys = np.empty(2 * num_edges, dtype=dtype)
    if parts == 1:
        fwd, rev = keys[:num_edges], keys[num_edges:]
        pos = 0
        for block in blocks:
            end = pos + block.shape[0]
            _pack_block(block, width, shift, fwd[pos:end], rev[pos:end])
            pos = end
        if pos != num_edges:
            raise ValueError(f"blocks hold {pos} rows, not {num_edges}")
        return keys, None
    bounds = np.zeros(parts + 1, dtype=np.int64)
    for block in blocks:
        _pack_block(block, width, shift, None, None, bounds[1:])
    np.cumsum(bounds, out=bounds)
    if bounds[-1] != keys.size:
        raise ValueError(f"blocks hold {bounds[-1] // 2} rows, not {num_edges}")
    cursors = bounds[:-1].copy()
    for block in blocks:
        _pack_block(block, width, shift, keys, None, cursors, bounds[1:])
    if not np.array_equal(cursors, bounds[1:]):
        raise ValueError("blocks held other rows on the second pass than on the first")
    return keys, bounds


def _pack_block(block: np.ndarray, width: int, shift: int, fwd: np.ndarray | None,
                rev: np.ndarray | None, cursors: np.ndarray | None = None,
                ends: np.ndarray | None = None) -> None:
    """``_kernels.pack_keys`` over one (m, 2) block: row i's ``src << shift | dst`` key
    to ``fwd[i]``, its reverse's to ``rev[i]``, both u32 or both u64; ValueError for an
    id outside [0, width).

    With the int64 ``cursors`` of split u32 keys (``key_layout``'s parts),
    each key goes instead to ``fwd[cursors[q]]``, q its part, and moves that
    cursor on, while it is below ``ends[q]``; a row whose key finds its part
    full is a ValueError too.  With ``fwd`` None as well, each key only adds
    one to ``cursors[q]``: the count of each part's keys.
    """
    # the kernel compares ids unsigned: a negative width, that of a block of
    # negative ids, would let every id through
    width = max(width, 0)
    rows = np.ascontiguousarray(block)
    if rows.dtype not in (np.uint32, np.uint64, np.int64):
        rows = rows.astype(np.int64)
    m, ptr = rows.shape[0], _kernels.ptr
    if cursors is None:
        key_bytes = fwd.itemsize
        fwd, rev = ptr(fwd, _KEY_DTYPES[key_bytes], m), ptr(rev, _KEY_DTYPES[key_bytes], m)
    else:
        parts, key_bytes = ((width - 1) << shift >> 32) + 1, 4
        fwd = None if fwd is None else ptr(fwd, np.uint32, fwd.size)
        cursors, ends = ptr(cursors, np.int64, parts), ptr(ends, np.int64, parts)
    if _kernels.pack_keys(m, ptr(rows, rows.dtype, 2 * m), rows.itemsize, width, shift,
                          key_bytes, fwd, rev, cursors, ends):
        if ends is not None:
            raise ValueError("a part holds more keys than the count pass found")
        raise ValueError(f"edge ids must lie in [0, {width})")


def _adjacency_tail(keys: np.ndarray, bounds: np.ndarray | None,
                    width: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The index of sorted ``_pack_keys(..., width)`` keys: the u32 neighbor ids
    are written over ``keys`` from its front, and ``nbrs`` is a view of that
    front, so the keys are spent."""
    parts, m = 1 if bounds is None else bounds.size - 1, keys.size
    shift, dtype, ptr = _key_shift(width), _KEY_DTYPES[keys.itemsize], _kernels.ptr
    # each run has a distinct owner and at least one key, and the tail
    # writes each key's owner to the next run's slot: one past the last
    slots = min(m, width) + 1
    nodes = np.empty(slots, dtype=np.int64)
    offsets = np.empty(slots, dtype=np.int64)
    nbrs = keys.view(np.uint32)
    runs = _kernels.adjacency_tail(m, ptr(keys, dtype, m), keys.itemsize, shift, parts,
                                   ptr(bounds, np.int64, parts + 1),
                                   ptr(nbrs, np.uint32, nbrs.size),
                                   ptr(nodes, np.int64, slots), ptr(offsets, np.int64, slots))
    return nodes[:runs], offsets[: runs + 1], nbrs[: offsets[runs]]


class EdgeChunk:
    """A contiguous slice of the edge list as a chunk-local adjacency index.

    The rows are read only while the chunk is built, so the block may be
    overwritten once ``__init__`` returns, as ``iter_edge_blocks`` does;
    ``num_edges`` is its row count and ``width`` its largest id + 1 (0 when
    it is empty), at most 2**32: FormatError otherwise.  The index is held
    as ``keys``, one sorted array of the ``src << shift | dst`` keys of both
    directions of every edge, exactly ``2 * num_edges`` of them (none for
    an empty chunk): u32 while width <= 65,536, else u64, never split into
    parts as ``key_layout`` may split the estimator's.  Each run of keys
    with one owner is a node's neighbor list, ascending, which the sweep
    reads directly.

    The CSR (``nodes``, ``offsets``, ``nbrs``) of ``build_adjacency`` is built
    from a copy of the keys when first read, for the seed chunk and other
    readers, and kept: ``nodes`` holds the sorted unique
    endpoints (self-loop-only nodes included), both directions of every edge
    are indexed, duplicate edges count with multiplicity, self-loops are
    excluded, and neighbor lists are sorted ascending so traversals over
    them are deterministic.
    """

    __slots__ = ("chunk_index", "num_edges", "width", "keys", "_csr")

    def __init__(self, chunk_index: int, edges: np.ndarray):
        edges = np.asarray(edges).reshape(-1, 2)
        self.chunk_index = int(chunk_index)
        self.num_edges = m = edges.shape[0]
        self.width = width = int(edges.max()) + 1 if edges.size else 0
        check_id_width(width)
        self.keys = keys = np.empty(2 * m, np.uint32 if width <= _U32_WIDTH else np.uint64)
        _pack_block(edges, width, _key_shift(width), keys[:m], keys[m:])
        keys.sort()
        self._csr = None

    def _index(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        if self._csr is None:  # the tail spends a copy of the keys, not the keys
            self._csr = _adjacency_tail(self.keys.copy(), None, self.width)
        return self._csr

    @property
    def nodes(self) -> np.ndarray:
        return self._index()[0]

    @property
    def offsets(self) -> np.ndarray:
        return self._index()[1]

    @property
    def nbrs(self) -> np.ndarray:
        return self._index()[2]


class PartitionState:
    """Mutable state of one streaming bisection.

    ``parts`` is an int8 array: parts[n] is -1 (unassigned), 0 or 1.
    ``sizes`` is a two-int list tracking the node count of each partition; it
    must match a recount of ``parts`` at every observable point.
    ``lean`` is a float64 array of the running per-node estimate of the
    number of neighbors in partition 1 less the number in partition 0, whose
    sign is the side the node leans to; it stays 0 for nodes never seen in a
    processed chunk.  So the per-node state is 9 bytes.  ``capacity`` is the
    maximum node count per partition, at most ``num_nodes``.  ``visited`` and ``moved`` count, over
    every chunk swept (``grem.process_chunk``, not the seeded chunk), the
    nodes the sweep visited and the placed nodes whose label it changed.
    """

    __slots__ = ("parts", "sizes", "lean", "capacity", "visited", "moved")

    def __init__(self, num_nodes: int, capacity: int):
        if num_nodes < 1:
            raise FormatError("PartitionState needs num_nodes >= 1")
        self.parts = np.full(num_nodes, -1, dtype=np.int8)
        self.sizes: list[int] = [0, 0]
        self.lean = np.zeros(num_nodes, dtype=np.float64)
        # a side never holds more than every node: a larger capacity means the
        # same, and stays within the kernels' int64
        self.capacity = min(int(capacity), num_nodes)
        self.visited = 0
        self.moved = 0

    @property
    def num_nodes(self) -> int:
        return self.parts.shape[0]


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
