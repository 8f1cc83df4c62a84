"""Streaming min-edge-cut bisection with continuous refinement.

The edge list is consumed in chunks.  The first chunk is bisected by an
in-memory seed algorithm; every later chunk is swept node by node in
ascending id order.  For each visited node a chunk-local neighbor count per
partition is computed against the live labels (so nodes later in the sweep
see reassignments made earlier in the same chunk).  A node seen for the
first time is placed greedily on its majority side, capacity permitting.
Each node stores one estimate, its lean: side-1 neighbours less side-0
neighbours, whose sign is its majority side.  When refinement is enabled, a
previously placed node is re-placed using the average of its stored lean and
the fresh chunk-local difference, which makes the stored value a weighted
average over all chunks that contained the node, halving the weight of each
older chunk.  With refinement disabled the first greedy placement is frozen
and reappearing nodes are skipped, giving the classic fixed-assignment
streaming baseline.

During re-placement the node's own count is lifted out of ``sizes`` before
the greedy rule runs, so the capacity bound is never violated even when both
partitions are exactly full.  The per-node decision is the inner loop of the
algorithm, and on re-streamed chunks it is unpredictable, so the compiled
sweep (``_kernels.sweep``) computes it without branches.  It reads the
chunk's one array of sorted adjacency keys, whose runs of one owner are the
nodes' neighbour lists, so a swept chunk never builds its CSR index;
``assign`` states its rule.  It adds the nodes it visits and the placed
nodes whose label it changes to the state's ``visited`` and ``moved``
counts.

``partition`` drives p-way partitioning (p a power of two) by recursive
bisection: each side of a bisection that is split again is written, as the
edges with both endpoints on it relabelled to dense ids, to a scratch
directory of the run's own (``_extract_induced``), and its split returns its
labels.  The report is one ``count_cuts`` over the input file.
"""

from __future__ import annotations

import os
import tempfile
from dataclasses import dataclass
from math import ceil
from numbers import Integral, Real

import numpy as np

from . import _kernels
from .edgefile import (
    BinaryEdgeWriter,
    ChunkPlan,
    EdgeFile,
    ResidencyMeter,
    _UNASSIGNED_U32,
    _check_labels,
    _cut_pass,
    _extract_block,
    _id_dtype,
    iter_edge_blocks,
    open_edge_file,
    stream_chunks,
)
from .errors import CapacityError, FormatError
from .model import CutReport, EdgeChunk, PartitionState, _key_shift, check_id_width
from .seed import seed_bisect


@dataclass(frozen=True)
class GremConfig:
    """Knobs of one streaming bisection.

    Chunk size is given either as an absolute edge count or as a fraction of
    the edge list (default 10%).  ``capacity_slack`` is the relative headroom
    above perfect balance: each side may hold up to
    ceil((1 + slack) * num_nodes / 2) nodes, capped at num_nodes, so an
    infinite slack sets no bound (``default_capacity``).  ``refine`` is a
    bool, Python's or numpy's, held as Python's.  ``passes`` > 1
    re-streams the whole file; re-streamed chunks (chunk 0 included) are
    processed greedily, never re-seeded.
    """

    chunk_edges: int | None = None
    chunk_frac: float | None = None
    capacity_slack: float = 0.0
    refine: bool = True
    passes: int = 1

    def __post_init__(self):
        kinds = {"passes": Integral, "chunk_edges": Integral, "chunk_frac": Real,
                 "capacity_slack": Real}
        for name, kind in kinds.items():
            value = getattr(self, name)
            if isinstance(value, bool) or not (
                    isinstance(value, kind) or value is None and name.startswith("chunk_")):
                what = "an integer" if kind is Integral else "a real number"
                raise FormatError(f"{name} must be {what}, got {value!r}")
        if not isinstance(self.refine, (bool, np.bool_)):
            raise FormatError(f"refine must be a bool, got {self.refine!r}")
        object.__setattr__(self, "refine", bool(self.refine))  # the kernels take a Python bool
        if self.chunk_edges is not None and self.chunk_frac is not None:
            raise FormatError("set chunk_edges or chunk_frac, not both")
        if not self.capacity_slack >= 0:  # NaN too
            raise FormatError(f"capacity_slack must be >= 0, got {self.capacity_slack}")
        if self.passes < 1:
            raise FormatError("passes must be >= 1")

    def plan_for(self, num_edges: int) -> ChunkPlan:
        if self.chunk_edges is None and self.chunk_frac is None:
            return ChunkPlan.plan(num_edges, chunk_frac=0.1)
        return ChunkPlan.plan(num_edges, self.chunk_edges, self.chunk_frac)


def default_capacity(num_nodes: int, slack: float = 0.0, parts: int = 2) -> int:
    """Most nodes one of ``parts`` parts may hold: ceil((1 + slack) * num_nodes
    / parts), at most ``num_nodes``, so an infinite slack sets no bound."""
    return ceil(min((1.0 + slack) * num_nodes / parts, num_nodes))


def assign(lean: float, sizes, capacity: int) -> int:
    """Greedy partition choice: the side ``lean`` points to (1 when positive,
    0 when negative) if it has room, else the smaller side.

    No lean (0) and a blocked side fall through to the smaller partition,
    preferring partition 0 when sizes are equal.
    """
    if lean > 0 and sizes[1] < capacity:
        return 1
    if lean < 0 and sizes[0] < capacity:
        return 0
    if sizes[0] <= sizes[1]:
        if sizes[0] >= capacity:
            raise CapacityError("both partitions at capacity; size accounting is broken")
        return 0
    if sizes[1] >= capacity:
        raise CapacityError("both partitions at capacity; size accounting is broken")
    return 1


def process_chunk(state: PartitionState, chunk: EdgeChunk, config: GremConfig) -> PartitionState:
    """Sweeps one non-seed chunk, updating labels, sizes, stored estimates and
    the visited and moved counts (left as they were on a CapacityError).

    An empty chunk, which holds no keys, leaves the state as it was.
    """
    if chunk.width > state.num_nodes:
        raise FormatError(f"chunk node ids outside [0, {state.num_nodes})")
    keys = chunk.keys
    ptr, m, num_nodes = _kernels.ptr, keys.size, state.num_nodes
    tally = np.array([*state.sizes, state.visited, state.moved], dtype=np.int64)
    failed = _kernels.sweep(
        m, ptr(keys, np.uint64 if keys.itemsize == 8 else np.uint32, m), keys.itemsize,
        _key_shift(chunk.width), ptr(state.parts, np.int8, num_nodes),
        ptr(state.lean, np.float64, num_nodes), ptr(tally, np.int64, 4), state.capacity,
        config.refine)
    tally = tally.tolist()
    state.sizes[:] = tally[:2]
    if failed >= 0:
        raise CapacityError("both partitions at capacity; size accounting is broken")
    state.visited, state.moved = tally[2:]
    return state


def _seed_chunk(state: PartitionState, chunk: EdgeChunk) -> None:
    labels = seed_bisect(chunk, state.capacity)
    nodes, offsets, nbrs = chunk.nodes, chunk.offsets, chunk.nbrs
    parts = state.parts
    parts[nodes] = labels
    state.sizes = np.bincount(labels, minlength=2).tolist()  # every other node is unassigned
    # neighbor estimates against the freshly seeded labels
    ptr, num, num_nodes = _kernels.ptr, nodes.size, state.num_nodes
    _kernels.seed_counts(
        num, ptr(nodes, np.int64, num), ptr(offsets, np.int64, num + 1),
        ptr(nbrs, np.uint32, nbrs.size), ptr(parts, np.int8, num_nodes),
        ptr(state.lean, np.float64, num_nodes))


_FILL_BLOCK = 1 << 16  # nodes per step of _fill_unassigned, which bounds its index arrays


def _fill_unassigned(state: PartitionState) -> None:
    """Places the unassigned nodes in id order as ``assign`` with no lean does:
    on the smaller side until the sides are level, then 0, 1, 0 ..."""
    sizes = state.sizes  # with room for all: _bisect_labels checked 2 * capacity >= num_nodes
    for start in range(0, state.num_nodes, _FILL_BLOCK):
        parts = state.parts[start:start + _FILL_BLOCK]
        todo = np.flatnonzero(parts == -1)
        smaller = int(sizes[1] < sizes[0])
        level = min(abs(sizes[0] - sizes[1]), todo.size)
        parts[todo[:level]] = smaller
        parts[todo[level::2]] = 0
        parts[todo[level + 1::2]] = 1
        sizes[smaller] += level
        sizes[0] += (todo.size - level + 1) // 2
        sizes[1] += (todo.size - level) // 2


def bisect(
    efile: EdgeFile,
    config: GremConfig,
    *,
    capacity: int | None = None,
    meter: ResidencyMeter | None = None,
    on_chunk=None,
) -> tuple[np.ndarray, CutReport]:
    """Streams the file once per pass and returns (int32 {0,1} labels, CutReport).

    Nodes never seen in any chunk (isolated nodes) are appended round-robin
    to the smaller partition after streaming.  ``on_chunk(state)`` runs after
    every chunk, for instrumentation.  The report costs one more pass over
    the file, ``count_cuts``.  More than 2**32 nodes is a FormatError.
    """
    labels = _bisect_labels(efile, config, capacity=capacity, meter=meter, on_chunk=on_chunk)
    report = count_cuts(efile, labels)  # before the int32 copy, which it does not need
    return labels.astype(np.int32), report


def _bisect_labels(
    efile: EdgeFile,
    config: GremConfig,
    *,
    capacity: int | None = None,
    meter: ResidencyMeter | None = None,
    on_chunk=None,
) -> np.ndarray:
    """The {0,1} labels of ``bisect``, the state's int8 ``parts``, without its cut count."""
    meta = efile.meta
    num_nodes = meta.num_nodes
    check_id_width(num_nodes)  # before the per-node state
    cap = capacity if capacity is not None else default_capacity(num_nodes, config.capacity_slack)
    if 2 * cap < num_nodes:
        raise CapacityError(f"capacity {cap} cannot hold {num_nodes} nodes across two parts")
    plan = config.plan_for(meta.num_edges)
    state = PartitionState(num_nodes, cap)
    for pass_idx in range(config.passes):
        for chunk in stream_chunks(efile, plan, meter=meter):
            if pass_idx == 0 and chunk.chunk_index == 0:
                _seed_chunk(state, chunk)
            else:
                process_chunk(state, chunk, config)
            if on_chunk is not None:
                on_chunk(state)
    _fill_unassigned(state)
    return state.parts


def count_cuts(efile: EdgeFile, labels: np.ndarray, num_parts: int | None = None) -> CutReport:
    """Single streaming pass counting edges whose endpoints carry different labels.

    Sizes and balance are over ``num_parts`` partitions, or over the largest
    label + 1, at most the node count, when it is not given.
    """
    meta = efile.meta
    labels, p = _check_labels(meta.num_nodes, labels, num_parts)
    cut = _cut_pass(efile, labels, p)
    # counted in blocks, as _fill_unassigned places nodes, so the mask, the
    # assigned labels and bincount's int64 cast of them stay bounded; a
    # block spans at least p labels, so its p counts cost no more than its labels
    sizes = np.zeros(p, dtype=np.int64)
    step = max(_FILL_BLOCK, p)
    for start in range(0, labels.size, step):
        block = labels[start:start + step]
        sizes += np.bincount(block[block != _UNASSIGNED_U32], minlength=p)
    return CutReport(
        total_edges=meta.num_edges,
        cut_edges=cut,
        cut_fraction=cut / meta.num_edges if meta.num_edges else 0.0,
        partition_sizes=tuple(int(s) for s in sizes),
        balance_ratio=float(sizes.max()) / ceil(meta.num_nodes / p),
    )


def _extract_induced(efile: EdgeFile, keep: np.ndarray, out_path: str) -> EdgeFile:
    """Writes the subgraph induced by the nodes of one side into a dense-id edge file.

    ``keep`` is a bool mask, one entry per node, of the side's nodes; they
    become nodes 0, 1, ... of the new file, in id order.  Edges with an
    endpoint off the side are dropped; they are already cut and carry no
    information for deeper bisections.  ``_extract_block`` writes each
    block's kept edges, relabelled, into one buffer at the output id width.
    """
    new_id = np.full(efile.meta.num_nodes, -1, dtype=np.int64)
    count = int(np.count_nonzero(keep))
    new_id[keep] = np.arange(count, dtype=np.int64)
    with BinaryEdgeWriter(out_path, count) as writer:
        out = np.empty((0, 2), dtype=_id_dtype(writer.width))
        for block in iter_edge_blocks(efile):
            if out.shape[0] < block.shape[0]:  # the first, largest block's buffer, reused
                out = np.empty((block.shape[0], 2), dtype=out.dtype)
            writer.write(_extract_block(efile, block, new_id, out))
    return open_edge_file(out_path)


def partition(
    efile: EdgeFile,
    p: int,
    config: GremConfig,
    workdir: str,
) -> tuple[np.ndarray, CutReport]:
    """Recursive p-way partitioning (p a power of two) via repeated bisection.

    Each recursion level bisects with capacity derived from the original node
    count, so leaf partitions respect ceil((1 + slack) * num_nodes / p).  A
    node's part is the path of sides that led to it, read as binary digits:
    a split into ``parts`` labels side 1 ``parts // 2`` and adds each side's
    own split.  The subgraph files live in a temporary directory under
    ``workdir`` (created if missing), removed when the call returns or
    raises, so runs that share ``workdir`` do not meet.  The labels are
    int32; the report is ``count_cuts`` over ``efile``.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise FormatError(f"number of parts must be a power of two >= 2, got {p}")
    if p > 2**31:  # the label file holds labels below 0xFFFFFFFF
        raise FormatError(f"number of parts must be at most 2**31, got {p}")
    total_nodes = efile.meta.num_nodes
    check_id_width(total_nodes)  # before the scratch directory and any per-node array

    def split(file: EdgeFile, parts: int) -> np.ndarray:
        cap = default_capacity(total_nodes, config.capacity_slack, 2 * p // parts)
        sides = _bisect_labels(file, config, capacity=cap)
        labels = np.multiply(sides, parts // 2, dtype=np.int32)
        if parts > 2:
            for side in (0, 1):
                on_side = sides == side
                if on_side.any():
                    sub_path = os.path.join(scratch, f"p{parts}_s{side}.grpe")
                    labels[on_side] += split(_extract_induced(file, on_side, sub_path), parts // 2)
                    os.remove(sub_path)  # so the disk holds at most one subgraph per level
        return labels

    os.makedirs(workdir, exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="streamcut-partition-", dir=workdir) as scratch:
        labels = split(efile, p)
    return labels, count_cuts(efile, labels, p)
