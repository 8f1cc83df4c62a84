"""Streaming min-edge-cut bisection with continuous refinement.

The edge list is consumed in chunks.  The first chunk is bisected by an
in-memory seed algorithm; every later chunk is swept node by node in
ascending id order.  For each visited node a chunk-local neighbor count per
partition is computed against the live labels (so nodes later in the sweep
see reassignments made earlier in the same chunk).  A node seen for the
first time is placed greedily on its majority side, capacity permitting.
When refinement is enabled, a previously placed node is re-placed using the
average of its stored estimates and the fresh chunk-local counts, which makes
the stored value a weighted average over all chunks that contained the node,
halving the weight of each older chunk.  With refinement disabled the first
greedy placement is frozen and reappearing nodes are skipped, giving the
classic fixed-assignment streaming baseline.

During re-placement the node's own count is lifted out of ``sizes`` before
the greedy rule runs, so the capacity bound is never violated even when both
partitions are exactly full.

``partition`` drives p-way partitioning (p a power of two) by recursive
bisection over induced subgraph files.
"""

from __future__ import annotations

import os
from dataclasses import dataclass, field
from math import ceil

import numpy as np

from .edgefile import (
    BinaryEdgeWriter,
    ChunkPlan,
    EdgeFile,
    ResidencyMeter,
    iter_edge_blocks,
    iter_labelled_blocks,
    num_parts_of,
    stream_chunks,
)
from .errors import CapacityError, FormatError
from .model import CutReport, EdgeChunk, PartitionState
from .seed import SeedConfig, seed_bisect


@dataclass(frozen=True)
class GremConfig:
    """Knobs of one streaming bisection.

    Chunk size is given either as an absolute edge count or as a fraction of
    the edge list (default 10%).  ``capacity_slack`` is the relative headroom
    above perfect balance: each side may hold up to
    ceil((1 + slack) * num_nodes / 2) nodes.  ``passes`` > 1 re-streams the
    whole file; re-streamed chunks (chunk 0 included) are processed greedily,
    never re-seeded.
    """

    chunk_edges: int | None = None
    chunk_frac: float | None = None
    capacity_slack: float = 0.0
    refine: bool = True
    seed: SeedConfig = field(default_factory=SeedConfig)
    passes: int = 1

    def __post_init__(self):
        if self.chunk_edges is not None and self.chunk_frac is not None:
            raise FormatError("set chunk_edges or chunk_frac, not both")
        if self.capacity_slack < 0:
            raise FormatError("capacity_slack must be >= 0")
        if self.passes < 1:
            raise FormatError("passes must be >= 1")

    def plan_for(self, num_edges: int) -> ChunkPlan:
        if self.chunk_edges is None and self.chunk_frac is None:
            return ChunkPlan.plan(num_edges, chunk_frac=0.1)
        return ChunkPlan.plan(num_edges, self.chunk_edges, self.chunk_frac)


def default_capacity(num_nodes: int, slack: float = 0.0) -> int:
    return ceil((1.0 + slack) * num_nodes / 2)


def assign(nbrs0: float, nbrs1: float, sizes, capacity: int) -> int:
    """Greedy partition choice: majority side if it has room, else the smaller side.

    Ties (including a blocked majority side) fall through to the smaller
    partition, preferring partition 0 when sizes are equal.
    """
    if nbrs0 < nbrs1 and sizes[1] < capacity:
        return 1
    if nbrs1 < nbrs0 and sizes[0] < capacity:
        return 0
    if sizes[0] <= sizes[1]:
        if sizes[0] >= capacity:
            raise CapacityError("both partitions at capacity; size accounting is broken")
        return 0
    if sizes[1] >= capacity:
        raise CapacityError("both partitions at capacity; size accounting is broken")
    return 1


def process_chunk(state: PartitionState, chunk: EdgeChunk, config: GremConfig) -> PartitionState:
    """Sweeps one non-seed chunk, updating labels, sizes and stored estimates."""
    parts = state.parts
    sizes = state.sizes
    nbr0 = state.nbr0
    nbr1 = state.nbr1
    cap = state.capacity
    refine = config.refine

    nodes, starts, ends, nbrs = chunk.csr()
    node_list = nodes.tolist()
    s_list = starts.tolist()
    e_list = ends.tolist()
    adj = nbrs.tolist()

    for i, n in enumerate(node_list):
        old = parts[n]
        if old != -1 and not refine:
            continue
        c0 = 0.0
        c1 = 0.0
        for w in adj[s_list[i] : e_list[i]]:
            pw = parts[w]
            if pw == 0:
                c0 += 1.0
            elif pw == 1:
                c1 += 1.0
        if old != -1:
            c0 = (nbr0[n] + c0) * 0.5
            c1 = (nbr1[n] + c1) * 0.5
            sizes[old] -= 1
        b = assign(c0, c1, sizes, cap)
        sizes[b] += 1
        parts[n] = b
        nbr0[n] = c0
        nbr1[n] = c1
    return state


def _seed_chunk(state: PartitionState, chunk: EdgeChunk, seed_cfg: SeedConfig) -> None:
    labels = seed_bisect(chunk, seed_cfg, state.capacity)
    nodes, starts, ends, nbrs = chunk.csr()
    node_list = nodes.tolist()
    for i, n in enumerate(node_list):
        state.parts[n] = int(labels[i])
    state.sizes = [state.parts.count(0), state.parts.count(1)]

    # neighbor estimates against the freshly seeded labels
    parts_arr = np.asarray(state.parts, dtype=np.int8)
    adj_parts = parts_arr[nbrs] if nbrs.size else np.empty(0, dtype=np.int8)
    seg = np.repeat(np.arange(len(nodes)), ends - starts)
    c0 = np.bincount(seg[adj_parts == 0], minlength=len(nodes))
    c1 = np.bincount(seg[adj_parts == 1], minlength=len(nodes))
    for i, n in enumerate(node_list):
        state.nbr0[n] = float(c0[i])
        state.nbr1[n] = float(c1[i])


def _fill_unassigned(state: PartitionState) -> None:
    sizes = state.sizes
    cap = state.capacity
    for n, part in enumerate(state.parts):
        if part != -1:
            continue
        b = 0 if sizes[0] <= sizes[1] else 1
        if sizes[b] >= cap:
            b = 1 - b
            if sizes[b] >= cap:
                raise CapacityError("no partition has room for unassigned nodes")
        state.parts[n] = b
        sizes[b] += 1


def bisect(
    efile: EdgeFile,
    config: GremConfig,
    *,
    capacity: int | None = None,
    meter: ResidencyMeter | None = None,
    on_chunk=None,
) -> tuple[np.ndarray, CutReport]:
    """Streams the file once per pass and returns ({0,1} labels, CutReport).

    Nodes never seen in any chunk (isolated nodes) are appended round-robin
    to the smaller partition after streaming.  ``on_chunk(state)`` runs after
    every chunk, for instrumentation.
    """
    meta = efile.meta
    num_nodes = meta.num_nodes
    cap = capacity if capacity is not None else default_capacity(num_nodes, config.capacity_slack)
    if 2 * cap < num_nodes:
        raise CapacityError(f"capacity {cap} cannot hold {num_nodes} nodes across two parts")
    plan = config.plan_for(meta.num_edges)
    state = PartitionState(num_nodes, cap)
    for pass_idx in range(config.passes):
        for chunk in stream_chunks(efile, plan, meter=meter):
            if pass_idx == 0 and chunk.chunk_index == 0:
                _seed_chunk(state, chunk, config.seed)
            else:
                process_chunk(state, chunk, config)
            if on_chunk is not None:
                on_chunk(state)
    _fill_unassigned(state)
    labels = state.labels_array()
    return labels, count_cuts(efile, labels)


def count_cuts(efile: EdgeFile, labels: np.ndarray, num_parts: int | None = None) -> CutReport:
    """Single streaming pass counting edges whose endpoints carry different labels.

    Sizes and balance are over ``num_parts`` partitions, or over the largest
    label + 1 when it is not given.
    """
    labels = np.asarray(labels)
    num_parts = num_parts_of(labels, num_parts)
    cut = 0
    for _, l_src, l_dst in iter_labelled_blocks(efile, labels):
        cut += int((l_src != l_dst).sum())
    total = efile.meta.num_edges
    sizes = np.bincount(labels[labels >= 0], minlength=num_parts)
    ideal = ceil(efile.meta.num_nodes / num_parts)
    return CutReport(
        total_edges=total,
        cut_edges=cut,
        cut_fraction=cut / total if total else 0.0,
        partition_sizes=tuple(int(s) for s in sizes),
        balance_ratio=float(sizes.max()) / ideal,
    )


def _extract_induced(
    efile: EdgeFile, labels: np.ndarray, side: int, members: np.ndarray,
    orig_ids: np.ndarray, out_path: str,
) -> EdgeFile:
    """Writes the subgraph induced by one side into a dense-id edge file.

    Cross edges are dropped; they are already cut and carry no information
    for deeper bisections.  A sidecar ``.remap`` file stores the original id
    (u64) of every new dense id.
    """
    new_id = np.full(labels.shape[0], -1, dtype=np.int64)
    new_id[members] = np.arange(members.size, dtype=np.int64)
    writer = BinaryEdgeWriter(out_path, int(members.size))
    for block in iter_edge_blocks(efile):
        keep = (labels[block[:, 0]] == side) & (labels[block[:, 1]] == side)
        sub = block[keep]
        writer.write(np.column_stack([new_id[sub[:, 0]], new_id[sub[:, 1]]]))
    sub_file = writer.close()
    orig_ids[members].astype("<u8").tofile(out_path + ".remap")
    return sub_file


def partition(
    efile: EdgeFile,
    p: int,
    config: GremConfig,
    workdir: str,
    *,
    meter: ResidencyMeter | None = None,
) -> tuple[np.ndarray, CutReport]:
    """Recursive p-way partitioning (p a power of two) via repeated bisection.

    Each recursion level bisects with capacity derived from the original node
    count, so leaf partitions respect ceil((1 + slack) * num_nodes / p).  The
    report charges cuts against the original edge file, including edges
    dropped while extracting induced subgraphs.
    """
    if p < 2 or (p & (p - 1)) != 0:
        raise FormatError(f"number of parts must be a power of two >= 2, got {p}")
    os.makedirs(workdir, exist_ok=True)
    total_nodes = efile.meta.num_nodes
    final = np.full(total_nodes, -1, dtype=np.int32)

    def recurse(file: EdgeFile, orig_ids: np.ndarray, p_level: int, level: int, leaf_base: int):
        cap = ceil((1.0 + config.capacity_slack) * total_nodes / 2 ** (level + 1))
        labels, _ = bisect(file, config, capacity=cap, meter=meter)
        if p_level == 2:
            final[orig_ids[labels == 0]] = leaf_base
            final[orig_ids[labels == 1]] = leaf_base + 1
            return
        for side in (0, 1):
            members = np.flatnonzero(labels == side)
            base = leaf_base + side * (p_level // 2)
            if members.size == 0:
                continue
            sub_path = os.path.join(workdir, f"bisect_l{level + 1}_b{base}.grpe")
            sub_file = _extract_induced(file, labels, side, members, orig_ids, sub_path)
            try:
                recurse(sub_file, orig_ids[members], p_level // 2, level + 1, base)
            finally:
                os.remove(sub_path)
                os.remove(sub_path + ".remap")

    recurse(efile, np.arange(total_nodes, dtype=np.int64), p, 0, 0)
    return final, count_cuts(efile, final, p)
