"""Partitioned storage layout: p x p edge buckets and grouped feature records.

Bucket (i, j) holds every directed edge whose source is labeled i and
destination labeled j.  All buckets live row-major in one file behind a
fixed header, with a binary sidecar of (byte offset, edge count) pairs, so
any bucket is one seek plus one contiguous read.

Bucket file: magic ``GRPB``, version u32=1, p u32, id-width flag u32
(bit 0: 64-bit ids), num_edges u64, then the concatenated edge pairs.
Index sidecar (``<store>.idx``): p*p little-endian (offset u64, count u64).
Feature layout sidecar (``<out>.layout``): magic ``GRPF``, record_width u32,
num_nodes u64, num_parts u32, permutation u64 array, then per-partition
(start slot u64, count u64) extents.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import prod

import numpy as np

from .edgefile import (
    FLAG_WIDE_IDS,
    EdgeFile,
    _UNASSIGNED_U32,
    _check_labels,
    _cut_pass,
    _id_dtype,
    _label_block,
    _replacing,
    _scatter_block,
    _write_array,
    iter_edge_blocks,
)
from .errors import FormatError

BUCKET_MAGIC = b"GRPB"
FEATURE_MAGIC = b"GRPF"
_BUCKET_HEADER = struct.Struct("<4sIIIQ")
_FEATURE_HEADER = struct.Struct("<4sIQI")
# reorder_features' read block: its runs per partition stay long enough that
# the interleaved pwrites cost little more than one sequential write
_FEATURE_BLOCK_BYTES = 1 << 22


@dataclass(frozen=True)
class BucketIndex:
    """Byte offsets and edge counts of the p x p buckets of one store file."""

    p: int
    offsets: np.ndarray  # (p, p) absolute byte offsets into the store file
    counts: np.ndarray  # (p, p) edge counts
    node_id_width: int

    @property
    def total_edges(self) -> int:
        return int(self.counts.sum())

    @property
    def pair_bytes(self) -> int:
        return 2 * (self.node_id_width // 8)


def _index_path(store_path: str) -> str:
    return store_path + ".idx"


def _bucket_offsets(counts: np.ndarray, pair: int) -> np.ndarray:
    """Byte offsets of buckets of ``counts`` edges of ``pair`` bytes, row-major after the header."""
    return _BUCKET_HEADER.size + np.concatenate([[0], np.cumsum(counts)[:-1]]) * pair


def write_buckets(
    efile: EdgeFile, labels: np.ndarray, out_path: str, num_parts: int | None = None
) -> BucketIndex:
    """Scatters the edge list into partition buckets; two streaming passes.

    The first pass counts bucket sizes, the second writes each block's run
    of each bucket with one ``os.pwrite`` at the bucket's running offset.
    Within a bucket, input edge order is preserved.  The store has
    ``num_parts`` x ``num_parts`` buckets; without it, p is the largest
    label + 1, at most the node count.  The store and its ``.idx`` are
    written under temporary names and renamed into place once both are
    complete.
    """
    labels, p = _check_labels(efile.meta.num_nodes, labels, num_parts)  # read by both passes
    width = efile.meta.node_id_width
    pair = 2 * (width // 8)

    counts = np.zeros(p * p, dtype=np.int64)
    _cut_pass(efile, labels, p, counts)

    header = _BUCKET_HEADER.pack(
        BUCKET_MAGIC, 1, p, FLAG_WIDE_IDS if width == 64 else 0, int(counts.sum())
    )
    offsets = _bucket_offsets(counts, pair)
    write_pos = offsets.tolist()
    sidecar = np.empty((p * p, 2), dtype="<u8")
    sidecar[:, 0] = offsets
    sidecar[:, 1] = counts
    with _replacing(out_path, _index_path(out_path)) as (tmp_store, tmp_index):
        with open(tmp_store, "wb") as fh:
            fh.write(header)
            fh.truncate(_BUCKET_HEADER.size + int(counts.sum()) * pair)  # flushes the header
            for grouped, bounds in _bucket_groups(efile, labels, p):
                _write_runs(fh.fileno(), grouped, bounds, write_pos)
        with open(tmp_index, "wb") as fh:
            _write_array(fh, sidecar)
    return BucketIndex(p, offsets.reshape(p, p), counts.reshape(p, p), width)


def _bucket_groups(efile: EdgeFile, labels: np.ndarray, p: int):
    """Yields each block's rows grouped by bucket under the u32 ``labels``, with the
    run bounds."""
    cut = np.zeros(1, dtype=np.int64)
    bucket = grouped = np.empty(0)
    for block in iter_edge_blocks(efile):
        m = block.shape[0]
        if bucket.shape[0] < m:  # buffers of the first, largest block, reused
            bucket, grouped = np.empty(m, dtype=np.int64), np.empty_like(block)
        _label_block(efile, block, labels, cut, p, bucket=bucket[:m])
        yield _scatter_block(block, bucket[:m], p * p, grouped[:m])


def _write_runs(fd: int, grouped: np.ndarray, bounds: np.ndarray, write_pos: list[int]) -> None:
    """Writes each nonempty run b of ``_scatter_block``'s ``grouped`` rows,
    ``grouped[bounds[b]:bounds[b + 1]]``, with ``os.pwrite`` at byte offset
    ``write_pos[b]`` of ``fd``, and moves that offset past it."""
    data, row = memoryview(grouped).cast("B"), grouped.itemsize * prod(grouped.shape[1:])
    nonempty = np.flatnonzero(np.diff(bounds)).tolist()
    bounds = bounds.tolist()
    for b in nonempty:
        run, offset = data[bounds[b] * row : bounds[b + 1] * row], write_pos[b]
        write_pos[b] += len(run)
        while run:
            written = os.pwrite(fd, run, offset)
            run, offset = run[written:], offset + written


def read_index(store_path: str) -> BucketIndex:
    """Loads and cross-checks the bucket index sidecar against the store file.

    A missing store or sidecar is a ``FormatError``: an interrupted
    ``write_buckets`` can leave a store without its sidecar.
    """
    idx_path = _index_path(store_path)
    try:
        size = os.path.getsize(store_path)
        idx_size = os.path.getsize(idx_path)
    except FileNotFoundError as exc:
        raise FormatError(f"{exc.filename}: missing") from exc
    if size < _BUCKET_HEADER.size:
        raise FormatError(f"{store_path}: too short for a bucket header")
    with open(store_path, "rb") as fh:
        magic, version, p, flags, num_edges = _BUCKET_HEADER.unpack(
            fh.read(_BUCKET_HEADER.size)
        )
    if magic != BUCKET_MAGIC:
        raise FormatError(f"{store_path}: bad magic {magic!r}")
    if version != 1:
        raise FormatError(f"{store_path}: unsupported version {version}")
    if flags & ~FLAG_WIDE_IDS:
        raise FormatError(f"{store_path}: unknown flags {flags:#x}")
    width = 64 if flags & FLAG_WIDE_IDS else 32
    pair = 2 * (width // 8)
    if idx_size != p * p * 16:
        raise FormatError(f"{idx_path}: index size does not match p={p}")
    sidecar = np.fromfile(idx_path, dtype="<u8").reshape(p * p, 2)
    offsets = sidecar[:, 0].astype(np.int64)
    counts = sidecar[:, 1].astype(np.int64)
    if (
        int(counts.sum()) != num_edges
        or not np.array_equal(offsets, _bucket_offsets(counts, pair))
        or size != _BUCKET_HEADER.size + num_edges * pair
    ):
        raise FormatError(f"{store_path}: index/file mismatch")
    return BucketIndex(p, offsets.reshape(p, p), counts.reshape(p, p), width)


def read_bucket(store_path: str, i: int, j: int, index: BucketIndex | None = None) -> np.ndarray:
    """Returns bucket (i, j) as an (m, 2) array via one contiguous read, at the
    store's width: the u32 rows of a 32-bit store as read, with no copy, and
    a 64-bit store's rows as int64; FormatError for an id of a u64 store
    that int64 cannot hold."""
    if index is None:
        index = read_index(store_path)
    if not (0 <= i < index.p and 0 <= j < index.p):
        raise FormatError(f"bucket ({i}, {j}) out of range for p={index.p}")
    count = int(index.counts[i, j])
    with open(store_path, "rb") as fh:
        fh.seek(int(index.offsets[i, j]))
        raw = np.fromfile(fh, dtype=_id_dtype(index.node_id_width), count=2 * count)
    if raw.size != 2 * count:
        raise FormatError(f"{store_path}: index/file mismatch reading bucket ({i}, {j})")
    if index.node_id_width == 32:
        return raw.reshape(-1, 2)
    if raw.size and int(raw.max()) >= 2**63:
        raise FormatError(f"{store_path}: bucket ({i}, {j}) holds id {int(raw.max())} >= 2**63")
    return raw.astype(np.int64).reshape(-1, 2)


@dataclass(frozen=True)
class FeatureLayout:
    """Node -> record slot permutation grouping each partition contiguously."""

    record_width: int
    permutation: np.ndarray  # node id -> slot
    extents: tuple[tuple[int, int], ...]  # per partition (start slot, count)

    @property
    def num_nodes(self) -> int:
        return len(self.permutation)

    def slot_of(self, node: int) -> int:
        """Node ``node``'s slot; FormatError unless 0 <= node < num_nodes."""
        if not 0 <= node < self.num_nodes:
            raise FormatError(f"node {node} outside [0, {self.num_nodes})")
        return int(self.permutation[node])

    def read_record(self, grouped_path: str, node: int) -> bytes:
        """Node ``node``'s record; FormatError unless 0 <= node < num_nodes and
        the grouped file holds exactly one record per node."""
        with open(grouped_path, "rb") as fh:
            size = os.fstat(fh.fileno()).st_size
            if size != self.num_nodes * self.record_width:
                raise FormatError(f"{grouped_path}: length {size} != num_nodes "
                                  f"{self.num_nodes} x width {self.record_width}")
            fh.seek(self.slot_of(node) * self.record_width)
            return fh.read(self.record_width)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(
                _FEATURE_HEADER.pack(
                    FEATURE_MAGIC, self.record_width, self.num_nodes, len(self.extents)
                )
            )
            # every slot is >= 0, so the i8 bytes are the u8 ones, without a copy
            _write_array(fh, self.permutation.astype("<i8", copy=False).view("<u8"))
            _write_array(fh, np.asarray(self.extents, dtype="<u8"))

    @staticmethod
    def load(path: str) -> "FeatureLayout":
        """Reads a layout; FormatError unless its record width is at least 1, its
        payload fills the file exactly, its permutation gives each node a slot of
        its own and its extents tile [0, num_nodes) in partition order."""
        with open(path, "rb") as fh:
            head = fh.read(_FEATURE_HEADER.size)
            if len(head) < _FEATURE_HEADER.size:
                raise FormatError(f"{path}: too short for a layout header")
            magic, record_width, num_nodes, num_parts = _FEATURE_HEADER.unpack(head)
            if magic != FEATURE_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            if record_width < 1:
                raise FormatError(f"{path}: record width 0")
            size = os.fstat(fh.fileno()).st_size
            expected = _FEATURE_HEADER.size + 8 * num_nodes + 16 * num_parts
            if size < expected:
                raise FormatError(f"{path}: truncated layout")
            if size > expected:
                raise FormatError(f"{path}: {size - expected} trailing bytes after the layout")
            perm = np.fromfile(fh, dtype="<u8", count=num_nodes)
            ext = np.fromfile(fh, dtype="<u8", count=2 * num_parts).reshape(num_parts, 2)
        if perm.size and int(perm.max()) >= num_nodes:
            raise FormatError(f"{path}: slot {int(perm.max())} >= num_nodes {num_nodes}")
        perm = perm.astype(np.int64)
        if (np.bincount(perm, minlength=num_nodes) != 1).any():
            raise FormatError(f"{path}: permutation gives two nodes one slot")
        starts, counts = ext[:, 0], ext[:, 1]
        ends = np.cumsum(counts, dtype=np.uint64)  # falls where a sum wraps
        total = int(ends[-1]) if num_parts else 0
        if total != num_nodes or (ends[1:] < ends[:-1]).any() or (starts != ends - counts).any():
            raise FormatError(f"{path}: extents do not tile the {num_nodes} slots")
        extents = tuple((int(s), int(c)) for s, c in ext)
        return FeatureLayout(record_width, perm, extents)


def reorder_features(
    features_path: str,
    labels: np.ndarray,
    record_width: int,
    out_path: str,
    num_parts: int | None = None,
) -> FeatureLayout:
    """Rewrites fixed-width records so each partition's nodes are contiguous.

    Within a partition the original ascending node-id order is kept.  The
    layout is also saved next to the output as ``<out>.layout``, with one
    extent per partition: ``num_parts`` of them, or the largest label + 1,
    at most the node count.  Both files are written under temporary names
    and renamed into place once both are complete.

    The records are read front to back in blocks of about
    ``_FEATURE_BLOCK_BYTES`` into one reused buffer; each block is grouped by
    partition (``_scatter_block``) and each partition's run written at that
    partition's running slot, so the stage holds two blocks and its per-node
    arrays, whatever the file's size.  A file that comes up short while it is
    read is a FormatError.
    """
    if record_width < 1:
        raise FormatError("record_width must be >= 1")
    size = os.path.getsize(features_path)
    if size % record_width:
        raise FormatError(f"{features_path}: length {size} is not a multiple of width "
                          f"{record_width}")
    num_nodes = size // record_width
    labels, p = _check_labels(num_nodes, labels, num_parts)
    if (labels == _UNASSIGNED_U32).any():
        raise FormatError("all nodes must be labeled")
    # by partition, ties by node id; numpy radix-sorts keys of <= 16 bits
    order = np.argsort(labels.astype(np.min_scalar_type(p - 1)), kind="stable")
    permutation = np.empty(num_nodes, dtype=np.int64)
    permutation[order] = np.arange(num_nodes)
    del order  # not held while the records stream
    counts = np.bincount(labels, minlength=p)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    extents = tuple((int(s), int(c)) for s, c in zip(starts, counts))
    layout = FeatureLayout(record_width, permutation, extents)

    rows = max(1, min(num_nodes, _FEATURE_BLOCK_BYTES // record_width))
    records = np.empty((rows, record_width), dtype=np.uint8)
    grouped = np.empty_like(records)
    bucket = np.empty(rows, dtype=np.int64)
    write_pos = (starts * record_width).tolist()
    with _replacing(out_path, out_path + ".layout") as (tmp_out, tmp_layout):
        with open(features_path, "rb") as src, open(tmp_out, "wb") as fh:
            for lo in range(0, num_nodes, rows):
                m = min(rows, num_nodes - lo)
                # the buffered reader reads until the block is full or the file ends
                if src.readinto(records[:m]) != m * record_width:
                    raise FormatError(f"{features_path}: shorter than its {num_nodes} records "
                                      f"of {record_width} bytes")
                bucket[:m] = labels[lo : lo + m]
                _write_runs(fh.fileno(), *_scatter_block(records[:m], bucket[:m], p, grouped[:m]),
                            write_pos)
        layout.save(tmp_layout)
    return layout
