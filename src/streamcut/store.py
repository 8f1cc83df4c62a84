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

import numpy as np

from .edgefile import (
    FLAG_WIDE_IDS,
    EdgeFile,
    iter_edge_blocks,
    iter_labelled_blocks,
    num_parts_of,
)
from .errors import FormatError

BUCKET_MAGIC = b"GRPB"
FEATURE_MAGIC = b"GRPF"
_BUCKET_HEADER = struct.Struct("<4sIIIQ")
_FEATURE_HEADER = struct.Struct("<4sIQI")


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


def write_buckets(
    efile: EdgeFile, labels: np.ndarray, out_path: str, num_parts: int | None = None
) -> BucketIndex:
    """Scatters the edge list into partition buckets; two streaming passes.

    The first pass counts bucket sizes, the second writes each edge at its
    bucket's running offset.  Within a bucket, input edge order is preserved.
    The store has ``num_parts`` x ``num_parts`` buckets; without it, p is the
    largest label + 1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    p = num_parts_of(labels, num_parts)
    # narrowest dtype holding every bucket id: numpy radix-sorts keys of <= 16 bits
    key_dtype = np.min_scalar_type(p * p - 1)
    width = efile.meta.node_id_width
    pair = 2 * (width // 8)
    dtype = np.dtype("<u4") if width == 32 else np.dtype("<u8")

    counts = np.zeros(p * p, dtype=np.int64)
    for _, l_src, l_dst in iter_labelled_blocks(efile, labels):
        counts += np.bincount(l_src * p + l_dst, minlength=p * p)

    header = _BUCKET_HEADER.pack(
        BUCKET_MAGIC, 1, p, FLAG_WIDE_IDS if width == 64 else 0, int(counts.sum())
    )
    offsets = _BUCKET_HEADER.size + np.concatenate([[0], np.cumsum(counts)[:-1]]) * pair
    write_pos = offsets.copy()
    with open(out_path, "wb") as fh:
        fh.write(header)
        fh.truncate(_BUCKET_HEADER.size + int(counts.sum()) * pair)
        for block in iter_edge_blocks(efile):
            bucket_ids = labels[block[:, 0]] * p + labels[block[:, 1]]
            order = np.argsort(bucket_ids.astype(key_dtype), kind="stable")
            grouped = block[order]
            block_counts = np.bincount(bucket_ids, minlength=p * p)
            pos = 0
            for b in np.flatnonzero(block_counts):
                cnt = int(block_counts[b])
                fh.seek(write_pos[b])
                grouped[pos : pos + cnt].astype(dtype).tofile(fh)
                write_pos[b] += cnt * pair
                pos += cnt
    index = BucketIndex(p, offsets.reshape(p, p), counts.reshape(p, p), width)
    sidecar = np.empty((p * p, 2), dtype="<u8")
    sidecar[:, 0] = offsets
    sidecar[:, 1] = counts
    sidecar.tofile(_index_path(out_path))
    return index


def read_index(store_path: str) -> BucketIndex:
    """Loads and cross-checks the bucket index sidecar against the store file."""
    size = os.path.getsize(store_path)
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
    width = 64 if flags & FLAG_WIDE_IDS else 32
    pair = 2 * (width // 8)
    idx_path = _index_path(store_path)
    if os.path.getsize(idx_path) != p * p * 16:
        raise FormatError(f"{idx_path}: index size does not match p={p}")
    sidecar = np.fromfile(idx_path, dtype="<u8").reshape(p * p, 2)
    offsets = sidecar[:, 0].astype(np.int64)
    counts = sidecar[:, 1].astype(np.int64)
    expected = _BUCKET_HEADER.size + np.concatenate([[0], np.cumsum(counts)[:-1]]) * pair
    if (
        int(counts.sum()) != num_edges
        or not np.array_equal(offsets, expected)
        or size != _BUCKET_HEADER.size + num_edges * pair
    ):
        raise FormatError(f"{store_path}: index/file mismatch")
    return BucketIndex(p, offsets.reshape(p, p), counts.reshape(p, p), width)


def read_bucket(store_path: str, i: int, j: int, index: BucketIndex | None = None) -> np.ndarray:
    """Returns bucket (i, j) as an (m, 2) array via one contiguous read."""
    if index is None:
        index = read_index(store_path)
    if not (0 <= i < index.p and 0 <= j < index.p):
        raise FormatError(f"bucket ({i}, {j}) out of range for p={index.p}")
    count = int(index.counts[i, j])
    dtype = np.dtype("<u4") if index.node_id_width == 32 else np.dtype("<u8")
    with open(store_path, "rb") as fh:
        fh.seek(int(index.offsets[i, j]))
        raw = np.fromfile(fh, dtype=dtype, count=2 * count)
    if raw.size != 2 * count:
        raise FormatError(f"{store_path}: index/file mismatch reading bucket ({i}, {j})")
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
        return int(self.permutation[node])

    def read_record(self, grouped_path: str, node: int) -> bytes:
        with open(grouped_path, "rb") as fh:
            fh.seek(self.slot_of(node) * self.record_width)
            return fh.read(self.record_width)

    def save(self, path: str) -> None:
        with open(path, "wb") as fh:
            fh.write(
                _FEATURE_HEADER.pack(
                    FEATURE_MAGIC, self.record_width, self.num_nodes, len(self.extents)
                )
            )
            self.permutation.astype("<u8").tofile(fh)
            np.asarray(self.extents, dtype="<u8").tofile(fh)

    @staticmethod
    def load(path: str) -> "FeatureLayout":
        with open(path, "rb") as fh:
            head = fh.read(_FEATURE_HEADER.size)
            if len(head) < _FEATURE_HEADER.size:
                raise FormatError(f"{path}: too short for a layout header")
            magic, record_width, num_nodes, num_parts = _FEATURE_HEADER.unpack(head)
            if magic != FEATURE_MAGIC:
                raise FormatError(f"{path}: bad magic {magic!r}")
            perm = np.fromfile(fh, dtype="<u8", count=num_nodes).astype(np.int64)
            ext = np.fromfile(fh, dtype="<u8", count=2 * num_parts).astype(np.int64)
        if perm.size != num_nodes or ext.size != 2 * num_parts:
            raise FormatError(f"{path}: truncated layout")
        extents = tuple((int(s), int(c)) for s, c in ext.reshape(num_parts, 2))
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
    extent per partition: ``num_parts`` of them, or the largest label + 1.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_nodes = labels.shape[0]
    if record_width < 1:
        raise FormatError("record_width must be >= 1")
    if labels.min(initial=0) < 0:
        raise FormatError("all nodes must be labeled")
    size = os.path.getsize(features_path)
    if size != num_nodes * record_width:
        raise FormatError(
            f"{features_path}: length {size} != num_nodes {num_nodes} x width {record_width}"
        )
    order = np.argsort(labels, kind="stable")  # by partition, ties by node id
    permutation = np.empty(num_nodes, dtype=np.int64)
    permutation[order] = np.arange(num_nodes)
    p = num_parts_of(labels, num_parts)
    counts = np.bincount(labels, minlength=p)
    starts = np.concatenate([[0], np.cumsum(counts)[:-1]])
    extents = tuple((int(s), int(c)) for s, c in zip(starts, counts))

    records = np.memmap(features_path, dtype=np.uint8, mode="r", shape=(num_nodes, record_width))
    block = max(1, (1 << 24) // record_width)
    with open(out_path, "wb") as fh:
        for lo in range(0, num_nodes, block):
            fh.write(records[order[lo : lo + block]].tobytes())
    layout = FeatureLayout(record_width, permutation, extents)
    layout.save(out_path + ".layout")
    return layout
