"""External-memory edge-list I/O.

Two on-disk edge formats are supported:

* text: one ``src dst`` pair per line, ASCII decimal, ``#`` comment lines
  ignored.
* binary: little-endian, header = magic ``GRPE``, version u32=1, flags u32
  (bit 0: 64-bit ids), num_nodes u64, num_edges u64; payload = num_edges
  (src, dst) pairs of u32 or u64 each.

Label files are little-endian too: magic ``GRPL``, version u32=1,
num_nodes u64, num_parts u32, then num_nodes u32 labels with 0xFFFFFFFF
meaning unassigned.
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from math import ceil
from typing import Iterator

import numpy as np

from .errors import FormatError
from .model import EdgeChunk, GraphMeta, width_for

EDGE_MAGIC = b"GRPE"
LABELS_MAGIC = b"GRPL"
FLAG_WIDE_IDS = 1
TEXT = "text"
BINARY = "binary"

_EDGE_HEADER = struct.Struct("<4sIIQQ")
_LABELS_HEADER = struct.Struct("<4sIQI")
_UNASSIGNED_U32 = 0xFFFFFFFF

IO_BLOCK = 64 * 1024  # minimum sensible I/O granularity in bytes
_MAX_SCATTER_BUCKETS = 4096
_DEFAULT_BLOCK_EDGES = 1 << 18


@dataclass(frozen=True)
class EdgeFile:
    """An edge list on disk plus its metadata."""

    path: str
    meta: GraphMeta
    format: str  # "text" or "binary"


def _id_dtype(width: int):
    return np.dtype("<u4") if width == 32 else np.dtype("<u8")


def _check_ids(arr: np.ndarray, num_nodes: int, where: str) -> None:
    if arr.size and int(arr.max()) >= num_nodes:
        raise FormatError(f"{where}: edge endpoint {int(arr.max())} >= num_nodes {num_nodes}")


class BinaryEdgeWriter:
    """Streams edge pairs into a binary edge file; patches num_edges on close."""

    def __init__(self, path: str, num_nodes: int, node_id_width: int | None = None):
        self.path = path
        self.num_nodes = int(num_nodes)
        self.width = node_id_width or width_for(num_nodes)
        if self.width == 32 and self.num_nodes > 2**32:
            raise FormatError("node ids overflow 32-bit width")
        self._dtype = _id_dtype(self.width)
        self._count = 0
        self._fh = open(path, "wb")
        flags = FLAG_WIDE_IDS if self.width == 64 else 0
        self._fh.write(_EDGE_HEADER.pack(EDGE_MAGIC, 1, flags, self.num_nodes, 0))

    def write(self, edges: np.ndarray) -> None:
        edges = np.ascontiguousarray(edges).reshape(-1, 2)
        _check_ids(edges, self.num_nodes, self.path)
        edges.astype(self._dtype, copy=False).tofile(self._fh)
        self._count += edges.shape[0]

    def close(self) -> EdgeFile:
        flags = FLAG_WIDE_IDS if self.width == 64 else 0
        self._fh.seek(0)
        self._fh.write(_EDGE_HEADER.pack(EDGE_MAGIC, 1, flags, self.num_nodes, self._count))
        self._fh.close()
        meta = GraphMeta(self.num_nodes, self._count, self.width)
        return EdgeFile(self.path, meta, BINARY)

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc, tb):
        if exc_type is None:
            self.close()
        else:
            self._fh.close()


def _read_binary_header(path: str) -> GraphMeta:
    size = os.path.getsize(path)
    if size < _EDGE_HEADER.size:
        raise FormatError(f"{path}: too short for a binary edge header")
    with open(path, "rb") as fh:
        magic, version, flags, num_nodes, num_edges = _EDGE_HEADER.unpack(
            fh.read(_EDGE_HEADER.size)
        )
    if magic != EDGE_MAGIC:
        raise FormatError(f"{path}: bad magic {magic!r}")
    if version != 1:
        raise FormatError(f"{path}: unsupported version {version}")
    width = 64 if flags & FLAG_WIDE_IDS else 32
    expected = _EDGE_HEADER.size + num_edges * 2 * (width // 8)
    if size != expected:
        raise FormatError(
            f"{path}: payload length {size - _EDGE_HEADER.size} does not match "
            f"header num_edges {num_edges}"
        )
    return GraphMeta(num_nodes, num_edges, width)


def _parse_text_line(line: str, lineno: int, path: str) -> tuple[int, int] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2:
        raise FormatError(f"{path}:{lineno}: expected 'src dst', got {line.rstrip()!r}")
    try:
        u, v = int(parts[0]), int(parts[1])
    except ValueError:
        raise FormatError(f"{path}:{lineno}: non-integer node id in {line.rstrip()!r}") from None
    if u < 0 or v < 0:
        raise FormatError(f"{path}:{lineno}: negative node id")
    return u, v


def _scan_text(path: str) -> tuple[int, int]:
    """Returns (num_edges, max_id) of a text edge file; max_id is -1 if empty."""
    count = 0
    max_id = -1
    with open(path, "r", encoding="ascii") as fh:
        for lineno, line in enumerate(fh, 1):
            pair = _parse_text_line(line, lineno, path)
            if pair is None:
                continue
            count += 1
            if pair[0] > max_id:
                max_id = pair[0]
            if pair[1] > max_id:
                max_id = pair[1]
    return count, max_id


def open_edge_file(path: str, num_nodes: int | None = None) -> EdgeFile:
    """Opens an edge file, sniffing the format and validating metadata.

    For text files the file is scanned once; num_nodes is inferred as
    max id + 1 when not given.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if head == EDGE_MAGIC:
        meta = _read_binary_header(path)
        if num_nodes is not None and num_nodes != meta.num_nodes:
            raise FormatError(
                f"{path}: num_nodes {meta.num_nodes} in header != requested {num_nodes}"
            )
        return EdgeFile(path, meta, BINARY)
    num_edges, max_id = _scan_text(path)
    if num_nodes is None:
        num_nodes = max_id + 1 if max_id >= 0 else 1
    elif max_id >= num_nodes:
        raise FormatError(f"{path}: edge endpoint {max_id} >= num_nodes {num_nodes}")
    meta = GraphMeta(max(num_nodes, 1), num_edges, width_for(max(num_nodes, 1)))
    return EdgeFile(path, meta, TEXT)


def iter_edge_blocks(efile: EdgeFile, block_edges: int = _DEFAULT_BLOCK_EDGES) -> Iterator[np.ndarray]:
    """Yields (m, 2) int64 arrays covering the file's edges in order."""
    if efile.format == BINARY:
        meta = _read_binary_header(efile.path)  # re-validate size before streaming
        dtype = _id_dtype(meta.node_id_width)
        remaining = meta.num_edges
        with open(efile.path, "rb") as fh:
            fh.seek(_EDGE_HEADER.size)
            while remaining > 0:
                take = min(block_edges, remaining)
                raw = np.fromfile(fh, dtype=dtype, count=2 * take)
                if raw.size != 2 * take:
                    raise FormatError(f"{efile.path}: truncated payload")
                block = raw.astype(np.int64).reshape(-1, 2)
                _check_ids(block, meta.num_nodes, efile.path)
                yield block
                remaining -= take
    else:
        buf: list[tuple[int, int]] = []
        with open(efile.path, "r", encoding="ascii") as fh:
            for lineno, line in enumerate(fh, 1):
                pair = _parse_text_line(line, lineno, efile.path)
                if pair is None:
                    continue
                buf.append(pair)
                if len(buf) >= block_edges:
                    block = np.asarray(buf, dtype=np.int64)
                    _check_ids(block, efile.meta.num_nodes, efile.path)
                    yield block
                    buf = []
        if buf:
            block = np.asarray(buf, dtype=np.int64)
            _check_ids(block, efile.meta.num_nodes, efile.path)
            yield block


def read_all_edges(efile: EdgeFile) -> np.ndarray:
    blocks = list(iter_edge_blocks(efile))
    if not blocks:
        return np.empty((0, 2), dtype=np.int64)
    return np.concatenate(blocks, axis=0)


def convert(
    efile: EdgeFile, out_path: str, out_format: str, num_nodes: int | None = None
) -> EdgeFile:
    """Rewrites the edge sequence in the requested format, order preserved."""
    if out_format not in (TEXT, BINARY):
        raise FormatError(f"unknown edge format {out_format!r}")
    num_nodes = num_nodes or efile.meta.num_nodes
    if out_format == BINARY:
        with BinaryEdgeWriter(out_path, num_nodes) as writer:
            for block in iter_edge_blocks(efile):
                writer.write(block)
        return open_edge_file(out_path)
    with open(out_path, "w", encoding="ascii") as fh:
        for block in iter_edge_blocks(efile):
            _check_ids(block, num_nodes, out_path)
            fh.writelines(f"{u} {v}\n" for u, v in block.tolist())
    return EdgeFile(out_path, GraphMeta(num_nodes, efile.meta.num_edges, width_for(num_nodes)), TEXT)


def external_shuffle(
    efile: EdgeFile, out_path: str, memory_budget: int, rng_seed: int
) -> EdgeFile:
    """Uniform random permutation of the edge file under a memory budget.

    Two passes: edges are scattered into temporary buckets (one uniform draw
    per edge, in file order), then each bucket is loaded, shuffled in memory
    and appended to the output.  Peak resident edge payload stays below
    ``memory_budget`` bytes; a bucket that lands above the budget (possible
    only through extreme fluctuation or tiny budgets) is re-scattered.
    Deterministic for a fixed (seed, budget) pair.
    """
    if memory_budget < IO_BLOCK:
        raise FormatError(f"memory_budget must be at least one I/O block ({IO_BLOCK} bytes)")
    meta = efile.meta
    mem_pair = 16  # edges are held in memory as int64 pairs
    rng = np.random.default_rng(rng_seed)
    block_edges = max(1024, (memory_budget // 4) // mem_pair)
    temps: list[str] = []  # every scatter temp created, for cleanup on failure

    def scatter(source_blocks: Iterator[np.ndarray], total_bytes: int) -> list[str]:
        nbuckets = ceil(total_bytes / max(mem_pair, memory_budget // 2))
        if nbuckets > _MAX_SCATTER_BUCKETS:
            raise FormatError(
                f"memory budget too small: shuffle would need {nbuckets} scatter buckets"
            )
        # narrowest dtype holding every bucket id: numpy radix-sorts keys of <= 16 bits
        key_dtype = np.min_scalar_type(nbuckets - 1)
        paths = []
        handles = []
        try:
            for _ in range(nbuckets):
                p = f"{out_path}.scatter{len(temps)}"
                temps.append(p)
                paths.append(p)
                handles.append(open(p, "wb"))
            for block in source_blocks:  # int64 pairs, as the temps hold them
                ids = rng.integers(0, nbuckets, size=block.shape[0])
                order = np.argsort(ids.astype(key_dtype), kind="stable")
                grouped = block[order]
                counts = np.bincount(ids, minlength=nbuckets)
                pos = 0
                for b, cnt in enumerate(counts):
                    if cnt:
                        grouped[pos : pos + cnt].tofile(handles[b])
                        pos += cnt
        finally:
            for fh in handles:
                fh.close()
        return paths

    def gather(path: str) -> None:
        size = os.path.getsize(path)
        n_edges = size // 16  # scatter temps hold int64 pairs
        if n_edges * mem_pair > memory_budget and n_edges > 1:
            def reblocks():
                with open(path, "rb") as fh:
                    while True:
                        raw = np.fromfile(fh, dtype=np.int64, count=2 * block_edges)
                        if raw.size == 0:
                            break
                        yield raw.reshape(-1, 2)
            sub = scatter(reblocks(), n_edges * mem_pair)
            os.remove(path)
            for s in sub:
                gather(s)
            return
        arr = np.fromfile(path, dtype=np.int64).reshape(-1, 2)
        os.remove(path)
        perm = rng.permutation(arr.shape[0])
        writer.write(arr[perm])

    total_bytes = meta.num_edges * mem_pair
    writer = BinaryEdgeWriter(out_path, meta.num_nodes, meta.node_id_width)
    try:
        with writer:
            if total_bytes <= memory_budget:
                arr = read_all_edges(efile)
                perm = rng.permutation(arr.shape[0])
                writer.write(arr[perm])
            else:
                for bucket_path in scatter(iter_edge_blocks(efile, block_edges), total_bytes):
                    gather(bucket_path)
    except BaseException:
        # no partial output or scatter temp may outlive a failed shuffle
        for path in [out_path, *temps]:
            if os.path.exists(path):
                os.remove(path)
        raise
    return open_edge_file(out_path)


@dataclass(frozen=True)
class ChunkPlan:
    """How an edge file is split into streaming chunks."""

    chunk_size: int  # edges per chunk; last chunk may be short
    num_chunks: int

    @staticmethod
    def plan(
        num_edges: int, chunk_edges: int | None = None, chunk_frac: float | None = None
    ) -> "ChunkPlan":
        if (chunk_edges is None) == (chunk_frac is None):
            raise FormatError("specify exactly one of chunk_edges / chunk_frac")
        if chunk_frac is not None:
            if not 0 < chunk_frac <= 1:
                raise FormatError(f"chunk_frac must be in (0, 1], got {chunk_frac}")
            chunk_edges = max(1, ceil(chunk_frac * num_edges))
        if chunk_edges < 1:
            raise FormatError(f"chunk_size must be >= 1, got {chunk_edges}")
        return ChunkPlan(chunk_edges, ceil(num_edges / chunk_edges) if num_edges else 0)


class ResidencyMeter:
    """Tracks currently resident and peak resident edge counts."""

    def __init__(self):
        self.current = 0
        self.peak = 0

    def acquire(self, n: int) -> None:
        self.current += n
        if self.current > self.peak:
            self.peak = self.current

    def release(self, n: int) -> None:
        self.current -= n


def stream_chunks(
    efile: EdgeFile, plan: ChunkPlan, meter: ResidencyMeter | None = None
) -> Iterator[EdgeChunk]:
    """Yields the file's edges as EdgeChunks in order.

    A chunk is read only when it is requested, so at most the active chunk
    and the one being read are resident; the meter, when given, accounts a
    chunk from the moment it is read until the next chunk has been read.
    """
    index = 0
    held = 0  # edges of the chunk handed out last
    try:
        for block in iter_edge_blocks(efile, plan.chunk_size):
            if meter:
                meter.acquire(block.shape[0])
                meter.release(held)
            held = block.shape[0]
            yield EdgeChunk(index, block)
            index += 1
    finally:
        if meter:
            meter.release(held)
    if index != plan.num_chunks:
        raise FormatError(
            f"{efile.path}: produced {index} chunks, plan expected {plan.num_chunks}"
        )


def iter_labelled_blocks(
    efile: EdgeFile, labels: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Yields (block, source labels, destination labels) over the file's edges.

    Raises FormatError when ``labels`` does not cover the file's nodes or an
    edge endpoint is unlabeled (negative label).
    """
    if labels.shape[0] != efile.meta.num_nodes:
        raise FormatError(
            f"labels cover {labels.shape[0]} nodes, file has {efile.meta.num_nodes}"
        )
    for block in iter_edge_blocks(efile):
        l_src = labels[block[:, 0]]
        l_dst = labels[block[:, 1]]
        if (l_src < 0).any() or (l_dst < 0).any():
            raise FormatError("unlabeled endpoint encountered")
        yield block, l_src, l_dst


def num_parts_of(labels: np.ndarray, num_parts: int | None = None) -> int:
    """Partition count of a labeling: the declared ``num_parts``, checked
    against the largest label, or the largest label + 1 when none is declared.

    Unassigned (negative) labels are ignored; with nothing assigned the count
    is 1.  Raises FormatError on a label >= ``num_parts``.
    """
    top = int(np.max(labels, initial=-1))
    if num_parts is None:
        return top + 1 if top >= 0 else 1
    if top >= num_parts:
        raise FormatError(f"label {top} >= num_parts {num_parts}")
    return max(int(num_parts), 1)


def write_labels(path: str, labels: np.ndarray, num_parts: int | None = None) -> None:
    """Writes a label file; -1 entries are stored as the unassigned sentinel."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        raise FormatError("labels must be a 1-d array")
    top = int(labels.max(initial=-1))
    if num_parts is None:
        num_parts = top + 1
    elif top >= num_parts:
        raise FormatError(f"label {top} >= num_parts {num_parts}")
    payload = labels.copy()
    payload[payload < 0] = _UNASSIGNED_U32
    with open(path, "wb") as fh:
        fh.write(_LABELS_HEADER.pack(LABELS_MAGIC, 1, labels.size, num_parts))
        payload.astype("<u4").tofile(fh)


def read_labels(path: str) -> tuple[np.ndarray, int]:
    """Reads a label file; returns (labels with -1 for unassigned, num_parts)."""
    size = os.path.getsize(path)
    if size < _LABELS_HEADER.size:
        raise FormatError(f"{path}: too short for a labels header")
    with open(path, "rb") as fh:
        magic, version, num_nodes, num_parts = _LABELS_HEADER.unpack(
            fh.read(_LABELS_HEADER.size)
        )
        if magic != LABELS_MAGIC:
            raise FormatError(f"{path}: bad magic {magic!r}")
        if version != 1:
            raise FormatError(f"{path}: unsupported version {version}")
        raw = np.fromfile(fh, dtype="<u4", count=num_nodes)
    if raw.size != num_nodes:
        raise FormatError(f"{path}: truncated labels payload")
    labels = raw.astype(np.int64)
    labels[raw == _UNASSIGNED_U32] = -1
    return labels, num_parts
