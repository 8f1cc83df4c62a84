"""External-memory edge-list I/O.

Two on-disk edge formats are supported:

* text: one ``src dst`` pair per line, ASCII decimal, ``#`` comment lines
  ignored, except a first line ``# nodes N``, which declares num_nodes N;
  ``convert`` always writes it, so its files are never zero bytes.  Without
  it num_nodes is inferred as the largest id + 1.
* binary: little-endian, header = magic ``GRPE``, version u32=1, flags u32
  (bit 0: 64-bit ids), num_nodes u64, num_edges u64; payload = num_edges
  (src, dst) pairs of u32 or u64 each.

Label files are little-endian too: magic ``GRPL``, version u32=1,
num_nodes u64, num_parts u32, then num_nodes u32 labels with 0xFFFFFFFF
meaning unassigned.
"""

from __future__ import annotations

import os
import re
import struct
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass
from itertools import count
from math import ceil, prod
from typing import Iterator

import numpy as np

from . import _kernels
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
_NODES_LINE = re.compile(r"# nodes (\d+)")
_DECIMAL = re.compile(r"[0-9]+")

IO_BLOCK = 64 * 1024  # minimum sensible I/O granularity in bytes
_MAX_SCATTER_BUCKETS = 4096
_DEFAULT_BLOCK_EDGES = 1 << 18
# rows an endpoint pass adds into its u32 counters before folding them into
# the int64 result: a row adds at most one to any counter
_FOLD_ROWS = 2**32 - 1


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


def _write_array(fh, arr: np.ndarray) -> None:
    """Writes ``arr``'s bytes to ``fh``; unlike ``ndarray.tofile``, which drops the
    error of a write cut short, this raises OSError here or when ``fh`` is closed."""
    fh.write(np.ascontiguousarray(arr))


@contextmanager
def _replacing(path: str, *sidecars: str):
    """Yields temporary names for an output and its sidecars, then renames them into place.

    The temporaries (``<name>.tmp``, or ``<name>.tmp1`` and so on when a
    file has that name) sit next to the outputs and are removed if the body
    raises, so an earlier output is left as it was.  No rename
    lands on an existing file: ext4 (under its default ``auto_da_alloc``)
    writes a file back before renaming it over another, about 13 ms per
    16 MiB.  So once the body is done, the old sidecars are removed and an
    old output is moved aside to a name no file has (``<path>.old``, or
    ``<path>.old1`` and so on); it is moved back if the output's own rename
    fails and removed once that rename is done.  A crash leaves the previous
    output, no output, or a new output with no sidecar, never a mixed set.
    """
    names = (path, *sidecars)
    temps = tuple(_free_name(name + ".tmp") for name in names)
    try:
        yield temps
        for sidecar in sidecars:
            _remove_if_present(sidecar)
        aside = _free_name(path + ".old") if os.path.isfile(path) else None
        if aside is not None:
            os.rename(path, aside)
        try:
            os.replace(temps[0], path)
        except BaseException:
            if aside is not None:
                os.rename(aside, path)
            raise
        if aside is not None:
            os.remove(aside)
        for tmp, sidecar in zip(temps[1:], sidecars):
            os.replace(tmp, sidecar)
    finally:
        for tmp in temps:
            _remove_if_present(tmp)


def _free_name(stem: str) -> str:
    """``stem``, or ``stem`` followed by the first number that names no file."""
    name = stem
    for n in count(1):
        if not os.path.lexists(name):
            return name
        name = f"{stem}{n}"


def _remove_if_present(path: str) -> None:
    if os.path.exists(path):
        os.remove(path)


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
        _write_array(self._fh, edges.astype(self._dtype, copy=False))
        self._count += edges.shape[0]

    def close(self) -> EdgeFile:
        flags = FLAG_WIDE_IDS if self.width == 64 else 0
        try:
            self._fh.seek(0)
            self._fh.write(_EDGE_HEADER.pack(EDGE_MAGIC, 1, flags, self.num_nodes, self._count))
        finally:
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
    if flags & ~FLAG_WIDE_IDS:
        raise FormatError(f"{path}: unknown flags {flags:#x}")
    width = 64 if flags & FLAG_WIDE_IDS else 32
    expected = _EDGE_HEADER.size + num_edges * 2 * (width // 8)
    if size != expected:
        raise FormatError(
            f"{path}: payload length {size - _EDGE_HEADER.size} does not match "
            f"header num_edges {num_edges}"
        )
    return GraphMeta(num_nodes, num_edges, width)


def _decimal(token: str) -> int:
    """The value of an id token of ASCII digits only; ValueError for any other
    token, such as one ``int`` takes with a sign or ``_`` separators."""
    if _DECIMAL.fullmatch(token) is None:
        raise ValueError(f"not an ASCII decimal id: {token!r}")
    return int(token)


def _parse_text_line(line: str, lineno: int, path: str) -> tuple[int, int] | None:
    stripped = line.strip()
    if not stripped or stripped.startswith("#"):
        return None
    parts = stripped.split()
    if len(parts) != 2:
        raise FormatError(f"{path}:{lineno}: expected 'src dst', got {line.rstrip()!r}")
    try:
        u, v = _decimal(parts[0]), _decimal(parts[1])
    except ValueError:
        if all(_DECIMAL.fullmatch(tok.removeprefix("-")) for tok in parts):
            raise FormatError(f"{path}:{lineno}: negative node id") from None
        raise FormatError(f"{path}:{lineno}: non-integer node id in {line.rstrip()!r}") from None
    if max(u, v) >= 2**64 - 1:  # num_nodes, one more, must fit a binary header's u64
        raise FormatError(f"{path}:{lineno}: node id {max(u, v)} >= 2**64 - 1")
    return u, v


def _declared_nodes(line: str, path: str) -> int | None:
    """num_nodes N of a first line ``# nodes N``; None for any other line."""
    match = _NODES_LINE.fullmatch(line.strip())
    if match is None:
        return None
    declared = int(match.group(1))
    if declared > 2**64 - 1:  # must fit a binary header's u64
        raise FormatError(f"{path}:1: num_nodes {declared} > 2**64 - 1")
    return declared


def _text_lines(path: str) -> Iterator[tuple[int, str]]:
    """(line number, line) of a text edge file; a byte outside ASCII, as in a
    binary file with a damaged magic, is a FormatError."""
    with open(path, "r", encoding="ascii") as fh:
        try:
            yield from enumerate(fh, 1)
        except UnicodeDecodeError as exc:
            raise FormatError(f"{path}: byte {exc.object[exc.start]:#04x} is not ASCII, "
                              f"not a text edge list") from None


def _scan_text(path: str) -> tuple[int, int, int | None]:
    """Returns (num_edges, max_id, declared num_nodes) of a text edge file;
    max_id is -1 if it has no edges, the declaration None without one."""
    count = 0
    max_id = -1
    declared = None
    for lineno, line in _text_lines(path):
        if lineno == 1:
            declared = _declared_nodes(line, path)
        pair = _parse_text_line(line, lineno, path)
        if pair is None:
            continue
        count += 1
        if pair[0] > max_id:
            max_id = pair[0]
        if pair[1] > max_id:
            max_id = pair[1]
    return count, max_id, declared


def open_edge_file(path: str, num_nodes: int | None = None) -> EdgeFile:
    """Opens an edge file, sniffing the format and validating metadata.

    For text files the file is scanned once.  num_nodes is the file's own
    ``# nodes N`` line when it has one (a ``num_nodes`` that disagrees is a
    FormatError), else the given ``num_nodes``, else the largest id + 1, or 1
    for a file without edges; an id at or above it, or a declared or given
    count below 1, is a FormatError.  A file of zero bytes is a
    FormatError: it is what a binary file cut short by a power loss may
    become, and no text file streamcut writes is empty.
    """
    with open(path, "rb") as fh:
        head = fh.read(4)
    if not head:
        raise FormatError(f"{path}: empty file, not an edge list")
    if head == EDGE_MAGIC:
        meta = _read_binary_header(path)
        if num_nodes is not None and num_nodes != meta.num_nodes:
            raise FormatError(
                f"{path}: num_nodes {meta.num_nodes} in header != requested {num_nodes}"
            )
        return EdgeFile(path, meta, BINARY)
    num_edges, max_id, declared = _scan_text(path)
    if declared is not None:
        if num_nodes is not None and num_nodes != declared:
            raise FormatError(f"{path}: num_nodes {declared} in its '# nodes' line != "
                              f"requested {num_nodes}")
        num_nodes = declared
    if num_nodes is None:
        num_nodes = max(max_id + 1, 1)
    elif num_nodes < 1:
        raise FormatError(f"{path}: num_nodes {num_nodes}, a graph has at least one node")
    elif max_id >= num_nodes:
        raise FormatError(f"{path}: edge endpoint {max_id} >= num_nodes {num_nodes}")
    meta = GraphMeta(num_nodes, num_edges, width_for(num_nodes))
    return EdgeFile(path, meta, TEXT)


def iter_edge_blocks(efile: EdgeFile, block_edges: int = _DEFAULT_BLOCK_EDGES) -> Iterator[np.ndarray]:
    """Yields (m, 2) arrays covering the file's edges in order, at the file's id
    width (u32 or u64, text files included), once their ids are checked.

    A yielded block is valid only until the next one is requested: binary
    blocks are views of one buffer of ``min(block_edges, num_edges)`` rows,
    which each block overwrites, so a caller that keeps rows past that copies
    them.  It is the one id check on rows read from a file: the edge passes
    index arrays of ``meta.num_nodes`` entries with its blocks' ids unchecked.
    Binary blocks are checked as read and yielded as stored, after the header
    and size checks; a payload that ends mid-block is a FormatError, and no
    part of that block is yielded.  Text rows are parsed and checked before
    the cast to the width, and a text file whose count departs from the one
    taken when it was opened is a FormatError, raised before any row beyond
    that count.  A ``block_edges`` below 1 is a ValueError, raised before
    anything is read.
    """
    if block_edges < 1:
        raise ValueError(f"block_edges must be at least 1, got {block_edges}")
    meta, path = efile.meta, efile.path
    dtype = _id_dtype(meta.node_id_width)
    if efile.format == BINARY:
        if _read_binary_header(path) != meta:  # re-validate size before streaming
            raise FormatError(f"{path}: header changed since the file was opened")
        remaining = meta.num_edges
        # one buffer for every block: fresh pages would fault in per block
        buffer = np.empty((min(block_edges, remaining), 2), dtype=dtype)
        with open(path, "rb") as fh:
            fh.seek(_EDGE_HEADER.size)
            while remaining > 0:
                block = buffer[: min(block_edges, remaining)]
                # the buffered reader reads until the block is full or the file ends
                if fh.readinto(block) != block.nbytes:
                    raise FormatError(f"{path}: truncated payload")
                _check_ids(block, meta.num_nodes, path)
                yield block
                remaining -= block.shape[0]
        return

    def rows(pairs: list[tuple[int, int]]) -> np.ndarray:
        block = np.asarray(pairs, dtype=np.uint64)
        _check_ids(block, meta.num_nodes, path)
        return block.astype(dtype)

    seen = 0
    buf: list[tuple[int, int]] = []
    for lineno, line in _text_lines(path):
        pair = _parse_text_line(line, lineno, path)
        if pair is None:
            continue
        seen += 1
        if seen > meta.num_edges:
            raise FormatError(f"{path}:{lineno}: more than the {meta.num_edges} edges "
                              f"counted when the file was opened")
        buf.append(pair)
        if len(buf) >= block_edges:
            yield rows(buf)
            buf = []
    if seen != meta.num_edges:
        raise FormatError(f"{path}: {seen} edges, {meta.num_edges} counted when the file "
                          f"was opened")
    if buf:
        yield rows(buf)


def read_all_edges(efile: EdgeFile) -> np.ndarray:
    """The file's edges as one fresh (E, 2) array at the file's id width, each
    block copied into it before the next is read."""
    edges = np.empty((efile.meta.num_edges, 2), dtype=_id_dtype(efile.meta.node_id_width))
    pos = 0
    for block in iter_edge_blocks(efile):
        edges[pos : pos + block.shape[0]] = block
        pos += block.shape[0]
    return edges


def convert(efile: EdgeFile, out_path: str, out_format: str) -> EdgeFile:
    """Rewrites the edge sequence in the requested format, order preserved, under a
    temporary name renamed into place when complete, so a failure leaves nothing behind.
    A text output declares its num_nodes in a first line ``# nodes N``."""
    if out_format not in (TEXT, BINARY):
        raise FormatError(f"unknown edge format {out_format!r}")
    num_nodes = efile.meta.num_nodes
    if out_format == BINARY:
        with _replacing(out_path) as (tmp_path,), BinaryEdgeWriter(tmp_path, num_nodes) as writer:
            for block in iter_edge_blocks(efile):
                writer.write(block)
        return open_edge_file(out_path)
    with _replacing(out_path) as (tmp_path,), open(tmp_path, "w", encoding="ascii") as fh:
        fh.write(f"# nodes {num_nodes}\n")
        for block in iter_edge_blocks(efile):
            _check_ids(block, num_nodes, out_path)
            fh.writelines(f"{u} {v}\n" for u, v in block.tolist())
    return EdgeFile(out_path, GraphMeta(num_nodes, efile.meta.num_edges, width_for(num_nodes)), TEXT)


def external_shuffle(
    efile: EdgeFile, out_path: str, memory_budget: int, rng_seed: int
) -> EdgeFile:
    """Uniform random permutation of the edge file under a memory budget.

    A file that fits the budget is loaded, permuted and appended to the
    output.  A larger one is scattered into ceil(16 E / (budget / 2))
    temporary binary edge files (one uniform draw per edge, in file order),
    and each temporary is then shuffled the same way, in order, and removed:
    a temporary that lands above the budget (possible only through extreme
    fluctuation or tiny budgets) is scattered again.  The temporaries hold
    rows at the input's width, while the fit test, the bucket count and the
    block size budget 16 bytes per edge, an int64 pair, so the draws, and the
    output, do not depend on the width.  Deterministic for a fixed (seed,
    budget) pair.  The output is written under a temporary name next to
    ``out_path`` and renamed into place when complete: a failed shuffle
    leaves an earlier output as it was and no temporary behind.
    """
    if memory_budget < IO_BLOCK:
        raise FormatError(f"memory_budget must be at least one I/O block ({IO_BLOCK} bytes)")
    meta = efile.meta
    mem_pair = 16  # the budget per edge: an int64 pair, whatever the stored width
    rng = np.random.default_rng(rng_seed)
    block_edges = max(1024, (memory_budget // 4) // mem_pair)
    names = count()
    temps = ExitStack()  # removes every scatter temporary still there when the shuffle ends

    def scatter(source: EdgeFile) -> list[str]:
        """Writes each edge of ``source`` to a drawn temporary; returns their paths."""
        nbuckets = ceil(source.meta.num_edges * mem_pair / (memory_budget // 2))
        if nbuckets > _MAX_SCATTER_BUCKETS:
            raise FormatError(
                f"memory budget too small: shuffle would need {nbuckets} scatter buckets"
            )
        paths = [f"{out_path}.scatter{next(names)}" for _ in range(nbuckets)]
        with ExitStack() as writers:
            buckets = []
            for path in paths:
                temps.callback(_remove_if_present, path)
                buckets.append(writers.enter_context(
                    BinaryEdgeWriter(path, meta.num_nodes, meta.node_id_width)))
            # one grouping buffer for every block: fresh pages would fault in per block
            buffer = np.empty((block_edges, 2), dtype=_id_dtype(meta.node_id_width))
            for block in iter_edge_blocks(source, block_edges):
                ids = rng.integers(0, nbuckets, size=block.shape[0])
                grouped, bounds = _scatter_block(block, ids, nbuckets, buffer[: block.shape[0]])
                for b in np.flatnonzero(np.diff(bounds)):
                    buckets[b].write(grouped[bounds[b] : bounds[b + 1]])
        return paths

    def shuffle(source: EdgeFile, writer: BinaryEdgeWriter) -> None:
        num_edges = source.meta.num_edges
        if num_edges * mem_pair <= memory_budget:
            arr = read_all_edges(source)
            writer.write(np.take(arr, rng.permutation(num_edges), axis=0))
            return
        for path in scatter(source):  # returns first, so its buffers are gone
            shuffle(open_edge_file(path), writer)
            os.remove(path)

    with _replacing(out_path) as (tmp_path,), temps:
        with BinaryEdgeWriter(tmp_path, meta.num_nodes, meta.node_id_width) as writer:
            shuffle(efile, writer)
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

    A chunk is read only when it is requested, into the one block buffer of
    ``iter_edge_blocks``, and built before the next is read, so it keeps
    none of the rows: at most the active chunk's index and the rows being
    read are resident.  The meter, when given, accounts a chunk from the
    moment it is read until the next chunk has been read.
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


# The edge passes over one block of ``iter_edge_blocks``, whose ids they trust.
# Each runs its compiled kernel, which checks the labels and bucket ids it
# reads and reports the first row it rejects, which ``_raise_rejected`` turns
# into an error; the extraction pass has nothing to reject.

def _rows(block: np.ndarray) -> np.ndarray:
    rows = np.ascontiguousarray(block)
    if rows.ndim != 2 or rows.shape[1] != 2 or rows.dtype not in (np.uint32, np.uint64):
        raise ValueError(f"edge rows must be (m, 2) u32 or u64, got {rows.dtype} {rows.shape}")
    return rows


def _raise_rejected(rows: np.ndarray, bad: int, labels: np.ndarray | None = None) -> None:
    """Raises for row ``bad``, which a pass rejected: FormatError for an
    endpoint the u32 ``labels`` leave unassigned (0xFFFFFFFF), ValueError otherwise."""
    if labels is not None and (labels[rows[bad]] == _UNASSIGNED_U32).any():
        raise FormatError("unlabeled endpoint encountered")
    raise ValueError(f"row {bad}: label or bucket id out of the kernel's range")


def _label_block(efile: EdgeFile, block: np.ndarray, labels: np.ndarray, cut: np.ndarray,
                 p: int, counts: np.ndarray | None = None,
                 bucket: np.ndarray | None = None) -> None:
    """``_kernels.label_pass`` over one block, ``labels`` as ``_check_labels`` returns them.

    Adds the block's cut edges to ``cut[0]``, adds its p x p bucket counts to
    ``counts`` and writes its bucket ids to ``bucket``, each when given; an
    endpoint labelled outside [0, p) is rejected.
    """
    rows, num_nodes, ptr = _rows(block), efile.meta.num_nodes, _kernels.ptr
    bad = _kernels.label_pass(rows.shape[0], ptr(rows, rows.dtype, rows.size), rows.itemsize,
                              ptr(labels, np.uint32, num_nodes), p, ptr(counts, np.int64, p * p),
                              ptr(bucket, np.int64, rows.shape[0]), ptr(cut, np.int64, 1))
    if bad >= 0:
        _raise_rejected(rows, bad, labels)


def _extract_block(efile: EdgeFile, block: np.ndarray, new_id: np.ndarray,
                   out: np.ndarray) -> np.ndarray:
    """``_kernels.extract_rows`` over one block: its rows whose endpoints both
    have a new id, relabelled, written to the front of ``out`` and returned as
    a view of it.

    ``new_id`` (int64, one per node) holds each kept node's new id and -1 for
    a node whose rows are dropped.  ``out`` is a contiguous u32 or u64 buffer
    of at least the block's shape.
    """
    rows, num_nodes, ptr = _rows(block), efile.meta.num_nodes, _kernels.ptr
    if _rows(out) is not out or out.shape[0] < rows.shape[0]:
        raise ValueError(f"extraction buffer must be contiguous and hold {rows.shape[0]} rows")
    kept = _kernels.extract_rows(rows.shape[0], ptr(rows, rows.dtype, rows.size), rows.itemsize,
                                 ptr(new_id, np.int64, num_nodes), out.itemsize,
                                 ptr(out, out.dtype, out.size))
    return out[:kept]


def _scatter_block(block: np.ndarray, bucket: np.ndarray, nbuckets: int,
                   out: np.ndarray | None = None) -> tuple[np.ndarray, np.ndarray]:
    """``_kernels.scatter_rows`` over one block: (rows grouped by bucket, run bounds).

    A row is one entry of ``block``'s first axis, moved as its bytes: an edge
    row of two ids or a feature record of any width.  Every ``bucket`` id
    must lie in [0, nbuckets); bucket b's rows are
    ``grouped[bounds[b]:bounds[b + 1]]``, in input order.  ``grouped`` is
    ``out`` when given, a buffer of the block's shape and dtype.
    """
    rows = np.ascontiguousarray(block)
    grouped = np.empty_like(rows) if out is None else out
    bounds = np.zeros(nbuckets + 1, dtype=np.int64)
    ptr = _kernels.ptr
    # not strides[0]: a one-row view keeps its parent's row stride
    row_bytes = rows.itemsize * prod(rows.shape[1:])
    bad = _kernels.scatter_rows(rows.shape[0], ptr(rows, rows.dtype, rows.size), row_bytes,
                                ptr(bucket, np.int64, rows.shape[0]), nbuckets,
                                ptr(bounds, np.int64, nbuckets + 1),
                                ptr(grouped, rows.dtype, rows.size))
    if bad >= 0:
        _raise_rejected(rows, bad)
    return grouped, bounds


def _endpoint_block(efile: EdgeFile, block: np.ndarray, counts: np.ndarray,
                    labels: np.ndarray | None = None) -> None:
    """``_kernels.endpoint_counts`` over one block, self-loops left out, into u32
    ``counts``, which the block's rows must not take past 2**32 - 1.

    Without labels it adds each endpoint to ``counts[node]``; with the u32
    labels of a bisection, as ``_check_labels`` returns them, it adds it to
    ``counts[2 * node + side of the other endpoint]``.
    """
    rows, num_nodes = _rows(block), efile.meta.num_nodes
    if counts.size != (num_nodes if labels is None else 2 * num_nodes):
        raise ValueError("counts must have one entry per node, or two with labels")
    ptr = _kernels.ptr
    bad = _kernels.endpoint_counts(rows.shape[0], ptr(rows, rows.dtype, rows.size), rows.itemsize,
                                   ptr(labels, np.uint32, num_nodes),
                                   ptr(counts, np.uint32, counts.size))
    if bad >= 0:
        _raise_rejected(rows, bad, labels)


def _cut_pass(efile: EdgeFile, labels: np.ndarray, p: int,
              counts: np.ndarray | None = None) -> int:
    """The file's cut edges under the u32 ``labels``, every one below ``p``, by
    ``_label_block`` over every block; it also adds the p x p bucket counts to
    ``counts`` when given."""
    cut = np.zeros(1, dtype=np.int64)
    for block in iter_edge_blocks(efile):
        _label_block(efile, block, labels, cut, p, counts=counts)
    return int(cut[0])


def _endpoint_pass(efile: EdgeFile, labels: np.ndarray | None = None) -> np.ndarray:
    """Fresh int64 counts filled by ``_endpoint_block`` over every block: each
    node's degree or, with the u32 labels of a bisection, its neighbours on
    side s at ``2 * node + s``.  The blocks add into u32 counters, folded into
    the result at the end and before any block that would take them past
    ``_FOLD_ROWS`` rows."""
    num_nodes = efile.meta.num_nodes
    counts = np.zeros(num_nodes if labels is None else 2 * num_nodes, dtype=np.int64)
    partial = np.zeros(counts.size, dtype=np.uint32)
    rows = 0  # added to partial since it was last folded
    for block in iter_edge_blocks(efile):
        if rows + block.shape[0] > _FOLD_ROWS:
            counts += partial
            partial[:] = 0
            rows = 0
        _endpoint_block(efile, block, partial, labels)
        rows += block.shape[0]
    counts += partial
    return counts


def _check_labels(num_nodes: int, labels, num_parts: int | None = None) -> tuple[np.ndarray, int]:
    """A caller's labels in a label file's form: (u32 labels, p).

    FormatError unless ``labels`` is a 1-d array of one integer (or bool)
    label per node, each below p, and p fits a label file (at most
    0xFFFFFFFF).  p is the declared ``num_parts``, or the largest label + 1;
    with nothing assigned it is 1.  An inferred p is at most the node count:
    the passes size per-partition arrays by p, so one stray large label
    would cost memory in proportion to its value.  More parts than nodes
    must be declared.  Negative labels mean unassigned and become
    0xFFFFFFFF, which every edge pass rejects.
    """
    labels = np.asarray(labels)
    if labels.ndim != 1 or labels.dtype.kind not in "biu":
        raise FormatError(f"labels must be a 1-d integer array, got {labels.dtype} "
                          f"{labels.shape}")
    if labels.shape[0] != num_nodes:
        raise FormatError(f"labels cover {labels.shape[0]} nodes, file has {num_nodes}")
    top = int(labels.max()) if labels.size else -1
    p = top + 1 if num_parts is None else int(num_parts)
    if top >= p:
        raise FormatError(f"label {top} >= num_parts {p}")
    if p > _UNASSIGNED_U32:
        raise FormatError(f"{p} parts do not fit a label file: its labels are u32 "
                          f"below {_UNASSIGNED_U32:#x}")
    if num_parts is None and top >= num_nodes:
        raise FormatError(f"label {top} >= {num_nodes} nodes; declare num_parts for more "
                          f"parts than nodes")
    narrow = labels.astype(np.uint32)
    narrow[labels < 0] = _UNASSIGNED_U32
    return narrow, max(p, 1)


def write_labels(path: str, labels: np.ndarray, num_parts: int | None = None) -> None:
    """Writes a label file; negative entries are stored as the unassigned sentinel.

    ``num_parts`` and the checks are those of ``_check_labels``.  The file is
    written under a temporary name next to ``path`` and renamed into place
    when complete, so a failed write leaves an earlier file as it was.
    """
    narrow, p = _check_labels(np.size(labels), labels, num_parts)
    with _replacing(path) as (tmp_path,), open(tmp_path, "wb") as fh:
        fh.write(_LABELS_HEADER.pack(LABELS_MAGIC, 1, narrow.size, p))
        _write_array(fh, narrow.astype("<u4", copy=False))


def read_labels(path: str) -> tuple[np.ndarray, int]:
    """Reads a label file; returns (labels with -1 for unassigned, num_parts).

    FormatError unless the payload holds exactly the header's num_nodes
    labels, each unassigned or below num_parts.
    """
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
        # checked before the read, which would size its buffer by the header
        if size < _LABELS_HEADER.size + 4 * num_nodes:
            raise FormatError(f"{path}: truncated labels payload")
        if size > _LABELS_HEADER.size + 4 * num_nodes:
            raise FormatError(f"{path}: trailing bytes after {num_nodes} labels")
        raw = np.fromfile(fh, dtype="<u4", count=num_nodes)
    if raw.size != num_nodes:
        raise FormatError(f"{path}: truncated labels payload")
    assigned = raw[raw != _UNASSIGNED_U32]
    if assigned.size and int(assigned.max()) >= num_parts:
        raise FormatError(f"{path}: label {int(assigned.max())} >= num_parts {num_parts}")
    labels = raw.astype(np.int64)
    labels[raw == _UNASSIGNED_U32] = -1
    return labels, num_parts
