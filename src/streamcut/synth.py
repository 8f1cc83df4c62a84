"""Deterministic synthetic graphs: planted-partition (SBM), clique unions,
paths and stars.  Generators return (edges, ground-truth labels); the label
array length defines the node count, so blocks with no sampled edges still
contribute nodes."""

from __future__ import annotations

import os
from dataclasses import dataclass

import numpy as np

from .edgefile import BINARY, BinaryEdgeWriter, EdgeFile, convert, open_edge_file
from .errors import FormatError

_GEOM_BATCH = 4096


@dataclass(frozen=True)
class SbmSpec:
    blocks: int
    nodes_per_block: int
    p_in: float
    p_out: float
    rng_seed: int = 0

    def __post_init__(self):
        if self.blocks < 1 or self.nodes_per_block < 1:
            raise FormatError("blocks and nodes_per_block must be >= 1")
        if not 0 <= self.p_out <= self.p_in <= 1:
            raise FormatError("need 0 <= p_out <= p_in <= 1")


@dataclass(frozen=True)
class CliqueUnionSpec:
    cliques: int
    clique_size: int
    bridges: int = 0  # laid round-robin between consecutive clique pairs

    def __post_init__(self):
        if self.cliques < 1 or self.clique_size < 1:
            raise FormatError("cliques and clique_size must be >= 1")
        if self.bridges < 0 or (self.bridges > 0 and self.cliques < 2):
            raise FormatError("bridges need at least two cliques")


@dataclass(frozen=True)
class PathSpec:
    num_nodes: int

    def __post_init__(self):
        if self.num_nodes < 1:
            raise FormatError("num_nodes must be >= 1")


@dataclass(frozen=True)
class StarSpec:
    leaves: int

    def __post_init__(self):
        if self.leaves < 0:
            raise FormatError("leaves must be >= 0")


def _bernoulli_indices(rng: np.random.Generator, total: int, prob: float) -> np.ndarray:
    """Indices in [0, total) selected i.i.d. with probability ``prob``.

    Geometric gap skipping keeps the cost proportional to the number of
    selected indices rather than to ``total``.
    """
    if total <= 0 or prob <= 0:
        return np.empty(0, dtype=np.int64)
    if prob >= 1:
        return np.arange(total, dtype=np.int64)
    chunks = []
    pos = 0
    while pos < total:
        gaps = rng.geometric(prob, size=_GEOM_BATCH)
        idx = pos - 1 + np.cumsum(gaps)
        chunks.append(idx[idx < total])
        if idx[-1] >= total:
            break
        pos = int(idx[-1]) + 1
    return np.concatenate(chunks) if chunks else np.empty(0, dtype=np.int64)


def _triangle_decode(t: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """Maps linear indices to pairs (i, j), 0 <= i < j < m, in lexicographic order."""
    tt = t.astype(np.float64)
    i = np.floor((2 * m - 1 - np.sqrt((2 * m - 1) ** 2 - 8 * tt)) / 2).astype(np.int64)
    for _ in range(2):  # fix off-by-one from floating point
        before = i * (2 * m - i - 1) // 2
        i = np.where(before > t, i - 1, i)
        after = (i + 1) * (2 * m - i - 2) // 2
        i = np.where(after <= t, i + 1, i)
    before = i * (2 * m - i - 1) // 2
    j = t - before + i + 1
    return i, j


def generate(spec) -> tuple[np.ndarray, np.ndarray]:
    """Returns (edges as an (m, 2) int64 array, per-node ground-truth labels)."""
    if isinstance(spec, SbmSpec):
        return _generate_sbm(spec)
    if isinstance(spec, CliqueUnionSpec):
        return _generate_cliques(spec)
    if isinstance(spec, PathSpec):
        n = spec.num_nodes
        edges = np.column_stack([np.arange(n - 1), np.arange(1, n)])
        return edges.astype(np.int64), np.zeros(n, dtype=np.int32)
    if isinstance(spec, StarSpec):
        n = spec.leaves + 1
        edges = np.column_stack([np.zeros(spec.leaves, dtype=np.int64), np.arange(1, n)])
        return edges.astype(np.int64), np.zeros(n, dtype=np.int32)
    raise FormatError(f"unknown graph spec {type(spec).__name__}")


def _generate_sbm(spec: SbmSpec) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(spec.rng_seed)
    m = spec.nodes_per_block
    parts = []
    for b in range(spec.blocks):
        sel = _bernoulli_indices(rng, m * (m - 1) // 2, spec.p_in)
        i, j = _triangle_decode(sel, m)
        parts.append(np.column_stack([b * m + i, b * m + j]))
    for a in range(spec.blocks):
        for b in range(a + 1, spec.blocks):
            sel = _bernoulli_indices(rng, m * m, spec.p_out)
            parts.append(np.column_stack([a * m + sel // m, b * m + sel % m]))
    edges = (
        np.concatenate(parts, axis=0) if parts else np.empty((0, 2), dtype=np.int64)
    ).astype(np.int64)
    labels = np.repeat(np.arange(spec.blocks, dtype=np.int32), m)
    return edges, labels


def _generate_cliques(spec: CliqueUnionSpec) -> tuple[np.ndarray, np.ndarray]:
    m = spec.clique_size
    parts = []
    tri_i, tri_j = np.triu_indices(m, k=1)
    for c in range(spec.cliques):
        parts.append(np.column_stack([c * m + tri_i, c * m + tri_j]))
    for k in range(spec.bridges):
        c = k % (spec.cliques - 1)
        r = (k // (spec.cliques - 1)) % m
        parts.append(np.array([[c * m + r, (c + 1) * m + r]], dtype=np.int64))
    edges = (
        np.concatenate(parts, axis=0) if parts else np.empty((0, 2), dtype=np.int64)
    ).astype(np.int64)
    labels = np.repeat(np.arange(spec.cliques, dtype=np.int32), m)
    return edges, labels


def write_graph(spec, path: str, fmt: str = BINARY) -> tuple[EdgeFile, np.ndarray]:
    """Generates a graph and writes its edge file; returns (EdgeFile, labels)."""
    edges, labels = generate(spec)
    source = path if fmt == BINARY else path + ".grpe.tmp"  # convert writes to path + ".tmp"
    with BinaryEdgeWriter(source, len(labels)) as writer:
        writer.write(edges)
    if fmt == BINARY:
        return open_edge_file(path), labels
    try:
        return convert(open_edge_file(source), path, fmt), labels
    finally:
        os.remove(source)
