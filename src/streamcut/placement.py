"""Coordinator-side planning: random partition-to-worker assignment,
replication selection, and a static cross-worker fetch estimator."""

from __future__ import annotations

import ctypes
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .edgefile import (_UNASSIGNED_U32, EdgeFile, _check_labels, _decimal, _endpoint_pass,
                       iter_edge_blocks)
from .errors import FormatError
from .model import build_adjacency


@dataclass(frozen=True)
class PlacementPlan:
    """Disjoint partition subsets per worker plus an optional replicated node set.

    Every partition id appears in exactly one worker's list; replicated nodes
    are resident on all workers.
    """

    num_workers: int
    assignment: tuple[tuple[int, ...], ...]
    replicated_nodes: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        if self.num_workers != len(self.assignment):
            raise FormatError("assignment must have one partition list per worker")
        flat = [pid for worker in self.assignment for pid in worker]
        if sorted(flat) != list(range(len(flat))):
            raise FormatError("assignment must cover partitions 0..p-1 exactly once")

    @property
    def num_partitions(self) -> int:
        return sum(len(worker) for worker in self.assignment)

    def worker_of(self) -> np.ndarray:
        """Array mapping partition id -> worker id."""
        owner = np.empty(self.num_partitions, dtype=np.int64)
        for w, parts in enumerate(self.assignment):
            for pid in parts:
                owner[pid] = w
        return owner


def plan_assignment(p: int, num_workers: int, rng_seed: int) -> PlacementPlan:
    """Uniform random split of partition ids into per-worker subsets.

    Subset sizes differ by at most one and each worker's list is already in a
    random processing order.
    """
    if num_workers < 1:
        raise FormatError("num_workers must be >= 1")
    if p < num_workers:
        raise FormatError(f"need at least one partition per worker ({p} < {num_workers})")
    rng = np.random.default_rng(rng_seed)
    perm = rng.permutation(p)
    base, extra = divmod(p, num_workers)
    assignment = []
    pos = 0
    for w in range(num_workers):
        take = base + (1 if w < extra else 0)
        assignment.append(tuple(int(x) for x in perm[pos : pos + take]))
        pos += take
    return PlacementPlan(num_workers, tuple(assignment))


def select_replicated(efile: EdgeFile, budget: int) -> np.ndarray:
    """The ``budget`` highest-degree nodes (ties to the lower id), sorted by id.

    Degrees count both edge directions; self-loops are excluded.
    """
    num_nodes = efile.meta.num_nodes
    if not 0 <= budget <= num_nodes:
        raise FormatError(f"budget must be in [0, {num_nodes}], got {budget}")
    if budget == 0:
        return np.empty(0, dtype=np.int64)
    deg = _endpoint_pass(efile)
    # the budget-th highest degree: every node above it, then the lowest ids at it
    threshold = np.partition(deg, num_nodes - budget)[num_nodes - budget]
    above = np.flatnonzero(deg > threshold)
    ties = np.flatnonzero(deg == threshold)[: budget - above.size]
    return np.sort(np.concatenate([above, ties]))


class _EdgeBlocks:
    """``efile``'s edge blocks, re-iterable as ``build_adjacency`` needs them:
    each iteration is a fresh ``iter_edge_blocks`` pass."""

    def __init__(self, efile: EdgeFile):
        self.efile = efile

    def __iter__(self):
        return iter_edge_blocks(self.efile)


def estimate_comm(
    efile: EdgeFile,
    labels: np.ndarray,
    plan: PlacementPlan,
    fanouts=(30, 20, 10),
    num_seeds: int = 64,
    rng_seed: int = 0,
):
    """Simulates multi-hop neighbor sampling and tallies per-worker fetches.

    ``num_seeds`` distinct seed nodes are sampled; per hop, each frontier
    node contributes its whole neighbor multiset (both edge directions,
    self-loops excluded, held as an ascending list) when it has at most
    ``fanouts[h]`` entries, else ``fanouts[h]`` distinct positions of it,
    and the fetched nodes form the next frontier in that order.  A fetched
    node is local when its partition lives on the seed's worker or it is
    replicated, remote otherwise.  Returns a list of (local, remote) per
    worker.

    The walk is ``_kernels.comm_walk``.  It draws raw 64-bit words from
    ``np.random.default_rng(rng_seed).bit_generator``, so the counts do not
    depend on ``Generator.choice``.  A uniform integer in [0, n) is the high
    64 bits of ``word * n``, Lemire's multiply-shift, where a word whose low
    64 bits fall below ``2**64 mod n`` is rejected and the next one tried.
    ``f`` distinct positions of [0, d) come from Floyd's algorithm: for
    j = d - f, ..., d - 1 it draws t in [0, j], takes t, or j when t was
    already taken.  The seeds are every node when ``num_seeds`` is the node
    count, else ``num_seeds`` positions of [0, num_nodes) drawn so, and the
    picks from a frontier node's list are drawn so when it has more than
    ``fanouts[h]`` entries.
    """
    num_nodes = efile.meta.num_nodes
    labels, _ = _check_labels(num_nodes, labels, plan.num_partitions)
    if (labels == _UNASSIGNED_U32).any():
        raise FormatError("labels must map every node to a planned partition")
    if efile.meta.num_edges == 0:
        raise FormatError("cannot estimate traffic on an empty graph")
    if not 1 <= num_seeds <= num_nodes:
        raise FormatError(f"num_seeds must be in [1, {num_nodes}], got {num_seeds}")
    fanouts = [int(f) for f in fanouts]
    if not fanouts or not all(1 <= f < 2**63 for f in fanouts):  # before the int64 array
        raise FormatError(f"fanouts must be one or more counts in [1, 2**63), got {fanouts}")
    fanouts = np.array(fanouts, dtype=np.int64)
    for node in plan.replicated_nodes:
        if not 0 <= node < num_nodes:
            raise FormatError(f"replicated node {node} out of range")

    # desk-scale precondition: the whole edge list is indexed in memory
    nodes, node_offsets, snbrs = build_adjacency(
        _EdgeBlocks(efile), efile.meta.num_edges, num_nodes)
    # the index over every id: an isolated id's list is empty; written through a
    # view, so no ``nodes + 1`` copy joins the estimator's peak
    offsets = np.zeros(num_nodes + 1, dtype=np.int64)
    offsets[1:][nodes] = np.diff(node_offsets)
    np.cumsum(offsets, out=offsets)

    owner = plan.worker_of()
    node_worker = owner[labels]
    replicated = np.zeros(num_nodes, dtype=bool)
    if plan.replicated_nodes:
        replicated[list(plan.replicated_nodes)] = True

    # held while the walk runs: ``raw`` holds only addresses into its state
    bit_generator = np.random.default_rng(rng_seed).bit_generator
    raw, ptr = bit_generator.ctypes, _kernels.ptr
    counts = np.zeros((plan.num_workers, 2), dtype=np.int64)
    status = _kernels.comm_walk(
        num_nodes, ptr(offsets, np.int64, num_nodes + 1), ptr(snbrs, np.uint32, snbrs.size),
        ptr(node_worker, np.int64, num_nodes), ptr(replicated, np.bool_, num_nodes),
        num_seeds, ptr(fanouts, np.int64, fanouts.size), fanouts.size,
        ctypes.cast(raw.next_uint64, ctypes.c_void_p), raw.state_address,
        ptr(counts, np.int64, counts.size),
    )
    if status != 0:
        raise MemoryError("estimate_comm: no memory for the sampling frontier")
    return [(int(a), int(b)) for a, b in counts]


def plan_to_text(plan: PlacementPlan) -> str:
    lines = [f"{w}: {','.join(str(p) for p in parts)}" for w, parts in enumerate(plan.assignment)]
    if plan.replicated_nodes:
        lines.append("replicated: " + ",".join(str(n) for n in sorted(plan.replicated_nodes)))
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> PlacementPlan:
    """Reads ``plan_to_text``'s format; FormatError for an id other than ASCII
    digits (``edgefile._decimal``), a worker listed twice, a second
    ``replicated:`` line, or workers other than 0..num_workers-1."""
    assignment: dict[int, tuple[int, ...]] = {}
    replicated: frozenset[int] | None = None
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        head = head.strip()
        try:
            items = tuple(_decimal(tok.strip()) for tok in rest.split(",") if tok.strip())
            worker = None if head == "replicated" else _decimal(head)
        except ValueError:
            raise FormatError(f"plan line {lineno}: non-integer id in {line!r}") from None
        if worker is None:
            if replicated is not None:
                raise FormatError(f"plan line {lineno}: a second 'replicated' line")
            replicated = frozenset(items)
        elif worker in assignment:
            raise FormatError(f"plan line {lineno}: worker {worker} listed twice")
        else:
            assignment[worker] = items
    if sorted(assignment) != list(range(len(assignment))):
        raise FormatError("plan must list workers 0..num_workers-1")
    ordered = tuple(assignment[w] for w in range(len(assignment)))
    return PlacementPlan(len(assignment), ordered, replicated or frozenset())


def comm_csv(counts) -> str:
    lines = ["worker,local,remote"]
    for w, (local, remote) in enumerate(counts):
        lines.append(f"{w},{local},{remote}")
    return "\n".join(lines) + "\n"
