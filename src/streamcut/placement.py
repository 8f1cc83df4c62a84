"""Coordinator-side planning: random partition-to-worker assignment,
replication selection, and a static cross-worker fetch estimator."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .edgefile import EdgeFile, iter_edge_blocks, read_all_edges
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
    deg = np.zeros(num_nodes, dtype=np.int64)
    for block in iter_edge_blocks(efile):
        keep = block[:, 0] != block[:, 1]
        deg += np.bincount(block[keep, 0], minlength=num_nodes)
        deg += np.bincount(block[keep, 1], minlength=num_nodes)
    order = np.lexsort((np.arange(num_nodes), -deg))
    return np.sort(order[:budget])


def estimate_comm(
    efile: EdgeFile,
    labels: np.ndarray,
    plan: PlacementPlan,
    fanouts=(30, 20, 10),
    num_seeds: int = 64,
    rng_seed: int = 0,
):
    """Simulates multi-hop neighbor sampling and tallies per-worker fetches.

    Seed nodes are sampled uniformly without replacement; per hop, up to
    ``fanouts[h]`` neighbors of each frontier node are drawn without
    replacement from its neighbor multiset (both edge directions, self-loops
    excluded), held as an ascending list.  A fetched node is local when its
    partition lives on the seed's worker or it is replicated, remote
    otherwise.  Returns a list of (local, remote) per worker.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_nodes = efile.meta.num_nodes
    if labels.shape[0] != num_nodes:
        raise FormatError(f"labels cover {labels.shape[0]} nodes, file has {num_nodes}")
    if efile.meta.num_edges == 0:
        raise FormatError("cannot estimate traffic on an empty graph")
    if not 1 <= num_seeds <= num_nodes:
        raise FormatError(f"num_seeds must be in [1, {num_nodes}], got {num_seeds}")
    if labels.min() < 0 or labels.max() >= plan.num_partitions:
        raise FormatError("labels must map every node to a planned partition")
    for node in plan.replicated_nodes:
        if not 0 <= node < num_nodes:
            raise FormatError(f"replicated node {node} out of range")

    # desk-scale precondition: the whole edge list is indexed in memory
    nodes, node_starts, node_ends, snbrs = build_adjacency(read_all_edges(efile))
    starts = np.zeros(num_nodes, dtype=np.int64)
    ends = np.zeros(num_nodes, dtype=np.int64)
    starts[nodes] = node_starts
    ends[nodes] = node_ends

    owner = plan.worker_of()
    node_worker = owner[labels]
    replicated = np.zeros(num_nodes, dtype=bool)
    if plan.replicated_nodes:
        replicated[list(plan.replicated_nodes)] = True

    rng = np.random.default_rng(rng_seed)
    seeds = rng.choice(num_nodes, size=num_seeds, replace=False)
    counts = np.zeros((plan.num_workers, 2), dtype=np.int64)
    for s in seeds.tolist():
        w = int(node_worker[s])
        frontier = np.array([s], dtype=np.int64)
        for fanout in fanouts:
            if frontier.size == 0:
                break
            # one rng.choice per frontier node with more than ``fanout``
            # neighbors, in frontier order: the counts for an rng_seed depend
            # on exactly this call sequence
            picks = []
            for lo, hi in zip(starts[frontier].tolist(), ends[frontier].tolist()):
                if hi - lo > fanout:
                    picks.append(snbrs[lo + rng.choice(hi - lo, size=fanout, replace=False)])
                else:
                    picks.append(snbrs[lo:hi])
            frontier = np.concatenate(picks)
            local = int(np.count_nonzero(replicated[frontier] | (node_worker[frontier] == w)))
            counts[w, 0] += local
            counts[w, 1] += frontier.size - local
    return [(int(a), int(b)) for a, b in counts]


def plan_to_text(plan: PlacementPlan) -> str:
    lines = [f"{w}: {','.join(str(p) for p in parts)}" for w, parts in enumerate(plan.assignment)]
    if plan.replicated_nodes:
        lines.append("replicated: " + ",".join(str(n) for n in sorted(plan.replicated_nodes)))
    return "\n".join(lines) + "\n"


def plan_from_text(text: str) -> PlacementPlan:
    assignment: dict[int, tuple[int, ...]] = {}
    replicated: frozenset[int] = frozenset()
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(":")
        items = tuple(int(tok) for tok in rest.split(",") if tok.strip())
        if head.strip() == "replicated":
            replicated = frozenset(items)
        else:
            assignment[int(head)] = items
    if sorted(assignment) != list(range(len(assignment))):
        raise FormatError("plan must list workers 0..num_workers-1")
    ordered = tuple(assignment[w] for w in range(len(assignment)))
    return PlacementPlan(len(assignment), ordered, replicated)


def comm_csv(counts) -> str:
    lines = ["worker,local,remote"]
    for w, (local, remote) in enumerate(counts):
        lines.append(f"{w},{local},{remote}")
    return "\n".join(lines) + "\n"
