"""Shared helpers for the test suite."""

import numpy as np
from hypothesis import HealthCheck, settings

from streamcut import BinaryEdgeWriter, open_edge_file

# property tests: reproducible examples, no example database on disk; a
# function-scoped fixture, such as tmp_path, serves every example of a test
PROPERTY_SETTINGS = settings(
    max_examples=300, deadline=None, derandomize=True, database=None,
    suppress_health_check=[HealthCheck.function_scoped_fixture],
)


def make_edge_file(path, edges, num_nodes, node_id_width=None):
    """Writes edges to a binary edge file (32-bit ids unless asked for 64) and opens it."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    with BinaryEdgeWriter(str(path), num_nodes, node_id_width) as writer:
        writer.write(edges)
    return open_edge_file(str(path))


def reference_shuffle(edges, budget, rng_seed):
    """The documented shuffle: one uniform bucket draw per edge in file order
    (in blocks of the streaming size), stable grouping by bucket, then one
    ``rng.permutation`` per bucket; a single permutation when all edges fit."""
    rng = np.random.default_rng(rng_seed)
    if len(edges) * 16 <= budget:
        return edges[rng.permutation(len(edges))]
    nbuckets = -(-len(edges) * 16 // (budget // 2))
    block = max(1024, budget // 4 // 16)
    ids = np.concatenate([
        rng.integers(0, nbuckets, size=len(edges[lo : lo + block]))
        for lo in range(0, len(edges), block)
    ])
    out = []
    for b in range(nbuckets):
        bucket = edges[ids == b]
        assert len(bucket) * 16 <= budget  # no bucket is re-scattered
        out.append(bucket[rng.permutation(len(bucket))])
    return np.concatenate(out)


def dir_bytes(path):
    """The contents of every file in a directory, by name."""
    return {f.name: f.read_bytes() for f in sorted(path.iterdir())}


def random_multigraph(rng, max_nodes=40, max_edges=400, self_loops=True):
    """A random directed multigraph; may contain duplicates and self-loops."""
    num_nodes = int(rng.integers(2, max_nodes + 1))
    num_edges = int(rng.integers(1, max_edges + 1))
    edges = rng.integers(0, num_nodes, size=(num_edges, 2))
    if not self_loops:
        loops = edges[:, 0] == edges[:, 1]
        edges[loops, 1] = (edges[loops, 1] + 1) % num_nodes
    return edges.astype(np.int64), num_nodes


def recount_sizes(parts):
    """Partition sizes [|0|, |1|] recounted from scratch out of a parts list or array."""
    parts = np.asarray(parts).tolist()
    return [parts.count(0), parts.count(1)]


def brute_force_cut(edges, labels):
    """Naive recount of edges whose endpoints carry different labels."""
    return sum(1 for u, v in np.asarray(edges).tolist() if labels[u] != labels[v])


def majority_align(edges, labels, num_nodes):
    """Flips nodes to their majority side until no strict improvement remains.

    The result is a labeling where every node sits with the majority of its
    neighbors, which makes the full-information expected-cut identity exact.
    """
    labels = np.asarray(labels).copy()
    changed = True
    while changed:
        changed = False
        side = np.zeros((num_nodes, 2), dtype=np.int64)
        for u, v in np.asarray(edges).tolist():
            if u == v:
                continue
            side[u, labels[v]] += 1
            side[v, labels[u]] += 1
        for n in range(num_nodes):
            if side[n, 1 - labels[n]] > side[n, labels[n]]:
                labels[n] = 1 - labels[n]
                changed = True
    return labels


def is_connected(edges, num_nodes):
    """Union-find connectivity over the undirected view of the edges."""
    parent = list(range(num_nodes))

    def find(a):
        while parent[a] != a:
            parent[a] = parent[parent[a]]
            a = parent[a]
        return a

    for u, v in np.asarray(edges).tolist():
        ra, rb = find(u), find(v)
        if ra != rb:
            parent[ra] = rb
    return len({find(n) for n in range(num_nodes)}) == 1
