from contextlib import contextmanager
from itertools import combinations
from math import ceil

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcut import CapacityError, EdgeChunk, PartitionState, generate, grem, seed, seed_bisect
from streamcut.synth import CliqueUnionSpec, PathSpec

from helpers import PROPERTY_SETTINGS


@contextmanager
def refinement_passes(passes):
    """Seeds run ``passes`` refinement passes in place of ``seed.REFINEMENT_PASSES``."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(seed, "REFINEMENT_PASSES", passes)
        yield


def seed_with_passes(chunk, passes, capacity):
    with refinement_passes(passes):
        return seed_bisect(chunk, capacity)


def brute_min_balanced_cut(edges, nodes):
    """Minimum cut over all bipartitions with sizes differing by at most one."""
    nodes = sorted(nodes)
    n = len(nodes)
    best = None
    for side0 in combinations(nodes, ceil(n / 2)):
        labels = {v: 1 for v in nodes}
        for v in side0:
            labels[v] = 0
        cut = sum(1 for u, v in edges if u != v and labels[u] != labels[v])
        best = cut if best is None else min(best, cut)
    return best


def _chunk_cut(edges, labels_by_node):
    return sum(
        1
        for u, v in edges.tolist()
        if u != v and labels_by_node[u] != labels_by_node[v]
    )


def test_two_cliques_with_bridge():
    edges, _ = generate(CliqueUnionSpec(2, 4, bridges=1))
    chunk = EdgeChunk(0, edges)
    optimum = brute_min_balanced_cut(edges.tolist(), chunk.nodes.tolist())
    assert optimum == 1
    labels = seed_bisect(chunk, capacity=4)
    by_node = dict(zip(chunk.nodes.tolist(), labels.tolist()))
    assert _chunk_cut(edges, by_node) == optimum
    # each clique on its own side
    assert len({by_node[n] for n in range(4)}) == 1
    assert len({by_node[n] for n in range(4, 8)}) == 1


def test_path_graph_split():
    edges, _ = generate(PathSpec(4))
    chunk = EdgeChunk(0, edges)
    assert brute_min_balanced_cut(edges.tolist(), [0, 1, 2, 3]) == 1
    labels = seed_bisect(chunk, capacity=2)
    by_node = dict(zip(chunk.nodes.tolist(), labels.tolist()))
    assert _chunk_cut(edges, by_node) == 1
    assert by_node[0] == by_node[1] and by_node[2] == by_node[3]


def test_refinement_never_increases_chunk_cut():
    rng = np.random.default_rng(13)
    for _ in range(30):
        n = int(rng.integers(4, 25))
        m = int(rng.integers(3, 120))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.int64)
        chunk = EdgeChunk(0, edges)
        capacity = ceil(len(chunk.nodes) / 2) + 2  # a little refinement headroom
        cuts = []
        for passes in (0, 1, 2, 3):
            labels = seed_with_passes(chunk, passes, capacity)
            by_node = dict(zip(chunk.nodes.tolist(), labels.tolist()))
            cuts.append(_chunk_cut(edges, by_node))
            sizes = np.bincount(labels, minlength=2)
            assert int(sizes.max()) <= capacity
            if passes == 0:
                assert abs(int(sizes[0]) - int(sizes[1])) <= 1  # split starts balanced
        assert all(a >= b for a, b in zip(cuts, cuts[1:])), cuts


def test_determinism_on_contents_only():
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 15, size=(60, 2)).astype(np.int64)
    a = seed_bisect(EdgeChunk(0, edges), capacity=10)
    b = seed_bisect(EdgeChunk(5, edges.copy()), capacity=10)
    assert np.array_equal(a, b)


def test_capacity_infeasible():
    edges, _ = generate(CliqueUnionSpec(2, 4, bridges=1))
    with pytest.raises(CapacityError):
        seed_bisect(EdgeChunk(0, edges), capacity=3)


def test_both_sides_within_capacity():
    rng = np.random.default_rng(21)
    for _ in range(10):
        n = int(rng.integers(3, 20))
        edges = rng.integers(0, n, size=(40, 2)).astype(np.int64)
        chunk = EdgeChunk(0, edges)
        cap = ceil(len(chunk.nodes) / 2)
        labels = seed_bisect(chunk, cap)
        sizes = np.bincount(labels, minlength=2)
        assert sizes.max() <= cap


def _scan_restart_bfs_grow(edges, refinement_passes, capacity):
    """Seed labels by the BFS-grow rule, restarting with a full scan of all nodes.

    Each restart scans every node for the highest-degree unpicked one (lowest
    id on ties); neighbor lists come straight from the edge list, ascending,
    duplicates kept, self-loops dropped.  Returns {node: label}.
    """
    adj = {}
    for u, v in edges.tolist():
        adj.setdefault(u, [])
        adj.setdefault(v, [])
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    nodes = sorted(adj)
    nbrs = {u: sorted(adj[u]) for u in nodes}
    target = ceil(len(nodes) / 2)
    picked = set()
    queue = []
    while len(picked) < target:
        if not queue:
            best = None
            for u in nodes:
                if u not in picked and (best is None or len(nbrs[u]) > len(nbrs[best])):
                    best = u
            picked.add(best)
            queue.append(best)
            if len(picked) >= target:
                break
        v = queue.pop(0)
        for w in nbrs[v]:
            if w not in picked:
                picked.add(w)
                queue.append(w)
                if len(picked) >= target:
                    break
    labels = {u: 0 if u in picked else 1 for u in nodes}
    sizes = [target, len(nodes) - target]
    for _ in range(refinement_passes):
        moved = False
        for u in nodes:
            side = labels[u]
            same = sum(1 for w in nbrs[u] if labels[w] == side)
            other = len(nbrs[u]) - same
            if other > same and sizes[1 - side] < capacity:
                labels[u] = 1 - side
                sizes[side] -= 1
                sizes[1 - side] += 1
                moved = True
        if not moved:
            break
    return labels


def test_bfs_restarts_match_full_scan_rule_on_many_components():
    rng = np.random.default_rng(29)
    for trial in range(30):
        # many small components of 1 to 4 nodes over scattered ids, with
        # duplicates and self-loops; isolated self-loop nodes have degree 0
        n = int(rng.integers(20, 200))
        ids = rng.permutation(10 * n)[:n]
        edges = []
        pos = 0
        while pos < n:
            size = int(rng.integers(1, 5))
            comp = ids[pos : pos + size]
            pos += size
            edges.append([comp[0], comp[0]])
            for _ in range(int(rng.integers(0, 2 * len(comp) + 1))):
                edges.append(rng.choice(comp, size=2).tolist())
        edges = np.asarray(edges, dtype=np.int64)
        chunk = EdgeChunk(0, edges)
        capacity = ceil(len(chunk.nodes) / 2) + int(rng.integers(0, 3))
        for passes in (0, 2):
            labels = seed_with_passes(chunk, passes, capacity)
            expected = _scan_restart_bfs_grow(edges, passes, capacity)
            assert dict(zip(chunk.nodes.tolist(), labels.tolist())) == expected, trial


@PROPERTY_SETTINGS
@given(
    edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=120),
    headroom=st.integers(0, 3),
    passes=st.integers(0, 3),
)
def test_bfs_grow_matches_full_scan_rule_property(edges, headroom, passes):
    edges = np.asarray(edges, dtype=np.int64)
    chunk = EdgeChunk(0, edges)
    capacity = ceil(len(chunk.nodes) / 2) + headroom
    labels = seed_with_passes(chunk, passes, capacity)
    expected = _scan_restart_bfs_grow(edges, passes, capacity)
    assert dict(zip(chunk.nodes.tolist(), labels.tolist())) == expected


def _seeded_state(edges, num_nodes, headroom, passes):
    """The state ``grem._seed_chunk`` leaves after seeding a fresh bisection on ``edges``."""
    chunk = EdgeChunk(0, edges)
    state = PartitionState(num_nodes, ceil(len(chunk.nodes) / 2) + headroom)
    with refinement_passes(passes):
        grem._seed_chunk(state, chunk)
    return state


@PROPERTY_SETTINGS
@given(
    edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=120),
    loops=st.lists(st.integers(31, 39), max_size=5),  # nodes with self-loops only: degree 0
    repeats=st.integers(0, 30),
    headroom=st.integers(0, 3),
    passes=st.integers(0, 3),
)
def test_seed_native_equals_python(edges, loops, repeats, headroom, passes):
    # small id ranges make degree ties common, so the restart order's tie
    # rule decides the labels; repeated edges raise some degrees above the
    # node count.  The seeded labels are those of the full-scan BFS-grow
    # oracle, and each seeded node's lean is a brute count against them
    edges = np.asarray(edges + [(v, v) for v in loops] + edges[:repeats], dtype=np.int64)
    chunk_nodes = set(edges.ravel().tolist())
    capacity = ceil(len(chunk_nodes) / 2) + headroom
    state = _seeded_state(edges, 40, headroom, passes)
    parts, lean = state.parts.tolist(), state.lean.tolist()
    expected = _scan_restart_bfs_grow(edges, passes, capacity)
    assert {node: parts[node] for node in chunk_nodes} == expected
    assert parts.count(-1) == 40 - len(chunk_nodes)
    assert state.sizes == [parts.count(0), parts.count(1)]
    for node in range(40):  # a node outside the chunk has no neighbour: lean 0
        others = [v for u, v in edges.tolist() if u == node and v != node]
        others += [u for u, v in edges.tolist() if v == node and u != node]
        c0, c1 = sum(parts[w] == 0 for w in others), sum(parts[w] == 1 for w in others)
        assert lean[node] == c1 - c0


def test_sparse_ids_seed_as_their_dense_ranks():
    # ids spread far beyond the chunk's size rank over a width of up to 2**24
    # ids; an order-preserving relabelling must not change a label
    rng = np.random.default_rng(31)
    for _ in range(10):
        edges = rng.integers(0, 50, size=(120, 2)).astype(np.int64)
        ids = np.sort(rng.choice(2**24, size=50, replace=False)).astype(np.int64)
        dense = EdgeChunk(0, edges)
        sparse = EdgeChunk(0, ids[edges])
        cap = ceil(len(dense.nodes) / 2) + 1
        assert np.array_equal(seed_bisect(dense, cap),
                              seed_bisect(sparse, cap))
