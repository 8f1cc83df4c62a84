import os
import tracemalloc
from math import ceil

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamcut import (
    CapacityError,
    ChunkPlan,
    EdgeChunk,
    FormatError,
    GremConfig,
    PartitionState,
    bisect,
    count_cuts,
    external_shuffle,
    partition,
    read_labels,
    seed_bisect,
    write_labels,
)
from streamcut import grem, model
from streamcut.grem import assign, default_capacity, process_chunk
from streamcut.synth import CliqueUnionSpec, PathSpec, generate

from helpers import (
    PROPERTY_SETTINGS,
    brute_force_cut,
    make_edge_file,
    random_multigraph,
    recount_sizes,
)
from reference_interp import count_node_neighbors, run_fixed_greedy, run_reference


def library_seed_fn(num_nodes, capacity):
    """Adapter so the reference interpreter uses the library's seed labels."""

    def seed(c_edges):
        chunk = EdgeChunk(0, np.asarray(c_edges, dtype=np.int64))
        labels = seed_bisect(chunk, capacity)
        return dict(zip(chunk.nodes.tolist(), (int(x) for x in labels)))

    return seed


# -------------------------------------------------- sweep neighbor counting


def _sweep_counts(node, edges, parts, refine=False):
    """The lean the sweep stores for ``node``: its chunk-local side-1
    neighbours less its side-0 ones.

    Every other chunk node below ``node`` must be assigned, so with
    refinement off the sweep skips them and counts ``node`` against ``parts``
    exactly as given.  With refinement on, ``node`` must be the lowest chunk
    node and its stored lean starts at 0, so the stored value is half the
    chunk-local difference.
    """
    state = PartitionState(len(parts), capacity=len(parts))
    state.parts[:] = parts
    state.sizes = recount_sizes(parts)
    config = GremConfig(chunk_frac=1.0, refine=refine)
    process_chunk(state, EdgeChunk(1, np.asarray(edges)), config)
    return float(state.lean[node])


def test_process_chunk_neighbor_count_examples():
    edges = [[0, 1], [0, 2], [2, 3]]
    assert _sweep_counts(0, edges, [-1, 0, 1, 0]) == 0.0  # (c0, c1) = (1, 1)
    # unassigned neighbors count for neither side
    assert _sweep_counts(0, edges, [-1, 0, -1, 0]) == -1.0  # (1, 0)
    assert _sweep_counts(0, edges, [-1, -1, 1, 0]) == 1.0  # (0, 1)
    assert _sweep_counts(0, [[0, 1]], [-1, -1]) == 0.0  # (0, 0)


def test_process_chunk_absent_node_untouched():
    state = PartitionState(10, capacity=10)
    state.lean[9] = -2.0
    chunk = EdgeChunk(1, np.array([[0, 1]]))
    assert 9 not in chunk.nodes.tolist()
    process_chunk(state, chunk, GremConfig(chunk_frac=1.0))
    assert state.parts[9] == -1
    assert state.lean[9] == -2.0


def test_process_chunk_duplicates_and_self_loops():
    # duplicates count with multiplicity
    assert _sweep_counts(0, [[0, 1], [0, 1], [1, 0]], [-1, 1]) == 3.0  # (0, 3)
    # self-loops never count, even when the node is assigned while counting
    loops = [[0, 0], [0, 0], [0, 1]]
    assert _sweep_counts(0, loops, [0, 1], refine=True) == 0.5  # (0, 0.5)
    assert _sweep_counts(0, [[0, 0], [0, 1]], [0, 0], refine=True) == -0.5


def test_process_chunk_counts_match_double_loop_oracle():
    rng = np.random.default_rng(17)
    for _ in range(25):
        edges, num_nodes = random_multigraph(rng, max_nodes=20, max_edges=50)
        chunk_nodes = EdgeChunk(1, edges).nodes.tolist()
        for node in chunk_nodes:
            parts = rng.integers(-1, 2, size=num_nodes).tolist()
            for other in chunk_nodes:
                if other < node and parts[other] == -1:
                    parts[other] = int(rng.integers(0, 2))
            parts[node] = -1
            c0, c1 = count_node_neighbors(node, edges.tolist(), parts)
            assert _sweep_counts(node, edges, parts) == c1 - c0
        # refinement path: the lowest chunk node, assigned, counted against live labels
        parts = rng.integers(-1, 2, size=num_nodes).tolist()
        node = chunk_nodes[0]
        parts[node] = int(rng.integers(0, 2))
        c0, c1 = count_node_neighbors(node, edges.tolist(), parts)
        assert 2 * _sweep_counts(node, edges, parts, refine=True) == c1 - c0


def test_process_chunk_rejects_ids_outside_state():
    state = PartitionState(3, capacity=3)
    with pytest.raises(FormatError):
        process_chunk(state, EdgeChunk(1, np.array([[0, 3]])), GremConfig(chunk_frac=1.0))
    assert state.parts.tolist() == [-1, -1, -1]


def test_process_chunk_leaves_the_state_as_it_was_on_an_empty_chunk():
    # an empty chunk holds an empty key array and an empty CSR index
    chunk = EdgeChunk(1, np.empty((0, 2), dtype=np.int64))
    assert chunk.keys.size == 0 and chunk.nodes.size == 0
    for refine in (True, False):
        state = PartitionState(4, capacity=2)
        state.parts[:] = [0, 1, -1, 1]
        state.sizes = [1, 2]
        state.lean[:] = [-1.0, 2.5, 0.0, 0.5]
        state.visited, state.moved = 3, 1
        assert process_chunk(state, chunk, GremConfig(chunk_frac=1.0, refine=refine)) is state
        assert state.parts.tolist() == [0, 1, -1, 1]
        assert state.sizes == [1, 2]
        assert state.lean.tolist() == [-1.0, 2.5, 0.0, 0.5]
        assert (state.visited, state.moved) == (3, 1)


def _sweep_and_oracle(edges, start, leans, capacity, refine, sizes=None):
    """The (state, error) the sweep and its ``_csr_sweep`` oracle each leave
    from one start, error None when none was raised; the oracle's state
    carries its leans, ``nbr1 - nbr0``."""
    chunk_edges = np.array(edges, dtype=np.int64)
    index = model.build_adjacency((chunk_edges,), len(chunk_edges), len(start))
    nbr0, nbr1 = np.zeros(len(start)), np.array(leans, dtype=np.float64)
    config = GremConfig(chunk_frac=1.0, refine=refine)

    def run(sweep):
        state = PartitionState(len(start), capacity)
        state.parts[:] = start
        state.sizes = list(sizes) if sizes is not None else recount_sizes(start)
        state.lean[:] = leans
        try:
            sweep(state)
        except CapacityError as exc:
            return state, exc
        return state, None

    got = run(lambda state: process_chunk(state, EdgeChunk(1, chunk_edges), config))
    want = run(lambda state: _csr_sweep(state, nbr0, nbr1, index, refine))
    want[0].lean[:] = nbr1 - nbr0
    return got, want


def _assert_same_sweep(got, want):
    (a, a_error), (b, b_error) = got, want
    assert type(a_error) is type(b_error)
    assert a.parts.tolist() == b.parts.tolist()
    assert a.sizes == b.sizes
    assert a.lean.tolist() == b.lean.tolist()
    assert (a.visited, a.moved) == (b.visited, b.moved)


_IDLE = [-1] * 21  # nodes 4..24, outside every example's chunk
_EST = [0.0] * 25
_LEANS = [-7.0, -2.75, -1.0, -0.5, -0.0, 0.0, 0.5, 1.0, 2.75, 7.0]


@PROPERTY_SETTINGS
@given(
    edges=st.lists(st.tuples(st.integers(0, 24), st.integers(0, 24)), min_size=1, max_size=120),
    start=st.lists(st.sampled_from([-1, -1, 0, 1]), min_size=25, max_size=25),
    estimates=st.lists(st.sampled_from(_LEANS), min_size=25, max_size=25),
    slack=st.sampled_from([0.0, 0.1, 0.5]),
    refine=st.booleans(),
)
# a fresh node with one neighbour on each side (c0 == c1): side 0 on equal
# sizes, the smaller side otherwise
@example(edges=[(3, 1), (3, 2)], start=[-1, 0, 1, -1] + _IDLE, estimates=_EST, slack=0.0,
         refine=True)
@example(edges=[(3, 1), (3, 2)], start=[0, 0, 1, -1] + _IDLE, estimates=_EST, slack=0.0,
         refine=False)
# the majority side is full (13 of capacity 13): the node takes the smaller side
@example(edges=[(0, 1), (0, 2), (0, 24)], start=[-1] + [1] * 13 + [0] * 2 + [-1] * 9,
         estimates=_EST, slack=0.0, refine=False)
# a re-placed node whose old side is full: lifted out of it, the node stays
# (its old side has room again) or moves to the majority side
@example(edges=[(0, 13), (0, 14), (0, 1)], start=[0] * 13 + [1] * 2 + [-1] * 10,
         estimates=_EST, slack=0.0, refine=True)
@example(edges=[(0, 13), (0, 14), (0, 1)], start=[0] * 13 + [1] * 2 + [-1] * 10,
         estimates=[-7.0] + [0.0] * 24, slack=0.0, refine=True)
@example(edges=[(0, 13), (0, 14), (0, 1)], start=[0] * 13 + [1] * 2 + [-1] * 10,
         estimates=[2.75] + [0.0] * 24, slack=0.0, refine=True)
def test_process_chunk_native_equals_python_property(edges, start, estimates, slack, refine):
    # from any start (some nodes placed, stored leans of any value) the sweep
    # leaves the labels, leans, sizes and counts of the plain-Python CSR loop
    got, want = _sweep_and_oracle(edges, start, estimates, default_capacity(25, slack), refine)
    _assert_same_sweep(got, want)
    assert got[1] is None
    assert got[0].sizes == recount_sizes(got[0].parts)


@pytest.mark.parametrize("refine", [True, False])
def test_process_chunk_capacity_error_native_equals_python(refine):
    # sizes claimed above the labels' own counts: the sweep reaches a node no
    # side can take and stops there, as the plain-Python CSR loop does, leaving
    # the same labels, leans and sizes (the failing node lifted out of its old
    # side)
    leans = [0.5, -2.25, 0.0, 1.75, -7.0, 0.0]
    for start, sizes in (
        ([0, 1, -1, -1, 0, -1], (2, 2)),  # node 0 re-placed, then node 2 fails
        ([0, 1, -1, -1, 0, -1], (3, 2)),  # node 0 fails when refining
        ([1, 0, 1, -1, -1, 0], (2, 3)),  # side 1 claimed over capacity
        ([-1, -1, -1, -1, -1, -1], (2, 2)),  # the first fresh node fails
    ):
        got, want = _sweep_and_oracle([(0, 2), (0, 1), (2, 3), (1, 4), (5, 0)], start, leans, 2,
                                      refine, sizes)
        _assert_same_sweep(got, want)
        assert isinstance(got[1], CapacityError), (start, sizes)


def _csr_sweep(state, nbr0, nbr1, index, refine):
    """The chunk sweep as a plain loop over a ``build_adjacency`` CSR index,
    counting visited and moved nodes: the reference for ``process_chunk``.
    It keeps two estimates per node, side-0 and side-1 neighbours, in
    ``nbr0`` and ``nbr1``, and decides by their order; the sweep's lean must
    equal ``nbr1 - nbr0``.  ``state.lean`` is left as it was."""
    nodes, offsets, nbrs = (a.tolist() for a in index)
    visited = moved = 0
    for i, n in enumerate(nodes):
        old = int(state.parts[n])
        visited += 1
        if old != -1 and not refine:
            continue
        c0 = float(sum(state.parts[w] == 0 for w in nbrs[offsets[i] : offsets[i + 1]]))
        c1 = float(sum(state.parts[w] == 1 for w in nbrs[offsets[i] : offsets[i + 1]]))
        if old != -1:
            c0, c1 = (nbr0[n] + c0) * 0.5, (nbr1[n] + c1) * 0.5
            state.sizes[old] -= 1
        b = assign(int(c0 < c1) - int(c1 < c0), state.sizes, state.capacity)
        moved += old != -1 and b != old
        state.sizes[b] += 1
        state.parts[n], nbr0[n], nbr1[n] = b, c0, c1
    state.visited += visited
    state.moved += moved


# top ids of a chunk per key layout: u32 keys up to width 65,536, u64 keys
# above it (widths 65,537 and 200,000)
_LAYOUTS = {"u32": [40, 65_535], "u64": [65_536, 199_999]}


@PROPERTY_SETTINGS
@given(
    layout=st.sampled_from(sorted(_LAYOUTS)),
    top_at=st.integers(0, 1),
    edges=st.lists(st.tuples(st.integers(0, 9), st.integers(0, 9)), min_size=1, max_size=40),
    loop_only=st.lists(st.integers(10, 11), max_size=2),
    anchor=st.integers(0, 12),
    spread=st.lists(st.floats(0, 1, exclude_max=True), min_size=12, max_size=12),
    start=st.lists(st.sampled_from([-1, -1, 0, 1]), min_size=13, max_size=13),
    estimates=st.lists(st.sampled_from([0.0, 0.5, 1.0, 2.75, 7.0]), min_size=26, max_size=26),
    headroom=st.sampled_from([0, 1, 2, 13]),
    refine=st.booleans(),
    traced=st.booleans(),
)
# a node seen only in self-loops, placed: visited, its self-loops counted for neither side
@example(layout="u64", top_at=1, edges=[(0, 1), (0, 1), (1, 0)], loop_only=[10], anchor=0,
         spread=[i / 12 for i in range(12)], start=[0, 1] + [-1] * 8 + [1, -1, 0],
         estimates=[0.0] * 26, headroom=2, refine=True, traced=False)
def test_key_sweep_equals_the_csr_loop_property(layout, top_at, edges, loop_only, anchor, spread,
                                                 start, estimates, headroom, refine, traced):
    # a multigraph with duplicates, self-loops and self-loop-only nodes over
    # 13 local ids spread over a width that selects each key layout, local
    # id 12 at the top: the sweep, run twice, leaves the labels, sizes,
    # estimates and counts the CSR loop leaves, also after the chunk's CSR
    # was built first, as the benchmark's tracer builds it
    top = _LAYOUTS[layout][top_at]
    ids = sorted({int(f * top) for f in spread} | {top})
    ids += [top] * (13 - len(ids))  # ids drawn twice leave local ids that share one
    local = np.array(edges + [(n, n) for n in loop_only] + [edges[0], (anchor, 12)])
    chunk_edges = np.array(ids, dtype=np.int64)[local]
    num_nodes = top + 2
    index = model.build_adjacency((chunk_edges,), len(chunk_edges), top + 1)

    nbr0, nbr1 = np.zeros(num_nodes), np.zeros(num_nodes)
    nbr0[ids], nbr1[ids] = estimates[:13], estimates[13:]

    def sweep_twice(sweep):
        state, error = PartitionState(num_nodes, 0), None
        state.parts[ids] = start
        state.lean[:] = nbr1 - nbr0
        state.sizes = recount_sizes(state.parts)
        state.capacity = max(state.sizes) + headroom
        try:
            for _ in range(2):
                sweep(state)
        except CapacityError as exc:
            error = exc
        return state, error

    want_nbr0, want_nbr1 = nbr0.copy(), nbr1.copy()
    want = sweep_twice(lambda state: _csr_sweep(state, want_nbr0, want_nbr1, index, refine))
    want[0].lean[:] = want_nbr1 - want_nbr0
    config = GremConfig(chunk_frac=1.0, refine=refine)
    chunk = EdgeChunk(1, chunk_edges)
    assert chunk.keys.dtype == {"u32": np.uint32, "u64": np.uint64}[layout]
    if traced:
        assert chunk.nodes.tolist() == index[0].tolist()
    _assert_same_sweep(sweep_twice(lambda state: process_chunk(state, chunk, config)), want)


@pytest.mark.parametrize("passes", [1, 2])
def test_sweep_counts_equal_a_diff_of_labels(tmp_path, passes):
    # after each chunk, the visited count grows by the chunk's nodes and the
    # moved count by the placed nodes whose label changed; the seeded chunk
    # counts for neither
    edges, num_nodes = random_multigraph(np.random.default_rng(8), max_nodes=60, max_edges=500)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    for refine in (True, False):
        config = GremConfig(chunk_edges=40, refine=refine, passes=passes)
        chunk_nodes = [EdgeChunk(0, block).nodes for block in
                       grem.iter_edge_blocks(efile, 40)] * passes
        seen = []
        grem.bisect(efile, config, on_chunk=lambda state: seen.append(
            (state.parts.copy(), state.visited, state.moved)))
        assert len(seen) == len(chunk_nodes)
        assert seen[0][1:] == (0, 0), refine  # the seeded chunk
        for (before, visited, moved), (after, now_visited, now_moved), nodes in zip(
                seen, seen[1:], chunk_nodes[1:]):
            changed = (before[nodes] != -1) & (after[nodes] != before[nodes])
            assert now_visited - visited == nodes.size, refine
            assert now_moved - moved == int(changed.sum()), refine
            assert (after != before).sum() == (before[nodes] != after[nodes]).sum()
        assert seen[-1][2] > 0 or not refine


# ------------------------------------------------------------------ assign


def test_assign_examples():
    assert assign(-1.5, [3, 3], 4) == 0
    assert assign(0.0, [4, 3], 4) == 1  # no lean: the smaller side
    assert assign(5.0, [2, 4], 4) == 0  # side 1 full: the smaller side
    assert assign(-5.0, [4, 2], 4) == 1
    assert assign(0.0, [2, 2], 4) == 0  # tie goes to partition 0
    assert assign(-0.0, [2, 2], 4) == 0
    assert assign(0.25, [3, 2], 4) == 1


def test_assign_both_full_is_an_error():
    with pytest.raises(CapacityError):
        assign(1.0, [4, 4], 4)


# ----------------------------------------------------------- process_chunk


def test_process_chunk_averages_and_keeps_majority():
    # node 0 previously in partition 0 with stored counts (4, 0), lean -4;
    # the chunk shows two neighbors in partition 1 (lean 2) -> averaged
    # (2, 1), lean -1, keeps it in 0.
    state = PartitionState(5, capacity=3)
    state.parts[:] = [0, 1, 1, 0, -1]
    state.sizes = [2, 2]
    state.lean[0] = -4.0
    chunk = EdgeChunk(1, np.array([[0, 1], [0, 2]]))
    process_chunk(state, chunk, GremConfig(chunk_frac=1.0, refine=True))
    assert state.parts[0] == 0
    assert state.lean[0] == -1.0
    assert state.sizes == recount_sizes(state.parts)


def test_process_chunk_fixed_mode_skips_assigned():
    state = PartitionState(5, capacity=3)
    state.parts[:] = [0, 1, 1, 0, -1]
    state.sizes = [2, 2]
    state.lean[0] = -4.0
    chunk = EdgeChunk(1, np.array([[0, 1], [0, 2]]))
    process_chunk(state, chunk, GremConfig(chunk_frac=1.0, refine=False))
    assert state.parts.tolist() == [0, 1, 1, 0, -1]
    assert state.lean[0] == -4.0
    assert state.sizes == [2, 2]


def test_process_chunk_assigns_fresh_nodes_in_both_modes():
    for refine in (True, False):
        state = PartitionState(4, capacity=2)
        state.parts[:] = [0, 1, -1, -1]
        state.sizes = [1, 1]
        chunk = EdgeChunk(1, np.array([[2, 1], [2, 1], [3, 0]]))
        process_chunk(state, chunk, GremConfig(chunk_frac=1.0, refine=refine))
        assert state.parts.tolist() == [0, 1, 1, 0], refine
        assert state.lean[2] == 2.0, refine  # (c0, c1) = (0, 2)
        assert state.sizes == recount_sizes(state.parts) == [2, 2], refine


def test_process_chunk_capacity_error():
    # both sides full and a fresh node to place: the size accounting is broken
    state = PartitionState(4, capacity=1)
    state.parts[:] = [0, 1, -1, -1]
    state.sizes = [1, 1]
    with pytest.raises(CapacityError):
        process_chunk(state, EdgeChunk(1, np.array([[2, 0], [3, 1]])), GremConfig(chunk_frac=1.0))
    # the failing node is left unassigned and the sizes untouched
    assert state.parts.tolist() == [0, 1, -1, -1]
    assert state.sizes == [1, 1]


def test_three_chunk_hand_trace_matches_interpreter(tmp_path):
    edges = np.array(
        [[0, 1], [1, 2], [0, 2], [3, 4], [4, 5], [3, 5], [2, 3], [0, 4], [1, 5]],
        dtype=np.int64,
    )
    num_nodes = 6
    cap = default_capacity(num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    for refine in (True, False):
        config = GremConfig(chunk_edges=3, refine=refine)
        labels, _ = bisect(efile, config)
        expected = run_reference(
            edges.tolist(), num_nodes, 3, cap, library_seed_fn(num_nodes, cap), refine=refine
        )
        assert labels.tolist() == expected, refine


# ------------------------------------------------------------------ bisect


def test_bisect_two_cliques_full_chunk(tmp_path):
    edges, _ = generate(CliqueUnionSpec(2, 16, bridges=1))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 32)
    shuffled = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 22, rng_seed=5)
    labels, report = bisect(shuffled, GremConfig(chunk_frac=1.0))
    assert report.cut_edges == 1
    assert sorted(report.partition_sizes) == [16, 16]
    assert report.balance_ratio == 1.0


def test_bisect_sizes_invariants(tmp_path):
    rng = np.random.default_rng(23)
    for _ in range(10):
        edges, num_nodes = random_multigraph(rng, max_nodes=30, max_edges=200)
        efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
        config = GremConfig(chunk_frac=0.25)
        cap = default_capacity(num_nodes)

        def checkpoint(state):
            assert state.sizes == recount_sizes(state.parts)
            assert state.sizes[0] <= cap and state.sizes[1] <= cap

        labels, report = bisect(efile, config, on_chunk=checkpoint)
        sizes = np.bincount(labels, minlength=2)
        assert sizes[0] <= cap and sizes[1] <= cap
        assert int(sizes.sum()) == num_nodes
        assert report.cut_edges == brute_force_cut(edges, labels)


def test_bisect_matches_reference_on_random_graphs(tmp_path):
    rng = np.random.default_rng(101)
    for trial in range(12):
        edges, num_nodes = random_multigraph(rng, max_nodes=25, max_edges=150)
        efile = make_edge_file(tmp_path / f"g{trial}.grpe", edges, num_nodes)
        chunk_edges = int(rng.integers(1, len(edges) + 1))
        passes = int(rng.integers(1, 3))
        refine = bool(rng.integers(0, 2))
        config = GremConfig(chunk_edges=chunk_edges, refine=refine, passes=passes)
        cap = default_capacity(num_nodes)
        labels, _ = bisect(efile, config)
        expected = run_reference(
            edges.tolist(),
            num_nodes,
            chunk_edges,
            cap,
            library_seed_fn(num_nodes, cap),
            refine=refine,
            passes=passes,
        )
        assert labels.tolist() == expected, (trial, chunk_edges, refine, passes)


@st.composite
def _streaming_runs(draw):
    """A random multigraph (duplicates and self-loops allowed) and bisection settings."""
    num_nodes = draw(st.integers(2, 40))
    edges = draw(st.lists(st.tuples(st.integers(0, num_nodes - 1), st.integers(0, num_nodes - 1)),
                          min_size=1, max_size=200))
    chunk_edges = draw(st.integers(1, len(edges)))
    slack = draw(st.sampled_from([0.0, 0.05, 0.25, 1.0]))
    return edges, num_nodes, chunk_edges, slack, draw(st.integers(1, 3)), draw(st.booleans())


@PROPERTY_SETTINGS
@given(run=_streaming_runs())
def test_bisect_matches_reference_property(tmp_path, run):
    edges, num_nodes, chunk_edges, slack, passes, refine = run
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    config = GremConfig(chunk_edges=chunk_edges, capacity_slack=slack, refine=refine, passes=passes)
    cap = default_capacity(num_nodes, slack)
    labels, _ = bisect(efile, config)
    expected = run_reference(edges, num_nodes, chunk_edges, cap, library_seed_fn(num_nodes, cap),
                             refine=refine, passes=passes)
    assert labels.tolist() == expected


def test_bisect_full_chunk_refine_equals_fixed(tmp_path):
    rng = np.random.default_rng(7)
    edges, num_nodes = random_multigraph(rng, max_nodes=30, max_edges=200)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    on_labels, _ = bisect(efile, GremConfig(chunk_frac=1.0, refine=True))
    off_labels, _ = bisect(efile, GremConfig(chunk_frac=1.0, refine=False))
    assert np.array_equal(on_labels, off_labels)


def test_bisect_deterministic(tmp_path):
    rng = np.random.default_rng(8)
    edges, num_nodes = random_multigraph(rng)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    config = GremConfig(chunk_frac=0.2)
    a, _ = bisect(efile, config)
    b, _ = bisect(efile, config)
    assert np.array_equal(a, b)


def test_bisect_isolated_nodes_fill(tmp_path):
    # nodes 4..9 never appear in any edge
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [2, 3]], 10)
    labels, report = bisect(efile, GremConfig(chunk_frac=1.0))
    sizes = np.bincount(labels, minlength=2)
    assert sizes.tolist() == [5, 5]
    assert sum(report.partition_sizes) == 10


def _fill_node_by_node(parts, sizes, capacity):
    """The fill as ``assign`` with no lean makes it, one unassigned node at a time."""
    for n in np.flatnonzero(parts == -1).tolist():
        side = assign(0.0, sizes, capacity)
        parts[n] = side
        sizes[side] += 1


def test_fill_unassigned_places_nodes_as_assign_does(monkeypatch):
    rng = np.random.default_rng(23)
    # states as the streaming leaves them: each side within capacity, and room for every node
    for block in (grem._FILL_BLOCK, 7):  # one step, and steps that split the nodes
        monkeypatch.setattr(grem, "_FILL_BLOCK", block)
        for trial in range(400):
            num_nodes = int(rng.integers(1, 120))
            capacity = int(rng.integers(-(-num_nodes // 2), num_nodes + 1))
            s0 = int(rng.integers(0, min(capacity, num_nodes) + 1))
            s1 = int(rng.integers(0, min(capacity, num_nodes - s0) + 1))
            state = PartitionState(num_nodes, capacity)
            order = rng.permutation(num_nodes)
            state.parts[order[:s0]] = 0
            state.parts[order[s0:s0 + s1]] = 1
            state.sizes = [s0, s1]
            want_parts, want_sizes = state.parts.copy(), [s0, s1]
            _fill_node_by_node(want_parts, want_sizes, capacity)
            grem._fill_unassigned(state)
            assert state.parts.tolist() == want_parts.tolist(), (block, trial)
            assert state.sizes == want_sizes == recount_sizes(state.parts), (block, trial)


def test_bisect_empty_edge_file(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", np.empty((0, 2)), 5)
    labels, report = bisect(efile, GremConfig(chunk_frac=0.5))
    assert sorted(np.bincount(labels, minlength=2).tolist()) == [2, 3]
    assert report.cut_edges == 0


def test_capacities_above_the_node_count_act_as_the_node_count(tmp_path):
    # a capacity past int64 reaches the kernels clamped, never wrapped (2**64 + 3
    # would be 3, 2**70 would be 0)
    edges, _ = generate(PathSpec(4))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 4)
    config = GremConfig(chunk_frac=0.5)
    want, _ = bisect(efile, config, capacity=4)
    for capacity in (2**63, 2**64 + 3, 2**70):
        got, _ = bisect(efile, config, capacity=capacity)
        assert got.tolist() == want.tolist(), capacity
    assert PartitionState(4, 2**70).capacity == 4


def test_decay_two_weighted_average(tmp_path):
    # node 0 appears in three chunks; stored estimate must follow the
    # halving recursion ((l1 + l2)/2 + l3)/2 verified against the interpreter
    edges = np.array(
        [[0, 1], [1, 2], [0, 2], [0, 3], [2, 3], [0, 4], [1, 4], [0, 5]], dtype=np.int64
    )
    num_nodes = 6
    cap = default_capacity(num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    config = GremConfig(chunk_edges=3)
    plan = ChunkPlan.plan(len(edges), chunk_edges=3)

    from streamcut import stream_chunks
    from streamcut.grem import _seed_chunk

    state = PartitionState(num_nodes, cap)
    per_chunk_counts = []
    # a chunk keeps no rows: a second reader yields each chunk's rows beside it
    for chunk, rows in zip(stream_chunks(efile, plan),
                           grem.iter_edge_blocks(efile, plan.chunk_size)):
        if chunk.chunk_index == 0:
            _seed_chunk(state, chunk)
        else:
            before = count_node_neighbors(0, rows.tolist(), state.parts)
            process_chunk(state, chunk, config)
            per_chunk_counts.append(before)
    # chunk-local counts for node 0 were averaged into the running estimate
    # once per chunk after the first
    expected = run_reference(
        edges.tolist(), num_nodes, 3, cap, library_seed_fn(num_nodes, cap)
    )
    assert state.parts.tolist() == expected
    assert len(per_chunk_counts) == 2


def test_fixed_greedy_matches_independent_baseline(tmp_path):
    rng = np.random.default_rng(31)
    for trial in range(20):
        edges, num_nodes = random_multigraph(rng, max_nodes=40, max_edges=1000)
        efile = make_edge_file(tmp_path / f"g{trial}.grpe", edges, num_nodes)
        chunk_edges = int(rng.integers(1, len(edges) + 1))
        cap = default_capacity(num_nodes)
        labels, _ = bisect(efile, GremConfig(chunk_edges=chunk_edges, refine=False))
        baseline = run_fixed_greedy(
            edges.tolist(), num_nodes, chunk_edges, cap, library_seed_fn(num_nodes, cap)
        )
        assert labels.tolist() == baseline, trial


# -------------------------------------------------------------- count_cuts


def test_count_cuts_examples(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 0]], 3)
    report = count_cuts(efile, np.zeros(3, dtype=np.int64))
    assert report.cut_edges == 0 and report.cut_fraction == 0.0

    k22 = make_edge_file(tmp_path / "k22.grpe", [[0, 2], [0, 3], [1, 2], [1, 3]], 4)
    report = count_cuts(k22, np.array([0, 0, 1, 1]))
    assert report.cut_edges == 4 and report.cut_fraction == 1.0
    assert report.partition_sizes == (2, 2)


def test_count_cuts_self_loops_never_cut(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 0], [0, 1]], 2)
    report = count_cuts(efile, np.array([0, 1]))
    assert report.cut_edges == 1


def test_count_cuts_matches_in_memory_oracle(tmp_path):
    rng = np.random.default_rng(12)
    edges, num_nodes = random_multigraph(rng, max_nodes=30, max_edges=200)
    labels = rng.integers(0, 4, size=num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    report = count_cuts(efile, labels)
    assert report.cut_edges == brute_force_cut(edges, labels)
    assert report.total_edges == len(edges)


def test_count_cuts_unlabeled_endpoint(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 3)
    with pytest.raises(FormatError):
        count_cuts(efile, np.array([0, -1, 1]))


# --------------------------------------------------------------- partition


def test_partition_p2_equals_bisect(tmp_path):
    rng = np.random.default_rng(14)
    edges, num_nodes = random_multigraph(rng)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    config = GremConfig(chunk_frac=0.3)
    direct, _ = bisect(efile, config)
    recursive, report = partition(efile, 2, config, str(tmp_path / "work"))
    assert np.array_equal(direct, recursive)
    assert report.cut_edges == brute_force_cut(edges, direct)


def test_partition_report_equals_a_recount(tmp_path):
    # the report counts the final labels' cut over the input file
    rng = np.random.default_rng(19)
    for trial in range(12):
        edges, used = random_multigraph(rng, max_nodes=60, max_edges=300)
        num_nodes = used + int(rng.integers(0, 8))  # isolated nodes above the used ids
        edges = np.concatenate([edges, edges[: int(rng.integers(0, 20))]])  # duplicates
        efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
        for p in (2, 4, 8):
            config = GremConfig(chunk_frac=float(rng.choice([0.2, 0.5, 1.0])),
                                capacity_slack=0.25)
            labels, report = partition(efile, p, config, str(tmp_path / "work"))
            assert report.cut_edges == brute_force_cut(edges, labels), (trial, p)
            assert report == count_cuts(efile, labels, p), (trial, p)
            assert list(report.partition_sizes) == np.bincount(labels, minlength=p).tolist()


def test_partition_four_cliques(tmp_path):
    edges, truth = generate(CliqueUnionSpec(4, 8, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 32)
    shuffled = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 22, rng_seed=3)
    labels, report = partition(shuffled, 4, GremConfig(chunk_frac=1.0), str(tmp_path / "work"))
    assert report.cut_edges == 0
    # each clique ends up whole in some partition
    for c in range(4):
        assert len(set(labels[truth == c].tolist())) == 1
    assert sorted(np.bincount(labels, minlength=4).tolist()) == [8, 8, 8, 8]


def test_partition_work_dir_holds_only_the_induced_subgraphs(tmp_path, monkeypatch):
    # every bisection below the top one reads the edge file extracted for it,
    # in the run's own directory under the work directory, which holds nothing
    # else; the report is one count over the input, and the work directory
    # ends empty
    edges, _ = generate(CliqueUnionSpec(8, 6, bridges=4))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 48)
    work = tmp_path / "work"
    listings = []
    counted = []
    real_bisect_labels, real_count_cuts = grem._bisect_labels, grem.count_cuts

    def listing_bisect_labels(file, *args, **kwargs):
        (private,) = work.iterdir()
        names = sorted(p.name for p in private.iterdir())
        assert file.path == efile.path or os.path.relpath(file.path, private) in names
        listings.append((private, names))
        return real_bisect_labels(file, *args, **kwargs)

    def counting_count_cuts(*args, **kwargs):
        counted.append(args[0].path)
        return real_count_cuts(*args, **kwargs)

    monkeypatch.setattr(grem, "_bisect_labels", listing_bisect_labels)
    monkeypatch.setattr(grem, "count_cuts", counting_count_cuts)
    partition(efile, 8, GremConfig(chunk_frac=0.5), str(work))
    assert len(listings) == 7
    assert len({private for private, _ in listings}) == 1
    # a subgraph file is removed once its side is partitioned: at most one per level
    assert max(len(names) for _, names in listings) == 2
    assert counted == [efile.path]
    assert list(work.iterdir()) == []


def test_partition_runs_sharing_a_work_dir_do_not_meet(tmp_path, monkeypatch):
    # run B starts and ends inside run A's first level-1 bisection, in the
    # same work directory; each run returns the labels it returns alone
    config = GremConfig(chunk_frac=0.5, capacity_slack=0.25)
    files = []
    for name, seed in (("a", 31), ("b", 32)):
        edges, num_nodes = random_multigraph(np.random.default_rng(seed), 60, 300)
        files.append(make_edge_file(tmp_path / f"{name}.grpe", edges, num_nodes))
    solo = [partition(f, 8, config, str(tmp_path / "solo"))[0] for f in files]
    work = str(tmp_path / "work")
    real_bisect_labels = grem._bisect_labels
    started, labels_b = [], []

    def interleaving_bisect_labels(file, *args, **kwargs):
        if file.path != files[0].path and not started:  # run A's first level-1 bisection
            started.append(file.path)
            labels_b.append(partition(files[1], 8, config, work)[0])
        return real_bisect_labels(file, *args, **kwargs)

    monkeypatch.setattr(grem, "_bisect_labels", interleaving_bisect_labels)
    labels_a, _ = partition(files[0], 8, config, work)
    assert len(labels_b) == 1
    assert labels_a.tolist() == solo[0].tolist()
    assert labels_b[0].tolist() == solo[1].tolist()
    assert os.listdir(work) == []


def test_partition_leaves_the_files_in_the_work_dir_alone(tmp_path):
    work = tmp_path / "work"
    work.mkdir()
    kept = work / "bisect_l1_b0.grpe"
    kept.write_bytes(b"not a scratch file")
    edges, _ = generate(CliqueUnionSpec(4, 8, bridges=2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 32)
    partition(efile, 4, GremConfig(chunk_frac=0.5), str(work))
    assert [p.name for p in work.iterdir()] == [kept.name]
    assert kept.read_bytes() == b"not a scratch file"


def _peak_bytes(call):
    """The tracemalloc peak of ``call()``, after a warm-up call."""
    call()
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize("base, bisection", [(100_000, "bisect"), (250_000, "_bisect_labels")])
def test_partition_and_bisect_peaks_grow_by_few_bytes_per_node(tmp_path, base, bisection):
    # The peak's growth per node, at a fixed 300,000 edges (above the
    # reader's 2**18-row block) in chunks of 50,000, from n to 2n and 4n
    # nodes.  The bisection's state is 9 B per node (an int8 part and a
    # float64 lean); partition at p = 8 adds a level's int32 labels, its
    # sides and side mask, and the extraction's int64 new ids.  The seed's
    # u32 rank, 4 B per id below the seed chunk's width, is malloc'ed and
    # freed inside the bfs_grow kernel, where tracemalloc does not see it.
    # From 250,000 nodes up, a tenth to a half of the nodes are in no edge
    # and _fill_unassigned places them; the bisection is measured there
    # without its report, count_cuts, which
    # test_count_cuts_and_the_bisect_report_grow_by_few_bytes_per_node
    # measures.
    config = GremConfig(chunk_edges=50_000, capacity_slack=0.1)
    calls = {"partition": lambda f: partition(f, 8, config, str(tmp_path / "work")),
             bisection: lambda f: getattr(grem, bisection)(f, config)}
    bounds = {"partition": 17.0, bisection: 9.5}
    rng = np.random.default_rng(5)
    peaks = {name: [] for name in calls}
    for n in (base, 2 * base, 4 * base):
        efile = make_edge_file(tmp_path / f"g{n}.grpe", rng.integers(0, n, size=(300_000, 2)), n)
        for name, call in calls.items():
            peaks[name].append(_peak_bytes(lambda: call(efile)))
    for name, (at_n, at_2n, at_4n) in peaks.items():
        slopes = ((at_2n - at_n) / base, (at_4n - at_2n) / (2 * base))
        assert max(slopes) <= bounds[name], (name, slopes)


def test_count_cuts_and_the_bisect_report_grow_by_few_bytes_per_node(tmp_path):
    # The sparse graph above: 300,000 edges over 250,000, 500,000 and
    # 1,000,000 nodes.  count_cuts holds its u32 copy of the labels, 4 B per
    # node, and _check_labels' mask of negative labels, 1 B, while that copy
    # is made, and counts the partition sizes in blocks of 2**16 labels; it
    # held 16 B per node when it counted them all at once.  So bisect, its
    # report included, peaks at the bisection's 9 B state.
    config = GremConfig(chunk_edges=50_000, capacity_slack=0.1)
    calls = {"count_cuts": lambda f, labels: count_cuts(f, labels),
             "bisect": lambda f, labels: bisect(f, config)}
    bounds = {"count_cuts": 5.5, "bisect": 9.5}
    rng = np.random.default_rng(5)
    base = 250_000
    peaks = {name: [] for name in calls}
    for n in (base, 2 * base, 4 * base):
        efile = make_edge_file(tmp_path / f"g{n}.grpe", rng.integers(0, n, size=(300_000, 2)), n)
        labels = rng.integers(0, 8, size=n).astype(np.int32)
        for name, call in calls.items():
            peaks[name].append(_peak_bytes(lambda: call(efile, labels)))
    for name, (at_n, at_2n, at_4n) in peaks.items():
        slopes = ((at_2n - at_n) / base, (at_4n - at_2n) / (2 * base))
        assert max(slopes) <= bounds[name], (name, slopes)


def test_partition_capacity_bound(tmp_path):
    rng = np.random.default_rng(15)
    for _ in range(5):
        edges, num_nodes = random_multigraph(rng, max_nodes=35, max_edges=150)
        efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
        labels, _ = partition(efile, 4, GremConfig(chunk_frac=0.5), str(tmp_path / "work"))
        sizes = np.bincount(labels, minlength=4)
        assert int(sizes.max()) <= -(-num_nodes // 4)  # ceil(V/4) at zero slack
        assert int(sizes.sum()) == num_nodes


def test_partition_capacity_bound_with_slack(tmp_path):
    rng = np.random.default_rng(18)
    slack = 0.25
    for _ in range(5):
        edges, num_nodes = random_multigraph(rng, max_nodes=48, max_edges=200)
        efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
        config = GremConfig(chunk_frac=0.5, capacity_slack=slack)
        labels, _ = partition(efile, 4, config, str(tmp_path / "work"))
        sizes = np.bincount(labels, minlength=4)
        assert int(sizes.max()) <= ceil((1 + slack) * num_nodes / 4)
        assert int(sizes.sum()) == num_nodes


@pytest.mark.parametrize("bad", [{"capacity_slack": -0.5}, {"capacity_slack": float("nan")},
                                 {"passes": 0}, {"chunk_edges": 10, "chunk_frac": 0.1},
                                 {"passes": 2.5}, {"chunk_edges": 2.5}, {"chunk_frac": "0.5"},
                                 {"capacity_slack": "0.1"}, {"passes": None},
                                 {"refine": "false"}, {"refine": None}, {"refine": 0},
                                 {"refine": np.int8(1)}, {"chunk_edges": True},
                                 {"chunk_frac": True}, {"passes": True},
                                 {"capacity_slack": False}])
def test_grem_config_rejects_bad_values(bad):
    with pytest.raises(FormatError):
        GremConfig(**bad)


def test_numpy_bool_refine_bisects_as_the_python_bool(tmp_path):
    edges, _ = generate(PathSpec(40))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 40)
    for refine in (True, False):
        want, _ = bisect(efile, GremConfig(chunk_edges=5, refine=refine))
        got, _ = bisect(efile, GremConfig(chunk_edges=5, refine=np.bool_(refine)))
        assert got.tolist() == want.tolist(), refine


def test_default_capacity_is_at_most_the_node_count():
    assert default_capacity(10) == 5
    assert default_capacity(10, 0.1, 4) == 3  # ceil(2.75)
    assert default_capacity(10, 1.0) == default_capacity(10, float("inf")) == 10
    assert default_capacity(10, 1e308, 4) == 10


def test_partition_rejects_bad_p(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    for bad in (0, 1, 3, 6):
        with pytest.raises(FormatError):
            partition(efile, bad, GremConfig(chunk_frac=1.0), str(tmp_path / "work"))


def test_labels_file_round_trip_through_bisect(tmp_path):
    rng = np.random.default_rng(16)
    edges, num_nodes = random_multigraph(rng)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    labels, _ = bisect(efile, GremConfig(chunk_frac=0.5))
    path = str(tmp_path / "l.grpl")
    write_labels(path, labels, num_parts=2)
    back, parts = read_labels(path)
    assert parts == 2
    assert np.array_equal(back, labels)
