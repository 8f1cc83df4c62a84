import tracemalloc

import numpy as np
import pytest

from streamcut import placement
from streamcut import (
    FormatError,
    GremConfig,
    PlacementPlan,
    bisect,
    estimate_comm,
    external_shuffle,
    plan_assignment,
    plan_from_text,
    plan_to_text,
    select_replicated,
)
from streamcut.model import build_adjacency
from streamcut.placement import comm_csv
from streamcut.synth import CliqueUnionSpec, SbmSpec, StarSpec, generate

from helpers import make_edge_file


def test_plan_examples():
    plan = plan_assignment(4, 2, rng_seed=0)
    lists = [set(w) for w in plan.assignment]
    assert all(len(w) == 2 for w in lists)
    assert lists[0] | lists[1] == {0, 1, 2, 3}
    assert lists[0] & lists[1] == set()

    single = plan_assignment(6, 1, rng_seed=1)
    assert sorted(single.assignment[0]) == list(range(6))

    wide = plan_assignment(128, 5, rng_seed=2)
    sizes = sorted(len(w) for w in wide.assignment)
    assert sizes == [25, 25, 26, 26, 26]
    covered = sorted(pid for w in wide.assignment for pid in w)
    assert covered == list(range(128))


def test_plan_cover_property_random_triples():
    rng = np.random.default_rng(0)
    for _ in range(50):
        workers = int(rng.integers(1, 12))
        p = int(rng.integers(workers, workers + 40))
        seed = int(rng.integers(0, 10_000))
        plan = plan_assignment(p, workers, seed)
        flat = [pid for w in plan.assignment for pid in w]
        assert sorted(flat) == list(range(p))
        sizes = [len(w) for w in plan.assignment]
        assert max(sizes) - min(sizes) <= 1
        again = plan_assignment(p, workers, seed)
        assert again.assignment == plan.assignment


def test_plan_errors():
    with pytest.raises(FormatError):
        plan_assignment(2, 3, 0)
    with pytest.raises(FormatError):
        plan_assignment(2, 0, 0)
    with pytest.raises(FormatError):
        PlacementPlan(2, ((0, 1), (1, 2)))  # partition 1 appears twice


def test_plan_text_round_trip():
    plan = plan_assignment(7, 3, rng_seed=5)
    plan = PlacementPlan(plan.num_workers, plan.assignment, frozenset({2, 9}))
    text = plan_to_text(plan)
    back = plan_from_text(text)
    assert back == plan
    assert "replicated: 2,9" in text


def test_select_replicated_budget_zero(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    assert select_replicated(efile, 0).size == 0


def test_select_replicated_star_center(tmp_path):
    edges, _ = generate(StarSpec(6))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 7)
    assert select_replicated(efile, 1).tolist() == [0]


def test_select_replicated_matches_sort_oracle(tmp_path):
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 30, size=(250, 2)).astype(np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 30)
    got = select_replicated(efile, 10)
    deg = np.zeros(30, dtype=np.int64)
    for u, v in edges.tolist():
        if u != v:
            deg[u] += 1
            deg[v] += 1
    ranked = sorted(range(30), key=lambda n: (-deg[n], n))
    assert sorted(got.tolist()) == sorted(ranked[:10])


def _comm_setup(tmp_path, labels, plan, seed=0):
    edges, truth = generate(CliqueUnionSpec(2, 10, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 20)
    return efile, truth, estimate_comm(efile, labels, plan, num_seeds=10, rng_seed=seed)


def test_comm_single_worker_all_local(tmp_path):
    edges, truth = generate(CliqueUnionSpec(2, 10, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 20)
    plan = plan_assignment(2, 1, rng_seed=0)
    counts = estimate_comm(efile, truth.astype(np.int64), plan, num_seeds=10, rng_seed=0)
    assert sum(remote for _, remote in counts) == 0
    assert sum(local for local, _ in counts) > 0


def test_comm_full_replication_all_local(tmp_path):
    edges, _ = generate(CliqueUnionSpec(2, 10, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 20)
    base = plan_assignment(2, 2, rng_seed=0)
    plan = PlacementPlan(2, base.assignment, frozenset(range(20)))
    labels = np.random.default_rng(0).integers(0, 2, size=20)
    counts = estimate_comm(efile, labels, plan, num_seeds=10, rng_seed=0)
    assert sum(remote for _, remote in counts) == 0


def test_comm_perfect_split_beats_random_labels(tmp_path):
    edges, truth = generate(CliqueUnionSpec(2, 10, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 20)
    plan = plan_assignment(2, 2, rng_seed=0)
    ideal = estimate_comm(efile, truth.astype(np.int64), plan, num_seeds=10, rng_seed=1)
    assert sum(remote for _, remote in ideal) == 0
    scrambled = np.random.default_rng(3).permutation(truth.astype(np.int64))
    noisy = estimate_comm(efile, scrambled, plan, num_seeds=10, rng_seed=1)
    assert sum(remote for _, remote in noisy) > 0


def test_comm_partitioner_labels_beat_random_on_sbm(tmp_path):
    edges, _ = generate(SbmSpec(2, 100, p_in=0.08, p_out=0.002, rng_seed=2))
    efile = make_edge_file(tmp_path / "sbm.grpe", edges, 200)
    shuffled = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 22, rng_seed=0)
    labels, _ = bisect(shuffled, GremConfig(chunk_frac=0.2))
    rng = np.random.default_rng(11)
    random_labels = rng.permutation(np.repeat([0, 1], 100))
    plan = plan_assignment(2, 2, rng_seed=4)
    part_remote = []
    rand_remote = []
    for sim_seed in range(10):
        got = estimate_comm(shuffled, labels, plan, num_seeds=25, rng_seed=sim_seed)
        part_remote.append(sum(r for _, r in got))
        got = estimate_comm(shuffled, random_labels, plan, num_seeds=25, rng_seed=sim_seed)
        rand_remote.append(sum(r for _, r in got))
    assert np.mean(part_remote) <= np.mean(rand_remote)


def test_comm_deterministic_and_validated(tmp_path):
    edges, truth = generate(CliqueUnionSpec(2, 6, bridges=1))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 12)
    plan = plan_assignment(2, 2, rng_seed=0)
    a = estimate_comm(efile, truth.astype(np.int64), plan, num_seeds=5, rng_seed=9)
    b = estimate_comm(efile, truth.astype(np.int64), plan, num_seeds=5, rng_seed=9)
    assert a == b
    with pytest.raises(FormatError):
        estimate_comm(efile, truth.astype(np.int64), plan, num_seeds=0, rng_seed=0)
    with pytest.raises(FormatError):
        estimate_comm(efile, np.full(12, 5), plan, num_seeds=5, rng_seed=0)


def test_comm_csv_format():
    text = comm_csv([(10, 2), (8, 0)])
    assert text.splitlines() == ["worker,local,remote", "0,10,2", "1,8,0"]


def per_fetch_estimate_comm(edges, num_nodes, labels, plan, fanouts, num_seeds, rng_seed):
    """The per-fetch sampling walk: one Python step and one tally per fetched node."""
    nodes, node_starts, node_ends, snbrs = build_adjacency(edges)
    starts = np.zeros(num_nodes, dtype=np.int64)
    ends = np.zeros(num_nodes, dtype=np.int64)
    starts[nodes] = node_starts
    ends[nodes] = node_ends
    node_worker = plan.worker_of()[labels]
    replicated = np.zeros(num_nodes, dtype=bool)
    replicated[list(plan.replicated_nodes)] = True
    rng = np.random.default_rng(rng_seed)
    seeds = rng.choice(num_nodes, size=num_seeds, replace=False)
    counts = np.zeros((plan.num_workers, 2), dtype=np.int64)
    for s in seeds.tolist():
        w = int(node_worker[s])
        frontier = [s]
        for fanout in fanouts:
            nxt = []
            for u in frontier:
                neigh = snbrs[starts[u] : ends[u]]
                if len(neigh) > fanout:
                    sel = neigh[rng.choice(len(neigh), size=fanout, replace=False)]
                else:
                    sel = neigh
                for v in sel.tolist():
                    if replicated[v] or node_worker[v] == w:
                        counts[w, 0] += 1
                    else:
                        counts[w, 1] += 1
                    nxt.append(v)
            frontier = nxt
    return [(int(a), int(b)) for a, b in counts]


def test_comm_equals_per_fetch_walk(tmp_path):
    rng = np.random.default_rng(5)
    for case in range(12):
        num_nodes = int(rng.integers(10, 60))
        # ids above ``linked`` touch no edge, so a seed drawn there has an empty frontier
        linked = int(rng.integers(3, num_nodes))
        edges = rng.integers(0, linked, size=(int(rng.integers(1, 12 * linked)), 2))
        efile = make_edge_file(tmp_path / f"g{case}.grpe", edges, num_nodes)
        parts = int(rng.integers(1, 5))
        labels = rng.integers(0, parts, size=num_nodes)
        plan = plan_assignment(parts, int(rng.integers(1, parts + 1)), rng_seed=case)
        replicated = rng.choice(num_nodes, size=int(rng.integers(0, 4)), replace=False)
        plan = PlacementPlan(plan.num_workers, plan.assignment, frozenset(replicated.tolist()))
        fanouts = tuple(int(f) for f in rng.integers(1, 12, size=int(rng.integers(1, 4))))
        num_seeds = int(rng.integers(1, num_nodes + 1))
        for rng_seed in range(4):
            got = estimate_comm(efile, labels, plan, fanouts, num_seeds, rng_seed)
            want = per_fetch_estimate_comm(
                edges, num_nodes, labels, plan, fanouts, num_seeds, rng_seed
            )
            assert got == want, (case, rng_seed)


def test_comm_same_through_the_edge_list_path(tmp_path, monkeypatch):
    # the path for num_nodes**2 > 2**63 indexes the decoded edge list instead
    rng = np.random.default_rng(12)
    edges = rng.integers(0, 80, size=(900, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 100)
    labels = rng.integers(0, 4, size=100)
    plan = plan_assignment(4, 2, rng_seed=1)
    want = [estimate_comm(efile, labels, plan, num_seeds=20, rng_seed=s) for s in range(3)]
    monkeypatch.setattr(placement, "packed_keys_fit", lambda width: False)
    got = [estimate_comm(efile, labels, plan, num_seeds=20, rng_seed=s) for s in range(3)]
    assert got == want


def test_comm_peak_memory_per_edge(tmp_path):
    # the index is built from one 2E array of packed keys, filled block by
    # block: no int64 edge list is held beside it
    rng = np.random.default_rng(3)
    num_nodes, num_edges = 20_000, 200_000
    src = (rng.pareto(1.5, size=num_edges) * num_nodes / 50).astype(np.int64) % num_nodes
    edges = np.column_stack([src, rng.integers(0, num_nodes, size=num_edges)])
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    labels = rng.integers(0, 4, size=num_nodes)
    plan = plan_assignment(4, 2, rng_seed=0)
    tracemalloc.start()
    try:
        estimate_comm(efile, labels, plan, num_seeds=8, rng_seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 44 * num_edges, peak / num_edges
