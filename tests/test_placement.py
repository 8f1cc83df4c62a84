import ctypes
import itertools
import re
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
import scipy.stats

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


@pytest.mark.parametrize("text, message", [
    ("0: 0,x\n1: 1\n", "plan line 1: non-integer id in '0: 0,x'"),
    ("w: 0\n", "plan line 1: non-integer id in 'w: 0'"),
    ("0: 0\nreplicated: 3,?\n", "plan line 2: non-integer id in 'replicated: 3,?'"),
    ("0: 0,1\n0: 0,1\n", "plan line 2: worker 0 listed twice"),
    ("0: 0\n1: 1\n1: 2\n", "plan line 3: worker 1 listed twice"),
    ("0: 0\nreplicated: 1\nreplicated: 2\n", "plan line 3: a second 'replicated' line"),
    ("0: 0\nreplicated:\nreplicated: 2\n", "plan line 3: a second 'replicated' line"),
    # ids are ASCII digits only: no separator or sign, which int() would take
    ("0: 1_2\n", "plan line 1: non-integer id in '0: 1_2'"),
    ("+0: 1\n", "plan line 1: non-integer id in '+0: 1'"),
])
def test_malformed_plan_text_is_a_format_error(text, message):
    with pytest.raises(FormatError, match=f"^{re.escape(message)}$"):
        plan_from_text(text)


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
    # many ties: a cycle through 60 nodes gives each degree 2, beside 10 isolated nodes
    cycle = np.column_stack([np.arange(60), (np.arange(60) + 1) % 60])
    for name, edges, num_nodes, budgets in (("random", edges, 30, (10, 0, 30)),
                                            ("ties", cycle, 70, (7, 59, 60, 61, 70))):
        efile = make_edge_file(tmp_path / f"{name}.grpe", edges, num_nodes)
        deg = np.zeros(num_nodes, dtype=np.int64)
        for u, v in edges.tolist():
            if u != v:
                deg[u] += 1
                deg[v] += 1
        ranked = sorted(range(num_nodes), key=lambda n: (-deg[n], n))
        for budget in budgets:
            got = select_replicated(efile, budget)
            assert got.tolist() == sorted(ranked[:budget]), (name, budget)
            assert got.dtype == np.int64, (name, budget)


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
    with pytest.raises(FormatError, match="labels cover 11 nodes, file has 12"):
        estimate_comm(efile, truth[:11].astype(np.int64), plan, num_seeds=5, rng_seed=0)


@pytest.mark.parametrize("fanouts", [(), (0,), (3, 0, 2), (2, -1)])
def test_comm_rejects_bad_fanouts_before_indexing(tmp_path, monkeypatch, fanouts):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    plan = plan_assignment(2, 2, rng_seed=0)

    def no_index(*_args):
        raise AssertionError("the index was built before the fanouts were checked")

    monkeypatch.setattr(placement, "build_adjacency", no_index)
    with pytest.raises(FormatError, match="fanouts"):
        estimate_comm(efile, np.array([0, 1, 0]), plan, fanouts, num_seeds=2, rng_seed=0)


def test_comm_csv_format():
    text = comm_csv([(10, 2), (8, 0)])
    assert text.splitlines() == ["worker,local,remote", "0,10,2", "1,8,0"]


def reference_estimate_comm(edges, num_nodes, labels, plan, fanouts, num_seeds, rng_seed,
                            bit_generator=None):
    """The documented sampler, one raw word and one fetched node at a time.

    Written from the README's description, independently of ``placement``:
    a bounded integer below n is the high half of word * n, retried while
    the low half is below 2**64 mod n; f of d positions (f < d) come from
    Floyd's algorithm in insertion order; d <= f takes all d in order.
    """
    adj = [[] for _ in range(num_nodes)]
    for u, v in np.asarray(edges).tolist():
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    adj = [sorted(a) for a in adj]
    if bit_generator is None:
        bit_generator = np.random.default_rng(rng_seed).bit_generator

    def below(n):
        while True:
            high, low = divmod(int(bit_generator.random_raw()) * n, 1 << 64)
            if low >= (1 << 64) % n:
                return high

    def pick(d, f):
        if d <= f:
            return list(range(d))
        chosen = []
        for j in range(d - f, d):
            t = below(j + 1)
            chosen.append(j if t in chosen else t)
        return chosen

    worker = plan.worker_of()[np.asarray(labels)].tolist()
    counts = [[0, 0] for _ in range(plan.num_workers)]
    for s in pick(num_nodes, num_seeds):
        w = worker[s]
        frontier = [s]
        for fanout in fanouts:
            frontier = [adj[u][i] for u in frontier for i in pick(len(adj[u]), fanout)]
            for v in frontier:
                if v in plan.replicated_nodes or worker[v] == w:
                    counts[w][0] += 1
                else:
                    counts[w][1] += 1
    return [tuple(c) for c in counts]


def test_comm_equals_per_fetch_walk(tmp_path):
    rng = np.random.default_rng(5)
    cases = []
    for case in range(18):
        num_nodes = int(rng.integers(10, 60))
        if case < 12:
            # ids above ``linked`` touch no edge, so a seed drawn there has an empty frontier
            linked = int(rng.integers(3, num_nodes))
            edges = rng.integers(0, linked, size=(int(rng.integers(1, 12 * linked)), 2))
        else:
            # id 0 and a middle band [lo, hi) touch no edge: isolated ids below and between
            # linked ones, empty lists inside the estimator's full-range offsets
            lo, hi = np.sort(rng.choice(np.arange(2, num_nodes - 1), size=2, replace=False))
            linked = np.concatenate([np.arange(1, lo), np.arange(hi, num_nodes)])
            edges = rng.choice(linked, size=(int(rng.integers(1, 12 * linked.size)), 2))
        efile = make_edge_file(tmp_path / f"g{case}.grpe", edges, num_nodes)
        parts = int(rng.integers(1, 5))
        labels = rng.integers(0, parts, size=num_nodes)
        plan = plan_assignment(parts, int(rng.integers(1, parts + 1)), rng_seed=case)
        replicated = rng.choice(num_nodes, size=int(rng.integers(0, 4)), replace=False)
        plan = PlacementPlan(plan.num_workers, plan.assignment, frozenset(replicated.tolist()))
        fanouts = tuple(int(f) for f in rng.integers(1, 12, size=int(rng.integers(1, 4))))
        num_seeds = int(rng.integers(1, num_nodes + 1))
        if case % 5 == 0:
            num_seeds = num_nodes  # every node seeds: no seed words are drawn
        cases.append((case, edges, efile, num_nodes, labels, plan, fanouts, num_seeds))
    for case, edges, efile, num_nodes, labels, plan, fanouts, num_seeds in cases:
        for rng_seed in range(4):
            got = estimate_comm(efile, labels, plan, fanouts, num_seeds, rng_seed)
            want = reference_estimate_comm(
                edges, num_nodes, labels, plan, fanouts, num_seeds, rng_seed
            )
            assert got == want, (case, rng_seed)


def test_comm_golden_counts(tmp_path):
    # pins the sampler's output for fixed seeds: a change of the bit
    # generator's stream or of the sampler shows here, not only as drift
    edges = [[0, 1], [0, 2], [0, 3], [0, 4], [1, 2], [2, 3], [3, 4], [4, 5], [5, 6],
             [6, 7], [5, 7], [1, 7], [2, 6], [0, 0], [3, 4]]
    efile = make_edge_file(tmp_path / "g.grpe", edges, 9)
    labels = np.array([0, 0, 1, 1, 2, 2, 3, 3, 0])
    plan = PlacementPlan(2, ((0, 2), (1, 3)), frozenset({5}))
    golden = {0: [(7, 5), (4, 2)], 3: [(7, 11), (4, 2)], 4: [(4, 8), (9, 3)]}
    for rng_seed, want in golden.items():
        got = estimate_comm(efile, labels, plan, (2, 2), 4, rng_seed)
        assert got == want, rng_seed
        assert reference_estimate_comm(edges, 9, labels, plan, (2, 2), 4, rng_seed) == want


@pytest.mark.parametrize("degree,fanout", [(7, 3), (12, 10)])
def test_comm_picks_every_position_with_probability_fanout_over_degree(
    tmp_path, degree, fanout
):
    # disjoint stars: centre c lists its leaves c+1..c+degree in ascending
    # order, so leaf c+1+p is list position p.  Labels put that leaf of every
    # star alone on worker 1; the centre seeds of worker 0 then fetch it
    # remotely exactly when position p is picked.  The picks do not depend
    # on labels, so one rng_seed gives every position's count.
    stars, rng_seeds = 100, range(6)
    size = degree + 1
    centres = np.arange(stars) * size
    edges = np.array([[c, c + 1 + p] for c in centres for p in range(degree)])
    efile = make_edge_file(tmp_path / "g.grpe", edges, stars * size)
    plan = PlacementPlan(2, ((0,), (1,)))
    trials = stars * len(rng_seeds)
    q = fanout / degree
    picked = np.zeros(degree, dtype=np.int64)
    for p in range(degree):
        labels = np.zeros(stars * size, dtype=np.int64)
        labels[centres + 1 + p] = 1
        for rng_seed in rng_seeds:
            # every node seeds once; leaf seeds take their one neighbour
            counts = estimate_comm(efile, labels, plan, (fanout,), stars * size, rng_seed)
            picked[p] += counts[0][1]
    assert picked.sum() == trials * fanout
    # a position's count is Binomial(trials, q); as one trial picks f
    # distinct positions, the counts sum to trials * f and this sum of
    # squares is chi-square with d - 1 degrees of freedom
    stat = float(((picked - trials * q) ** 2).sum() / (trials * q * (1 - q)))
    stat *= (degree - 1) / degree
    critical = scipy.stats.chi2.ppf(0.999, df=degree - 1)
    assert stat < critical, (picked.tolist(), stat)


class ScriptedBitGenerator:
    """Stands in for a numpy bit generator: yields the given raw words, then zeros.

    It offers what the samplers read: ``ctypes.next_uint64`` and
    ``ctypes.state_address`` for ``estimate_comm``'s compiled walk,
    ``random_raw`` for ``reference_estimate_comm``.
    """

    def __init__(self, words):
        self._words = itertools.chain(words, itertools.repeat(0))
        callback = ctypes.CFUNCTYPE(ctypes.c_uint64, ctypes.c_void_p)
        self._next = callback(lambda state: next(self._words))
        self.ctypes = SimpleNamespace(next_uint64=self._next, state_address=None)

    def random_raw(self):
        return next(self._words)


def test_comm_bounded_draw_rejects_low_words(tmp_path, monkeypatch):
    # star 0 - {1, 2, 3}, fanout 2: Floyd draws below 2, then below 3.  The
    # word 0 gives 0 * 3, whose low half 0 is under 2**64 mod 3 = 1, so it is
    # rejected and the next word, 2**64 - 1, gives position 2.  Accepting it
    # would give position 0 (leaf 1, the only node on worker 1) instead.
    words = [1 << 63, 0, (1 << 64) - 1]
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [0, 2], [0, 3]], 4)
    labels = np.array([0, 1, 0, 0])
    plan = PlacementPlan(2, ((0,), (1,)))
    want = reference_estimate_comm([[0, 1], [0, 2], [0, 3]], 4, labels, plan, (2,), 4, None,
                                   ScriptedBitGenerator(words))
    assert want == [(4, 0), (0, 1)]
    fake = ScriptedBitGenerator(words)
    monkeypatch.setattr(placement.np.random, "default_rng",
                        lambda seed: SimpleNamespace(bit_generator=fake))
    assert estimate_comm(efile, labels, plan, (2,), 4, 0) == want


def test_comm_peak_memory_per_edge(tmp_path):
    # the index is built from one 2E array of u32 packed keys (8 B/edge),
    # filled from the u32 blocks as stored (8 B/edge for this one-block
    # file), the neighbour ids written over the keys: no int64 copy of the
    # edge list, whole or per block, is held beside it.  Measured 24.4 B/edge
    # with the 16 B/edge keys of an int64 buffer; the bound is that plus 10 %.
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
    assert peak <= 26.8 * num_edges, peak / num_edges


def test_comm_peak_grows_by_at_most_nine_bytes_per_edge(tmp_path):
    # at n = 200,000 the keys split into 13 parts (key_layout), packed
    # straight into one u32 array of 2E entries, 8 B per edge, over which the
    # tail writes the u32 neighbour ids; the reader's block buffer and the
    # per-node arrays do not grow with E.  An int64 index buffer grew by 16.
    rng = np.random.default_rng(12)
    num_nodes = 200_000
    labels = rng.integers(0, 4, size=num_nodes)
    plan = plan_assignment(4, 2, rng_seed=0)
    peaks = []
    for num_edges in (300_000, 600_000):
        edges = rng.integers(0, num_nodes, size=(num_edges, 2))
        efile = make_edge_file(tmp_path / f"g{num_edges}.grpe", edges, num_nodes)
        estimate_comm(efile, labels, plan, num_seeds=8, rng_seed=0)  # warm-up
        tracemalloc.start()
        try:
            estimate_comm(efile, labels, plan, num_seeds=8, rng_seed=0)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    slope = (peaks[1] - peaks[0]) / 300_000
    assert slope <= 9.0, slope


def test_comm_native_equals_python_on_a_skewed_graph(tmp_path):
    # hubs of degree well above every fanout, so most frontier nodes sample;
    # the compiled walk against the plain-Python one
    rng = np.random.default_rng(21)
    num_nodes, num_edges = 3_000, 40_000
    src = (rng.pareto(1.2, size=num_edges) * 20).astype(np.int64) % num_nodes
    edges = np.column_stack([src, rng.integers(0, num_nodes, size=num_edges)])
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    labels = rng.integers(0, 4, size=num_nodes)
    plan = plan_assignment(4, 2, rng_seed=3)
    plan = PlacementPlan(2, plan.assignment, frozenset(range(0, num_nodes, 97)))
    for rng_seed in range(3):
        want = reference_estimate_comm(edges, num_nodes, labels, plan, (25, 10, 5), 16, rng_seed)
        assert estimate_comm(efile, labels, plan, (25, 10, 5), 16, rng_seed) == want
