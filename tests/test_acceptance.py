"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they complete.  Criteria 2 and 3 run the partitioner with a 10%
capacity slack: at zero slack both sides of an even-node graph pin at
exactly ceil(V/2) once every node is assigned and no reassignment can move a
node across, freezing refinement; the slack keeps refinement live and the
balance criterion (11) checks the correspondingly scaled bound.
"""

import hashlib
from contextlib import contextmanager
from fractions import Fraction
from math import ceil, comb
from pathlib import Path

import numpy as np

from streamcut import (
    GremConfig,
    PlacementPlan,
    ResidencyMeter,
    SeedConfig,
    bisect,
    compute_node_stats,
    count_cuts,
    estimate_comm,
    expected_cuts,
    external_shuffle,
    hypergeom_pmf_cdf,
    plan_assignment,
    read_bucket,
    read_index,
    reorder_features,
    seed_bisect,
    theory_curve,
    write_buckets,
    write_labels,
)
from streamcut.cli import main as cli_main
from streamcut.edgefile import BinaryEdgeWriter, open_edge_file, read_all_edges
from streamcut.grem import default_capacity
from streamcut.model import EdgeChunk
from streamcut.synth import CliqueUnionSpec, PathSpec, SbmSpec, StarSpec, write_graph
from streamcut.theory import draws_for

from helpers import is_connected, majority_align, make_edge_file, random_multigraph
from reference_interp import run_reference

SLACK = 0.1  # capacity slack used by the partitioner runs of criteria 2 and 3

# balance checkpoints recorded while criteria 1-3 run, re-asserted by criterion 11
_BALANCE_LOG: list[tuple[str, int, int, int]] = []


@contextmanager
def criterion(num: int, title: str):
    try:
        yield
    except BaseException:
        print(f"[acceptance] criterion {num:2d} ({title}): FAIL")
        raise
    print(f"[acceptance] criterion {num:2d} ({title}): PASS")


def _balance_hook(tag: str, capacity: int):
    def hook(state):
        _BALANCE_LOG.append((tag, state.sizes[0], state.sizes[1], capacity))

    return hook


def test_c01_algorithm_fidelity(tmp_path):
    with criterion(1, "algorithm fidelity vs reference interpreter"):
        rng = np.random.default_rng(2024)
        for trial in range(50):
            edges, num_nodes = random_multigraph(rng, max_nodes=60, max_edges=1000)
            efile = make_edge_file(tmp_path / f"g{trial}.grpe", edges, num_nodes)
            chunk_edges = int(rng.integers(1, len(edges) + 1))
            refine = bool(rng.integers(0, 2)) or trial < 25  # mostly the refined path
            passes = int(rng.integers(1, 3))
            config = GremConfig(chunk_edges=chunk_edges, refine=refine, passes=passes)
            cap = default_capacity(num_nodes)
            labels, _ = bisect(
                efile, config, on_chunk=_balance_hook(f"c1/{trial}", cap)
            )

            def seed_fn(c_edges):
                chunk = EdgeChunk(0, np.asarray(c_edges, dtype=np.int64))
                seed_labels = seed_bisect(chunk, SeedConfig(), cap)
                return dict(zip(chunk.nodes.tolist(), (int(x) for x in seed_labels)))

            expected = run_reference(
                edges.tolist(), num_nodes, chunk_edges, cap, seed_fn,
                refine=refine, passes=passes,
            )
            assert labels.tolist() == expected, (trial, chunk_edges, refine, passes)


def test_c02_refinement_benefit(tmp_path):
    with criterion(2, "refinement benefit on SBM cut fractions"):
        efile, _ = write_graph(
            SbmSpec(2, 2000, p_in=0.01, p_out=0.0005, rng_seed=0), str(tmp_path / "sbm.grpe")
        )
        shuffles = [
            external_shuffle(efile, str(tmp_path / f"s{s}.grpe"), 1 << 26, rng_seed=s)
            for s in range(20)
        ]
        cap = ceil((1 + SLACK) * 4000 / 2)
        gaps = {}
        for frac in (0.01, 0.05, 0.10, 0.30):
            refined, fixed = [], []
            for shuffled in shuffles:
                for refine, sink in ((True, refined), (False, fixed)):
                    config = GremConfig(chunk_frac=frac, refine=refine, capacity_slack=SLACK)
                    _, report = bisect(
                        efile=shuffled,
                        config=config,
                        on_chunk=_balance_hook(f"c2/{frac}/{refine}", cap),
                    )
                    sink.append(report.cut_fraction)
            gaps[frac] = float(np.mean(fixed) - np.mean(refined))
            assert len(refined) == len(fixed) == 20
        for frac in (0.01, 0.05, 0.10):
            assert gaps[frac] > 0, f"refinement did not win at chunk fraction {frac}"
        assert gaps[0.01] > gaps[0.30], gaps


def test_c03_near_optimal_recovery(tmp_path):
    with criterion(3, "near-optimal recovery on bridged cliques"):
        efile, _ = write_graph(CliqueUnionSpec(2, 16, bridges=1), str(tmp_path / "g.grpe"))
        edges = read_all_edges(efile)
        # the graph is connected, so any bipartition with two nonempty sides
        # cuts at least one edge; the clique split achieves exactly one
        assert is_connected(edges, 32)
        optimum = 1
        cap = ceil((1 + SLACK) * 32 / 2)
        good = 0
        for seed in range(20):
            shuffled = external_shuffle(
                efile, str(tmp_path / f"s{seed}.grpe"), 1 << 22, rng_seed=seed
            )
            config = GremConfig(chunk_frac=0.1, refine=True, capacity_slack=SLACK)
            labels, report = bisect(
                shuffled, config, on_chunk=_balance_hook(f"c3/{seed}", cap)
            )
            assert report.cut_edges >= optimum
            if report.cut_edges <= 3:
                good += 1
        assert good >= 18, f"only {good}/20 shuffle seeds reached cut <= 3"


def test_c04_eq1_correctness(tmp_path):
    with criterion(4, "hypergeometric model correctness"):
        # (a) exhaustive rational oracle for k <= 20
        for k in range(0, 21):
            for k0 in range(0, k + 1):
                for d in range(0, k + 1):
                    denom = comb(k, d)
                    running = Fraction(0)
                    for t in range(0, d + 1):
                        exact_pmf = Fraction(comb(k0, t) * comb(k - k0, d - t), denom)
                        running += exact_pmf
                        pmf, cdf = hypergeom_pmf_cdf(k, k0, d, t)
                        assert abs(pmf - float(exact_pmf)) <= 1e-12, (k, k0, d, t)
                        assert abs(cdf - float(running)) <= 1e-12, (k, k0, d, t)

        # (b) full-information identity: expected endpoints = 2 x reference cut
        rng = np.random.default_rng(7)
        edges = rng.integers(0, 60, size=(400, 2)).astype(np.int64)
        loops = edges[:, 0] == edges[:, 1]
        edges[loops, 1] = (edges[loops, 1] + 1) % 60
        labels = majority_align(edges, rng.integers(0, 2, size=60), 60)
        efile = make_edge_file(tmp_path / "ident.grpe", edges, 60)
        stats = compute_node_stats(efile, labels)
        point = expected_cuts(stats, 1.0, 1.0)
        report = count_cuts(efile, labels)
        assert point.expected_cuts == 2.0 * report.cut_edges

        # (c) Monte-Carlo one-shot greedy on a fixed 200-node graph
        mc_file, truth = write_graph(
            SbmSpec(2, 100, p_in=0.08, p_out=0.01, rng_seed=1), str(tmp_path / "mc.grpe")
        )
        mc_stats = compute_node_stats(mc_file, truth.astype(np.int64))
        mc_rng = np.random.default_rng(99)
        trials = 10_000
        for x in (0.05, 0.2, 0.5):
            totals = np.zeros(trials)
            for ki, k0i in zip(mc_stats.k.tolist(), mc_stats.k0.tolist()):
                if ki == 0:
                    continue
                d = draws_for(ki, x, 1.0)
                marks = np.zeros(ki)
                marks[:k0i] = 1.0
                keys = mc_rng.random((trials, ki))
                picked = np.argpartition(keys, d - 1, axis=1)[:, :d]
                sampled = marks[picked].sum(axis=1)
                totals += np.where(2 * sampled >= d, ki - k0i, k0i)
            point = expected_cuts(mc_stats, x, 1.0)
            se = totals.std(ddof=1) / np.sqrt(trials)
            assert abs(totals.mean() - point.expected_cuts) <= 3 * max(se, 1e-9), (
                x, totals.mean(), point.expected_cuts, se,
            )


def test_c05_refinement_dominance(tmp_path):
    with criterion(5, "theory refinement dominance (m=2 vs m=1)"):
        specs = [
            SbmSpec(2, 2000, p_in=0.01, p_out=0.0005, rng_seed=0),
            SbmSpec(2, 100, p_in=0.08, p_out=0.01, rng_seed=1),
            CliqueUnionSpec(2, 16, bridges=1),
            PathSpec(64),
            StarSpec(32),
        ]
        xs = np.concatenate([np.linspace(0.01, 0.1, 10), np.linspace(0.15, 1.0, 18)])
        for idx, spec in enumerate(specs):
            efile, truth = write_graph(spec, str(tmp_path / f"dom{idx}.grpe"))
            stats = compute_node_stats(efile, truth.astype(np.int64))
            base = theory_curve(stats, xs, multiplier=1)
            refined = theory_curve(stats, xs, multiplier=2)
            for b, r in zip(base, refined):
                assert r.expected_cuts <= b.expected_cuts, (type(spec).__name__, b.x)


def test_c06_memory_proportionality(tmp_path):
    with criterion(6, "memory proportional to chunk size"):
        num_nodes, num_edges = 50_000, 10_000_000
        path = str(tmp_path / "big.grpe")
        rng = np.random.default_rng(0)
        with BinaryEdgeWriter(path, num_nodes) as writer:
            for _ in range(10):
                writer.write(rng.integers(0, num_nodes, size=(num_edges // 10, 2)))
        efile = open_edge_file(path)
        state_sizes = []
        for frac in (0.01, 0.10):
            meter = ResidencyMeter()
            seen = []
            labels, _ = bisect(
                efile,
                GremConfig(chunk_frac=frac, capacity_slack=0.05),
                meter=meter,
                on_chunk=lambda state: seen.append(state.num_nodes) or None,
            )
            chunk_size = ceil(frac * num_edges)
            assert meter.peak <= 2 * chunk_size, (frac, meter.peak)
            assert meter.current == 0
            assert len(labels) == num_nodes
            # O(V) state: same per-node footprint at every checkpoint
            assert set(seen) == {num_nodes}
            state_sizes.append(seen[0])
        assert state_sizes[0] == state_sizes[1]  # constant across chunk fractions


def test_c07_storage_round_trip(tmp_path):
    with criterion(7, "bucketed storage and feature round trips"):
        rng = np.random.default_rng(3)
        for p in (2, 4, 8):
            edges, num_nodes = random_multigraph(rng, max_nodes=60, max_edges=800)
            labels = rng.integers(0, p, size=num_nodes)
            labels[rng.permutation(num_nodes)[:p]] = np.arange(p)  # all parts present
            efile = make_edge_file(tmp_path / f"g{p}.grpe", edges, num_nodes)
            store = str(tmp_path / f"g{p}.grpb")
            index = write_buckets(efile, labels, store)
            assert index.p == p
            union = []
            for i in range(p):
                for j in range(p):
                    bucket = read_bucket(store, i, j, index)
                    for u, v in bucket.tolist():
                        assert labels[u] == i and labels[v] == j
                    union.extend(map(tuple, bucket.tolist()))
            assert sorted(union) == sorted(map(tuple, edges.tolist()))
            assert read_index(store).total_edges == len(edges)

            width = int(rng.integers(1, 33))
            blob = rng.integers(0, 256, size=num_nodes * width).astype(np.uint8).tobytes()
            feat = tmp_path / f"f{p}.bin"
            feat.write_bytes(blob)
            grouped = str(tmp_path / f"f{p}.grouped")
            layout = reorder_features(str(feat), labels, width, grouped)
            for node in range(num_nodes):
                assert (
                    layout.read_record(grouped, node)
                    == blob[node * width : (node + 1) * width]
                )


def test_c08_placement_cover(tmp_path):
    with criterion(8, "placement plans cover partitions exactly once"):
        rng = np.random.default_rng(4)
        for _ in range(200):
            workers = int(rng.integers(1, 16))
            p = int(rng.integers(workers, workers + 128))
            seed = int(rng.integers(0, 1 << 31))
            plan = plan_assignment(p, workers, seed)
            flat = [pid for worker in plan.assignment for pid in worker]
            assert sorted(flat) == list(range(p))
            sizes = [len(worker) for worker in plan.assignment]
            assert max(sizes) - min(sizes) <= 1


def test_c09_comm_monotonicity(tmp_path):
    with criterion(9, "partitioned labels reduce simulated remote fetches"):
        efile, truth = write_graph(
            SbmSpec(2, 200, p_in=0.05, p_out=0.002, rng_seed=6), str(tmp_path / "g.grpe")
        )
        shuffled = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 24, rng_seed=0)
        labels, _ = bisect(shuffled, GremConfig(chunk_frac=0.2, capacity_slack=SLACK))
        rng = np.random.default_rng(8)
        random_labels = rng.permutation(np.repeat([0, 1], 200))
        plan = plan_assignment(2, 2, rng_seed=1)
        partitioned, random_mean = [], []
        for sim_seed in range(10):
            got = estimate_comm(shuffled, labels, plan, num_seeds=40, rng_seed=sim_seed)
            partitioned.append(sum(r for _, r in got))
            got = estimate_comm(shuffled, random_labels, plan, num_seeds=40, rng_seed=sim_seed)
            random_mean.append(sum(r for _, r in got))
        assert np.mean(partitioned) <= np.mean(random_mean), (partitioned, random_mean)

        replicated = PlacementPlan(2, plan.assignment, frozenset(range(400)))
        for sim_seed in range(10):
            got = estimate_comm(shuffled, labels, replicated, num_seeds=40, rng_seed=sim_seed)
            assert sum(r for _, r in got) == 0


def _digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def test_c10_cli_determinism(tmp_path, capsys):
    with criterion(10, "CLI reruns reproduce byte-identical artifacts"):
        efile, truth = write_graph(
            CliqueUnionSpec(2, 16, bridges=1), str(tmp_path / "g.grpe")
        )
        ref = str(tmp_path / "truth.grpl")
        write_labels(ref, truth.astype(np.int64), num_parts=2)
        feats = tmp_path / "f.bin"
        feats.write_bytes(bytes(range(256)) * (32 * 4 // 256 + 1))
        with open(feats, "r+b") as fh:
            fh.truncate(32 * 4)

        def artifacts(run_dir):
            run_dir.mkdir()
            out = {}
            cmds = {
                "labels": ["partition", efile.path, "--out", str(run_dir / "l.grpl"),
                           "--chunk-frac", "0.1", "--rng-seed", "5",
                           "--capacity-slack", "0.1"],
                "shuffled": ["shuffle", efile.path, str(run_dir / "s.grpe"),
                             "--rng-seed", "5"],
                "text": ["convert", efile.path, str(run_dir / "g.txt"), "--to", "text"],
                "curve": ["predict", efile.path, ref, "--xs", "0.1,0.5,1.0",
                          "--multiplier", "2", "--out", str(run_dir / "curve.csv")],
                "store": ["buckets", efile.path, ref, str(run_dir / "g.grpb")],
                "grouped": ["features", str(feats), ref, str(run_dir / "f.grouped"),
                            "--record-width", "4"],
                "plan": ["plan", str(run_dir / "plan.txt"), "--parts", "8",
                         "--workers", "3", "--rng-seed", "2"],
            }
            for name, argv in cmds.items():
                assert cli_main(argv) == 0
                capsys.readouterr()
            assert cli_main(
                ["comm-estimate", efile.path, ref, str(run_dir / "plan.txt"),
                 "--out", str(run_dir / "comm.csv"), "--num-seeds", "8", "--rng-seed", "3"]
            ) == 0
            capsys.readouterr()
            for artifact in ("l.grpl", "s.grpe", "g.txt", "curve.csv", "g.grpb",
                             "g.grpb.idx", "f.grouped", "f.grouped.layout",
                             "plan.txt", "comm.csv"):
                out[artifact] = _digest(run_dir / artifact)
            code = cli_main(["cut-stats", efile.path, ref, "--json"])
            assert code == 0
            out["cut-stats"] = capsys.readouterr().out
            return out

        first = artifacts(tmp_path / "first")
        second = artifacts(tmp_path / "second")
        assert first == second


def test_c11_balance_at_all_checkpoints():
    with criterion(11, "partition sizes within capacity at every checkpoint"):
        assert len(_BALANCE_LOG) > 1000, "criteria 1-3 did not record checkpoints"
        for tag, size0, size1, capacity in _BALANCE_LOG:
            assert size0 <= capacity and size1 <= capacity, (tag, size0, size1, capacity)
