import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import streamcut
from streamcut import cli, read_labels, write_labels
from streamcut.cli import main
from streamcut.placement import plan_assignment, plan_to_text
from streamcut.synth import CliqueUnionSpec, write_graph

from helpers import make_edge_file


def digest(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr().out
    return code, out


def run_json(capsys, *argv):
    code, out = run(capsys, *argv, "--json")
    return code, json.loads(out)


@pytest.fixture
def cliques(tmp_path):
    efile, labels = write_graph(CliqueUnionSpec(2, 16, bridges=1), str(tmp_path / "g.grpe"))
    return efile, labels


def test_partition_reports_single_cut(tmp_path, cliques, capsys):
    efile, _ = cliques
    out_labels = tmp_path / "labels.grpl"
    code, payload = run_json(
        capsys, "partition", efile.path, "--out", out_labels, "--parts", "2",
        "--chunk-frac", "1.0",
    )
    assert code == 0
    assert payload["cut_edges"] == 1
    assert sorted(payload["partition_sizes"]) == [16, 16]
    labels, parts = read_labels(str(out_labels))
    assert parts == 2 and len(labels) == 32


def test_manifest_write_failure_keeps_the_earlier_manifest(tmp_path, cliques, capsys,
                                                          monkeypatch):
    efile, _ = cliques
    manifest = tmp_path / "run.manifest.json"
    argv = ("partition", efile.path, "--out", tmp_path / "labels.grpl", "--parts", "2",
            "--manifest", manifest)
    assert run(capsys, *argv)[0] == 0
    before = manifest.read_bytes()

    def dump(obj, fh, **kwargs):
        fh.write('{"command": "partition",')  # part of the manifest, then a full disk
        raise OSError(28, "No space left on device")

    monkeypatch.setattr(cli.json, "dump", dump)
    assert run(capsys, *argv)[0] == cli.EXIT_IO == 4
    assert manifest.read_bytes() == before
    assert not any(p.name.endswith(".tmp") for p in tmp_path.iterdir())


def test_partition_records_kernel(tmp_path, cliques, capsys):
    # the compiled kernels are the one implementation: neither the report nor
    # the manifest names a kernel set
    efile, _ = cliques
    out_labels = tmp_path / "l.grpl"
    code, payload = run_json(
        capsys, "partition", efile.path, "--out", out_labels, "--chunk-frac", "0.3"
    )
    assert code == 0
    manifest = json.loads(Path(payload["manifest"]).read_text())
    assert "kernel" not in payload and "kernel" not in manifest
    assert "kernel" not in manifest["config"]
    assert manifest["outputs"] == {str(out_labels): digest(out_labels)}


# one run of each command, from a directory holding g.grpe, its ground-truth
# bisection truth.grpl, a 32-node feature file f.bin and a 2-worker plan.txt
_RUNS = {
    "partition": ["g.grpe", "--out", "l.grpl", "--parts", "4", "--chunk-frac", "0.3"],
    "predict": ["g.grpe", "truth.grpl", "--out", "c.csv"],
    "shuffle": ["g.grpe", "s.grpe", "--rng-seed", "3"],
    "convert": ["g.grpe", "g.txt", "--to", "text"],
    "cut-stats": ["g.grpe", "truth.grpl"],
    "buckets": ["g.grpe", "truth.grpl", "b.grpb"],
    "features": ["f.bin", "truth.grpl", "o.bin", "--record-width", "4"],
    "plan": ["p.txt", "--parts", "2", "--workers", "2", "--edges", "g.grpe",
             "--replicate-budget", "2"],
    "comm-estimate": ["g.grpe", "truth.grpl", "plan.txt", "--out", "comm.csv",
                      "--num-seeds", "8"],
}


@pytest.mark.parametrize("command", list(_RUNS))
def test_every_command_keeps_the_run_protocol(tmp_path, cliques, capsys, monkeypatch, command):
    # every run writes one manifest with the same keys, and its report names
    # that manifest last
    _, truth = cliques
    monkeypatch.chdir(tmp_path)
    write_labels("truth.grpl", truth.astype(np.int64), num_parts=2)
    Path("f.bin").write_bytes(bytes(range(128)))
    Path("plan.txt").write_text(plan_to_text(plan_assignment(2, 2, 0)), encoding="ascii")
    argv = [command, *_RUNS[command]]
    code, plain = run(capsys, *argv)
    assert code == 0
    keys = [line.split(": ", 1)[0] for line in plain.splitlines()]
    assert keys[-1] == "manifest"
    code, payload = run_json(capsys, *argv)
    assert code == 0
    assert sorted(payload) == sorted(keys)
    manifest = json.loads(Path(payload["manifest"]).read_text())
    assert set(manifest) == {"command", "config", "input_digests", "outputs", "wall_time_s",
                             "peak_rss_bytes"}
    assert manifest["command"] == command


def test_partition_no_refine_single_chunk_identical(tmp_path, cliques, capsys):
    efile, _ = cliques
    a, b = tmp_path / "a.grpl", tmp_path / "b.grpl"
    assert run(capsys, "partition", efile.path, "--out", a, "--chunk-frac", "1.0")[0] == 0
    assert run(
        capsys, "partition", efile.path, "--out", b, "--chunk-frac", "1.0", "--no-refine"
    )[0] == 0
    assert digest(a) == digest(b)


def test_partition_rerun_is_byte_identical(tmp_path, cliques, capsys):
    efile, _ = cliques
    a, b = tmp_path / "a.grpl", tmp_path / "b.grpl"
    flags = ["--chunk-frac", "0.1", "--parts", "4", "--capacity-slack", "0.25"]
    code, pa = run_json(capsys, "partition", efile.path, "--out", a, *flags)
    assert code == 0
    code, pb = run_json(capsys, "partition", efile.path, "--out", b, *flags)
    assert code == 0
    assert digest(a) == digest(b)
    ma = json.loads(Path(pa["manifest"]).read_text())
    mb = json.loads(Path(pb["manifest"]).read_text())
    assert list(ma["outputs"].values()) == list(mb["outputs"].values())
    assert ma["input_digests"] == mb["input_digests"]
    assert ma["peak_rss_bytes"] > 0


def test_predict_full_information_identity(tmp_path, cliques, capsys):
    efile, truth = cliques
    ref = tmp_path / "truth.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=2)
    csv_path = tmp_path / "curve.csv"
    code, payload = run_json(
        capsys, "predict", efile.path, ref, "--xs", "1.0", "--multiplier", "1",
        "--out", csv_path,
    )
    assert code == 0
    code, stats = run_json(capsys, "cut-stats", efile.path, ref)
    assert code == 0
    # clique ground truth is majority-aligned, so the x=1 model charge is
    # exactly two endpoints per cut edge
    assert payload["points"][0]["expected_cuts"] == 2.0 * stats["cut_edges"]


def test_predict_multiplier_dominance_and_monotone(tmp_path, cliques, capsys):
    efile, truth = cliques
    ref = tmp_path / "truth.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=2)
    xs = "0.05,0.1,0.3,0.6,1.0"
    _, m1 = run_json(capsys, "predict", efile.path, ref, "--xs", xs,
                     "--multiplier", "1", "--out", tmp_path / "m1.csv")
    _, m2 = run_json(capsys, "predict", efile.path, ref, "--xs", xs,
                     "--multiplier", "2", "--out", tmp_path / "m2.csv")
    v1 = [p["expected_cuts"] for p in m1["points"]]
    v2 = [p["expected_cuts"] for p in m2["points"]]
    assert all(b <= a for a, b in zip(v1, v2))
    assert all(a >= b for a, b in zip(v1, v1[1:]))  # monotone non-increasing
    head = (tmp_path / "m1.csv").read_text().splitlines()[0]
    assert head == "x,expected_cuts,expected_cut_fraction,multiplier"


def test_cut_stats_all_same_label(tmp_path, capsys):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), np.zeros(3, dtype=np.int64), num_parts=1)
    code, payload = run_json(capsys, "cut-stats", efile.path, ref)
    assert code == 0
    assert payload["cut_fraction"] == 0.0


def test_label_file_num_parts_is_honoured(tmp_path, capsys):
    # partition 3 of the declared 4 is empty: the count must not shrink to 3
    efile = make_edge_file(tmp_path / "g.grpe", [[i, i + 1] for i in range(5)], 6)
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), np.array([0, 0, 1, 1, 2, 2]), num_parts=4)
    code, payload = run_json(capsys, "cut-stats", efile.path, ref)
    assert code == 0
    assert payload["partition_sizes"] == [2, 2, 2, 0]
    assert payload["balance_ratio"] == 2 / 2  # largest part / ceil(6 / 4)
    code, payload = run_json(capsys, "buckets", efile.path, ref, tmp_path / "g.grpb")
    assert code == 0
    assert payload["parts"] == 4
    feats = tmp_path / "f.bin"
    feats.write_bytes(bytes(range(6)))
    code, payload = run_json(capsys, "features", feats, ref, tmp_path / "grouped.bin",
                             "--record-width", "1")
    assert code == 0
    assert payload["extents"] == [[0, 2], [2, 2], [4, 2], [6, 0]]


def test_label_above_num_parts_is_a_data_error(tmp_path, capsys):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), np.array([0, 1, 2]), num_parts=3)
    raw = bytearray(ref.read_bytes())
    raw[16:20] = (2).to_bytes(4, "little")  # header num_parts: 3 -> 2
    ref.write_bytes(bytes(raw))
    feats = tmp_path / "f.bin"
    feats.write_bytes(bytes(3))
    for argv in (["cut-stats", efile.path, ref], ["buckets", efile.path, ref, tmp_path / "b"],
                 ["features", feats, ref, tmp_path / "o", "--record-width", "1"]):
        assert main([str(a) for a in argv]) == 3
        assert "label 2 >= num_parts 2" in capsys.readouterr().err


def test_declared_num_parts_must_fit_predict_and_the_plan(tmp_path, cliques, capsys):
    # the label file's num_parts is honoured: predict needs a bisection and
    # comm-estimate the plan's partition count, though every label would fit
    efile, truth = cliques
    ref = tmp_path / "l4.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=4)
    plan = tmp_path / "plan.txt"
    assert run(capsys, "plan", plan, "--parts", "2", "--workers", "2")[0] == 0
    for argv, message in (
        (["predict", efile.path, ref, "--out", tmp_path / "curve.csv"],
         "l4.grpl: declares 4 parts, not a bisection"),
        (["comm-estimate", efile.path, ref, plan, "--out", tmp_path / "comm.csv"],
         "l4.grpl: declares 4 parts, the plan places 2"),
    ):
        assert main([str(a) for a in argv]) == 3
        assert message in capsys.readouterr().err
    assert not (tmp_path / "curve.csv").exists() and not (tmp_path / "comm.csv").exists()


def test_shuffle_convert_round_trip(tmp_path, cliques, capsys):
    efile, _ = cliques
    shuf = tmp_path / "s.grpe"
    code, _ = run_json(capsys, "shuffle", efile.path, shuf, "--rng-seed", "3")
    assert code == 0
    again = tmp_path / "s2.grpe"
    run_json(capsys, "shuffle", efile.path, again, "--rng-seed", "3")
    assert digest(shuf) == digest(again)

    text = tmp_path / "g.txt"
    code, _ = run_json(capsys, "convert", shuf, text, "--to", "text")
    assert code == 0
    binary = tmp_path / "b.grpe"
    code, _ = run_json(capsys, "convert", text, binary, "--to", "binary")
    assert code == 0
    assert digest(binary) == digest(shuf)


def test_buckets_round_trip(tmp_path, cliques, capsys):
    efile, truth = cliques
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=2)
    store = tmp_path / "g.grpb"
    code, payload = run_json(capsys, "buckets", efile.path, ref, store)
    assert code == 0
    assert payload["total_edges"] == 241  # 2 * C(16,2) + the bridge
    from streamcut import read_bucket, read_index
    from streamcut.edgefile import read_all_edges

    index = read_index(str(store))
    union = []
    for i in range(index.p):
        for j in range(index.p):
            union.extend(map(tuple, read_bucket(str(store), i, j, index).tolist()))
    assert sorted(union) == sorted(map(tuple, read_all_edges(efile).tolist()))


def test_features_cli(tmp_path, capsys):
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"AABBCC")
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), np.array([1, 0, 1]), num_parts=2)
    out = tmp_path / "grouped.bin"
    code, payload = run_json(capsys, "features", feats, ref, out, "--record-width", "2")
    assert code == 0
    assert out.read_bytes() == b"BBAACC"
    assert payload["extents"] == [[0, 1], [1, 2]]


def test_plan_single_worker(tmp_path, capsys):
    out = tmp_path / "plan.txt"
    code, _ = run_json(capsys, "plan", out, "--parts", "4", "--workers", "1")
    assert code == 0
    lines = [l for l in out.read_text().splitlines() if l]
    assert len(lines) == 1
    assert sorted(int(x) for x in lines[0].split(":")[1].split(",")) == [0, 1, 2, 3]


def test_plan_with_replication_and_comm(tmp_path, cliques, capsys):
    efile, truth = cliques
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=2)
    plan_path = tmp_path / "plan.txt"
    code, payload = run_json(
        capsys, "plan", plan_path, "--parts", "2", "--workers", "2",
        "--edges", efile.path, "--replicate-budget", "2",
    )
    assert code == 0
    assert payload["replicated_nodes"] == 2
    csv_path = tmp_path / "comm.csv"
    code, payload = run_json(
        capsys, "comm-estimate", efile.path, ref, plan_path,
        "--out", csv_path, "--num-seeds", "8", "--rng-seed", "1",
    )
    assert code == 0
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "worker,local,remote"
    assert len(lines) == 3
    assert sum(p["local"] for p in payload["per_worker"]) > 0


@pytest.fixture
def comm_inputs(tmp_path, cliques, capsys):
    efile, truth = cliques
    ref = tmp_path / "l.grpl"
    write_labels(str(ref), truth.astype(np.int64), num_parts=2)
    plan_path = tmp_path / "plan.txt"
    assert run(capsys, "plan", plan_path, "--parts", "2", "--workers", "2")[0] == 0
    return efile.path, ref, plan_path


def test_comm_estimate_records_kernel(tmp_path, comm_inputs, capsys):
    # as for partition: no kernel set in the report or the manifest
    csv_path = tmp_path / "comm.csv"
    code, payload = run_json(
        capsys, "comm-estimate", *comm_inputs, "--out", csv_path, "--num-seeds", "8",
        "--fanouts", "3,2",
    )
    assert code == 0
    manifest = json.loads(Path(payload["manifest"]).read_text())
    assert "kernel" not in payload and "kernel" not in manifest
    assert "kernel" not in manifest["config"]
    assert manifest["outputs"] == {str(csv_path): digest(csv_path)}


@pytest.mark.parametrize("fanouts", ["0", "3,0,2", "", "99999999999999999999",
                                     "-99999999999999999999"])
def test_comm_estimate_bad_fanouts_is_a_data_error(tmp_path, comm_inputs, capsys, fanouts):
    out = tmp_path / "comm.csv"
    code = main([str(a) for a in ("comm-estimate", *comm_inputs, "--out", out,
                                  "--num-seeds", "8", "--fanouts", fanouts)])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: fanouts")
    assert "Traceback" not in captured.err
    assert not out.exists()


def test_exit_codes(tmp_path, capsys):
    bad = tmp_path / "bad.txt"
    bad.write_text("0 1\nnot numbers\n")
    code = main(["cut-stats", str(bad), str(tmp_path / "missing.grpl")])
    assert code == 3  # malformed data
    capsys.readouterr()

    good = tmp_path / "g.txt"
    good.write_text("0 1\n")
    code = main(["cut-stats", str(tmp_path / "nope.txt"), str(tmp_path / "nope.grpl")])
    assert code == 4  # missing file -> I/O error
    capsys.readouterr()

    with pytest.raises(SystemExit) as exc:
        main(["partition"])  # missing required arguments
    assert exc.value.code == 2
    capsys.readouterr()

    before = sorted(p.name for p in tmp_path.iterdir())
    with pytest.raises(SystemExit) as exc:  # a budget with no edges to rank
        main(["plan", str(tmp_path / "p.txt"), "--parts", "2", "--workers", "1",
              "--replicate-budget", "1"])
    assert exc.value.code == 2
    assert "--replicate-budget requires --edges" in capsys.readouterr().err
    assert sorted(p.name for p in tmp_path.iterdir()) == before

    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    ref = tmp_path / "ref.grpl"
    write_labels(str(ref), np.array([0, 1]), num_parts=2)
    for argv, name in (  # NaN passes a plain `< bound` test
        (["partition", efile.path, "--out", tmp_path / "nan.grpl", "--capacity-slack", "nan"],
         "capacity_slack"),
        (["predict", efile.path, ref, "--xs", "0.5", "--multiplier", "nan", "--out",
          tmp_path / "nan.csv"], "multiplier"),
    ):
        assert main([str(a) for a in argv]) == 3  # malformed data
        err = capsys.readouterr().err
        assert err.startswith(f"error: {name} must be >= ") and "Traceback" not in err
        assert not (tmp_path / "nan.grpl").exists() and not (tmp_path / "nan.csv").exists()


def test_partition_infinite_slack_sets_no_bound(tmp_path, cliques, capsys):
    # an infinite or overflowing slack caps a part at the node count, as slack
    # p - 1 does at p parts, so the labels are the same
    efile, _ = cliques
    for parts, no_bound in (("2", "1"), ("4", "3")):
        digests = set()
        for slack in (no_bound, "inf", "1e308"):
            out = tmp_path / f"p{parts}_{slack}.grpl"
            code, _ = run(capsys, "partition", efile.path, "--out", out, "--parts", parts,
                          "--chunk-frac", "0.25", "--capacity-slack", slack)
            assert code == 0, (parts, slack)
            digests.add(digest(out))
        assert len(digests) == 1, parts


def test_partition_rejects_part_counts_the_label_file_cannot_hold(tmp_path, cliques, capsys):
    efile, _ = cliques
    before = sorted(p.name for p in tmp_path.iterdir())
    for parts in (2**32, 2**40):  # powers of two, above the 2**31 labels a file holds
        code = main(["partition", efile.path, "--out", str(tmp_path / "l.grpl"),
                     "--parts", str(parts)])
        assert code == 3
        assert capsys.readouterr().err == (f"error: number of parts must be at most 2**31, "
                                           f"got {parts}\n")
    assert sorted(p.name for p in tmp_path.iterdir()) == before


def test_partition_text_input_and_chunk_edges(tmp_path, capsys):
    src = tmp_path / "g.txt"
    src.write_text("".join(f"{u} {v}\n" for u in range(4) for v in range(u + 1, 4))
                   + "".join(f"{u} {v}\n" for u in range(4, 8) for v in range(u + 1, 8))
                   + "0 4\n")
    out = tmp_path / "l.grpl"
    code, payload = run_json(
        capsys, "partition", src, "--out", out, "--chunk-edges", "13"
    )
    assert code == 0
    assert payload["cut_edges"] == 1
    assert sorted(payload["partition_sizes"]) == [4, 4]


# Run in a child that lowers its own file-size limit to 50,000 bytes: the
# 40,000-edge input (320,016 bytes) is already written, but the subgraph a
# level-1 bisection extracts (about a quarter of the edges, some 80,000
# bytes) can be written only in part.
_EXTRACT_CHILD = """
import resource, sys
from streamcut import cli
resource.setrlimit(resource.RLIMIT_FSIZE, (50_000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
print("exit", cli.main(sys.argv[1:]))
"""


def test_failed_extraction_leaves_no_partial_file(tmp_path):
    rng = np.random.default_rng(4)
    efile = make_edge_file(tmp_path / "g.grpe", rng.integers(0, 2000, size=(40_000, 2)), 2000)
    path = [str(Path(streamcut.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", _EXTRACT_CHILD, "partition", efile.path,
                            "--parts", "4", "--out", str(tmp_path / "l.grpl")],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["exit", "4"], child.stderr
    # no partial subgraph, no temporary and no scratch directory
    assert [p.name for p in tmp_path.iterdir()] == ["g.grpe"]


# A file that declares 2**32 + 1 nodes (one u64 edge, 44 bytes) is refused
# by the library and the CLI before any per-node array is made.  The child
# caps its address space at 2 GiB, so a regression fails on an allocation
# of 4 GiB and more instead of touching it.
_HUGE_CHILD = """
import resource, sys
from streamcut import FormatError, GremConfig, bisect, cli, open_edge_file, partition
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
edges, workdir, out = sys.argv[1:]
efile = open_edge_file(edges)
for call in (lambda: bisect(efile, GremConfig()), lambda: partition(efile, 4, GremConfig(), workdir)):
    try:
        call()
    except FormatError as exc:
        print("refused:", exc)
print("exit", cli.main(["partition", edges, "--out", out]))
"""


def test_more_than_2_32_nodes_are_refused_before_any_per_node_array(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 2**32]], 2**32 + 1)
    assert os.path.getsize(efile.path) == 44
    path = [str(Path(streamcut.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", _HUGE_CHILD, efile.path,
                            str(tmp_path / "work"), str(tmp_path / "l.grpl")],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    refused = "refused: node ids must lie below 2**32, got ids up to 4294967296"
    assert child.stdout.splitlines() == [refused, refused, "exit 3"], child.stderr
    assert child.stderr == "error: node ids must lie below 2**32, got ids up to 4294967296\n"
    assert [p.name for p in tmp_path.iterdir()] == ["g.grpe"]


# A label file that declares 2**20 parts asks `buckets` for a p x p count
# table of 8 TiB.  The child caps its address space at 2 GiB, so a host that
# overcommits never touches the memory.
_TOO_BIG_CHILD = """
import resource, sys
from streamcut import cli
resource.setrlimit(resource.RLIMIT_AS, (2 << 30, resource.getrlimit(resource.RLIMIT_AS)[1]))
print("exit", cli.main(sys.argv[1:]))
"""


def test_an_input_too_large_for_memory_is_a_data_error(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    labels = tmp_path / "big.grpl"
    write_labels(str(labels), np.array([0, 1, 2]), num_parts=1 << 20)
    path = [str(Path(streamcut.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", _TOO_BIG_CHILD, "buckets", efile.path,
                            str(labels), str(tmp_path / "out.grpb")],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["exit", "3"], child.stderr
    assert child.stderr.startswith("error: ") and child.stderr.count("\n") == 1, child.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["big.grpl", "g.grpe"]


@pytest.mark.parametrize("xs", ["", ","])
def test_predict_with_no_chunk_fraction_is_a_data_error(tmp_path, cliques, capsys, xs):
    efile, truth = cliques
    ref = tmp_path / "ref.grpl"
    write_labels(str(ref), truth % 2, num_parts=2)
    out = tmp_path / "curve.csv"
    code = main(["predict", efile.path, str(ref), "--xs", xs, "--out", str(out)])
    assert code == 3
    assert capsys.readouterr().err == (
        "error: chunk fractions must be one or more values in (0, 1], got []\n")
    assert not out.exists()
