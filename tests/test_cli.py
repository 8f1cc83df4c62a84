import hashlib
import json
from pathlib import Path

import numpy as np
import pytest

from streamcut import read_labels, write_labels
from streamcut.cli import main
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
    flags = ["--chunk-frac", "0.1", "--rng-seed", "11", "--parts", "4",
             "--capacity-slack", "0.25"]
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


def test_workdir_env_default(tmp_path, cliques, capsys, monkeypatch):
    efile, _ = cliques
    workdir = tmp_path / "scratch"
    monkeypatch.setenv("GREM_WORKDIR", str(workdir))
    out = tmp_path / "l.grpl"
    code, _ = run_json(capsys, "partition", efile.path, "--out", out, "--parts", "4",
                       "--chunk-frac", "0.5", "--capacity-slack", "0.5")
    assert code == 0
    assert workdir.is_dir()
