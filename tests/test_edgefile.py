import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

import streamcut
import streamcut.cli
from streamcut import (
    ChunkPlan,
    EdgeChunk,
    FormatError,
    ResidencyMeter,
    convert,
    count_cuts,
    external_shuffle,
    open_edge_file,
    read_labels,
    reorder_features,
    stream_chunks,
    write_buckets,
    write_labels,
)
from streamcut import edgefile
from streamcut.edgefile import IO_BLOCK, BinaryEdgeWriter
from streamcut.edgefile import read_all_edges as read_all_edges_of

from helpers import dir_bytes, make_edge_file, reference_shuffle


class Crash(Exception):
    pass


def test_convert_text_to_binary(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n")
    efile = open_edge_file(str(src), num_nodes=3)
    assert efile.meta.num_nodes == 3 and efile.meta.num_edges == 2
    out = convert(efile, str(tmp_path / "g.grpe"), "binary")
    assert out.meta.num_nodes == 3 and out.meta.num_edges == 2
    back = convert(out, str(tmp_path / "back.txt"), "text")
    assert (tmp_path / "back.txt").read_text() == "# nodes 3\n0 1\n1 2\n"


def test_convert_infers_num_nodes(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("# comment\n0 1\n\n4 2\n")
    efile = open_edge_file(str(src))
    assert efile.meta.num_nodes == 5
    assert efile.meta.num_edges == 2


def test_text_ids_use_all_64_bits_and_no_more(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text(f"0 {2**63 + 1}\n{2**64 - 2} 5\n")
    efile = open_edge_file(str(src))
    assert efile.meta.num_nodes == 2**64 - 1 and efile.meta.node_id_width == 64
    out = convert(efile, str(tmp_path / "g.grpe"), "binary")
    assert read_all_edges_of(out).tolist() == [[0, 2**63 + 1], [2**64 - 2, 5]]
    for big in (2**64 - 1, 2**64):  # no u64 num_nodes covers them
        src.write_text(f"0 1\n{big} 2\n")
        with pytest.raises(FormatError, match=rf"g.txt:2: node id {big} >= 2\*\*64 - 1"):
            open_edge_file(str(src))


def test_convert_empty_edge_list(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing here\n")
    efile = open_edge_file(str(src), num_nodes=5)
    out = convert(efile, str(tmp_path / "empty.grpe"), "binary")
    assert out.meta.num_edges == 0
    assert out.meta.num_nodes == 5


def test_an_emptied_edge_file_is_a_format_error(tmp_path):
    # a binary edge file cut to zero bytes, as a power loss may leave one, is
    # never read as an empty text edge list: not when opened, nor by a pass
    # over the file as it was opened
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    Path(efile.path).write_bytes(b"")
    labels = np.array([0, 1, 0])
    write_labels(str(tmp_path / "l.grpl"), labels)
    with pytest.raises(FormatError, match="g.grpe: empty file, not an edge list$"):
        open_edge_file(efile.path)
    for run in (lambda: read_all_edges_of(efile), lambda: count_cuts(efile, labels),
                lambda: write_buckets(efile, labels, str(tmp_path / "b.grpb")),
                lambda: convert(efile, str(tmp_path / "c.txt"), "text")):
        with pytest.raises(FormatError, match="g.grpe: too short for a binary edge header"):
            run()
    assert streamcut.cli.main(["cut-stats", efile.path, str(tmp_path / "l.grpl")]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grpe", "l.grpl"]


def test_an_empty_graph_round_trips_through_text(tmp_path):
    # no edges: the text file is one comment line, never zero bytes
    empty = make_edge_file(tmp_path / "e.grpe", np.empty((0, 2), dtype=np.int64), 5)
    text = convert(empty, str(tmp_path / "e.txt"), "text")
    assert Path(text.path).read_text(encoding="ascii") == "# nodes 5\n"
    back = convert(open_edge_file(text.path, num_nodes=5), str(tmp_path / "b.grpe"), "binary")
    assert Path(back.path).read_bytes() == Path(empty.path).read_bytes()
    assert (back.meta.num_nodes, back.meta.num_edges) == (5, 0)


def test_text_edge_files_keep_their_node_count(tmp_path):
    # a 10-node graph whose largest id is 5 reopens with 10 nodes, not 6
    first = make_edge_file(tmp_path / "a.grpe", [[0, 5], [5, 3], [2, 2]], 10)
    text = convert(first, str(tmp_path / "a.txt"), "text")
    assert Path(text.path).read_text(encoding="ascii") == "# nodes 10\n0 5\n5 3\n2 2\n"
    assert open_edge_file(text.path).meta == text.meta == first.meta
    assert open_edge_file(text.path, num_nodes=10).meta.num_nodes == 10
    back = convert(open_edge_file(text.path), str(tmp_path / "b.grpe"), "binary")
    assert Path(back.path).read_bytes() == Path(first.path).read_bytes()
    # a requested count that disagrees with the line is refused, as with a binary header
    for other in (6, 11):
        with pytest.raises(FormatError, match=f"num_nodes 10 in its '# nodes' line != "
                                              f"requested {other}"):
            open_edge_file(text.path, num_nodes=other)
    src = tmp_path / "g.txt"
    src.write_text("# nodes 4\n0 1\n4 2\n")  # an id at or above the declared count
    with pytest.raises(FormatError, match="edge endpoint 4 >= num_nodes 4"):
        open_edge_file(str(src))
    src.write_text(f"# nodes {2**64}\n0 1\n")
    with pytest.raises(FormatError, match=r"g.txt:1: num_nodes 18446744073709551616 > 2\*\*64"):
        open_edge_file(str(src))
    # only a first line declares; elsewhere it is a comment, and the count is inferred
    src.write_text("0 1\n# nodes 40\n")
    assert open_edge_file(str(src)).meta.num_nodes == 2
    # a graph has a node: a count below 1, declared or requested, is refused, and
    # only an edgeless file with no declaration is inferred as one node
    src.write_text("# nodes 0\n")
    with pytest.raises(FormatError, match="g.txt: num_nodes 0, a graph has at least one node"):
        open_edge_file(str(src))
    src.write_text("# an edgeless graph\n")
    assert open_edge_file(str(src)).meta.num_nodes == 1
    out = tmp_path / "z.grpe"
    for requested in (0, -1):
        with pytest.raises(FormatError, match=f"num_nodes {requested}, a graph has"):
            open_edge_file(str(src), num_nodes=requested)
        assert streamcut.cli.main(["convert", str(src), str(out), "--to", "binary",
                                   "--num-nodes", str(requested)]) == 3
        assert not out.exists()
    # a byte outside ASCII is a FormatError naming the file, never a decode error
    src.write_bytes(b"0 1\n1 \xe9\n")
    with pytest.raises(FormatError, match="g.txt: byte 0xe9 is not ASCII"):
        open_edge_file(str(src))


def test_binary_text_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 500, size=(1000, 2)).astype(np.int64)
    first = make_edge_file(tmp_path / "a.grpe", edges, 500)
    text = convert(first, str(tmp_path / "a.txt"), "text")
    final = convert(text, str(tmp_path / "b.grpe"), "binary")
    from streamcut.edgefile import read_all_edges

    assert np.array_equal(read_all_edges(final), edges)


def test_malformed_line_reports_lineno(tmp_path):
    src = tmp_path / "bad.txt"
    src.write_text("0 1\n1 2 3\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        open_edge_file(str(src))
    src.write_text("0 1\nx y\n")
    with pytest.raises(FormatError, match="bad.txt:2"):
        open_edge_file(str(src))


@pytest.mark.parametrize("line, message", [
    # int() would read these as 10 and 3
    ("1_0 2", "non-integer node id in '1_0 2'"),
    ("+3 0", "non-integer node id in '+3 0'"),
    ("-1 0", "negative node id"),
    ("0 -0", "negative node id"),
    ("0 -x", "non-integer node id in '0 -x'"),
])
def test_text_ids_are_ascii_decimal(tmp_path, line, message):
    src = tmp_path / "g.txt"
    src.write_text(f"0 1\n{line}\n")
    with pytest.raises(FormatError, match=f"^{re.escape(str(src))}:2: {re.escape(message)}$"):
        open_edge_file(str(src))
    with pytest.raises(FormatError, match=f":2: {re.escape(message)}$"):
        open_edge_file(str(src), num_nodes=20)


def test_id_out_of_range(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("0 9\n")
    with pytest.raises(FormatError):
        open_edge_file(str(src), num_nodes=3)
    with pytest.raises(FormatError), BinaryEdgeWriter(str(tmp_path / "o.grpe"), 3) as writer:
        writer.write(np.array([[0, 9]]))


def test_header_payload_mismatch(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    with open(efile.path, "ab") as fh:
        fh.write(b"XX")
    with pytest.raises(FormatError):
        open_edge_file(efile.path)


def test_shuffle_is_permutation_and_deterministic(tmp_path):
    edges = np.array([[i, (i + 1) % 10] for i in range(10)], dtype=np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 10)
    out1 = external_shuffle(efile, str(tmp_path / "s1.grpe"), 1 << 20, rng_seed=42)
    out2 = external_shuffle(efile, str(tmp_path / "s2.grpe"), 1 << 20, rng_seed=42)
    from streamcut.edgefile import read_all_edges

    shuffled = read_all_edges(out1)
    assert sorted(map(tuple, shuffled.tolist())) == sorted(map(tuple, edges.tolist()))
    assert (tmp_path / "s1.grpe").read_bytes() == (tmp_path / "s2.grpe").read_bytes()
    out3 = external_shuffle(efile, str(tmp_path / "s3.grpe"), 1 << 20, rng_seed=43)
    assert read_all_edges(out3).shape == shuffled.shape


def test_shuffle_scatter_path_preserves_multiset(tmp_path):
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 300, size=(20000, 2)).astype(np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 300)
    # budget far below the 320 KB in-memory footprint forces the two-pass path
    out = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 16, rng_seed=1)
    from streamcut.edgefile import read_all_edges

    shuffled = read_all_edges(out)
    assert sorted(map(tuple, shuffled.tolist())) == sorted(map(tuple, edges.tolist()))
    assert not np.array_equal(shuffled, edges)


@pytest.mark.parametrize(
    "num_edges, budget",
    [(3000, 1 << 20), (5000, 1 << 16), (20000, 1 << 16)],  # in memory, 3 and 10 buckets
)
def test_shuffle_equals_reference(tmp_path, num_edges, budget):
    rng = np.random.default_rng(num_edges)
    edges = rng.integers(0, 500, size=(num_edges, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 500)
    external_shuffle(efile, str(tmp_path / "s.grpe"), budget, rng_seed=7)
    make_edge_file(tmp_path / "want.grpe", reference_shuffle(edges, budget, 7), 500)
    assert (tmp_path / "s.grpe").read_bytes() == (tmp_path / "want.grpe").read_bytes()


class FirstScatterToBucketZero:
    """A generator whose first ``rigged`` ``integers`` draws all give bucket 0.

    Each rigged call still draws from the real generator, so the stream
    stays in step; everything else is the real generator's.
    """

    def __init__(self, rng, rigged):
        self._rng = rng
        self.rigged = rigged
        self.integers_calls = 0

    def integers(self, low, high, size):
        self.integers_calls += 1
        ids = self._rng.integers(low, high, size=size)
        if self.rigged:
            self.rigged -= 1
            return np.zeros_like(ids)
        return ids

    def __getattr__(self, name):
        return getattr(self._rng, name)


def test_shuffle_rescatters_a_bucket_above_the_budget(tmp_path, monkeypatch):
    # 5,000 edges at the smallest budget: 3 buckets, read in 5 blocks of 1,024
    # edges; rigging the 5 first-level draws puts all 80 kB in bucket 0, above
    # the 64 KiB budget, so it is scattered again before it is loaded
    rng = np.random.default_rng(13)
    edges = rng.integers(0, 400, size=(5000, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 400)
    out = tmp_path / "s.grpe"
    rigged = []
    real_default_rng = np.random.default_rng

    def default_rng(seed):
        rigged.append(FirstScatterToBucketZero(real_default_rng(seed), rigged=5))
        return rigged[-1]

    loads, left = [], []
    real_read_all = edgefile.read_all_edges

    def read_all_edges(source):
        loads.append(source.meta.num_edges)
        left.append(sorted(p.name for p in tmp_path.iterdir() if ".scatter" in p.name))
        return real_read_all(source)

    with monkeypatch.context() as patch:
        patch.setattr(edgefile.np.random, "default_rng", default_rng)
        patch.setattr(edgefile, "read_all_edges", read_all_edges)
        shuffled = read_all_edges_of(external_shuffle(efile, str(out), IO_BLOCK, 3))
    assert rigged[0].rigged == 0 and rigged[0].integers_calls == 10  # 5 + 5 again
    assert sorted(map(tuple, shuffled.tolist())) == sorted(map(tuple, edges.tolist()))
    assert sum(loads) == 5000 and max(loads) * 16 <= IO_BLOCK, loads
    assert left[-1] == ["s.grpe.scatter2"]  # each temporary goes once it is used
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grpe", "s.grpe"]


@pytest.mark.parametrize("budget", [1 << 16, 1 << 24])  # scatter path, in-memory path
def test_shuffle_failure_leaves_only_the_input(tmp_path, budget):
    rng = np.random.default_rng(4)
    edges = rng.integers(0, 300, size=(51200, 2))
    make_edge_file(tmp_path / "g.grpe", edges, 300)
    efile = open_edge_file(str(tmp_path / "g.grpe"))
    # an out-of-range id in the last block, after many scatter temps are written
    raw = bytearray((tmp_path / "g.grpe").read_bytes())
    raw[-8:-4] = (999).to_bytes(4, "little")
    (tmp_path / "g.grpe").write_bytes(bytes(raw))
    with pytest.raises(FormatError, match="999"):
        external_shuffle(efile, str(tmp_path / "out.grpe"), budget, rng_seed=0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grpe"]


@pytest.mark.parametrize("budget", [1 << 16, 1 << 24])  # scatter path, in-memory path
def test_shuffle_crash_mid_write_keeps_the_earlier_output(tmp_path, monkeypatch, budget):
    rng = np.random.default_rng(5)
    efile = make_edge_file(tmp_path / "g.grpe", rng.integers(0, 300, size=(20000, 2)), 300)
    out = str(tmp_path / "out.grpe")
    external_shuffle(efile, out, budget, rng_seed=1)
    before = dir_bytes(tmp_path)
    real_write = BinaryEdgeWriter.write
    calls = []

    def write(self, edges):
        # the output writer writes once on the in-memory path and once per
        # bucket on the scatter path: crash halfway through the last write
        # there is; the scatter temporaries' writes pass
        if self.path != out + ".tmp":
            return real_write(self, edges)
        calls.append(len(edges))
        if len(calls) == (1 if budget > 20000 * 16 else 2):
            real_write(self, edges[: len(edges) // 2])
            raise Crash
        real_write(self, edges)

    monkeypatch.setattr(BinaryEdgeWriter, "write", write)
    with pytest.raises(Crash):
        external_shuffle(efile, out, budget, rng_seed=2)
    assert dir_bytes(tmp_path) == before  # the old output, and no temporary


@pytest.mark.parametrize("crash_at", ["header", "rename"])
def test_write_labels_crash_keeps_the_earlier_file(tmp_path, monkeypatch, crash_at):
    path = str(tmp_path / "l.grpl")
    write_labels(path, np.array([0, 1, 1, -1]), num_parts=2)
    before = dir_bytes(tmp_path)

    class ExplodingHeader:
        size = edgefile._LABELS_HEADER.size

        def pack(self, *fields):
            raise Crash

    def replace(src, dst):
        complete = edgefile._LABELS_HEADER.size + 4 * 3
        assert src == path + ".tmp" and (tmp_path / "l.grpl.tmp").stat().st_size == complete
        raise Crash

    if crash_at == "header":  # the temporary file is open and empty
        monkeypatch.setattr(edgefile, "_LABELS_HEADER", ExplodingHeader())
    else:  # the temporary file is complete
        monkeypatch.setattr(edgefile.os, "replace", replace)
    with pytest.raises(Crash):
        write_labels(path, np.array([1, 0, 0]), num_parts=2)
    assert dir_bytes(tmp_path) == before


def test_outputs_are_never_renamed_over_an_existing_file(tmp_path, monkeypatch):
    # ext4 writes a file back before renaming it over another, so every writer
    # clears the way first: each rename, rewrites included, lands on a free name
    rng = np.random.default_rng(12)
    edges = rng.integers(0, 60, size=(3000, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 60)
    labels = rng.integers(0, 3, size=60)
    feats = tmp_path / "f.bin"
    feats.write_bytes(rng.integers(0, 256, size=60 * 4, dtype=np.uint8).tobytes())
    renames = []

    def checked(real):
        def rename(src, dst):
            renames.append((os.path.basename(src), os.path.basename(dst), os.path.exists(dst)))
            real(src, dst)
        return rename

    monkeypatch.setattr(edgefile.os, "replace", checked(os.replace))
    monkeypatch.setattr(edgefile.os, "rename", checked(os.rename))
    for budget in (IO_BLOCK, 1 << 24):  # scatter path, then in-memory path over it
        shuffled = external_shuffle(efile, str(tmp_path / "s.grpe"), budget, rng_seed=3)
    for out_format in ("binary", "text"):
        for _ in range(2):
            convert(efile, str(tmp_path / f"c.{out_format}"), out_format)
    for p in (3, 4):
        write_labels(str(tmp_path / "l.grpl"), labels, num_parts=p)
        write_buckets(shuffled, labels, str(tmp_path / "b.grpb"), p)
        reorder_features(str(feats), labels, 4, str(tmp_path / "o.bin"), p)
    assert renames and not [r for r in renames if r[2]]
    for out in ("s.grpe", "c.binary", "c.text", "l.grpl", "b.grpb", "b.grpb.idx", "o.bin",
                "o.bin.layout"):
        assert (out + ".tmp", out, False) in renames
    assert ("s.grpe", "s.grpe.old", False) in renames
    assert sorted(f.name for f in tmp_path.iterdir()) == [
        "b.grpb", "b.grpb.idx", "c.binary", "c.text", "f.bin", "g.grpe", "l.grpl", "o.bin",
        "o.bin.layout", "s.grpe"]
    got, parts = read_labels(str(tmp_path / "l.grpl"))
    assert got.tolist() == labels.tolist() and parts == 4
    assert sorted(map(tuple, read_all_edges_of(shuffled).tolist())) == sorted(
        map(tuple, edges.tolist()))


def test_a_failed_rename_leaves_the_earlier_output_or_nothing(tmp_path, monkeypatch):
    efile = make_edge_file(tmp_path / "g.grpe", np.arange(40).reshape(20, 2) % 7, 7)
    out = str(tmp_path / "s.grpe")
    real_replace = os.replace

    def replace(src, dst):
        if src == out + ".tmp":
            raise Crash
        real_replace(src, dst)

    monkeypatch.setattr(edgefile.os, "replace", replace)
    with pytest.raises(Crash):
        external_shuffle(efile, out, IO_BLOCK, rng_seed=1)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["g.grpe"]  # no name, no .tmp
    monkeypatch.setattr(edgefile.os, "replace", real_replace)
    external_shuffle(efile, out, IO_BLOCK, rng_seed=1)
    before = dir_bytes(tmp_path)
    monkeypatch.setattr(edgefile.os, "replace", replace)
    with pytest.raises(Crash):
        external_shuffle(efile, out, IO_BLOCK, rng_seed=2)
    assert dir_bytes(tmp_path) == before  # the earlier output moved back, no .tmp or .old


@pytest.mark.parametrize("fail", [None, "body", "rename"])
def test_files_named_like_the_set_aside_output_are_kept(tmp_path, monkeypatch, fail):
    # temporaries and the old output go to names no file has, so an input
    # called <out>.old and unrelated <out>.old1 and <out>.tmp files survive a
    # run, failed or not
    rng = np.random.default_rng(13)
    efile = make_edge_file(tmp_path / "s.grpe.old", rng.integers(0, 40, size=(500, 2)), 40)
    (tmp_path / "o.bin.old").write_bytes(rng.integers(0, 256, size=40 * 4, dtype=np.uint8))
    labels = rng.integers(0, 3, size=40)
    external_shuffle(efile, str(tmp_path / "s.grpe"), IO_BLOCK, rng_seed=1)
    reorder_features(str(tmp_path / "o.bin.old"), labels, 4, str(tmp_path / "o.bin"), 3)
    (tmp_path / "s.grpe.old1").write_bytes(b"someone else's")
    (tmp_path / "s.grpe.tmp").write_bytes(b"not a temporary")
    before = dir_bytes(tmp_path)
    real_replace, real_write = os.replace, BinaryEdgeWriter.write

    def replace(src, dst):
        if fail == "rename" and src.endswith(("s.grpe.tmp1", "o.bin.tmp")):
            raise Crash
        real_replace(src, dst)

    def write(self, edges):
        if fail == "body" and self.path.endswith("s.grpe.tmp1"):
            raise Crash
        real_write(self, edges)

    def save(self, path):
        raise Crash

    monkeypatch.setattr(edgefile.os, "replace", replace)
    monkeypatch.setattr(BinaryEdgeWriter, "write", write)
    if fail == "body":
        monkeypatch.setattr(streamcut.store.FeatureLayout, "save", save)
    for run in (lambda: external_shuffle(efile, str(tmp_path / "s.grpe"), IO_BLOCK, rng_seed=2),
                lambda: reorder_features(str(tmp_path / "o.bin.old"), labels[::-1].copy(), 4,
                                         str(tmp_path / "o.bin"), 3)):
        if fail:
            with pytest.raises(Crash):
                run()
        else:
            run()
    after = dir_bytes(tmp_path)
    gone = {"o.bin.layout"} if fail == "rename" else set()  # old sidecars go before the renames
    assert sorted(after) == sorted(set(before) - gone)
    changed = {name for name in after if after[name] != before[name]}
    assert changed == (set() if fail else {"s.grpe", "o.bin", "o.bin.layout"})


# Run in a child that lowers its own file-size limit to 1000 bytes: the new
# 500-entry label file (2020 bytes), the 8 x 8 bucket index (1024 bytes), a
# 40-point predict curve, a 400-part plan and a 200-worker traffic CSV (each
# above 1000 bytes) can each be written only in part, while the 50-edge store
# (424 bytes) fits.  The CLI reports the failed write as an I/O error (exit 4)
# before it writes a manifest.
_SHORT_WRITE_CHILD = """
import resource, sys
import numpy as np
from streamcut import cli, open_edge_file, write_buckets, write_labels

labels_path, store_path, edges_path, ref, wide_ref, curve, plan, wide_plan, comm = sys.argv[1:]
efile = open_edge_file(edges_path)
resource.setrlimit(resource.RLIMIT_FSIZE, (1000, resource.getrlimit(resource.RLIMIT_FSIZE)[1]))
writes = {
    "labels": lambda: write_labels(labels_path, np.arange(500) % 2),
    "buckets": lambda: write_buckets(efile, np.arange(50) % 8, store_path, 8),
}
for name, write in writes.items():
    try:
        write()
        print(name, "returned")
    except OSError as exc:
        print(name, "raised", type(exc).__name__)
commands = {
    "predict": ["predict", edges_path, ref, "--out", curve,
                "--xs", ",".join(str(i / 100) for i in range(1, 41))],
    "plan": ["plan", plan, "--parts", "400", "--workers", "2"],
    "comm-estimate": ["comm-estimate", edges_path, wide_ref, wide_plan, "--out", comm,
                      "--num-seeds", "8", "--rng-seed", "1"],
}
for name, argv in commands.items():
    print(name, "exit", cli.main(argv))
"""


def test_short_writes_raise_and_keep_the_earlier_outputs(tmp_path):
    rng = np.random.default_rng(12)
    efile = make_edge_file(tmp_path / "g.grpe", rng.integers(0, 50, size=(50, 2)), 50)
    labels_path, store_path = str(tmp_path / "l.grpl"), str(tmp_path / "b.grpb")
    write_labels(labels_path, np.zeros(500, dtype=np.int64), num_parts=2)
    write_buckets(efile, np.arange(50) % 8 // 2, store_path, 8)
    ref, wide_ref, curve, plan, wide_plan, comm = (str(tmp_path / name) for name in (
        "ref.grpl", "wide_ref.grpl", "curve.csv", "plan.txt", "wide_plan.txt", "comm.csv"))
    write_labels(ref, np.arange(50) % 2, num_parts=2)
    write_labels(wide_ref, np.arange(50) % 2, num_parts=200)  # the wide plan's part count
    for argv in (["predict", efile.path, ref, "--out", curve],
                 ["plan", plan, "--parts", "2", "--workers", "2"],
                 ["plan", wide_plan, "--parts", "200", "--workers", "200"],
                 ["comm-estimate", efile.path, wide_ref, wide_plan, "--out", comm,
                  "--num-seeds", "8"]):
        assert streamcut.cli.main(argv) == 0
    before = dir_bytes(tmp_path)
    path = [str(Path(streamcut.__file__).parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    child = subprocess.run([sys.executable, "-c", _SHORT_WRITE_CHILD, labels_path, store_path,
                            efile.path, ref, wide_ref, curve, plan, wide_plan, comm],
                           capture_output=True, text=True, env=env, timeout=120)
    assert child.returncode == 0, child.stderr
    assert child.stdout.splitlines() == ["labels raised OSError", "buckets raised OSError",
                                         "predict exit 4", "plan exit 4", "comm-estimate exit 4"]
    assert dir_bytes(tmp_path) == before  # the earlier files as they were, and no temporary


def test_shuffle_budget_too_small(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    with pytest.raises(FormatError):
        external_shuffle(efile, str(tmp_path / "s.grpe"), 1024, rng_seed=0)


def test_shuffle_uniform_positions_chi_squared(tmp_path):
    # track where the first edge of a 10-edge file lands across 1000 seeds
    edges = np.array([[i, (i + 1) % 10] for i in range(10)], dtype=np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 10)
    marked = tuple(edges[0].tolist())
    counts = np.zeros(10, dtype=np.int64)
    from streamcut.edgefile import read_all_edges

    for seed in range(1000):
        out = external_shuffle(efile, str(tmp_path / "s.grpe"), 1 << 20, rng_seed=seed)
        rows = list(map(tuple, read_all_edges(out).tolist()))
        counts[rows.index(marked)] += 1
    expected = counts.sum() / 10
    stat = float(((counts - expected) ** 2 / expected).sum())
    critical = scipy.stats.chi2.ppf(0.99, df=9)
    assert stat < critical, f"chi2={stat} rejects uniformity at alpha=0.01"


def test_chunk_plan_arithmetic():
    plan = ChunkPlan.plan(7, chunk_edges=3)
    assert (plan.chunk_size, plan.num_chunks) == (3, 3)
    assert ChunkPlan.plan(7, chunk_edges=100).num_chunks == 1
    assert ChunkPlan.plan(0, chunk_frac=0.5).num_chunks == 0
    assert ChunkPlan.plan(241, chunk_frac=0.1).chunk_size == 25
    with pytest.raises(FormatError):
        ChunkPlan.plan(7)
    with pytest.raises(FormatError):
        ChunkPlan.plan(7, chunk_edges=0)


def test_stream_chunks_sizes_and_order(tmp_path):
    # a chunk keeps no rows, so each is checked as it comes: it indexes the
    # file's next three rows
    edges = np.column_stack([np.arange(7), np.arange(1, 8)]).astype(np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 8)
    sizes = []
    for i, chunk in enumerate(stream_chunks(efile, ChunkPlan.plan(7, chunk_edges=3))):
        assert chunk.chunk_index == i
        want = EdgeChunk(i, edges[3 * i : 3 * i + 3])
        assert chunk.width == want.width and np.array_equal(chunk.keys, want.keys)
        sizes.append(chunk.num_edges)
    assert sizes == [3, 3, 1]
    single = list(stream_chunks(efile, ChunkPlan.plan(7, chunk_edges=7)))
    assert len(single) == 1 and single[0].num_edges == 7


def test_stream_chunks_text_input(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("".join(f"{i} {i+1}\n" for i in range(7)))
    efile = open_edge_file(str(src))
    chunks = list(stream_chunks(efile, ChunkPlan.plan(7, chunk_edges=3)))
    assert [c.num_edges for c in chunks] == [3, 3, 1]


def test_stream_chunks_truncated_file(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 3]], 4)
    with open(efile.path, "r+b") as fh:
        fh.truncate(28 + 2 * 8)  # drop the last pair behind the header's back
    with pytest.raises(FormatError):
        list(stream_chunks(efile, ChunkPlan.plan(3, chunk_edges=2)))


@pytest.mark.parametrize("width", [32, 64])
def test_binary_blocks_are_views_of_one_buffer_holding_the_rows_as_yielded(tmp_path, width):
    rng = np.random.default_rng(19)
    num_nodes = 1000 if width == 32 else 2**40
    edges = rng.integers(0, num_nodes, size=(10, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes, width)
    pos, previous = 0, None
    for block in edgefile.iter_edge_blocks(efile, 4):
        assert block.dtype == (np.uint32 if width == 32 else np.uint64)
        assert block.tolist() == edges[pos : pos + 4].tolist()
        assert previous is None or np.shares_memory(block, previous)
        pos, previous = pos + block.shape[0], block
    assert pos == 10


def test_a_payload_ending_mid_block_yields_no_part_of_it(tmp_path):
    # cut short behind the reader's back after the first block: the second,
    # 32 KiB, is read past what the reader buffers and ends half way
    edges = np.random.default_rng(20).integers(0, 1000, size=(3 * 4096, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 1000)
    yielded = []
    with pytest.raises(FormatError, match="truncated payload"):
        for block in edgefile.iter_edge_blocks(efile, 4096):
            yielded.append(block.copy())
            with open(efile.path, "r+b") as fh:
                fh.truncate(28 + 8 * 4096 * 3 // 2)
    assert len(yielded) == 1 and yielded[0].tolist() == edges[:4096].tolist()


@pytest.mark.parametrize("block_edges", [0, -1])
@pytest.mark.parametrize("fmt", ["binary", "text"])
def test_a_block_size_below_one_is_refused_before_reading(tmp_path, monkeypatch, fmt,
                                                          block_edges):
    # a binary file once yielded empty blocks forever at block size 0
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    if fmt == "text":
        efile = convert(efile, str(tmp_path / "g.txt"), "text")
    blocks = edgefile.iter_edge_blocks(efile, block_edges)
    monkeypatch.setattr(edgefile, "open", lambda *a, **k: pytest.fail("read"), raising=False)
    monkeypatch.setattr(edgefile, "_text_lines", lambda *a: pytest.fail("read"))
    with pytest.raises(ValueError, match=f"block_edges must be at least 1, got {block_edges}"):
        next(blocks)


@pytest.mark.parametrize("width", [32, 64])
def test_read_all_edges_copies_every_block(tmp_path, monkeypatch, width):
    edges = np.random.default_rng(21).integers(0, 1000, size=(10, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 1000, width)
    reader = edgefile.iter_edge_blocks
    monkeypatch.setattr(edgefile, "iter_edge_blocks", lambda ef: reader(ef, 3))
    got = read_all_edges_of(efile)
    assert got.dtype == (np.uint32 if width == 32 else np.uint64)
    assert got.tolist() == edges.tolist()


def test_stream_chunks_residency_bound(tmp_path):
    rng = np.random.default_rng(0)
    edges = rng.integers(0, 1000, size=(1_000_000, 2)).astype(np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 1000)
    meter = ResidencyMeter()
    total = 0
    for chunk in stream_chunks(efile, ChunkPlan.plan(1_000_000, chunk_edges=10_000), meter):
        total += chunk.num_edges
    assert total == 1_000_000
    assert meter.current == 0
    assert meter.peak <= 2 * 10_000


def test_labels_round_trip(tmp_path):
    labels = np.array([0, 3, -1, 2, 1], dtype=np.int64)
    path = str(tmp_path / "l.grpl")
    write_labels(path, labels, num_parts=4)
    back, parts = read_labels(path)
    assert parts == 4
    assert np.array_equal(back, labels)
    for declared in (0, 3):  # a declared count the labels exceed is never written
        with pytest.raises(FormatError, match=f"label 3 >= num_parts {declared}"):
            write_labels(path, labels, num_parts=declared)


def test_part_counts_the_label_file_cannot_hold_are_format_errors(tmp_path):
    path = str(tmp_path / "l.grpl")
    write_labels(path, np.array([0, 2**32 - 2]), 2**32 - 1)  # the largest label the file holds
    labels, num_parts = read_labels(path)
    assert labels.tolist() == [0, 2**32 - 2] and num_parts == 2**32 - 1
    before = dir_bytes(tmp_path)
    for labels, num_parts in (([0, 2**32 - 1], None), ([0, 2**32], None), ([0, 1], 2**32)):
        with pytest.raises(FormatError, match="parts do not fit a label file"):
            write_labels(path, np.array(labels), num_parts=num_parts)
    assert dir_bytes(tmp_path) == before


def test_label_file_with_trailing_bytes_is_a_format_error(tmp_path):
    path = tmp_path / "l.grpl"
    write_labels(str(path), np.array([0, 1, -1]), num_parts=2)
    path.write_bytes(path.read_bytes() + bytes(4))
    with pytest.raises(FormatError, match="trailing bytes after 3 labels"):
        read_labels(str(path))
