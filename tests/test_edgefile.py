import numpy as np
import pytest
import scipy.stats

from streamcut import (
    ChunkPlan,
    FormatError,
    ResidencyMeter,
    convert,
    external_shuffle,
    open_edge_file,
    read_labels,
    stream_chunks,
    write_labels,
)
from streamcut.edgefile import BinaryEdgeWriter

from helpers import make_edge_file


def test_convert_text_to_binary(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("0 1\n1 2\n")
    efile = open_edge_file(str(src), num_nodes=3)
    assert efile.meta.num_nodes == 3 and efile.meta.num_edges == 2
    out = convert(efile, str(tmp_path / "g.grpe"), "binary")
    assert out.meta.num_nodes == 3 and out.meta.num_edges == 2
    back = convert(out, str(tmp_path / "back.txt"), "text")
    assert (tmp_path / "back.txt").read_text() == "0 1\n1 2\n"


def test_convert_infers_num_nodes(tmp_path):
    src = tmp_path / "g.txt"
    src.write_text("# comment\n0 1\n\n4 2\n")
    efile = open_edge_file(str(src))
    assert efile.meta.num_nodes == 5
    assert efile.meta.num_edges == 2


def test_convert_empty_edge_list(tmp_path):
    src = tmp_path / "empty.txt"
    src.write_text("# nothing here\n")
    efile = open_edge_file(str(src), num_nodes=5)
    out = convert(efile, str(tmp_path / "empty.grpe"), "binary")
    assert out.meta.num_edges == 0
    assert out.meta.num_nodes == 5


def test_binary_text_binary_round_trip(tmp_path):
    rng = np.random.default_rng(3)
    edges = rng.integers(0, 500, size=(1000, 2)).astype(np.int64)
    first = make_edge_file(tmp_path / "a.grpe", edges, 500)
    text = convert(first, str(tmp_path / "a.txt"), "text")
    final = convert(text, str(tmp_path / "b.grpe"), "binary", num_nodes=500)
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
    edges = np.column_stack([np.arange(7), np.arange(1, 8)]).astype(np.int64)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 8)
    chunks = list(stream_chunks(efile, ChunkPlan.plan(7, chunk_edges=3)))
    assert [c.num_edges for c in chunks] == [3, 3, 1]
    assert [c.chunk_index for c in chunks] == [0, 1, 2]
    concat = np.concatenate([c.edges for c in chunks])
    assert np.array_equal(concat, edges)
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
