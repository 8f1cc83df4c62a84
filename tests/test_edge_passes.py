"""The streaming edge passes: compiled kernels against plain-Python oracles.

Each pass has one entry in ``edgefile`` that runs its kernel:
``_label_block`` (``label_pass``) serves ``count_cuts`` and
``write_buckets``, ``_scatter_block`` (``scatter_rows``) serves
``write_buckets``, ``external_shuffle`` and, over feature records of any
width, ``reorder_features``, ``_extract_block`` (``extract_rows``) serves
``grem._extract_induced``, and ``_endpoint_block`` (``endpoint_counts``)
serves ``compute_node_stats`` and ``select_replicated``.  Each runs on
blocks at the file's id width, 32- or 64-bit, text files included, and must
give what a plain count over the edge list gives, errors included.
"""

from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from streamcut import edgefile, grem
from streamcut import (
    FormatError,
    GremConfig,
    bisect,
    compute_node_stats,
    count_cuts,
    estimate_comm,
    external_shuffle,
    partition,
    plan_assignment,
    read_bucket,
    reorder_features,
    select_replicated,
    write_buckets,
    write_labels,
)
from streamcut.edgefile import BINARY, IO_BLOCK, TEXT, convert, open_edge_file, read_all_edges

from helpers import PROPERTY_SETTINGS, brute_force_cut, make_edge_file, reference_shuffle


def _multigraph(seed, num_nodes, num_edges):
    """Edges drawn from a small pool of pairs, so duplicates abound, about a tenth self-loops."""
    rng = np.random.default_rng(seed)
    pool = rng.integers(0, num_nodes, size=(max(1, num_edges // 3), 2))
    edges = pool[rng.integers(0, len(pool), size=num_edges)]
    loops = rng.random(num_edges) < 0.1
    edges[loops, 1] = edges[loops, 0]
    return edges


def _passes(efile, labels, p, budget, out_dir):
    """Every output of the label and endpoint passes over one file, as comparable values."""
    store = str(out_dir / "b.grpb")
    index = write_buckets(efile, labels, store, p)
    stats = compute_node_stats(efile, labels % 2)
    return {
        "payload": Path(store).read_bytes()[int(index.offsets[0, 0]):],
        "counts": index.counts.ravel().tolist(),
        "cut": count_cuts(efile, labels, p).cut_edges,
        "k": stats.k.tolist(),
        "k0": stats.k0.tolist(),
        "replicated": select_replicated(efile, budget).tolist(),
    }


def _plain_passes(edges, labels, p, budget, num_nodes, width):
    """What ``_passes`` gives, by plain counts over the edge list: the rows
    grouped by bucket in input order, the cut, each node's neighbours per
    side (self-loops left out) and the ``budget`` highest-degree nodes, ties
    to the lower id."""
    edges, labels = edges.tolist(), labels.tolist()
    bucket = [labels[u] * p + labels[v] for u, v in edges]
    counts = [0] * (p * p)
    side = [[0, 0] for _ in range(num_nodes)]
    for (u, v), b in zip(edges, bucket):
        counts[b] += 1
        if u != v:
            side[u][labels[v] % 2] += 1
            side[v][labels[u] % 2] += 1
    grouped = [edges[i] for i in sorted(range(len(edges)), key=bucket.__getitem__)]
    degree = [a + b for a, b in side]
    return {
        "payload": np.array(grouped, dtype=f"<u{width // 8}").tobytes(),
        "counts": counts,
        "cut": brute_force_cut(edges, labels),
        "k": degree,
        "k0": [max(s) for s in side],
        "replicated": sorted(sorted(range(num_nodes), key=lambda n: -degree[n])[:budget]),
    }


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(1, 400),
    num_edges=st.integers(0, 700),
    p=st.sampled_from([1, 2, 17, 300]),  # bucket ids of uint8, uint16 and wider
    width=st.sampled_from([32, 64]),
)
def test_label_and_endpoint_passes_native_equal_python(tmp_path, seed, num_nodes, num_edges, p,
                                                       width):
    edges = _multigraph(seed, num_nodes, num_edges)
    rng = np.random.default_rng(seed + 1)
    labels = rng.integers(0, p, size=num_nodes)
    budget = int(rng.integers(0, num_nodes + 1))
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes, width)
    want = _plain_passes(edges, labels, p, budget, num_nodes, width)
    assert _passes(efile, labels, p, budget, tmp_path) == want


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(1, 5000),
    num_edges=st.integers(IO_BLOCK // 16 + 1, 12_000),  # above the budget: the scatter path
    width=st.sampled_from([32, 64]),
)
def test_shuffle_scatter_native_equals_python(tmp_path, seed, num_nodes, num_edges, width):
    edges = _multigraph(seed, num_nodes, num_edges)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes, width)
    out = external_shuffle(efile, str(tmp_path / "s.grpe"), IO_BLOCK, rng_seed=seed)
    assert read_all_edges(out).tolist() == reference_shuffle(edges, IO_BLOCK, seed).tolist()


def _induced(edges, labels, side):
    """Rows of the subgraph induced by ``side``, relabelled to ranks among its nodes."""
    new_id = {int(n): i for i, n in enumerate(np.flatnonzero(labels == side))}
    return [[new_id[u], new_id[v]] for u, v in edges.tolist()
            if labels[u] == side and labels[v] == side]


def _extractions(efile, labels, out_dir):
    """The bytes of each side's induced-subgraph file, each checked against ``_induced``."""
    files = []
    for side in (0, 1):
        out = out_dir / f"{side}.grpe"
        sub = grem._extract_induced(efile, labels == side, str(out))
        assert sub.meta.num_nodes == np.count_nonzero(labels == side)
        assert read_all_edges(sub).tolist() == _induced(read_all_edges(efile), labels, side)
        files.append(out.read_bytes())
    return files


@PROPERTY_SETTINGS
@given(
    seed=st.integers(0, 2**32 - 1),
    num_nodes=st.integers(2, 400),
    num_edges=st.integers(0, 700),
    width=st.sampled_from([32, 64]),
)
def test_extract_native_equals_python(tmp_path, seed, num_nodes, num_edges, width):
    edges = _multigraph(seed, num_nodes, num_edges)
    labels = np.random.default_rng(seed + 1).integers(0, 2, size=num_nodes)
    labels[:2] = (0, 1)  # both sides have members
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes, width)
    _extractions(efile, labels, tmp_path)


def test_extract_across_blocks_and_of_a_side_with_no_edge(tmp_path):
    # 300k rows span two reader blocks, the second shorter than the reused buffer
    edges = _multigraph(12, 300, 300_000)
    labels = np.random.default_rng(13).integers(0, 2, size=300)
    # a bipartite graph between even and odd nodes: neither side keeps an edge
    bipartite = np.array([[0, 1], [3, 2], [4, 5], [5, 4], [1, 2]])
    for width in (32, 64):
        efile = make_edge_file(tmp_path / "g.grpe", edges, 300, width)
        _extractions(efile, labels, tmp_path)
        efile = make_edge_file(tmp_path / "b.grpe", bipartite, 6, width)
        files = _extractions(efile, np.arange(6) % 2, tmp_path)
        assert {len(data) for data in files} == {len(Path(efile.path).read_bytes())
                                                 - bipartite.size * width // 8}


def test_extract_block_writes_either_output_width(tmp_path):
    # an induced subgraph has fewer nodes than its parent, so partition never
    # writes 64-bit ids below a 32-bit file; the block pass takes both widths
    edges = _multigraph(14, 300, 5000)
    new_id = np.where(np.arange(300) % 3 == 0, np.arange(300) // 3, -1)
    for width in (32, 64):
        efile = make_edge_file(tmp_path / "g.grpe", edges, 300, width)
        (block,) = edgefile.iter_edge_blocks(efile)
        for out_dtype in (np.uint32, np.uint64):
            out = np.empty((5000, 2), dtype=out_dtype)
            keep = (edges % 3 == 0).all(axis=1)
            got = edgefile._extract_block(efile, block, new_id, out)
            assert got.tolist() == (edges[keep] // 3).tolist()


@pytest.mark.parametrize("width, bad", [(32, 999), (32, 2**32 - 1), (64, 2**63 + 5),
                                        (64, 2**64 - 1)])
def test_extract_rejects_a_damaged_id(tmp_path, width, bad):
    # the bad id sits in the last row of the file's one block: the reader
    # rejects the block before the extraction pass sees any of its rows
    edges = _multigraph(15, 300, 5000)
    damaged = make_edge_file(tmp_path / "g.grpe", edges, 300, width)
    _poke(damaged.path, -width // 8, bad, width // 8)
    out = str(tmp_path / "o.grpe")
    with pytest.raises(FormatError, match=f"g.grpe: edge endpoint {bad} >= num_nodes 300$"):
        grem._extract_induced(damaged, np.arange(300) % 2 == 1, out)


# ------------------------------------------------------------ 64-bit ids


def _twins(tmp_path, edges, num_nodes):
    return {width: make_edge_file(tmp_path / f"g{width}.grpe", edges, num_nodes, width)
            for width in (32, 64)}


def test_wide_id_files_give_what_their_u32_twins_give(tmp_path):
    edges = _multigraph(5, 300, 5000)
    rng = np.random.default_rng(6)
    labels = rng.integers(0, 5, size=300)
    twins = _twins(tmp_path, edges, 300)
    assert twins[64].meta.node_id_width == 64
    # the text twin streams 32-bit blocks through every pass, as its u32 twin does
    twins["text"] = convert(twins[32], str(tmp_path / "g.txt"), TEXT)
    plan = plan_assignment(5, 2, rng_seed=0)
    got = {}
    for width, efile in twins.items():
        store = str(tmp_path / f"b{width}.grpb")
        index = write_buckets(efile, labels, store)
        got[width] = (
            index.counts.tolist(),
            [read_bucket(store, i, j, index).tolist() for i in range(5) for j in range(5)],
            count_cuts(efile, labels),
            compute_node_stats(efile, labels % 2).k0.tolist(),
            select_replicated(efile, 40).tolist(),
            estimate_comm(efile, labels, plan, num_seeds=20, rng_seed=1),
            # the chunk path: blocks as stored into EdgeChunk and _extract_induced
            bisect(efile, GremConfig())[0].tolist(),
            partition(efile, 4, GremConfig(), str(tmp_path / "work"))[0].tolist(),
        )
        assert index.node_id_width == efile.meta.node_id_width
    assert got[32] == got[64] == got["text"]


@pytest.mark.parametrize("budget", [IO_BLOCK, 1 << 20])  # scatter path, in-memory path
def test_wide_id_shuffle_equals_its_u32_twin(tmp_path, budget):
    edges = _multigraph(7, 300, 20_000)
    twins = _twins(tmp_path, edges, 300)
    got = {}
    for width, efile in twins.items():
        out = external_shuffle(efile, str(tmp_path / f"s{width}.grpe"), budget, rng_seed=3)
        assert out.meta.node_id_width == width
        got[width] = read_all_edges(out)
    assert np.array_equal(got[32], got[64])
    assert sorted(map(tuple, got[64].tolist())) == sorted(map(tuple, edges.tolist()))


# ------------------------------------------------------------ malformed input


def _converted(efile, labels, out_dir):
    """Each converted pass as a thunk over one file."""
    plan = plan_assignment(2, 2, rng_seed=0)
    return {
        "count_cuts": lambda: count_cuts(efile, labels),
        "write_buckets": lambda: write_buckets(efile, labels, str(out_dir / "b.grpb")),
        "node_stats": lambda: compute_node_stats(efile, labels),
        "select_replicated": lambda: select_replicated(efile, 1),
        "shuffle_scatter": lambda: external_shuffle(efile, str(out_dir / "s.grpe"), IO_BLOCK, 0),
        "shuffle_in_memory": lambda: external_shuffle(efile, str(out_dir / "s.grpe"), 1 << 24, 0),
        # reads ids only, through its own key fill; its labels are checked up front
        "estimate_comm": lambda: estimate_comm(efile, np.zeros_like(labels), plan, num_seeds=2),
    }


def _poke(path, offset, value, nbytes):
    """Overwrites ``nbytes`` bytes at ``offset`` (from the end when negative) with ``value``."""
    raw = bytearray(Path(path).read_bytes())
    offset %= len(raw)
    raw[offset : offset + nbytes] = value.to_bytes(nbytes, "little")
    Path(path).write_bytes(bytes(raw))


@pytest.mark.parametrize("width, bad", [(32, 999), (32, 2**32 - 1), (64, 999), (64, 2**63 + 5),
                                        (64, 2**64 - 1)])
def test_out_of_range_id_is_a_format_error(tmp_path, tmp_path_factory, width, bad):
    # the bad id sits in the last row, behind a first row with an unlabeled
    # endpoint: the reader's id check, the only one, rejects the block before
    # any pass sees its rows, on the chunk path and in convert too
    edges = _multigraph(8, 300, 5000)
    edges[0] = (0, 1)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 300, width)
    _poke(efile.path, -width // 8, bad, width // 8)
    labels = np.arange(300) % 2
    labels[0] = -1
    work = tmp_path_factory.mktemp("work")
    runs = {
        **_converted(efile, labels, tmp_path),
        "bisect": lambda: bisect(efile, GremConfig()),
        "partition": lambda: partition(efile, 4, GremConfig(), str(work)),
        "convert": lambda: convert(efile, str(tmp_path / "c.grpe"), BINARY),
        "convert_text": lambda: convert(efile, str(tmp_path / "c.txt"), TEXT),
    }
    for name, run in runs.items():
        with pytest.raises(FormatError, match=f"g.grpe: edge endpoint {bad} >= num_nodes 300$"):
            run()  # never a numpy IndexError, nor a wrapped negative id
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grpe"], name
        assert not any(work.iterdir()), name


def test_unlabeled_endpoint_is_a_format_error(tmp_path):
    edges = _multigraph(9, 300, 5000)
    edges[-1] = (299, 299)  # a self-loop: rejected too, though it counts nowhere
    labels = np.arange(300) % 2
    labels[299] = -1
    for width in (32, 64):
        efile = make_edge_file(tmp_path / "g.grpe", edges, 300, width)
        runs = _converted(efile, labels, tmp_path)
        for name in ("count_cuts", "write_buckets", "node_stats"):
            with pytest.raises(FormatError, match="^unlabeled endpoint encountered$"):
                runs[name]()
        assert sorted(p.name for p in tmp_path.iterdir()) == ["g.grpe"]


def _label_entry_points(efile, out_dir):
    """Every public entry point that takes labels, as ``run(labels, num_parts)``."""
    feats = out_dir / "f.bin"
    feats.write_bytes(bytes(range(4 * efile.meta.num_nodes)))
    plan = plan_assignment(2, 2, rng_seed=0)
    return {
        "count_cuts": lambda lab, p: count_cuts(efile, lab, p),
        "write_buckets": lambda lab, p: write_buckets(efile, lab, str(out_dir / "b.grpb"), p),
        "reorder_features": lambda lab, p: reorder_features(str(feats), lab, 4,
                                                            str(out_dir / "o.bin"), p),
        "write_labels": lambda lab, p: write_labels(str(out_dir / "l.grpl"), lab, p),
        # these two declare their own part count: the plan's, and 2
        "estimate_comm": lambda lab, p: estimate_comm(efile, lab, plan, num_seeds=2),
        "compute_node_stats": lambda lab, p: compute_node_stats(efile, lab),
    }


_BISECTION = np.arange(6) % 2
_BAD_LABELS = {  # case: (labels, declared num_parts, message, entry points it does not apply to)
    "float": (_BISECTION + 0.5, 2, r"labels must be a 1-d integer array, got float64 \(6,\)", ()),
    "column": (_BISECTION[:, None], 2, r"labels must be a 1-d integer array, got int64 \(6, 1\)",
               ()),
    # write_labels takes its node count from the labels
    "short": (_BISECTION[:5], 2, "labels cover 5 nodes, file has 6", ("write_labels",)),
    "above": (np.where(_BISECTION == 1, 2, 0), 2, "label 2 >= num_parts 2", ()),
    "too_many_parts": (_BISECTION, 2**32, f"{2**32} parts do not fit a label file",
                       ("estimate_comm", "compute_node_stats")),
}


@pytest.mark.parametrize("case", sorted(_BAD_LABELS))
def test_each_label_entry_point_refuses_bad_labels_alike(tmp_path, case):
    # one check, _check_labels, for every caller: the same FormatError from
    # each, raised before any output or temporary is made
    labels, num_parts, message, skip = _BAD_LABELS[case]
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 3], [4, 5], [5, 0]], 6)
    runs = _label_entry_points(efile, tmp_path)
    for name, run in runs.items():
        if name in skip:
            continue
        with pytest.raises(FormatError, match=f"^{message}"):
            run(labels, num_parts)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "g.grpe"], name


def test_each_label_entry_point_takes_the_valid_labels(tmp_path):
    # each of the table's inputs departs from these labels in one point
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 3], [4, 5], [5, 0]], 6)
    for name, run in _label_entry_points(efile, tmp_path).items():
        run(_BISECTION, 2)
        run(_BISECTION.astype(np.int32), 2)


def test_an_unassigned_label_is_refused_where_every_node_needs_a_part(tmp_path):
    # grouped features and the traffic estimate place every node, even one no
    # edge touches; a label file may hold an unassigned node
    labels = np.array([0, 1, 0, 1, 0, 1, -1])  # node 6 is on no edge
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 3], [4, 5], [5, 0]], 7)
    runs = _label_entry_points(efile, tmp_path)
    for name, message in (("reorder_features", "all nodes must be labeled"),
                          ("estimate_comm", "labels must map every node to a planned "
                                            "partition")):
        with pytest.raises(FormatError, match=f"^{message}$"):
            runs[name](labels, 2)
        assert sorted(p.name for p in tmp_path.iterdir()) == ["f.bin", "g.grpe"], name
    for name in ("count_cuts", "write_buckets", "compute_node_stats", "write_labels"):
        runs[name](labels, 2)


def _opened(tmp_path, edges, width):
    """An edge file of 300 nodes, opened while intact: binary at ``width`` bits, or text."""
    if width != TEXT:
        return make_edge_file(tmp_path / "g.grpe", edges, 300, width)
    path = tmp_path / "g.txt"
    path.write_text("".join(f"{u} {v}\n" for u, v in edges.tolist()), encoding="ascii")
    return open_edge_file(str(path))


@pytest.mark.parametrize("damage", ["truncated", "magic", "num_edges", "version", "flags",
                                    "grown", "shrunk", "non_ascii"])
def test_damaged_file_is_a_format_error(tmp_path, damage):
    edges = _multigraph(10, 300, 5000)
    labels = np.arange(300) % 2
    for width in (TEXT,) if damage in ("grown", "shrunk", "non_ascii") else (32, 64):
        efile = _opened(tmp_path, edges, width)
        if damage == "grown":  # four more rows, ids in range
            with open(efile.path, "a", encoding="ascii") as fh:
                fh.write("0 1\n" * 4)
            message = "g.txt:5001: more than the 5000 edges counted when the file was opened"
        elif damage == "shrunk":  # the last four rows gone
            lines = Path(efile.path).read_text(encoding="ascii").splitlines(keepends=True)
            Path(efile.path).write_text("".join(lines[:-4]), encoding="ascii")
            message = "g.txt: 4996 edges, 5000 counted when the file was opened"
        elif damage == "non_ascii":  # one digit of the last row replaced
            _poke(efile.path, -2, 0xE9, 1)
            message = "g.txt: byte 0xe9 is not ASCII, not a text edge list"
        elif damage == "truncated":
            with open(efile.path, "r+b") as fh:
                fh.truncate(Path(efile.path).stat().st_size - width // 4)
            message = "does not match header num_edges 5000"
        elif damage == "magic":
            _poke(efile.path, 0, int.from_bytes(b"XXXX", "little"), 4)
            message = "bad magic b'XXXX'"
        elif damage == "num_edges":
            _poke(efile.path, 20, 4999, 8)
            message = "does not match header num_edges 4999"
        elif damage == "flags":  # a bit beyond the id width's
            _poke(efile.path, 8, (width == 64) | 6, 4)
            message = f"unknown flags {(width == 64) | 6:#x}"
        else:
            _poke(efile.path, 4, 2, 4)
            message = "unsupported version 2"
        runs = {
            **_converted(efile, labels, tmp_path),
            "bisect": lambda: bisect(efile, GremConfig()),
            "convert": lambda: convert(efile, str(tmp_path / "c.grpe"), BINARY),
        }
        for name, run in runs.items():
            with pytest.raises(FormatError, match=message):
                run()
            left = [p.name for p in tmp_path.iterdir()]
            assert left == [Path(efile.path).name], name


def test_kernels_reject_labels_and_bucket_ids_out_of_their_range(tmp_path):
    # public callers never pass these (_check_labels bounds the labels by the
    # pass's p, and compute_node_stats declares p = 2); the kernels refuse
    # them rather than write outside their count arrays
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2]], 3)
    (block,) = edgefile.iter_edge_blocks(efile)
    labels = np.array([0, 1, 2], dtype=np.uint32)  # made by hand: label 2 with p = 2
    cut = np.zeros(1, dtype=np.int64)
    with pytest.raises(ValueError, match="row 1"):
        edgefile._label_block(efile, block, labels, cut, 2, counts=np.zeros(4, dtype=np.int64))
    with pytest.raises(ValueError, match="row 1"):
        edgefile._endpoint_block(efile, block, np.zeros(6, dtype=np.uint32), labels)
    with pytest.raises(ValueError, match="row 0"):
        edgefile._scatter_block(block, np.array([-1, 0]), 2)
    with pytest.raises(ValueError, match="row 1"):
        edgefile._scatter_block(block, np.array([0, 2]), 2)


@pytest.mark.parametrize("row_bytes", [1, 3, 16, 128])
def test_scatter_block_groups_rows_of_any_width_as_a_stable_argsort(row_bytes):
    # feature records go through the edge rows' scatter: a row is its bytes
    rng = np.random.default_rng(row_bytes)
    cases = []
    for m, nbuckets in [(0, 3), (1, 1), (40, 1), (40, 7), (300, 300)]:
        rows = rng.integers(0, 256, size=(m, row_bytes), dtype=np.uint8)
        bucket = rng.integers(0, nbuckets, size=m) // 2 * 2 % nbuckets  # odd ids empty
        cases.append((rows, bucket, nbuckets))
    # one row of a strided view: numpy calls it contiguous, with its parent's
    # row stride, which is not the row's width
    cases.append((cases[3][0][::40], cases[3][1][:1], 7))
    for rows, bucket, nbuckets in cases:
        order = np.argsort(bucket, kind="stable")
        expected = np.concatenate([[0], np.cumsum(np.bincount(bucket, minlength=nbuckets))])
        for out in (None, np.empty_like(rows)):
            grouped, bounds = edgefile._scatter_block(rows, bucket, nbuckets, out)
            assert out is None or grouped is out
            assert grouped.tobytes() == rows[order].tobytes(), (rows.shape, nbuckets)
            assert bounds.tolist() == expected.tolist(), (rows.shape, nbuckets)


# ------------------------------------------------------------ u32 labels and counters


@pytest.mark.parametrize("bad", [-1, 0xFFFFFFFF, 2**32, 2**32 + 1, "p"])
def test_a_label_outside_the_pass_range_is_never_narrowed_into_it(tmp_path, bad):
    # labels reach the passes as u32 only through _check_labels: a label
    # below 0 becomes 0xFFFFFFFF, which every pass rejects on a node an edge
    # touches; a label at or above the declared p (2 here, a bisection), or
    # one no label file holds, is refused before any pass, so 2**32 + 1 is
    # never read as its low bits, label 1; and a u32 label at or above the
    # pass's own p is rejected by the pass on a touched node and accepted on
    # a node no edge touches
    p = 2
    bad = p if bad == "p" else bad
    edges = _multigraph(16, 300, 5000)
    edges[0] = (7, 8)
    labels = np.arange(301) % 2  # node 300 is on no edge
    for width in (32, 64):
        efile = make_edge_file(tmp_path / "g.grpe", edges, 301, width)
        (block,) = edgefile.iter_edge_blocks(efile)
        store = str(tmp_path / "b.grpb")
        public = {
            "count_cuts": lambda lab: count_cuts(efile, lab, p).cut_edges,
            "write_buckets": lambda lab: write_buckets(efile, lab, store, p).counts.tolist(),
            "node_stats": lambda lab: compute_node_stats(efile, lab).k0.tolist(),
        }

        def label_block(lab):
            cut, counts = np.zeros(1, dtype=np.int64), np.zeros(p * p, dtype=np.int64)
            edgefile._label_block(efile, block, edgefile._check_labels(301, lab)[0], cut, p,
                                  counts=counts)
            return int(cut[0]), counts.tolist()

        def endpoint_block(lab):
            counts = np.zeros(2 * 301, dtype=np.uint32)
            edgefile._endpoint_block(efile, block, counts, edgefile._check_labels(301, lab)[0])
            return counts.tolist()

        passes = {**public, "label_block": label_block, "endpoint_block": endpoint_block}
        touched, untouched = labels.copy(), labels.copy()
        touched[8], untouched[300] = bad, bad
        for name, run in passes.items():
            if bad < 0:
                with pytest.raises(FormatError, match="^unlabeled endpoint encountered$"):
                    run(touched)
            elif name in public or bad >= 0xFFFFFFFF:  # refused before any pass
                message = f"^label {bad} >= num_parts {p}$" if name in public \
                    else f"^{bad + 1} parts do not fit a label file"
                with pytest.raises(FormatError, match=message):
                    run(touched)
                with pytest.raises(FormatError, match=message):
                    run(untouched)
                continue
            else:
                with pytest.raises(ValueError, match="^row 0: "):
                    run(touched)
            assert run(untouched) == run(labels), (width, name)
        assert not [f for f in tmp_path.iterdir() if ".tmp" in f.name]


def test_check_labels_narrows_to_u32_or_refuses():
    out = 0xFFFFFFFF
    labels = np.array([0, 1, 2, -1, -2**63, 0xFFFFFFFE])
    narrow, p = edgefile._check_labels(6, labels, 0xFFFFFFFF)
    assert narrow.dtype == np.uint32 and p == 0xFFFFFFFF  # the largest label the file holds
    # an inferred p is at most the node count: more parts than nodes are declared
    with pytest.raises(FormatError, match=f"^label {0xFFFFFFFE} >= 6 nodes; declare num_parts"):
        edgefile._check_labels(6, labels)
    assert narrow.tolist() == [0, 1, 2, out, out, 0xFFFFFFFE]
    narrow, p = edgefile._check_labels(4, labels[:4], 7)  # a declared p is kept
    assert narrow.tolist() == [0, 1, 2, out] and p == 7
    for declared in (0, 2):
        with pytest.raises(FormatError, match=f"^label 2 >= num_parts {declared}$"):
            edgefile._check_labels(3, labels[:3], declared)
    # no label reaches the sentinel or is cut to its low 32 bits: a label file
    # holds labels below 0xFFFFFFFF, and no more than 0xFFFFFFFF parts
    for big in (0xFFFFFFFF, 2**32, 2**32 + 1, 2**63 - 1):
        with pytest.raises(FormatError, match=f"^{big + 1} parts do not fit a label file"):
            edgefile._check_labels(2, np.array([1, big]))
        with pytest.raises(FormatError, match=f"^label {big} >= num_parts 2$"):
            edgefile._check_labels(2, np.array([1, big]), 2)
    with pytest.raises(FormatError, match=f"^{2**32} parts do not fit a label file"):
        edgefile._check_labels(2, np.array([0, 1]), 2**32)
    with pytest.raises(FormatError, match=f"^{2**63 + 1} parts do not fit a label file"):
        edgefile._check_labels(2, np.array([0, 2**63], dtype=np.uint64))
    # int32 labels, as partition makes them, bool and unsigned labels
    small = np.array([0, 1, -1, 1, 0, -5], dtype=np.int32)
    narrow, p = edgefile._check_labels(6, small)
    assert narrow.tolist() == [0, 1, out, 1, 0, out] and p == 2
    narrow, p = edgefile._check_labels(3, np.array([True, False, True]))
    assert narrow.tolist() == [1, 0, 1] and p == 2
    narrow, p = edgefile._check_labels(4, np.array([3, 0, 0, 0], dtype=np.uint8))
    assert narrow.tolist() == [3, 0, 0, 0] and p == 4
    narrow, p = edgefile._check_labels(3, [-1, -1, -1])  # nothing assigned: one part
    assert narrow.tolist() == [out] * 3 and p == 1
    with pytest.raises(FormatError, match="^labels cover 9 nodes, file has 10$"):
        edgefile._check_labels(10, np.zeros(9, dtype=np.int64))
    for odd in (np.zeros((3, 1), dtype=np.int64), np.array([0.5, 1.7, 0.2]), np.array(1),
                np.array([0, 2**64, 1], dtype=object), np.array(["0", "1", "0"])):
        with pytest.raises(FormatError, match="^labels must be a 1-d integer array"):
            edgefile._check_labels(3, odd)


def test_a_stray_large_label_is_a_format_error(tmp_path):
    # p inferred from one large label on a node no edge touches would size the
    # per-partition arrays by its value (a label of 2**20 once asked
    # write_buckets for 8 TiB): each entry point refuses it before any pass,
    # and leaves no file
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [2, 0], [3, 4]], 10)
    feats = tmp_path / "f.bin"
    feats.write_bytes(bytes(range(40)))
    inputs = sorted(p.name for p in tmp_path.iterdir())
    for big in (2**20, 2**22):
        labels = np.array([0, 0, 0, 1, 1, 0, 1, 0, 1, big])
        runs = {
            "count_cuts": lambda: count_cuts(efile, labels),
            "write_buckets": lambda: write_buckets(efile, labels, str(tmp_path / "b.grpb")),
            "reorder_features": lambda: reorder_features(str(feats), labels, 4,
                                                         str(tmp_path / "o.bin")),
            "write_labels": lambda: write_labels(str(tmp_path / "l.grpl"), labels),
        }
        for name, run in runs.items():
            with pytest.raises(FormatError, match=f"^label {big} >= 10 nodes; declare"):
                run()
            assert sorted(p.name for p in tmp_path.iterdir()) == inputs, name
    # declared, the same labels are taken as they are
    assert count_cuts(efile, labels, 2**22 + 1).partition_sizes[2**22] == 1


def test_endpoint_counters_fold_without_changing_a_count(tmp_path, monkeypatch):
    # the u32 counters are folded into the int64 counts every _FOLD_ROWS rows;
    # with that interval one 64-row block, each block after the first starts
    # from zeroed counters, and the degrees and side counts stay the same
    edges = _multigraph(17, 300, 5000)
    labels = np.random.default_rng(18).integers(0, 2, size=300)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 300)
    reader, block_pass = edgefile.iter_edge_blocks, edgefile._endpoint_block
    monkeypatch.setattr(edgefile, "iter_edge_blocks", lambda ef: reader(ef, 64))
    want = (compute_node_stats(efile, labels).k0.tolist(),
            select_replicated(efile, 40).tolist())
    started = []

    def spy(efile, block, counts, *args):
        started.append(int(counts.sum()))
        block_pass(efile, block, counts, *args)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(edgefile, "_FOLD_ROWS", 64)
        patch.setattr(edgefile, "_endpoint_block", spy)
        got = (compute_node_stats(efile, labels).k0.tolist(),
               select_replicated(efile, 40).tolist())
    assert got == want
    blocks = -(-5000 // 64)
    assert started == [0] * (2 * blocks)
