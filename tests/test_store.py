import os
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from streamcut import store as store_module
from streamcut import (
    FeatureLayout,
    FormatError,
    open_edge_file,
    read_bucket,
    read_index,
    read_labels,
    reorder_features,
    write_buckets,
    write_labels,
)
from streamcut.edgefile import read_all_edges

from helpers import PROPERTY_SETTINGS, dir_bytes, make_edge_file, random_multigraph


class Crash(Exception):
    pass


def _multiset(edges):
    return sorted(map(tuple, np.asarray(edges).tolist()))


def test_buckets_trivial_layout(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [2, 3]], 4)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, np.array([0, 0, 1, 1]), store)
    assert index.p == 2
    assert _multiset(read_bucket(store, 0, 0, index)) == [(0, 1)]
    assert _multiset(read_bucket(store, 1, 1, index)) == [(2, 3)]
    assert read_bucket(store, 0, 1, index).size == 0
    assert read_bucket(store, 1, 0, index).size == 0


def test_buckets_single_partition(tmp_path):
    edges = [[0, 1], [1, 2], [2, 0]]
    efile = make_edge_file(tmp_path / "g.grpe", edges, 3)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, np.zeros(3, dtype=np.int64), store)
    assert index.p == 1
    assert _multiset(read_bucket(store, 0, 0, index)) == _multiset(edges)


def test_bucket_order_is_input_order(tmp_path):
    edges = [[1, 0], [0, 1], [1, 1]]
    efile = make_edge_file(tmp_path / "g.grpe", edges, 2)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, np.array([1, 1]), store)
    got = read_bucket(store, 1, 1, index)
    assert got.tolist() == edges


@pytest.mark.parametrize("p", [2, 4, 8])
def test_buckets_round_trip_random(tmp_path, p):
    rng = np.random.default_rng(p)
    edges, num_nodes = random_multigraph(rng, max_nodes=50, max_edges=600)
    labels = rng.integers(0, p, size=num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, labels, store)
    assert index.p == int(labels.max()) + 1
    union = []
    for i in range(index.p):
        for j in range(index.p):
            bucket = read_bucket(store, i, j, index)
            for u, v in bucket.tolist():
                assert labels[u] == i and labels[v] == j
            union.extend(map(tuple, bucket.tolist()))
    assert sorted(union) == _multiset(edges)
    assert index.total_edges == len(edges)


def test_bucket_concatenation_is_payload(tmp_path):
    rng = np.random.default_rng(77)
    edges, num_nodes = random_multigraph(rng, max_nodes=20, max_edges=200)
    labels = rng.integers(0, 4, size=num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, labels, store, 4)  # 4 parts, more than the 3 nodes
    assert index.p == 4
    dtype = np.dtype("<u4")
    blob = b""
    for i in range(index.p):
        for j in range(index.p):
            blob += read_bucket(store, i, j, index).astype(dtype).tobytes()
    with open(store, "rb") as fh:
        fh.seek(24)
        assert fh.read() == blob


@pytest.mark.parametrize("width", [32, 64])
def test_read_bucket_returns_rows_at_the_store_width(tmp_path, width):
    # a 32-bit store's rows come back as the u32 that was read, with no
    # int64 copy, and equal the stored bytes; a 64-bit store's as int64
    rng = np.random.default_rng(width)
    edges, num_nodes = random_multigraph(rng, max_nodes=40, max_edges=300)
    labels = rng.integers(0, 3, size=num_nodes)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes, width)
    store = str(tmp_path / "g.grpb")
    index = write_buckets(efile, labels, store, 3)
    payload = Path(store).read_bytes()
    stored = np.dtype("<u4") if width == 32 else np.dtype("<u8")
    for i in range(3):
        for j in range(3):
            rows = read_bucket(store, i, j, index)
            assert rows.dtype == (np.uint32 if width == 32 else np.int64)
            assert rows.shape == (int(index.counts[i, j]), 2)
            start = int(index.offsets[i, j])
            want = payload[start : start + rows.shape[0] * 2 * stored.itemsize]
            assert rows.astype(stored).tobytes() == want
            if width == 32:
                assert rows.tobytes() == want


def test_index_reload_and_mismatch_detection(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 0]], 2)
    store = str(tmp_path / "g.grpb")
    write_buckets(efile, np.array([0, 1]), store)
    index = read_index(store)
    assert index.total_edges == 2
    # corrupt the sidecar counts
    raw = np.fromfile(store + ".idx", dtype="<u8")
    raw[-1] += 1
    raw.tofile(store + ".idx")
    with pytest.raises(FormatError):
        read_index(store)
    with pytest.raises(FormatError, match="missing"):
        read_index(str(tmp_path / "absent.grpb"))


@pytest.mark.parametrize("damage", ["untiled", "trailing"])
def test_damaged_bucket_store_is_a_format_error(tmp_path, damage):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 0], [1, 1]], 2)
    store = str(tmp_path / "g.grpb")
    write_buckets(efile, np.array([0, 1]), store)
    if damage == "untiled":  # counts still sum to num_edges; bucket (0, 1) starts a row late
        raw = np.fromfile(store + ".idx", dtype="<u8")
        raw[2] += 8
        raw.tofile(store + ".idx")
    else:
        with open(store, "ab") as fh:
            fh.write(bytes(8))
    with pytest.raises(FormatError, match="g.grpb: index/file mismatch$"):
        read_index(store)


def test_u64_bucket_id_beyond_int64_is_a_format_error(tmp_path):
    # read_bucket returns int64 rows; a stored u64 id >= 2**63 would come back negative
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 0]], 2, 64)
    store = str(tmp_path / "g.grpb")
    write_buckets(efile, np.array([0, 1]), store)
    raw = bytearray(Path(store).read_bytes())
    raw[-8:] = (2**63 + 5).to_bytes(8, "little")  # bucket (1, 0)'s destination
    Path(store).write_bytes(bytes(raw))
    assert read_bucket(store, 0, 1).tolist() == [[0, 1]]
    message = r"g.grpb: bucket \(1, 0\) holds id 9223372036854775813 >= 2\*\*63$"
    with pytest.raises(FormatError, match=message):
        read_bucket(store, 1, 0)


def test_buckets_unlabeled_endpoint(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    with pytest.raises(FormatError):
        write_buckets(efile, np.array([0, -1]), str(tmp_path / "g.grpb"))


# ---------------------------------------------------------------- features


def test_reorder_features_stable_grouping(tmp_path):
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"AAAA" + b"BBBB" + b"CCCC")
    out = str(tmp_path / "grouped.bin")
    layout = reorder_features(str(feats), np.array([1, 0, 1]), 4, out)
    assert Path(out).read_bytes() == b"BBBB" + b"AAAA" + b"CCCC"
    assert layout.slot_of(1) == 0 and layout.slot_of(0) == 1 and layout.slot_of(2) == 2
    assert layout.extents == ((0, 1), (1, 2))


def test_reorder_features_identity(tmp_path):
    feats = tmp_path / "f.bin"
    feats.write_bytes(bytes(range(12)))
    out = str(tmp_path / "grouped.bin")
    layout = reorder_features(str(feats), np.zeros(3, dtype=np.int64), 4, out)
    assert Path(out).read_bytes() == bytes(range(12))
    assert layout.permutation.tolist() == [0, 1, 2]


def test_reorder_features_round_trip(tmp_path):
    rng = np.random.default_rng(8)
    num_nodes, width, p = 100, 16, 8
    data = rng.integers(0, 256, size=num_nodes * width).astype(np.uint8).tobytes()
    feats = tmp_path / "f.bin"
    feats.write_bytes(data)
    labels = rng.integers(0, p, size=num_nodes)
    out = str(tmp_path / "grouped.bin")
    layout = reorder_features(str(feats), labels, width, out)
    assert sorted(layout.permutation.tolist()) == list(range(num_nodes))
    for node in range(num_nodes):
        original = data[node * width : (node + 1) * width]
        assert layout.read_record(out, node) == original
    # nodes of partition i occupy exactly extent i, in ascending id order
    for part, (start, count) in enumerate(layout.extents):
        members = np.flatnonzero(labels == part)
        slots = layout.permutation[members]
        assert slots.tolist() == list(range(start, start + count))
    reloaded = FeatureLayout.load(out + ".layout")
    assert reloaded.record_width == width
    assert np.array_equal(reloaded.permutation, layout.permutation)
    assert reloaded.extents == layout.extents


def test_a_node_outside_the_layout_is_a_format_error(tmp_path):
    # node -1 would wrap to node n - 1's slot, and node n past the permutation
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"AABBCC")
    out = str(tmp_path / "grouped.bin")
    layout = reorder_features(str(feats), np.array([1, 0, 1]), 2, out)
    for node in (-1, 3, 2**63):
        with pytest.raises(FormatError, match=rf"^node {node} outside \[0, 3\)$"):
            layout.slot_of(node)
        with pytest.raises(FormatError, match=rf"^node {node} outside \[0, 3\)$"):
            layout.read_record(out, node)
    assert [layout.read_record(out, node) for node in range(3)] == [b"AA", b"BB", b"CC"]


def _damaged_layout(tmp_path, damage):
    """A saved 4-node, 2-part layout with one field of its payload damaged."""
    feats = tmp_path / "f.bin"
    feats.write_bytes(bytes(range(8)))
    out = str(tmp_path / "grouped.bin")
    reorder_features(str(feats), np.array([1, 0, 1, 0]), 2, out)
    path = Path(out + ".layout")
    raw = bytearray(path.read_bytes())
    perm_at = 20  # header: magic, record_width u32, num_nodes u64, num_parts u32
    ext_at = perm_at + 8 * 4
    if damage == "trailing":
        raw += bytes(8)
    elif damage == "duplicate_slot":
        raw[perm_at + 8 : perm_at + 16] = raw[perm_at : perm_at + 8]
    elif damage == "gap":  # extents (0, 2), (3, 2): slot 2 is skipped
        raw[ext_at + 16 : ext_at + 24] = (3).to_bytes(8, "little")
    elif damage == "short_cover":  # extents (0, 2), (2, 1): slot 3 is uncovered
        raw[ext_at + 24 : ext_at + 32] = (1).to_bytes(8, "little")
    else:  # a slot that wraps negative as int64
        raw[perm_at : perm_at + 8] = (2**63 + 5).to_bytes(8, "little")
    path.write_bytes(bytes(raw))
    return str(path)


@pytest.mark.parametrize("damage, message", [
    ("trailing", "8 trailing bytes after the layout"),
    ("duplicate_slot", "permutation gives two nodes one slot"),
    ("gap", "extents do not tile the 4 slots"),
    ("short_cover", "extents do not tile the 4 slots"),
    ("wide_slot", "slot 9223372036854775813 >= num_nodes 4"),
])
def test_damaged_layout_payload_is_a_format_error(tmp_path, damage, message):
    with pytest.raises(FormatError, match=message):
        FeatureLayout.load(_damaged_layout(tmp_path, damage))


def test_reorder_features_length_mismatch(tmp_path):
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"123")
    with pytest.raises(FormatError):
        reorder_features(str(feats), np.array([0, 1]), 2, str(tmp_path / "o.bin"))


def _regrouped_reference(features_path, labels, width, num_parts):
    """The grouped records and the ``.layout`` bytes, by a stable argsort and a gather."""
    records = np.fromfile(features_path, dtype=np.uint8).reshape(-1, width)
    order = np.argsort(labels, kind="stable")
    permutation = np.empty(len(labels), dtype="<u8")
    permutation[order] = np.arange(len(labels))
    counts = np.bincount(labels, minlength=num_parts)
    extents = np.column_stack([np.cumsum(counts) - counts, counts]).astype("<u8")
    header = b"GRPF" + np.array([width], "<u4").tobytes() + \
        np.array([len(labels)], "<u8").tobytes() + np.array([num_parts], "<u4").tobytes()
    return records[order].tobytes(), header + permutation.tobytes() + extents.tobytes()


def _features(tmp_path, num_nodes, width, seed=5):
    feats = tmp_path / "f.bin"
    rng = np.random.default_rng(seed)
    feats.write_bytes(rng.integers(0, 256, size=num_nodes * width, dtype=np.uint8).tobytes())
    return str(feats)


@pytest.mark.parametrize("block", ["default", "few_records"])
@pytest.mark.parametrize("parts", ["random", "declared_with_empty", "single"])
@pytest.mark.parametrize("width", [1, 3, 128])
def test_reorder_features_equals_a_numpy_reference(tmp_path, monkeypatch, width, parts, block):
    num_nodes = 61
    feats = _features(tmp_path, num_nodes, width)
    rng = np.random.default_rng(width)
    num_parts = None
    if parts == "random":
        labels, p = rng.integers(0, 5, size=num_nodes), 5
        labels[0] = 4
    elif parts == "declared_with_empty":  # parts 0, 2 and 6 to 8 hold no node
        labels, num_parts = rng.choice([1, 3, 4, 5], size=num_nodes), 9
        p = num_parts
    else:
        labels, p = np.zeros(num_nodes, dtype=np.int64), 1
    if block == "few_records":  # blocks of 4 records end inside partitions' runs
        monkeypatch.setattr(store_module, "_FEATURE_BLOCK_BYTES", 4 * width + width // 2)
    grouped, layout_bytes = _regrouped_reference(feats, labels, width, p)
    out = tmp_path / "grouped.bin"
    layout = reorder_features(feats, labels, width, str(out), num_parts)
    assert out.read_bytes() == grouped
    assert Path(str(out) + ".layout").read_bytes() == layout_bytes
    assert len(layout.extents) == p


def test_an_empty_features_file_regroups_to_an_empty_file(tmp_path):
    # no record and no label: one empty extent (the mapped reader refused
    # an empty file with numpy's ValueError)
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"")
    out = tmp_path / "o.bin"
    layout = reorder_features(str(feats), np.zeros(0, dtype=np.int64), 4, str(out))
    assert out.read_bytes() == b"" and layout.extents == ((0, 0),)
    reloaded = FeatureLayout.load(str(out) + ".layout")
    assert reloaded.num_nodes == 0 and reloaded.extents == ((0, 0),)


def test_reorder_features_maps_nothing(tmp_path, monkeypatch):
    # the records are read in blocks, never mapped: a mapped file's pages
    # would count in the process's resident set
    import mmap

    def refuse(*args, **kwargs):
        raise AssertionError("mapped")

    monkeypatch.setattr(np, "memmap", refuse)
    monkeypatch.setattr(mmap, "mmap", refuse)
    feats = _features(tmp_path, 300, 16)
    labels = np.random.default_rng(3).integers(0, 4, size=300)
    grouped, layout_bytes = _regrouped_reference(feats, labels, 16, 4)
    reorder_features(feats, labels, 16, str(tmp_path / "o.bin"))
    assert (tmp_path / "o.bin").read_bytes() == grouped
    assert (tmp_path / "o.bin.layout").read_bytes() == layout_bytes


def test_reorder_features_holds_blocks_not_the_file(tmp_path, monkeypatch):
    # 2 MiB of records in 4 KiB blocks: what the stage allocates is its
    # per-node arrays (under 40 B a node) and two blocks, never a buffer
    # that grows with the file
    import tracemalloc

    num_nodes, width = 16_384, 128
    feats = _features(tmp_path, num_nodes, width)
    labels = np.random.default_rng(4).integers(0, 16, size=num_nodes)
    monkeypatch.setattr(store_module, "_FEATURE_BLOCK_BYTES", 4096)
    tracemalloc.start()
    try:
        reorder_features(feats, labels, width, str(tmp_path / "o.bin"))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 40 * num_nodes + 4 * 4096 + (64 << 10) < num_nodes * width // 2
    grouped, _ = _regrouped_reference(feats, labels, width, 16)
    assert (tmp_path / "o.bin").read_bytes() == grouped


def test_layout_save_copies_no_permutation(tmp_path):
    # every slot is >= 0, so the int64 permutation's bytes are the u64 ones
    # the file holds: saving a 200,000-node layout (1.6 MB of slots) writes
    # them as they are, with no u64 copy
    import tracemalloc

    num_nodes = 200_000
    permutation = np.random.default_rng(9).permutation(num_nodes)
    layout = FeatureLayout(16, permutation, ((0, num_nodes),))
    path = str(tmp_path / "o.bin.layout")
    tracemalloc.start()
    try:
        layout.save(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 500_000
    assert FeatureLayout.load(path).permutation.tolist() == permutation.tolist()


@pytest.mark.parametrize("block_records", [None, 7])  # short in the first block, or a later one
def test_a_features_file_short_while_read_is_a_format_error(tmp_path, monkeypatch,
                                                            block_records):
    # the file shrinks between the size check and the read: the block read
    # short is refused, and no output is left behind
    num_nodes, width, short = 40, 3, 5
    feats = _features(tmp_path, num_nodes - short, width)
    if block_records is not None:
        monkeypatch.setattr(store_module, "_FEATURE_BLOCK_BYTES", block_records * width)
    real_getsize = store_module.os.path.getsize
    monkeypatch.setattr(store_module.os.path, "getsize",
                        lambda path: real_getsize(path) + short * width * (path == feats))
    labels = np.random.default_rng(6).integers(0, 4, size=num_nodes)
    with pytest.raises(FormatError, match=rf"f\.bin: shorter than its {num_nodes} records"):
        reorder_features(feats, labels, width, str(tmp_path / "o.bin"))
    assert sorted(f.name for f in tmp_path.iterdir()) == ["f.bin"]


@pytest.mark.parametrize("p", [2, 17, 300])  # bucket ids fit uint8, uint16, and neither
def test_buckets_equal_stable_sort_reference(tmp_path, p):
    rng = np.random.default_rng(p)
    num_nodes = 2 * p + 50
    edges = rng.integers(0, num_nodes, size=(270_000, 2))  # more than one streaming block
    labels = rng.integers(0, p, size=num_nodes)
    labels[:p] = np.arange(p)
    efile = make_edge_file(tmp_path / "g.grpe", edges, num_nodes)
    store = tmp_path / "g.grpb"
    index = write_buckets(efile, labels, str(store))
    bucket = (labels[edges[:, 0]] * p + labels[edges[:, 1]]).tolist()
    order = sorted(range(len(bucket)), key=bucket.__getitem__)  # Python's sort is stable
    counts = np.bincount(bucket, minlength=p * p)
    assert index.p == p
    assert index.counts.ravel().tolist() == counts.tolist()
    header_size = index.offsets[0, 0]
    assert Path(store).read_bytes()[header_size:] == edges[order].astype("<u4").tobytes()


# ------------------------------------------------------------ atomic outputs


def _crash_after_first_block(monkeypatch, store):
    """Makes write_buckets' write pass raise after its first 1000-edge block.

    The write pass streams through the block reader that ``store``
    imports; the crash comes once the temporary store exists.
    """
    real = store_module.iter_edge_blocks

    def blocks(efile):
        for i, block in enumerate(real(efile, 1000)):
            if i == 1 and os.path.exists(store + ".tmp"):
                raise Crash
            yield block

    monkeypatch.setattr(store_module, "iter_edge_blocks", blocks)


def test_buckets_failure_leaves_no_output(tmp_path, monkeypatch):
    rng = np.random.default_rng(8)
    edges = rng.integers(0, 100, size=(5000, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 100)
    before = dir_bytes(tmp_path)
    _crash_after_first_block(monkeypatch, str(tmp_path / "g.grpb"))
    with pytest.raises(Crash):
        write_buckets(efile, rng.integers(0, 4, size=100), str(tmp_path / "g.grpb"))
    assert dir_bytes(tmp_path) == before  # no store, index or temporary file


def test_buckets_failure_keeps_the_previous_pair(tmp_path, monkeypatch):
    rng = np.random.default_rng(9)
    edges = rng.integers(0, 100, size=(5000, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 100)
    store = str(tmp_path / "g.grpb")
    old_labels = rng.integers(0, 2, size=100)
    write_buckets(efile, old_labels, store)
    before = dir_bytes(tmp_path)
    _crash_after_first_block(monkeypatch, store)
    with pytest.raises(Crash):
        write_buckets(efile, rng.integers(0, 4, size=100), store)
    assert dir_bytes(tmp_path) == before
    index = read_index(store)
    assert index.p == 2
    got = np.concatenate([read_bucket(store, i, j, index) for i in range(2) for j in range(2)])
    assert _multiset(got) == _multiset(edges)


def test_buckets_crash_between_renames_leaves_no_valid_pair(tmp_path, monkeypatch):
    rng = np.random.default_rng(10)
    edges = rng.integers(0, 50, size=(300, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 50)
    store = str(tmp_path / "g.grpb")
    # the old pair has the same p and counts as the new one
    labels = rng.integers(0, 3, size=50)
    write_buckets(efile, labels, store)
    real_replace = store_module.os.replace
    calls = []

    def replace(src, dst):
        calls.append(dst)
        if len(calls) == 2:
            raise Crash
        real_replace(src, dst)

    monkeypatch.setattr(store_module.os, "replace", replace)
    with pytest.raises(Crash):
        write_buckets(efile, labels, store)
    assert calls == [store, store + ".idx"]
    assert sorted(f.name for f in tmp_path.iterdir()) == ["g.grpb", "g.grpe"]
    with pytest.raises(FormatError, match="idx: missing"):
        read_index(store)


def test_reorder_features_failure_leaves_no_output(tmp_path, monkeypatch):
    rng = np.random.default_rng(11)
    feats = tmp_path / "f.bin"
    feats.write_bytes(rng.integers(0, 256, size=40 * 3, dtype=np.uint8).tobytes())
    out = str(tmp_path / "o.bin")
    reorder_features(str(feats), rng.integers(0, 2, size=40), 3, out)
    before = dir_bytes(tmp_path)
    real_save = FeatureLayout.save

    def save(self, path):
        real_save(self, path)  # a complete grouped file and layout, then the crash
        raise Crash

    monkeypatch.setattr(FeatureLayout, "save", save)
    with pytest.raises(Crash):
        reorder_features(str(feats), rng.integers(0, 4, size=40), 3, out)
    assert dir_bytes(tmp_path) == before
    for name in ("o.bin", "o.bin.layout"):
        (tmp_path / name).unlink()
    with pytest.raises(Crash):
        reorder_features(str(feats), rng.integers(0, 4, size=40), 3, out)
    assert sorted(f.name for f in tmp_path.iterdir()) == ["f.bin"]


_BINARY_OUTPUTS = ["g.grpe", "l.grpl", "b.grpb", "b.grpb.idx", "o.bin", "o.bin.layout"]


@pytest.mark.parametrize("name, cut", [(name, cut) for cut in (1, 8, "all")
                                       for name in _BINARY_OUTPUTS])
def test_each_binary_reader_refuses_a_short_file(tmp_path, name, cut):
    # outputs are never fsynced, so a power loss may leave one short: its
    # reader must say so, whichever file it is and wherever it was cut
    rng = np.random.default_rng(14)
    efile = make_edge_file(tmp_path / "g.grpe", rng.integers(0, 30, size=(200, 2)), 30)
    labels = rng.integers(0, 4, size=30)
    write_labels(str(tmp_path / "l.grpl"), labels, num_parts=4)
    write_buckets(efile, labels, str(tmp_path / "b.grpb"), 4)
    (tmp_path / "f.bin").write_bytes(rng.integers(0, 256, size=30 * 8, dtype=np.uint8))
    reorder_features(str(tmp_path / "f.bin"), labels, 8, str(tmp_path / "o.bin"), 4)
    readers = {
        "g.grpe": lambda: read_all_edges(open_edge_file(efile.path)),
        "l.grpl": lambda: read_labels(str(tmp_path / "l.grpl")),
        "b.grpb": lambda: read_index(str(tmp_path / "b.grpb")),
        "b.grpb.idx": lambda: read_index(str(tmp_path / "b.grpb")),
        "o.bin": lambda: FeatureLayout.load(str(tmp_path / "o.bin.layout")).read_record(
            str(tmp_path / "o.bin"), 0),
        "o.bin.layout": lambda: FeatureLayout.load(str(tmp_path / "o.bin.layout")),
    }
    readers[name]()
    path = tmp_path / name
    with open(path, "r+b") as fh:
        fh.truncate(0 if cut == "all" else path.stat().st_size - cut)
    with pytest.raises(FormatError):
        readers[name]()


# (offset, bytes) of each header field: GRPL magic, version, num_nodes,
# num_parts; GRPB magic, version, p, flags, num_edges; GRPF magic,
# record_width, num_nodes, num_parts; and every (offset, count) entry of a
# 4 x 4 store's .idx
_HEADER_FIELDS = {
    "g.grpe": [(0, 4), (4, 4), (8, 4), (12, 8), (20, 8)],
    "l.grpl": [(0, 4), (4, 4), (8, 8), (16, 4)],
    "b.grpb": [(0, 4), (4, 4), (8, 4), (12, 4), (16, 8)],
    "b.grpb.idx": [(8 * k, 8) for k in range(2 * 16)],
    "o.bin.layout": [(0, 4), (4, 4), (8, 8), (16, 4)],
}


@PROPERTY_SETTINGS
@given(
    name=st.sampled_from(sorted(_HEADER_FIELDS)),
    field=st.integers(0, 31),
    change=st.one_of(
        st.integers(0, 63).map(lambda bit: ("flip", bit)),
        st.sampled_from([0, 1, 2**31, 2**32 - 1, 2**63, 2**64 - 1]).map(lambda v: ("set", v)),
        st.integers(0, 2**64 - 1).map(lambda v: ("set", v)),
    ),
)
def test_a_damaged_header_field_is_a_format_error(tmp_path, name, field, change):
    # one field flipped in one bit or replaced, sizes and counts up to 2**64 - 1
    # included: the reader raises FormatError, never a numpy error, or reads a
    # file that is still valid
    rng = np.random.default_rng(15)
    edges = rng.integers(0, 30, size=(200, 2))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 30)
    labels = rng.integers(0, 4, size=30)
    write_labels(str(tmp_path / "l.grpl"), labels, num_parts=4)
    write_buckets(efile, labels, str(tmp_path / "b.grpb"), 4)
    (tmp_path / "f.bin").write_bytes(rng.integers(0, 256, size=30 * 8, dtype=np.uint8))
    reorder_features(str(tmp_path / "f.bin"), labels, 8, str(tmp_path / "o.bin"), 4)
    fields = _HEADER_FIELDS[name]
    offset, size = fields[field % len(fields)]
    path = tmp_path / name
    raw = bytearray(path.read_bytes())
    old = int.from_bytes(raw[offset : offset + size], "little")
    kind, arg = change
    new = old ^ (1 << arg % (8 * size)) if kind == "flip" else arg % (1 << 8 * size)
    assume(new != old)
    raw[offset : offset + size] = new.to_bytes(size, "little")
    path.write_bytes(bytes(raw))
    if name == "g.grpe":
        try:
            got = read_all_edges(open_edge_file(str(path)))
        except FormatError:
            return
        # only a num_nodes still above every id leaves a valid file
        assert offset == 12 and new > int(edges.max())
        assert got.tolist() == edges.tolist()
    elif name == "l.grpl":
        try:
            got, num_parts = read_labels(str(path))
        except FormatError:
            return
        # only a num_parts still above every label leaves a valid file
        assert (offset, new) == (16, num_parts) and num_parts > 3
        assert got.tolist() == labels.tolist()
    elif name == "o.bin.layout":
        # a record width of another length leaves a valid layout, whose grouped
        # file then has the wrong length
        with pytest.raises(FormatError):
            FeatureLayout.load(str(path)).read_record(str(tmp_path / "o.bin"), 0)
    else:
        with pytest.raises(FormatError):
            read_index(str(tmp_path / "b.grpb"))
