from pathlib import Path

import numpy as np
import pytest

from streamcut import (
    FeatureLayout,
    FormatError,
    read_bucket,
    read_index,
    reorder_features,
    write_buckets,
)

from helpers import make_edge_file, random_multigraph


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
    index = write_buckets(efile, labels, store)
    dtype = np.dtype("<u4")
    blob = b""
    for i in range(index.p):
        for j in range(index.p):
            blob += read_bucket(store, i, j, index).astype(dtype).tobytes()
    with open(store, "rb") as fh:
        fh.seek(24)
        assert fh.read() == blob


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


def test_reorder_features_length_mismatch(tmp_path):
    feats = tmp_path / "f.bin"
    feats.write_bytes(b"123")
    with pytest.raises(FormatError):
        reorder_features(str(feats), np.array([0, 1]), 2, str(tmp_path / "o.bin"))


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
