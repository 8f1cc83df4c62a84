import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from streamcut import EdgeChunk, FormatError, GraphMeta, NodeStats, PartitionState
from streamcut import model
from streamcut.model import _pack_keys, build_adjacency, key_layout

from helpers import PROPERTY_SETTINGS, recount_sizes


def test_graph_meta_validation():
    GraphMeta(1, 0)
    with pytest.raises(FormatError):
        GraphMeta(0, 0)
    with pytest.raises(FormatError):
        GraphMeta(3, -1)
    with pytest.raises(FormatError):
        GraphMeta(3, 0, node_id_width=16)


def _brute_adjacency(edges):
    adj = {}
    for u, v in edges.tolist():
        adj.setdefault(u, [])
        adj.setdefault(v, [])
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    return {n: sorted(lst) for n, lst in adj.items()}


def _check_against_rebuild(edges):
    chunk = EdgeChunk(0, edges)
    oracle = _brute_adjacency(edges)
    nodes, offsets, nbrs = chunk.nodes, chunk.offsets, chunk.nbrs
    assert (nodes.dtype, offsets.dtype, nbrs.dtype) == (np.int64, np.int64, np.uint32)
    assert offsets.size == nodes.size + 1 and offsets[0] == 0 and offsets[-1] == nbrs.size
    assert nodes.tolist() == sorted(oracle)
    for i, node in enumerate(nodes.tolist()):
        assert nbrs[offsets[i] : offsets[i + 1]].tolist() == oracle[node]


def test_chunk_adjacency_matches_rebuild():
    rng = np.random.default_rng(11)
    for _ in range(50):
        n = int(rng.integers(2, 30))
        m = int(rng.integers(1, 120))
        edges = rng.integers(0, n, size=(m, 2)).astype(np.int64)
        _check_against_rebuild(edges)
    # nodes that appear only in self-loops stay listed, with no neighbors
    _check_against_rebuild(np.array([[5, 5], [1, 2], [7, 7], [7, 7], [2, 1]]))
    _check_against_rebuild(np.empty((0, 2), dtype=np.int64))


def test_chunk_adjacency_entry_count():
    rng = np.random.default_rng(5)
    for _ in range(20):
        edges = rng.integers(0, 12, size=(int(rng.integers(1, 60)), 2)).astype(np.int64)
        chunk = EdgeChunk(0, edges)
        non_loops = int((edges[:, 0] != edges[:, 1]).sum())
        assert len(chunk.nbrs) == 2 * non_loops
        assert int(np.diff(chunk.offsets).sum()) == 2 * non_loops


def test_chunk_absent_node_and_empty():
    chunk = EdgeChunk(3, np.array([[0, 1]]))
    assert 7 not in chunk.nodes.tolist()
    empty = EdgeChunk(0, np.empty((0, 2)))
    assert empty.nodes.size == 0
    assert empty.num_edges == 0
    assert empty.nbrs.size == 0 and empty.offsets.tolist() == [0]


# the largest width whose src * width + dst keys, which the builder once
# packed, fit in int64 (width**2 <= 2**63); shift-packed, its ids take u64
# keys of shift 32
_WIDEST = 3_037_000_499


@PROPERTY_SETTINGS
@given(
    edges=st.lists(st.tuples(st.integers(0, 30), st.integers(0, 30)), min_size=1, max_size=150),
    loop_only=st.lists(st.integers(31, 40), max_size=4),
    spare_width=st.sampled_from([0, 1, 7, 1000, 2**20]),
)
@example(edges=[(_WIDEST - 1, 0), (_WIDEST - 1, _WIDEST - 1), (1, _WIDEST - 1), (1, 1)],
         loop_only=[], spare_width=0)
def test_adjacency_tail_native_equals_python_property(edges, loop_only, spare_width):
    # duplicates, self-loops and self-loop-only nodes; any width above the
    # largest id, whatever its key dtype and shift, must give the index of a
    # plain lexsort
    edges = np.array(edges + [(n, n) for n in loop_only], dtype=np.int64)
    oracle = _lexsort_adjacency(edges)
    for width in (int(edges.max()) + 1 + spare_width, int(edges.max()) + 1):
        index = build_adjacency((edges,), edges.shape[0], width)
        assert len(index) == 3
        assert [a.dtype for a in index] == [np.int64, np.int64, np.uint32]
        for got, want in zip(index, oracle):
            assert got.tolist() == want.tolist()


def test_key_layout_at_the_boundaries():
    many = 2**40  # keys enough for any part count
    assert key_layout(1, 2) == (0, np.uint32, 1)
    assert key_layout(65_536, 2) == (16, np.uint32, 1)  # the last width of one u32 part
    assert key_layout(65_537, many) == (17, np.uint32, 3)  # src 65,536 alone in the third part
    assert key_layout(200_000, many) == (18, np.uint32, 13)  # the last part partial
    assert key_layout(2**19, many) == (19, np.uint32, 64)  # the last width of split keys
    assert key_layout(2**19 + 1, many) == (20, np.uint64, 1)
    assert key_layout(2**21, many) == (21, np.uint64, 1)
    assert key_layout(2**32, many) == (32, np.uint64, 1)  # the last width of packed keys
    # parts of fewer than 8,192 keys on average sort as one u64 sort
    assert key_layout(200_000, 13 * 8192) == (18, np.uint32, 13)
    assert key_layout(200_000, 13 * 8192 - 1) == (18, np.uint64, 1)
    assert key_layout(2**19, 64 * 8192 - 1) == (19, np.uint64, 1)
    assert key_layout(65_537, 2) == (17, np.uint64, 1)


# ids counted down from the top of each width: the last u32 width, the first
# u64 one and the last packed one (shift 32)
_TOPS = [41, 65_536, 65_537, 2**32]


@PROPERTY_SETTINGS
@given(
    top=st.sampled_from(_TOPS),
    dtype=st.sampled_from([np.uint32, np.uint64, np.int64]),
    pairs=st.lists(st.tuples(st.integers(0, 12), st.integers(0, 12)), min_size=1, max_size=80),
    loop_only=st.lists(st.integers(13, 16), max_size=3),
    split=st.integers(0, 80),
)
# every key opens a run: each node has one neighbour
@example(top=65_536, dtype=np.uint32, pairs=[(0, 1), (2, 3), (5, 4)], loop_only=[], split=1)
@example(top=2**32, dtype=np.uint64, pairs=[(0, 1), (2, 3), (5, 4)], loop_only=[], split=2)
# the last run repeats: duplicate keys of the highest owner, then its self-loop
@example(top=65_537, dtype=np.int64, pairs=[(0, 3), (0, 3), (1, 0), (0, 0)], loop_only=[], split=0)
def test_shift_packed_keys_native_equal_numpy_property(top, dtype, pairs, loop_only, split):
    # the compiled pack_keys and adjacency_tail against a brute-force rebuild,
    # over two blocks: duplicates, self-loops and self-loop-only nodes
    # included
    offsets = np.array(pairs + [(n, n) for n in loop_only], dtype=np.int64)
    edges = (top - 1 - offsets).astype(dtype)
    blocks = (edges[:split], edges[split:])
    nodes, offsets, nbrs = build_adjacency(blocks, edges.shape[0], top)
    oracle = _brute_adjacency(edges.astype(np.uint64))
    assert (nodes.dtype, offsets.dtype, nbrs.dtype) == (np.int64, np.int64, np.uint32)
    assert nodes.tolist() == sorted(oracle)
    lists = [nbrs[a:b].tolist() for a, b in zip(offsets[:-1], offsets[1:])]
    assert lists == [oracle[n] for n in sorted(oracle)]


def test_u64_block_indexes_as_its_int64_twin():
    # a chunk reads a u64 block as it is and must still give the twin's
    # arrays, int64 nodes and offsets and u32 neighbour ids: u64 keys up to
    # the widest id, u32 keys below 1000
    edges = np.array([[_WIDEST, 0], [_WIDEST + 7, _WIDEST], [5, 5], [2**32 - 1, 5], [0, _WIDEST],
                      [_WIDEST + 7, _WIDEST]])
    for block in (edges, edges % 1000):
        wide, twin = EdgeChunk(0, block.astype(np.uint64)), EdgeChunk(0, block)
        assert wide.num_edges == twin.num_edges == edges.shape[0]
        for a, b in zip((wide.nodes, wide.offsets, wide.nbrs),
                        (twin.nodes, twin.offsets, twin.nbrs)):
            assert a.dtype == b.dtype
            assert a.tolist() == b.tolist()
        assert wide.nbrs.dtype == np.uint32
        _check_against_rebuild(block.astype(np.uint64))


def test_every_index_holds_ids_below_2_32():
    # an id of 2**32 - 1 packs as u64 keys of shift 32; one id more is refused
    # by the chunk and by the builder alike
    for dtype in (np.uint64, np.int64):
        chunk = EdgeChunk(0, np.array([[2**32 - 1, 0]], dtype=dtype))
        assert chunk.width == 2**32 and chunk.keys.dtype == np.uint64
        assert chunk.keys.tolist() == [2**32 - 1, (2**32 - 1) << 32]
        with pytest.raises(FormatError):
            EdgeChunk(0, np.array([[2**32, 0]], dtype=dtype))
    edges = np.array([[0, 1]], dtype=np.uint64)
    assert [a.tolist() for a in build_adjacency((edges,), 1, 2**32)] == [[0, 1], [0, 1, 2], [1, 0]]
    with pytest.raises(FormatError):
        build_adjacency((edges,), 1, 2**32 + 1)


def test_a_block_of_negative_ids_is_refused():
    # its largest id + 1, the width, is negative or 0: every id lies outside
    # [0, width)
    for edges in ([[-5, -3]], [[-1, -1]], [[-70_000, -2]], [[-5, -3], [-2, -9]]):
        for dtype in (np.int64, np.int32):
            with pytest.raises(ValueError, match=r"edge ids must lie in \[0, "):
                EdgeChunk(0, np.array(edges, dtype=dtype))
    with pytest.raises(ValueError, match=r"edge ids must lie in \[0, 4\)"):
        EdgeChunk(0, np.array([[-5, 3]]))


def _lexsort_adjacency(edges):
    """The index by a plain ``np.lexsort`` of both directions of every edge."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    src = np.concatenate([edges[:, 0], edges[:, 1]])
    dst = np.concatenate([edges[:, 1], edges[:, 0]])
    order = np.lexsort((dst, src))
    src, dst = src[order], dst[order]
    nodes, first = np.unique(src, return_index=True)
    before = np.concatenate([[0], np.cumsum(src != dst)])  # kept entries before each position
    return nodes, before[np.append(first, src.size)], dst[src != dst]


# one u32 part, three (the third holds src 65,536 alone), 13 with the last
# partial, 64, the last width of split keys, and u64 keys past it
_SPLIT_WIDTHS = [65_536, 65_537, 200_000, 2**19, 2**21]


def _parts_oracle(edges, width):
    """The keys of ``key_layout``'s parts by a plain sort: (bounds, the sorted
    u64 ``src << shift | dst`` keys of both directions)."""
    shift = (width - 1).bit_length()
    src = np.concatenate([edges[:, 0], edges[:, 1]]).astype(np.uint64)
    dst = np.concatenate([edges[:, 1], edges[:, 0]]).astype(np.uint64)
    keys = np.sort(src << np.uint64(shift) | dst)
    parts = key_layout(width, keys.size)[2]
    bounds = np.searchsorted(keys >> np.uint64(32), np.arange(parts + 1), side="left")
    bounds[-1] = keys.size
    return bounds, keys


def _check_parts(edges, width, blocks):
    """``_pack_keys`` over ``blocks`` against ``_parts_oracle``: part q holds
    exactly the low 32 bits of the keys whose high bits are q (a single part
    holds every key whole), and the index is the lexsort's."""
    keys, bounds = _pack_keys(blocks, edges.shape[0], width)
    want_bounds, want = _parts_oracle(edges, width)
    if bounds is None:
        assert want_bounds.size == 2
        assert np.sort(keys).tolist() == want.tolist()
    else:
        assert keys.dtype == np.uint32
        assert bounds.tolist() == want_bounds.tolist()
        want &= np.uint64(0xFFFFFFFF)
        for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
            assert np.sort(keys[a:b]).tolist() == want[a:b].tolist()
    index = build_adjacency(blocks, edges.shape[0], width)
    assert [a.dtype for a in index] == [np.int64, np.int64, np.uint32]
    for got, want in zip(index, _lexsort_adjacency(edges)):
        assert got.tolist() == want.tolist()


@PROPERTY_SETTINGS
@given(
    width=st.sampled_from(_SPLIT_WIDTHS),
    dtype=st.sampled_from([np.uint32, np.uint64]),
    # ids from the bottom, the middle and the top of the width, and anywhere
    ids=st.lists(st.one_of(st.integers(0, 5), st.integers(-3, 3).map(lambda d: ("mid", d)),
                           st.integers(1, 6).map(lambda d: ("top", d)),
                           st.floats(0, 1, exclude_max=True).map(lambda f: ("any", f))),
                 min_size=2, max_size=120),
    loop_only=st.lists(st.floats(0, 1, exclude_max=True), max_size=3),
    split=st.integers(0, 60),
)
# every key in the first part, then every key in the last one
@example(width=2**19, dtype=np.uint32, ids=[0, 1, 1, 0, 2, 2], loop_only=[], split=1)
@example(width=200_000, dtype=np.uint64, ids=[("top", 1), ("top", 2), ("top", 1), ("top", 1)],
         loop_only=[0.5], split=0)
def test_split_keys_equal_a_lexsort_property(monkeypatch, width, dtype, ids, loop_only, split):
    # duplicates, self-loops, self-loop-only nodes and empty parts, in two
    # blocks at either stored width; every key count takes the split up to 64
    # parts, and each key goes straight to its part's cursor
    monkeypatch.setattr(model, "_MIN_PART_KEYS", 0)

    def resolve(x):
        if isinstance(x, int):
            return x
        kind, arg = x
        return {"mid": width // 2 + arg, "top": width - arg, "any": int(arg * width)}[kind]

    flat = [resolve(x) for x in ids]
    pairs = [(flat[i], flat[i + 1]) for i in range(0, len(flat) - 1, 2)]
    pairs += [(int(f * width),) * 2 for f in loop_only]
    pairs += [pairs[0]]  # a duplicate edge
    edges = np.array(pairs, dtype=dtype)
    _check_parts(edges, width, (edges[:split], edges[split:]))


# the layout of 120,000 keys per width: enough keys for 3 and 13 parts, not
# for 64 (2**19 is u64 keys), and above 2**19 u64 keys
_SPLIT_LAYOUTS = {65_536: (np.uint32, 1), 65_537: (np.uint32, 3), 200_000: (np.uint32, 13),
                  2**19: (np.uint64, 1), 2**21: (np.uint64, 1)}


@pytest.mark.parametrize("width", _SPLIT_WIDTHS)
def test_split_keys_of_a_random_multigraph_equal_a_lexsort(width):
    # 60,000 edges over the whole width in three blocks, the one index
    # whatever the layout
    rng = np.random.default_rng(width)
    edges = rng.integers(0, width, size=(60_000, 2))
    edges[::10, 1] = edges[::10, 0]
    edges[1::10] = edges[:-1:10]
    dtype, parts = _SPLIT_LAYOUTS[width]
    assert key_layout(width, 120_000)[1:] == (dtype, parts)
    _check_parts(edges, width, (edges[:7000], edges[7000:30_000], edges[30_000:]))


def test_split_keys_read_re_iterable_blocks_and_refuse_a_one_shot_iterator():
    # 13 parts at n = 200,000: blocks in a tuple or a list are read twice,
    # once to count each part's keys and once to pack them; a generator
    # would come back empty on the second pass, so it is refused, and
    # blocks that differ between the passes are refused, not packed past a
    # part's end
    rng = np.random.default_rng(8)
    width, num_edges = 200_000, 60_000
    edges = rng.integers(0, width, size=(num_edges, 2), dtype=np.uint32)
    assert key_layout(width, 2 * num_edges)[2] == 13
    want = _lexsort_adjacency(edges)
    for blocks in ((edges[:25_000], edges[25_000:]), [edges]):
        for got, oracle in zip(build_adjacency(blocks, num_edges, width), want):
            assert got.tolist() == oracle.tolist()
    for one_shot in ((block for block in (edges,)), iter((edges,))):
        with pytest.raises(TypeError, match="re-iterable"):
            build_adjacency(one_shot, num_edges, width)

    class Drifting:
        """Blocks whose second pass moves every row to the last part."""

        def __init__(self):
            self.passes = 0

        def __iter__(self):
            self.passes += 1
            yield edges if self.passes == 1 else np.full_like(edges, width - 1)

    with pytest.raises(ValueError, match="more keys than the count pass found"):
        build_adjacency(Drifting(), num_edges, width)
    with pytest.raises(ValueError, match="blocks hold 59999 rows, not 60000"):
        build_adjacency((edges[1:],), num_edges, width)


@pytest.mark.parametrize("width", [65_537, 2**19])
def test_a_chunk_holds_one_sorted_array_of_u64_keys_above_width_65536(monkeypatch, width):
    # even where the estimator's build would split the keys, a chunk packs
    # exactly 2 * num_edges of them into one u64 array and sorts it
    monkeypatch.setattr(model, "_MIN_PART_KEYS", 0)
    rng = np.random.default_rng(width)
    edges = rng.integers(0, width, size=(500, 2), dtype=np.uint32)
    edges[0] = (width - 1, 0)
    shift = (width - 1).bit_length()
    src, dst = edges[:, 0].astype(np.uint64), edges[:, 1].astype(np.uint64)
    want = np.sort(np.concatenate([src << shift | dst, dst << shift | src]))
    parts = {65_537: 3, 2**19: 64}[width]
    assert key_layout(width, 1000)[2] == parts
    chunk = EdgeChunk(1, edges)
    assert chunk.keys.dtype == np.uint64
    assert chunk.keys.tolist() == want.tolist()
    assert not hasattr(chunk, "bounds")


def test_partition_state_recount():
    state = PartitionState(5, capacity=3)
    assert state.sizes == recount_sizes(state.parts) == [0, 0]
    state.parts[0] = 0
    state.parts[3] = 1
    state.parts[4] = 1
    state.sizes = [1, 2]
    assert recount_sizes(state.parts) == [1, 2]
    assert state.lean[2] == 0.0
    assert state.parts.tolist() == [0, -1, -1, 1, 1]


@pytest.mark.parametrize("num_nodes", [1, 1000])
def test_partition_state_holds_nine_bytes_per_node(num_nodes):
    # an int8 label and one float64 lean per node, and no other per-node array
    state = PartitionState(num_nodes, capacity=num_nodes)
    arrays = {name: getattr(state, name) for name in PartitionState.__slots__
              if isinstance(getattr(state, name), np.ndarray)}
    assert sorted(arrays) == ["lean", "parts"]
    assert (state.parts.dtype, state.lean.dtype) == (np.int8, np.float64)
    assert state.parts.nbytes + state.lean.nbytes == 9 * num_nodes


def test_node_stats_validation():
    NodeStats(np.array([4, 0]), np.array([3, 0]))
    with pytest.raises(FormatError):
        NodeStats(np.array([4]), np.array([5]))  # k0 > k
    with pytest.raises(FormatError):
        NodeStats(np.array([4]), np.array([1]))  # k0 below the majority bound
