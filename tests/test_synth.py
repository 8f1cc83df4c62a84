import numpy as np
import pytest

from streamcut import FormatError, count_cuts, generate, synth
from streamcut.synth import CliqueUnionSpec, PathSpec, SbmSpec, StarSpec, write_graph

from helpers import make_edge_file


def test_clique_union_edge_count():
    edges, labels = generate(CliqueUnionSpec(2, 4, bridges=1))
    assert len(edges) == 13  # 2 * C(4,2) + 1
    assert labels.tolist() == [0] * 4 + [1] * 4
    grid = {tuple(e) for e in edges.tolist()}
    assert (0, 4) in grid  # the bridge


def test_sbm_zero_cross_probability():
    edges, labels = generate(SbmSpec(2, 30, p_in=0.3, p_out=0.0, rng_seed=1))
    cross = sum(1 for u, v in edges.tolist() if labels[u] != labels[v])
    assert cross == 0


def test_sbm_ground_truth_cut_is_cross_count(tmp_path):
    spec = SbmSpec(2, 50, p_in=0.1, p_out=0.02, rng_seed=5)
    edges, labels = generate(spec)
    cross = sum(1 for u, v in edges.tolist() if labels[u] != labels[v])
    efile = make_edge_file(tmp_path / "g.grpe", edges, len(labels))
    report = count_cuts(efile, labels.astype(np.int64))
    assert report.cut_edges == cross


def test_sbm_inter_block_count_within_binomial_bounds():
    spec = SbmSpec(2, 500, p_in=0.05, p_out=0.001, rng_seed=11)
    edges, labels = generate(spec)
    inter = sum(1 for u, v in edges.tolist() if labels[u] != labels[v])
    n_pairs = 500 * 500
    mean = n_pairs * 0.001
    sigma = np.sqrt(n_pairs * 0.001 * 0.999)
    assert abs(inter - mean) <= 4 * sigma
    intra = len(edges) - inter
    intra_pairs = 2 * (500 * 499 // 2)
    intra_mean = intra_pairs * 0.05
    intra_sigma = np.sqrt(intra_pairs * 0.05 * 0.95)
    assert abs(intra - intra_mean) <= 4 * intra_sigma


def test_sbm_no_self_loops_or_out_of_range():
    edges, labels = generate(SbmSpec(3, 40, p_in=0.2, p_out=0.05, rng_seed=2))
    arr = np.asarray(edges)
    assert (arr[:, 0] != arr[:, 1]).all()
    assert arr.min() >= 0 and arr.max() < len(labels)
    # intra edges are (i < j); no duplicate sampling of a pair
    pairs = list(map(tuple, arr.tolist()))
    assert len(pairs) == len(set(pairs))


def test_sbm_deterministic_per_seed():
    a, _ = generate(SbmSpec(2, 80, p_in=0.1, p_out=0.01, rng_seed=3))
    b, _ = generate(SbmSpec(2, 80, p_in=0.1, p_out=0.01, rng_seed=3))
    c, _ = generate(SbmSpec(2, 80, p_in=0.1, p_out=0.01, rng_seed=4))
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)


def test_sbm_dense_matches_bernoulli_oracle():
    # p_in = p_out = 1 must generate every pair exactly once
    edges, labels = generate(SbmSpec(2, 5, p_in=1.0, p_out=1.0, rng_seed=0))
    assert len(edges) == 10 * 9 // 2


def test_triangle_decode_matches_enumeration():
    from itertools import combinations

    from streamcut.synth import _triangle_decode

    for m in (2, 3, 5, 9, 12):
        total = m * (m - 1) // 2
        i, j = _triangle_decode(np.arange(total), m)
        assert list(zip(i.tolist(), j.tolist())) == list(combinations(range(m), 2))


def test_path_and_star():
    edges, labels = generate(PathSpec(4))
    assert edges.tolist() == [[0, 1], [1, 2], [2, 3]]
    assert len(labels) == 4
    edges, labels = generate(StarSpec(5))
    assert edges.tolist() == [[0, i] for i in range(1, 6)]
    assert len(labels) == 6
    edges, labels = generate(PathSpec(1))
    assert edges.size == 0 and len(labels) == 1


def test_spec_validation():
    with pytest.raises(FormatError):
        SbmSpec(2, 10, p_in=0.1, p_out=0.5)
    with pytest.raises(FormatError):
        CliqueUnionSpec(1, 4, bridges=1)
    with pytest.raises(FormatError):
        PathSpec(0)


def test_write_graph_formats(tmp_path):
    efile, labels = write_graph(CliqueUnionSpec(2, 3, bridges=1), str(tmp_path / "g.grpe"))
    assert efile.meta.num_nodes == 6
    assert efile.meta.num_edges == 7
    text_file, _ = write_graph(PathSpec(3), str(tmp_path / "p.txt"), fmt="text")
    assert text_file.format == "text"
    assert (tmp_path / "p.txt").read_text() == "# nodes 3\n0 1\n1 2\n"


def test_write_graph_leaves_nothing_when_the_text_conversion_fails(tmp_path, monkeypatch):
    def fail(*args):
        raise OSError("disk full")

    monkeypatch.setattr(synth, "convert", fail)
    with pytest.raises(OSError, match="disk full"):
        write_graph(PathSpec(3), str(tmp_path / "p.txt"), fmt="text")
    assert list(tmp_path.iterdir()) == []
