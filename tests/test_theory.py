from fractions import Fraction
from math import comb

import numpy as np
import pytest

from streamcut import (
    FormatError,
    compute_node_stats,
    expected_cuts,
    hypergeom_pmf_cdf,
    prob_correct,
    theory_curve,
)
from streamcut.model import NodeStats
from streamcut.synth import CliqueUnionSpec, SbmSpec, StarSpec, generate
from streamcut.theory import curve_csv, draws_for

from helpers import majority_align, make_edge_file


def rational_pmf_cdf(k, k0, d, t):
    """Exact hypergeometric pmf/cdf with integer arithmetic."""
    denom = comb(k, d)
    pmf = Fraction(comb(k0, t) * comb(k - k0, d - t), denom)
    cdf = sum(Fraction(comb(k0, j) * comb(k - k0, d - j), denom) for j in range(0, t + 1))
    return pmf, cdf


def test_pmf_examples():
    pmf, _ = hypergeom_pmf_cdf(4, 2, 2, 0)
    assert abs(pmf - 1 / 6) < 1e-12  # enumeration: 1 of the C(4,2)=6 draws
    pmf, cdf = hypergeom_pmf_cdf(5, 5, 3, 3)
    assert pmf == pytest.approx(1.0, abs=1e-12)
    assert cdf == pytest.approx(1.0, abs=1e-12)


def test_pmf_cdf_exhaustive_rational_oracle():
    for k in range(0, 21):
        for k0 in range(0, k + 1):
            for d in range(0, k + 1):
                for t in range(0, d + 1):
                    pmf, cdf = hypergeom_pmf_cdf(k, k0, d, t)
                    exact_pmf, exact_cdf = rational_pmf_cdf(k, k0, d, t)
                    assert abs(pmf - float(exact_pmf)) <= 1e-12, (k, k0, d, t)
                    assert abs(cdf - float(exact_cdf)) <= 1e-12, (k, k0, d, t)


def test_pmf_domain_errors():
    for bad in [(4, 5, 2, 0), (4, 2, 5, 0), (4, 2, 2, 3), (-1, 0, 0, 0)]:
        with pytest.raises(FormatError):
            hypergeom_pmf_cdf(*bad)


def test_prob_correct_full_information():
    for k, k0 in [(3, 2), (10, 6), (7, 7), (4, 2)]:
        assert prob_correct(k, k0, 1.0) == pytest.approx(1.0, abs=1e-12)


def test_prob_correct_perfect_split_two_draws():
    # d=2 from (k=4, k0=2): correct unless both draws hit the minority side
    assert prob_correct(4, 2, 0.5) == pytest.approx(5 / 6, abs=1e-12)


def test_prob_correct_refinement_multiplier():
    base = prob_correct(10, 8, 0.3, multiplier=1)
    refined = prob_correct(10, 8, 0.3, multiplier=2)
    assert refined >= base
    # enumeration cross-check of the refined value
    d = draws_for(10, 0.3, 2)
    t = (d + 1) // 2 - 1
    _, cdf = rational_pmf_cdf(10, 8, d, t)
    assert refined == pytest.approx(1 - float(cdf), abs=1e-12)


def test_prob_correct_domain():
    with pytest.raises(FormatError):
        prob_correct(4, 1, 0.5)  # k0 not the majority side
    with pytest.raises(FormatError):
        prob_correct(4, 2, 0.0)
    with pytest.raises(FormatError):
        prob_correct(4, 2, 0.5, multiplier=0.5)


# ------------------------------------------------------- compute_node_stats


def test_node_stats_triangle(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1], [1, 2], [0, 2]], 3)
    stats = compute_node_stats(efile, np.array([0, 0, 1]))
    assert stats.k.tolist() == [2, 2, 2]
    assert stats.k0.tolist() == [1, 1, 2]


def test_node_stats_star(tmp_path):
    edges, _ = generate(StarSpec(5))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 6)
    labels = np.array([1, 0, 0, 0, 0, 0])
    stats = compute_node_stats(efile, labels)
    assert (stats.k[0], stats.k0[0]) == (5, 5)
    assert stats.k[1:].tolist() == [1] * 5


def test_node_stats_random_oracle(tmp_path):
    rng = np.random.default_rng(4)
    edges = rng.integers(0, 40, size=(300, 2)).astype(np.int64)
    labels = rng.integers(0, 2, size=40)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 40)
    stats = compute_node_stats(efile, labels)
    side = np.zeros((40, 2), dtype=np.int64)
    for u, v in edges.tolist():
        if u == v:
            continue
        side[u, labels[v]] += 1
        side[v, labels[u]] += 1
    assert np.array_equal(stats.k, side.sum(axis=1))
    assert np.array_equal(stats.k0, side.max(axis=1))


def test_node_stats_rejects_non_bisection(tmp_path):
    efile = make_edge_file(tmp_path / "g.grpe", [[0, 1]], 2)
    with pytest.raises(FormatError):
        compute_node_stats(efile, np.array([0, 2]))
    with pytest.raises(FormatError):
        compute_node_stats(efile, np.array([0, -1]))


# ----------------------------------------------------------- expected_cuts


def test_expected_cuts_full_information_identity(tmp_path):
    rng = np.random.default_rng(6)
    edges = rng.integers(0, 30, size=(200, 2)).astype(np.int64)
    loops = edges[:, 0] == edges[:, 1]
    edges[loops, 1] = (edges[loops, 1] + 1) % 30
    labels = majority_align(edges, rng.integers(0, 2, size=30), 30)
    efile = make_edge_file(tmp_path / "g.grpe", edges, 30)
    stats = compute_node_stats(efile, labels)
    point = expected_cuts(stats, 1.0)
    assert point.expected_cuts == float((stats.k - stats.k0).sum())
    # with a majority-aligned reference this is exactly twice the cut count
    from streamcut import count_cuts

    report = count_cuts(efile, labels)
    assert point.expected_cuts == 2.0 * report.cut_edges


def test_expected_cuts_zero_cut_reference(tmp_path):
    edges, truth = generate(CliqueUnionSpec(2, 5, bridges=0))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 10)
    stats = compute_node_stats(efile, truth.astype(np.int64))
    point = expected_cuts(stats, 1.0)
    assert point.expected_cuts == 0.0
    assert point.expected_cut_fraction == 0.0


def mc_greedy_cut(stats, x, multiplier, trials, rng):
    """Monte-Carlo one-shot greedy assignment under per-node independence.

    Samples neighbors without replacement by ranking random keys, so it
    shares no distribution code with the closed-form implementation.
    """
    totals = np.zeros(trials)
    for ki, k0i in zip(stats.k.tolist(), stats.k0.tolist()):
        if ki == 0:
            continue
        d = draws_for(ki, x, multiplier)
        marks = np.zeros(ki)
        marks[:k0i] = 1.0
        keys = rng.random((trials, ki))
        picked = np.argpartition(keys, d - 1, axis=1)[:, :d]
        sampled_majority = marks[picked].sum(axis=1)
        correct = 2 * sampled_majority >= d
        totals += np.where(correct, ki - k0i, k0i)
    return totals


@pytest.mark.parametrize("x", [0.05, 0.1, 0.2])
def test_expected_cuts_matches_monte_carlo(tmp_path, x):
    edges, truth = generate(SbmSpec(2, 40, p_in=0.25, p_out=0.05, rng_seed=9))
    efile = make_edge_file(tmp_path / "g.grpe", edges, 80)
    stats = compute_node_stats(efile, truth.astype(np.int64))
    point = expected_cuts(stats, x)
    rng = np.random.default_rng(1234)
    totals = mc_greedy_cut(stats, x, 1.0, trials=10_000, rng=rng)
    se = totals.std(ddof=1) / np.sqrt(len(totals))
    assert abs(totals.mean() - point.expected_cuts) <= 3 * max(se, 1e-9), (
        totals.mean(),
        point.expected_cuts,
        se,
    )


# ------------------------------------------------------------ theory_curve


def _demo_stats(tmp_path):
    edges, truth = generate(SbmSpec(2, 60, p_in=0.2, p_out=0.02, rng_seed=3))
    efile = make_edge_file(tmp_path / "curve.grpe", edges, 120)
    return compute_node_stats(efile, truth.astype(np.int64))


def test_curve_single_point(tmp_path):
    stats = _demo_stats(tmp_path)
    pts = theory_curve(stats, [1.0])
    assert len(pts) == 1
    assert pts[0].expected_cuts == expected_cuts(stats, 1.0).expected_cuts


def test_curve_refinement_dominance(tmp_path):
    stats = _demo_stats(tmp_path)
    xs = [0.01, 0.02, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0]
    base = theory_curve(stats, xs, multiplier=1)
    refined = theory_curve(stats, xs, multiplier=2)
    for b, r in zip(base, refined):
        assert r.expected_cuts <= b.expected_cuts


def test_curve_monotone_for_majority_consistent_stats(tmp_path):
    # every node strictly majority-sided: two cliques, no bridges
    edges, truth = generate(CliqueUnionSpec(2, 12, bridges=0))
    efile = make_edge_file(tmp_path / "mono.grpe", edges, 24)
    stats = compute_node_stats(efile, truth.astype(np.int64))
    assert np.all(2 * stats.k0 > stats.k)
    xs = np.linspace(0.05, 1.0, 20)
    pts = theory_curve(stats, xs)
    values = [p.expected_cuts for p in pts]
    assert all(a >= b - 1e-9 for a, b in zip(values, values[1:]))


def test_curve_csv_format(tmp_path):
    stats = _demo_stats(tmp_path)
    pts = theory_curve(stats, [0.5, 1.0], multiplier=2)
    text = curve_csv(pts, 2)
    lines = text.strip().splitlines()
    assert lines[0] == "x,expected_cuts,expected_cut_fraction,multiplier"
    assert len(lines) == 3
    assert lines[1].startswith("0.5,") and lines[1].endswith(",2")


def per_node_expected_cuts(stats, x, multiplier):
    """The per-node loop with a (k, k0) memo, summing left to right."""
    memo = {}
    total = 0.0
    for ki, k0i in zip(stats.k.tolist(), stats.k0.tolist()):
        if ki == 0:
            continue
        if (ki, k0i) not in memo:
            memo[ki, k0i] = prob_correct(ki, k0i, x, multiplier)
        p = memo[ki, k0i]
        total += (ki - k0i) * p + k0i * (1.0 - p)
    return total


def random_node_stats(rng, num_nodes, max_degree):
    k = rng.integers(0, max_degree + 1, size=num_nodes)
    k[rng.random(num_nodes) < 0.2] = 0
    minority = (rng.random(num_nodes) * (k // 2 + 1)).astype(np.int64)
    return NodeStats(k, k - minority)


@pytest.mark.parametrize("multiplier", [1.0, 2.0])
def test_expected_cuts_equals_per_node_loop(multiplier):
    rng = np.random.default_rng(42)
    cases = [random_node_stats(rng, int(rng.integers(1, 300)), int(rng.integers(1, 60)))
             for _ in range(20)]
    cases.append(NodeStats(np.zeros(7, dtype=np.int64), np.zeros(7, dtype=np.int64)))
    for stats in cases:
        for x in (0.01, 0.05, 0.1, 0.37, 1.0):
            point = expected_cuts(stats, x, multiplier)
            want = per_node_expected_cuts(stats, x, multiplier)
            assert point.expected_cuts == want
            endpoints = stats.total_endpoints
            assert point.expected_cut_fraction == (want / endpoints if endpoints else 0.0)


def test_expected_cuts_large_degrees_equal_per_node_loop():
    # degrees near 2**40 and 2**61: (k, k0) pairs must stay distinct keys;
    # a tiny x keeps the draws, and so the cdf loop, short
    big = [2**40, 2**40 + 1, 2**61 - 3, 2**61 - 3, 2**40, 5, 0]
    k = np.array(big, dtype=np.int64)
    k0 = np.array([2**40, 2**39 + 1, 2**61 - 3, 2**60, 2**39, 3, 0], dtype=np.int64)
    stats = NodeStats(k, k0)
    for x in (1e-19, 1.2e-18):
        for multiplier in (1.0, 2.0):
            assert expected_cuts(stats, x, multiplier).expected_cuts == per_node_expected_cuts(
                stats, x, multiplier
            )
