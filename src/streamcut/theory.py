"""Analytical model of expected edge cuts versus chunk size.

For a node with ``k`` neighbors, ``k0`` of them on its majority side of a
reference bisection, the chance that a greedy pass over a uniformly sampled
fraction ``x`` of the edges places the node on that majority side is a
hypergeometric tail probability: the sampled majority-side neighbors must be
at least half of the draws (ties count as a correct placement).  Summing
per-node terms gives the expected number of cut edge endpoints; a cut edge
is charged at both endpoints, so fractions are normalized by the total
degree.  Averaging estimates over m chunks behaves like one chunk of
fraction m*x, which is exposed through the ``multiplier`` argument; only
m = 2 is backed by the two-chunk analysis, larger values are a heuristic
extrapolation.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import exp, lgamma

import numpy as np

from .edgefile import EdgeFile, iter_labelled_blocks
from .errors import FormatError
from .model import NodeStats


@dataclass(frozen=True)
class TheoryCurvePoint:
    x: float  # chunk fraction in (0, 1]
    expected_cuts: float  # in edge-endpoint units (each cut edge counted twice)
    expected_cut_fraction: float


def _log_choose(n: int, r: int) -> float:
    return lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)


def hypergeom_pmf_cdf(population: int, successes: int, draws: int, at: int) -> tuple[float, float]:
    """Exact hypergeometric pmf Pr(X = at) and cdf Pr(X <= at), via log-gamma.

    X counts successes in ``draws`` draws without replacement from a
    population of ``population`` items containing ``successes`` successes.
    Values outside the support have pmf 0.
    """
    k, k0, d, t = population, successes, draws, at
    if not 0 <= k0 <= k:
        raise FormatError(f"need 0 <= successes <= population, got {k0}, {k}")
    if not 0 <= d <= k:
        raise FormatError(f"need 0 <= draws <= population, got {d}, {k}")
    if not 0 <= t <= d:
        raise FormatError(f"need 0 <= at <= draws, got {t}, {d}")
    lo = max(0, d - (k - k0))
    hi = min(d, k0)
    log_denom = _log_choose(k, d)

    def pmf_at(j: int) -> float:
        return exp(_log_choose(k0, j) + _log_choose(k - k0, d - j) - log_denom)

    pmf = pmf_at(t) if lo <= t <= hi else 0.0
    cdf = 0.0
    for j in range(lo, min(t, hi) + 1):
        cdf += pmf_at(j)
    return pmf, cdf


def draws_for(k: int, x: float, multiplier: float = 1.0) -> int:
    """Number of sampled neighbors for degree k at effective fraction min(m*x, 1).

    Rounded to the nearest integer and clamped to [1, k] so no node
    degenerates to zero draws.
    """
    x_eff = min(multiplier * x, 1.0)
    return min(max(int(round(x_eff * k)), 1), k)


def prob_correct(k: int, k0: int, x: float, multiplier: float = 1.0) -> float:
    """Probability a one-shot greedy pass puts the node on its majority side.

    Requires k0 to be the majority side (k0 >= k - k0).  A sampled tie counts
    as correct.
    """
    if k < 1:
        raise FormatError(f"degree must be >= 1, got {k}")
    if not 0 <= k0 <= k or 2 * k0 < k:
        raise FormatError(f"k0 must be the majority side: got k={k}, k0={k0}")
    if not 0 < x <= 1:
        raise FormatError(f"chunk fraction must be in (0, 1], got {x}")
    if multiplier < 1:
        raise FormatError(f"multiplier must be >= 1, got {multiplier}")
    d = draws_for(k, x, multiplier)
    t = (d + 1) // 2 - 1  # ceil(d/2) - 1: largest sampled-majority count that loses
    _, cdf = hypergeom_pmf_cdf(k, k0, d, t)
    return 1.0 - cdf


def compute_node_stats(efile: EdgeFile, labels: np.ndarray) -> NodeStats:
    """One streaming pass computing per-node (degree, majority-side degree).

    ``labels`` must be a bisection; self-loops are excluded and duplicate
    edges count with multiplicity.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_nodes = efile.meta.num_nodes
    if labels.max(initial=-1) > 1:
        raise FormatError("reference labels are not a bisection")
    counts = np.zeros(2 * num_nodes, dtype=np.int64)
    for block, l_src, l_dst in iter_labelled_blocks(efile, labels):
        keep = block[:, 0] != block[:, 1]
        src, dst = block[keep, 0], block[keep, 1]
        l_src, l_dst = l_src[keep], l_dst[keep]
        counts += np.bincount(src * 2 + l_dst, minlength=2 * num_nodes)
        counts += np.bincount(dst * 2 + l_src, minlength=2 * num_nodes)
    per_side = counts.reshape(num_nodes, 2)
    return NodeStats(per_side.sum(axis=1), per_side.max(axis=1))


def expected_cuts(stats: NodeStats, x: float, multiplier: float = 1.0) -> TheoryCurvePoint:
    """Expected cut endpoints at chunk fraction x (and the derived fraction).

    Per node: the minority degree is cut when the greedy choice is correct,
    the majority degree when it is not.  Zero-degree nodes contribute nothing.
    """
    if len(stats) == 0:
        raise FormatError("empty node stats")
    memo: dict[tuple[int, int], float] = {}
    total = 0.0
    for ki, k0i in zip(stats.k.tolist(), stats.k0.tolist()):
        if ki == 0:
            continue
        key = (ki, k0i)
        p = memo.get(key)
        if p is None:
            p = prob_correct(ki, k0i, x, multiplier)
            memo[key] = p
        total += (ki - k0i) * p + k0i * (1.0 - p)
    endpoints = stats.total_endpoints
    return TheoryCurvePoint(float(x), total, total / endpoints if endpoints else 0.0)


def theory_curve(stats: NodeStats, xs, multiplier: float = 1.0) -> list[TheoryCurvePoint]:
    return [expected_cuts(stats, float(x), multiplier) for x in xs]


def curve_csv(points: list[TheoryCurvePoint], multiplier: float) -> str:
    lines = ["x,expected_cuts,expected_cut_fraction,multiplier"]
    for pt in points:
        lines.append(f"{pt.x},{pt.expected_cuts},{pt.expected_cut_fraction},{multiplier}")
    return "\n".join(lines) + "\n"
