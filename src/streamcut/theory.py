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

from .edgefile import EdgeFile, _endpoint_pass
from .errors import FormatError
from .model import NodeStats


MAX_DEGREE = 2**32  # above it the log-gamma cdf is no longer accurate
_CURVE_BLOCK = 1 << 16  # cdf terms evaluated per numpy batch in theory_curve


@dataclass(frozen=True)
class TheoryCurvePoint:
    x: float  # chunk fraction in (0, 1]
    expected_cuts: float  # in edge-endpoint units (each cut edge counted twice)
    expected_cut_fraction: float


def _check_degree(k: int) -> None:
    if k > MAX_DEGREE:
        raise FormatError(f"degree {k} is above the model's bound of 2**32")


def _log_choose(n: int, r: int) -> float:
    return lgamma(n + 1) - lgamma(r + 1) - lgamma(n - r + 1)


def hypergeom_pmf_cdf(population: int, successes: int, draws: int, at: int) -> tuple[float, float]:
    """Exact hypergeometric pmf Pr(X = at) and cdf Pr(X <= at), via log-gamma.

    X counts successes in ``draws`` draws without replacement from a
    population of ``population`` items containing ``successes`` successes.
    Values outside the support have pmf 0.  Populations above ``MAX_DEGREE``
    are rejected: the cdf's error grows with the population.
    """
    k, k0, d, t = population, successes, draws, at
    if not 0 <= k0 <= k:
        raise FormatError(f"need 0 <= successes <= population, got {k0}, {k}")
    _check_degree(k)
    if not 0 <= d <= k:
        raise FormatError(f"need 0 <= draws <= population, got {d}, {k}")
    if not 0 <= t <= d:
        raise FormatError(f"need 0 <= at <= draws, got {t}, {d}")
    lo = max(0, d - (k - k0))
    hi = min(d, k0)
    log_denom = _log_choose(k, d)
    pmf = (
        exp(_log_choose(k0, t) + _log_choose(k - k0, d - t) - log_denom)
        if lo <= t <= hi
        else 0.0
    )
    # the cdf sums the same pmf terms, with the j-independent lgamma values hoisted
    lg_k0, lg_k1 = lgamma(k0 + 1), lgamma(k - k0 + 1)
    cdf = 0.0
    for j in range(lo, min(t, hi) + 1):
        cdf += exp(
            (lg_k0 - lgamma(j + 1) - lgamma(k0 - j + 1))
            + (lg_k1 - lgamma(d - j + 1) - lgamma(k - k0 - d + j + 1))
            - log_denom
        )
    return pmf, cdf


def draws_for(k: int, x: float, multiplier: float = 1.0) -> int:
    """Number of sampled neighbors for degree k at effective fraction min(m*x, 1).

    Rounded to the nearest integer and clamped to [1, k] so no node
    degenerates to zero draws.
    """
    x_eff = min(multiplier * x, 1.0)
    return min(max(int(round(x_eff * k)), 1), k)


def _check_curve_args(x: float, multiplier: float) -> None:
    if not 0 < x <= 1:
        raise FormatError(f"chunk fraction must be in (0, 1], got {x}")
    if multiplier < 1:
        raise FormatError(f"multiplier must be >= 1, got {multiplier}")


def prob_correct(k: int, k0: int, x: float, multiplier: float = 1.0) -> float:
    """Probability a one-shot greedy pass puts the node on its majority side.

    Requires k0 to be the majority side (k0 >= k - k0) and k <= ``MAX_DEGREE``.
    A sampled tie counts as correct.
    """
    if k < 1:
        raise FormatError(f"degree must be >= 1, got {k}")
    _check_degree(k)
    if not 0 <= k0 <= k or 2 * k0 < k:
        raise FormatError(f"k0 must be the majority side: got k={k}, k0={k0}")
    _check_curve_args(x, multiplier)
    d = draws_for(k, x, multiplier)
    t = (d + 1) // 2 - 1  # ceil(d/2) - 1: largest sampled-majority count that loses
    _, cdf = hypergeom_pmf_cdf(k, k0, d, t)
    return 1.0 - cdf


def _lgammas(args: np.ndarray) -> np.ndarray:
    """``math.lgamma`` of every element of a 1-d integer array, once per distinct value."""
    values, where = np.unique(args, return_inverse=True)
    return np.array([lgamma(v) for v in values.tolist()], dtype=np.float64)[where]


def _probs_correct(k: np.ndarray, k0: np.ndarray, lg_k0: np.ndarray, lg_k1: np.ndarray,
                   lg_k: np.ndarray, x: float, multiplier: float) -> list[float]:
    """``prob_correct`` of every (k, k0) pair at one x, bit for bit.

    ``lg_k0``, ``lg_k1`` and ``lg_k`` are lgamma(k0 + 1), lgamma(k - k0 + 1)
    and lgamma(k + 1).  The cdf terms of all pairs form one flat sequence,
    evaluated ``_CURVE_BLOCK`` at a time: numpy forms each exponent with the
    scalar code's operation order, ``math.exp`` turns it into a term, and the
    terms of each pair are added left to right in Python.
    """
    x_eff = min(multiplier * x, 1.0)
    d = np.minimum(np.maximum(np.rint(x_eff * k.astype(np.float64)).astype(np.int64), 1), k)
    t = (d + 1) // 2 - 1
    lo = np.maximum(0, d - (k - k0))
    count = np.maximum(np.minimum(t, np.minimum(d, k0)) - lo + 1, 0)
    ends = np.cumsum(count)
    total = int(ends[-1]) if ends.size else 0
    log_denom = lg_k - _lgammas(d + 1) - _lgammas(k - d + 1)
    cdfs = [0.0] * k.size
    for first in range(0, total, _CURVE_BLOCK):
        pos = np.arange(first, min(first + _CURVE_BLOCK, total))
        pair = np.searchsorted(ends, pos, side="right")
        j = lo[pair] + (pos - (ends[pair] - count[pair]))
        kp, k0p, dp = k[pair], k0[pair], d[pair]
        exponents = (
            (lg_k0[pair] - _lgammas(j + 1) - _lgammas(k0p - j + 1))
            + (lg_k1[pair] - _lgammas(dp - j + 1) - _lgammas(kp - k0p - dp + j + 1))
            - log_denom[pair]
        )
        for i, term in zip(pair.tolist(), map(exp, exponents.tolist())):
            cdfs[i] += term
    return [1.0 - cdf for cdf in cdfs]


def compute_node_stats(efile: EdgeFile, labels: np.ndarray) -> NodeStats:
    """One streaming pass computing per-node (degree, majority-side degree).

    ``labels`` must be a bisection; self-loops are excluded and duplicate
    edges count with multiplicity.
    """
    labels = np.asarray(labels, dtype=np.int64)
    num_nodes = efile.meta.num_nodes
    if labels.max(initial=-1) > 1:
        raise FormatError("reference labels are not a bisection")
    counts = _endpoint_pass(efile, labels)
    per_side = counts.reshape(num_nodes, 2)
    return NodeStats(per_side.sum(axis=1), per_side.max(axis=1))


def expected_cuts(stats: NodeStats, x: float, multiplier: float = 1.0) -> TheoryCurvePoint:
    """Expected cut endpoints at chunk fraction x (and the derived fraction)."""
    return theory_curve(stats, [x], multiplier)[0]


def theory_curve(stats: NodeStats, xs, multiplier: float = 1.0) -> list[TheoryCurvePoint]:
    """Expected cut endpoints at each chunk fraction in ``xs``.

    Per node: the minority degree is cut when the greedy choice is correct,
    the majority degree when it is not.  Zero-degree nodes contribute nothing.
    Each point equals the per-node sum, left to right, of ``prob_correct``
    terms, bit for bit; degrees above ``MAX_DEGREE`` are rejected.
    """
    if len(stats) == 0:
        raise FormatError("empty node stats")
    xs = [float(x) for x in xs]
    for x in xs:
        _check_curve_args(x, multiplier)
    linked = stats.k > 0
    k, k0 = stats.k[linked], stats.k0[linked]
    if k.size:
        _check_degree(int(k.max()))
    # the distinct (k, k0) pairs, found once; the pair key is built from value
    # ranks, so it stays below (#distinct k) * (#distinct k0) whatever the degrees
    k_vals, k_rank = np.unique(k, return_inverse=True)
    k0_vals, k0_rank = np.unique(k0, return_inverse=True)
    pairs, pair_of = np.unique(k_rank * k0_vals.size + k0_rank, return_inverse=True)
    pair_k, pair_k0 = k_vals[pairs // k0_vals.size], k0_vals[pairs % k0_vals.size]
    lg = [_lgammas(v + 1) for v in (pair_k0, pair_k - pair_k0, pair_k)]
    endpoints = stats.total_endpoints
    points = []
    for x in xs:
        p = np.array(_probs_correct(pair_k, pair_k0, *lg, x, multiplier), dtype=np.float64)
        p = p[pair_of]
        terms = (k - k0) * p + k0 * (1.0 - p)
        # cumsum adds left to right, node by node, so the total does not depend on
        # numpy's pairwise summation
        total = float(np.cumsum(terms)[-1]) if terms.size else 0.0
        points.append(TheoryCurvePoint(x, total, total / endpoints if endpoints else 0.0))
    return points


def curve_csv(points: list[TheoryCurvePoint], multiplier: float) -> str:
    lines = ["x,expected_cuts,expected_cut_fraction,multiplier"]
    for pt in points:
        lines.append(f"{pt.x},{pt.expected_cuts},{pt.expected_cut_fraction},{multiplier}")
    return "\n".join(lines) + "\n"
