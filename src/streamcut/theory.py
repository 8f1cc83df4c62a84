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

from . import _kernels
from .edgefile import EdgeFile, _check_labels, _endpoint_pass
from .errors import FormatError
from .model import NodeStats


MAX_DEGREE = 2**32  # above it the log-gamma cdf is no longer accurate


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
    if not multiplier >= 1:  # NaN too
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


def _term_ranges(k: np.ndarray, k0: np.ndarray, x: float, multiplier: float):
    """Per (k, k0) pair at one x: the first cdf index lo, the term count, and
    the lgamma arguments of ``prob_correct`` as (pairs, 9) arrays of first
    and last values and of anchors.

    Terms j = lo ... hi take lgamma at j + 1, k0 - j + 1, d - j + 1 and
    k - k0 - d + j + 1 (d draws): four ranges of ``count`` values, empty
    when hi < lo, whose anchors are those values at j = 0.  The other five
    columns are the points k0 + 1, k - k0 + 1, k + 1, d + 1 and k - d + 1,
    each its own anchor.
    """
    x_eff = min(multiplier * x, 1.0)
    d = np.minimum(np.maximum(np.rint(x_eff * k.astype(np.float64)).astype(np.int64), 1), k)
    t = (d + 1) // 2 - 1
    lo = np.maximum(0, d - (k - k0))
    hi = np.minimum(t, np.minimum(d, k0))
    k1 = k - k0
    points = [k0 + 1, k1 + 1, k + 1, d + 1, k - d + 1]
    first = np.stack([lo + 1, k0 - hi + 1, d - hi + 1, k1 - d + lo + 1, *points], axis=1)
    last = np.stack([hi + 1, k0 - lo + 1, d - lo + 1, k1 - d + hi + 1, *points], axis=1)
    anchor = np.stack([np.ones_like(k), k0 + 1, d + 1, k1 - d + 1, *points], axis=1)
    return lo, np.maximum(hi - lo + 1, 0), first, last, anchor


def _lgamma_table(first: np.ndarray, last: np.ndarray,
                  anchor: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``math.lgamma`` of every integer in the union of the ranges
    ``[first, last]``, once each and ascending, and where each range's
    values sit: value v of range i is ``table[base[i] + v - anchor[i]]``.

    A range lies inside one run of consecutive values of the union, so one
    base serves all of it.  Empty ranges (last < first) take no room; the
    table holds at most as many entries as the ranges' lengths add up to.
    """
    shape, first, last = first.shape, first.ravel(), last.ravel()
    offset = np.zeros(first.size, dtype=np.int64)
    used = np.flatnonzero(last >= first)
    if not used.size:
        return np.empty(0), anchor + offset.reshape(shape)
    used = used[np.argsort(first[used])]
    lows, reach = first[used], np.maximum.accumulate(last[used])
    opens = np.ones(used.size, dtype=bool)  # a range past the values so far starts a run
    opens[1:] = lows[1:] > reach[:-1] + 1
    run_first = lows[opens]
    run_size = reach[np.append(np.flatnonzero(opens)[1:], used.size) - 1] - run_first + 1
    shift = np.cumsum(run_size) - run_size - run_first  # table slot - value, per run
    offset[used] = shift[np.cumsum(opens) - 1]
    values = np.arange(int(run_size.sum())) - np.repeat(shift, run_size)
    table = np.array([lgamma(v) for v in values.tolist()], dtype=np.float64)
    return table, anchor + offset.reshape(shape)


def _curve_point(lo: np.ndarray, count: np.ndarray, base: np.ndarray, lg_k0: np.ndarray,
                 lg_k1: np.ndarray, log_denom: np.ndarray, table: np.ndarray, k: np.ndarray,
                 k0: np.ndarray, pair_of: np.ndarray) -> float:
    """Expected cut endpoints at one x: ``prob_correct`` of every (k, k0) pair,
    bit for bit, then each node's term added left to right in node order.

    Pair i's terms are j = lo[i] ... lo[i] + count[i] - 1.  ``lg_k0``,
    ``lg_k1`` and ``log_denom`` are lgamma(k0 + 1), lgamma(k - k0 + 1) and
    the pair's log C(k, d); ``base`` (pairs, 4) places lgamma(j + 1),
    lgamma(k0 - j + 1), lgamma(d - j + 1) and lgamma(k - k0 - d + j + 1) at
    ``table[base[i, 0] + j]``, ``[base[i, 1] - j]``, ``[base[i, 2] - j]``
    and ``[base[i, 3] + j]``.  ``_kernels.curve_point`` forms each term's
    exponent in ``hypergeom_pmf_cdf``'s operation order, adds each pair's
    terms left to right and the node terms ``(k - k0) * p + k0 * (1 - p)``
    left to right in node order.
    """
    pairs, nodes, ptr = lo.size, k.size, _kernels.ptr
    probs, total = np.empty(pairs), np.zeros(1)
    _kernels.curve_point(
        pairs, ptr(lo, np.int64, pairs), ptr(count, np.int64, pairs),
        ptr(base, np.int64, 4 * pairs), ptr(lg_k0, np.float64, pairs),
        ptr(lg_k1, np.float64, pairs), ptr(log_denom, np.float64, pairs),
        ptr(table, np.float64, table.size), ptr(probs, np.float64, pairs), nodes,
        ptr(k, np.int64, nodes), ptr(k0, np.int64, nodes), ptr(pair_of, np.int64, nodes),
        ptr(total, np.float64, 1))
    return float(total[0])


def compute_node_stats(efile: EdgeFile, labels: np.ndarray) -> NodeStats:
    """One streaming pass computing per-node (degree, majority-side degree).

    ``labels`` must be a bisection; self-loops are excluded and duplicate
    edges count with multiplicity.
    """
    num_nodes = efile.meta.num_nodes
    labels, _ = _check_labels(num_nodes, labels, num_parts=2)
    counts = _endpoint_pass(efile, labels)
    # strided adds, not axis-1 reductions over (n, 2) rows, which numpy runs
    # over twenty times slower
    on0, on1 = counts[0::2], counts[1::2]
    return NodeStats(on0 + on1, np.maximum(on0, on1))


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
    if not xs:
        raise FormatError("chunk fractions must be one or more values in (0, 1], got []")
    for x in xs:
        _check_curve_args(x, multiplier)
    linked = stats.k > 0
    k, k0 = stats.k[linked], stats.k0[linked]
    if k.size:
        _check_degree(int(k.max()))
    # the distinct (k, k0) pairs, found with one sort: k <= 2**32 and
    # k - k0 <= 2**31, so k * (2**31 + 1) + (k - k0) fits a uint64 and decodes
    radix = np.uint64(2**31 + 1)
    keys, pair_of = np.unique(k.astype(np.uint64) * radix + (k - k0).astype(np.uint64),
                              return_inverse=True)
    pair_k = (keys // radix).astype(np.int64)
    pair_k0 = pair_k - (keys % radix).astype(np.int64)
    per_x = [_term_ranges(pair_k, pair_k0, x, multiplier) for x in xs]
    # one lgamma table for the whole curve: every x's ranges and points
    table, bases = _lgamma_table(*(np.array([r[i] for r in per_x], dtype=np.int64)
                                   for i in (2, 3, 4)))
    endpoints = stats.total_endpoints
    out = []
    for x, (lo, count, *_), base in zip(xs, per_x, bases):
        lg_k0, lg_k1, lg_k, lg_d, lg_kd = np.ascontiguousarray(table[base[:, 4:]].T)
        total = _curve_point(lo, count, np.ascontiguousarray(base[:, :4]), lg_k0, lg_k1,
                             lg_k - lg_d - lg_kd, table, k, k0, pair_of)
        out.append(TheoryCurvePoint(x, total, total / endpoints if endpoints else 0.0))
    return out


def curve_csv(points: list[TheoryCurvePoint], multiplier: float) -> str:
    lines = ["x,expected_cuts,expected_cut_fraction,multiplier"]
    for pt in points:
        lines.append(f"{pt.x},{pt.expected_cuts},{pt.expected_cut_fraction},{multiplier}")
    return "\n".join(lines) + "\n"
