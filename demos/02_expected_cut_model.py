#!/usr/bin/env python3
# The analytical expected-cut model versus measured partitioner behavior.
#
# Given a reference bisection, each node contributes a hypergeometric
# correct-assignment probability for any chunk fraction x.  Summing the
# per-node terms predicts the number of cut edge endpoints a one-shot greedy
# pass would produce; a multiplier of 2 models one round of refinement by
# doubling the effective fraction.  We print both theory curves next to the
# cuts measured by actually running the partitioner.

import os
import tempfile

import numpy as np

from streamcut import (
    GremConfig,
    bisect,
    compute_node_stats,
    external_shuffle,
    theory_curve,
)
from streamcut.synth import SbmSpec, write_graph
from streamcut.theory import curve_csv

with tempfile.TemporaryDirectory(prefix="streamcut-demo2-") as workdir:
    spec = SbmSpec(blocks=2, nodes_per_block=1000, p_in=0.015, p_out=0.001, rng_seed=4)
    efile, truth = write_graph(spec, os.path.join(workdir, "sbm.grpe"))
    stats = compute_node_stats(efile, truth.astype(np.int64))
    print(f"graph: {efile.meta.num_nodes} nodes, {efile.meta.num_edges} edges")
    print(f"degree endpoints indexed: {stats.total_endpoints}")

    xs = [0.01, 0.05, 0.1, 0.3, 1.0]
    one_shot = theory_curve(stats, xs, multiplier=1)
    refined = theory_curve(stats, xs, multiplier=2)

    shuffled = external_shuffle(efile, os.path.join(workdir, "s.grpe"), 1 << 26, rng_seed=0)
    print(f"\n{'x':>6} {'model m=1':>11} {'model m=2':>11} {'measured (refined)':>20}")
    for x, m1, m2 in zip(xs, one_shot, refined):
        _, report = bisect(shuffled, GremConfig(chunk_frac=x, capacity_slack=0.1))
        print(f"{x:>6.2f} {m1.expected_cut_fraction:>11.4f} {m2.expected_cut_fraction:>11.4f} "
              f"{report.cut_fraction:>20.4f}")

    print("\nthe m=2 curve as CSV:")
    print(curve_csv(refined, multiplier=2).rstrip())
    print("At x=1 the model charges exactly the reference's minority endpoints;")
    print("the m=2 curve never sits above the m=1 curve.")
