#!/usr/bin/env python3
# Streaming bisection of a planted two-community graph.
#
# We build a 4000-node planted-partition graph, shuffle its edge list on
# disk, and bisect it while streaming chunks of various sizes.  The point of
# the demo: with continuous refinement the partitioner recovers the planted
# communities even when only a few percent of the edges are in memory at a
# time, while the assign-once baseline falls apart as chunks shrink.

import os
import tempfile

from streamcut import GremConfig, bisect, count_cuts, external_shuffle
from streamcut.synth import SbmSpec, write_graph

with tempfile.TemporaryDirectory(prefix="streamcut-demo1-") as workdir:
    print(f"scratch dir: {workdir} (removed at the end)")

    spec = SbmSpec(blocks=2, nodes_per_block=2000, p_in=0.01, p_out=0.0005, rng_seed=0)
    efile, truth = write_graph(spec, os.path.join(workdir, "sbm.grpe"))
    planted = count_cuts(efile, truth.astype("int64"))
    print(f"graph: {efile.meta.num_nodes} nodes, {efile.meta.num_edges} edges, "
          f"planted cut fraction {planted.cut_fraction:.4f}")

    # the algorithm assumes the on-disk edge order is random
    shuffled = external_shuffle(efile, os.path.join(workdir, "sbm.shuffled.grpe"),
                                memory_budget=1 << 26, rng_seed=1)

    print(f"\n{'chunk':>8} {'refined':>9} {'fixed':>9}")
    for frac in (0.30, 0.10, 0.05, 0.01):
        row = []
        for refine in (True, False):
            config = GremConfig(chunk_frac=frac, refine=refine, capacity_slack=0.1)
            _, report = bisect(shuffled, config)
            row.append(report.cut_fraction)
        print(f"{frac:>7.0%} {row[0]:>9.4f} {row[1]:>9.4f}")

    print("\nRefinement keeps the cut near the planted optimum at small chunks;")
    print("freezing the first greedy choice does not.")
