#!/usr/bin/env python3
# Randomized partition-to-worker placement and the traffic it saves.
#
# The coordinator deals partitions into disjoint per-worker subsets, so each
# partition is read from storage exactly once per epoch.  A static simulator
# then samples multi-hop neighborhoods (fanouts 30/20/10) from random seed
# nodes and counts which fetches stay on the seed's worker.  Min-cut labels
# keep most fetches local; replicating a few hub nodes removes more.

import os
import tempfile

import numpy as np

from streamcut import (
    GremConfig,
    PlacementPlan,
    bisect,
    estimate_comm,
    external_shuffle,
    plan_assignment,
    plan_to_text,
    select_replicated,
)
from streamcut.synth import SbmSpec, write_graph

with tempfile.TemporaryDirectory(prefix="streamcut-demo4-") as workdir:
    spec = SbmSpec(blocks=2, nodes_per_block=300, p_in=0.03, p_out=0.003, rng_seed=5)
    efile, _ = write_graph(spec, os.path.join(workdir, "g.grpe"))
    shuffled = external_shuffle(efile, os.path.join(workdir, "s.grpe"), 1 << 26, rng_seed=0)
    labels, report = bisect(shuffled, GremConfig(chunk_frac=0.2, capacity_slack=0.1))
    print(f"bisection cut fraction: {report.cut_fraction:.4f}")

    plan = plan_assignment(p=2, num_workers=2, rng_seed=3)
    print("\nplacement plan:")
    print(plan_to_text(plan).rstrip())


    def tally(tag, labeling, placement):
        counts = estimate_comm(shuffled, labeling, placement, num_seeds=50, rng_seed=9)
        local = sum(a for a, _ in counts)
        remote = sum(b for _, b in counts)
        print(f"{tag:<28} local={local:>6}  remote={remote:>6}  "
              f"remote share {remote / (local + remote):.1%}")
        return remote

    tally("min-cut labels", labels, plan)
    rng = np.random.default_rng(1)
    tally("random labels", rng.permutation(np.repeat([0, 1], 300)), plan)

    hubs = select_replicated(shuffled, budget=30)
    replicated = PlacementPlan(plan.num_workers, plan.assignment, frozenset(int(n) for n in hubs))
    tally("min-cut + 30 replicated hubs", labels, replicated)
