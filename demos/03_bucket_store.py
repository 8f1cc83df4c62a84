#!/usr/bin/env python3
# The partitioned storage layout: p x p edge buckets plus grouped features.
#
# After a 4-way partition, every directed edge lands in bucket (i, j) keyed
# by its endpoints' partitions; the buckets live row-major in one file with
# an offset/count sidecar so any subset of partitions can be loaded with a
# handful of sequential reads.  Feature records are likewise permuted so
# each partition's rows are contiguous.

import os
import tempfile

import numpy as np

from streamcut import (
    GremConfig,
    external_shuffle,
    partition,
    read_bucket,
    reorder_features,
    write_buckets,
)
from streamcut.synth import SbmSpec, write_graph

with tempfile.TemporaryDirectory(prefix="streamcut-demo3-") as workdir:
    spec = SbmSpec(blocks=4, nodes_per_block=250, p_in=0.08, p_out=0.001, rng_seed=7)
    efile, _ = write_graph(spec, os.path.join(workdir, "g.grpe"))
    shuffled = external_shuffle(efile, os.path.join(workdir, "s.grpe"), 1 << 26, rng_seed=0)
    labels, report = partition(
        shuffled, 4, GremConfig(chunk_frac=0.2, capacity_slack=0.1), workdir
    )
    print(f"4-way partition: cut fraction {report.cut_fraction:.4f}, "
          f"sizes {report.partition_sizes}")

    store = os.path.join(workdir, "edges.grpb")
    index = write_buckets(shuffled, labels, store)
    print("\nbucket edge counts (row = source partition):")
    for i in range(index.p):
        print("  " + " ".join(f"{int(index.counts[i, j]):>6}" for j in range(index.p)))
    diag = sum(int(index.counts[i, i]) for i in range(index.p))
    print(f"diagonal (intra-partition) edges: {diag} of {index.total_edges}")

    bucket = read_bucket(store, 0, 0, index)
    print(f"bucket (0,0) loads {len(bucket)} edges of {bucket.dtype} ids in one contiguous read")

    # feature records: 8 bytes per node, grouped so partition rows are contiguous
    num_nodes = efile.meta.num_nodes
    features = os.path.join(workdir, "features.bin")
    rng = np.random.default_rng(0)
    blob = rng.integers(0, 256, size=num_nodes * 8).astype(np.uint8).tobytes()
    with open(features, "wb") as fh:
        fh.write(blob)
    grouped = os.path.join(workdir, "features.grouped")
    layout = reorder_features(features, labels, 8, grouped)
    print(f"\nfeature extents (start slot, count): {layout.extents}")
    node = 123
    assert layout.read_record(grouped, node) == blob[node * 8 : node * 8 + 8]
    print(f"node {node}'s record round-trips through slot {layout.slot_of(node)}")
