"""Streaming, memory-bounded min-edge-cut graph partitioning.

The library streams the edge list in chunks, greedily assigns vertices while
continuously refining earlier assignments, and ships the supporting pieces a
partitioned training pipeline needs: an analytical expected-cut model, a
bucketed on-disk layout, and randomized partition-to-worker placement.
"""

__version__ = "0.1.0"

from .edgefile import (
    BinaryEdgeWriter,
    ChunkPlan,
    EdgeFile,
    ResidencyMeter,
    convert,
    external_shuffle,
    open_edge_file,
    read_labels,
    stream_chunks,
    write_labels,
)
from .errors import CapacityError, FormatError, StreamcutError
from .grem import GremConfig, bisect, count_cuts, partition
from .model import CutReport, EdgeChunk, GraphMeta, NodeStats, PartitionState
from .placement import (
    PlacementPlan,
    estimate_comm,
    plan_assignment,
    plan_from_text,
    plan_to_text,
    select_replicated,
)
from .seed import seed_bisect
from .store import BucketIndex, FeatureLayout, read_bucket, read_index, reorder_features, write_buckets
from .synth import CliqueUnionSpec, PathSpec, SbmSpec, StarSpec, generate, write_graph
from .theory import (
    TheoryCurvePoint,
    compute_node_stats,
    expected_cuts,
    hypergeom_pmf_cdf,
    prob_correct,
    theory_curve,
)

__all__ = [
    "BinaryEdgeWriter",
    "BucketIndex",
    "CapacityError",
    "ChunkPlan",
    "CliqueUnionSpec",
    "CutReport",
    "EdgeChunk",
    "EdgeFile",
    "FeatureLayout",
    "FormatError",
    "GraphMeta",
    "GremConfig",
    "NodeStats",
    "PartitionState",
    "PathSpec",
    "PlacementPlan",
    "ResidencyMeter",
    "SbmSpec",
    "StarSpec",
    "StreamcutError",
    "TheoryCurvePoint",
    "bisect",
    "compute_node_stats",
    "convert",
    "count_cuts",
    "estimate_comm",
    "expected_cuts",
    "external_shuffle",
    "generate",
    "hypergeom_pmf_cdf",
    "open_edge_file",
    "partition",
    "plan_assignment",
    "plan_from_text",
    "plan_to_text",
    "prob_correct",
    "read_bucket",
    "read_index",
    "read_labels",
    "reorder_features",
    "seed_bisect",
    "select_replicated",
    "stream_chunks",
    "theory_curve",
    "write_buckets",
    "write_graph",
    "write_labels",
]
