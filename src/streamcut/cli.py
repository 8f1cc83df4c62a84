"""Command-line front end.

Every command writes a JSON run manifest recording the flags, input content
digests, output digests, wall time and peak resident memory, so runs are
auditable and reproducible.  Exit codes: 0 success, 2 usage error, 3 data
error, 4 I/O error.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import resource
import sys
import time

from . import __version__
from .edgefile import (
    BINARY,
    TEXT,
    external_shuffle,
    convert,
    open_edge_file,
    read_labels,
    write_labels,
)
from .errors import StreamcutError
from .grem import GremConfig, count_cuts, partition
from .placement import (
    comm_csv,
    estimate_comm,
    plan_assignment,
    plan_from_text,
    plan_to_text,
    select_replicated,
)
from .seed import SeedConfig
from .store import reorder_features, write_buckets
from .theory import compute_node_stats, curve_csv, theory_curve

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DATA = 3
EXIT_IO = 4


def _sha256(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def _peak_rss_bytes() -> int:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def _write_manifest(args, command: str, inputs: list[str], outputs: list[str], started: float) -> str:
    config = {
        k: v
        for k, v in vars(args).items()
        if k not in ("func", "manifest", "json") and not callable(v)
    }
    manifest = {
        "command": command,
        "config": config,
        "input_digests": {p: _sha256(p) for p in inputs},
        "outputs": {p: _sha256(p) for p in outputs},
        "wall_time_s": time.monotonic() - started,
        "peak_rss_bytes": _peak_rss_bytes(),
    }
    path = args.manifest
    if path is None:
        anchor = outputs[0] if outputs else inputs[0] + f".{command}"
        path = anchor + ".manifest.json"
    with open(path, "w", encoding="ascii") as fh:
        json.dump(manifest, fh, indent=2, sort_keys=True)
        fh.write("\n")
    return path


def _emit(args, payload: dict) -> None:
    if getattr(args, "json", False):
        print(json.dumps(payload, sort_keys=True))
    else:
        for key, value in payload.items():
            if isinstance(value, (list, dict)):
                value = json.dumps(value)
            print(f"{key}: {value}")


def _parse_floats(text: str) -> list[float]:
    return [float(tok) for tok in text.split(",") if tok.strip()]


def _parse_ints(text: str) -> list[int]:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _grem_config(args) -> GremConfig:
    return GremConfig(
        chunk_edges=args.chunk_edges,
        chunk_frac=args.chunk_frac,
        capacity_slack=args.capacity_slack,
        refine=not args.no_refine,
        seed=SeedConfig(algorithm=args.seed_algo, rng_seed=args.rng_seed),
        passes=args.passes,
    )


def cmd_partition(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    workdir = args.workdir or os.environ.get("GREM_WORKDIR")
    scratch = workdir is None
    if scratch:
        workdir = args.out + ".work"
    try:
        labels, report = partition(efile, args.parts, _grem_config(args), workdir)
    finally:
        if scratch:  # recursion temporaries are already gone; drop the dir too
            try:
                os.rmdir(workdir)
            except OSError:
                pass
    write_labels(args.out, labels, num_parts=args.parts)
    manifest = _write_manifest(args, "partition", [args.edges], [args.out], started)
    _emit(args, {**report.to_dict(), "labels": args.out, "manifest": manifest})
    return EXIT_OK


def cmd_predict(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    labels, _ = read_labels(args.labels)
    stats = compute_node_stats(efile, labels)
    points = theory_curve(stats, _parse_floats(args.xs), args.multiplier)
    csv = curve_csv(points, args.multiplier)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(csv)
    manifest = _write_manifest(args, "predict", [args.edges, args.labels], [args.out], started)
    _emit(
        args,
        {
            "points": [
                {"x": pt.x, "expected_cuts": pt.expected_cuts,
                 "expected_cut_fraction": pt.expected_cut_fraction}
                for pt in points
            ],
            "csv": args.out,
            "manifest": manifest,
        },
    )
    return EXIT_OK


def cmd_shuffle(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    external_shuffle(efile, args.out, args.memory_budget, args.rng_seed)
    manifest = _write_manifest(args, "shuffle", [args.edges], [args.out], started)
    _emit(args, {"shuffled": args.out, "num_edges": efile.meta.num_edges, "manifest": manifest})
    return EXIT_OK


def cmd_convert(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges, num_nodes=args.num_nodes)
    out = convert(efile, args.out, args.to, num_nodes=args.num_nodes)
    manifest = _write_manifest(args, "convert", [args.edges], [args.out], started)
    _emit(
        args,
        {
            "converted": args.out,
            "format": out.format,
            "num_nodes": out.meta.num_nodes,
            "num_edges": out.meta.num_edges,
            "manifest": manifest,
        },
    )
    return EXIT_OK


def cmd_cut_stats(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    labels, num_parts = read_labels(args.labels)
    report = count_cuts(efile, labels, num_parts)
    manifest = _write_manifest(args, "cut-stats", [args.edges, args.labels], [], started)
    _emit(args, {**report.to_dict(), "manifest": manifest})
    return EXIT_OK


def cmd_buckets(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    labels, num_parts = read_labels(args.labels)
    index = write_buckets(efile, labels, args.out, num_parts)
    manifest = _write_manifest(
        args, "buckets", [args.edges, args.labels], [args.out, args.out + ".idx"], started
    )
    _emit(
        args,
        {
            "store": args.out,
            "index": args.out + ".idx",
            "parts": index.p,
            "total_edges": index.total_edges,
            "manifest": manifest,
        },
    )
    return EXIT_OK


def cmd_features(args) -> int:
    started = time.monotonic()
    labels, num_parts = read_labels(args.labels)
    layout = reorder_features(args.features, labels, args.record_width, args.out, num_parts)
    manifest = _write_manifest(
        args, "features", [args.features, args.labels], [args.out, args.out + ".layout"], started
    )
    _emit(
        args,
        {
            "grouped": args.out,
            "layout": args.out + ".layout",
            "record_width": layout.record_width,
            "extents": [list(e) for e in layout.extents],
            "manifest": manifest,
        },
    )
    return EXIT_OK


def cmd_plan(args) -> int:
    started = time.monotonic()
    plan = plan_assignment(args.parts, args.workers, args.rng_seed)
    inputs = []
    if args.replicate_budget:
        if not args.edges:
            raise StreamcutError("--replicate-budget requires --edges")
        efile = open_edge_file(args.edges)
        replicated = frozenset(int(n) for n in select_replicated(efile, args.replicate_budget))
        plan = dataclasses.replace(plan, replicated_nodes=replicated)
        inputs.append(args.edges)
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(plan_to_text(plan))
    manifest = _write_manifest(args, "plan", inputs, [args.out], started)
    _emit(
        args,
        {
            "plan": args.out,
            "workers": plan.num_workers,
            "parts": plan.num_partitions,
            "replicated_nodes": len(plan.replicated_nodes),
            "manifest": manifest,
        },
    )
    return EXIT_OK


def cmd_comm_estimate(args) -> int:
    started = time.monotonic()
    efile = open_edge_file(args.edges)
    labels, _ = read_labels(args.labels)
    with open(args.plan, "r", encoding="ascii") as fh:
        plan = plan_from_text(fh.read())
    counts = estimate_comm(
        efile,
        labels,
        plan,
        fanouts=_parse_ints(args.fanouts),
        num_seeds=args.num_seeds,
        rng_seed=args.rng_seed,
    )
    with open(args.out, "w", encoding="ascii") as fh:
        fh.write(comm_csv(counts))
    manifest = _write_manifest(
        args, "comm-estimate", [args.edges, args.labels, args.plan], [args.out], started
    )
    _emit(
        args,
        {
            "csv": args.out,
            "per_worker": [{"worker": w, "local": a, "remote": b} for w, (a, b) in enumerate(counts)],
            "manifest": manifest,
        },
    )
    return EXIT_OK


def _add_common(sub) -> None:
    sub.add_argument("--json", action="store_true", help="machine-readable report on stdout")
    sub.add_argument("--manifest", default=None, help="run manifest path (default: next to output)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="streamcut",
        description="Streaming memory-bounded min-edge-cut graph partitioning",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("partition", help="partition an edge list into p parts")
    p.add_argument("edges")
    p.add_argument("--out", required=True, help="output labels file")
    p.add_argument("--parts", type=int, default=2, help="number of partitions (power of two)")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--chunk-frac", type=float, default=None, dest="chunk_frac",
                       help="chunk size as a fraction of the edge count (default 0.1)")
    group.add_argument("--chunk-edges", type=int, default=None, dest="chunk_edges",
                       help="chunk size as an absolute edge count")
    p.add_argument("--no-refine", action="store_true", dest="no_refine",
                   help="freeze assignments after the first greedy placement")
    p.add_argument("--seed-algo", choices=("bfs_grow", "random"), default="bfs_grow",
                   dest="seed_algo")
    p.add_argument("--capacity-slack", type=float, default=0.0, dest="capacity_slack")
    p.add_argument("--passes", type=int, default=1, help="full sweeps over the edge file")
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p.add_argument("--workdir", default=None,
                   help="scratch directory for recursion (default: $GREM_WORKDIR)")
    _add_common(p)
    p.set_defaults(func=cmd_partition)

    p = sub.add_parser("predict", help="expected-cut curve from a reference bisection")
    p.add_argument("edges")
    p.add_argument("labels", help="reference bisection labels file")
    p.add_argument("--xs", default="0.01,0.05,0.1,0.3,1.0", help="comma-separated chunk fractions")
    p.add_argument("--multiplier", type=float, default=1.0,
                   help="effective-chunk multiplier (2 models refinement)")
    p.add_argument("--out", required=True, help="output CSV path")
    _add_common(p)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("shuffle", help="uniform external shuffle of an edge file")
    p.add_argument("edges")
    p.add_argument("out")
    p.add_argument("--memory-budget", type=int, default=1 << 26, dest="memory_budget",
                   help="peak resident edge bytes (default 64 MiB)")
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    _add_common(p)
    p.set_defaults(func=cmd_shuffle)

    p = sub.add_parser("convert", help="convert between text and binary edge formats")
    p.add_argument("edges")
    p.add_argument("out")
    p.add_argument("--to", choices=(TEXT, BINARY), required=True)
    p.add_argument("--num-nodes", type=int, default=None, dest="num_nodes")
    _add_common(p)
    p.set_defaults(func=cmd_convert)

    p = sub.add_parser("cut-stats", help="measure the edge cut of a labeling")
    p.add_argument("edges")
    p.add_argument("labels")
    _add_common(p)
    p.set_defaults(func=cmd_cut_stats)

    p = sub.add_parser("buckets", help="scatter edges into the p x p bucket store")
    p.add_argument("edges")
    p.add_argument("labels")
    p.add_argument("out")
    _add_common(p)
    p.set_defaults(func=cmd_buckets)

    p = sub.add_parser("features", help="group fixed-width feature records by partition")
    p.add_argument("features")
    p.add_argument("labels")
    p.add_argument("out")
    p.add_argument("--record-width", type=int, required=True, dest="record_width")
    _add_common(p)
    p.set_defaults(func=cmd_features)

    p = sub.add_parser("plan", help="random partition-to-worker assignment")
    p.add_argument("out")
    p.add_argument("--parts", type=int, required=True)
    p.add_argument("--workers", type=int, required=True)
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    p.add_argument("--edges", default=None, help="edge file for --replicate-budget")
    p.add_argument("--replicate-budget", type=int, default=0, dest="replicate_budget",
                   help="replicate this many highest-degree nodes on all workers")
    _add_common(p)
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("comm-estimate", help="simulate cross-worker sampling traffic")
    p.add_argument("edges")
    p.add_argument("labels")
    p.add_argument("plan")
    p.add_argument("--out", required=True, help="output CSV path")
    p.add_argument("--fanouts", default="30,20,10", help="per-hop neighbor sample counts")
    p.add_argument("--num-seeds", type=int, default=64, dest="num_seeds")
    p.add_argument("--rng-seed", type=int, default=0, dest="rng_seed")
    _add_common(p)
    p.set_defaults(func=cmd_comm_estimate)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (StreamcutError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
