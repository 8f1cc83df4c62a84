"""The benchmark's workloads: input generation, one job each, and output checks.

Every input is a pure function of the workload seed.  A job calls streamcut
only through module attributes looked up at call time (``grem.bisect``,
``store.write_buckets``, ...), so the traced run's wrappers see each call.

Checks never trust the code under test: edge, label, bucket and layout files
are parsed here with plain numpy, and every job's outputs are compared by
digest with one output set that was checked in full.
"""

from __future__ import annotations

import contextlib
import dataclasses
import hashlib
import io
import json
import os
import struct
from math import ceil

import numpy as np

from streamcut import cli, edgefile, grem, placement, store, synth, theory

_EDGE_HEADER = struct.Struct("<4sIIQQ")
_LABELS_HEADER = struct.Struct("<4sIQI")
_BUCKET_HEADER = struct.Struct("<4sIIIQ")
_LAYOUT_HEADER = struct.Struct("<4sIQI")


def sha256_file(path: str) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for block in iter(lambda: fh.read(1 << 20), b""):
            digest.update(block)
    return digest.hexdigest()


def sha256_array(arr: np.ndarray, dtype="<i8") -> str:
    return hashlib.sha256(np.ascontiguousarray(arr, dtype=dtype).tobytes()).hexdigest()


def read_edges(path: str) -> tuple[np.ndarray, int]:
    """(edges as int64 pairs, num_nodes) of a binary edge file."""
    with open(path, "rb") as fh:
        magic, _, flags, num_nodes, num_edges = _EDGE_HEADER.unpack(fh.read(_EDGE_HEADER.size))
    if magic != b"GRPE":
        raise ValueError(f"{path}: not a binary edge file")
    dtype = "<u8" if flags & 1 else "<u4"
    raw = np.fromfile(path, dtype=dtype, offset=_EDGE_HEADER.size)
    if raw.size != 2 * num_edges:
        raise ValueError(f"{path}: payload does not match header")
    return raw.astype(np.int64).reshape(-1, 2), int(num_nodes)


def read_label_file(path: str) -> tuple[np.ndarray, int]:
    with open(path, "rb") as fh:
        magic, _, num_nodes, num_parts = _LABELS_HEADER.unpack(fh.read(_LABELS_HEADER.size))
    if magic != b"GRPL":
        raise ValueError(f"{path}: not a label file")
    raw = np.fromfile(path, dtype="<u4", offset=_LABELS_HEADER.size)
    if raw.size != num_nodes:
        raise ValueError(f"{path}: payload does not match header")
    labels = raw.astype(np.int64)
    labels[raw == 0xFFFFFFFF] = -1
    return labels, int(num_parts)


def edge_keys(edges: np.ndarray, num_nodes: int) -> np.ndarray:
    """Sorted u * V + v keys: equal arrays mean equal edge multisets."""
    return np.sort(edges[:, 0] * num_nodes + edges[:, 1])


def report_fields(report) -> dict:
    fields = report if isinstance(report, dict) else report.to_dict()
    return {k: fields[k] for k in ("total_edges", "cut_edges", "cut_fraction", "balance_ratio")}


def check_same(records: list[dict], keys: tuple[str, ...], bad: set[int], problems: list[str]):
    """Marks every job whose ``keys`` differ from the last job's (the fully checked one)."""
    ref = records[-1]
    for i, rec in enumerate(records):
        for key in keys:
            if rec.get(key) != ref.get(key):
                bad.add(i)
                problems.append(f"job {i}: {key} differs from job {len(records) - 1}")


class Workload:
    name = ""  # as in BENCHMARK.json

    def __init__(self, seed: int, small: bool, workdir: str):
        self.seed = seed
        self.small = small
        self.workdir = workdir

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def generate(self) -> list[str]:
        """Writes this seed's inputs; returns the paths a job reads."""
        raise NotImplementedError

    def facts(self) -> dict:
        raise NotImplementedError

    def load(self):
        """Job context, built before timing starts."""
        raise NotImplementedError

    def run_job(self, ctx):
        raise NotImplementedError

    def digest(self, ctx, out) -> dict:
        """Report fields and output digests of one job, taken after its timing."""
        raise NotImplementedError

    def verify(self, records: list[dict]) -> tuple[list[str], set[int]]:
        """Checks the outputs on disk in full; returns (problems, indices of failed jobs)."""
        raise NotImplementedError

    def anchors(self, cut_fraction: float) -> dict:
        """Quality anchors next to the measured cut; empty when the workload has none."""
        return {}


class SbmWorkload(Workload):
    """Shared inputs and checks of the planted-partition workloads."""

    parts = 2
    slack = 0.1
    chunk_frac = 0.1
    shuffle_budget = 1 << 26

    def spec(self) -> synth.SbmSpec:
        raise NotImplementedError

    def generate(self) -> list[str]:
        spec = self.spec()
        raw, truth = synth.write_graph(spec, self.path("raw.grpe"))
        edgefile.external_shuffle(raw, self.path("input.grpe"), self.shuffle_budget,
                                  rng_seed=self.seed + 1)
        os.remove(raw.path)
        np.save(self.path("truth.npy"), truth)
        return [self.path("input.grpe"), self.path("truth.npy")]

    def facts(self) -> dict:
        meta = edgefile.open_edge_file(self.path("input.grpe")).meta
        plan = grem.GremConfig(chunk_frac=self.chunk_frac).plan_for(meta.num_edges)
        return {
            "V": meta.num_nodes, "E": meta.num_edges, "chunk_edges": plan.chunk_size,
            "chunks": plan.num_chunks, "p": self.parts, "slack": self.slack,
            "shuffle_budget_bytes": self.shuffle_budget, "record_width_bytes": None,
        }

    def labels_output(self) -> np.ndarray:
        raise NotImplementedError

    def verify(self, records):
        problems: list[str] = []
        bad: set[int] = set()
        edges, num_nodes = read_edges(self.path("input.grpe"))
        labels = self.labels_output()
        cap = ceil((1 + self.slack) * num_nodes / self.parts)
        if labels.shape != (num_nodes,):
            problems.append(f"labels cover {labels.shape[0]} of {num_nodes} nodes")
        elif labels.min() < 0 or labels.max() >= self.parts:
            problems.append(f"labels outside [0, {self.parts})")
        else:
            sizes = np.bincount(labels, minlength=self.parts)
            if sizes.max() > cap:
                problems.append(f"partition of {sizes.max()} nodes exceeds capacity {cap}")
            cut = int((labels[edges[:, 0]] != labels[edges[:, 1]]).sum())
            expect = {
                "total_edges": len(edges), "cut_edges": cut, "cut_fraction": cut / len(edges),
                "balance_ratio": float(sizes.max()) / ceil(num_nodes / self.parts),
            }
            got = {k: records[-1].get(k) for k in expect}
            if got != expect:
                problems.append(f"cut report {got} != recount {expect}")
        if problems:
            bad.update(range(len(records)))
        check_same(records, ("labels_sha256", "total_edges", "cut_edges", "cut_fraction",
                             "balance_ratio"), bad, problems)
        return problems, bad

    def anchors(self, cut_fraction: float) -> dict:
        efile = edgefile.open_edge_file(self.path("input.grpe"))
        truth = np.load(self.path("truth.npy"))
        halves = (truth >= self.spec().blocks // 2).astype(np.int64)
        stats = theory.compute_node_stats(efile, halves)
        predicted = theory.expected_cuts(stats, self.chunk_frac, 2.0).expected_cut_fraction
        return {
            "truth_cut_fraction": grem.count_cuts(efile, truth).cut_fraction,
            "model_cut_fraction": predicted,
            "model_gap": cut_fraction - predicted,
        }


class Sbm8P8(SbmWorkload):
    name = "sbm8-p8"
    parts = 8

    def spec(self):
        if self.small:
            return synth.SbmSpec(8, 625, 3.2e-2, 2.3e-4, rng_seed=self.seed)
        return synth.SbmSpec(8, 6250, 3.2e-3, 2.3e-5, rng_seed=self.seed)

    def load(self):
        return [
            "partition", self.path("input.grpe"), "--out", self.path("labels.grpl"),
            "--parts", str(self.parts), "--chunk-frac", str(self.chunk_frac),
            "--capacity-slack", str(self.slack), "--workdir", self.path("recursion"),
            "--manifest", self.path("manifest.json"), "--json",
        ]

    def run_job(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"streamcut partition exited with {code}")
        return json.loads(out.getvalue().splitlines()[-1])

    def digest(self, argv, report):
        return {**report_fields(report), "labels_sha256": sha256_file(self.path("labels.grpl"))}

    def labels_output(self):
        labels, num_parts = read_label_file(self.path("labels.grpl"))
        if num_parts != self.parts:
            raise ValueError(f"label file declares {num_parts} parts, expected {self.parts}")
        return labels


class Sbm2C1(SbmWorkload):
    name = "sbm2-c1"
    chunk_frac = 0.01

    def spec(self):
        if self.small:
            return synth.SbmSpec(2, 2500, 8e-3, 4e-4, rng_seed=self.seed)
        return synth.SbmSpec(2, 25000, 8e-4, 4e-5, rng_seed=self.seed)

    def load(self):
        config = grem.GremConfig(chunk_frac=self.chunk_frac, capacity_slack=self.slack,
                                 refine=True)
        return edgefile.open_edge_file(self.path("input.grpe")), config

    def run_job(self, ctx):
        efile, config = ctx
        return grem.bisect(efile, config)

    def digest(self, ctx, out):
        labels, report = out
        np.save(self.path("labels.npy"), labels)
        return {**report_fields(report), "labels_sha256": sha256_array(labels, "<i4")}

    def labels_output(self):
        return np.load(self.path("labels.npy")).astype(np.int64)


class SkewPipeline(Workload):
    name = "skew-pipeline"
    parts = 16
    workers = 2
    record_width = 128
    xs = (0.01, 0.05, 0.1, 1.0)

    def __init__(self, seed, small, workdir):
        super().__init__(seed, small, workdir)
        if small:
            self.num_nodes, self.num_edges = 5_000, 50_000
            self.shuffle_budget = edgefile.IO_BLOCK
            self.replicate, self.num_seeds = 50, 16
        else:
            self.num_nodes, self.num_edges = 200_000, 2_000_000
            self.shuffle_budget = 8 << 20
            self.replicate, self.num_seeds = 1000, 64

    def generate(self):
        rng = np.random.default_rng(self.seed)
        n, m = self.num_nodes, self.num_edges
        ids = rng.permutation(n)
        popularity = np.arange(1, n + 1, dtype=np.float64) ** -0.8
        src = ids[rng.choice(n, size=m, p=popularity / popularity.sum())]
        dst = rng.integers(0, n, size=m)
        with edgefile.BinaryEdgeWriter(self.path("input.grpe"), n) as writer:
            writer.write(np.column_stack([src, dst]))
        np.save(self.path("labels.npy"), rng.integers(0, self.parts, size=n))
        rng.integers(0, 256, size=n * self.record_width, dtype=np.uint8).tofile(
            self.path("features.bin"))
        return [self.path("input.grpe"), self.path("labels.npy"), self.path("features.bin")]

    def facts(self):
        return {
            "V": self.num_nodes, "E": self.num_edges, "chunk_edges": None, "p": self.parts,
            "slack": None, "shuffle_budget_bytes": self.shuffle_budget,
            "record_width_bytes": self.record_width, "workers": self.workers,
            "replicated": self.replicate, "comm_seeds": self.num_seeds,
        }

    def load(self):
        labels = np.load(self.path("labels.npy"))
        halves = labels // (self.parts // 2)  # theory needs a bisection
        return edgefile.open_edge_file(self.path("input.grpe")), labels, halves

    def run_job(self, ctx):
        efile, labels, halves = ctx
        shuffled = edgefile.external_shuffle(efile, self.path("shuffled.grpe"),
                                             self.shuffle_budget, rng_seed=self.seed)
        report = grem.count_cuts(shuffled, labels)
        store_path = self.path("store.grpb")
        store.write_buckets(shuffled, labels, store_path)
        plan = placement.plan_assignment(self.parts, self.workers, rng_seed=self.seed)
        loaded = {}
        for worker_parts in plan.assignment:
            index = store.read_index(store_path)
            for i in worker_parts:
                for j in range(self.parts):
                    loaded[i, j] = store.read_bucket(store_path, i, j, index)
        store.reorder_features(self.path("features.bin"), labels, self.record_width,
                               self.path("grouped.bin"))
        replicated = placement.select_replicated(shuffled, self.replicate)
        plan = dataclasses.replace(plan, replicated_nodes=frozenset(replicated.tolist()))
        comm = placement.estimate_comm(shuffled, labels, plan, num_seeds=self.num_seeds,
                                       rng_seed=self.seed)
        stats = theory.compute_node_stats(shuffled, halves)
        curve = theory.theory_curve(stats, self.xs, 2.0)
        return report, loaded, replicated, comm, curve

    def digest(self, ctx, out):
        report, loaded, replicated, comm, curve = out
        buckets = hashlib.sha256()
        for key in sorted(loaded):
            buckets.update(np.ascontiguousarray(loaded[key], dtype="<i8").tobytes())
        digests = {
            name: sha256_file(self.path(name))
            for name in ("shuffled.grpe", "store.grpb", "store.grpb.idx", "grouped.bin",
                         "grouped.bin.layout")
        }
        return {
            **report_fields(report), **digests,
            "loaded_buckets_sha256": buckets.hexdigest(),
            "loaded_buckets": len(loaded),
            "replicated_sha256": sha256_array(replicated),
            "comm": [list(c) for c in comm],
            "curve": [pt.expected_cut_fraction for pt in curve],
        }

    def verify(self, records):
        problems: list[str] = []
        n, p = self.num_nodes, self.parts
        labels = np.load(self.path("labels.npy")).astype(np.int64)
        original, _ = read_edges(self.path("input.grpe"))
        shuffled, _ = read_edges(self.path("shuffled.grpe"))
        keys = edge_keys(shuffled, n)
        if not np.array_equal(keys, edge_keys(original, n)):
            problems.append("shuffle output is not the input's edge multiset")

        cut = int((labels[shuffled[:, 0]] != labels[shuffled[:, 1]]).sum())
        sizes = np.bincount(labels, minlength=p)
        expect = {"total_edges": len(shuffled), "cut_edges": cut,
                  "cut_fraction": cut / len(shuffled),
                  "balance_ratio": float(sizes.max()) / ceil(n / p)}
        got = {k: records[-1].get(k) for k in expect}
        if got != expect:
            problems.append(f"cut report {got} != recount {expect}")

        problems += self._verify_buckets(labels, keys, records[-1])
        problems += self._verify_features(labels)

        kept = shuffled[shuffled[:, 0] != shuffled[:, 1]]
        deg = np.bincount(kept[:, 0], minlength=n) + np.bincount(kept[:, 1], minlength=n)
        top = np.sort(np.lexsort((np.arange(n), -deg))[: self.replicate])
        if sha256_array(top) != records[-1].get("replicated_sha256"):
            problems.append("replicated nodes are not the highest-degree nodes")

        comm = records[-1].get("comm") or []
        if len(comm) != self.workers or sum(a + b for a, b in comm) <= 0:
            problems.append(f"estimate_comm returned {comm}")
        curve = records[-1].get("curve") or []
        if len(curve) != len(self.xs) or not all(0.0 <= c <= 1.0 for c in curve):
            problems.append(f"theory curve {curve} outside [0, 1]")

        bad = set(range(len(records))) if problems else set()
        check_same(records, ("total_edges", "cut_edges", "cut_fraction", "balance_ratio",
                             "shuffled.grpe", "store.grpb", "store.grpb.idx", "grouped.bin",
                             "grouped.bin.layout", "loaded_buckets_sha256", "loaded_buckets",
                             "replicated_sha256", "comm", "curve"), bad, problems)
        return problems, bad

    def _verify_buckets(self, labels, keys, record) -> list[str]:
        p, n = self.parts, self.num_nodes
        path = self.path("store.grpb")
        with open(path, "rb") as fh:
            magic, _, num_parts, flags, num_edges = _BUCKET_HEADER.unpack(
                fh.read(_BUCKET_HEADER.size))
        if magic != b"GRPB" or num_parts != p:
            return [f"bucket store header: magic {magic!r}, p={num_parts}"]
        dtype = np.dtype("<u8" if flags & 1 else "<u4")
        sidecar = np.fromfile(path + ".idx", dtype="<u8").reshape(p, p, 2)
        payload = np.memmap(path, dtype=np.uint8, mode="r")
        digest = hashlib.sha256()
        all_keys = []
        problems = []
        for i in range(p):
            for j in range(p):
                offset, count = (int(v) for v in sidecar[i, j])
                raw = np.frombuffer(payload, dtype=dtype, count=2 * count, offset=offset)
                bucket = raw.astype(np.int64).reshape(-1, 2)
                if ((labels[bucket[:, 0]] != i) | (labels[bucket[:, 1]] != j)).any():
                    problems.append(f"bucket ({i}, {j}) holds edges of other partitions")
                digest.update(bucket.tobytes())
                all_keys.append(bucket[:, 0] * n + bucket[:, 1])
        del payload
        if num_edges != len(keys) or not np.array_equal(np.sort(np.concatenate(all_keys)), keys):
            problems.append("buckets are not the shuffled edge multiset")
        if record.get("loaded_buckets") != p * p:
            problems.append(f"workers loaded {record.get('loaded_buckets')} of {p * p} buckets")
        elif digest.hexdigest() != record.get("loaded_buckets_sha256"):
            problems.append("buckets loaded by the workers differ from the store's contents")
        return problems

    def _verify_features(self, labels) -> list[str]:
        n, width = self.num_nodes, self.record_width
        layout_path = self.path("grouped.bin.layout")
        with open(layout_path, "rb") as fh:
            magic, rec_width, num_nodes, num_parts = _LAYOUT_HEADER.unpack(
                fh.read(_LAYOUT_HEADER.size))
        if magic != b"GRPF" or rec_width != width or num_nodes != n:
            return [f"layout header: magic {magic!r}, width {rec_width}, nodes {num_nodes}"]
        perm = np.fromfile(layout_path, dtype="<u8", count=n, offset=_LAYOUT_HEADER.size)
        extents = np.fromfile(layout_path, dtype="<u8", offset=_LAYOUT_HEADER.size + 8 * n)
        extents = extents.astype(np.int64).reshape(num_parts, 2)
        source = np.memmap(self.path("features.bin"), dtype=np.uint8, mode="r", shape=(n, width))
        grouped = np.memmap(self.path("grouped.bin"), dtype=np.uint8, mode="r", shape=(n, width))
        sample = np.random.default_rng(self.seed).choice(n, size=min(n, 1000), replace=False)
        problems = []
        for node in sample.tolist():
            slot = int(perm[node])
            start, count = extents[labels[node]]
            if not start <= slot < start + count:
                problems.append(f"node {node} sits outside its partition's extent")
                break
            if not np.array_equal(grouped[slot], source[node]):
                problems.append(f"feature record of node {node} did not round-trip")
                break
        del source, grouped
        return problems


WORKLOADS = {cls.name: cls for cls in (Sbm8P8, Sbm2C1, SkewPipeline)}
