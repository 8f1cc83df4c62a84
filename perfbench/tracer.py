"""Span tracer for the benchmark's traced run.

The tracer wraps streamcut's module-level entry points from outside the
package: it replaces each name in every ``streamcut`` module that holds it,
so every call that looks the name up at run time reaches the wrapper, and
``uninstall`` restores the originals.  Every wrapped call (or, for generators, every
``next``) becomes a span with a name, start, end, parent span and job id.
Spans stay in memory until the run writes them out.

A layer's self time is its spans' durations minus the part covered by their
child spans, so within one job the self times of all spans sum to the job's
root span.  The tracer's own bookkeeping (counting moved nodes, file sizes)
runs inside ``trace.bookkeeping`` spans and so never lands in a layer.

``tracemalloc`` runs only while ``trace_memory`` is set and a span marked
``peak`` is open; the span's peak is the highest traced allocation above its
starting level.  Tracing allocations slows allocation-heavy Python code
several fold, so callers time layers in jobs run without it.
"""

from __future__ import annotations

import json
import os
import sys
import time
import tracemalloc
from contextlib import contextmanager

JOB = "bench.job"
BOOKKEEPING = "trace.bookkeeping"


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "job", "counts", "peak_bytes", "_base")

    def __init__(self, span_id, name, parent, job):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.job = job
        self.start = self.end = 0.0
        self.counts = {}
        self.peak_bytes = None
        self._base = 0

    def to_dict(self) -> dict:
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "job": self.job, "counts": self.counts,
            "peak_bytes": self.peak_bytes,
        }


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self.missing: list[str] = []  # wrapped names a refactor removed
        self.counter_errors: set[str] = set()  # spans whose counters could not be read
        self.meter = None  # ResidencyMeter handed to stream_chunks during a job
        self.trace_memory = False
        self._stack: list[Span] = []
        self._peak_open: list[Span] = []
        self._job = None
        self._patches: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _open(self, name: str, peak: bool = False) -> Span:
        parent = self._stack[-1].id if self._stack else None
        span = Span(len(self.spans), name, parent, self._job)
        self.spans.append(span)
        self._stack.append(span)
        if peak and self.trace_memory:
            self._peak_enter(span)
        span.start = time.perf_counter()
        return span

    def _close(self, span: Span) -> None:
        span.end = time.perf_counter()
        if self._peak_open and self._peak_open[-1] is span:
            self._peak_exit(span)
        top = self._stack.pop()
        if top is not span:
            raise RuntimeError(f"span {span.name} closed out of order (open: {top.name})")

    @contextmanager
    def span(self, name: str):
        span = self._open(name)
        try:
            yield span
        finally:
            self._close(span)

    @contextmanager
    def job(self, job_id: int, meter=None):
        """Root span of one job; wrapped calls outside a job are not traced."""
        self._job = job_id
        self.meter = meter
        root = self._open(JOB)
        try:
            yield root
        finally:
            self._close(root)
            self._job = None
            self.meter = None

    def _fold_peak(self) -> None:
        _, peak = tracemalloc.get_traced_memory()
        for span in self._peak_open:
            span.peak_bytes = max(span.peak_bytes, peak - span._base)

    def _peak_enter(self, span: Span) -> None:
        if self._peak_open:
            self._fold_peak()
            tracemalloc.reset_peak()
        else:
            tracemalloc.start()
        span._base = tracemalloc.get_traced_memory()[0]
        span.peak_bytes = 0
        self._peak_open.append(span)

    def _peak_exit(self, span: Span) -> None:
        self._fold_peak()
        self._peak_open.pop()
        if not self._peak_open:
            tracemalloc.stop()

    # -- wrapping ----------------------------------------------------------

    def _hook(self, name, fn, *args):
        if fn is None:
            return None
        with self.span(BOOKKEEPING):
            try:
                return fn(self, *args)
            except (AttributeError, TypeError, IndexError, KeyError, OSError):
                self.counter_errors.add(name)
                return None

    def _call_wrapper(self, orig, name, pre, post, peak):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job is None:
                return orig(*args, **kwargs)
            ctx = tracer._hook(name, pre, args, kwargs)
            span = tracer._open(name, peak)
            try:
                result = orig(*args, **kwargs)
            finally:
                tracer._close(span)
            tracer._hook(name, post, span, args, kwargs, result, ctx)
            return result

        return traced

    def _gen_wrapper(self, orig, name, pre, post, peak):
        tracer = self

        def traced(*args, **kwargs):
            if tracer._job is None:
                yield from orig(*args, **kwargs)
                return
            ctx = tracer._hook(name, pre, args, kwargs)
            inner = orig(*args, **kwargs)
            try:
                while True:
                    span = tracer._open(name, peak)
                    try:
                        item = next(inner)
                    except StopIteration:
                        return
                    finally:
                        tracer._close(span)
                    tracer._hook(name, post, span, args, kwargs, item, ctx)
                    yield item
            finally:
                inner.close()

        return traced

    def patch(self, module, attr: str, name: str, *, generator=False, pre=None, post=None,
              peak=False, everywhere=True) -> None:
        """Wraps ``module.attr``; with ``everywhere`` also each streamcut module importing it.

        ``pre(tracer, args, kwargs)`` runs before the call and may rewrite
        ``kwargs``; ``post(tracer, span, args, kwargs, result, ctx)`` records
        counts.  A missing name is recorded in ``missing`` and skipped.
        """
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(f"{module.__name__}.{attr}")
            return
        make = self._gen_wrapper if generator else self._call_wrapper
        wrapper = make(orig, name, pre, post, peak)
        holders = [module]
        if everywhere:
            holders = [
                mod for key, mod in sys.modules.items()
                if (key == "streamcut" or key.startswith("streamcut.")) and mod is not None
                and mod.__dict__.get(attr) is orig
            ]
        for mod in holders:
            self._patches.append((mod, attr, orig))
            setattr(mod, attr, wrapper)

    def uninstall(self) -> None:
        for mod, attr, orig in reversed(self._patches):
            setattr(mod, attr, orig)
        self._patches.clear()

    def write(self, path: str) -> None:
        with open(path, "w", encoding="ascii") as fh:
            for span in self.spans:
                fh.write(json.dumps(span.to_dict(), sort_keys=True) + "\n")


# -- streamcut's layers ------------------------------------------------------

def _count(span, key, value):
    span.counts[key] = span.counts.get(key, 0) + value


def _adjacency_post(tracer, span, args, kwargs, chunk, ctx):
    _count(span, "edges", chunk.num_edges)


def _seed_post(tracer, span, args, kwargs, labels, ctx):
    _count(span, "nodes", len(labels))


def _sweep_pre(tracer, args, kwargs):
    state, chunk = args[0], args[1]
    nodes = chunk.nodes.tolist()
    parts = state.parts
    return nodes, [parts[n] for n in nodes]


def _sweep_post(tracer, span, args, kwargs, state, ctx):
    nodes, before = ctx
    parts = state.parts
    moved = sum(1 for n, old in zip(nodes, before) if old != -1 and parts[n] != old)
    _count(span, "visited", len(nodes))
    _count(span, "moved", moved)


def _bisect_post(tracer, span, args, kwargs, result, ctx):
    _count(span, "calls", 1)


def _extract_post(tracer, span, args, kwargs, sub_file, ctx):
    _count(span, "edges_kept", sub_file.meta.num_edges)


def _decode_post(tracer, span, args, kwargs, block, ctx):
    _count(span, "edges", block.shape[0])


def _stream_pre(tracer, args, kwargs):
    if len(args) < 3 and kwargs.get("meter") is None and tracer.meter is not None:
        kwargs["meter"] = tracer.meter


def _stream_post(tracer, span, args, kwargs, chunk, ctx):
    _count(span, "chunks", 1)


def _write_buckets_post(tracer, span, args, kwargs, index, ctx):
    out = args[2] if len(args) > 2 else kwargs["out_path"]
    _count(span, "bytes_written", os.path.getsize(out) + os.path.getsize(out + ".idx"))


def _read_index_post(tracer, span, args, kwargs, index, ctx):
    _count(span, "bytes_read", index.counts.size * 16)


def _read_bucket_post(tracer, span, args, kwargs, edges, ctx):
    index = args[3] if len(args) > 3 else kwargs["index"]
    _count(span, "bytes_read", edges.shape[0] * index.pair_bytes)


def _comm_post(tracer, span, args, kwargs, counts, ctx):
    _count(span, "fetches", sum(local + remote for local, remote in counts))
    _count(span, "remote", sum(remote for _, remote in counts))


def install_streamcut(tracer: Tracer) -> None:
    """Wraps every layer entry point the per-layer metrics are built from."""
    from streamcut import cli, edgefile, grem, placement, store, theory

    tracer.patch(edgefile, "iter_edge_blocks", "edgefile.decode", generator=True,
                 post=_decode_post)
    tracer.patch(edgefile, "EdgeChunk", "model.adjacency", post=_adjacency_post, peak=True,
                 everywhere=False)
    tracer.patch(grem, "stream_chunks", "edgefile.stream", generator=True,
                 pre=_stream_pre, post=_stream_post)
    tracer.patch(edgefile, "external_shuffle", "edgefile.shuffle", peak=True)
    tracer.patch(edgefile, "write_labels", "edgefile.write_labels")
    tracer.patch(grem, "seed_bisect", "seed.seed_bisect", post=_seed_post)
    tracer.patch(grem, "process_chunk", "grem.sweep", pre=_sweep_pre, post=_sweep_post)
    tracer.patch(grem, "bisect", "grem.bisect", post=_bisect_post)
    tracer.patch(grem, "_extract_induced", "grem.extract", post=_extract_post)
    tracer.patch(grem, "count_cuts", "grem.count_cuts")
    tracer.patch(store, "write_buckets", "store.write_buckets", post=_write_buckets_post)
    tracer.patch(store, "read_index", "store.load", post=_read_index_post)
    tracer.patch(store, "read_bucket", "store.load", post=_read_bucket_post)
    tracer.patch(store, "reorder_features", "store.reorder_features")
    tracer.patch(placement, "select_replicated", "placement.select_replicated")
    tracer.patch(placement, "estimate_comm", "placement.estimate_comm", post=_comm_post,
                 peak=True)
    tracer.patch(theory, "compute_node_stats", "theory.node_stats")
    tracer.patch(theory, "theory_curve", "theory.curve")
    tracer.patch(cli, "_write_manifest", "cli.manifest")


# span name -> per-layer metric holding its self time
SELF_TIME_METRICS = {
    "model.adjacency": "model.adjacency_s",
    "seed.seed_bisect": "seed.seed_s",
    "grem.sweep": "grem.sweep_s",
    "grem.bisect": "grem.bisect_self_s",
    "grem.extract": "grem.extract_s",
    "grem.count_cuts": "grem.count_cuts_s",
    "edgefile.decode": "edgefile.decode_s",
    "edgefile.stream": "edgefile.stream_self_s",
    "edgefile.shuffle": "edgefile.shuffle_s",
    "edgefile.write_labels": "edgefile.write_labels_s",
    "cli.manifest": "cli.manifest_s",
    "store.write_buckets": "store.write_buckets_s",
    "store.load": "store.load_s",
    "store.reorder_features": "store.reorder_features_s",
    "placement.estimate_comm": "placement.estimate_comm_s",
    "placement.select_replicated": "placement.select_replicated_s",
    "theory.node_stats": "theory.node_stats_s",
    "theory.curve": "theory.curve_s",
    JOB: "trace.other_s",
    BOOKKEEPING: "trace.other_s",
}


def job_metrics(spans: list[Span], resident_peak: int) -> tuple[dict, float]:
    """Per-layer metrics of one traced job, and |sum of self times - job time|."""
    duration = {s.id: s.end - s.start for s in spans}
    child_time = dict.fromkeys(duration, 0.0)
    for s in spans:
        if s.parent in child_time:
            child_time[s.parent] += duration[s.id]
    self_time = dict.fromkeys(set(SELF_TIME_METRICS.values()), 0.0)
    counts: dict[str, dict[str, int]] = {}
    peaks: dict[str, int] = {}
    root = None
    for s in spans:
        if s.name == JOB:
            root = s
        self_time[SELF_TIME_METRICS[s.name]] += duration[s.id] - child_time[s.id]
        layer_counts = counts.setdefault(s.name, {})
        for key, value in s.counts.items():
            layer_counts[key] = layer_counts.get(key, 0) + value
        if s.peak_bytes is not None:
            peaks[s.name] = max(peaks.get(s.name, 0), s.peak_bytes)
    job_s = duration[root.id]
    self_sum_error = abs(sum(self_time.values()) - job_s)

    def c(span_name, key):
        return counts.get(span_name, {}).get(key, 0)

    def ratio(num, den):
        return num / den if den else 0.0

    m = dict(self_time)
    m["trace.job_s"] = job_s
    m["model.adjacency_edges_per_s"] = ratio(c("model.adjacency", "edges"),
                                             m["model.adjacency_s"])
    m["model.adjacency_peak_bytes"] = peaks.get("model.adjacency", 0)
    m["seed.nodes"] = c("seed.seed_bisect", "nodes")
    m["grem.sweep_nodes_visited"] = c("grem.sweep", "visited")
    m["grem.sweep_nodes_moved"] = c("grem.sweep", "moved")
    m["grem.sweep_moved_ratio"] = ratio(m["grem.sweep_nodes_moved"],
                                        m["grem.sweep_nodes_visited"])
    m["grem.bisect_calls"] = c("grem.bisect", "calls")
    m["grem.extract_edges_kept"] = c("grem.extract", "edges_kept")
    m["edgefile.decode_edges"] = c("edgefile.decode", "edges")
    m["edgefile.chunks"] = c("edgefile.stream", "chunks")
    m["edgefile.resident_edges_peak"] = resident_peak
    m["edgefile.shuffle_peak_bytes"] = peaks.get("edgefile.shuffle", 0)
    m["store.bytes_written"] = c("store.write_buckets", "bytes_written")
    m["store.bytes_read"] = c("store.load", "bytes_read")
    m["placement.estimate_comm_peak_bytes"] = peaks.get("placement.estimate_comm", 0)
    m["placement.fetches"] = c("placement.estimate_comm", "fetches")
    m["placement.remote_fraction"] = ratio(c("placement.estimate_comm", "remote"),
                                           m["placement.fetches"])
    return m, self_sum_error
