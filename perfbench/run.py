"""streamcut benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload sbm8-p8 --seed 0 --seconds 30 --trace 0

Run from the root of a streamcut checkout; the code under test is imported
from ``src/``.  A run

1. generates the workload's inputs from ``--seed`` (three times, to time
   set-up and to check the inputs repeat bit for bit), then runs one
   untimed warm-up job;
2. with ``--trace 0`` runs the timed jobs in a freshly spawned process
   (``child.py``) so its peak RSS holds nothing but imports and those jobs;
   with ``--trace 1`` runs them in this process under the span tracer
   (``tracer.py``) and reports per-layer metrics instead;
3. checks every job's outputs (``workloads.py``) and prints each metric by
   name with its unit, then, as the last line, one JSON object with the keys
   ``correct``, ``attempted``, ``failed`` and ``metrics``.

The end-to-end times are in reference seconds: wall seconds scaled by the
host calibration kernel timed between the steps they cover (``hostcal.py``);
``job_s`` is the mean job time so scaled.  The raw wall times are printed
beside them.

Metric names and units come from ``BENCHMARK.json`` at the checkout root.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SETUP_REPS = 3
CHILD_TIMEOUT_S = 150
SELF_SUM_TOLERANCE_S = 1e-6


def host_facts() -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="ascii", errors="replace") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")),
                       cpu)
    except OSError:
        pass
    import numpy

    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(),
    }


def git_commit() -> str:
    """HEAD of the checkout, read from ``.git`` directly; 'unknown' outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def median(values):
    return statistics.median(values) if values else 0.0


def mean(values):
    return statistics.fmean(values) if values else 0.0


def set_up(workload, clock) -> tuple[float, dict, list[str]]:
    """Generates the inputs SETUP_REPS times; returns (median seconds, digests, problems)."""
    from workloads import sha256_file

    times, digests, problems = [], None, []
    clock.sample()
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        paths = workload.generate()
        times.append(time.perf_counter() - t0)
        clock.sample()
        rep = {os.path.basename(p): sha256_file(p) for p in paths}
        if digests is not None and rep != digests:
            problems.append("inputs differ between set-up repetitions of one seed")
        digests = rep
    return median(times), digests, problems


def timed_child(args) -> dict:
    cmd = [sys.executable, str(HERE / "child.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds), "--workdir", args.workdir]
    if args.small:
        cmd.append("--small")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run(cmd, capture_output=True, text=True, env=env, cwd=str(ROOT),
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"timed child exited with {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def traced_jobs(workload, ctx, seconds: float, trace_path: str):
    """Runs jobs under the tracer for ``seconds``, and at least two.

    The first job also traces allocations, for the ``*_peak_bytes`` metrics
    only; the layer times come from the jobs after it.  Returns (records,
    per-job layer metrics, largest self-time sum error, tracer).
    """
    from streamcut import edgefile
    from tracer import Tracer, install_streamcut, job_metrics

    tracer = Tracer()
    install_streamcut(tracer)
    records, layers, worst = [], [], 0.0
    started = time.perf_counter()
    try:
        while len(records) < 2 or time.perf_counter() - started < seconds:
            tracer.trace_memory = not records
            meter = edgefile.ResidencyMeter()
            first = len(tracer.spans)
            t0 = time.perf_counter()
            try:
                with tracer.job(len(records), meter):
                    out = workload.run_job(ctx)
            except Exception as exc:  # a failed job is counted, not fatal
                records.append({"job_s": time.perf_counter() - t0, "error": repr(exc)})
                continue
            job_s = time.perf_counter() - t0
            records.append({"job_s": job_s, "error": None, **workload.digest(ctx, out)})
            del out
            metrics, error = job_metrics(tracer.spans[first:], meter.peak)
            layers.append(metrics)
            worst = max(worst, error)
    finally:
        tracer.uninstall()
    tracer.write(trace_path)
    return records, layers, worst, tracer


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="streamcut benchmark (one workload, one run)")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--small", action="store_true",
                        help="shrunk inputs, for checking the harness itself")
    args = parser.parse_args(argv)

    if not (SRC / "streamcut" / "__init__.py").is_file():
        print(f"error: no streamcut sources under {SRC}; run from a streamcut checkout",
              file=sys.stderr)
        return 2
    spec_path = ROOT / "BENCHMARK.json"
    if not spec_path.is_file():
        print(f"error: {spec_path} is missing", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; "
              f"choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    bench_dir = ROOT / ".bench_work"
    args.workdir = str(bench_dir / f"{args.workload}-s{args.seed}-p{os.getpid()}")
    os.makedirs(args.workdir)
    try:
        return run(args, spec, workloads, bench_dir)
    finally:
        shutil.rmtree(args.workdir, ignore_errors=True)


def run(args, spec, workloads, bench_dir: Path) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small, args.workdir)
    print(f"host: {json.dumps(host_facts())}")
    print(f"workload: {workload.name} seed={args.seed} small={args.small} "
          f"loop=closed, 1 client, 1 thread")

    import hostcal

    clock = hostcal.HostClock()
    setup_gen_s, input_digests, problems = set_up(workload, clock)
    facts = workload.facts()
    print(f"input: {json.dumps(facts)}")
    for name, digest in input_digests.items():
        print(f"input sha256 {name}: {digest}")

    ctx = workload.load()
    t0 = time.perf_counter()
    try:
        workload.run_job(ctx)
    except Exception as exc:
        problems.append(f"warm-up job failed: {exc!r}")
    warm_s = time.perf_counter() - t0
    clock.sample()
    setup_wall_s = setup_gen_s + warm_s

    if args.trace:
        os.makedirs(bench_dir / "traces", exist_ok=True)
        trace_path = str(bench_dir / "traces" / f"{workload.name}-s{args.seed}.jsonl")
        records, layers, self_sum_error, tracer = traced_jobs(workload, ctx, args.seconds,
                                                              trace_path)
    else:
        child = timed_child(args)
        records = child["jobs"]

    ok = [i for i, r in enumerate(records) if r["error"] is None]
    for i, r in enumerate(records):
        if r["error"] is not None:
            problems.append(f"job {i} raised {r['error']}")
    bad = {i for i in range(len(records)) if i not in ok}
    if ok:
        found, bad_ok = workload.verify([records[i] for i in ok])
        problems += found
        bad |= {ok[i] for i in bad_ok}
    attempted, failed = len(records), len(bad)
    last = records[ok[-1]] if ok else {}
    for key in ("labels_sha256", "store.grpb", "store.grpb.idx"):
        if key in last:
            print(f"output sha256 {key.replace('_sha256', '')}: {last[key]}")

    anchors = workload.anchors(last["cut_fraction"]) if ok else {}
    for key, value in anchors.items():
        print(f"anchor {key}: {value!r}")

    # quality repeats exactly at a fixed seed (checked above) but not across seeds
    quality = {"cut_fraction": last.get("cut_fraction", 0.0),
               "balance_ratio": last.get("balance_ratio", 0.0)}
    job_times = [records[i]["job_s"] for i in ok]
    if args.trace:
        values = {**quality, "theory.model_gap": anchors.get("model_gap", 0.0)}
        timed = layers[1:] or layers
        for key in (m["name"] for m in spec["per_layer"]):
            if key not in values and key != "trace.overhead_s":
                from_jobs = layers[:1] if key.endswith("_peak_bytes") else timed
                values[key] = median([m[key] for m in from_jobs])
        values["trace.overhead_s"] = values["trace.job_s"] - warm_s
        print(f"trace: {len(tracer.spans)} spans written to {trace_path}")
        print(f"trace: allocation-traced job {records[0]['job_s']!r} s; "
              f"untraced warm-up job {warm_s!r} s; max |sum of self times - job time| "
              f"{self_sum_error!r} s over {len(layers)} traced jobs")
        if self_sum_error > SELF_SUM_TOLERANCE_S:
            problems.append(f"layer self times miss the job time by {self_sum_error} s")
        unmeasured = tracer.missing + sorted(tracer.counter_errors)
        print(f"trace: unmeasured layers: {unmeasured or 'none'}")
        metric_spec = spec["per_layer"]
    else:
        calibration = child["calibration_s"]
        job_s = mean(job_times) * hostcal.scale(calibration)
        values = {
            "setup_s": setup_wall_s * hostcal.scale(clock.samples),
            "job_s": job_s,
            "edges_per_s": facts["E"] / job_s if job_s else 0.0,
            "peak_rss_bytes": child["peak_rss_bytes"],
        }
        print(f"job_s: {len(job_times)} jobs, wall mean {mean(job_times)!r} "
              f"median {median(job_times)!r} min {min(job_times, default=0)!r} "
              f"max {max(job_times, default=0)!r} s; "
              f"calibration kernel mean {mean(calibration)!r} s over "
              f"{len(calibration)} runs, reference {hostcal.REFERENCE_S} s")
        print(f"edges_per_s: input of {facts['E']} edges per job; wall "
              f"{facts['E'] / mean(job_times) if job_times else 0.0!r} edges/s")
        print(f"peak_rss_bytes: import-only baseline {child['import_rss_bytes']} B")
        print(f"setup_s: wall {setup_wall_s!r} s = median input generation {setup_gen_s!r} s "
              f"over {SETUP_REPS} repetitions + warm-up job {warm_s!r} s; calibration kernel "
              f"mean {mean(clock.samples)!r} s over {len(clock.samples)} runs")
        for name, value in quality.items():
            print(f"{name} = {value!r} 1")
        metric_spec = spec["end_to_end"]

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in metric_spec}
    for name, metric in metrics.items():
        print(f"{name} = {metric['value']!r} {metric['unit']}")
    print(f"failed_ratio = {failed / attempted if attempted else 1.0!r} 1 "
          f"({failed} of {attempted} jobs)")
    for problem in problems:
        print(f"check failed: {problem}")
    correct = not problems and failed == 0
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
