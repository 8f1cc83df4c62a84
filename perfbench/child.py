"""Timed jobs of one workload, in a process of their own.

``run.py`` starts this script as a fresh interpreter after it has generated
the inputs, so the peak resident memory read here covers only imports and
the timed jobs.  It runs the workload's job back to back (closed loop, one
thread) until ``--seconds`` have passed and at least ``MIN_JOBS`` jobs
finished, timing the host calibration kernel (``hostcal.py``) before the
first job and after each one, then prints one JSON line with every job's
wall time and output digests, and every kernel time.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time

MIN_JOBS = 3


def peak_rss_bytes() -> int:
    """High-water resident set of this process image.

    ``VmHWM`` belongs to the memory map created at exec; ``ru_maxrss`` would
    also count the parent's memory at the time this process was spawned.
    """
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024


def run_jobs(workload, ctx, seconds: float, clock) -> list[dict]:
    """Closed loop of jobs; each record holds the job's wall time and digests or its error."""
    records = []
    clock.sample()
    started = time.perf_counter()
    while len(records) < MIN_JOBS or time.perf_counter() - started < seconds:
        t0 = time.perf_counter()
        try:
            out = workload.run_job(ctx)
        except Exception as exc:  # a failed job is counted, not fatal
            records.append({"job_s": time.perf_counter() - t0, "error": repr(exc)})
            clock.sample()
            continue
        job_s = time.perf_counter() - t0
        clock.sample()
        records.append({"job_s": job_s, "error": None, **workload.digest(ctx, out)})
        del out  # the next job must not run beside this one's outputs
    return records


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--workdir", required=True)
    parser.add_argument("--small", action="store_true")
    args = parser.parse_args(argv)

    import workloads  # imports streamcut from the PYTHONPATH run.py sets
    from hostcal import HostClock

    clock = HostClock()
    import_rss = peak_rss_bytes()
    workload = workloads.WORKLOADS[args.workload](args.seed, args.small, args.workdir)
    records = run_jobs(workload, workload.load(), args.seconds, clock)
    print(json.dumps({
        "import_rss_bytes": import_rss,
        "peak_rss_bytes": peak_rss_bytes(),
        "jobs": records,
        "calibration_s": clock.samples,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
