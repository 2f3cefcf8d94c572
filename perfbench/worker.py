"""One workload in a fresh process; prints one JSON object on stdout.

    python3 perfbench/worker.py --workload NAME --seed N --seconds S --trace 0|1 [--setup-only]

Set-up (import pwlab, generate inputs, build bodies, evaluators and caches)
is timed from before the first import of numpy or pwlab.  Then one warm-up
item runs, and full passes repeat until S seconds have gone by (at least
one).  With --trace 1 one more pass runs with every function in layers.json
wrapped in spans.  A reference kernel (speed.py) runs after set-up and at
checkpoints: after every item, and inside items after the calls a workload
names.  Set-up and pass times are reported both as measured (raw_*) and
scaled to the reference host's speed.  run.py starts this script with the
BLAS thread count pinned and src/ first on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
# How often the measuring thread moves to the next CPU.
ROTATION_S = 0.05


@contextlib.contextmanager
def rotating_cpus(period: float = ROTATION_S):
    """Move the calling thread round the CPUs it may use, one per period.

    On a shared host each CPU is slowed by its own neighbours for seconds
    at a time, and the scheduler keeps a lone busy thread on one CPU, so a
    run would time whichever CPU it landed on.  Rotating makes each run
    average over all of them.
    """
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        yield
        return
    tid = threading.get_native_id()
    stop = threading.Event()

    def rotate():
        step = 0
        while not stop.wait(period):
            step += 1
            os.sched_setaffinity(tid, {cpus[step % len(cpus)]})

    os.sched_setaffinity(tid, {cpus[0]})
    mover = threading.Thread(target=rotate, daemon=True)
    mover.start()
    try:
        yield
    finally:
        stop.set()
        mover.join()
        os.sched_setaffinity(tid, set(cpus))


def load_layers() -> dict:
    with open(os.path.join(HERE, "layers.json")) as fh:
        return json.load(fh)


def timed_pass(items: list, tally, scaler, recorder=None) -> tuple[float, float]:
    """One full pass with a checkpoint after each item; returns the pass's
    wall time as measured and scaled to the reference host's speed.  With
    a recorder, each item is the root span of the layer spans it causes."""
    import workloads

    for item in items:
        scaler.start()
        if recorder is None:
            workloads.run_item(item, tally)
        else:
            with recorder.span(f"item:{item.name}"):
                workloads.run_item(item, tally)
        scaler.checkpoint()
    return scaler.take()


def measure(workload, seconds: float, trace: bool) -> dict:
    """Warm-up, timed passes and the optional traced pass of a built workload."""
    import spans
    import speed
    import workloads

    tally = workloads.Tally()
    t0 = time.perf_counter()
    workloads.run_item(workload.warmup, tally)
    warmup_s = time.perf_counter() - t0
    scaler = speed.Scaler()
    walls, scaled = [], []
    deadline = time.perf_counter() + seconds
    with spans.after_each_call(workload.checkpoints, scaler.checkpoint):
        while not walls or time.perf_counter() < deadline:
            wall, ref = timed_pass(workload.items, tally, scaler)
            walls.append(wall)
            scaled.append(ref)
    out = {"warmup_s": warmup_s, "raw_pass_times_s": walls, "pass_times_s": scaled,
           "raw_wall_s": statistics.median(walls), "wall_s": statistics.median(scaled)}
    if trace:
        # checkpoints inside items would put gaps inside the spans: item ends only
        functions = load_layers()["functions"]
        recorder = spans.Recorder()
        with spans.wrapped(recorder, functions):
            _, traced = timed_pass(workload.items, tally, scaler, recorder)
        out["traced_wall_s"] = traced
        out["trace_overhead_s"] = traced - out["wall_s"]
        out["layers"] = spans.layer_metrics(recorder, functions)
        out["spans"] = recorder.spans
    out.update(attempted=tally.attempted, failed=tally.failed, failures=tally.failures,
               correct=tally.failed == 0)
    return out


def environment() -> dict:
    import numpy as np
    import scipy

    import pwlab
    import speed
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")},
        "pwlab_path": os.path.relpath(os.path.dirname(os.path.abspath(pwlab.__file__)),
                                      os.path.dirname(HERE)),
        "cpu_rotation_s": ROTATION_S,
        "reference_slice_s": speed.SLICE_REF_S,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    with rotating_cpus():
        return run(args)


def run(args) -> int:
    t0 = time.perf_counter()
    import workloads
    workload = workloads.BUILDERS[args.workload](args.seed)
    setup_s = time.perf_counter() - t0

    import pwlab
    if os.path.dirname(os.path.dirname(os.path.abspath(pwlab.__file__))) != SRC:
        print(f"pwlab imported from {pwlab.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    import speed
    slowdown = speed.slowdown(speed.gap(speed.FIRST_GAP_S))
    result = {"raw_setup_s": setup_s, "setup_s": setup_s / slowdown}
    if not args.setup_only:
        result.update(measure(workload, args.seconds, bool(args.trace)))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        result["environment"] = environment()
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
