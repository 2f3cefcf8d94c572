"""pwlab benchmark: seeded workloads, end-to-end metrics, per-layer spans.

    python3 perfbench/run.py --workload NAME|all --seed N --seconds S --trace 0|1
    python3 perfbench/run.py compare DIR_A DIR_B

Each run starts fresh worker processes with the BLAS/OpenMP thread count
pinned and the checked-out src/ first on the import path, writes a result
file under --out, prints a summary, and ends with one JSON line.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKER = os.path.join(HERE, "worker.py")
WORKLOADS = ("nehari_sweep", "hardy_halfline", "hankel_spectra", "polytope_omega")

# One BLAS/OpenMP thread per worker: below nproc on any machine, and on a
# shared host a single thread varies least from run to run.
THREADS = 1
# Fresh processes timed for setup_s; the measuring worker is one of them.
SETUP_PROCESSES = 3
# Every run of one workload must finish within this many seconds.
RUN_LIMIT_S = 170.0


class BenchError(RuntimeError):
    pass


def load_benchmark() -> dict:
    path = os.path.join(ROOT, "BENCHMARK.json")
    if not os.path.isfile(path):
        raise BenchError(f"{path} is missing")
    with open(path) as fh:
        return json.load(fh)


def worker_env() -> dict:
    env = dict(os.environ)
    for key in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        env[key] = str(THREADS)
    env["PYTHONHASHSEED"] = "0"
    src = os.path.join(ROOT, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def call_worker(args: list[str], deadline: float) -> dict:
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting a worker")
    try:
        proc = subprocess.run([sys.executable, WORKER, *args], cwd=ROOT, env=worker_env(),
                              capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise BenchError(f"worker {' '.join(args)} exceeded the {RUN_LIMIT_S:.0f} s limit")
    if proc.returncode != 0:
        raise BenchError(f"worker {' '.join(args)} exited {proc.returncode}:\n"
                         f"{proc.stderr[-4000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> dict:
    """Commit of the checkout and whether src/ differs from it; null outside git."""
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return {"commit": None, "src_modified": None}
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))

    def git(*cmd):
        return subprocess.run(["git", *cmd], cwd=ROOT, env=env, capture_output=True,
                              text=True, timeout=30).stdout.strip()
    return {"commit": git("rev-parse", "HEAD") or None,
            "src_modified": bool(git("status", "--porcelain", "--", "src"))}


def machine() -> dict:
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), None)
    except OSError:
        pass
    return {"nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
            "cpu": model, "platform": platform.platform()}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    base = ["--workload", name, "--seed", str(seed)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROCESSES - 1):
            setups.append(call_worker(base + ["--setup-only"], deadline))
    result = call_worker(base + ["--seconds", str(seconds), "--trace", str(int(trace))],
                         deadline)
    setups.append(result)
    result["setup_runs_s"] = [s["setup_s"] for s in setups]
    result["raw_setup_runs_s"] = [s["raw_setup_s"] for s in setups]
    result["setup_s"] = statistics.median(result["setup_runs_s"])
    result["raw_setup_s"] = statistics.median(result["raw_setup_runs_s"])
    result["failed_frac"] = result["failed"] / result["attempted"]
    result["environment"].update(machine(), git=git_commit(), blas_threads_pinned=THREADS)
    result.update(workload=name, seed=seed, seconds=seconds, trace=int(trace))
    return result


def write_result(result: dict, out_dir: str) -> str:
    folder = os.path.join(out_dir, result["workload"])
    os.makedirs(folder, exist_ok=True)
    stem = os.path.join(folder, f"seed{result['seed']}-trace{result['trace']}")
    spans = result.pop("spans", None)
    if spans is not None:
        with open(stem + ".spans.json", "w") as fh:
            json.dump({"fields": ["name", "start_ns", "end_ns", "parent"], "spans": spans}, fh)
    with open(stem + ".json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return stem + ".json"


def metrics_of(result: dict, bench: dict) -> dict:
    """The metrics the last line carries: end-to-end untraced, per-layer traced."""
    if result["trace"]:
        values = dict(result["layers"], traced_wall_s=result["traced_wall_s"],
                      trace_overhead_s=result["trace_overhead_s"])
        specs = bench["per_layer"]
    else:
        values = result
        specs = bench["end_to_end"]
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in specs}


def summary(result: dict, path: str) -> str:
    passes = result["pass_times_s"]
    lines = [
        f"workload {result['workload']}  seed {result['seed']}  trace {result['trace']}  -> {path}",
        f"  wall_s       {result['wall_s']:.4f} s    median of {len(passes)} full passes, "
        f"at reference speed (measured {result['raw_wall_s']:.4f} s)",
        f"  setup_s      {result['setup_s']:.4f} s    median of "
        f"{len(result['setup_runs_s'])} fresh processes, at reference speed "
        f"(measured {result['raw_setup_s']:.4f} s)",
        f"  peak_rss_mb  {result['peak_rss_mb']:.1f} MiB  peak RSS of the workload process",
        f"  failed_frac  {result['failed_frac']:.4f} ratio  {result['failed']} failed of "
        f"{result['attempted']} items attempted (warm-up included)",
    ]
    if result["trace"]:
        lines.append(f"  traced wall  {result['traced_wall_s']:.4f} s    tracing overhead "
                     f"{result['trace_overhead_s']:+.4f} s over wall_s")
    lines += [f"  FAILED {msg}" for msg in result["failures"]]
    return "\n".join(lines)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if argv[:1] == ["compare"]:
        import compare
        return compare.main(argv[1:])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=os.path.join(ROOT, ".perfbench"),
                        help="directory for result files (default: .perfbench)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    try:
        bench = load_benchmark()
        if not os.path.isfile(os.path.join(ROOT, "src", "pwlab", "__init__.py")):
            raise BenchError(f"no pwlab sources under {ROOT}/src")
        names = WORKLOADS if args.workload == "all" else (args.workload,)
        results = []
        for name in names:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
            path = write_result(result, args.out)
            print(summary(result, path), flush=True)
            results.append(result)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    if len(results) == 1:
        metrics = metrics_of(results[0], bench)
    else:
        metrics = {f"{r['workload']}.{k}": v for r in results
                   for k, v in metrics_of(r, bench).items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
