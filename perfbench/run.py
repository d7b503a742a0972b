#!/usr/bin/env python3
"""Benchmark of the xbarlstm command-line pipeline.

    python3 perfbench/run.py --workload {train,mc_sweep,pipeline_cli} --seed N --seconds S --trace {0,1}

Run it from the repository root. One closed-loop caller drives
``xbarlstm.cli.main``, one process at a time and without threads; each
workload runs in fresh child processes, so import cost and peak memory are
its own. It prints every metric by name with its unit, then one JSON line
of details (environment, artifact digests, accuracy, per-workload rates),
and last one JSON line: {"correct", "attempted", "failed", "metrics"}.
With --trace 0 the metrics are the end-to-end ones; with --trace 1 they
are the per-layer ones from a traced run, and the tracing overhead.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import probes
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
WORKLOADS = ("train", "mc_sweep", "pipeline_cli")
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
BLAS_THREADS = "1"
# setup_s is the median over this many set-up-only processes, half of them
# before the timed one and half after.
SETUP_REPEATS = 14
FLOOR_REPEATS = 5
WORKER_TIMEOUT_S = 150


ENV = {**os.environ, "PYTHONPATH": str(ROOT / "src"), **{var: BLAS_THREADS for var in BLAS_VARS}}


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def run_worker(workload, seed, seconds, trace, setup_only=False):
    """One fresh worker process; returns its result with ``setup_s`` added."""
    role = "setup" if setup_only else "traced" if trace else "timed"
    result_path = ROOT / ".bench_build" / "perfbench" / f"{workload}-{role}.json"
    result_path.unlink(missing_ok=True)
    cmd = [sys.executable, str(BENCH_DIR / "worker.py"), workload, str(seed), str(seconds),
           "1" if trace else "0", str(result_path)] + (["--setup-only"] if setup_only else [])
    spawned = time.monotonic()
    proc = subprocess.run(cmd, cwd=ROOT, env=ENV, capture_output=True, text=True, timeout=WORKER_TIMEOUT_S)
    if proc.returncode != 0 or not result_path.exists():
        fail(f"worker {workload} exited {proc.returncode}:\n{proc.stderr.strip()}")
    result = json.loads(result_path.read_text())
    result["setup_s"] = result["ready"] - spawned
    return result


def tail(samples):
    """The highest percentile with at least ten samples beyond it, as (percent, value)."""
    ordered = sorted(samples)
    n = len(ordered)
    if n <= 10:
        return None, None
    return 100.0 * (n - 10) / n, ordered[n - 11]


def environment():
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh if line.startswith("model name")), cpu)
    except OSError:
        pass
    probe = ("import json, sys, importlib.util, numpy; print(json.dumps({'python': sys.version.split()[0], "
             "'numpy': numpy.__version__, 'numba_importable': importlib.util.find_spec('numba') is not None}))")
    versions = json.loads(subprocess.run([sys.executable, "-c", probe], env=ENV, capture_output=True,
                                         text=True, check=True, timeout=60).stdout)
    return {**versions, "nproc": os.cpu_count(), "cpu_affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
            "blas_threads": {var: BLAS_THREADS for var in BLAS_VARS},
            "git_commit": git_commit(), "src_sha256": tree_sha256(ROOT / "src" / "xbarlstm")}


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.exists():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    loose = ROOT / ".git" / ref[5:]
    if loose.exists():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.exists():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def tree_sha256(package):
    """sha256 over the package's source files, which identifies the code measured without git."""
    h = hashlib.sha256()
    for path in sorted(package.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(package)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def scaled(result):
    """(raw, scaled) wall seconds of the iterations that ran to the end; a
    scaled time is the raw one over the probes around it, times the probes'
    nominal seconds."""
    pairs = [(w, w / r * result["nominal_s"]) for w, r in zip(result["walls"], result["refs"]) if math.isfinite(w)]
    return [p[0] for p in pairs], [p[1] for p in pairs]


def end_to_end(workload, setups, result):
    raw, walls = scaled(result)
    metrics = {
        "setup_s": (statistics.median(s for s, _ in setups), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    details = result["details"]
    pct, value = tail(walls)
    extra = {"wall_n": len(walls), "wall_tail_pct": pct, "wall_tail_s": value,
             "raw_setup_s": statistics.median(r for _, r in setups), "raw_wall_s": statistics.median(raw),
             "failed_frac": result["failed"] / len(result["walls"])}
    if workload == "train":
        extra["epochs_per_s"] = details["epochs_per_iteration"] * len(raw) / sum(raw)
    elif workload == "mc_sweep":
        extra["sim_reads_per_s"] = details["reads_per_iteration"] * len(raw) / sum(raw)
    else:
        for name, times in details["cmd_s"].items():
            extra[f"cmd_{name.replace('-', '_')}_s"] = statistics.median(times)
    return metrics, extra


def per_layer(traced, untraced, floors):
    iterations = len(traced["walls"])
    trace = traced["trace"]
    metrics = {}
    for name, row in trace["spans"].items():
        metrics[f"{name}.calls"] = (row["calls"] / iterations, "count")
        metrics[f"{name}.total_s"] = (row["total_s"] / iterations, "s")
        metrics[f"{name}.self_s"] = (row["self_s"] / iterations, "s")
        if name in tracing.BYTE_SPANS:
            metrics[f"{name}.bytes"] = (row["bytes"] / iterations, "B")
    metrics["crossbar.rng_streams"] = (trace["rng_streams"] / iterations, "count")
    metrics["proc.import_s"] = (statistics.median(trace["import_s"] + [untraced["import_s"]]), "s")
    metrics["floor.python_s"] = (statistics.median(floors["pass"]), "s")
    metrics["floor.numpy_import_s"] = (statistics.median(floors[probes.FLOOR_CODE]), "s")
    overhead = statistics.median(scaled(traced)[1]) - statistics.median(scaled(untraced)[1])
    metrics["trace.overhead_s"] = (overhead, "s")
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "xbarlstm" / "cli.py").is_file():
        fail(f"no xbarlstm sources under {ROOT / 'src'}; run from a checkout of the repository")
    work = ROOT / ".bench_build" / "perfbench"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    # Compile the package's bytecode once, so no timed process pays for it.
    subprocess.run([sys.executable, "-c", "import xbarlstm.cli"], cwd=ROOT, env=ENV, check=True, timeout=60)

    def setup_samples():
        """(scaled, raw) set-up seconds of fresh processes, each scaled by the
        floor processes run just before and after it."""
        floors, samples = [probes.process_seconds(probes.FLOOR_CODE, ENV, ROOT)], []
        for _ in range(SETUP_REPEATS // 2):
            raw = run_worker(args.workload, args.seed, 0, False, setup_only=True)["setup_s"]
            floors.append(probes.process_seconds(probes.FLOOR_CODE, ENV, ROOT))
            samples.append((raw / statistics.median(floors[-2:]) * probes.FLOOR_NOMINAL_S, raw))
        return samples

    if args.trace:
        half = args.seconds / 2
        untraced = run_worker(args.workload, args.seed, half, False)
        traced = run_worker(args.workload, args.seed, half, True)
        floors = {code: [probes.process_seconds(code, ENV, ROOT) for _ in range(FLOOR_REPEATS)]
                  for code in ("pass", probes.FLOOR_CODE)}
        runs = (untraced, traced)
        metrics = per_layer(traced, untraced, floors)
        extra = {"traced_wall_s": statistics.median(scaled(traced)[1]),
                 "untraced_wall_s": statistics.median(scaled(untraced)[1])}
        details = traced["details"]
    else:
        before = setup_samples()
        result = run_worker(args.workload, args.seed, args.seconds, False)
        runs = (result,)
        setups = before + setup_samples()
        metrics, extra = end_to_end(args.workload, setups, result)
        details = result["details"]

    attempted = sum(len(r["walls"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r["problems"]]
    for name, (value, unit) in metrics.items():
        print(f"{name:<48} {value:>16.9g} {unit}")
    for problem in problems:
        print(f"check failed: {problem}")
    print(json.dumps({"workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
                      "environment": environment(), **extra, **details, "problems": problems}))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
