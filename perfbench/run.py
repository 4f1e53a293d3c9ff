"""Benchmark of shrinkci, end to end and per layer.

    python3 perfbench/run.py --workload fit_pmt --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; the package is imported from its ``src/``.
Each run runs one workload in a fresh single-threaded interpreter
(worker.py), prints one line per metric and per failed check, and ends with
one JSON line: ``{"correct", "attempted", "failed", "metrics"}``.  With
``--trace 0`` the metrics are the end-to-end ones, measured untraced; with
``--trace 1`` they are the per-layer ones from a traced run.  The full record
(ops, checks, environment, spans) is written to ``perfbench/out/``.

Exit codes: 0 result printed, 2 bad arguments or no package to measure,
3 the worker failed or ran out of time.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(HERE, "out")
WORKER_TIMEOUT_S = 170

WORKLOADS = ("fit_pmt", "study", "calibrate")

THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)

END_TO_END = {
    "setup_s": "s",
    "norm_units_per_s": "1/s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "cli.self_s": "s",
    "cli.bytes_read": "bytes",
    "cli.bytes_written": "bytes",
    "pipeline.self_s": "s",
    "pipeline.units": "count",
    "pipeline.error_rows": "count",
    "moments.self_s": "s",
    "moments.calls": "count",
    "worstcase.self_s": "s",
    "worstcase.kernel_evals": "count",
    "worstcase.cva_keys": "count",
    "worstcase.keys_per_unit": "ratio",
    "momentlp.self_s": "s",
    "momentlp.lp_solves": "count",
    "momentlp.lp_solves_per_calibration": "ratio",
    "momentlp.lp_failures": "count",
    "nonlinear.self_s": "s",
    "nonlinear.reward_points": "count",
    "simulation.self_s": "s",
    "simulation.reps": "count",
    "bench.self_s": "s",
    "bench.units": "count",
    "bench.error_rate": "ratio",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.wrappers_absent": "count",
    "trace.hook_errors": "count",
}


def _git_sha() -> str | None:
    """HEAD of the checkout, or None when the checkout is not a git repository."""
    try:
        res = subprocess.run(["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    lines = res.stdout.split()
    if res.returncode != 0 or len(lines) != 2 or os.path.realpath(lines[0]) != os.path.realpath(ROOT):
        return None
    return lines[1]


def _src_digest(pkg: str) -> str:
    """sha256 over the package sources, for checkouts that are not git repositories."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            h.update(name.encode())
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(fh.read())
    return h.hexdigest()


def _nproc() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="shrinkci benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds < 1:
        ap.error("--seconds must be at least 1")

    pkg = os.path.join(ROOT, "src", "shrinkci")
    if not os.path.isfile(os.path.join(pkg, "__init__.py")):
        print(f"perfbench: no package to measure at {pkg}", file=sys.stderr)
        return 2

    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["SHRINKCI_WORKERS"] = "1"
    env["PYTHONHASHSEED"] = "0"
    cmd = [
        sys.executable, os.path.join(HERE, "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--root", ROOT, "--out-dir", OUT_DIR,
    ]
    try:
        res = subprocess.run(cmd, env=env, stdout=subprocess.PIPE, text=True, timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: worker exceeded {WORKER_TIMEOUT_S} s", file=sys.stderr)
        return 3
    lines = res.stdout.strip().splitlines()
    if res.returncode != 0 or not lines:
        print(f"perfbench: worker exited with code {res.returncode}", file=sys.stderr)
        return 3
    record = json.loads(lines[-1])
    record["env"].update(
        git_sha=_git_sha(),
        src_sha256=_src_digest(pkg),
        nproc=_nproc(),
        threads={var: env[var] for var in THREAD_VARS},
    )
    os.makedirs(OUT_DIR, exist_ok=True)
    out_path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh)

    w = args.workload
    print(f"# env {json.dumps(record['env'], sort_keys=True)}")
    print(f"# {w}: {record['passes']} passes of {record['units_per_pass']} units; record in {os.path.relpath(out_path, ROOT)}")
    if args.trace:
        metrics = {k: (record["per_layer"].get(k, 0), u) for k, u in PER_LAYER.items()}
        for label in record["wrappers_absent"]:
            print(f"# {w}: wrapper absent: {label}")
    else:
        metrics = {k: (record["end_to_end"][k], u) for k, u in END_TO_END.items()}
        # median latency of each operation family the workload has
        for k, v in record["latencies"].items():
            print(f"{w} {k} {v:.6g} s")
        print(f"{w} units_per_s {record['units_per_s']:.6g} 1/s")
    for k, (v, u) in metrics.items():
        print(f"{w} {k} {v:.6g} {u}")
    print(f"{w} error_rate {record['error_rate']:.6g} ratio")
    for c in record["checks"]:
        if not c["ok"]:
            print(f"# {w}: CHECK FAILED: {c['name']} ({c['detail']})")
    result = {
        "correct": record["failed"] == 0,
        "attempted": record["attempted"],
        "failed": record["failed"],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
