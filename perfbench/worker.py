"""Run one workload in this process and print its record as one JSON line.

Started by run.py in a fresh interpreter with BLAS/OpenMP threads set to 1.
Steps: import the package from ``<root>/src``, set up several times (a fresh
interpreter importing the package, the inputs and one warm-up operation),
run timed passes for the given number of
seconds, then check the outputs.  With ``--trace 1`` untraced and traced
passes alternate; the per-layer numbers come from the traced pass of median
wall time, and the tracing overhead is the median traced pass less the median
untraced one.

A fixed reference kernel is timed on either side of every operation.  The
end-to-end times and the tracing overhead are reported at a nominal speed of
that kernel, so that the drift in core speed of a shared host cancels out of
them.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

import numpy as np

SETUP_REPEATS = 3


def import_in_fresh_interpreter(src: str, modules: tuple[str, ...]):
    """What every CLI call pays before it starts: interpreter start and imports."""
    code = f"import sys; sys.path.insert(0, {src!r}); " + "; ".join(f"import {m}" for m in modules)
    subprocess.run([sys.executable, "-c", code], check=True, timeout=60)


def _median_pass(passes: list[dict]) -> dict:
    """The pass of median wall time (the lower middle one for an even count)."""
    ranked = sorted(passes, key=lambda p: p["wall_s"])
    return ranked[(len(ranked) - 1) // 2]


_REF_ARRAY = np.linspace(0.0, 1.0, 1000)
# nominal CPU time of one reference-kernel run, about its fastest on a
# 2-vCPU Xeon VM with Python 3.11 and numpy 2.4; it only sets the scale
REF_KERNEL_S = 0.01


def reference_s() -> float:
    """CPU time of a fixed reference kernel: an interpreted loop and numpy
    calls on small arrays, the two kinds of work the package does most.

    Timed next to every operation, it shows how fast the host lets this core
    run at that moment; the same benchmark code runs on every commit, so the
    kernel's cost does not depend on the package.
    """
    c0 = time.process_time()
    acc = 0
    for i in range(100_000):
        acc += i * i
    for _ in range(400):
        np.sqrt(_REF_ARRAY * _REF_ARRAY + 1.0).sum()
    return time.process_time() - c0


def run_op(op, p: int, log: list) -> tuple[bool, object]:
    """Run one operation, with the reference kernel timed just before and
    just after it; any exception or failure exit counts as failed."""
    from shrinkci import worstcase as wc

    # every CLI call is a fresh process in real use, so the package's
    # process-global critical-value cache starts empty for each operation
    memo = getattr(wc, "_cva_memo", None)
    if isinstance(memo, dict):
        memo.clear()
    ref_before = reference_s()
    t0, c0 = time.perf_counter(), time.process_time()
    try:
        out = op.run(p)
        ok = True
    except Exception:  # the operation failed; count it and keep measuring
        out, ok = None, False
        traceback.print_exc(file=sys.stderr)
    latency, cpu = time.perf_counter() - t0, time.process_time() - c0
    ref = 0.5 * (ref_before + reference_s())
    log.append({"op": op.name, "pass": p, "ok": ok, "latency_s": latency, "cpu_s": cpu, "ref_s": ref})
    return ok, out


def run_passes(ops, seconds: float, tracer=None) -> tuple[list[dict], list[dict], dict]:
    """Closed-loop passes over ``ops`` until ``seconds`` have been measured.

    A pass is never cut short; passes stop when the next one would most
    likely end past the deadline.  With a tracer, odd passes are traced.
    """
    passes, log, outputs = [], [], {}
    start = time.perf_counter()
    min_passes = 1 if tracer is None else 2
    while True:
        p = len(passes)
        traced = tracer is not None and p % 2 == 1
        if traced:
            tracer.reset()
            tracer.install()
        t0 = time.perf_counter()
        units = cva_units = 0
        for op in ops:
            ok, out = run_op(op, p, log)
            if ok:
                outputs.setdefault(op.name, []).append(out)
                units += op.units
                cva_units += op.cva_units
        wall = time.perf_counter() - t0
        record = {"pass": p, "traced": traced, "wall_s": wall, "units": units, "cva_units": cva_units}
        if traced:
            tracer.uninstall()
            record["layers"] = tracer.summary(wall)
            record["spans"] = [vars(s) for s in tracer.spans]
        passes.append(record)
        elapsed = time.perf_counter() - start
        if len(passes) >= min_passes and elapsed + 0.5 * wall >= seconds:
            return passes, log, outputs


def latency_metrics(workload, log: list[dict]) -> dict[str, float]:
    out = {}
    for metric, names in workload.latencies.items():
        samples = [r["latency_s"] for r in log if r["op"] in names and r["ok"]]
        if samples:
            out[metric] = statistics.median(samples)
    return out


def throughput(ops, passes: list[dict], log: list[dict], cost) -> float:
    """Units of one pass over the sum, across operations, of the median
    ``cost`` of each operation's untraced runs."""
    plain = {p["pass"] for p in passes if not p["traced"]}
    costs: dict[str, list[float]] = {}
    for r in log:
        if r["ok"] and r["pass"] in plain:
            costs.setdefault(r["op"], []).append(cost(r))
    done = [op for op in ops if op.name in costs]
    if not done:
        return 0.0
    return sum(op.units for op in done) / sum(statistics.median(costs[op.name]) for op in done)


def norm_units_per_s(ops, passes: list[dict], log: list[dict]) -> float:
    """Units per second of a core that runs the reference kernel in
    REF_KERNEL_S.

    Each run of an operation costs its CPU time in reference-kernel runs
    (the kernel timed on either side of it).  On a shared host the speed of a
    core drifts by tens of percent over seconds and minutes with what other
    tenants run; the ratio cancels most of that drift, while a change to the
    package moves the operation and not the kernel.
    """
    return throughput(ops, passes, log, lambda r: r["cpu_s"] / r["ref_s"]) / REF_KERNEL_S


def end_to_end(setup_s: float, norm_rate: float) -> dict[str, float]:
    return {
        "setup_s": setup_s,
        "norm_units_per_s": norm_rate,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _pass_cost_s(log: list[dict], p: int) -> float:
    """CPU time of the operations of pass ``p`` at the reference speed."""
    return REF_KERNEL_S * sum(r["cpu_s"] / r["ref_s"] for r in log if r["pass"] == p)


def per_layer(passes: list[dict], log: list[dict], tracer) -> dict[str, float]:
    """Self times and counts of the traced pass of median wall time; a count
    that no wrapper bumped is absent here and reported as 0.  The tracing
    overhead compares the passes at the reference speed, as the end-to-end
    throughput does, since their wall times drift with the host."""
    traced = [p for p in passes if p["traced"]]
    plain = [p for p in passes if not p["traced"]]
    chosen = _median_pass(traced)
    out = dict(chosen["layers"])
    calibrations = out.pop("momentlp.calibrations", 0)
    cva_units = chosen["cva_units"]
    out["worstcase.keys_per_unit"] = out.get("worstcase.cva_keys", 0) / cva_units if cva_units else 0.0
    out["momentlp.lp_solves_per_calibration"] = (
        out.get("momentlp.lp_solves", 0) / calibrations if calibrations else 0.0
    )
    out["bench.units"] = chosen["units"]
    out["trace.wall_s"] = chosen["wall_s"]
    out["trace.overhead_s"] = (
        statistics.median(_pass_cost_s(log, p["pass"]) for p in traced)
        - statistics.median(_pass_cost_s(log, p["pass"]) for p in plain)
    )
    out["trace.wrappers_absent"] = len(tracer.absent)
    out["trace.hook_errors"] = sum(tracer.hook_errors.values())
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True, help="checkout whose src/ holds the package")
    ap.add_argument("--out-dir", required=True, help="scratch space inside the checkout")
    args = ap.parse_args(argv)

    src = os.path.join(os.path.abspath(args.root), "src")
    sys.path.insert(0, src)
    import scipy
    import shrinkci

    if not os.path.abspath(shrinkci.__file__).startswith(src + os.sep):
        print(f"perfbench: imported shrinkci from {shrinkci.__file__}, not {src}", file=sys.stderr)
        return 2
    import layers
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    os.makedirs(args.out_dir, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=args.out_dir)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        log: list[dict] = []
        setups = []
        for i in range(SETUP_REPEATS):
            ref_before = reference_s()
            t0 = time.perf_counter()
            import_in_fresh_interpreter(src, wl.imports)
            wl.generate()
            prepare_s = time.perf_counter() - t0
            run_op(wl.warmup(), -1 - i, log)
            warm = log[-1]
            # wall time at the reference speed, like the throughput
            ref = (ref_before + 2.0 * warm["ref_s"]) / 3.0
            setups.append((prepare_s + warm["latency_s"]) * REF_KERNEL_S / ref)
        setup_s = statistics.median(setups)

        tracer = layers.Tracer() if args.trace else None
        ops = wl.ops()
        passes, timed_log, outputs = run_passes(ops, args.seconds, tracer)
        log += timed_log

        try:
            checks = wl.check(outputs)
        except Exception:  # a check that crashes is a failed check
            traceback.print_exc(file=sys.stderr)
            checks = [workloads.Check("checks ran to completion", False)]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = len(log) + len(checks)
    failed = sum(not r["ok"] for r in log) + sum(not c.ok for c in checks)
    record = {
        "env": {"python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__},
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "passes": len(passes),
        "pass_s": [p["wall_s"] for p in passes],
        "units_per_pass": passes[0]["units"],
        "end_to_end": end_to_end(setup_s, norm_units_per_s(ops, passes, timed_log)),
        "latencies": latency_metrics(wl, log),
        # as the wall clock read it, host drift and all; printed, not bounded
        "units_per_s": throughput(ops, passes, timed_log, lambda r: r["latency_s"]),
        "checks": [vars(c) for c in checks],
        "ops": log,
    }
    if tracer is not None:
        record["per_layer"] = per_layer(passes, timed_log, tracer)
        record["per_layer"]["bench.error_rate"] = record["error_rate"]
        record["wrappers_absent"] = tracer.absent
        record["spans"] = {p["pass"]: p["spans"] for p in passes if p["traced"]}
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
