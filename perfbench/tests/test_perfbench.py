"""Self-tests of the benchmark harness: python3 -m pytest perfbench/tests"""

import json
import os
import shutil
import subprocess
import sys
import types

import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
BENCH = os.path.dirname(HERE)
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import layers  # noqa: E402
import run  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def test_self_times_of_nested_spans():
    S = layers.Span
    spans = [
        S("main", "cli", 0.0, 10.0, -1),
        S("fit", "pipeline", 1.0, 9.0, 0),
        S("critical_values", "worstcase", 2.0, 5.0, 1),
        S("_worst_noncoverage_batch", "worstcase", 3.0, 4.5, 2),  # same-layer child
        S("estimate_moments", "moments", 6.0, 7.0, 1),
        S("main", "cli", 11.0, 12.0, -1),
    ]
    got = layers.self_times(spans)
    assert got == pytest.approx({"cli": 2.0 + 1.0, "pipeline": 4.0, "worstcase": 3.0, "moments": 1.0})
    # self times of all layers add up to the time the root spans cover
    assert sum(got.values()) == pytest.approx(10.0 + 1.0)


def test_tracer_records_parents_counts_and_absent_points(monkeypatch):
    pkg = types.ModuleType("fakepkg")
    mod = types.ModuleType("fakepkg.outer")
    inner = types.ModuleType("fakepkg.inner")
    inner.kernel = lambda t, chi: t
    inner.solve = lambda x: inner.kernel(x, 1.0)
    mod.entry = lambda x: inner.solve(x) + 1
    for name, m in (("fakepkg", pkg), ("fakepkg.outer", mod), ("fakepkg.inner", inner)):
        monkeypatch.setitem(sys.modules, name, m)
    P = layers.Point
    points = (
        P("outer", "entry"),
        P("inner", "solve"),
        P("inner", "gone"),  # removed by a refactor: reported, not fatal
        P("inner", "kernel", elements="inner.evals"),
    )
    tr = layers.Tracer("fakepkg", points)
    tr.install()
    assert mod.entry(5) == 6
    tr.uninstall()
    assert tr.absent == ["inner.gone"]
    assert [(s.layer, s.parent) for s in tr.spans] == [("outer", -1), ("inner", 0)]
    assert tr.counts["inner.evals"] == 1
    assert not hasattr(mod.entry, "__wrapped__")  # originals restored
    summary = tr.summary(wall_s=tr.spans[0].end - tr.spans[0].start + 0.5)
    assert summary["bench.self_s"] == pytest.approx(0.5)


def test_same_seed_gives_identical_inputs(tmp_path):
    def inputs(seed, sub):
        d = tmp_path / sub
        d.mkdir()
        workloads.FitPmt(seed, str(d)).generate()
        return {p.name: p.read_bytes() for p in sorted(d.iterdir())}

    first, again, other = inputs(3, "a"), inputs(3, "b"), inputs(4, "c")
    assert first and first == again
    assert all(first[k] != other[k] for k in first)

    cal = [workloads.Calibrate(3, str(tmp_path)) for _ in range(2)]
    for c in cal:
        c.generate()
    assert cal[0].ys.tobytes() == cal[1].ys.tobytes()
    assert repr(cal[0].soft + cal[0].poisson) == repr(cal[1].soft + cal[1].poisson)


class _Broken(workloads.Workload):
    name = "broken"

    def warmup(self):
        return workloads.Op("warmup", lambda p: p, 1)

    def ops(self):
        def fails(p):
            raise workloads.OpFailed("exit code 3")

        return [workloads.Op("good", lambda p: p, 1), workloads.Op("bad", fails, 1)]

    def check(self, outputs):
        return [workloads.Check("passes", True), workloads.Check("deliberately fails", False)]


def test_failed_checks_and_operations_count_in_error_rate(tmp_path, monkeypatch, capsys):
    monkeypatch.setitem(workloads.WORKLOADS, "broken", _Broken)
    rc = worker.main(["--workload", "broken", "--seed", "1", "--seconds", "0.05", "--trace", "0",
                      "--root", ROOT, "--out-dir", str(tmp_path)])
    assert rc == 0
    record = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    passes = record["passes"]
    attempted = worker.SETUP_REPEATS + 2 * passes + 2
    failed = passes + 1
    assert (record["attempted"], record["failed"]) == (attempted, failed)
    assert record["error_rate"] == pytest.approx(failed / attempted)
    assert record["end_to_end"]["norm_units_per_s"] > 0
    assert os.listdir(tmp_path) == []  # the scratch directory is removed


def test_norm_units_per_s_takes_per_op_medians_of_untraced_successful_runs():
    ops = [workloads.Op("a", None, 10), workloads.Op("b", None, 30)]
    passes = [{"pass": 0, "traced": False}, {"pass": 1, "traced": True}, {"pass": 2, "traced": False},
              {"pass": 3, "traced": False}]
    ref = worker.REF_KERNEL_S

    def run_(op, p, kernels, ok=True):
        # an operation that took ``kernels`` reference-kernel runs of CPU time
        # while the host ran at half speed
        return {"op": op, "pass": p, "ok": ok, "cpu_s": 2 * kernels * ref, "ref_s": 2 * ref, "latency_s": 1.0}

    log = [run_("a", 0, 1.0), run_("a", 1, 50.0), run_("a", 2, 3.0), run_("a", 3, 2.0),
           run_("b", 0, 4.0), run_("b", 1, 50.0), run_("b", 2, 4.0, ok=False), run_("b", 3, 6.0)]
    # medians 2 (a) and 5 (b) kernel runs: 40 units per 7 kernel runs
    assert worker.norm_units_per_s(ops, passes, log) == pytest.approx(40 / (7 * ref))


def test_exits_nonzero_without_result_where_there_is_no_package(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__", "tests"))
    res = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "fit_pmt", "--seed", "1",
                          "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True, text=True,
                         timeout=60)
    assert res.returncode != 0
    assert res.stdout == ""


def test_benchmark_json_matches_the_harness():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert all(m["bound"] <= setup["bound"] for m in spec["end_to_end"])
