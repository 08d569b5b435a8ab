"""Tests of the benchmark's own logic: self time, unique ratios, the scaling
to the reference speed, the failure check, the tracer's rebinding, and the
metric names against BENCHMARK.json.

Run with: python3 -m pytest perfbench
"""
import json
import os
import subprocess
import sys

import pytest

import run
import tracer
from workloads import check_op

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def work(self, dt):
        self.now += dt


def test_self_time_on_nested_call_tree():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)
    leaf = tr.wrap("leaf", lambda: clock.work(5))

    def inner_body():
        clock.work(4)
        leaf()
    inner = tr.wrap("inner", inner_body)

    def outer_body():
        clock.work(1)
        inner()
        clock.work(2)
        inner()
        clock.work(3)
    tr.wrap("outer", outer_body)()

    assert tr.stats["leaf"] == [2, 10.0, 10.0]
    assert tr.stats["inner"] == [2, 18.0, 8.0]
    assert tr.stats["outer"] == [1, 24.0, 6.0]


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = tracer.Tracer(clock=clock)

    def body(n):
        clock.work(1)
        if n:
            rec(n - 1)
    rec = tr.wrap("rec", body)
    rec(2)
    assert tr.stats["rec"] == [3, 3.0, 3.0]


def test_calls_under_an_enclosing_span_are_counted():
    tr = tracer.Tracer()
    inner = tr.wrap("inner", lambda: None,
                    under={"outer": "inner_under_outer"})

    def outer_body():
        inner()
        inner()
    inner()
    tr.wrap("outer", outer_body)()
    assert tr.stats["inner"][0] == 3
    assert tr.counts["inner_under_outer"] == [2]


def test_unique_ratio_on_known_call_sequence():
    tr = tracer.Tracer()

    class Curve:
        def frame_row(self, i, t, order=6):
            return (i, t, order)
    Curve.frame_row = tr.wrap("curves.frame_row", Curve.frame_row,
                              distinct=True)
    a, b = Curve(), Curve()
    for curve, i, t in [(a, 1, 0.5), (a, 1, 0.5), (a, 2, 0.5), (b, 1, 0.5),
                        (a, 1, 0.25), (b, 1, 0.5)]:
        curve.frame_row(i, t)
    merged = run.merge_traces([("op", tr.summary())])
    metrics = run.layer_metrics(merged, overhead_s=0.0)
    assert metrics["curves.frame_row.calls"] == 6
    assert metrics["curves.frame_row.unique_ratio"] == pytest.approx(4 / 6)


def test_end_to_end_takes_median_op_and_setup_per_op():
    runs = [{"name": "a", "wall_s": 3.0, "setup_s": 0.5, "rss_mb": 40.0},
            {"name": "b", "wall_s": 1.0, "setup_s": 0.2, "rss_mb": 60.0},
            {"name": "a", "wall_s": 2.0, "setup_s": 0.7, "rss_mb": 41.0},
            {"name": "a", "wall_s": 4.0, "setup_s": 0.6, "rss_mb": 39.0},
            {"name": "b", "problems": ["exit code 1"]}]
    for r in runs:
        if "wall_s" in r:
            r.update(wall_raw_s=2 * r["wall_s"], setup_raw_s=2 * r["setup_s"])
    metrics = run.end_to_end_metrics([runs])
    assert metrics == {"wall_s": 4.0, "setup_s": pytest.approx(0.8),
                       "peak_rss_mb": 60.0, "raw_wall_s": 8.0,
                       "raw_setup_s": pytest.approx(1.6)}


def test_times_scale_to_the_reference_speed():
    # measured while the reference loop ran at half the reference speed
    assert run.at_reference_speed(3.0, 2 * run.REFERENCE_S) == 1.5
    assert run.at_reference_speed(3.0, run.REFERENCE_S) == 3.0


SCAN_OP = {"name": "s0_scan", "kind": "scan", "outputs": ["report.json"],
           "expect": [[0.0, 0.0, "CrossCap"]]}


def test_check_op_accepts_expected_verdict():
    outcome = {"rc": 0, "verdicts": [[1e-12, -1e-12, "CrossCap"],
                                     [1.0, 1.0, "Unclassified"]]}
    assert check_op(SCAN_OP, outcome) == []


def test_check_op_flags_wrong_tag():
    outcome = {"rc": 0, "verdicts": [[0.0, 0.0, "S1Plus"]]}
    assert check_op(SCAN_OP, outcome) == [
        "expected CrossCap at (0, 0), got S1Plus"]


def test_check_op_flags_missing_point():
    outcome = {"rc": 0, "verdicts": [[0.5, 0.0, "CrossCap"]]}
    assert check_op(SCAN_OP, outcome) == ["missing CrossCap at (0, 0)"]


def test_check_op_flags_exit_code_and_failed_check():
    op = {"name": "verify_recon", "kind": "suite", "outputs": [],
          "expect": []}
    stdout = "[PASS] a: 1.0e-12 (< 1.0e-08)\n[FAIL] b: 1.0e-03 (< 1.0e-06)\n"
    problems = check_op(op, {"rc": 1, "stdout": stdout})
    assert problems == ["exit code 1",
                        "check failed: [FAIL] b: 1.0e-03 (< 1.0e-06)"]


def test_check_op_flags_raised_error():
    op = {"name": "beaks", "kind": "classify", "outputs": [],
          "expect": [[None, None, "CuspidalBeaks"]]}
    problems = check_op(op, {"rc": None,
                             "error": "Traceback ...\nValueError: boom\n"})
    assert problems == ["raised: ValueError: boom", "exit code None",
                        "missing CuspidalBeaks at the instance point"]


def test_metric_names_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == dict(
        run.END_TO_END)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == (
        run.per_layer_units())
    merged = run.merge_traces([("op", tracer.Tracer().summary())])
    assert set(run.layer_metrics(merged, 0.0)) == set(run.per_layer_units())


def test_install_rebinds_imported_names():
    script = """
import tracer
from transurf import classify, cli, curves, framefield, jets, verify
originals = {
    "cli.classify": cli.classify,
    "cli.find_singular_points": cli.find_singular_points,
    "verify.classify": verify.classify,
    "verify.check_compatibility": verify.check_compatibility,
    "classify.construct_theta": classify.construct_theta,
}
suites = dict(verify.SUITES)
tracer.Tracer().install()
now = {name: eval(name) for name in originals}
for name, fn in now.items():
    assert fn is not originals[name] and fn.__wrapped__ is originals[name], name
for key, fn in verify.SUITES.items():
    assert fn.__wrapped__ is suites[key], key
assert jets.Jet.__rmul__ is jets.Jet.__mul__
assert (framefield.OdeFramedCurve.frame_row.__wrapped__
        is curves.FramedCurve.frame_row)
print("ok")
"""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [os.path.join(ROOT, "src"), os.path.dirname(tracer.__file__)])}
    proc = subprocess.run([sys.executable, "-c", script], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.stdout.strip() == "ok", proc.stderr


def test_traced_classify_op_records_its_classify_call(tmp_path):
    op = run.WORKLOADS["classify_points"](1)
    op = next(o for o in op if o["name"] == "cylinder")
    record = run.run_op(op, os.path.join(ROOT, "src"), str(tmp_path), True)
    assert record["problems"] == []
    stats = record["trace"]["stats"]
    assert stats["classify.classify"][0] == 1
    assert record["trace"]["results"]["classify.classify"] == ["CuspidalEdge"]
    parents = {span[0]: span[3] for span in record["trace"]["spans"]}
    assert parents["classify.classify"] == "op"
