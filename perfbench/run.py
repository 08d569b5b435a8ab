"""Benchmark runner for transurf.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload scan_general --seed 1 --seconds 40 --trace 0

Every workload is a closed loop with one client: one op at a time, each op
in a fresh interpreter (``child.py``), as a CLI user's run is. The engine
keeps state across calls in one process (shared catalog curves, per-curve
evaluation caches, ``lru_cache`` instances), so a second op in the same
process would time warm caches. At most two processes run at once: this
runner and one op.

A run makes every op once, then repeats the ops round-robin while the next
one fits in ``--seconds``. Per op it takes the median of its times, each
expressed at a fixed host speed: the op process times a loop of fixed
pure-Python work that does not touch the engine (``child.reference_s``)
right after set-up and again after the op, and a time is scaled by
``REFERENCE_S`` over the loop's time (set-up by the loop timed just after
it, the op by the mean of the two). On a shared 2-vCPU VM the speed of
pure-Python code drifted by up to 1.6x over minutes, within a run and from
one run to the next, and the raw times followed it; over five runs the
IQR/median of the scaled ``wall_s`` was 0.06 and 0.09 on classify_points and
verify_suites, of the raw one 0.11 and 0.21. A change to the engine does not
move the reference loop, so it shows in the scaled times in full. The times
as measured are printed too (``raw_wall_s``, ``raw_setup_s`` in the ``info``
line).

``--trace 0`` reports the end-to-end metrics:

* ``wall_s``: the summed op time at the reference speed, set-up excluded
  (the time to all verdicts or checks);
* ``setup_s``: interpreter start, imports and construction of the curves and
  surfaces, summed over the ops, at the reference speed;
* ``peak_rss_mb``: the highest max-RSS of any op process.

``--trace 1`` alternates untraced and traced passes over the ops while the
next pair fits in ``--seconds`` (at least one pair). It reports the
per-layer metrics of the first traced pass (see ``tracer.py``) and the
tracing overhead: the ``wall_s`` of the traced passes minus that of the
untraced ones, each the per-op median. With one or two pairs in a run it is
a rough figure, for information. Each traced op must write files
byte-identical to its untraced run. The first traced pass's aggregates and
spans go to ``.perfbench-trace/<workload>.json``.

Every op is checked (``workloads.check_op``). The output is a table per op,
the metrics with their units (plus ``failed_share`` and, where ops report
verdicts, ``unclassified_share``), an ``info`` line (machine, shares,
``verdict_digest``) and, as the last line, the JSON result.
"""
from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time

from workloads import SUITES, WORKLOADS, check_op, verdict_digest

HERE = os.path.dirname(os.path.abspath(__file__))
CHILD = os.path.join(HERE, "child.py")
OP_TIMEOUT_S = 170
# a fixed hash seed keeps set iteration order, and so the work, the same
# from one op process to the next
CHILD_ENV = {**os.environ, "PYTHONHASHSEED": "0"}
TRACE_DIR = ".perfbench-trace"   # under the checkout: the traced run's spans
# the median time of the reference loop on the VM the benchmark was written
# on; a host that runs the loop this fast reads the scaled times as measured
REFERENCE_S = 0.009

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB")]

# span names by the per-layer metrics read from them
CALLS_SELF = ["jets.Jet.mul", "jets.BiJet.mul", "jets.BiJet.construct",
              "expr.evaluate", "framefield.partial_value",
              "framefield.t_bijet"]
CURVES = ["curves.frame_row", "curves.curvature", "curves.gamma_jets"]
CALLS_INCL_SELF = ["surface.find_singular_points", "framedsurf.ThetaField.at"]
CALLS_INCL = ["framedsurf.construct_theta", "classify.classify"]
INCLUSIVE = ["framefield.check_compatibility", "framefield.ode_frame_row",
             "surface.ab_dependence_scan", "framedsurf.lemma_oracle",
             "classify.classify_S0", "classify.classify_S1",
             "classify.classify_dependent_framed",
             "classify.classify_generic_frontal", "report.write_report",
             "cli.write_obj"] + [f"verify.suite_{s}" for s in SUITES]
COUNTERS = ["surface.newton.t_bijet_calls",
            "surface.landscape.partial_value_calls"]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric name and its unit, in report order."""
    units = {}
    for n in CALLS_SELF:
        units.update({f"{n}.calls": "count", f"{n}.self_s": "s"})
    for n in CURVES:
        units.update({f"{n}.calls": "count", f"{n}.self_s": "s",
                      f"{n}.unique_ratio": "ratio"})
    for n in CALLS_INCL_SELF:
        units.update({f"{n}.calls": "count", f"{n}.s": "s",
                      f"{n}.self_s": "s"})
    for n in CALLS_INCL:
        units.update({f"{n}.calls": "count", f"{n}.s": "s"})
    units.update({f"{n}.s": "s" for n in INCLUSIVE})
    units.update({n: "count" for n in COUNTERS})
    units.update({"surface.find_singular_points.points": "count",
                  "classify.classify.p50_ms": "ms",
                  "classify.classify.p90_ms": "ms",
                  "classify.definite_ratio": "ratio",
                  "trace.overhead_s": "s"})
    return units


# ---------------------------------------------------------------------------
# running ops
# ---------------------------------------------------------------------------

def _file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _outcome(op, result, out_dir):
    """What ``check_op`` needs: exit status, output and reported verdicts."""
    outcome = dict(result)
    if result.get("rc") != 0:
        return outcome
    if op["kind"] == "scan":
        with open(os.path.join(out_dir, "report.json")) as fh:
            doc = json.load(fh)
        outcome["verdicts"] = [[p["u"], p["v"], p["verdict"]["tag"]]
                               for p in doc["singular_points"]]
    elif op["kind"] == "mesh":
        with open(os.path.join(out_dir, "surface.obj")) as fh:
            heads = [line[:2] for line in fh]
        outcome["mesh"] = [heads.count("v "), heads.count("f ")]
    return outcome


def at_reference_speed(seconds, ref_s):
    """A time measured while the reference loop took ``ref_s``, scaled to a
    host on which it takes ``REFERENCE_S``."""
    return seconds * REFERENCE_S / ref_s


def run_op(op, src, work_dir, trace):
    """Run one op in a fresh interpreter; return its timings and checks."""
    out_dir = tempfile.mkdtemp(dir=work_dir)
    spec = dict(op, src=src, trace=trace,
                argv=[a.replace("{out}", out_dir) for a in op.get("argv", [])])
    spec_path = os.path.join(out_dir, "spec.json")
    result_path = os.path.join(out_dir, "result.json")
    with open(spec_path, "w") as fh:
        json.dump(spec, fh)
    t_spawn = time.perf_counter()
    try:
        proc = subprocess.run([sys.executable, CHILD, spec_path, result_path],
                              env=CHILD_ENV, capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        crash = proc.stderr if proc.returncode else None
    except subprocess.TimeoutExpired:
        crash = f"op exceeded {OP_TIMEOUT_S} s"
    if crash is not None or not os.path.exists(result_path):
        outcome = {"rc": None, "error": crash or "no result written"}
        return {"name": op["name"], "problems": check_op(op, outcome),
                "verdicts": [], "files": {}, "trace": None}
    with open(result_path) as fh:
        result = json.load(fh)
    outcome = _outcome(op, result, out_dir)
    ref_setup, ref_after = result["ref_s"]
    setup_s = result["t_built"] - t_spawn
    wall_s = result["t_done"] - result["t_op"]
    files = {}
    if result.get("rc") == 0:
        files = {name: _file_digest(os.path.join(out_dir, name))
                 for name in op["outputs"]}
    return {
        "name": op["name"],
        "setup_s": at_reference_speed(setup_s, ref_setup),
        "wall_s": at_reference_speed(wall_s, (ref_setup + ref_after) / 2),
        "setup_raw_s": setup_s,
        "wall_raw_s": wall_s,
        "rss_mb": result["maxrss_kb"] / 1024.0,
        "numpy": result["numpy"],
        "problems": check_op(op, outcome),
        "verdicts": outcome.get("verdicts") or [],
        "files": files,
        "trace": result["trace"],
    }


def run_pass(ops, src, work_dir, trace):
    return [run_op(op, src, work_dir, trace) for op in ops]


def run_traced(ops, src, work_dir, seconds):
    """Alternate an untraced and a traced pass while the next pair, at the
    longest a pair has taken so far, still fits in ``seconds``."""
    t0 = time.perf_counter()
    passes, longest = [], 0.0
    while not passes or time.perf_counter() - t0 + longest <= seconds:
        t_pair = time.perf_counter()
        passes += [run_pass(ops, src, work_dir, False),
                   run_pass(ops, src, work_dir, True)]
        longest = max(longest, time.perf_counter() - t_pair)
    return passes


def run_ops(ops, src, work_dir, seconds):
    """Run every op once, then keep running them round-robin while the next
    one, at the longest it has taken so far, still fits in ``seconds``."""
    t0 = time.perf_counter()
    records, longest = [], {}
    for i in itertools.count():
        op = ops[i % len(ops)]
        if i >= len(ops) and (time.perf_counter() - t0 + longest[op["name"]]
                              > seconds):
            return records
        t_op = time.perf_counter()
        records.append(run_op(op, src, work_dir, False))
        longest[op["name"]] = max(longest.get(op["name"], 0.0),
                                  time.perf_counter() - t_op)


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

def end_to_end_metrics(passes) -> dict[str, float]:
    """Summed over ops: the median op time and the median set-up time of
    each op, at the reference speed and as measured (``raw_``). Peak RSS is
    the largest of any op process."""
    by_op = {}
    for r in (r for p in passes for r in p if "wall_s" in r):
        by_op.setdefault(r["name"], []).append(r)

    def summed(key):
        return sum(statistics.median(r[key] for r in rs)
                   for rs in by_op.values())
    return {
        "wall_s": summed("wall_s"),
        "setup_s": summed("setup_s"),
        "peak_rss_mb": max((r["rss_mb"] for rs in by_op.values() for r in rs),
                           default=0.0),
        "raw_wall_s": summed("wall_raw_s"),
        "raw_setup_s": summed("setup_raw_s"),
    }


def percentile(values, q):
    """Nearest-rank percentile; 0 for no values."""
    if not values:
        return 0.0
    xs = sorted(values)
    return xs[max(0, math.ceil(q * len(xs)) - 1)]


def merge_traces(records):
    """Sum the trace aggregates of a pass's ``(op name, summary)`` pairs;
    each span becomes ``[op, name, start, end, parent]``."""
    merged = {"stats": {}, "distinct": {}, "counts": {}, "results": {},
              "spans": []}
    for op, s in records:
        for name, (calls, incl, self_s) in s["stats"].items():
            acc = merged["stats"].setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += incl
            acc[2] += self_s
        for key in ("distinct", "counts"):
            for name, n in s[key].items():
                merged[key][name] = merged[key].get(name, 0) + n
        for name, vals in s["results"].items():
            merged["results"].setdefault(name, []).extend(vals)
        merged["spans"].extend([op, *span] for span in s["spans"])
    return merged


def layer_metrics(merged, overhead_s) -> dict[str, float]:
    """The per-layer metrics of ``per_layer_units`` from merged aggregates."""
    stats, counts = merged["stats"], merged["counts"]

    def stat(n):
        """(calls, inclusive s, self s) of span ``n``."""
        return stats.get(n, (0, 0.0, 0.0))

    m = {}
    for n in CALLS_SELF:
        m[f"{n}.calls"], _, m[f"{n}.self_s"] = stat(n)
    for n in CURVES:
        m[f"{n}.calls"], _, m[f"{n}.self_s"] = stat(n)
        m[f"{n}.unique_ratio"] = (merged["distinct"].get(n, 0) / stat(n)[0]
                                  if stat(n)[0] else 0.0)
    for n in CALLS_INCL_SELF:
        m[f"{n}.calls"], m[f"{n}.s"], m[f"{n}.self_s"] = stat(n)
    for n in CALLS_INCL:
        m[f"{n}.calls"], m[f"{n}.s"], _ = stat(n)
    for n in INCLUSIVE:
        m[f"{n}.s"] = stat(n)[1]
    for n in COUNTERS:
        m[n] = counts.get(n, 0)
    durations = [1e3 * (t1 - t0) for _, name, t0, t1, _ in merged["spans"]
                 if name == "classify.classify"]
    tags = merged["results"].get("classify.classify", [])
    m.update({
        "surface.find_singular_points.points": sum(
            merged["results"].get("surface.find_singular_points", [])),
        "classify.classify.p50_ms": percentile(durations, 0.5),
        "classify.classify.p90_ms": percentile(durations, 0.9),
        "classify.definite_ratio": (
            sum(t != "Unclassified" for t in tags) / len(tags) if tags
            else 0.0),
        "trace.overhead_s": overhead_s,
    })
    return m


def src_line_count(src):
    pkg = os.path.join(src, "transurf")
    total = 0
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name)) as fh:
                total += sum(1 for _ in fh)
    return total


# ---------------------------------------------------------------------------

def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "transurf", "__init__.py")):
        print(f"error: no transurf sources under {src}; run from the root "
              "of a transurf checkout", file=sys.stderr)
        return 2

    ops = WORKLOADS[args.workload](args.seed)
    with tempfile.TemporaryDirectory(dir=root, prefix=".perfbench-") as work:
        # untimed: compile the sources to bytecode and warm the file cache
        warm = subprocess.run([sys.executable, "-c", "import transurf.cli"],
                              env={**os.environ, "PYTHONPATH": src},
                              capture_output=True, text=True,
                              timeout=OP_TIMEOUT_S)
        if warm.returncode:
            print(warm.stderr, file=sys.stderr)
            print("error: transurf does not import", file=sys.stderr)
            return 2
        if args.trace:
            passes = run_traced(ops, src, work, args.seconds)
        else:
            passes = [run_ops(ops, src, work, args.seconds)]

    if args.trace:
        plain, traced = passes[0::2], passes[1::2]
        for pa, pb in zip(plain, traced):
            for a, b in zip(pa, pb):
                for name, digest in a["files"].items():
                    if b["files"].get(name, digest) != digest:
                        b["problems"].append(f"traced {name} differs from "
                                             "the untraced one")
        overhead = (end_to_end_metrics(traced)["wall_s"]
                    - end_to_end_metrics(plain)["wall_s"])
        merged = merge_traces((r["name"], r["trace"]) for r in traced[0]
                              if r["trace"])
        metrics = layer_metrics(merged, overhead)
        os.makedirs(TRACE_DIR, exist_ok=True)
        with open(os.path.join(TRACE_DIR, f"{args.workload}.json"), "w") as fh:
            json.dump(merged, fh)
        units = per_layer_units()
        raw = {}
    else:
        metrics = end_to_end_metrics(passes)
        units = dict(END_TO_END)
        raw = {k: metrics[k] for k in ("raw_wall_s", "raw_setup_s")}

    records = [r for p in passes for r in p]
    failed = sum(bool(r["problems"]) for r in records)
    verdicts = [v for r in passes[0][:len(ops)] for v in r["verdicts"]]
    for r in records:
        timing = (f"setup {r['setup_raw_s']:7.3f} s  "
                  f"wall {r['wall_raw_s']:8.3f} s  "
                  f"(scaled {r['setup_s']:7.3f} s {r['wall_s']:8.3f} s)  "
                  f"rss {r['rss_mb']:6.1f} MB" if "wall_s" in r else "")
        status = "; ".join(r["problems"]) or "ok"
        print(f"{r['name']:18s} {timing}  {status}")
    shares = {
        "failed_share": failed / len(records),
        "unclassified_share": (
            sum(v[2] == "Unclassified" for v in verdicts) / len(verdicts)
            if verdicts else None),
    }
    for name, unit in units.items():
        print(f"{name:44s} {metrics[name]:14.6f} {unit}")
    for name, value in shares.items():
        shown = "n/a (no verdicts)" if value is None else f"{value:14.6f}"
        print(f"{name:44s} {shown} ratio")
    info = {
        "workload": args.workload, "seed": args.seed,
        "op_runs": len(records), "trace": args.trace,
        "machine": {
            "nproc": os.cpu_count(),
            "python": platform.python_version(),
            "numpy": next((r["numpy"] for r in records if "numpy" in r), None),
            "src_transurf_lines": src_line_count(src),
        },
        **shares,
        **raw,
        "verdict_digest": verdict_digest(verdicts) if verdicts else None,
    }
    print("info " + json.dumps(info))
    print(json.dumps({
        "correct": failed == 0, "attempted": len(records), "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
