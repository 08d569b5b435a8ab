"""The benchmark's workloads, the verdicts they must produce, and the check
that decides whether an op failed.

An op is one run of the engine in a fresh interpreter: a CLI command
(``scan``, ``mesh``), one ``verify`` suite, or one ``classify`` call on a
constructed instance. Each op names the constructions its set-up performs, so that
interpreter start, imports and construction are timed apart from the work.

Why these workloads (shares of the traced op time at these grids, seed 1):

* ``scan_general``: ``find_singular_points`` takes 94% of the op time, most
  of it the Newton refinement (78%; the residual landscape grows with the
  square of the grid and is about 7% here); classification is 3% (one
  isolated point per pair) and the theta extension is never called. The
  Frenet pair ``s1m`` is the heaviest op. The mesh op reads the same curve
  samples many times, so the cost of the per-curve caches shows there.
* ``classify_points``: ``classify`` takes 83% (the theta field 21%, ray-jet
  products 38%) and ``find_singular_points`` 16%; every definite
  framed-route verdict with a known answer, plus the diagonal
  ``Unclassified`` samples of the sin-pair scans (18 at g16, 26 at g24).
* ``verify_suites``: the frame-field, curve and jet layers used as ODE
  sampling (``recon``, 41%) and as whole grids (``compat``, 24%, most of it
  ``BiJet`` products and construction).

Grids are sized so that a run of about 40 s repeats every op several times.
"""
from __future__ import annotations

import hashlib
import math
import random

PI = math.pi
POINT_TOL = 1e-6     # distance within which a reported point is the expected one

_SIN_WINDOW = (-PI, PI, -PI, PI)   # one period: a wider window adds images
_SIN_CROSS_CAPS = [(-PI / 2, PI / 2, "CrossCap"), (PI / 2, -PI / 2, "CrossCap")]

# (op name, instance builder, its arguments, expected verdict or None)
INSTANCES = [
    ("cylinder", "cylinder_pair", [], "CuspidalEdge"),
    ("slide_edge", "slide_pair", ["edge"], "CuspidalEdge"),
    ("slide_swallowtail", "slide_pair", ["swallowtail"], "Swallowtail"),
    ("slide_nonfront", "slide_pair", ["nonfront"], "CuspidalCrossCap"),
    ("beaks", "singular_speed_pair", [False], "CuspidalBeaks"),
    ("beaks_mirror", "singular_speed_pair", [True], "CuspidalBeaks"),
    ("rank_zero", "rank_zero_pair", [], "NeverD4"),
    ("planar", "planar_pair", [], None),
]

# per verify suite: the parameters it runs with, and the curves or instances
# it fetches, built during set-up. ``compat`` and ``recon`` run on a coarser
# grid and step than their defaults (32 and 1e-3), so that a run holds
# several passes; every check still passes at its unchanged threshold.
SUITES = {
    "jets": ({}, [["catalog_all"]]),
    "frames": ({}, [["catalog_all"]]),
    "compat": ({"grid_n": 6}, [["catalog_all"]]),
    "recon": ({"step": 1.6e-2},
              [["catalog", n] for n in ("s0_a", "s0_b", "s1m_a", "s1m_b")]),
    "lemma": ({}, [["instance", "slide_pair", ["edge"]],
                   ["instance", "slide_pair", ["nonfront"]],
                   ["instance", "cylinder_pair", []]]),
    "examples": ({}, [["catalog_all"]]),
}


def _widen(rng: random.Random, window, grid: int):
    """Move each edge of a window outward by a random sub-cell margin."""
    u0, u1, v0, v1 = window
    cu, cv = (u1 - u0) / (grid - 1), (v1 - v0) / (grid - 1)
    return (u0 - rng.uniform(0, cu), u1 + rng.uniform(0, cu),
            v0 - rng.uniform(0, cv), v1 + rng.uniform(0, cv))


def _surface_op(name, command, grid, window, curve_a, curve_b=None,
                self_kind=None, expect=()):
    config = {"curve_a": curve_a, "curve_b": curve_b, "self_kind": self_kind,
              "window": list(window), "grid_n": grid}
    argv = [command, "--curve-a", curve_a]
    argv += ["--curve-b", curve_b] if curve_b else ["--self", self_kind]
    argv += ["--window=" + ",".join(repr(x) for x in window),
             "--grid", str(grid)]
    if command == "scan":
        argv += ["--report", "{out}/report.json"]
        outputs = ["report.json"]
    else:
        argv += ["--out", "{out}/surface.obj", "--locus", "{out}/locus.csv"]
        outputs = ["surface.obj", "locus.csv"]
    return {"name": name, "kind": command, "argv": argv,
            "build": [["run_config", config]], "outputs": outputs,
            "expect": [list(e) for e in expect]}


def scan_general(seed: int) -> list[dict]:
    rng = random.Random(seed)
    a = round(rng.uniform(0.5, 2.0), 6)
    b = round(rng.uniform(0.5, 2.0), 6)
    return [
        _surface_op("s0_scan", "scan", 96, _widen(rng, (-2, 2, -2, 2), 96),
                    "@s0_a", "@s0_b", expect=[(0.0, 0.0, "CrossCap")]),
        _surface_op("s1p_scan", "scan", 64, _widen(rng, (-2, 2, -2, 2), 64),
                    "@s1p_a", "@s1p_b", expect=[(0.0, 0.0, "S1Plus")]),
        _surface_op("s1m_scan", "scan", 40,
                    _widen(rng, (-1.5, 1.5, -1.5, 1.5), 40),
                    "@s1m_a", "@s1m_b", expect=[(0.0, 0.0, "S1Minus")]),
        _surface_op("expr_scan", "scan", 64, _widen(rng, (-2, 2, -2, 2), 64),
                    f"(u, {a!r}*u^2, 0)", f"(v, 0, {b!r}*v^2)",
                    expect=[(0.0, 0.0, "CrossCap")]),
        _surface_op("s1p_mesh", "mesh", 65, _widen(rng, (-1, 1, -1, 1), 65),
                    "@s1p_a", "@s1p_b"),
    ]


def classify_points(seed: int) -> list[dict]:
    ops = [{"name": name, "kind": "classify",
            "build": [["instance", fn, args]], "outputs": [],
            "expect": [] if tag is None else [[None, None, tag]]}
           for name, fn, args, tag in INSTANCES]
    ops += [_surface_op("sin_plus_scan", "scan", 16, _SIN_WINDOW,
                        "@sin_curve", self_kind="plus",
                        expect=_SIN_CROSS_CAPS),
            _surface_op("sin_minus_scan", "scan", 24, _SIN_WINDOW,
                        "@sin_curve", self_kind="minus",
                        expect=_SIN_CROSS_CAPS)]
    random.Random(seed).shuffle(ops)
    return ops


def verify_suites(seed: int) -> list[dict]:
    ops = [{"name": f"verify_{suite}", "kind": "suite", "suite": suite,
            "params": params, "build": build, "outputs": [], "expect": []}
           for suite, (params, build) in SUITES.items()]
    random.Random(seed).shuffle(ops)
    return ops


WORKLOADS = {
    "scan_general": scan_general,
    "classify_points": classify_points,
    "verify_suites": verify_suites,
}


def check_op(op: dict, outcome: dict) -> list[str]:
    """Reasons the op failed; empty when it succeeded.

    ``outcome`` holds ``rc`` and ``error`` (the exit code and a traceback of
    the op process), ``stdout`` (what the command printed), ``verdicts``
    (``[u, v, tag]`` rows the op reported) and, for a mesh, ``mesh`` (the
    vertex and face counts of the OBJ file).
    """
    problems = []
    if outcome.get("error"):
        problems.append("raised: " + outcome["error"].strip().splitlines()[-1])
    if outcome.get("rc") != 0:
        problems.append(f"exit code {outcome.get('rc')}")
    if op["kind"] == "suite":
        lines = (outcome.get("stdout") or "").splitlines()
        problems += [f"check failed: {ln}" for ln in lines
                     if ln.startswith("[FAIL]")]
        if not any(ln.startswith("[PASS]") for ln in lines):
            problems.append("no check passed")
    if op["kind"] == "mesh":
        n = int(op["build"][0][1]["grid_n"])
        want = (n * n, 2 * (n - 1) * (n - 1))
        if tuple(outcome.get("mesh") or ()) != want:
            problems.append(f"mesh has {outcome.get('mesh')} vertices/faces, "
                            f"expected {want}")
    verdicts = outcome.get("verdicts") or []
    for u, v, tag in op["expect"]:
        near = [row for row in verdicts
                if u is None or math.hypot(row[0] - u, row[1] - v) < POINT_TOL]
        where = "at the instance point" if u is None else f"at ({u:.6g}, {v:.6g})"
        if not near:
            problems.append(f"missing {tag} {where}")
        elif not any(row[2] == tag for row in near):
            got = ", ".join(sorted({row[2] for row in near}))
            problems.append(f"expected {tag} {where}, got {got}")
    return problems


def verdict_digest(verdicts) -> str:
    """Hash of the sorted (u, v to 9 significant digits, tag) rows."""
    rows = sorted((float(f"{u:.9g}"), float(f"{v:.9g}"), tag)
                  for u, v, tag in verdicts)
    text = "\n".join(f"{u:.9g},{v:.9g},{tag}" for u, v, tag in rows)
    return hashlib.sha256(text.encode()).hexdigest()[:16]
