"""Verification suites shared by the CLI ``verify`` command and the test
suite: jet-vs-finite-difference agreement, frame-matrix identities, the
relational-equation oracle, and the worked-example verdicts."""
from __future__ import annotations

import math
import random
from dataclasses import dataclass

import numpy as np

from . import curves, fd, instances, jets
from .classify import classify
from .framedsurf import construct_theta, lemma_oracle, unit_speed_oracle
from .framefield import (FrameField, check_compatibility, integrate_chains,
                         reconstruct_framed_curves)
from .jets import Jet
from .surface import TranslationSurface

PI = math.pi

CATALOG_PAIRS = {
    "s0": ("s0_a", "s0_b"),
    "s1p": ("s1p_a", "s1p_b"),
    "s1m": ("s1m_a", "s1m_b"),
}
SELF_PAIRS = {
    "sin_plus": ("sin_curve", +1),
    "sin_minus": ("sin_curve", -1),
    "self_s1p_plus": ("self_s1p", +1),
    "self_s1p_minus": ("self_s1p", -1),
}


@dataclass(frozen=True)
class Check:
    name: str
    value: float
    threshold: float

    @property
    def passed(self) -> bool:
        return abs(self.value) < self.threshold

    def line(self) -> str:
        mark = "PASS" if self.passed else "FAIL"
        return f"[{mark}] {self.name}: {self.value:.3e} (< {self.threshold:.1e})"


def surface_for(key: str) -> TranslationSurface:
    if key in CATALOG_PAIRS:
        a, b = CATALOG_PAIRS[key]
        return TranslationSurface.general(curves.catalog(a), curves.catalog(b))
    name, sign = SELF_PAIRS[key]
    return TranslationSurface.self_translation(curves.catalog(name), sign)


def all_pairs() -> list[str]:
    return list(CATALOG_PAIRS) + list(SELF_PAIRS)


def _grid(s: TranslationSurface, n: int) -> tuple[np.ndarray, np.ndarray]:
    """n parameters of each curve, 0.05 inside the ends of its domain."""
    return tuple(np.linspace(c.domain[0] + 0.05, c.domain[1] - 0.05, n)
                 for c in (s.curve_u, s.curve_v))


# ---------------------------------------------------------------------------

def suite_jets(probes: int = 200) -> list[Check]:
    """Jets of the elementary functions and the catalog curves against
    Richardson differences at random probes, drawn with the standard
    library's generator (no numpy.random); the probes of one function, or
    of one curve and their stencil points, are evaluated as one batch."""
    rng = random.Random(20240817)
    fns = [("sin", math.sin, jets.sin, -2.5, 2.5),
           ("cos", math.cos, jets.cos, -2.5, 2.5),
           ("exp", math.exp, jets.exp, -1.0, 1.0),
           ("tan", math.tan, jets.tan, -1.0, 1.0),
           ("atan", math.atan, jets.atan, -2.0, 2.0),
           ("sqrt", math.sqrt, jets.sqrt, 0.3, 3.0)]
    t0s = {name: [] for name, *_ in fns}
    for _ in range(probes // 2 // len(fns) + 1):
        for name, _f, _jf, lo, hi in fns:
            t0s[name].append(rng.uniform(lo, hi))
    out = []
    for name, f, jf, _lo, _hi in fns:
        d = jf(Jet.variable(np.array(t0s[name]), 6)).d.T.tolist()
        out.append(Check(f"jet_vs_fd_{name}", max(
            fd.normalized_error(dl[k], fd.richardson_derivative(f, t0, k))
            for t0, dl in zip(t0s[name], d) for k in range(1, 5)), 1e-5))

    cn = curves.catalog_names()
    by_curve = {}
    for _ in range(probes // 2):
        c = curves.catalog(cn[rng.randrange(len(cn))])
        lo, hi = c.domain
        by_curve.setdefault(c, []).append(rng.uniform(lo + 0.1, hi - 0.1))
    worst_c = 0.0
    for c, points in by_curve.items():
        g = [x.d.T.tolist() for x in c.batch_jets(np.array(points), 6).gamma]
        # every stencil point of the curve's probes, as one batch
        ts = sorted({s for t in points for k in range(1, 5)
                     for s in fd.richardson_points(t, k)})
        at = dict(zip(ts, zip(*(x.value.tolist() for x in
                                c.batch_jets(np.array(ts), 2).gamma))))
        for comp in range(3):
            def f(s, comp=comp):
                return at[s][comp]
            worst_c = max(worst_c, *(
                fd.normalized_error(g[comp][lane][k],
                                    fd.richardson_derivative(f, t, k))
                for lane, t in enumerate(points) for k in range(1, 5)))
    out.append(Check("jet_vs_fd_curve_components", worst_c, 1e-5))
    return out


def suite_frames(grid_n: int = 12) -> list[Check]:
    out = []
    for key in all_pairs():
        s = surface_for(key)
        T = s.field.value(*_grid(s, grid_n))
        worst_orth = float(np.max(np.abs(T.swapaxes(-1, -2) @ T - np.eye(3))))
        worst_det = float(np.max(np.abs(np.linalg.det(T) - 1.0)))
        out.append(Check(f"so3_orthogonality_{key}", worst_orth, 1e-9))
        out.append(Check(f"so3_determinant_{key}", worst_det, 1e-9))
    return out


def suite_compat(grid_n: int = 32) -> list[Check]:
    out = []
    for key in all_pairs():
        s = surface_for(key)
        rep = check_compatibility(s.field, *_grid(s, grid_n))
        for name, val in rep.rows():
            out.append(Check(f"{name}_{key}", val, 1e-8))
    return out


def suite_reconstruction(step: float = 1e-3) -> list[Check]:
    pairs = {}
    for key in ("s0", "s1m"):
        a, b = (curves.catalog(n) for n in CATALOG_PAIRS[key])
        ff = FrameField(a, b)
        pairs[key] = ff, reconstruct_framed_curves(
            a.batch_curvature, b.batch_curvature, ff.value(0.0, 0.0),
            (0.0, 0.0), (-0.9, 0.9), (-0.9, 0.9), step=step)
    # the eight chains, four curves on two sides of t0, as lanes of one sweep
    integrate_chains([(r, r.domain) for _, rs in pairs.values() for r in rs])
    g = np.linspace(-0.9, 0.9, 6)
    return [Check(f"reconstruction_roundtrip_{key}",
                  float(np.max(np.abs(FrameField(*rs).value(g, g)
                                      - ff.value(g, g)))), 1e-6)
            for key, (ff, rs) in pairs.items()]


def suite_lemma() -> list[Check]:
    out = []
    cases = [
        ("slide_edge", *instances.slide_pair("edge")),
        ("slide_nonfront", *instances.slide_pair("nonfront")),
        ("cylinder", *instances.cylinder_pair()),
    ]
    for name, s, p0 in cases:
        pj = s.at(p0)
        pt = construct_theta(pj)
        res = lemma_oracle(pj, pt)
        out.append(Check(f"relations_1_5_{name}",
                         max(abs(res[k]) for k in range(1, 6)), 1e-6))
        out.append(Check(f"relations_6_9_{name}",
                         max(abs(res[k]) for k in range(6, 10)), 1e-6))
        if s.curve_u.is_frenet and s.curve_v.is_frenet:
            res2 = unit_speed_oracle(pj, pt)
            out.append(Check(f"unit_speed_items_1_5_{name}",
                             max(abs(res2[k]) for k in range(1, 6)), 1e-6))
    return out


def suite_examples() -> list[Check]:
    """The worked-example verdicts, encoded as 0 (pass) / 1 (fail)."""
    out = []

    def verdict_check(name, surf, p, want):
        rep = classify(surf, p)
        out.append(Check(f"{name}_is_{want}", 0.0 if rep.tag == want else 1.0, 0.5))
        return rep

    s0 = surface_for("s0")
    rep = verdict_check("parabola_pair_origin", s0, (0.0, 0.0), "CrossCap")
    out.append(Check("parabola_pair_value_plus_one",
                     rep.gfs.value("cross_cap_value") + 1.0, 1e-8))

    s1p = surface_for("s1p")
    rep = verdict_check("cubic_pair_origin", s1p, (0.0, 0.0), "S1Plus")
    out.append(Check("cubic_pair_det_hess_plus_four",
                     rep.s1.value("det_hess_phi") + 4.0, 1e-6))

    s1m = surface_for("s1m")
    rep = verdict_check("helix_pair_origin", s1m, (0.0, 0.0), "S1Minus")
    out.append(Check("helix_pair_discriminant_minus_one",
                     rep.s1.value("frenet_s1_discriminant") - 1.0, 1e-6))

    for key in ("sin_plus", "sin_minus"):
        s = surface_for(key)
        for p in [(0.0, PI), (PI, 0.0)]:
            verdict_check(f"{key}_{p[0]:.2f}_{p[1]:.2f}", s, p, "CrossCap")

    sp = surface_for("self_s1p_plus")
    rep = verdict_check("self_regular_curve", sp, (0.0, PI), "S1Plus")
    out.append(Check("self_discriminant_plus_sixteen",
                     rep.s1.value("frenet_s1_discriminant") + 16.0, 1e-4))
    sm = surface_for("self_s1p_minus")
    rep_m = classify(sm, (0.0, PI))
    out.append(Check("self_minus_not_s1plus",
                     0.0 if rep_m.tag != "S1Plus" else 1.0, 0.5))
    out.append(Check("self_minus_witness_vanishes",
                     rep_m.s1.value("independence_vector_1"), 1e-8))
    return out


SUITES = {
    "jets": suite_jets,
    "frames": suite_frames,
    "compat": suite_compat,
    "recon": suite_reconstruction,
    "lemma": suite_lemma,
    "examples": suite_examples,
}


def run_suites(names) -> tuple[list[Check], bool]:
    checks = []
    for name in names:
        checks.extend(SUITES[name]())
    return checks, all(c.passed for c in checks)
