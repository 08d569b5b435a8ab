"""Acceptance suite: one test per acceptance criterion, at the stated
tolerances. Each test prints a PASS line on success (run with -s or -v to
see the roster).

Criterion 4, the sign of xi phi: the source states the single value -4
for xi phi, phi = det(xi x, eta x, eta eta x), at the four isolated singular
points of the closed-curve self pair. That value holds at (0, pi) and
(pi, 0); at (pi/2, 3pi/2) and (3pi/2, pi/2) the value is +4. The curve
satisfies gamma(u + pi/2) = S gamma(u) with S the rotation by pi/2 about the
z axis followed by the reflection z -> -z (det S = -1), and alpha is
invariant under the shift, so x(u + pi/2, v + pi/2) = S x(u, v) with eta and
xi unchanged, and phi changes sign under the shift (pi/2, pi/2), which maps
(0, pi) to (pi/2, 3pi/2) and (pi, 0) to (3pi/2, pi/2) modulo 2pi. Three
computations agree: the jet determinant, its closed-form expansion, and an
exact sympy computation from the closed forms of the curve
(test_c04b_exact_xi_phi_oracle). The cross-cap verdict (xi phi != 0) holds
at all four points.
"""
import math

import numpy as np
import pytest

from transurf import curves, instances
from transurf.classify import classify
from transurf.curves import catalog
from transurf.framedsurf import construct_theta, lemma_oracle, unit_speed_oracle
from transurf.framefield import (FrameField, check_compatibility,
                                 reconstruct_framed_curves)
from transurf.jets import Jet
from transurf.surface import (TranslationSurface, canonical_periodic_points,
                              find_singular_points)
from transurf.verify import (CATALOG_PAIRS, all_pairs, suite_jets,
                             surface_for)
from transurf.cli import main as cli_main

PI = math.pi


def _ok(name):
    print(f"PASS {name}")


# -- criterion 1: cross-cap example -------------------------------------------

def test_c01_cross_cap_example():
    s = surface_for("s0")
    pts = find_singular_points(s, (-2, 2, -2, 2), grid_n=32)
    assert len(pts) == 1
    assert pts[0].p == pytest.approx((0.0, 0.0), abs=1e-8)
    rep = classify(s, pts[0].p)
    assert rep.tag == "CrossCap"
    assert rep.gfs.value("cross_cap_value") == pytest.approx(-1.0, abs=1e-8)
    _ok("criterion 1: cross cap at the origin with value -1")


# -- criterion 2: S1+ example --------------------------------------------------

def test_c02_s1_plus_example():
    rep = classify(surface_for("s1p"), (0.0, 0.0))
    assert rep.tag == "S1Plus"
    assert rep.s1.value("det_hess_phi") == pytest.approx(-4.0, abs=1e-6)
    assert rep.s1.value("independence_vector_1") == pytest.approx(0.0, abs=1e-8)
    assert rep.s1.value("independence_vector_2") == pytest.approx(1.0, abs=1e-8)
    _ok("criterion 2: S1+ with Hessian determinant -4 and witness (0, 1)")


# -- criterion 3: S1- example --------------------------------------------------

def test_c03_s1_minus_example():
    s = surface_for("s1m")
    rep = classify(s, (0.0, 0.0))
    assert rep.tag == "S1Minus"
    assert s.field.partial_value(3, 3, 0.0, 0.0) == pytest.approx(1.0, abs=1e-8)
    assert rep.s1.value("frenet_t21") == pytest.approx(0.0, abs=1e-8)
    assert rep.s1.value("frenet_s1_discriminant") == pytest.approx(1.0, abs=1e-6)
    _ok("criterion 3: S1- with unit-speed criterion value 1")


# -- criterion 4: closed-curve self pair ---------------------------------------

SIN_POINTS = [(0.0, PI), (PI / 2, 3 * PI / 2), (PI, 0.0), (3 * PI / 2, PI / 2)]
# exact xi phi at each point of SIN_POINTS, with the same sign at (0, pi) and
# (pi, 0) and the opposite sign at the other two; see the module docstring
SIN_XI_PHI = dict(zip(SIN_POINTS, (-4, 4, -4, 4)))


@pytest.fixture(scope="module")
def sin_scan():
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    pts = find_singular_points(s, (-PI, PI, -PI, PI), grid_n=48)
    return s, pts, canonical_periodic_points(pts, 2 * PI)


def test_c04a_singular_set_diagonal_plus_four(sin_scan):
    _, pts, canon = sin_scan
    iso = sorted((q.u, q.v) for q in canon if q.isolated)
    assert len(iso) == 4
    for got, want in zip(iso, sorted(SIN_POINTS)):
        assert got == pytest.approx(want, abs=1e-7)
    diag = [q for q in canon if not q.isolated]
    assert len(diag) >= 30
    for q in diag:
        gap = abs(q.u - q.v)
        assert min(gap, 2 * PI - gap) < 1e-6
    _ok("criterion 4a: diagonal polyline plus four isolated points")


@pytest.mark.parametrize("p0", SIN_POINTS, ids=lambda p: f"{p[0]:.2f},{p[1]:.2f}")
def test_c04b_xi_phi_is_minus_four(p0):
    # phi = det(xi x, eta x, eta eta x) is odd under the shift (pi/2, pi/2):
    # gamma(u + pi/2) = S gamma(u) with det S = -1 and alpha, t33, eta, xi
    # invariant, so phi(p + (pi/2, pi/2)) = det S phi(p). The shift (pi, pi)
    # acts by the rotation diag(-1, -1, 1) and keeps phi. Hence xi phi is -4
    # at (0, pi) and (pi, 0) and +4 at (pi/2, 3pi/2) and (3pi/2, pi/2).
    s = TranslationSurface.self_translation(catalog("sin_curve"), +1)
    rep = classify(s, p0)
    assert rep.tag == "CrossCap"
    want = SIN_XI_PHI[p0]
    assert rep.gfs.value("xi_phi") == pytest.approx(want, abs=1e-6)
    _ok(f"criterion 4b: xi phi = {want:+d} at {p0}")


def test_c04b_exact_xi_phi_oracle():
    """xi phi of the sin_curve plus pair from sympy closed forms, independent
    of the jet engine: exact values at SIN_POINTS, agreement with the
    engine, and the sign flip of phi under the shift (pi/2, pi/2)."""
    sp = pytest.importorskip("sympy")
    u, v = sp.symbols("u v", real=True)

    def gamma(t):
        return sp.Matrix([sp.sin(t), -sp.cos(t), -sp.cos(2 * t) / 2])

    def alpha(t):
        return sp.sqrt(1 + sp.sin(2 * t) ** 2)

    def mu(t):
        return gamma(t).diff(t) / alpha(t)

    x = gamma(u) + gamma(v)
    t33 = mu(u).dot(mu(v))

    def eta(f):
        return -alpha(v) * f.diff(u) + alpha(u) * t33 * f.diff(v)

    etax = eta(x)
    phi = sp.Matrix.hstack(x.diff(u), etax, eta(etax)).det()
    xi_phi = phi.diff(u)

    s = TranslationSurface.self_translation(catalog("sin_curve"), +1)
    exact_points = [(0, sp.pi), (sp.pi / 2, 3 * sp.pi / 2), (sp.pi, 0),
                    (3 * sp.pi / 2, sp.pi / 2)]
    for p0, (pu, pv) in zip(SIN_POINTS, exact_points):
        exact = sp.simplify(xi_phi.subs({u: pu, v: pv}))
        assert exact == SIN_XI_PHI[p0], (p0, exact)
        engine = classify(s, p0).gfs.value("xi_phi")
        assert engine == pytest.approx(float(exact), abs=1e-6), p0

    q = {u: sp.Rational(3, 10), v: sp.Rational(7, 5)}
    q_shift = {u: q[u] + sp.pi / 2, v: q[v] + sp.pi / 2}
    phi_q = sp.N(phi.subs(q), 30)
    phi_shift = sp.N(phi.subs(q_shift), 30)
    assert abs(phi_q) > 0.1
    assert abs(phi_shift + phi_q) < 1e-25
    _ok("criterion 4b oracle: exact xi phi -4, +4, -4, +4; phi odd under "
        "the (pi/2, pi/2) shift")


def test_c04c_image_coincidence_counts():
    base = catalog("sin_curve")

    def images(sign):
        s = TranslationSurface.self_translation(base, sign)
        pts = [s.x_value(p) for p in SIN_POINTS]
        distinct = []
        for x in pts:
            if all(np.linalg.norm(x - y) > 1e-6 for y in distinct):
                distinct.append(x)
        return len(distinct)

    assert images(+1) == 2
    assert images(-1) == 4
    _ok("criterion 4c: image counts 2 (plus) and 4 (minus)")


def test_c04d_minus_diagonal_is_origin(sin_scan):
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    for u in np.linspace(-PI, PI, 33):
        assert np.linalg.norm(s.x_value((float(u), float(u)))) < 1e-10
    _ok("criterion 4d: minus pair collapses the diagonal to the origin")


# -- criterion 5: self pair of the regular curve -------------------------------

def test_c05_self_regular_curve():
    base = catalog("self_s1p")
    rep = classify(TranslationSurface.self_translation(base, +1), (0.0, PI))
    assert rep.tag == "S1Plus"
    assert rep.s1.value("independence_vector_1") == pytest.approx(
        2 * math.sqrt(2), abs=1e-6)
    assert rep.s1.value("frenet_s1_discriminant") == pytest.approx(
        -16.0, abs=1e-4)
    rep_m = classify(TranslationSurface.self_translation(base, -1), (0.0, PI))
    assert rep_m.tag != "S1Plus"
    assert rep_m.s1.value("independence_vector_1") == pytest.approx(0.0, abs=1e-8)
    _ok("criterion 5: S1+ for the plus pair, excluded for the minus pair")


# -- criterion 6: frame-matrix identities --------------------------------------

def test_c06_frame_matrix_identities():
    for key in all_pairs():
        s = surface_for(key)
        lo_u, hi_u = s.curve_u.domain
        lo_v, hi_v = s.curve_v.domain
        rep = check_compatibility(
            s.field, np.linspace(lo_u + 0.05, hi_u - 0.05, 32),
            np.linspace(lo_v + 0.05, hi_v - 0.05, 32))
        assert rep.so3_orth < 1e-9 and rep.so3_det < 1e-9, key
        assert rep.max_residual() < 1e-8, (key, rep.rows())
    _ok("criterion 6: rotation membership and differential identities < 1e-8")


# -- criterion 7: reconstruction -----------------------------------------------

def test_c07_reconstruction_roundtrip_and_order():
    for key in ("s0", "s1m"):
        a, b = (catalog(n) for n in CATALOG_PAIRS[key])
        ff = FrameField(a, b)
        ra, rb = reconstruct_framed_curves(
            a.batch_curvature, b.batch_curvature, ff.value(0.0, 0.0),
            (0.0, 0.0), (-0.9, 0.9), (-0.9, 0.9), step=1e-3)
        g = np.linspace(-0.9, 0.9, 5)
        worst = float(np.max(np.abs(FrameField(ra, rb).value(g, g)
                                    - ff.value(g, g))))
        assert worst < 1e-6, key

    # observed order under step halving, against the exact rotation flow
    w = 8.0
    F = np.array([[0.0, 0.6 * w, -w], [-0.6 * w, 0.0, 0.0], [w, 0.0, 0.0]])
    nrm = math.sqrt((0.6 * w) ** 2 + w * w)

    def exact(t):
        K = F / nrm
        th = nrm * t
        return np.eye(3) + math.sin(th) * K + (1 - math.cos(th)) * (K @ K)

    def curv(t, order):
        order = max(order, 2)
        z = Jet.constant(0.0, t, order)
        return curves.FramedCurvature(
            l=Jet.constant(0.6 * w, t, order), m=Jet.constant(-w, t, order),
            n=z, alpha=Jet.constant(1.0, t, order))

    def err(step):
        a, _ = reconstruct_framed_curves(curv, curv, np.eye(3), (0.0, 0.0),
                                         (0.0, 1.0), (0.0, 1.0), step=step)
        return max(float(np.max(np.abs(a.state_at(float(t))[0] - exact(float(t)))))
                   for t in np.linspace(0.0, 1.0, 9))

    errs = [err(h) for h in (2e-3, 1e-3, 5e-4)]
    orders = [math.log2(errs[i] / errs[i + 1]) for i in range(2)]
    assert min(orders) >= 3.5, (errs, orders)
    _ok("criterion 7: roundtrip < 1e-6 and observed order >= 3.5")


# -- criterion 8: jets vs finite differences -----------------------------------

def test_c08_jets_vs_richardson():
    checks = suite_jets(probes=200)
    for c in checks:
        assert c.passed, c.line()
    _ok("criterion 8: all jet/finite-difference agreements < 1e-5")


# -- criterion 9: relational equations at constructed points -------------------

def test_c09_relational_equations():
    for kind in ("edge", "nonfront"):
        s, p0 = instances.slide_pair(kind)
        pj = s.at(p0)
        theta = construct_theta(pj)
        lem = lemma_oracle(pj, theta)
        assert max(abs(lem[k]) for k in range(1, 6)) < 1e-6, kind
        uso = unit_speed_oracle(pj, theta)
        assert max(abs(uso[k]) for k in range(1, 6)) < 1e-6, kind
    _ok("criterion 9: relations (1)-(5) and unit-speed items (1)-(5) < 1e-6")


# -- criterion 10: diagonal exclusions -----------------------------------------

def test_c10_self_diagonal_exclusions():
    for name in ("sin_curve", "self_s1p"):
        base = catalog(name)
        for sign in (+1, -1):
            s = TranslationSurface.self_translation(base, sign)
            for u in (0.35, 1.2):
                rep = classify(s, (u, u))
                assert rep.tag not in ("CrossCap", "S1Plus", "S1Minus")
                assert abs(rep.gfs.value("cross_cap_value")) < 1e-8
                assert rep.s1 is not None
                assert abs(rep.s1.value("det_hess_phi")) < 1e-8
    _ok("criterion 10: diagonal points are never cross caps nor S1 points")


# -- criterion 11: route agreement ---------------------------------------------

def test_c11_route_agreement(slide_reports, cylinder_reports):
    reports = [r for (_, _, r) in cylinder_reports]
    reports += [r for (_, _, r) in slide_reports.values()]
    definite = 0
    for rep in reports:
        assert rep.generic is not None, "generic route must run"
        assert rep.framed.tag == rep.generic.tag, (
            rep.framed.tag, rep.generic.tag)
        if rep.framed.tag != "Unclassified":
            definite += 1
    assert definite >= 5
    _ok(f"criterion 11: {definite} instances with matching route verdicts")


# -- criterion 12: determinism --------------------------------------------------

def test_c12_determinism(tmp_path):
    args = ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
            "--window=-1.5,1.5,-1.5,1.5", "--grid", "24"]
    r1, r2 = tmp_path / "r1.json", tmp_path / "r2.json"
    assert cli_main(args + ["--report", str(r1)]) == 0
    assert cli_main(args + ["--report", str(r2)]) == 0
    assert r1.read_bytes() == r2.read_bytes()

    margs = ["mesh", "--curve-a", "@sin_curve", "--self", "plus",
             "--window=-3,3,-3,3", "--grid", "25"]
    o1, o2 = tmp_path / "m1.obj", tmp_path / "m2.obj"
    assert cli_main(margs + ["--out", str(o1)]) == 0
    assert cli_main(margs + ["--out", str(o2)]) == 0
    assert o1.read_bytes() == o2.read_bytes()
    _ok("criterion 12: byte-identical report and mesh on rerun")
