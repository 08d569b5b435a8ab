import math
import sys

import numpy as np
import pytest

from transurf import curves, instances, surface
from transurf.classify import classify, classify_all
from transurf.curves import FramedCurve, catalog, vec_values
from transurf.jets import Jet
from transurf.surface import (TranslationSurface, ab_dependence_scan,
                              canonical_periodic_points, dependence_test,
                              export_singular_csv, find_singular_points,
                              gfs_invariants, residual_landscape)

PI = math.pi


def normal_decomposition_residual(s: TranslationSurface,
                                  p: tuple[float, float]) -> float:
    """| x_u x x_v - (A nu1 + B nu2) | at p; identically zero in theory."""
    pj = s.at(p, order=3)
    inv = gfs_invariants(pj, degree=2)
    dx = pj.dx_matrix()
    n1 = vec_values(pj.ju.row(1))
    n2 = vec_values(pj.ju.row(2))
    nu = np.cross(dx[:, 0], dx[:, 1])
    recon = inv.A.value * n1 + inv.B.value * n2
    return float(np.max(np.abs(nu - recon)))


def _line(d, n1, name="line"):
    d = np.asarray(d, float) / np.linalg.norm(d)
    n1 = np.asarray(n1, float)
    n1 -= d * (n1 @ d)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(d, n1)
    if np.cross(n1, n2) @ d < 0:
        n2 = -n2

    def gamma(t, order):
        u = Jet.variable(t, order)
        return tuple(float(c) * u for c in d)

    def frame(t, order):
        return tuple(tuple(Jet.constant(float(c), t, order) for c in vec)
                     for vec in (n1, n2))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name=name)


@pytest.fixture(scope="module")
def s0():
    return TranslationSurface.general(catalog("s0_a"), catalog("s0_b"))


def test_gfs_invariants_at_origin(s0):
    inv = gfs_invariants(s0.at((0.0, 0.0)))
    assert (inv.a2.value, inv.b2.value, inv.c2.value) == pytest.approx((0, 0, 1), abs=1e-14)
    assert inv.A.value == pytest.approx(0.0, abs=1e-14)
    assert inv.B.value == pytest.approx(0.0, abs=1e-14)
    assert (inv.a1.value, inv.b1.value) == (0.0, 0.0)
    assert inv.c1.value == pytest.approx(1.0, abs=1e-14)


def test_gfs_invariants_off_origin_cross_checked(s0):
    inv = gfs_invariants(s0.at((1.0, 0.0)))
    assert inv.A.value == pytest.approx(0.0, abs=1e-14)
    assert inv.B.value == pytest.approx(-1.0, rel=1e-12)
    # direct decomposition of x_u x x_v against A nu1 + B nu2
    assert normal_decomposition_residual(s0, (1.0, 0.0)) < 1e-12


def test_gfs_mirrored_frame(s0):
    p = (0.6, -0.8)
    inv = gfs_invariants(s0.at(p), frame="nu_of_B")
    assert inv.e1.value == 0.0 and inv.f1.value == 0.0 and inv.g1.value == 0.0
    cb = s0.curve_v.curvature(p[1], 2)
    assert inv.e2.value == pytest.approx(cb.l.value, abs=1e-14)
    # A, B from either frame vanish together (they span the same normal part)
    inv_a = gfs_invariants(s0.at(p))
    za = math.hypot(inv_a.A.value, inv_a.B.value)
    zb = math.hypot(inv.A.value, inv.B.value)
    assert za > 1e-3 and zb > 1e-3


def test_normal_decomposition_random_points():
    rng = np.random.default_rng(5)
    pairs = [("s0_a", "s0_b"), ("s1p_a", "s1p_b"), ("s1m_a", "s1m_b")]
    surfaces = [TranslationSurface.general(catalog(a), catalog(b))
                for a, b in pairs]
    surfaces += [TranslationSurface.self_translation(catalog("sin_curve"), sg)
                 for sg in (+1, -1)]
    for s in surfaces:
        for _ in range(100):
            p = tuple(rng.uniform(-1.5, 1.5, 2))
            assert normal_decomposition_residual(s, p) < 1e-9


def test_x_partials_split_variables(s0):
    p = (0.4, -0.7)
    xu = s0.at(p).x_partial_jets(1, 0)
    for c in xu:
        for i in range(4):
            for j in range(1, 4):
                if i + j <= 3:
                    assert c.part(i, j) == 0.0
    x = s0.at(p).x_partial_jets(0, 0)
    gu = s0.curve_u.gamma_jets(p[0], 4)
    gv = s0.curve_v.gamma_jets(p[1], 4)
    for c, a, b in zip(x, gu, gv):
        assert c.part(1, 0) == pytest.approx(a.deriv(1), rel=1e-14)
        assert c.part(0, 1) == pytest.approx(b.deriv(1), rel=1e-14)


def test_x_u_is_alpha_mu(s0):
    p = (0.9, 0.2)
    xu = s0.at(p).x_partial_jets(1, 0, degree=2)
    alpha = s0.curve_u.curvature(p[0], 2).alpha.value
    mu = curves.vec_values(s0.curve_u.frame_row(3, p[0], 2))
    assert np.allclose([c.value for c in xu], alpha * mu, atol=1e-12)


def test_dependence_examples(s0):
    s1m = TranslationSurface.general(catalog("s1m_a"), catalog("s1m_b"))
    d = dependence_test(s1m.at((0.0, 0.0)))
    assert d.dependent and d.t33 == pytest.approx(1.0, abs=1e-12)
    assert not dependence_test(s0.at((1.0, 1.0))).dependent
    sc = catalog("sin_curve")
    selfp = TranslationSurface.self_translation(sc, +1)
    d = dependence_test(selfp.at((0.7, 0.7)))
    assert d.dependent and d.t33 == pytest.approx(1.0, abs=1e-12)
    # the two dependence measures agree exactly in theory
    d2 = dependence_test(s0.at((0.9, -0.3)))
    assert d2.mu_cross_norm == pytest.approx(d2.t_pair_norm, rel=1e-12)


def test_scan_s0_finds_exactly_origin(s0):
    pts = find_singular_points(s0, (-2, 2, -2, 2), grid_n=32)
    assert len(pts) == 1
    q = pts[0]
    assert (q.u, q.v) == pytest.approx((0.0, 0.0), abs=1e-9)
    assert q.conditions == ("iii",)
    assert q.dependence == "dependent"
    assert q.corank == 1
    assert q.isolated


# the S1 scans of the output digests: (pair, window, grid, tag)
S1_SCANS = [("s1p", (-2, 2, -2, 2), 48, "S1Plus"),
            ("s1p", (-2, 2, -2, 2), 64, "S1Plus"),
            ("s1m", (-1.5, 1.5, -1.5, 1.5), 40, "S1Minus")]


def _s1_scan(name, window, grid):
    s = TranslationSurface.general(catalog(f"{name}_a"), catalog(f"{name}_b"))
    return s, find_singular_points(s, window, grid_n=grid)


@pytest.mark.parametrize("name, window, grid, tag", S1_SCANS)
def test_scan_locates_s1_points_to_full_precision(name, window, grid, tag):
    # the Jacobian of (t31, t32) has rank 1 at an S1 point; the augmented
    # step on (t31, t32, det J) converges quadratically, so the root lies
    # within 1e-11 of (0, 0) and the criterion that must vanish there within
    # 1e-12 of zero (the plain step's linear tail left s1m 2.5e-8 off,
    # cross_cap_value -2.2e-8)
    s, pts = _s1_scan(name, window, grid)
    assert [q.conditions for q in pts] == [("iii",)]
    q = pts[0]
    assert math.hypot(q.u, q.v) < 1e-11
    r = classify(s, q.p)
    assert r.tag == tag
    assert abs(r.gfs.value("cross_cap_value")) < 1e-12


def test_degenerate_root_converges_in_few_iterations(monkeypatch):
    iterations = []
    pair_jets = surface._pair_jets

    def spy_jets(s, p, order):
        if sys._getframe(1).f_code.co_name == "_newton_t3":
            iterations.append(len(p[0]))
        return pair_jets(s, p, order)

    monkeypatch.setattr(surface, "_pair_jets", spy_jets)
    _s1_scan(*S1_SCANS[2][:3])
    assert 0 < len(iterations) <= 16


def test_scan_skew_lines_empty():
    a = _line((1, 0, 0), (0, 1, 0))
    b = _line((0, 1, 0.4), (1, 0, 0), name="line2")
    s = TranslationSurface.general(a, b)
    assert find_singular_points(s, (-1.5, 1.5, -1.5, 1.5), grid_n=24) == []


def test_scan_sin_self_minus_diagonal_plus_four_points():
    sc = catalog("sin_curve")
    xm = TranslationSurface.self_translation(sc, -1)
    pts = find_singular_points(xm, (-PI, PI, -PI, PI), grid_n=48)
    canon = canonical_periodic_points(pts, 2 * PI)
    iso = sorted((q.u, q.v) for q in canon if q.isolated)
    expected = sorted([(0.0, PI), (PI / 2, 3 * PI / 2), (PI, 0.0),
                       (3 * PI / 2, PI / 2)])
    assert len(iso) == 4
    for got, want in zip(iso, expected):
        assert got == pytest.approx(want, abs=1e-7)
    diag = [q for q in canon if not q.isolated]
    assert len(diag) >= 30
    for q in diag:
        gap = abs(q.u - q.v)
        assert min(gap, 2 * PI - gap) < 1e-6


def test_scan_condition_i_curve():
    # first curve singular at u = 0: alpha(0) = 0
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u * u / 2, u * u * u / 3, Jet.constant(0.0, t, order))

    def frame(t, order):
        u = Jet.variable(t, order)
        s = (1 + u * u) ** 0.5
        return ((-u / s, 1 / s, Jet.constant(0.0, t, order)),
                (Jet.constant(0.0, t, order), Jet.constant(0.0, t, order),
                 Jet.constant(1.0, t, order)))

    cusp = FramedCurve(gamma, frame, (-1.5, 1.5), name="cusp")
    b = _line((0, 1, 1), (1, 0, 0))
    s = TranslationSurface.general(cusp, b)
    pts = find_singular_points(s, (-1.2, 1.2, -1.2, 1.2), grid_n=32)
    assert pts, "expected a singular line u = 0"
    assert all(abs(q.u) < 1e-8 and "i" in q.conditions for q in pts)
    assert any(not q.isolated for q in pts)


def test_scan_is_complete_and_consistent():
    # every reported point satisfies its labels; every deep-residual grid
    # cell has a reported point within the merge radius
    sc = catalog("sin_curve")
    xm = TranslationSurface.self_translation(sc, -1)
    window = (-PI, PI, -PI, PI)
    grid_n = 48
    pts = find_singular_points(xm, window, grid_n=grid_n)
    tol = xm.tols.sing_tol
    for q in pts:
        assert q.residual < 10 * tol
        if "iii" in q.conditions:
            assert dependence_test(xm.at(q.p, order=2)).t_pair_norm < 10 * tol
    spacing = 2 * PI / (grid_n - 1)
    merge_radius = 3.0 * spacing
    us = np.linspace(*window[:2], grid_n)
    vs = np.linspace(*window[2:], grid_n)
    # the singular residual of every grid node, from the grid landscape
    alpha_u, alpha_v, t31, t32 = residual_landscape(xm, us, vs)
    residual = np.minimum(np.minimum(np.abs(alpha_u)[:, None],
                                     np.abs(alpha_v)[None, :]),
                          np.hypot(t31, t32))
    for a, b in zip(*np.nonzero(residual < tol / 10)):
        u, v = us[a], vs[b]
        near = min(math.hypot(q.u - u, q.v - v) for q in pts)
        assert near < merge_radius, (u, v, near)


def test_self_translation_invariants_carry_half_factors():
    # a self pair is held as its generator pair (gamma, +-gamma): the
    # invariants are that pair's, and only x carries the half factor
    sc = catalog("sin_curve")
    xp = TranslationSurface.self_translation(sc, +1)
    xm = TranslationSurface.self_translation(sc, -1)
    assert xp.curve_u is sc and xp.curve_v is sc
    assert xm.curve_u is sc and xm.curve_v.negates is sc
    u, v = 0.4, -0.9
    c = sc.curvature(u, 2)
    cv = sc.curvature(v, 2)
    t31 = xp.field.partial_value(3, 1, u, v)
    t33 = xp.field.partial_value(3, 3, u, v)
    invp = gfs_invariants(xp.at((u, v)))
    invm = gfs_invariants(xm.at((u, v)))
    assert invp.c1.value == pytest.approx(c.alpha.value, rel=1e-12)
    assert invm.c1.value == pytest.approx(c.alpha.value, rel=1e-12)
    assert invp.a2.value == pytest.approx(cv.alpha.value * t31, rel=1e-12,
                                          abs=1e-12)
    assert invm.a2.value == pytest.approx(-cv.alpha.value * t31, rel=1e-12,
                                          abs=1e-12)
    assert invp.c2.value == pytest.approx(cv.alpha.value * t33, rel=1e-12)
    assert (invp.e1.value, invp.f1.value, invp.g1.value) == pytest.approx(
        (c.l.value, c.m.value, c.n.value), rel=1e-12)
    gu, gv = sc.point(u), sc.point(v)
    assert xp.x_value((u, v)).tobytes() == (0.5 * (gu + gv)).tobytes()
    assert xm.x_value((u, v)).tobytes() == (0.5 * (gu - gv)).tobytes()
    # x-(u, u) = 0 exactly and T(u, u) = I
    assert np.all(xm.x_value((0.8, 0.8)) == 0.0)
    assert np.max(np.abs(xm.field.value(0.8, 0.8) - np.eye(3))) < 1e-12


@pytest.mark.parametrize("curve", ["sin_curve", "cusp"])
@pytest.mark.parametrize("sign", [+1, -1])
def test_self_pair_locus_conditions_match_the_report(curve, sign, tmp_path):
    # the scan, its CSV and the classification read one generator pair, so
    # each point's conditions and dependence agree between CSV and report;
    # the cusp curve's speed vanishes at t = 0
    if curve == "cusp":
        base, window = instances.cusp_curve(planar=False), (-1.0, 1.0) * 2
    else:
        base, window = catalog(curve), (-PI, PI) * 2
    s = TranslationSurface.self_translation(base, sign)
    pts = sorted(find_singular_points(s, window, grid_n=24),
                 key=lambda q: (q.u, q.v))
    export_singular_csv(pts, str(tmp_path / "locus.csv"))
    rows = (tmp_path / "locus.csv").read_text().splitlines()[1:]
    reports = classify_all(s, [q.p for q in pts])
    assert len(rows) == len(reports) > 0
    assert [row.split(",")[2:4] for row in rows] == [
        ["|".join(r.conditions), r.dependence] for r in reports]


def test_ab_dependence_scan_coplanar():
    # both planar in z = 0 with the same constant nu2 = e3: t32 == 0 identically
    s = TranslationSurface.general(catalog("s0_a"), catalog("s0_a"))
    rep = ab_dependence_scan(s, (-1, 1, -1, 1), n=10)
    assert rep.t_fields_dependent and rep.ab_fields_dependent
    assert rep.t_sigma_ratio < 1e-8


def test_ab_dependence_scan_independent(s0):
    rep = ab_dependence_scan(s0, (-1, 1, -1, 1), n=10)
    assert not rep.t_fields_dependent
    assert not rep.ab_fields_dependent
    assert (rep.t_fields_dependent == rep.ab_fields_dependent)


def test_ab_verdict_matches_t_verdict_everywhere():
    for na, nb in [("s0_a", "s0_b"), ("s1m_a", "s1m_b")]:
        s = TranslationSurface.general(catalog(na), catalog(nb))
        rep = ab_dependence_scan(s, (-1.2, 1.2, -0.9, 0.9), n=9)
        assert rep.t_fields_dependent == rep.ab_fields_dependent
