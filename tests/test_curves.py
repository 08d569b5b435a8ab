import math

import numpy as np
import pytest

from transurf import curves, instances, jets
from transurf.curves import (CurveJets, FramedCurve, build_curve, catalog,
                             frenet_lift, parse_curve)
from transurf.errors import InvalidFrame, NotNonDegenerate, UnknownCurve
from transurf.jets import Jet
from transurf.tolerances import DEFAULT


def _line_curve(direction=(1.0, 0.0, 0.0)):
    d = np.asarray(direction, dtype=float)
    d = d / np.linalg.norm(d)
    e1 = np.array([0.0, 0.0, 1.0]) if abs(d[2]) < 0.9 else np.array([1.0, 0.0, 0.0])
    n1 = np.cross(d, e1)
    n1 = n1 / np.linalg.norm(n1)
    n2 = np.cross(d, n1)

    def gamma(t, order):
        u = Jet.variable(t, order)
        return tuple(float(di) * u for di in d)

    def frame(t, order):
        return tuple(tuple(Jet.constant(float(c), t, order) for c in vec)
                     for vec in (n1, n2))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name="line")


def test_catalog_curvatures_match_closed_forms():
    fc = catalog("s0_a")
    for u in (-1.3, 0.0, 0.8):
        c = fc.curvature(u, 3)
        assert c.l.value == pytest.approx(0.0, abs=1e-12)
        assert c.m.value == pytest.approx(-1 / (1 + u * u), rel=1e-12)
        assert c.n.value == pytest.approx(0.0, abs=1e-12)
        assert c.alpha.value == pytest.approx(math.sqrt(1 + u * u), rel=1e-12)

    fc = catalog("s1p_a")
    for u in (-0.6, 0.0, 1.1):
        c = fc.curvature(u, 3)
        assert c.m.value == pytest.approx(-2 * u / (1 + u**4), rel=1e-12, abs=1e-12)
        assert c.alpha.value == pytest.approx(math.sqrt(1 + u**4), rel=1e-12)


def _kappa_tau(fc, t):
    return tuple(j.value for j in CurveJets(fc, t, 3).kappa_tau())


def test_s1m_pair_is_unit_speed_with_constant_invariants():
    a = catalog("s1m_a")
    b = catalog("s1m_b")
    for t in (-1.0, 0.0, 0.7):
        assert CurveJets(a, t, 3).unit_speed_gate(DEFAULT.hyp_tol)
        assert CurveJets(b, t, 3).unit_speed_gate(DEFAULT.hyp_tol)
        assert _kappa_tau(a, t) == pytest.approx((1.0, 1.0), rel=1e-10)
        assert _kappa_tau(b, t) == pytest.approx((2.0, 1.0), rel=1e-10)


def test_s1m_b_formula():
    b = catalog("s1m_b")
    v = 0.4
    p = b.point(v)
    r5 = math.sqrt(5)
    assert np.allclose(p, [v / r5, 2 * math.cos(r5 * v) / 5, 2 * math.sin(r5 * v) / 5])


def test_frenet_lift_circle():
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (jets.cos(u), jets.sin(u), Jet.constant(0.0, t, order))

    fc = frenet_lift(gamma, (-3.0, 3.0), name="circle")
    assert fc.is_frenet
    for t in (-1.0, 0.2):
        assert CurveJets(fc, t, 3).unit_speed_gate(DEFAULT.hyp_tol)
        kappa, tau = _kappa_tau(fc, t)
        assert kappa == pytest.approx(1.0, rel=1e-12)
        assert tau == pytest.approx(0.0, abs=1e-12)
        c = fc.curvature(t, 2)
        got = (c.l.value, c.m.value, c.n.value, c.alpha.value)
        assert got == pytest.approx((0.0, -1.0, 0.0, 1.0), abs=1e-10)


def test_frenet_lift_rejects_straight_line():
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, u, Jet.constant(0.0, t, order))

    with pytest.raises(NotNonDegenerate):
        frenet_lift(gamma, (-1.0, 1.0))


def test_self_s1p_unit_speed_gate():
    fc = catalog("self_s1p")
    for t, unit in ((0.0, True), (math.pi, True), (0.9, False)):
        assert CurveJets(fc, t, 3).unit_speed_gate(DEFAULT.hyp_tol) is unit
    r2 = math.sqrt(2)
    assert _kappa_tau(fc, 0.0) == pytest.approx((r2, -r2), rel=1e-9)
    assert _kappa_tau(fc, math.pi) == pytest.approx((r2, r2), rel=1e-9)


def test_sin_curve_alpha():
    fc = catalog("sin_curve")
    for u in (-2.0, 0.3, 1.9):
        c = fc.curvature(u, 2)
        assert c.alpha.value == pytest.approx(math.sqrt(math.sin(2 * u)**2 + 1),
                                              rel=1e-12)


def test_line_curvature_is_speed_only():
    fc = _line_curve((1.0, 2.0, 0.5))
    c = fc.curvature(0.3, 3)
    speed = np.linalg.norm([1.0, 2.0, 0.5]) / np.linalg.norm([1.0, 2.0, 0.5])
    assert abs(c.l.value) < 1e-14 and abs(c.m.value) < 1e-14 and abs(c.n.value) < 1e-14
    assert abs(c.alpha.value) == pytest.approx(1.0, rel=1e-12)
    assert speed == 1.0


def test_unknown_catalog_name():
    with pytest.raises(UnknownCurve):
        catalog("nope")
    with pytest.raises(UnknownCurve):
        parse_curve("@nope")


def test_explicit_frame_must_satisfy_invariants():
    # nu1 not orthogonal to the tangent
    spec = parse_curve("(u, u^2/2, 0)")
    bad = curves.CurveSpec(
        components=spec.components, variable=spec.variable,
        frame=(curves.expr.parse_tuple3("(1, 0, 0)"),
               curves.expr.parse_tuple3("(0, 0, 1)")))
    with pytest.raises(InvalidFrame):
        build_curve(bad, domain=(-1.0, 1.0))


def test_catalog_frame_invariants_randomized():
    rng = np.random.default_rng(11)
    for name in curves.catalog_names():
        fc = catalog(name)
        lo, hi = fc.domain
        for t in rng.uniform(lo, hi, size=100):
            t = float(t)
            assert fc.frame_residual(t) < 1e-9, (name, t)


def test_frenet_roundtrip_kappa_tau_from_framed_curvature(frenet_oracle):
    # kappa and tau read off the framed curvature against those of gamma's
    # own jets, on the catalog's Frenet curves, a helix, a planar circle,
    # the three slides, and negated copies, which keep the base's kappa and
    # tau (their frame is the base's Frenet frame)
    fcs = [catalog(name) for name in ("s1m_a", "s1m_b", "self_s1p")]
    fcs += [instances.helix(), instances.planar_circle(1.4)]
    fcs += [instances.slide_pair(kind)[0].curve_v
            for kind in ("edge", "swallowtail", "nonfront")]
    fcs += [catalog("self_s1p").negated(), instances.helix().negated()]
    for fc in fcs:
        assert fc.is_frenet, fc.name
        lo, hi = fc.domain
        for t in np.linspace(lo + 0.1, hi - 0.1, 9):
            t = float(t)
            want = frenet_oracle(fc.negates or fc, t)
            got = CurveJets(fc, t, 3).kappa_tau()
            assert got[0].value == pytest.approx(want[0], rel=1e-8), fc.name
            assert got[1].value == pytest.approx(want[1], rel=1e-8,
                                                 abs=1e-12), fc.name


def test_build_curve_from_expression_with_frenet_frame():
    spec = parse_curve("(cos(t), sin(t), t/2)")
    fc = build_curve(spec, domain=(-2.0, 2.0))
    speed = math.sqrt(1 + 0.25)
    c = fc.curvature(0.4, 2)
    assert c.alpha.value == pytest.approx(speed, rel=1e-12)
    # helix with a = 1, b = 1/2: kappa = a / (a^2 + b^2)
    assert _kappa_tau(fc, 0.4)[0] == pytest.approx(1 / 1.25, rel=1e-10)


def test_expression_curve_with_constants_left_of_the_variable():
    # 1 - u^2 and 1/(1 + u^2) put a float on the left of a Jet, so the
    # grammar reaches Jet.__rsub__, __rtruediv__ and __pow__
    fc = build_curve(parse_curve("(u, 1 - u^2, 1/(1 + u^2))"))
    for t in (-0.7, 0.0, 0.4):
        x, y, z = fc.gamma_jets(t, 3)
        w = 1.0 + t * t
        assert list(x.d) == [t, 1.0, 0.0, 0.0]
        assert list(y.d) == pytest.approx([1 - t * t, -2 * t, -2.0, 0.0],
                                          rel=1e-15, abs=1e-15)
        assert list(z.d) == pytest.approx(
            [1 / w, -2 * t / w**2, (6 * t * t - 2) / w**3,
             24 * t * (1 - t * t) / w**4], rel=1e-13, abs=1e-15)


def test_scaled_and_negated_keep_frames():
    fc = catalog("sin_curve")
    c = fc.curvature(0.7, 2)
    cn = fc.negated().curvature(0.7, 2)
    assert cn.alpha.value == pytest.approx(-c.alpha.value, rel=1e-14)
    for a, b in ((c.l, cn.l), (c.m, cn.m), (c.n, cn.n)):
        assert a.value == pytest.approx(b.value, rel=1e-14)


def test_gamma_dot_equals_alpha_mu_everywhere():
    rng = np.random.default_rng(3)
    for name in curves.catalog_names():
        fc = catalog(name)
        lo, hi = fc.domain
        for t in rng.uniform(lo, hi, size=20):
            t = float(t)
            gd = curves.shift3(fc.gamma_jets(t, 3))
            mu = fc.frame_row(3, t, 2)
            alpha = fc.curvature(t, 2).alpha
            err = max(abs((gd[i] - alpha * mu[i]).value) for i in range(3))
            assert err < 1e-9


def test_shifted_and_picked_jets_keep_read_only_arrays_uncopied():
    # shift3 slices, derivatives, truncations and a lane picked by an int
    # are views of the read-only batch arrays, a gather by an int array a
    # new array; none is copied again, all stay read-only and their values
    # are the batch's
    batch = catalog("sin_curve").batch_jets(np.array([0.1, 0.7, -1.3]), 6)
    for c, sc, dc, tc in zip(batch.gamma, curves.shift3(batch.gamma, 2),
                             (c.differentiate() for c in batch.gamma),
                             (c.truncate(3) for c in batch.gamma)):
        for view, want in ((sc, c.d[2:]), (dc, c.d[1:]), (tc, c.d[:4])):
            assert not view.d.flags.writeable
            assert np.shares_memory(view.d, c.d)
            assert view.d.tobytes() == want.tobytes()
    for idx in (1, np.array([2, 0])):
        picked = curves._pick(batch.frame, batch.t[idx], idx)
        for row, prow in zip(batch.frame, picked):
            for c, pc in zip(row, prow):
                assert not pc.d.flags.writeable
                assert np.shares_memory(pc.d, c.d) == isinstance(idx, int)
                assert pc.d.tobytes() == c.d[:, idx].tobytes()
