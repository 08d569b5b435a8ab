import math
import sys

import numpy as np
import pytest

from transurf import framedsurf, instances, jets, verify
from transurf.classify import classify
from transurf.curves import CurveJets, catalog, vec_values
from transurf.framedsurf import (ThetaField, align_pi,
                                 closed_form_density_partials,
                                 construct_theta, discriminant, front_decision,
                                 front_test, fs_invariants, lemma_oracle,
                                 unit_speed_oracle)
from transurf.jets import Jet
from transurf.surface import PointJets, TranslationSurface


def bn_value(s: TranslationSurface, theta_value: float,
             u: float) -> np.ndarray:
    """The normal bn = sin(theta) nu1 + cos(theta) nu2 of the u-curve's
    frame at u."""
    n1 = vec_values(s.curve_u.frame_row(1, u, 2))
    n2 = vec_values(s.curve_u.frame_row(2, u, 2))
    return math.sin(theta_value) * n1 + math.cos(theta_value) * n2


def lambda_direct_value(pj: PointJets, theta_value: float) -> float:
    """det(x_u, x_v, bn) evaluated directly; cross-check for the closed form."""
    bn = bn_value(pj.s, theta_value, pj.p[0])
    return float(np.linalg.det(np.column_stack([pj.dx_matrix(), bn])))


@pytest.fixture(scope="module")
def edge_case():
    s, p0 = instances.slide_pair("edge")
    return s, p0, ThetaField(s)


@pytest.fixture(scope="module")
def planar():
    s, p0 = instances.planar_pair()
    return s, p0, ThetaField(s)


def test_theta_unavailable_at_cross_cap():
    s = TranslationSurface.general(catalog("s0_a"), catalog("s0_b"))
    pt = construct_theta(s.at((0.0, 0.0)))
    assert not pt.available
    assert "not a framed base surface" in pt.reason or "isotropic" in pt.reason


def test_theta_defining_equation_planar(planar):
    s, p0, theta = planar
    for p in [(0.0, 0.0), (0.7, -0.4), (1.1, 0.9)]:
        pt = theta.at(s.at(p))
        assert pt.available
        assert pt.residual < 1e-12
        assert math.sin(pt.value) == pytest.approx(0.0, abs=1e-12)


def test_theta_extension_derivatives_match_theory(edge_case):
    # theta_u = tau/2 and theta_v = -h' tau / 2 on a tangent-sliding pair
    s, p0, theta = edge_case
    pt = theta.at(s.at(p0))
    assert pt.provenance == "limit_extension"
    tau = s.curve_u.frenet.tau(p0[0], 2).value
    assert pt.bijet.part(1, 0) == pytest.approx(tau / 2, abs=1e-9)
    assert pt.bijet.part(0, 1) == pytest.approx(-1.7 * tau / 2, abs=1e-9)


def test_fs_invariants_structure(edge_case):
    s, p0, theta = edge_case
    p = (p0[0] + 0.15, p0[1] + 0.1)
    pj = s.at(p)
    inv = fs_invariants(pj, theta.at(pj))
    ca = s.curve_u.curvature(p[0], 2)
    cb = s.curve_v.curvature(p[1], 2)
    assert inv.a1.value == pytest.approx(ca.alpha.value, rel=1e-12)
    assert inv.b1.value == 0.0
    assert inv.e2.value == 0.0 and inv.g2.value == 0.0
    assert inv.a2.value == pytest.approx(
        cb.alpha.value * s.field.partial_value(3, 3, *p), rel=1e-10)
    # JF = a1 b2 - a2 b1 by construction; must equal the direct 2x2 determinant
    assert inv.JF.value == pytest.approx(
        inv.a1.value * inv.b2.value - inv.a2.value * inv.b1.value, rel=1e-12)
    # bn is unit and orthogonal to both partial vectors
    bnv = np.array([c.value for c in inv.bn])
    assert np.linalg.norm(bnv) == pytest.approx(1.0, abs=1e-10)
    xu = [c.deriv(1) for c in s.curve_u.gamma_jets(p[0], 2)]
    xv = [c.deriv(1) for c in s.curve_v.gamma_jets(p[1], 2)]
    assert abs(np.dot(bnv, xu)) < 1e-9
    assert abs(np.dot(bnv, xv)) < 1e-9


def test_planar_pair_frontal_but_not_front(planar):
    s, p0, theta = planar
    pj = s.at(p0)
    pt = theta.at(pj)
    inv = fs_invariants(pj, pt, degree=2)
    assert inv.f1.value == pytest.approx(0.0, abs=1e-10)   # theta_u - l
    assert inv.HF.value == pytest.approx(0.0, abs=1e-10)
    verdict, witness, rank = front_test(pj, pt)
    assert verdict == "frontal_only" and rank == 1


def test_front_decision_rank0():
    assert front_decision(0, 0.0, 0.3, 1e-8) == ("front", 0.3)
    assert front_decision(0, 0.5, 0.0, 1e-8)[0] == "frontal_only"
    assert front_decision(1, 0.2, 0.0, 1e-8) == ("front", 0.2)


def test_front_on_edge_instance(edge_case):
    s, p0, theta = edge_case
    pj = s.at(p0)
    pt = theta.at(pj)
    verdict, witness, rank = front_test(pj, pt)
    assert verdict == "front" and rank == 1
    # the front witness is -1/2 of the explicit front condition value
    ca = s.curve_u.curvature(p0[0], 2)
    cb = s.curve_v.curvature(p0[1], 2)
    fv = (ca.alpha.value * pt.bijet.part(0, 1)
          - cb.alpha.value * s.field.partial_value(3, 3, *p0)
          * (pt.bijet.part(1, 0) - ca.l.value))
    assert witness == pytest.approx(-fv / 2, rel=1e-8)


def test_discriminant_factorization(edge_case):
    s, p0, theta = edge_case
    for p in [p0, (p0[0] + 0.1, p0[1] - 0.05)]:
        pj = s.at(p)
        pt = theta.at(pj)
        d = discriminant(pj, pt)
        ca = s.curve_u.curvature(p[0], 2)
        cb = s.curve_v.curvature(p[1], 2)
        assert d.lam.value == pytest.approx(
            ca.alpha.value * cb.alpha.value * d.Lambda.value, rel=1e-11,
            abs=1e-13)
        assert d.lam.value == pytest.approx(
            lambda_direct_value(pj, pt.value), rel=1e-9, abs=1e-12)


def test_density_closed_partials_match_jets(edge_case):
    s, p0, theta = edge_case
    pj = s.at(p0)
    pt = theta.at(pj)
    d = discriminant(pj, pt)
    cf = closed_form_density_partials(pj, pt)
    assert d.Lambda.part(1, 0) == pytest.approx(cf["Lambda_u"], abs=1e-8)
    assert d.Lambda.part(0, 1) == pytest.approx(cf["Lambda_v"], abs=1e-8)
    assert d.Lambda.part(2, 0) == pytest.approx(cf["Lambda_uu"], abs=1e-7)
    assert d.Lambda.part(1, 1) == pytest.approx(0.0, abs=1e-8)
    assert d.Lambda.part(0, 2) == pytest.approx(cf["Lambda_vv"], abs=1e-7)


def test_lambda_matches_determinant_at_random_points(edge_case):
    s, p0, theta = edge_case
    rng = np.random.default_rng(12)
    for _ in range(100):
        p = (p0[0] + float(rng.uniform(-0.15, 0.15)),
             float(rng.uniform(-0.2, 0.2)))
        pj = s.at(p, order=4)
        pt = theta.at(pj, degree=2)
        d = discriminant(pj, pt, degree=2)
        assert d.lam.value == pytest.approx(
            lambda_direct_value(pj, pt.value), rel=1e-9, abs=1e-12)


def test_theta_derivatives_match_tracked_field_fd(edge_case):
    # away from the singular set, jet derivatives of theta agree with finite
    # differences of its values aligned to one branch
    s, p0, theta = edge_case
    p = (p0[0] + 0.12, 0.08)
    pt = theta.at(s.at(p))
    h = 1e-5
    ref = pt.value

    def th(q):
        return align_pi(theta.at(s.at(q, order=2), degree=2).value, ref)

    fd_u = (th((p[0] + h, p[1])) - th((p[0] - h, p[1]))) / (2 * h)
    fd_v = (th((p[0], p[1] + h)) - th((p[0], p[1] - h))) / (2 * h)
    assert pt.bijet.part(1, 0) == pytest.approx(fd_u, rel=1e-4, abs=1e-6)
    assert pt.bijet.part(0, 1) == pytest.approx(fd_v, rel=1e-4, abs=1e-6)


def test_lemma_oracle_residuals(edge_case):
    s, p0, theta = edge_case
    pj = s.at(p0)
    res = lemma_oracle(pj, theta.at(pj))
    assert set(res) == set(range(1, 10))
    assert max(abs(v) for v in res.values()) < 1e-6


def test_unit_speed_oracle_residuals(edge_case):
    s, p0, theta = edge_case
    pj = s.at(p0)
    res = unit_speed_oracle(pj, theta.at(pj))
    assert max(abs(v) for v in res.values()) < 1e-6
    # theta_u = tau/2 and t12 = 0 are items 3 and 2
    assert abs(res[2]) < 1e-8 and abs(res[3]) < 1e-8


def test_lemma_oracle_on_cylinder():
    s, p0 = instances.cylinder_pair()
    pj = s.at(p0)
    res = lemma_oracle(pj, construct_theta(pj))
    assert max(abs(v) for v in res.values()) < 1e-6


def test_unexpected_error_in_fd_pair_propagates(monkeypatch):
    # only package errors mean "no finite-difference derivative here"; a
    # diagonal sample of the sin-minus pair reaches that fallback
    def boom(self, q, ref):
        raise RuntimeError("unexpected")

    monkeypatch.setattr(framedsurf.ThetaField, "_smooth_values", boom)
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    with pytest.raises(RuntimeError, match="unexpected"):
        classify(s, (0.5, 0.5))


def _count_calls(monkeypatch, name):
    calls = []
    original = getattr(framedsurf.ThetaField, name)

    def spy(self, *args, **kwargs):
        calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(framedsurf.ThetaField, name, spy)
    return calls


def test_classify_evaluates_theta_once_per_point(monkeypatch):
    # a diagonal sample of the sin-minus pair is a zero of (t31, t32), so its
    # angle comes from the ray extension; every route reads that one result
    calls = _count_calls(monkeypatch, "_extension")
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    classify(s, (0.5, 0.5))
    assert len(calls) == 1


def test_lemma_suite_evaluates_theta_once_per_case(monkeypatch):
    calls = _count_calls(monkeypatch, "at")
    checks = verify.suite_lemma()
    assert all(c.passed for c in checks)
    assert len(calls) == 3


def _angle_jet_reference(da, db):
    """The angle jet of one pair of ray rows on its own, after factoring out
    their common zeros; None when the pair vanishes to high order: the
    scalar algorithm that ``_angle_jets`` batches."""
    scale = max(np.max(np.abs(da)), np.max(np.abs(db)))
    if scale < 1e-12:
        return None
    tol = framedsurf._RAY_ZERO_TOL
    while abs(da[0]) < tol * scale and abs(db[0]) < tol * scale and len(da) > 3:
        # Taylor division by s of a jet vanishing at 0
        da = da[1:] / np.arange(1.0, len(da))
        db = db[1:] / np.arange(1.0, len(db))
    r = math.hypot(da[0], db[0])
    if r < tol * scale:
        return None
    return jets.atan2(Jet(0.0, db / r), Jet(0.0, da / r))


def _ray_angle_jet_reference(s, p, d, order=6):
    """One ray of the theta extension on its own: the jets of (t31, -t32)
    along p + s d as a chain of scalar jets, then the angle jet."""
    def ray_jet(f, w):
        return Jet(0.0, f.d * np.power(w, np.arange(f.order + 1)))

    u, v = p
    t31 = Jet.constant(0.0, 0.0, order)
    t32 = Jet.constant(0.0, 0.0, order)
    mu_b = s.curve_v.frame_row(3, v, order)
    nu1_a = s.curve_u.frame_row(1, u, order)
    nu2_a = s.curve_u.frame_row(2, u, order)
    for c in range(3):
        bj = ray_jet(mu_b[c], d[1])
        t31 = t31 + bj * ray_jet(nu1_a[c], d[0])
        t32 = t32 + bj * ray_jet(nu2_a[c], d[0])
    return _angle_jet_reference(t31.d.copy(), (-t32).d.copy())


def _sin_minus(p):
    return lambda: (
        TranslationSurface.self_translation(catalog("sin_curve"), -1), p)


RAY_POINTS = {
    "slide_edge": lambda: instances.slide_pair("edge"),
    "planar": instances.planar_pair,
    "sin_minus_diagonal": _sin_minus((0.5, 0.5)),
    # its lanes deflate to two lengths, so the fan is two atan2 batches
    "sin_minus_near_origin": _sin_minus((0.1, 0.1)),
}


@pytest.mark.parametrize("case", sorted(RAY_POINTS))
def test_ray_fan_lanes_equal_scalar_reference(case):
    s, p = RAY_POINTS[case]()
    dirs = framedsurf._FAN + framedsurf._AXIS_RAYS
    got = framedsurf._angle_jets(ThetaField._ray_pairs(s.at(p), dirs))
    assert len(got) == 24
    orders = set()
    for d, g in zip(dirs, got):
        want = _ray_angle_jet_reference(s, p, d)
        assert (g is None) == (want is None), d
        if want is not None:
            assert g.d.tobytes() == want.d.tobytes(), d
            assert not g.d.flags.writeable
            orders.add(want.order)
    if case == "sin_minus_near_origin":
        assert orders == {5, 6}


def _smooth_value_reference(s, q, ref):
    """The branch-aligned angle at one neighbour q of an extension point,
    from its own evaluation of each curve and one ray at a time."""
    pj = s.at(q)
    t31, t32 = pj.t(3, 1), pj.t(3, 2)
    if math.hypot(t31, t32) >= framedsurf._EXT_RADIUS:
        return align_pi(math.atan2(-t32, t31), ref)
    fan = [_angle_jet_reference(*pair)
           for pair in ThetaField._ray_pairs(pj, framedsurf._FAN)]
    mean2, _, reason = ThetaField(s)._ray_limit(fan)
    return None if reason else align_pi(mean2 / 2.0, ref)


@pytest.mark.parametrize("case", ["cylinder", "sin_minus_diagonal"])
def test_extension_samples_equal_pointwise_reference(case):
    # the finite-difference neighbours of an extension point along all four
    # axes are one batch, and the fans of those near a zero of (t31, t32)
    # one more; each value equals the neighbour evaluated on its own
    # bitwise
    s, p0 = {"cylinder": instances.cylinder_pair,
             "sin_minus_diagonal": _sin_minus((0.5, 0.5))}[case]()
    theta0 = construct_theta(s.at(p0)).value
    qs = [(p0[0] + step * d[0], p0[1] + step * d[1])
          for d in framedsurf._AXES.values() for step in framedsurf._FD_STEPS]
    got = ThetaField(s)._smooth_values(
        s.at(tuple(np.array(x) for x in zip(*qs))), [theta0] * len(qs))
    near = 0
    for q, g in zip(qs, got):
        want = _smooth_value_reference(s, q, theta0)
        assert (g is None) == (want is None), q
        if want is not None:
            assert np.float64(g).tobytes() == np.float64(want).tobytes()
        qj = s.at(q)
        near += math.hypot(qj.t(3, 1), qj.t(3, 2)) < framedsurf._EXT_RADIUS
    assert near >= 4


def test_rays_of_a_point_read_the_frame_once(monkeypatch):
    # the 16 fan rays and the 8 axis rays of the extension come from one
    # batch, so the ray code reads each of its three frame rows once
    s, p0 = instances.slide_pair("edge")
    calls = []
    original = CurveJets.row

    def spy(self, *args, **kwargs):
        if sys._getframe(1).f_code.co_filename == framedsurf.__file__:
            calls.append(args)
        return original(self, *args, **kwargs)

    monkeypatch.setattr(CurveJets, "row", spy)
    pt = construct_theta(s.at(p0))
    assert pt.provenance == "limit_extension"
    assert 3 <= len(calls) <= 6


def test_axis_angle_jets_wait_for_a_fan_limit(monkeypatch):
    # the angle jets of the 8 axis lanes are formed only once the 16 fan
    # rays have a limit; at this diagonal point of the sin-minus pair they
    # have none, so only the fan's 16 are formed
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    lanes = []
    original = framedsurf._angle_jets

    def spy(pairs):
        lanes.append(len(pairs))
        return original(pairs)

    monkeypatch.setattr(framedsurf, "_angle_jets", spy)
    pt = construct_theta(s.criteria_surface().at((0.1, 0.1)))
    assert not pt.available
    assert "no continuous normal angle" in pt.reason
    assert sum(lanes) == 16
