import math
import sys

import numpy as np
import pytest

from transurf import framedsurf, instances, jets, verify
from transurf.classify import PointData, classify, classify_all
from transurf.curves import CurveJets, catalog, vec_values
from transurf.framedsurf import (ThetaField, ThetaPoint, align_pi,
                                 construct_theta, front_decision,
                                 fs_invariants, lemma_oracle,
                                 unit_speed_oracle)
from transurf.jets import Jet
from transurf.surface import (PointJets, TranslationSurface,
                              find_singular_points)


def front_test(pj: PointJets, pt: ThetaPoint) -> tuple[str, float, int]:
    """Front or frontal-only at one point, with the witness and the rank of
    dx; the generic route decides it from its batch's HF and KF."""
    rank = pj.dx_rank()
    inv = fs_invariants(pj, pt, degree=2)
    verdict, witness = front_decision(rank, inv.HF.value, inv.KF.value,
                                      pj.s.tols.front_tol)
    return verdict, witness, rank


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


def test_theta_extension_derivatives_match_theory(frenet_oracle):
    # theta_u = tau/2 and theta_v = -h' tau / 2 on a tangent-sliding pair,
    # for each of the three slides
    for kind, h1 in (("edge", 1.7), ("swallowtail", -1.0), ("nonfront", 1.0)):
        s, p0 = instances.slide_pair(kind)
        pt = construct_theta(s.at(p0))
        assert pt.provenance == "limit_extension", kind
        tau = frenet_oracle(s.curve_u, p0[0])[1]
        assert pt.bijet.part(1, 0) == pytest.approx(tau / 2, abs=1e-14), kind
        assert pt.bijet.part(0, 1) == pytest.approx(-h1 * tau / 2,
                                                    abs=1e-14), kind


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
        d = fs_invariants(pj, pt)
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
    d = fs_invariants(pj, pt)
    cf = PointData(pj).density_partials(pt.value)
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
        d = fs_invariants(pj, pt, degree=2)
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
    got, has_jet = framedsurf._angle_jets(
        *ThetaField._ray_pairs(s.at(p), framedsurf._FAN))
    assert got.shape == (7, 16)
    orders = set()
    for d, g, ok in zip(framedsurf._FAN, got.T, has_jet):
        want = _ray_angle_jet_reference(s, p, d)
        assert ok == (want is not None), d
        if want is not None:
            assert g[:want.order + 1].tobytes() == want.d.tobytes(), d
            assert np.isnan(g[want.order + 1:]).all(), d
            orders.add(want.order)
        else:
            assert np.isnan(g).all(), d
    if case == "sin_minus_near_origin":
        assert orders == {5, 6}


def test_rays_of_a_point_read_the_frame_once(monkeypatch):
    # the 16 fan rays of the extension come from one batch, so the ray code
    # reads each of its three frame rows once
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


def _count_angle_jet_lanes(monkeypatch):
    """The number of lanes of each ``_angle_jets`` batch, as it runs."""
    lanes = []
    original = framedsurf._angle_jets

    def spy(da, db):
        lanes.append(da.shape[1])
        return original(da, db)

    monkeypatch.setattr(framedsurf, "_angle_jets", spy)
    return lanes


def test_extension_stages_are_one_batch_per_scan(monkeypatch):
    # the limit extension of every sample of a scan that needs one is one
    # call, with one batch of fan angle jets: 16 lanes per sample
    s = TranslationSurface.self_translation(catalog("sin_curve"), -1)
    pts = find_singular_points(s, (-math.pi, math.pi) * 2, grid_n=24)
    calls = _count_calls(monkeypatch, "_extension")
    batches = _count_angle_jet_lanes(monkeypatch)
    classify_all(s, [q.p for q in pts])
    assert len(pts) == 32
    assert len(calls) == 1
    assert batches == [16 * np.size(calls[0][0].p[0])]


_H = math.sqrt(0.5)
# exact axis and diagonal directions, none of them a lane of the fan
_AXES = ((1.0, 0.0), (0.0, 1.0), (_H, _H), (_H, -_H))
INSTANCE_POINTS = {
    "cylinder": instances.cylinder_pair,
    "slide_edge": lambda: instances.slide_pair("edge"),
    "slide_swallowtail": lambda: instances.slide_pair("swallowtail"),
    "slide_nonfront": lambda: instances.slide_pair("nonfront"),
    "beaks": instances.singular_speed_pair,
    "beaks_mirror": lambda: instances.singular_speed_pair(True),
    "rank_zero": instances.rank_zero_pair,
    "planar": instances.planar_pair,
}


@pytest.mark.parametrize("case", sorted(INSTANCE_POINTS))
def test_fan_fit_matches_axis_ray_jets(case):
    # the partials fitted to the fan give the first and second derivatives
    # of the angle along the exact axes and diagonals, each from its own
    # scalar ray jets (both signs of each direction); along an axis inside
    # the zero set of (t31, t32) (the cylinder's v axis) the rays carry
    # no jet
    s, p0 = INSTANCE_POINTS[case]()
    pt = construct_theta(s.at(p0))
    assert pt.provenance == "limit_extension"
    c = pt.bijet.c
    checked = 0
    for d0, d1 in _AXES:
        plus = _ray_angle_jet_reference(s, p0, (d0, d1))
        minus = _ray_angle_jet_reference(s, p0, (-d0, -d1))
        if plus is None or minus is None:
            continue
        first = c[1, 0] * d0 + c[0, 1] * d1
        second = c[2, 0] * d0 * d0 + 2 * c[1, 1] * d0 * d1 + c[0, 2] * d1 * d1
        for jet, sign in ((plus, 1.0), (minus, -1.0)):
            assert jet.deriv(1) == pytest.approx(sign * first, abs=1e-12)
            assert jet.deriv(2) == pytest.approx(second, abs=1e-12)
        checked += 1
    assert checked >= (3 if case == "cylinder" else 4)


def test_cylinder_v_partials_vanish():
    s, p0 = instances.cylinder_pair()
    c = construct_theta(s.at(p0)).bijet.c
    assert abs(c[0, 1]) <= 1e-15 and abs(c[0, 2]) <= 1e-15


@pytest.mark.parametrize("sign", ["plus", "minus"])
def test_theta_agrees_across_the_period_corners(sign):
    # (+-pi, +-pi) are one point of the self_s1p surface up to the period,
    # and the fan fits the same 2-jet of theta in each of the four charts
    s = verify.surface_for(f"self_s1p_{sign}")
    corners = [(a * math.pi, b * math.pi) for a in (1, -1) for b in (1, -1)]
    pts = [construct_theta(s.at(p)) for p in corners]
    assert all(pt.provenance == "limit_extension" for pt in pts)
    for pt in pts[1:]:
        assert pt.bijet.c == pytest.approx(pts[0].bijet.c, abs=1e-12)


def test_large_fit_residual_means_no_smooth_angle():
    # the directional limits agree at this diagonal sample of the self_s1p
    # plus scan, but no 2-jet of theta fits the rays' jets: the residual of
    # the fit, formed again here one degree at a time, is the point's
    s = verify.surface_for("self_s1p_plus")
    pts = find_singular_points(s, (-math.pi, math.pi) * 2, grid_n=24)
    p = min((q.p for q in pts),
            key=lambda q: math.hypot(q[0] - 1.2293, q[1] - 1.2293))
    assert math.hypot(p[0] - 1.2293, p[1] - 1.2293) < 1e-3
    pj = s.at(p)
    pt = construct_theta(pj)
    assert not pt.available
    assert "no smooth normal angle" in pt.reason
    th, ok = framedsurf._angle_jets(
        *ThetaField._ray_pairs(pj, framedsurf._FAN))
    d = np.array(framedsurf._FAN)[ok]
    rows = (d, np.stack([d[:, 0] ** 2, 2 * d[:, 0] * d[:, 1],
                         d[:, 1] ** 2], axis=1))
    res = max(np.abs(a @ np.linalg.lstsq(a, th[k, ok], rcond=None)[0]
                     - th[k, ok]).max() for k, a in zip((1, 2), rows))
    assert res > 1.0
    assert pt.residual == pytest.approx(res, rel=1e-9)
