import functools
import math
import sys

import numpy as np
import pytest

from transurf import classify as classify_mod
from transurf import instances, verify
from transurf.classify import (PointData, classify, classify_S0, classify_S1,
                               classify_dependent_framed,
                               classify_generic_frontal, corank)
from transurf.curves import CurveJets, catalog
from transurf.framedsurf import align_pi, construct_theta, wrap_pi
from transurf.framefield import entry_value
from transurf.jets import BiJet
from transurf.surface import TranslationSurface

PI = math.pi


def phi_closed_bijet(d: PointData) -> BiJet:
    """Expansion of phi in frame-matrix entries and curvatures."""
    pj, degree = d.pj, d.degree
    _, m, n, al, _, mt, nt, at = pj.curvature_bijets(degree)
    t31 = pj.t_bijet(3, 1, degree)
    t32 = pj.t_bijet(3, 2, degree)
    t33 = pj.t_bijet(3, 3, degree)
    t13 = pj.t_bijet(1, 3, degree)
    t23 = pj.t_bijet(2, 3, degree)
    al3 = al * al * al
    at2 = at * at
    return (-(al3 * (at2 * at) * t33 * (-(m * t32) + n * t31))
            - (al3 * al) * at2 * t33 * t33 * t33 * (mt * t23 - nt * t13))


@pytest.fixture(scope="module")
def s0():
    return TranslationSurface.general(catalog("s0_a"), catalog("s0_b"))


@pytest.fixture(scope="module")
def s1p():
    return TranslationSurface.general(catalog("s1p_a"), catalog("s1p_b"))


@pytest.fixture(scope="module")
def s1m():
    return TranslationSurface.general(catalog("s1m_a"), catalog("s1m_b"))


def test_corank(s0):
    assert corank(s0.at((0.0, 0.0))) == 1
    assert corank(s0.at((0.5, 0.7))) == "regular"
    rz, p0 = instances.rank_zero_pair(False)
    assert corank(rz.at(p0)) == 2


def test_phi_closed_form_matches_jets_at_random_points(s0, s1m):
    rng = np.random.default_rng(2)
    for s in (s0, s1m):
        for _ in range(25):
            p = tuple(rng.uniform(-1.2, 1.2, 2))
            d = PointData(s.at(p))
            direct = d.phi_bijet()
            closed = phi_closed_bijet(d)
            scale = max(1.0, abs(direct.value))
            assert abs(direct.value - closed.value) < 1e-8 * scale
            for (i, j) in ((1, 0), (0, 1)):
                scale = max(1.0, abs(direct.part(i, j)))
                assert abs(direct.part(i, j) - closed.part(i, j)) < 1e-8 * scale


def test_phi_u_expansion_at_singular_point(s0):
    # at a dependent singular point the first derivative collapses to
    # alpha^4 alpha~^2 t33^3 times the cross-cap value
    d = PointData(s0.at((0.0, 0.0)))
    xi_phi = d.phi_bijet().part(1, 0)
    pred = (d.au**4 * d.av**2 * d.t[3, 3]**3 * d.cross_cap_value())
    assert xi_phi == pytest.approx(pred, rel=1e-10)


def test_cross_cap_verdict(s0):
    v = classify_S0(PointData(s0.at((0.0, 0.0))))
    assert v.tag == "CrossCap"
    assert v.value("cross_cap_value") == pytest.approx(-1.0, abs=1e-12)
    assert v.value("xi_phi") == pytest.approx(-1.0, abs=1e-10)


def test_s1_plus_verdict(s1p):
    v = classify_S1(PointData(s1p.at((0.0, 0.0))))
    assert v.tag == "S1Plus"
    assert v.value("det_hess_phi") == pytest.approx(-4.0, abs=1e-10)
    assert v.value("independence_vector_1") == pytest.approx(0.0, abs=1e-10)
    assert v.value("independence_vector_2") == pytest.approx(1.0, abs=1e-10)


def test_s1_minus_verdict(s1m):
    v = classify_S1(PointData(s1m.at((0.0, 0.0))))
    assert v.tag == "S1Minus"
    assert v.value("frenet_s1_discriminant") == pytest.approx(1.0, abs=1e-9)
    assert v.value("frenet_t21") == pytest.approx(0.0, abs=1e-10)
    assert v.value("det_hess_phi") > 0


def test_self_translation_s1(s1m):
    base = catalog("self_s1p")
    xp = TranslationSurface.self_translation(base, +1)
    r = classify(xp, (0.0, PI))
    assert r.tag == "S1Plus"
    assert r.s1.value("frenet_s1_discriminant") == pytest.approx(-16.0, abs=1e-9)
    assert r.s1.value("independence_vector_1") == pytest.approx(
        2 * math.sqrt(2), abs=1e-9)
    xm = TranslationSurface.self_translation(base, -1)
    rm = classify(xm, (0.0, PI))
    assert rm.tag != "S1Plus"
    assert rm.s1.value("independence_vector_1") == pytest.approx(0.0, abs=1e-10)


def test_sin_cross_caps_and_their_images():
    sc = catalog("sin_curve")
    pts = [(0.0, PI), (PI / 2, 3 * PI / 2), (PI, 0.0), (3 * PI / 2, PI / 2)]
    for sign in (+1, -1):
        s = TranslationSurface.self_translation(sc, sign)
        for p in pts:
            r = classify(s, p)
            assert r.tag == "CrossCap", (sign, p)
            assert abs(r.gfs.value("xi_phi")) == pytest.approx(4.0, abs=1e-9)
    # mirrored points classify identically for x+ and x-
    rp = classify(TranslationSurface.self_translation(sc, +1), pts[0])
    rm = classify(TranslationSurface.self_translation(sc, -1), pts[0])
    assert rp.tag == rm.tag == "CrossCap"


def test_self_diagonal_never_cross_cap_nor_s1():
    for name in ("sin_curve", "self_s1p"):
        base = catalog(name)
        for sign in (+1, -1):
            s = TranslationSurface.self_translation(base, sign)
            for u in (0.25, 1.0):
                r = classify(s, (u, u))
                assert r.tag not in ("CrossCap", "S1Plus", "S1Minus")
                assert abs(r.gfs.value("cross_cap_value")) < 1e-8
                if r.s1 is not None:
                    assert abs(r.s1.value("det_hess_phi")) < 1e-8


def test_regular_point(s0):
    r = classify(s0, (0.7, -0.3))
    assert r.tag == "RegularPoint"


def test_hessian_disagreement_raises(s1p, monkeypatch):
    from transurf.errors import ClosedFormMismatch

    monkeypatch.setattr(PointData, "hessian_closed",
                        lambda self: np.array([[1.0, 0.0], [0.0, 1.0]]))
    with pytest.raises(ClosedFormMismatch):
        classify_S1(PointData(s1p.at((0.0, 0.0))))


def test_independent_condition_deferred():
    cusp = instances.cusp_curve()
    line = instances.line_curve((0.0, 1.0, 0.5))
    s = TranslationSurface.general(cusp, line)
    r = classify(s, (0.0, 0.4))   # alpha(0) = 0, tangents not parallel
    assert r.tag == "IndependentConditionDeferred"
    assert r.dependence == "independent"


def test_framed_route_cuspidal_edge():
    s, p0 = instances.cylinder_pair()
    pj = s.at(p0)
    theta = construct_theta(pj)
    v = classify_dependent_framed(PointData(pj), theta)
    assert v.tag == "CuspidalEdge"
    g = classify_generic_frontal(pj, theta)
    assert g.tag == "CuspidalEdge"


def test_framed_route_unit_speed_shortcut_consistency():
    # tau (kappa - kappa~ t11) != 0 and kappa + kappa~ t11 != 0 at a
    # unit-speed dependent point forces the cuspidal edge
    s, p0 = instances.cylinder_pair()
    r = classify(s, p0)
    assert r.tag == "CuspidalEdge"
    assert "generic route agrees" in r.final.notes


@pytest.mark.parametrize("kind,tag", [
    ("edge", "CuspidalEdge"),
    ("swallowtail", "Swallowtail"),
    ("nonfront", "CuspidalCrossCap"),
])
def test_slide_instances(kind, tag, slide_reports):
    _, _, r = slide_reports[kind]
    assert r.tag == tag
    assert r.framed.tag == tag
    assert r.generic.tag == tag


def test_beaks_cases():
    for mirror in (False, True):
        s, p0 = instances.singular_speed_pair(mirror=mirror)
        r = classify(s, p0)
        assert r.tag == "CuspidalBeaks"
        assert r.generic.tag == "CuspidalBeaks"
        assert any("never a cuspidal lips" in n for n in r.framed.notes)


def test_never_cuspidal_lips_on_random_singular_speed_instances():
    # the Hessian of the density has nonpositive determinant whenever one
    # speed vanishes, so a cuspidal lips can never fire in that regime
    rng = np.random.default_rng(31)
    for _ in range(4):
        rate = float(rng.uniform(0.6, 2.0))
        mirror = bool(rng.integers(2))
        s, p0 = instances.singular_speed_pair(mirror=mirror, slide_rate=rate)
        r = classify(s, p0)
        assert r.tag != "CuspidalLips"
        assert r.framed.value("det_hess_density") < 1e-10
        assert r.generic.tag in ("CuspidalBeaks", "NeverCuspidalLips")


def test_rank_zero_exclusion():
    s, p0 = instances.rank_zero_pair(True)
    r = classify(s, p0)
    assert r.tag == "NeverD4"
    assert r.corank == 2
    assert r.framed.value("hess_density_max") < 1e-8


def test_route_agreement_battery(slide_reports, cylinder_reports):
    reports = [r for (_, _, r) in cylinder_reports]
    reports += [r for (_, _, r) in slide_reports.values()]
    definite = 0
    for r in reports:
        assert r.generic is not None
        if r.framed.tag != "Unclassified":
            assert r.framed.tag == r.generic.tag, (r.framed.tag, r.generic.tag)
            definite += 1
    assert definite >= 5


def test_planar_pair_unresolved_on_both_routes():
    s, p0 = instances.planar_pair()
    r = classify(s, p0)
    assert r.framed.tag == "Unclassified"
    assert r.generic.tag == "Unclassified"
    assert r.tag == "Unclassified"


# -- one evaluation per curve at a classified point ----------------------------

POINT_CASES = {
    "s0": lambda: (verify.surface_for("s0"), (0.0, 0.0)),
    "s1p": lambda: (verify.surface_for("s1p"), (0.0, 0.0)),
    "s1m": lambda: (verify.surface_for("s1m"), (0.0, 0.0)),
    "cylinder": instances.cylinder_pair,
    "planar": instances.planar_pair,
    "rank_zero": instances.rank_zero_pair,
}


@pytest.mark.parametrize("case", sorted(POINT_CASES))
def test_classify_evaluates_each_curve_once_at_the_point(case, monkeypatch):
    # every criterion reads the point's one PointJets; jets that a curve's
    # own evaluator reads from another curve (a slide reads its base) are
    # that evaluator's work and not counted
    s, p0 = POINT_CASES[case]()
    built = []
    original = CurveJets.__init__

    def spy(self, curve, t, order):
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code.co_filename == instances.__file__:
                break
            frame = frame.f_back
        else:
            if not isinstance(t, np.ndarray):
                built.append((curve, t))
        original(self, curve, t, order)

    monkeypatch.setattr(CurveJets, "__init__", spy)
    classify(s, p0)
    at_u = [t for c, t in built if c is s.curve_u and t == p0[0]]
    at_v = [t for c, t in built if c is s.curve_v and t == p0[1]]
    assert (len(at_u), len(at_v)) == (1, 1)


# -- the generic route's stencils against per-point references ---------------

def _density_reference(cs, theta0, p):
    """The signed density at one point, from its own evaluation of each
    curve: the scalar algorithm the stencil batches replace."""
    u, v = float(p[0]), float(p[1])
    ju, jv = CurveJets(cs.curve_u, u, 2), CurveJets(cs.curve_v, v, 2)
    t31 = entry_value(jv.row(3), ju.row(1))
    t32 = entry_value(jv.row(3), ju.row(2))
    h = math.hypot(t31, t32)
    au, av = ju.alpha.value, jv.alpha.value
    if h == 0.0:
        return 0.0
    gap = abs(wrap_pi(math.atan2(-t32, t31) - theta0))
    sgn = 1.0 if gap < math.pi / 2 else -1.0
    return au * av * sgn * h


def _grad_reference(f, p, h=1e-5):
    return np.array([(f((p[0] + h, p[1])) - f((p[0] - h, p[1]))) / (2 * h),
                     (f((p[0], p[1] + h)) - f((p[0], p[1] - h))) / (2 * h)])


def _hessian_reference(f, p, h=1e-3):
    fuu = (f((p[0] + h, p[1])) - 2 * f(p) + f((p[0] - h, p[1]))) / h**2
    fvv = (f((p[0], p[1] + h)) - 2 * f(p) + f((p[0], p[1] - h))) / h**2
    fuv = (f((p[0] + h, p[1] + h)) - f((p[0] + h, p[1] - h))
           - f((p[0] - h, p[1] + h)) + f((p[0] - h, p[1] - h))) / (4 * h**2)
    return np.array([[fuu, fuv], [fuv, fvv]])


def _eta_reference(cs, p):
    ju = CurveJets(cs.curve_u, float(p[0]), 2)
    jv = CurveJets(cs.curve_v, float(p[1]), 2)
    t33 = entry_value(jv.row(3), ju.row(3))
    return np.array([-jv.alpha.value * t33, ju.alpha.value])


def _eta_lambda_reference(cs, f, p, s=1e-4):
    e = _eta_reference(cs, p)

    def g(q):
        eq = _eta_reference(cs, q)
        return (f((q[0] + s * eq[0], q[1] + s * eq[1]))
                - f((q[0] - s * eq[0], q[1] - s * eq[1]))) / (2 * s)

    s2 = 1e-3
    gp = g((p[0] + s2 * e[0], p[1] + s2 * e[1]))
    gm = g((p[0] - s2 * e[0], p[1] - s2 * e[1]))
    return g(p), (gp - gm) / (2 * s2)


def _trace_reference(f, p0):
    """The continuation with six full corrector iterations per step."""
    g0 = _grad_reference(f, p0)
    nrm = float(np.linalg.norm(g0))
    if nrm < 1e-12:
        return None
    tangent = np.array([-g0[1], g0[0]]) / nrm

    def correct(q):
        for _ in range(6):
            g = _grad_reference(f, q)
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                return None
            q = q - g * (f(q) / gn**2)
        return q

    pts = {0: np.asarray(p0, float)}
    for sgn in (+1, -1):
        q = np.asarray(p0, float)
        t_dir = tangent * sgn
        for k in range(1, classify_mod.TRACE_STEPS + 1):
            q_corr = correct(q + classify_mod.TRACE_STEP * t_dir)
            if q_corr is None:
                return None
            pts[sgn * k] = q_corr
            t_new = q_corr - q
            nn = float(np.linalg.norm(t_new))
            if nn > 0:
                t_dir = t_new / nn
            q = q_corr
    return pts


STENCIL_POINTS = {
    "sin_minus_diagonal": lambda: (TranslationSurface.self_translation(
        catalog("sin_curve"), -1).criteria_surface(), (0.5, 0.5)),
    "slide_edge": lambda: instances.slide_pair("edge"),
    "slide_nonfront": lambda: instances.slide_pair("nonfront"),
    "cylinder": instances.cylinder_pair,
}
STENCIL_CASES = ["sin_minus_diagonal", "slide_edge"]


@functools.lru_cache(maxsize=None)
def _reference_trace(case):
    """The surface, point, normal angle and reference trace of a case."""
    cs, p0 = STENCIL_POINTS[case]()
    theta = construct_theta(cs.at(p0)).value
    return cs, p0, theta, _trace_reference(
        lambda p: _density_reference(cs, theta, p), p0)


def _bits(x) -> bytes:
    return np.asarray(x, dtype=float).tobytes()


@pytest.mark.parametrize("case", STENCIL_CASES)
def test_density_stencils_equal_pointwise_reference(case):
    cs, p0 = STENCIL_POINTS[case]()
    pj = cs.at(p0)
    theta0 = construct_theta(pj).value
    lam = classify_mod._GenericDensity(cs, theta0)

    def f(p):
        return _density_reference(cs, theta0, p)

    assert _bits(lam.hessian(p0)) == _bits(_hessian_reference(f, p0))
    # the gradient stencil, with the value: at the point and at an iterate
    # of the corrector
    for q in (p0, np.asarray(p0) + np.array([0.02, -0.01])):
        val, grad = lam.value_and_grad(q)
        assert _bits(val) == _bits(f(q))
        assert _bits(grad) == _bits(_grad_reference(f, q))
    got = classify_mod._eta_lambda_fd(pj, lam)
    assert _bits(got) == _bits(_eta_lambda_reference(cs, f, p0))


@pytest.mark.parametrize("case", ["sin_minus_diagonal", "cylinder"])
def test_corrector_early_exit_keeps_the_trace(case):
    # an iterate that repeats exactly ends the corrector: the trace equals
    # the one of six full iterations per step
    cs, p0, theta0, want = _reference_trace(case)
    lam = classify_mod._GenericDensity(cs, theta0)
    got = classify_mod._trace_singular_curve(lam, p0,
                                             lam.value_and_grad(p0)[1])
    assert want is not None and sorted(got) == sorted(want)
    for k in want:
        assert _bits(got[k]) == _bits(want[k]), k


def _cusp_function_reference(cs, theta0, theta_p0, trace, k, s=1e-4):
    """det(dx/dt, bn, eta bn) at trace[k], every point from its own
    evaluation of each curve: the scalar algorithm of the generic route."""
    def theta_near(q, ref):
        ju = CurveJets(cs.curve_u, float(q[0]), 2)
        jv = CurveJets(cs.curve_v, float(q[1]), 2)
        t31 = entry_value(jv.row(3), ju.row(1))
        t32 = entry_value(jv.row(3), ju.row(2))
        return align_pi(math.atan2(-t32, t31), ref)

    def bn_value(theta, u):
        ju = CurveJets(cs.curve_u, float(u), 2)
        n1, n2 = (np.array([c.value for c in ju.row(i)]) for i in (1, 2))
        return math.sin(theta) * n1 + math.cos(theta) * n2

    q = trace[k]
    dq = (trace[k + 1] - trace[k - 1]) / 2.0
    dx = cs.at(q, order=2).dx_matrix()
    dx_dt = dx[:, 0] * dq[0] + dx[:, 1] * dq[1]
    th_q = theta_p0 if k == 0 else theta_near(q, theta0)
    bn = bn_value(th_q, q[0])
    e = _eta_reference(cs, q)
    qp = (q[0] + s * e[0], q[1] + s * e[1])
    qm = (q[0] - s * e[0], q[1] - s * e[1])
    dbn = (bn_value(theta_near(qp, th_q), qp[0])
           - bn_value(theta_near(qm, th_q), qm[0])) / (2 * s)
    return float(np.linalg.det(np.column_stack([dx_dt, bn, dbn])))


@pytest.mark.parametrize("case,name", [
    ("cylinder", "cusp_function"),
    ("slide_nonfront", "cusp_function_derivative")])
def test_cusp_function_equals_pointwise_reference(case, name, slide_reports,
                                                  cylinder_reports):
    # the generic route's cusp function reads its trace points as one batch
    # and their neighbours along eta as another
    cs, p0, theta, trace = _reference_trace(case)
    rep = {"cylinder": cylinder_reports[0][2],
           "slide_nonfront": slide_reports["nonfront"][2]}[case]

    def phi(k):
        return _cusp_function_reference(cs, theta, theta, trace, k)

    want = (phi(0) if name == "cusp_function" else
            (phi(1) - phi(-1)) / float(np.linalg.norm(trace[1] - trace[-1])))
    assert _bits(rep.generic.value(name)) == _bits(want)
