import functools
import math
import random
import sys

import numpy as np
import pytest

from transurf import classify as classify_mod
from transurf import surface as surface_mod
from transurf import instances, verify
from transurf.classify import (PHI_DEGREE, CriterionValue, PointData,
                               Verdict, classify, classify_all,
                               classify_S0, classify_S1,
                               classify_dependent_framed,
                               classify_generic_frontal)
from transurf.curves import CurveJets, FramedCurve, catalog
from transurf.errors import NotNonDegenerate, TransurfError
from transurf.framedsurf import align_pi, construct_theta, wrap_pi
from transurf.framefield import entry_value
from transurf.jets import BiJet
from transurf.report import classification_doc, dumps
from transurf.surface import TranslationSurface, find_singular_points

PI = math.pi


def phi_closed_bijet(d: PointData) -> BiJet:
    """Expansion of phi in frame-matrix entries and curvatures."""
    pj, degree = d.pj, PHI_DEGREE
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
    assert PointData(s0.at((0.0, 0.0))).rank == 1
    assert PointData(s0.at((0.5, 0.7))).rank == 2
    rz, p0 = instances.rank_zero_pair(False)
    assert PointData(rz.at(p0)).rank == 0


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


@pytest.mark.parametrize("grid", [24, 32, 40, 48])
def test_one_route_alone_gives_no_definite_verdict(grid):
    # on the diagonal of the self_s1p plus pair the framed route says
    # Unclassified, and the generic route, on the jets at the point, finds
    # a frontal fold wherever theta extends: no sample carries a candidate
    # of the generic route
    s = TranslationSurface.self_translation(catalog("self_s1p"), +1)
    window = (-3.14159, 3.14159, -3.14159, 3.14159)
    reps = classify_all(s, [q.p for q in
                            find_singular_points(s, window, grid_n=grid)])
    assert "CuspidalCrossCap" not in {r.tag for r in reps}
    assert [n for r in reps for n in r.final.notes
            if n.startswith("generic route alone says")] == []


def test_generic_candidate_alone_stays_a_note(monkeypatch):
    # where the framed route says Unclassified, a definite generic verdict
    # is a note on the Unclassified verdict
    s, p0 = instances.planar_pair()

    def generic(data, pts):
        return [Verdict("CuspidalCrossCap", "generic_frontal", [
            CriterionValue("cusp_function_derivative", 1.0, 1e-7, True)])
            for _ in pts]

    monkeypatch.setattr(classify_mod, "classify_generic_frontal", generic)
    r = classify(s, p0)
    assert r.framed.tag == "Unclassified"
    assert r.generic.tag == "CuspidalCrossCap"
    assert r.tag == "Unclassified"
    assert ("generic route alone says CuspidalCrossCap "
            "(cusp_function_derivative=1); the framed route does not "
            "confirm it") in r.final.notes


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
    g, = classify_generic_frontal([PointData(pj)], [theta])
    assert g.tag == "CuspidalEdge"


def test_framed_route_unit_speed_shortcut_consistency():
    # tau (kappa - kappa~ t11) != 0 and kappa + kappa~ t11 != 0 at a
    # unit-speed dependent point forces the cuspidal edge
    s, p0 = instances.cylinder_pair()
    r = classify(s, p0)
    assert r.tag == "CuspidalEdge"
    assert "generic route agrees" in r.final.notes


@pytest.mark.parametrize("build,args", [("slide_pair", ["edge"]),
                                        ("planar_pair", [])])
def test_unit_speed_gate_reads_the_point_first(build, args, monkeypatch):
    # both curves pass the pointwise unit-speed test at these points, so the
    # 33-sample arc-length scan of the whole curve is never run
    s, p0 = getattr(instances, build)(*args)
    scans = []
    is_arc_length = FramedCurve.is_arc_length

    def spy(self, arc_tol):
        scans.append(self)
        return is_arc_length(self, arc_tol)

    monkeypatch.setattr(FramedCurve, "is_arc_length", spy)
    r = classify(s, p0)
    assert not scans
    assert r.gfs.value("frenet_t21") is not None


@pytest.mark.parametrize("build,args", [
    ("cylinder_pair", []),
    ("slide_pair", ["edge"]),
    ("slide_pair", ["swallowtail"]),
    ("slide_pair", ["nonfront"]),
    ("singular_speed_pair", [False]),
    ("singular_speed_pair", [True]),
    ("rank_zero_pair", []),
])
def test_agreement_note_stays_off_the_framed_verdict(build, args):
    # the merged verdict is a copy of the framed one: the note of the merge
    # is on the final verdict only, not in the framed route's report
    rep = classify(*getattr(instances, build)(*args))
    assert "generic route agrees" in rep.final.notes
    assert "generic route agrees" not in rep.framed.notes
    doc = classification_doc({}, rep)["routes"]["framed_surface"]
    assert "generic route agrees" not in doc["notes"]


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
    # every criterion reads the point's one PointJets, a batch of one point
    # whose lanes the criteria take, and no jets are evaluated at the point
    # on their own (a batch of one lane evaluates through its float twin);
    # a slide reads its base only as batches
    s, p0 = POINT_CASES[case]()
    scalar, pair = [], []
    original, original_pair = CurveJets.__init__, surface_mod._pair_jets

    def spy(self, curve, t, order):
        if (not isinstance(t, np.ndarray)
                and sys._getframe(1).f_code.co_name != "_one"):
            scalar.append(self)
        original(self, curve, t, order)

    def spy_pair(s_, p, order):
        if order == 6:
            pair.append(tuple(np.ravel(x).tolist() for x in p))
        return original_pair(s_, p, order)

    monkeypatch.setattr(CurveJets, "__init__", spy)
    monkeypatch.setattr(surface_mod, "_pair_jets", spy_pair)
    classify(s, p0)
    assert [j for j in scalar if j._lanes is None and (
        (j.curve is s.curve_u and j.t == p0[0])
        or (j.curve is s.curve_v and j.t == p0[1]))] == []
    assert pair.count(([p0[0]], [p0[1]])) == 1


# -- the generic route against pointwise finite-difference references ------
#
# The references difference the signed density of the jet route's criteria
# and trace its singular curve with a predictor-corrector, each point from
# its own evaluation of each curve.

TRACE_STEP = 0.02   # predictor step of the reference continuation
TRACE_STEPS = 2     # reference continuation steps each way from the point


def _density_reference(cs, theta0, p):
    """The signed density alpha alpha~ Lambda at one point: the hypot of
    (t31, t32), signed by mod-pi alignment of the canonical angle with
    theta0."""
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
    """The continuation of the singular curve f = 0 through p0, both ways:
    the points k = -TRACE_STEPS..TRACE_STEPS, k = 1 along grad f rotated
    by a quarter turn, each corrected by six Newton iterations."""
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
        for k in range(1, TRACE_STEPS + 1):
            q_corr = correct(q + TRACE_STEP * t_dir)
            if q_corr is None:
                return None
            pts[sgn * k] = q_corr
            t_new = q_corr - q
            nn = float(np.linalg.norm(t_new))
            if nn > 0:
                t_dir = t_new / nn
            q = q_corr
    return pts


INSTANCE_POINTS = {
    "cylinder": instances.cylinder_pair,
    "slide_edge": lambda: instances.slide_pair("edge"),
    "slide_swallowtail": lambda: instances.slide_pair("swallowtail"),
    "slide_nonfront": lambda: instances.slide_pair("nonfront"),
    "beaks": lambda: instances.singular_speed_pair(False),
    "beaks_mirror": lambda: instances.singular_speed_pair(True),
    "rank_zero": instances.rank_zero_pair,
    "planar": instances.planar_pair,
}


@functools.lru_cache(maxsize=None)
def _reference_trace(case):
    """The surface, point, normal angle and reference trace of a case."""
    cs, p0 = INSTANCE_POINTS[case]()
    theta = construct_theta(cs.at(p0)).value
    return cs, p0, theta, _trace_reference(
        lambda p: _density_reference(cs, theta, p), p0)


def _gap(got, want) -> float:
    return abs(got - want) / max(1.0, abs(want))


@pytest.mark.parametrize("case", sorted(INSTANCE_POINTS))
def test_generic_density_criteria_match_finite_differences(case):
    # relative to max(1, |reference|), the gaps at these points are at most
    # 3e-11 (gradient), 8e-9 (eta Lambda), 2e-12 (eta eta Lambda) and 1e-6
    # (det Hess): the truncation errors of the references' steps
    cs, p0 = INSTANCE_POINTS[case]()
    theta = construct_theta(cs.at(p0)).value
    rep = classify(cs, p0)

    def f(p):
        return _density_reference(cs, theta, p)

    eta_lam, eta_eta_lam = _eta_lambda_reference(cs, f, p0)
    want = {"grad_density": (float(np.linalg.norm(_grad_reference(f, p0))),
                             1e-9),
            "eta_density": (eta_lam, 1e-7),
            "eta_eta_density": (eta_eta_lam, 1e-10),
            "det_hess_density": (float(np.linalg.det(
                _hessian_reference(f, p0))), 1e-5)}
    seen = [c.name for c in rep.generic.conditions if c.name in want]
    assert seen[:2] == ["grad_density", "eta_density"]
    for name in seen:
        value, tol = want[name]
        assert _gap(rep.generic.value(name), value) < tol, name


def _cusp_function_reference(cs, theta0, trace, k, s=1e-4):
    """det(dx/dt, bn, eta bn) at trace[k], every point from its own
    evaluation of each curve, with theta from ``construct_theta`` aligned
    with theta0 and dx/dt the central difference of the trace: TRACE_STEP
    times the cusp function at unit speed."""
    def theta_near(q, ref):
        pj = cs.at((float(q[0]), float(q[1])))
        return align_pi(construct_theta(pj).value, ref)

    def bn_value(theta, u):
        ju = CurveJets(cs.curve_u, float(u), 2)
        n1, n2 = (np.array([c.value for c in ju.row(i)]) for i in (1, 2))
        return math.sin(theta) * n1 + math.cos(theta) * n2

    q = trace[k]
    dq = (trace[k + 1] - trace[k - 1]) / 2.0
    dx = cs.at(q, order=2).dx_matrix()
    dx_dt = dx[:, 0] * dq[0] + dx[:, 1] * dq[1]
    th_q = theta_near(q, theta0)
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
    # the trace points of the nonfront slide lie where (t31, t32) vanishes
    # to roundoff, so the reference reads theta there off its limit
    # extension; the canonical angle there is noise
    cs, p0, theta, trace = _reference_trace(case)
    rep = {"cylinder": cylinder_reports[0][2],
           "slide_nonfront": slide_reports["nonfront"][2]}[case]

    def phi(k):
        return _cusp_function_reference(cs, theta, trace, k) / TRACE_STEP

    want = (phi(0) if name == "cusp_function" else
            (phi(1) - phi(-1)) / float(np.linalg.norm(trace[1] - trace[-1])))
    assert rep.generic.value(name) == pytest.approx(want, rel=1e-4)


# -- every point of a scan in lockstep ----------------------------------------

W = 3.14159
SCANS = {
    "sin_plus_g16": (lambda: verify.surface_for("sin_plus"), (-PI, PI) * 2,
                     16),
    "sin_minus_g24": (lambda: verify.surface_for("sin_minus"), (-PI, PI) * 2,
                      24),
    "self_s1p_plus_g24": (lambda: verify.surface_for("self_s1p_plus"),
                          (-W, W) * 2, 24),
    "self_s1p_minus_g24": (lambda: verify.surface_for("self_s1p_minus"),
                           (-W, W) * 2, 24),
    "s0": (lambda: verify.surface_for("s0"), (-2, 2, -2, 2), 24),
    "s1p": (lambda: verify.surface_for("s1p"), (-2, 2, -2, 2), 24),
    "s1m": (lambda: verify.surface_for("s1m"), (-1.5, 1.5, -1.5, 1.5), 24),
}


def _scan_points(case, surface=None):
    make, window, grid = SCANS[case]
    s = surface or make()
    pts = find_singular_points(s, window, grid_n=grid)
    return s, [q.p for q in sorted(pts, key=lambda r: (r.u, r.v))]


def _doc(rep) -> str:
    return dumps(classification_doc({}, rep))


@pytest.mark.parametrize("case", sorted(SCANS))
def test_classify_all_equals_one_point_at_a_time(case):
    # documents, and every field of every report
    s, pts = _scan_points(case)
    random.Random(7).shuffle(pts)
    one = [classify(s, p) for p in pts]
    want = [_doc(r) for r in one]
    got = classify_all(s, pts)
    assert [_doc(r) for r in got] == want and got == one
    assert ([_doc(r) for r in classify_all(s, pts[::-1])] == want[::-1])


def _poisoned(bad_values):
    """The sin curve whose frame raises NotNonDegenerate, naming the first
    such lane, at the parameters ``bad_values`` (bitwise)."""
    base = catalog("sin_curve")
    bad = np.array(sorted(bad_values), dtype=float)

    def frame(t, order):
        hit = np.isin(np.atleast_1d(t), bad)
        if hit.any():
            raise NotNonDegenerate("poisoned", float(np.atleast_1d(t)[hit][0]))
        return base._frame(t, order)

    curve = FramedCurve(base._gamma, frame, base.domain, name="poisoned",
                        period=base.period, validate=False)
    return TranslationSurface.self_translation(curve, -1)


def _error_of(fn):
    with pytest.raises(TransurfError) as info:
        fn()
    exc = info.value
    return type(exc), str(exc), getattr(exc, "t", None)


def test_propagated_error_is_the_first_failing_point_of_the_loop():
    # points 5 and 26 fail when they are first evaluated: the batch of all
    # the points meets both errors, and the points are then classified one
    # at a time, so classify_all raises the error of whichever of the two
    # comes first in the list, as the one-point-at-a-time loop does
    s, pts = _scan_points("sin_minus_g24")
    bad = _poisoned({pts[5][0], pts[26][0]})
    for order in (pts, pts[::-1]):
        loop = _error_of(lambda: [classify(bad, p) for p in order])
        assert _error_of(lambda: classify_all(bad, order)) == loop
    assert _error_of(lambda: classify_all(bad, pts))[2] == pts[5][0]
    assert _error_of(lambda: classify_all(bad, pts[::-1]))[2] == pts[26][0]


def test_scan_classification_builds_one_point_data_per_batch(monkeypatch):
    # classify_all builds one PointData over all the points, and each point
    # takes its lane of it, with no evaluation; the dependence test of each
    # point reads the entries the batch formed
    s, pts = _scan_points("sin_minus_g24")
    built, tested = [], []
    init, dependence_test = PointData.__init__, classify_mod.dependence_test

    def spy_init(self, pj, *lane):
        if not lane:
            built.append(tuple(np.ravel(x).tolist() for x in pj.p))
        init(self, pj, *lane)

    def spy_dependence(pj, t3=None):
        tested.append((pj.p, t3 is not None))
        return dependence_test(pj, t3)

    monkeypatch.setattr(PointData, "__init__", spy_init)
    monkeypatch.setattr(classify_mod, "dependence_test", spy_dependence)
    classify_all(s, pts)
    assert built == [tuple(list(x) for x in zip(*pts))]
    assert tested == [(tuple(p), True) for p in pts]


def test_scan_classification_reads_entries_and_rank_once(monkeypatch):
    # the frame-matrix entries are read for the batch, never at one point,
    # and the rank of dx once per point: the generic route's front test
    # reads the point's rank
    s, pts = _scan_points("sin_minus_g24")
    entries, ranked = [], []
    t, dx_rank = surface_mod.PointJets.t, surface_mod.PointJets.dx_rank

    def spy_t(self, i, j):
        entries.append(np.ndim(self.p[0]))
        return t(self, i, j)

    def spy_rank(self):
        ranked.append(self.p)
        return dx_rank(self)

    monkeypatch.setattr(surface_mod.PointJets, "t", spy_t)
    monkeypatch.setattr(surface_mod.PointJets, "dx_rank", spy_rank)
    reports = classify_all(s, pts)
    assert entries and set(entries) == {1}
    assert ranked == [tuple(p) for p in pts]
    assert sum(r.generic is not None for r in reports) > 0


@pytest.mark.parametrize("case", sorted(INSTANCE_POINTS))
def test_instance_batch_reports_equal_one_point_reports(case):
    # every field: the instance point in a batch with a point beside it and
    # with itself
    s, p0 = INSTANCE_POINTS[case]()
    pts = [p0, (p0[0] + 0.05, p0[1] - 0.05), p0]
    assert classify_all(s, pts) == [classify(s, p) for p in pts]


@pytest.mark.parametrize("case", ["sin_plus_g16", "sin_minus_g24"])
def test_scan_classification_makes_few_frame_evaluations(case):
    # one evaluation per round of all the points (the per-point loop made
    # 168 and 177), and x- reads -gamma off gamma's lanes
    base = catalog("sin_curve")
    calls = {"frame": 0, "gamma": 0}

    def counted(name, fn):
        def wrapped(t, order):
            calls[name] += 1
            return fn(t, order)
        return wrapped

    curve = FramedCurve(counted("gamma", base._gamma),
                        counted("frame", base._frame), base.domain,
                        period=base.period, validate=False)
    sign = +1 if "plus" in case else -1
    s, pts = _scan_points(case, TranslationSurface.self_translation(curve,
                                                                    sign))
    calls.update(frame=0, gamma=0)
    classify_all(s, pts)
    assert calls["frame"] <= 60
    assert calls["gamma"] <= calls["frame"]
