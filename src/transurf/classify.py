"""Singularity classification at singular points of translation surfaces.

Three routes, in order:

1. direct criteria on the surface invariants: cross cap via the first
   derivative of phi = det(xi x, eta x, eta eta x), then the S1± pair via
   the Hessian of phi (closed forms cross-checked against jet
   differentiation of phi);
2. the framed-surface route through the normal-angle field: the four
   regimes split by (alpha(u0) = 0?, alpha~(v0) = 0?) cover cuspidal edge,
   swallowtail, cuspidal cross cap, the beaks exclusions and the rank-zero
   exclusion;
3. a generic frontal route (singular-curve continuation plus finite
   differences of the signed area density) used to cross-validate route 2.

Every strict inequality is realized as |value| > crit_tol and every equality
hypothesis as |value| < hyp_tol, with raw values reported beside thresholds.
Routes that disagree yield an Unclassified verdict carrying both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .curves import FramedCurve
from .errors import ClosedFormMismatch
from .framedsurf import (ThetaPoint, align_pi, bn_value,
                         closed_form_density_partials, construct_theta,
                         directional_derivative, discriminant, front_test,
                         wrap_pi)
from .jets import BiJet, det3
from .surface import TranslationSurface, dependence_test, singular_conditions

GEN_TOL = 1e-4   # threshold for finite-difference quantities (generic route)
TRACE_STEP = 0.02   # predictor step of the singular-curve continuation
TRACE_STEPS = 2     # continuation steps each way from the point
SPEED_CONST_TOL = 1e-9   # |alpha'| bound for a constant-speed curve


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionValue:
    name: str
    value: float
    threshold: float
    satisfied: bool

    def row(self):
        return (self.name, self.value, self.threshold, self.satisfied)


@dataclass
class Verdict:
    tag: str
    route: str
    conditions: list[CriterionValue] = dc_field(default_factory=list)
    hypotheses_checked: list[str] = dc_field(default_factory=list)
    notes: list[str] = dc_field(default_factory=list)

    def value(self, name: str) -> float:
        for c in self.conditions:
            if c.name == name:
                return c.value
        raise KeyError(name)


@dataclass
class ClassificationReport:
    point: tuple[float, float]
    conditions: tuple[str, ...]
    dependence: str
    corank: int
    final: Verdict
    gfs: Verdict | None = None
    s1: Verdict | None = None
    framed: Verdict | None = None
    generic: Verdict | None = None
    notes: list[str] = dc_field(default_factory=list)

    @property
    def tag(self) -> str:
        return self.final.tag

    def routes(self) -> list[Verdict]:
        return [v for v in (self.gfs, self.s1, self.framed, self.generic) if v]


def _crit(name, value, tol, nonzero=True) -> CriterionValue:
    ok = abs(value) > tol if nonzero else abs(value) < tol
    return CriterionValue(name, float(value), tol, bool(ok))


# ---------------------------------------------------------------------------
# shared point data
# ---------------------------------------------------------------------------

class PointData:
    """Curvatures, frame-matrix entries and phi jets at one point."""

    def __init__(self, cs: TranslationSurface, p0: tuple[float, float],
                 degree: int = 3):
        self.s = cs
        self.p0 = p0
        u, v = p0
        self.ca = cs.curve_u.curvature(u, degree + 1)
        self.cb = cs.curve_v.curvature(v, degree + 1)
        self.t = {(i, j): cs.field.partial_value(i, j, u, v)
                  for i in (1, 2, 3) for j in (1, 2, 3)}
        self.au = self.ca.alpha.value
        self.av = self.cb.alpha.value
        self.degree = degree
        self._phi = None

    # -- phi machinery -------------------------------------------------------

    def phi_bijet(self) -> BiJet:
        """phi = det(xi x, eta x, eta eta x) with xi = d_u and the null field
        eta = -alpha~ d_u + alpha t33 d_v, differentiated as a field."""
        if self._phi is not None:
            return self._phi
        cs, (u, v), degree = self.s, self.p0, self.degree
        ff = cs.field
        xu = cs.x_partial_jets(self.p0, 1, 0, degree)
        xv = cs.x_partial_jets(self.p0, 0, 1, degree)
        xuu = cs.x_partial_jets(self.p0, 2, 0, degree)
        xvv = cs.x_partial_jets(self.p0, 0, 2, degree)
        t33 = ff.t_bijet(3, 3, u, v, degree)
        t33u = ff.t_bijet(3, 3, u, v, degree, du=1)
        t33v = ff.t_bijet(3, 3, u, v, degree, dv=1)
        al = BiJet.from_u_jet(self.ca.alpha, v, degree)
        alu = BiJet.from_u_jet(self.ca.alpha.differentiate(), v, degree)
        at = BiJet.from_v_jet(self.cb.alpha, u, degree)
        atv = BiJet.from_v_jet(self.cb.alpha.differentiate(), u, degree)
        eta_u, eta_v = -at, al * t33
        etax = [eta_u * xu[c] + eta_v * xv[c] for c in range(3)]
        detax_u = [-at * xuu[c] + (alu * t33 + al * t33u) * xv[c]
                   for c in range(3)]
        detax_v = [-atv * xu[c] + (al * t33v) * xv[c] + (al * t33) * xvv[c]
                   for c in range(3)]
        eex = [eta_u * detax_u[c] + eta_v * detax_v[c] for c in range(3)]
        self._phi = det3(xu, etax, eex)
        return self._phi

    def cross_cap_value(self) -> float:
        """m (m~ t21 - n~ t11) + n (m~ t22 - n~ t12)."""
        t = self.t
        m, n = self.ca.m.value, self.ca.n.value
        mt, nt = self.cb.m.value, self.cb.n.value
        return (m * (mt * t[2, 1] - nt * t[1, 1])
                + n * (mt * t[2, 2] - nt * t[1, 2]))

    def hessian_closed(self) -> np.ndarray:
        """Closed-form Hessian of phi at a dependent singular point."""
        t = self.t
        l, m, n = self.ca.l.value, self.ca.m.value, self.ca.n.value
        m_u, n_u = self.ca.m.deriv(1), self.ca.n.deriv(1)
        lt, mt, nt = self.cb.l.value, self.cb.m.value, self.cb.n.value
        mt_v, nt_v = self.cb.m.deriv(1), self.cb.n.deriv(1)
        al, at = self.au, self.av
        al_u = self.ca.alpha.deriv(1)
        at_v = self.cb.alpha.deriv(1)
        t33 = t[3, 3]
        t11, t12, t21, t22 = t[1, 1], t[1, 2], t[2, 1], t[2, 2]

        puu = al**3 * at**2 * (
            -at * (l * (m * m + n * n) - n * m_u + m * n_u)
            + t33 * al * (l * (n * (-t21 * mt + t11 * nt)
                               + m * (t22 * mt - t12 * nt))
                          + (t21 * mt - t11 * nt) * m_u
                          + (t22 * mt - t12 * nt) * n_u)
            + 8 * t33 * ((m * t21 + n * t22) * mt
                         - (m * t11 + n * t12) * nt) * al_u)
        puv = t33 * at * al**2 * (
            at**2 * al * (l * (m * (t11 * mt + t21 * nt)
                               + n * (t12 * mt + t22 * nt))
                          - (t12 * mt + t22 * nt) * m_u
                          + (t11 * mt + t21 * nt) * n_u)
            - at * al**2 * (m * (t21 * (lt * nt - mt_v)
                                 + t11 * (lt * mt + nt_v))
                            + n * (t22 * (lt * nt - mt_v)
                                   + t12 * (lt * mt + nt_v)))
            + 2 * ((m * t21 + n * t22) * mt
                   - (m * t11 + n * t12) * nt) * al**2 * at_v
            + 3 * (n * (t11 * mt + t21 * nt)
                   - m * (t12 * mt + t22 * nt)) * at**2 * al_u)
        pvv = t33 * at**2 * al**3 * (
            t33 * al * (lt * (mt * mt + nt * nt) - nt * mt_v + mt * nt_v)
            + n * (at * (t11 * (-lt * nt + mt_v) + t21 * (lt * mt + nt_v))
                   + 6 * (t11 * mt + t21 * nt) * at_v)
            + m * (-at * (t12 * (-lt * nt + mt_v) + t22 * (lt * mt + nt_v))
                   - 6 * (t12 * mt + t22 * nt) * at_v))
        return np.array([[puu, puv], [puv, pvv]])

    def independence_vector(self) -> tuple[float, float]:
        """Normal-plane components of eta eta x at the point (the linear
        independence witness for the S1+ test), normalized by -alpha alpha~
        so the unit-speed reduction reads kappa + kappa~ t11."""
        t = self.t
        m, n = self.ca.m.value, self.ca.n.value
        mt, nt = self.cb.m.value, self.cb.n.value
        al, at = self.au, self.av
        s = -al * at
        return (s * (at * m + al * (mt * t[1, 1] + nt * t[2, 1])),
                s * (at * n + al * (mt * t[1, 2] + nt * t[2, 2])))

    # -- unit-speed shortcut data ---------------------------------------------

    def frenet_gate(self) -> bool:
        a, b = self.s.curve_u, self.s.curve_v
        if a.frenet is None or b.frenet is None:
            return False
        u, v = self.p0
        tols = self.s.tols
        if a.is_arc_length(tols.arc_tol) and b.is_arc_length(tols.arc_tol):
            return True
        return (a.unit_speed_gate(u, tols.hyp_tol)
                and b.unit_speed_gate(v, tols.hyp_tol))

    def frenet_values(self) -> dict[str, float]:
        u, v = self.p0
        a, b = self.s.curve_u, self.s.curve_v
        ka = a.frenet.kappa(u, 2).value
        ta = a.frenet.tau(u, 2).value
        kb = b.frenet.kappa(v, 2).value
        tb = b.frenet.tau(v, 2).value
        t11 = self.t[1, 1]
        return {
            "kappa": ka, "tau": ta, "kappa_b": kb, "tau_b": tb,
            "t11": t11, "t21": self.t[2, 1],
            "s1_discriminant": (ta * tb * (ka * ka + kb * kb) * t11
                                - ka * kb * (ta * ta + tb * tb)),
        }


# ---------------------------------------------------------------------------
# rank / corank
# ---------------------------------------------------------------------------

def corank(s: TranslationSurface, p0: tuple[float, float]) -> int | str:
    """1, 2, or "regular" from the numerical rank of dx at p0."""
    rank = s.dx_rank(p0)
    if rank == 2:
        return "regular"
    return 2 - rank


# ---------------------------------------------------------------------------
# route 1: direct criteria
# ---------------------------------------------------------------------------

def classify_S0(cs: TranslationSurface, p0: tuple[float, float],
                data: PointData | None = None) -> Verdict:
    """Cross-cap test at a dependent singular point."""
    tols = cs.tols
    d = data or PointData(cs, p0)
    dep = dependence_test(cs, p0)
    alpha_prod = d.au * d.av
    s0val = d.cross_cap_value()
    phi = d.phi_bijet()
    xi_phi = phi.part(1, 0)
    t33 = d.t[3, 3]
    # at a dependent singular point, xi phi = alpha^4 alpha~^2 t33^3 * value
    predicted = d.au**4 * d.av**2 * t33**3 * s0val

    conds = [
        _crit("alpha_product", alpha_prod, tols.crit_tol),
        _crit("t33_magnitude_deficit", 1.0 - abs(t33), tols.dep_tol, nonzero=False),
        _crit("cross_cap_value", s0val, tols.crit_tol),
        CriterionValue("xi_phi", xi_phi, tols.crit_tol,
                       abs(xi_phi) > tols.crit_tol),
    ]
    hyps = ["dependent condition", "alpha(u0) alpha~(v0) != 0", "|t33| = 1"]
    notes = []
    if abs(xi_phi - predicted) > 1e-6 * max(1.0, abs(xi_phi)):
        notes.append(f"xi_phi jets {xi_phi:.6g} vs closed form {predicted:.6g}")
    verdict_ok = (dep.dependent and conds[0].satisfied and conds[1].satisfied
                  and conds[2].satisfied)
    v = Verdict("CrossCap" if verdict_ok else "NotCrossCap", "gfs",
                conds, hyps, notes)
    if d.frenet_gate():
        fr = d.frenet_values()
        v.conditions.append(_crit("frenet_t21", fr["t21"], tols.crit_tol))
        v.hypotheses_checked.append("unit-speed shortcut available")
    return v


def classify_S1(cs: TranslationSurface, p0: tuple[float, float],
                data: PointData | None = None) -> Verdict:
    """S1± test: sign of det Hess phi plus the independence witness."""
    tols = cs.tols
    d = data or PointData(cs, p0)
    dep = dependence_test(cs, p0)
    s0val = d.cross_cap_value()
    Hc = d.hessian_closed()
    Hj = d.phi_bijet().hessian
    scale = max(1.0, float(np.max(np.abs(Hj))))
    if float(np.max(np.abs(Hc - Hj))) > tols.hess_tol * scale:
        raise ClosedFormMismatch(
            f"phi Hessian closed form {Hc.tolist()} vs jets {Hj.tolist()}")
    det = float(Hc[0, 0] * Hc[1, 1] - Hc[0, 1] ** 2)
    w = d.independence_vector()
    wnorm = math.hypot(*w)

    conds = [
        _crit("alpha_product", d.au * d.av, tols.crit_tol),
        _crit("t33_magnitude_deficit", 1.0 - abs(d.t[3, 3]), tols.dep_tol,
              nonzero=False),
        _crit("cross_cap_value", s0val, tols.hyp_tol, nonzero=False),
        CriterionValue("det_hess_phi", det, tols.crit_tol,
                       abs(det) > tols.crit_tol),
        CriterionValue("independence_vector_1", w[0], tols.crit_tol,
                       wnorm > tols.crit_tol),
        CriterionValue("independence_vector_2", w[1], tols.crit_tol,
                       wnorm > tols.crit_tol),
    ]
    hyps = ["dependent condition", "alpha(u0) alpha~(v0) != 0",
            "critical point of phi", "Hessian closed form == jets"]
    notes = []
    tag = "NotS1"
    base_ok = (dep.dependent and conds[0].satisfied and conds[1].satisfied
               and conds[2].satisfied)
    if base_ok and det < -tols.crit_tol and wnorm > tols.crit_tol:
        tag = "S1Plus"
    elif base_ok and det > tols.crit_tol:
        tag = "S1Minus"
    v = Verdict(tag, "gfs", conds, hyps, notes)
    if d.frenet_gate():
        fr = d.frenet_values()
        v.conditions.append(CriterionValue(
            "frenet_s1_discriminant", fr["s1_discriminant"], tols.crit_tol,
            abs(fr["s1_discriminant"]) > tols.crit_tol))
        v.conditions.append(_crit("frenet_t21", fr["t21"], tols.hyp_tol,
                                  nonzero=False))
        v.hypotheses_checked.append("unit-speed shortcut available")
        if (abs(fr["s1_discriminant"]) > tols.crit_tol and abs(det) > tols.crit_tol
                and math.copysign(1, fr["s1_discriminant"]) != math.copysign(1, det)):
            notes.append("unit-speed shortcut disagrees in sign with det Hess phi")
    return v


# ---------------------------------------------------------------------------
# route 2: framed-surface criteria
# ---------------------------------------------------------------------------

def _alpha_identically_zero_derivative(curve: FramedCurve) -> bool:
    lo, hi = curve.domain
    for t in np.linspace(lo, hi, 64):
        if abs(curve.curvature(float(t), 1).alpha.deriv(1)) > SPEED_CONST_TOL:
            return False
    return True


def classify_dependent_framed(cs: TranslationSurface, pt: ThetaPoint,
                              p0: tuple[float, float],
                              data: PointData | None = None) -> Verdict:
    """Framed-surface route: regimes split by vanishing of the two speeds."""
    tols = cs.tols
    d = data or PointData(cs, p0)
    if not pt.available:
        return Verdict("Unclassified", "framed_surface", [],
                       ["normal angle available"],
                       [f"theta_unavailable: {pt.reason}"])
    th = pt.require()
    u0, v0 = p0
    sth, cth = math.sin(pt.value), math.cos(pt.value)
    l, m, n = d.ca.l.value, d.ca.m.value, d.ca.n.value
    mt, nt = d.cb.m.value, d.cb.n.value
    l_u = d.ca.l.deriv(1)
    t = d.t
    tu, tv = th.part(1, 0), th.part(0, 1)
    tuu, tuv, tvv = th.part(2, 0), th.part(1, 1), th.part(0, 2)
    al, at = d.au, d.av
    al_u = d.ca.alpha.deriv(1)
    at_v = d.cb.alpha.deriv(1)

    disc = discriminant(cs, pt, p0, degree=min(3, th.degree))
    cf = closed_form_density_partials(cs, pt, p0)
    etaLam = directional_derivative(disc.Lambda, disc.eta)
    eta_eta_lam = directional_derivative(
        directional_derivative(disc.lam, disc.eta), disc.eta).value

    P = (mt * t[1, 2] + nt * t[2, 2]) * sth - (mt * t[1, 1] + nt * t[2, 1]) * cth
    Q = -n * sth + m * cth
    front_val = al * tv - at * t[3, 3] * (tu - l)
    edge_val = at * Q - al * P

    conds = [
        CriterionValue("Lambda_u", cf["Lambda_u"], tols.crit_tol, True),
        CriterionValue("Lambda_v", cf["Lambda_v"], tols.crit_tol, True),
        CriterionValue("theta", pt.value, 0.0, True),
    ]
    hyps = [f"theta provenance: {pt.provenance}"]
    notes = []

    jet_grad = (disc.Lambda.part(1, 0), disc.Lambda.part(0, 1))
    if (abs(jet_grad[0] - cf["Lambda_u"]) > tols.lemma_tol * max(1, abs(jet_grad[0]))
            or abs(jet_grad[1] - cf["Lambda_v"]) > tols.lemma_tol * max(1, abs(jet_grad[1]))):
        notes.append("density gradient: closed form vs jets disagree")

    case_i = abs(al) > tols.hyp_tol and abs(at) > tols.hyp_tol
    case_ii = abs(al) <= tols.hyp_tol < abs(at)
    case_iii = abs(at) <= tols.hyp_tol < abs(al)

    if case_i:
        hyps.append("regime: both speeds nonzero")
        nondeg = math.hypot(cf["Lambda_u"], cf["Lambda_v"]) > tols.crit_tol
        conds.append(_crit("front_condition", front_val, tols.crit_tol))
        conds.append(_crit("edge_condition", edge_val, tols.crit_tol))
        if not nondeg:
            conds.append(_crit("grad_density", math.hypot(*jet_grad),
                               tols.crit_tol))
            return Verdict("NeverCuspidalLips", "framed_surface", conds, hyps,
                           notes + ["degenerate point: neither cuspidal lips "
                                    "nor cuspidal beaks in this regime"])
        if abs(front_val) > tols.crit_tol and abs(edge_val) > tols.crit_tol:
            return Verdict("CuspidalEdge", "framed_surface", conds, hyps, notes)
        const_speeds = (_alpha_identically_zero_derivative(cs.curve_u)
                        and _alpha_identically_zero_derivative(cs.curve_v))
        if abs(edge_val) <= tols.hyp_tol and abs(front_val) > tols.crit_tol:
            if not const_speeds:
                notes.append("hypothesis_not_met: speeds not constant; "
                             "deferring to the generic route")
                return Verdict("Unclassified", "framed_surface", conds, hyps,
                               notes)
            st_closed = at**2 * cf["Lambda_uu"] + al**2 * cf["Lambda_vv"]
            st_jet = eta_eta_lam / (al * at)
            conds.append(_crit("swallowtail_condition", st_jet, tols.crit_tol))
            if abs(st_closed - st_jet) > tols.lemma_tol * max(1.0, abs(st_jet)):
                notes.append(f"second density derivative closed {st_closed:.6g}"
                             f" vs jets {st_jet:.6g}")
            if abs(st_jet) > tols.crit_tol:
                return Verdict("Swallowtail", "framed_surface", conds, hyps,
                               notes)
            return Verdict("Unclassified", "framed_surface", conds, hyps, notes)
        if abs(front_val) <= tols.hyp_tol and abs(edge_val) > tols.crit_tol:
            if not const_speeds:
                notes.append("hypothesis_not_met: speeds not constant; "
                             "deferring to the generic route")
                return Verdict("Unclassified", "framed_surface", conds, hyps,
                               notes)
            ccc_val = (al * (tuv * P - tvv * t[3, 3] * Q)
                       - at * t[3, 3] * (tuu * P - tuv * t[3, 3] * Q - l_u * P))
            conds.append(_crit("cuspidal_cross_cap_condition", ccc_val,
                               tols.crit_tol))
            notes.append("cuspidal cross cap inequality evaluated verbatim; "
                         "cross-validate against the generic route")
            if abs(ccc_val) > tols.crit_tol:
                return Verdict("CuspidalCrossCap", "framed_surface", conds,
                               hyps, notes)
            return Verdict("Unclassified", "framed_surface", conds, hyps, notes)
        return Verdict("Unclassified", "framed_surface", conds, hyps, notes)

    if case_ii or case_iii:
        hyps.append("regime: exactly one speed vanishes")
        if case_ii:
            beaks = [
                _crit("front_condition", tu - l, tols.crit_tol),
                _crit("speed_derivative", al_u, tols.crit_tol),
                _crit("density_u_factor", Q, tols.crit_tol),
                _crit("density_v_factor", P, tols.crit_tol),
            ]
        else:
            beaks = [
                _crit("front_condition", tv, tols.crit_tol),
                _crit("speed_derivative", at_v, tols.crit_tol),
                _crit("density_u_factor", Q, tols.crit_tol),
                _crit("density_v_factor", P, tols.crit_tol),
            ]
        conds.extend(beaks)
        H = disc.lam.hessian
        detH = float(H[0, 0] * H[1, 1] - H[0, 1] ** 2)
        conds.append(CriterionValue("det_hess_density", detH, tols.crit_tol,
                                    detH < tols.crit_tol))
        if detH > tols.crit_tol:
            notes.append("positive Hessian determinant contradicts the "
                         "never-cuspidal-lips exclusion")
        notes.append("never a cuspidal lips in this regime")
        if all(c.satisfied for c in beaks):
            return Verdict("CuspidalBeaks", "framed_surface", conds, hyps, notes)
        return Verdict("NeverCuspidalLips", "framed_surface", conds, hyps,
                       notes + ["beaks inequalities not all satisfied"])

    # both speeds vanish: rank dx = 0
    hyps.append("regime: both speeds vanish (rank 0)")
    H = disc.lam.hessian
    worst = float(np.max(np.abs(H)))
    conds.append(_crit("hess_density_max", worst, tols.hyp_tol, nonzero=False))
    if worst > tols.hyp_tol:
        notes.append("Hessian of the density did not vanish as required")
        return Verdict("Unclassified", "framed_surface", conds, hyps, notes)
    return Verdict("NeverD4", "framed_surface", conds, hyps, notes)


# ---------------------------------------------------------------------------
# route 3: generic frontal criteria
# ---------------------------------------------------------------------------

class _GenericDensity:
    """Signed area density for finite differencing: the hypot of (t31, t32)
    signed by mod-pi alignment of the local canonical angle with theta0."""

    def __init__(self, cs: TranslationSurface, theta0: float):
        self.cs = cs
        self.theta0 = theta0

    def __call__(self, p) -> float:
        u, v = float(p[0]), float(p[1])
        t31 = self.cs.field.partial_value(3, 1, u, v)
        t32 = self.cs.field.partial_value(3, 2, u, v)
        h = math.hypot(t31, t32)
        au, av = self.cs.alpha_values((u, v))
        if h == 0.0:
            return 0.0
        gap = abs(wrap_pi(math.atan2(-t32, t31) - self.theta0))
        sgn = 1.0 if gap < math.pi / 2 else -1.0
        return au * av * sgn * h

    def grad(self, p, h=1e-5):
        return np.array([
            (self((p[0] + h, p[1])) - self((p[0] - h, p[1]))) / (2 * h),
            (self((p[0], p[1] + h)) - self((p[0], p[1] - h))) / (2 * h)])

    def hessian(self, p, h=1e-3):
        f = self
        fuu = (f((p[0] + h, p[1])) - 2 * f(p) + f((p[0] - h, p[1]))) / h**2
        fvv = (f((p[0], p[1] + h)) - 2 * f(p) + f((p[0], p[1] - h))) / h**2
        fuv = (f((p[0] + h, p[1] + h)) - f((p[0] + h, p[1] - h))
               - f((p[0] - h, p[1] + h)) + f((p[0] - h, p[1] - h))) / (4 * h**2)
        return np.array([[fuu, fuv], [fuv, fvv]])


def _eta_values(cs, p):
    au, av = cs.alpha_values(p)
    t33 = cs.field.partial_value(3, 3, p[0], p[1])
    return np.array([-av * t33, au])


def _eta_lambda_fd(cs, lam, p, s=1e-4):
    e = _eta_values(cs, p)

    def g(q):
        eq = _eta_values(cs, q)
        return (lam((q[0] + s * eq[0], q[1] + s * eq[1]))
                - lam((q[0] - s * eq[0], q[1] - s * eq[1]))) / (2 * s)

    s2 = 1e-3
    gp = g((p[0] + s2 * e[0], p[1] + s2 * e[1]))
    gm = g((p[0] - s2 * e[0], p[1] - s2 * e[1]))
    return g(p), (gp - gm) / (2 * s2)


def _theta_near(cs, p, ref):
    """The canonical angle atan2(-t32, t31) at p, shifted by pi to ref."""
    t31 = cs.field.partial_value(3, 1, p[0], p[1])
    t32 = cs.field.partial_value(3, 2, p[0], p[1])
    return align_pi(math.atan2(-t32, t31), ref)


def _trace_singular_curve(lam, p0):
    """Few predictor-corrector steps along lam = 0 through p0 (both ways)."""
    g0 = lam.grad(p0)
    nrm = float(np.linalg.norm(g0))
    if nrm < 1e-12:
        return None
    tangent = np.array([-g0[1], g0[0]]) / nrm

    def correct(q):
        for _ in range(6):
            g = lam.grad(q)
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                return None
            q = q - g * (lam(q) / gn**2)
        return q

    pts = {0: np.asarray(p0, float)}
    for sgn in (+1, -1):
        q = np.asarray(p0, float)
        t_dir = tangent * sgn
        for k in range(1, TRACE_STEPS + 1):
            q_pred = q + TRACE_STEP * t_dir
            q_corr = correct(q_pred)
            if q_corr is None:
                return None
            pts[sgn * k] = q_corr
            t_new = q_corr - q
            nn = float(np.linalg.norm(t_new))
            if nn > 0:
                t_dir = t_new / nn
            q = q_corr
    return pts


def classify_generic_frontal(cs: TranslationSurface, pt: ThetaPoint,
                             p0: tuple[float, float]) -> Verdict:
    """Cross-validation route built on the frontal criteria alone:
    continuation of the singular curve, finite differences of the signed
    density, and the cusp-detecting function along the curve."""
    if not pt.available:
        return Verdict("Unclassified", "generic_frontal", [],
                       ["normal angle available"],
                       [f"theta_unavailable: {pt.reason}"])
    theta0 = pt.value
    lam = _GenericDensity(cs, theta0)
    rank = cs.dx_rank(p0)
    grad = lam.grad(p0)
    gnorm = float(np.linalg.norm(grad))
    eta_lam, eta_eta_lam = _eta_lambda_fd(cs, lam, p0)
    conds = [
        CriterionValue("grad_density_fd", gnorm, GEN_TOL, gnorm > GEN_TOL),
        CriterionValue("eta_density_fd", eta_lam, GEN_TOL,
                       abs(eta_lam) > GEN_TOL),
    ]
    hyps = [f"rank dx = {rank}"]
    notes = []

    if gnorm > GEN_TOL:
        trace = _trace_singular_curve(lam, p0)
        if trace is None:
            return Verdict("Unclassified", "generic_frontal", conds, hyps,
                           notes + ["continuation failed"])

        def phi_x(k):
            q = trace[k]
            qm, qp = trace[k - 1], trace[k + 1]
            dq = (qp - qm) / 2.0
            dx = cs.dx_matrix(q)
            dx_dt = dx[:, 0] * dq[0] + dx[:, 1] * dq[1]
            th_q = (pt.value if k == 0 else _theta_near(cs, q, theta0))
            bn = bn_value(cs, th_q, q[0])
            e = _eta_values(cs, q)
            s = 1e-4
            qp_ = (q[0] + s * e[0], q[1] + s * e[1])
            qm_ = (q[0] - s * e[0], q[1] - s * e[1])
            bnp = bn_value(cs, _theta_near(cs, qp_, th_q), qp_[0])
            bnm = bn_value(cs, _theta_near(cs, qm_, th_q), qm_[0])
            dbn = (bnp - bnm) / (2 * s)
            return float(np.linalg.det(np.column_stack([dx_dt, bn, dbn])))

        if abs(eta_lam) > GEN_TOL:
            phi0 = phi_x(0)
            conds.append(CriterionValue("cusp_function", phi0, GEN_TOL,
                                        abs(phi0) > GEN_TOL))
            if abs(phi0) > GEN_TOL:
                return Verdict("CuspidalEdge", "generic_frontal", conds, hyps,
                               notes)
            dphi = (phi_x(1) - phi_x(-1)) / float(
                np.linalg.norm(trace[1] - trace[-1]))
            conds.append(CriterionValue("cusp_function_derivative", dphi,
                                        GEN_TOL, abs(dphi) > GEN_TOL))
            if abs(dphi) > GEN_TOL:
                return Verdict("CuspidalCrossCap", "generic_frontal", conds,
                               hyps, notes)
            return Verdict("Unclassified", "generic_frontal", conds, hyps,
                           notes + ["frontal fold: neither edge nor "
                                    "cuspidal cross cap"])
        # eta lambda = 0: swallowtail needs the front property plus the
        # second directional derivative
        front = front_test(cs, pt, p0)[0] == "front"
        conds.append(CriterionValue("eta_eta_density_fd", eta_eta_lam, GEN_TOL,
                                    abs(eta_eta_lam) > GEN_TOL))
        hyps.append("front via framed-surface curvature")
        if front and abs(eta_eta_lam) > GEN_TOL:
            return Verdict("Swallowtail", "generic_frontal", conds, hyps, notes)
        return Verdict("Unclassified", "generic_frontal", conds, hyps, notes)

    # degenerate point: Hessian tests
    H = lam.hessian(p0)
    detH = float(H[0, 0] * H[1, 1] - H[0, 1] ** 2)
    conds.append(CriterionValue("det_hess_density_fd", detH, GEN_TOL,
                                abs(detH) > GEN_TOL))
    if rank == 1:
        front = front_test(cs, pt, p0)[0] == "front"
        if detH > GEN_TOL and front:
            return Verdict("CuspidalLips", "generic_frontal", conds, hyps,
                           notes + ["positive Hessian determinant: cuspidal "
                                    "lips (unexpected in this regime)"])
        if detH < -GEN_TOL and abs(eta_eta_lam) > GEN_TOL and front:
            return Verdict("CuspidalBeaks", "generic_frontal", conds, hyps,
                           notes)
        return Verdict("NeverCuspidalLips", "generic_frontal", conds, hyps,
                       notes)
    if abs(detH) <= GEN_TOL:
        return Verdict("NeverD4", "generic_frontal", conds, hyps,
                       notes + ["vanishing Hessian: rank-zero exclusion"])
    return Verdict("Unclassified", "generic_frontal", conds, hyps, notes)


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------

_DEFINITE = {"CuspidalEdge", "Swallowtail", "CuspidalCrossCap",
             "CuspidalBeaks", "CuspidalLips", "NeverD4"}


def classify(s: TranslationSurface, p0: tuple[float, float],
             with_generic: bool = True) -> ClassificationReport:
    """Full pipeline at one point; see the module docstring for the routes."""
    tols = s.tols
    cs = s.criteria_surface()
    notes = []
    if s.kind != "general":
        notes.append("criteria evaluated on the unscaled generator pair; the "
                     "surface is its image under scaling by 1/2")

    rank = corank(cs, p0)
    dep = dependence_test(cs, p0)
    au, av = cs.alpha_values(p0)

    report = ClassificationReport(
        point=p0,
        conditions=singular_conditions(cs, (au, av), dep.t_pair_norm),
        dependence="dependent" if dep.dependent else "independent",
        corank=0 if rank == "regular" else rank,
        final=Verdict("Unclassified", "gfs"), notes=notes)

    if rank == "regular":
        report.final = Verdict("RegularPoint", "gfs",
                               [_crit("singular_residual",
                                      cs.singular_residual(p0),
                                      tols.sing_tol)])
        return report

    if not dep.dependent:
        report.final = Verdict(
            "IndependentConditionDeferred", "gfs",
            [CriterionValue("mu_cross_norm", dep.mu_cross_norm,
                            tols.dep_tol, True)],
            notes=["independent condition: see prior work"])
        return report

    data = PointData(cs, p0)
    if abs(au * av) > tols.hyp_tol:
        report.gfs = classify_S0(cs, p0, data)
        if report.gfs.tag == "CrossCap":
            report.final = report.gfs
            return report
        if abs(data.cross_cap_value()) < tols.hyp_tol:
            report.s1 = classify_S1(cs, p0, data)
            if report.s1.tag in ("S1Plus", "S1Minus"):
                report.final = report.s1
                return report

    pt = construct_theta(cs, p0)
    report.framed = classify_dependent_framed(cs, pt, p0, data)
    if with_generic and pt.available:
        report.generic = classify_generic_frontal(cs, pt, p0)

    final = report.framed
    if report.generic is not None:
        ft, gt = report.framed.tag, report.generic.tag
        if gt in _DEFINITE and ft in _DEFINITE and gt != ft:
            final = Verdict("Unclassified", "framed_surface+generic_frontal",
                            report.framed.conditions
                            + report.generic.conditions,
                            notes=[f"routes disagree: framed={ft}, "
                                   f"generic={gt}"])
        elif ft == "Unclassified" and gt in _DEFINITE:
            final = report.generic
        elif gt == ft and ft in _DEFINITE:
            final.notes.append("generic route agrees")
    report.final = final
    return report
