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
from .framedsurf import (ThetaPoint, align_pi, closed_form_density_partials,
                         construct_theta, directional_derivative,
                         discriminant, front_test, wrap_pi)
from .jets import BiJet, det3
from .surface import (PointJets, TranslationSurface, dependence_test,
                      singular_conditions)

GEN_TOL = 1e-4   # threshold for finite-difference quantities (generic route)
TRACE_STEP = 0.02   # predictor step of the singular-curve continuation
TRACE_STEPS = 2     # continuation steps each way from the point
SPEED_CONST_TOL = 1e-9   # |alpha'| bound for a constant-speed curve
PHI_DEGREE = 3      # BiJet degree of phi and of the jets it is formed from


# ---------------------------------------------------------------------------
# report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CriterionValue:
    name: str
    value: float
    threshold: float
    satisfied: bool


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


def _crit(name, value, tol, nonzero=True) -> CriterionValue:
    ok = abs(value) > tol if nonzero else abs(value) < tol
    return CriterionValue(name, float(value), tol, bool(ok))


# ---------------------------------------------------------------------------
# shared point data
# ---------------------------------------------------------------------------

class PointData:
    """Curvatures, frame-matrix entries and phi jets at one point, read from
    the point's ``PointJets``."""

    def __init__(self, pj: PointJets):
        self.pj = pj
        self.s = pj.s
        self.p0 = pj.p
        self.ca = pj.ju.curvature
        self.cb = pj.jv.curvature
        self.t = {(i, j): pj.t(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
        self.au = self.ca.alpha.value
        self.av = self.cb.alpha.value
        self._phi = None

    # -- phi machinery -------------------------------------------------------

    def phi_bijet(self) -> BiJet:
        """phi = det(xi x, eta x, eta eta x) with xi = d_u and the null field
        eta = -alpha~ d_u + alpha t33 d_v, differentiated as a field."""
        if self._phi is not None:
            return self._phi
        pj, (u, v), degree = self.pj, self.p0, PHI_DEGREE
        xu = pj.x_partial_jets(1, 0, degree)
        xv = pj.x_partial_jets(0, 1, degree)
        xuu = pj.x_partial_jets(2, 0, degree)
        xvv = pj.x_partial_jets(0, 2, degree)
        t33 = pj.t_bijet(3, 3, degree)
        t33u = pj.t_bijet(3, 3, degree, du=1)
        t33v = pj.t_bijet(3, 3, degree, dv=1)
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
        tols = self.s.tols
        if a.is_arc_length(tols.arc_tol) and b.is_arc_length(tols.arc_tol):
            return True
        return (self.pj.ju.unit_speed_gate(tols.hyp_tol)
                and self.pj.jv.unit_speed_gate(tols.hyp_tol))

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

def corank(pj: PointJets) -> int | str:
    """1, 2, or "regular" from the numerical rank of dx at a point."""
    rank = pj.dx_rank()
    if rank == 2:
        return "regular"
    return 2 - rank


# ---------------------------------------------------------------------------
# route 1: direct criteria
# ---------------------------------------------------------------------------

def classify_S0(d: PointData) -> Verdict:
    """Cross-cap test at a dependent singular point."""
    tols = d.s.tols
    dep = dependence_test(d.pj)
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


def classify_S1(d: PointData) -> Verdict:
    """S1± test: sign of det Hess phi plus the independence witness."""
    tols = d.s.tols
    dep = dependence_test(d.pj)
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
    """|alpha'| <= SPEED_CONST_TOL at 64 domain samples, one batch."""
    alpha = curve.batch_jets(np.linspace(*curve.domain, 64), 2).alpha
    return not np.any(np.abs(alpha.d[1]) > SPEED_CONST_TOL)


def classify_dependent_framed(d: PointData, pt: ThetaPoint) -> Verdict:
    """Framed-surface route: regimes split by vanishing of the two speeds."""
    cs, tols = d.s, d.s.tols
    if not pt.available:
        return Verdict("Unclassified", "framed_surface", [],
                       ["normal angle available"],
                       [f"theta_unavailable: {pt.reason}"])
    th = pt.require()
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

    disc = discriminant(d.pj, pt, degree=min(3, th.degree))
    cf = closed_form_density_partials(d.pj, pt)
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

def _at_points(cs: TranslationSurface, points) -> PointJets:
    """Both curves at a list of points (u_k, v_k): one ``PointJets`` of
    batch jets, lane k for point k, from one ``batch_jets(·, 2)`` per curve
    at the distinct values of its parameter. Element k of each of its values
    equals the value at point k bitwise."""
    pts = np.array(points, dtype=float).reshape(-1, 2)
    return cs.at((pts[:, 0], pts[:, 1]), order=2)


def _eta(st: PointJets) -> list[np.ndarray]:
    """The null field (-alpha~ t33, alpha) at every point of a batch."""
    au, av = (a.tolist() for a in st.alpha_values())
    return [np.array([-b * t33, a])
            for a, b, t33 in zip(au, av, st.t(3, 3).tolist())]


def _theta_near(st: PointJets, refs) -> list[float]:
    """The canonical angle atan2(-t32, t31) at point k of a batch, shifted
    by pi to refs[k]."""
    return [align_pi(math.atan2(-t32, t31), ref) for t31, t32, ref in
            zip(st.t(3, 1).tolist(), st.t(3, 2).tolist(), refs)]


def _bn(st: PointJets, thetas) -> list[np.ndarray]:
    """The normal sin(theta) nu1 + cos(theta) nu2 of the u-curve's frame at
    point k of a batch, with theta = thetas[k]."""
    n1, n2 = (np.stack([c.value for c in st.ju.row(i)], axis=1)
              for i in (1, 2))
    return [math.sin(th) * a + math.cos(th) * b
            for th, a, b in zip(thetas, n1, n2)]


def _cross(p, h) -> list[tuple[float, float]]:
    """p shifted by +-h along u, then by +-h along v."""
    return [(p[0] + h, p[1]), (p[0] - h, p[1]),
            (p[0], p[1] + h), (p[0], p[1] - h)]


class _GenericDensity:
    """Signed area density for finite differencing: the hypot of (t31, t32)
    signed by mod-pi alignment of the local canonical angle with theta0.
    Each finite-difference stencil is evaluated as one batch."""

    def __init__(self, cs: TranslationSurface, theta0: float):
        self.cs = cs
        self.theta0 = theta0

    def values(self, points) -> list[float]:
        """The density at every point of ``points``."""
        st = _at_points(self.cs, points)
        out = []
        for au, av, t31, t32 in zip(*(x.tolist() for x in (
                *st.alpha_values(), st.t(3, 1), st.t(3, 2)))):
            h = math.hypot(t31, t32)
            if h == 0.0:
                out.append(0.0)
                continue
            gap = abs(wrap_pi(math.atan2(-t32, t31) - self.theta0))
            sgn = 1.0 if gap < math.pi / 2 else -1.0
            out.append(au * av * sgn * h)
        return out

    def values_and_grads(self, ps, h=1e-5) -> list[tuple[float, np.ndarray]]:
        """The density at each point p of ``ps`` and its gradient: the
        stencils of all the points as one batch."""
        f = self.values([q for p in ps for q in [p] + _cross(p, h)])
        return [(f[k], np.array([(f[k + 1] - f[k + 2]) / (2 * h),
                                 (f[k + 3] - f[k + 4]) / (2 * h)]))
                for k in range(0, len(f), 5)]

    def value_and_grad(self, p, h=1e-5):
        """The density at p and its gradient, as one stencil."""
        return self.values_and_grads([p], h)[0]

    def hessian(self, p, h=1e-3):
        f = self.values([p] + _cross(p, h) + [
            (p[0] + h, p[1] + h), (p[0] + h, p[1] - h),
            (p[0] - h, p[1] + h), (p[0] - h, p[1] - h)])
        fuu = (f[1] - 2 * f[0] + f[2]) / h**2
        fvv = (f[3] - 2 * f[0] + f[4]) / h**2
        fuv = (f[5] - f[6] - f[7] + f[8]) / (4 * h**2)
        return np.array([[fuu, fuv], [fuv, fvv]])


def _eta_lambda_fd(pj: PointJets, lam: _GenericDensity, s=1e-4):
    """eta Lambda and eta eta Lambda at the point of ``pj`` by central
    differences along the null field eta: eta at the two outer points is
    one stencil, and Lambda at the six points it differences another."""
    p = pj.p
    au, av = pj.alpha_values()
    e = np.array([-av * pj.t(3, 3), au])
    s2 = 1e-3
    qs = [p, (p[0] + s2 * e[0], p[1] + s2 * e[1]),
          (p[0] - s2 * e[0], p[1] - s2 * e[1])]
    f = lam.values([
        pm for q, eq in zip(qs, [e] + _eta(_at_points(pj.s, qs[1:])))
        for pm in ((q[0] + s * eq[0], q[1] + s * eq[1]),
                   (q[0] - s * eq[0], q[1] - s * eq[1]))])
    g, gp, gm = ((f[k] - f[k + 1]) / (2 * s) for k in (0, 2, 4))
    return g, (gp - gm) / (2 * s2)


def _trace_direction(q, t_dir):
    """Predictor-corrector steps along lam = 0 from q, heading t_dir, as a
    generator: it yields each point where it needs the value and gradient
    of lam and is sent them back. It returns the corrected points in order,
    or None when a gradient vanishes."""
    out = []
    for _ in range(TRACE_STEPS):
        q_corr = q + TRACE_STEP * t_dir
        for _ in range(6):
            f, g = yield q_corr
            gn = float(np.linalg.norm(g))
            if gn < 1e-14:
                return None
            q_next = q_corr - g * (f / gn**2)
            # an iterate that repeats exactly repeats from then on
            if q_next.tobytes() == q_corr.tobytes():
                break
            q_corr = q_next
        out.append(q_corr)
        t_new = q_corr - q
        nn = float(np.linalg.norm(t_new))
        if nn > 0:
            t_dir = t_new / nn
        q = q_corr
    return out


def _trace_singular_curve(lam, p0, g0):
    """Few predictor-corrector steps along lam = 0 through p0 (both ways),
    where lam has the gradient g0. The two directions run in lockstep: each
    round evaluates the gradient stencils of the directions still running
    as one batch. None when either direction fails."""
    nrm = float(np.linalg.norm(g0))
    if nrm < 1e-12:
        return None
    tangent = np.array([-g0[1], g0[0]]) / nrm
    q0 = np.asarray(p0, float)
    runs = {sgn: _trace_direction(q0, tangent * sgn) for sgn in (+1, -1)}
    asks = {sgn: next(run) for sgn, run in runs.items()}
    done = {}
    while asks:
        answers = lam.values_and_grads(list(asks.values()))
        for sgn, fg in zip(list(asks), answers):
            try:
                asks[sgn] = runs[sgn].send(fg)
            except StopIteration as stop:
                if stop.value is None:
                    return None
                del asks[sgn]
                done[sgn] = stop.value
    pts = {0: q0}
    for sgn in (+1, -1):
        pts.update({sgn * k: q for k, q in enumerate(done[sgn], 1)})
    return pts


def classify_generic_frontal(pj: PointJets, pt: ThetaPoint) -> Verdict:
    """Cross-validation route built on the frontal criteria alone:
    continuation of the singular curve, finite differences of the signed
    density, and the cusp-detecting function along the curve."""
    if not pt.available:
        return Verdict("Unclassified", "generic_frontal", [],
                       ["normal angle available"],
                       [f"theta_unavailable: {pt.reason}"])
    cs, p0 = pj.s, pj.p
    theta0 = pt.value
    lam = _GenericDensity(cs, theta0)
    rank = pj.dx_rank()
    _, grad = lam.value_and_grad(p0)
    gnorm = float(np.linalg.norm(grad))
    eta_lam, eta_eta_lam = _eta_lambda_fd(pj, lam)
    conds = [
        CriterionValue("grad_density_fd", gnorm, GEN_TOL, gnorm > GEN_TOL),
        CriterionValue("eta_density_fd", eta_lam, GEN_TOL,
                       abs(eta_lam) > GEN_TOL),
    ]
    hyps = [f"rank dx = {rank}"]
    notes = []

    if gnorm > GEN_TOL:
        trace = _trace_singular_curve(lam, p0, grad)
        if trace is None:
            return Verdict("Unclassified", "generic_frontal", conds, hyps,
                           notes + ["continuation failed"])

        def phi_x(ks):
            # the cusp function det(dx/dt, bn, eta bn) at trace[k] for each k
            # of ks: the trace points are one stencil, and their neighbours
            # along eta another
            s = 1e-4
            qs = [trace[k] for k in ks]
            at_q = _at_points(cs, qs)
            ths = [pt.value if k == 0 else th for k, th in
                   zip(ks, _theta_near(at_q, [theta0] * len(ks)))]
            nbrs = _at_points(cs, [
                pm for q, e in zip(qs, _eta(at_q))
                for pm in ((q[0] + s * e[0], q[1] + s * e[1]),
                           (q[0] - s * e[0], q[1] - s * e[1]))])
            bn_n = _bn(nbrs, _theta_near(nbrs, [th for th in ths
                                                for _ in (0, 1)]))
            xu, xv = (np.stack([c.d[1] for c in on.gamma], axis=1)
                      for on in (at_q.ju, at_q.jv))
            out = []
            for a, (k, bn) in enumerate(zip(ks, _bn(at_q, ths))):
                dq = (trace[k + 1] - trace[k - 1]) / 2.0
                dx_dt = xu[a] * dq[0] + xv[a] * dq[1]
                dbn = (bn_n[2 * a] - bn_n[2 * a + 1]) / (2 * s)
                out.append(float(np.linalg.det(
                    np.column_stack([dx_dt, bn, dbn]))))
            return out

        if abs(eta_lam) > GEN_TOL:
            phi0, = phi_x([0])
            conds.append(CriterionValue("cusp_function", phi0, GEN_TOL,
                                        abs(phi0) > GEN_TOL))
            if abs(phi0) > GEN_TOL:
                return Verdict("CuspidalEdge", "generic_frontal", conds, hyps,
                               notes)
            phi_p, phi_m = phi_x([1, -1])
            dphi = (phi_p - phi_m) / float(
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
        front = front_test(pj, pt)[0] == "front"
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
        front = front_test(pj, pt)[0] == "front"
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


def classify(s: TranslationSurface, p0: tuple[float, float]) -> ClassificationReport:
    """Full pipeline at one point; see the module docstring for the routes."""
    tols = s.tols
    cs = s.criteria_surface()
    notes = []
    if s.kind != "general":
        notes.append("criteria evaluated on the unscaled generator pair; the "
                     "surface is its image under scaling by 1/2")

    pj = cs.at(p0)
    rank = corank(pj)
    dep = dependence_test(pj)
    au, av = pj.alpha_values()

    report = ClassificationReport(
        point=p0,
        conditions=singular_conditions(cs, (au, av), dep.t_pair_norm),
        dependence="dependent" if dep.dependent else "independent",
        corank=0 if rank == "regular" else rank,
        final=Verdict("Unclassified", "gfs"), notes=notes)

    if rank == "regular":
        report.final = Verdict("RegularPoint", "gfs",
                               [_crit("singular_residual",
                                      pj.singular_residual(),
                                      tols.sing_tol)])
        return report

    if not dep.dependent:
        report.final = Verdict(
            "IndependentConditionDeferred", "gfs",
            [CriterionValue("mu_cross_norm", dep.mu_cross_norm,
                            tols.dep_tol, True)],
            notes=["independent condition: see prior work"])
        return report

    data = PointData(pj)
    if abs(au * av) > tols.hyp_tol:
        report.gfs = classify_S0(data)
        if report.gfs.tag == "CrossCap":
            report.final = report.gfs
            return report
        if abs(data.cross_cap_value()) < tols.hyp_tol:
            report.s1 = classify_S1(data)
            if report.s1.tag in ("S1Plus", "S1Minus"):
                report.final = report.s1
                return report

    pt = construct_theta(pj)
    report.framed = classify_dependent_framed(data, pt)
    if pt.available:
        report.generic = classify_generic_frontal(pj, pt)

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
            # a definite verdict needs both routes; the candidate is a note
            raw = ", ".join(f"{c.name}={c.value:.6g}"
                            for c in report.generic.conditions)
            final.notes.append(f"generic route alone says {gt} ({raw}); "
                               "the framed route does not confirm it")
        elif gt == ft and ft in _DEFINITE:
            final.notes.append("generic route agrees")
    report.final = final
    return report
