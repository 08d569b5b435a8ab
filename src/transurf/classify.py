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
3. a generic frontal route used to cross-validate route 2: the criteria
   of Kokubu-Rossman-Saji-Umehara-Yamada (cuspidal edge, swallowtail) and
   Fujimori-Saji-Umehara-Yamada (cuspidal cross cap) on the signed area
   density, its derivatives along the null field and the cusp function
   along the singular curve, all from the jets at the point.

Every route reads the point's :class:`PointData`, its lane of the batch's,
and ``classify_all`` forms the jets of all its points once per batch: phi,
and the density jets and framed-surface invariants (:class:`AngleJets`).
Every strict inequality is realized as |value| > crit_tol and every equality
hypothesis as |value| < hyp_tol, with raw values reported beside thresholds.
Routes that disagree yield an Unclassified verdict carrying both.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import ClosedFormMismatch, TransurfError
from .framedsurf import (ThetaPoint, construct_theta, directional_derivative,
                         front_decision, fs_invariants)
from .jets import BiJet, Jet, det3
from .surface import (PointJets, TranslationSurface, dependence_test,
                      singular_conditions)

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
    """Curvatures, frame-matrix entries and phi jets at one point or at each
    point of a batch (lane k), read from its ``PointJets`` once; one point
    also holds the rank of dx and the dependence test. A point taken from a
    batch (:meth:`take`) reads its lane of the batch's phi, formed once for
    all lanes, and ``angle`` names its lane of an :class:`AngleJets`."""

    def __init__(self, pj: PointJets, t: dict | None = None, batch=None):
        t = t or {(i, j): pj.t(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
        self.pj, self.s, self.p0, self.t = pj, pj.s, pj.p, t
        self.ca, self.cb = pj.ju.curvature, pj.jv.curvature
        self.au, self.av = self.ca.alpha.value, self.cb.alpha.value
        self._batch, self._phi, self.angle = batch, None, None
        if np.ndim(self.au) == 0:
            self.rank = pj.dx_rank()
            self.dep = dependence_test(pj, (t[3, 1], t[3, 2], t[3, 3]))

    def take(self, k: int) -> "PointData":
        """Point k of a batch, read off its lanes with no evaluation."""
        return PointData(self.pj.take(k), {key: float(val[k]) for key, val
                                           in self.t.items()}, (self, k))

    # -- phi machinery -------------------------------------------------------

    def phi_bijet(self) -> BiJet:
        """phi = det(xi x, eta x, eta eta x) with xi = d_u and the null field
        eta = -alpha~ d_u + alpha t33 d_v, differentiated as a field."""
        if self._phi is not None:
            return self._phi
        if self._batch is not None:
            self._phi = self._batch[0].phi_bijet().take(self._batch[1])
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
        # the coefficients of eta and of its u- and v-partials, each formed
        # once for the three components
        eta_u, eta_v = -at, al * t33
        eta_v_u, eta_v_v, eta_u_v = alu * t33 + al * t33u, al * t33v, -atv
        etax = [eta_u * xu[c] + eta_v * xv[c] for c in range(3)]
        detax_u = [eta_u * xuu[c] + eta_v_u * xv[c] for c in range(3)]
        detax_v = [eta_u_v * xu[c] + eta_v_v * xv[c] + eta_v * xvv[c]
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

    def density_partials(self, theta: float) -> dict[str, float]:
        """First/second partials of the normalized density at a dependent
        singular point with normal angle theta, in closed form (the jet
        route is the cross-check)."""
        sth, cth = math.sin(theta), math.cos(theta)
        t, ca, cb = self.t, self.ca, self.cb
        m, n = ca.m.value, ca.n.value
        m_u, n_u = ca.m.deriv(1), ca.n.deriv(1)
        lt, mt, nt = cb.l.value, cb.m.value, cb.n.value
        mt_v, nt_v = cb.m.deriv(1), cb.n.deriv(1)
        return {
            "Lambda_u": t[3, 3] * (-n * sth + m * cth),
            "Lambda_v": ((mt * t[1, 2] + nt * t[2, 2]) * sth
                         - (mt * t[1, 1] + nt * t[2, 1]) * cth),
            "Lambda_uu": t[3, 3] * (-n_u * sth + m_u * cth),
            "Lambda_uv": 0.0,
            "Lambda_vv": (((mt_v - lt * nt) * t[1, 2] + (nt_v + lt * mt) * t[2, 2]) * sth
                          - ((mt_v - lt * nt) * t[1, 1] + (nt_v + lt * mt) * t[2, 1]) * cth),
        }

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
        """Both frames are Frenet frames and both curves pass the pointwise
        unit-speed gate at the point."""
        hyp_tol = self.s.tols.hyp_tol
        return all(j.curve.is_frenet and j.unit_speed_gate(hyp_tol)
                   for j in (self.pj.ju, self.pj.jv))

    def frenet_discriminant(self) -> float:
        """tau tau~ (kappa^2 + kappa~^2) t11 - kappa kappa~ (tau^2 + tau~^2)
        from the Frenet curvature and torsion of both curves."""
        ka, ta = (j.value for j in self.pj.ju.kappa_tau())
        kb, tb = (j.value for j in self.pj.jv.kappa_tau())
        return (ta * tb * (ka * ka + kb * kb) * self.t[1, 1]
                - ka * kb * (ta * ta + tb * tb))


# ---------------------------------------------------------------------------
# route 1: direct criteria
# ---------------------------------------------------------------------------

def classify_S0(d: PointData) -> Verdict:
    """Cross-cap test at a dependent singular point."""
    tols = d.s.tols
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
    verdict_ok = (d.dep.dependent and conds[0].satisfied and conds[1].satisfied
                  and conds[2].satisfied)
    v = Verdict("CrossCap" if verdict_ok else "NotCrossCap", "gfs",
                conds, hyps, notes)
    if d.frenet_gate():
        v.conditions.append(_crit("frenet_t21", d.t[2, 1], tols.crit_tol))
        v.hypotheses_checked.append("unit-speed shortcut available")
    return v


def classify_S1(d: PointData) -> Verdict:
    """S1± test: sign of det Hess phi plus the independence witness."""
    tols = d.s.tols
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
    base_ok = (d.dep.dependent and conds[0].satisfied and conds[1].satisfied
               and conds[2].satisfied)
    if base_ok and det < -tols.crit_tol and wnorm > tols.crit_tol:
        tag = "S1Plus"
    elif base_ok and det > tols.crit_tol:
        tag = "S1Minus"
    v = Verdict(tag, "gfs", conds, hyps, notes)
    if d.frenet_gate():
        fd = d.frenet_discriminant()
        v.conditions.append(CriterionValue(
            "frenet_s1_discriminant", fd, tols.crit_tol,
            abs(fd) > tols.crit_tol))
        v.conditions.append(_crit("frenet_t21", d.t[2, 1], tols.hyp_tol,
                                  nonzero=False))
        v.hypotheses_checked.append("unit-speed shortcut available")
        if (abs(fd) > tols.crit_tol and abs(det) > tols.crit_tol
                and math.copysign(1, fd) != math.copysign(1, det)):
            notes.append("unit-speed shortcut disagrees in sign with det Hess phi")
    return v


# ---------------------------------------------------------------------------
# route 2: framed-surface criteria
# ---------------------------------------------------------------------------

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
    l_u = d.ca.l.deriv(1)
    t = d.t
    tu, tv = th.part(1, 0), th.part(0, 1)
    tuu, tuv, tvv = th.part(2, 0), th.part(1, 1), th.part(0, 2)
    al, at = d.au, d.av
    al_u = d.ca.alpha.deriv(1)
    at_v = d.cb.alpha.deriv(1)

    jets, j = d.angle
    lam, Lam = jets.inv.lam.take(j), jets.inv.Lambda.take(j)
    cf = d.density_partials(pt.value)
    eta_eta_lam = float(jets.eta_eta_lam[j])

    P, Q = cf["Lambda_v"], -n * sth + m * cth   # Lambda_u = t33 Q
    front_val = al * tv - at * t[3, 3] * (tu - l)
    edge_val = at * Q - al * P

    conds = [
        CriterionValue("Lambda_u", cf["Lambda_u"], tols.crit_tol, True),
        CriterionValue("Lambda_v", cf["Lambda_v"], tols.crit_tol, True),
        CriterionValue("theta", pt.value, 0.0, True),
    ]
    hyps = [f"theta provenance: {pt.provenance}"]
    notes = []

    jet_grad = (Lam.part(1, 0), Lam.part(0, 1))
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
        const_speeds = not (cs.curve_u.speed_slope > SPEED_CONST_TOL
                            or cs.curve_v.speed_slope > SPEED_CONST_TOL)
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
        H = lam.hessian
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
    H = lam.hessian
    worst = float(np.max(np.abs(H)))
    conds.append(_crit("hess_density_max", worst, tols.hyp_tol, nonzero=False))
    if worst > tols.hyp_tol:
        notes.append("Hessian of the density did not vanish as required")
        return Verdict("Unclassified", "framed_surface", conds, hyps, notes)
    return Verdict("NeverD4", "framed_surface", conds, hyps, notes)


# ---------------------------------------------------------------------------
# route 3: generic frontal criteria
# ---------------------------------------------------------------------------

class AngleJets:
    """The jets that routes 2 and 3 read at the points of the batch ``pj``,
    lane j at the normal angle pts[j]: the framed-surface invariants
    (``inv``: lam, Lambda, eta, HF, KF and bn), formed once, and the
    derivatives of lam along eta. Degree 2 covers every criterion, and each
    partial to second order equals its value at degree 3 bitwise."""

    def __init__(self, pj: PointJets, pts: list[ThetaPoint]):
        self.pj = pj
        self.inv = fs_invariants(pj, pts, degree=2)
        d_eta = directional_derivative(self.inv.lam, self.inv.eta)
        self.eta_lam = d_eta.value
        self.eta_eta_lam = directional_derivative(d_eta, self.inv.eta).value

    def cusp_function(self, lanes: list[int], c1, c2) -> Jet:
        """The cusp function det(x_t, nu, eta nu) along the singular curve c
        through lanes[n], with c' = c1[:, n] and c'' = c2[:, n] there."""
        eta, nu, sub = self.inv.eta, self.inv.bn, np.array(lanes)
        c_t = [Jet._fresh(0.0, [a, b]) for a, b in zip(c1, c2)]

        def along(f):
            """The 1-jet in t of f(c(t))."""
            f = f.take(sub)
            return Jet._fresh(0.0, [f.value, f.part(1, 0) * c1[0]
                                    + f.part(0, 1) * c1[1]])

        return det3([along(a) * c_t[0] + along(b) * c_t[1]
                     for a, b in zip(self.pj.x_partial_jets(1, 0, 2),
                                     self.pj.x_partial_jets(0, 1, 2))],
                    [along(c) for c in nu],
                    [along(directional_derivative(c, eta)) for c in nu])


def classify_generic_frontal(data: list[PointData]) -> list[Verdict]:
    """Cross-validation route built on the frontal criteria alone, at every
    point data[k], a lane of one AngleJets (``angle``): the signed density
    lam = alpha alpha~ Lambda, its derivatives along the null field eta, and
    the cusp function along the singular curve lam = 0, each read off the
    jets at the point; the cusp function is one batch for all the points."""
    jets, lanes = data[0].angle[0], [d.angle[1] for d in data]
    out = [_generic_point(d, jets, j) for d, j in zip(data, lanes)]
    cusp = [k for k, v in enumerate(out) if isinstance(v, tuple)]
    if cusp:
        phi = jets.cusp_function([lanes[k] for k in cusp], *np.array(
            [out[k] for k in cusp]).transpose(1, 2, 0))
        for n, k in enumerate(cusp):
            out[k] = _generic_point(data[k], jets, lanes[k], (
                float(phi.value[n]), float(phi.deriv(1)[n])))
    return out


def _generic_point(d: PointData, jets: AngleJets, j: int, cusp=None):
    """The generic route at the point ``d``, lane j of ``jets``. Where the
    cusp function decides and ``cusp`` does not hold its value and
    derivative, c' and c'' of the singular curve replace the verdict."""
    rank, tols = d.rank, d.s.tols
    lam = jets.inv.lam.take(j)
    g = np.array([lam.part(1, 0), lam.part(0, 1)])
    gnorm = math.hypot(*g)
    eta_lam, eta_eta_lam = float(jets.eta_lam[j]), float(jets.eta_eta_lam[j])
    conds = [_crit("grad_density", gnorm, tols.crit_tol),
             _crit("eta_density", eta_lam, tols.crit_tol)]
    hyps = [f"rank dx = {rank}"]
    front = rank < 2 and front_decision(
        rank, float(jets.inv.HF.value[j]), float(jets.inv.KF.value[j]),
        tols.front_tol)[0] == "front"

    if gnorm > tols.crit_tol:
        if abs(eta_lam) > tols.crit_tol:
            # the singular curve c(t) through the point at unit speed:
            # c' = grad lam rotated by a quarter turn over |grad lam|, and
            # c'' from differentiating grad lam(c) . c' = 0
            c1 = np.array([-g[1], g[0]]) / gnorm
            if cusp is None:
                return c1, -(c1 @ lam.hessian @ c1) * g / gnorm**2
            # the cusp function det(d/dt x(c), nu, eta nu) along c
            phi, dphi = cusp
            conds.append(_crit("cusp_function", phi, tols.crit_tol))
            if abs(phi) > tols.crit_tol:
                return Verdict("CuspidalEdge", "generic_frontal", conds, hyps)
            conds.append(_crit("cusp_function_derivative", dphi,
                               tols.crit_tol))
            if abs(dphi) > tols.crit_tol:
                return Verdict("CuspidalCrossCap", "generic_frontal", conds,
                               hyps)
            return Verdict("Unclassified", "generic_frontal", conds, hyps,
                           ["frontal fold: neither edge nor cuspidal cross "
                            "cap"])
        # eta lambda = 0: swallowtail needs the front property plus the
        # second directional derivative
        conds.append(_crit("eta_eta_density", eta_eta_lam, tols.crit_tol))
        hyps.append("front via framed-surface curvature")
        if front and abs(eta_eta_lam) > tols.crit_tol:
            return Verdict("Swallowtail", "generic_frontal", conds, hyps)
        return Verdict("Unclassified", "generic_frontal", conds, hyps)

    # degenerate point: Hessian tests
    H = lam.hessian
    detH = float(H[0, 0] * H[1, 1] - H[0, 1] ** 2)
    if rank == 1:
        conds.append(_crit("det_hess_density", detH, tols.crit_tol))
        if detH > tols.crit_tol and front:
            return Verdict("CuspidalLips", "generic_frontal", conds, hyps,
                           ["positive Hessian determinant: cuspidal lips "
                            "(unexpected in this regime)"])
        if (detH < -tols.crit_tol and abs(eta_eta_lam) > tols.crit_tol
                and front):
            return Verdict("CuspidalBeaks", "generic_frontal", conds, hyps)
        return Verdict("NeverCuspidalLips", "generic_frontal", conds, hyps)
    conds.append(_crit("det_hess_density", detH, tols.hyp_tol, nonzero=False))
    if abs(detH) < tols.hyp_tol:
        return Verdict("NeverD4", "generic_frontal", conds, hyps,
                       ["vanishing Hessian: rank-zero exclusion"])
    return Verdict("Unclassified", "generic_frontal", conds, hyps)


# ---------------------------------------------------------------------------
# orchestrator
# ---------------------------------------------------------------------------

_DEFINITE = {"CuspidalEdge", "Swallowtail", "CuspidalCrossCap",
             "CuspidalBeaks", "CuspidalLips", "NeverD4"}


def classify(s: TranslationSurface, p0: tuple[float, float]) -> ClassificationReport:
    """Full pipeline at one point; see the module docstring for the routes."""
    return classify_all(s, [p0])[0]


def classify_all(s: TranslationSurface,
                 points) -> list[ClassificationReport]:
    """Full pipeline at every point (u, v) of ``points``: both curves are
    evaluated at all of them as one batch, which makes one
    :class:`PointData`, and the normal angle of all that need it is one
    ``construct_theta`` batch, whose points make one :class:`AngleJets`.
    Each route reads the point's lane of these.

    Equals ``[classify(s, p) for p in points]``, and so does the error when
    a point raises a TransurfError: the points are then classified again one
    at a time.
    """
    if not points:
        return []
    try:
        on = s.at(tuple(np.array(x, dtype=float) for x in zip(*points)))
        batch = PointData(on)
        data = [batch.take(k) for k in range(len(points))]
        reports = [_direct_routes(s, d, p0) for d, p0 in zip(data, points)]
        rest = [k for k, r in enumerate(reports)
                if r.final.tag == "Unclassified"]
        pts = construct_theta(on.take(np.array(rest))) if rest else []
        generic = [(k, pt) for k, pt in zip(rest, pts) if pt.available]
        if generic:
            jets = AngleJets(on.take(np.array([k for k, _ in generic])),
                             [pt for _, pt in generic])
            for j, (k, _) in enumerate(generic):
                data[k].angle = (jets, j)
        for k, pt in zip(rest, pts):
            reports[k].framed = classify_dependent_framed(data[k], pt)
        for (k, _), verdict in zip(generic, classify_generic_frontal(
                [data[k] for k, _ in generic]) if generic else []):
            reports[k].generic = verdict
    except TransurfError:
        if len(points) < 2:
            raise
        return [classify_all(s, [p])[0] for p in points]
    for k in rest:
        framed, generic = reports[k].framed, reports[k].generic
        final = framed
        if generic is not None:
            ft, gt = framed.tag, generic.tag
            if gt in _DEFINITE and ft in _DEFINITE and gt != ft:
                final = Verdict("Unclassified",
                                "framed_surface+generic_frontal",
                                framed.conditions + generic.conditions,
                                notes=[f"routes disagree: framed={ft}, "
                                       f"generic={gt}"])
            elif ft == "Unclassified" and gt in _DEFINITE:
                # a definite verdict needs both routes; the candidate is a note
                raw = ", ".join(f"{c.name}={c.value:.6g}"
                                for c in generic.conditions)
                final = replace(framed, notes=framed.notes + [
                    f"generic route alone says {gt} ({raw}); "
                    "the framed route does not confirm it"])
            elif gt == ft and ft in _DEFINITE:
                final = replace(framed, notes=framed.notes
                                + ["generic route agrees"])
        reports[k].final = final
    return reports


def _direct_routes(s: TranslationSurface, d: PointData,
                   p0) -> ClassificationReport:
    """The report at one point after the rank and dependence tests and
    route 1; its verdict stays Unclassified where routes 2 and 3 must run."""
    tols, dep, au, av = s.tols, d.dep, d.au, d.av
    notes = []
    if s.kind != "general":
        notes.append("criteria evaluated on the unscaled generator pair; the "
                     "surface is its image under scaling by 1/2")

    report = ClassificationReport(
        point=p0,
        conditions=singular_conditions(d.s, (au, av), dep.t_pair_norm),
        dependence="dependent" if dep.dependent else "independent",
        corank=2 - d.rank,
        final=Verdict("Unclassified", "gfs"), notes=notes)

    if d.rank == 2:
        report.final = Verdict("RegularPoint", "gfs",
                               [_crit("singular_residual",
                                      min(abs(au), abs(av), dep.t_pair_norm),
                                      tols.sing_tol)])
    elif not dep.dependent:
        report.final = Verdict(
            "IndependentConditionDeferred", "gfs",
            [CriterionValue("mu_cross_norm", dep.mu_cross_norm,
                            tols.dep_tol, True)],
            notes=["independent condition: see prior work"])
    elif abs(au * av) > tols.hyp_tol:
        report.gfs = classify_S0(d)
        if report.gfs.tag == "CrossCap":
            report.final = report.gfs
        elif abs(d.cross_cap_value()) < tols.hyp_tol:
            report.s1 = classify_S1(d)
            if report.s1.tag in ("S1Plus", "S1Minus"):
                report.final = report.s1
    return report
