"""Framed-surface structure on a translation surface: the normal angle
theta with t32 cos(theta) + t31 sin(theta) = 0, the framed-surface invariants
and curvature, the signed area density, and the front test.

The criteria at a point read the jets of theta at that point only, so theta
is evaluated once per classified point (``construct_theta``) and every
consumer takes the resulting ``ThetaPoint``, beside the point's
``PointJets``. Away from zeros of (t31, t32)
theta is the canonical branch atan2(-t32, t31), which makes
Lambda = -t32 sin(theta) + t31 cos(theta) = hypot(t31, t32) > 0 and fixes
the orientation of the normal. At a zero the canonical branch jumps by pi;
the smooth continuation through the zero (the branch every criterion needs)
is recovered from one-sided jets of (t31, t32) along rays: if the
directional limits of the angle disagree there is no continuous normal and
the surface is not a framed base surface at that point.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ThetaUnavailable, TransurfError
from .framefield import frame_dot
from .jets import BiJet, Jet
from .surface import PointJets, TranslationSurface

_EXT_RADIUS = 1e-6     # hypot(t31, t32) below this uses the limit extension
_RAY_ZERO_TOL = 1e-9   # relative size below which a ray-jet coefficient is 0

# the ray directions whose limits decide the angle at a zero of (t31, t32)
_FAN = tuple((math.cos(k * math.pi / 8), math.sin(k * math.pi / 8))
             for k in range(16))
# the extension's one-sided derivative directions, exact (the even lanes of
# the fan differ in the last bit), each followed by its negative
_H = math.sqrt(0.5)
_AXES = {"u": (1.0, 0.0), "v": (0.0, 1.0), "diag": (_H, _H), "anti": (_H, -_H)}
_AXIS_RAYS = tuple(r for d in _AXES.values() for r in (d, (-d[0], -d[1])))


def _deflate(d: np.ndarray) -> np.ndarray:
    """Taylor division by s for a jet vanishing at 0 (derivative storage)."""
    return d[1:] / np.arange(1.0, len(d))


def _angle_jet(da: np.ndarray, db: np.ndarray) -> Jet | None:
    """Jet of the angle of a pair with derivative rows (da, db) along a ray,
    after factoring out their common zeros; None when the pair vanishes to
    high order."""
    scale = max(np.max(np.abs(da)), np.max(np.abs(db)))
    if scale < 1e-12:
        # the pair vanishes along this ray up to roundoff
        return None
    while (abs(da[0]) < _RAY_ZERO_TOL * scale
           and abs(db[0]) < _RAY_ZERO_TOL * scale and len(da) > 3):
        da, db = _deflate(da), _deflate(db)
    r = math.hypot(da[0], db[0])
    if r < _RAY_ZERO_TOL * scale:
        return None
    # a common positive rescale leaves the angle (and its jet) unchanged
    return jets.atan2(Jet(0.0, db / r), Jet(0.0, da / r))


@dataclass
class ThetaPoint:
    """Normal angle at one point: value, jet data and provenance."""

    value: float = 0.0
    bijet: BiJet | None = None
    provenance: str = "atan2_branch"    # | limit_extension | unavailable
    residual: float = 0.0
    reason: str = ""

    @property
    def available(self) -> bool:
        return self.provenance != "unavailable"

    def require(self) -> BiJet:
        if not self.available or self.bijet is None:
            raise ThetaUnavailable(self.reason or "no theta data")
        return self.bijet


class ThetaField:
    """Normal-angle field of a surface, evaluated point by point on the
    canonical branch (the limit extension at a zero of (t31, t32))."""

    def __init__(self, s: TranslationSurface):
        self.s = s

    # -- raw ingredients ------------------------------------------------------

    @staticmethod
    def _ray_pairs(pj: PointJets, dirs) -> list[tuple[np.ndarray, np.ndarray]]:
        """Derivative rows (da, db) of the pair (t31, -t32) along p + s d at
        s = 0, for each direction d of ``dirs``: one batched product of the
        pair's jets, one lane per ray. ``_angle_jet`` turns a pair into the
        one-sided jet of its angle."""
        k = np.arange(pj.ju.order + 1)
        # jets in s of t -> f(t0 + s d) at s = 0, one lane per ray
        wu = np.array([np.power(d[0], k) for d in dirs]).T
        wv = np.array([np.power(d[1], k) for d in dirs]).T

        def along(row, w):
            return [Jet(0.0, c.d[:, None] * w) for c in row]

        mu_b = along(pj.jv.row(3), wv)
        t31 = frame_dot(mu_b, along(pj.ju.row(1), wu))
        t32 = frame_dot(mu_b, along(pj.ju.row(2), wu))
        return list(zip(t31.d.T, (-t32).d.T))

    # -- limit extension ------------------------------------------------------

    def _ray_limit(self, fan) -> tuple[float, float, str]:
        """Limit of the angle at a point from its directional limits along
        the 16 rays of ``_FAN``, whose angle jets are ``fan``.

        Returns (twice the limit, spread, reason): the doubled-angle mean of
        the directional limits (mod-pi agreement), the largest deviation of
        a limit from it, and why there is no limit ("" when there is one:
        the spread is within theta_dir_tol).
        """
        doubled = [2.0 * aj.value for aj in fan if aj is not None]
        if len(doubled) < 8:
            return 0.0, 0.0, ("tangent pair vanishes to high order along "
                              "most directions")
        zx = np.mean(np.cos(doubled))
        zy = np.mean(np.sin(doubled))
        if math.hypot(zx, zy) < 1e-12:
            return 0.0, 0.0, ("directional limits of the normal angle are "
                              "isotropic")
        mean2 = math.atan2(zy, zx)
        spread = max(abs(wrap_pi(t - mean2)) for t in doubled) / 2.0
        if spread > self.s.tols.theta_dir_tol:
            return mean2, spread, (
                "no continuous normal angle: directional limits spread "
                f"{spread:.3e}; the surface is not a framed base surface here")
        return mean2, spread, ""

    def _extension(self, pj: PointJets) -> ThetaPoint:
        p = pj.p
        pairs = self._ray_pairs(pj, _FAN + _AXIS_RAYS)
        mean2, spread, reason = self._ray_limit(
            [_angle_jet(*pair) for pair in pairs[:len(_FAN)]])
        if reason:
            return ThetaPoint(provenance="unavailable", residual=spread,
                              reason=reason)
        tol = self.s.tols.theta_dir_tol
        theta0 = mean2 / 2.0

        # derivatives from one-sided jets along the axes and diagonals
        def dpair(plus, minus):
            if plus is None or minus is None:
                return None
            d1p, d1m = plus.deriv(1), -minus.deriv(1)
            d2p, d2m = plus.deriv(2), minus.deriv(2)
            if (abs(d1p - d1m) > max(1.0, abs(d1p)) * 1e2 * tol
                    or abs(d2p - d2m) > max(1.0, abs(d2p)) * 1e3 * tol):
                return None
            return (0.5 * (d1p + d1m), 0.5 * (d2p + d2m))

        def fd_pair(d):
            # along a direction inside the singular set the rays carry no
            # signal; difference the extended values of neighbours instead
            def f(step):
                q = (p[0] + step * d[0], p[1] + step * d[1])
                # a curve whose parameter the step leaves bitwise unchanged
                # (an axis direction) is not evaluated again
                ju, jv = (j if float(a).hex() == float(b).hex() else None
                          for j, a, b in zip((pj.ju, pj.jv), q, p))
                return self._smooth_value(PointJets(self.s, q, ju=ju, jv=jv),
                                          theta0)

            try:
                samples = {s: f(s) for s in
                           (1e-3, -1e-3, 5e-4, -5e-4)}
            except TransurfError:
                return None
            if any(val is None for val in samples.values()):
                return None
            d1a = (samples[1e-3] - samples[-1e-3]) / 2e-3
            d1b = (samples[5e-4] - samples[-5e-4]) / 1e-3
            d2a = (samples[1e-3] - 2 * theta0 + samples[-1e-3]) / 1e-6
            d2b = (samples[5e-4] - 2 * theta0 + samples[-5e-4]) / 2.5e-7
            return ((4 * d1b - d1a) / 3.0, (4 * d2b - d2a) / 3.0)

        # the axis lanes' angle jets, formed only once the fan has a limit
        rays = [_angle_jet(*pair) for pair in pairs[len(_FAN):]]
        axes = {name: dpair(*rays[2 * k: 2 * k + 2]) or fd_pair(d)
                for k, (name, d) in enumerate(_AXES.items())}
        if any(val is None for val in axes.values()):
            return ThetaPoint(
                value=theta0, provenance="unavailable",
                reason="one-sided angle derivatives disagree across the point")
        tu, tuu = axes["u"]
        tv, tvv = axes["v"]
        _, tdg = axes["diag"]
        _, tag = axes["anti"]
        tuv = tdg - 0.5 * (tuu + tvv)
        tuv_check = 0.5 * (tuu + tvv) - tag
        resid = abs(tuv - tuv_check)
        c = np.zeros((3, 3))
        c[0, 0] = theta0
        c[1, 0], c[0, 1] = tu, tv
        c[2, 0], c[1, 1], c[0, 2] = tuu, 0.5 * (tuv + tuv_check), tvv
        return ThetaPoint(value=theta0, bijet=BiJet(p[0], p[1], c),
                          provenance="limit_extension",
                          residual=max(spread, resid))

    def _smooth_value(self, qj: PointJets, ref) -> float | None:
        """Branch-aligned angle value at the point of ``qj`` (extension
        where needed)."""
        t31, t32 = qj.t(3, 1), qj.t(3, 2)
        if math.hypot(t31, t32) >= _EXT_RADIUS:
            return align_pi(math.atan2(-t32, t31), ref)
        mean2, _, reason = self._ray_limit(
            [_angle_jet(*pair) for pair in self._ray_pairs(qj, _FAN)])
        return None if reason else align_pi(mean2 / 2.0, ref)

    # -- public evaluation ----------------------------------------------------

    def at(self, pj: PointJets, degree: int = 3) -> ThetaPoint:
        """Normal angle with derivatives to ``degree`` at the point of
        ``pj``, a point of this field's surface."""
        t31, t32 = pj.t(3, 1), pj.t(3, 2)
        if math.hypot(t31, t32) < _EXT_RADIUS:
            return self._extension(pj)
        b31 = pj.t_bijet(3, 1, degree)
        b32 = pj.t_bijet(3, 2, degree)
        th = jets.atan2(-b32, b31)
        return ThetaPoint(value=th.value, bijet=th, provenance="atan2_branch",
                          residual=abs(t32 * math.cos(th.value)
                                       + t31 * math.sin(th.value)))


def wrap_pi(x: float) -> float:
    """x reduced to [-pi, pi)."""
    return (x + math.pi) % (2 * math.pi) - math.pi


def align_pi(theta: float, ref: float) -> float:
    """Shift theta by a multiple of pi to land nearest the reference."""
    k = round((ref - theta) / math.pi)
    return theta + k * math.pi


def construct_theta(pj: PointJets) -> ThetaPoint:
    """The normal angle at a point with its jets, evaluated once for every
    criterion that reads it there."""
    return ThetaField(pj.s).at(pj)


# ---------------------------------------------------------------------------
# framed-surface invariants and curvature
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FSInvariants:
    a1: BiJet; b1: BiJet; a2: BiJet; b2: BiJet
    e1: BiJet; f1: BiJet; g1: BiJet
    e2: BiJet; f2: BiJet; g2: BiJet
    JF: BiJet; KF: BiJet; HF: BiJet
    bn: tuple[BiJet, BiJet, BiJet]


def fs_invariants(pj: PointJets, pt: ThetaPoint,
                  degree: int = 3) -> FSInvariants:
    """Invariants of (x, bn, mu) where bn = sin(theta) nu1 + cos(theta) nu2."""
    th = pt.require()
    degree = min(degree, th.degree)
    th = th.truncate(degree)
    u, v = pj.p
    l, m, n, al, lt, mt, nt, at = pj.curvature_bijets(degree)
    t31 = pj.t_bijet(3, 1, degree)
    t32 = pj.t_bijet(3, 2, degree)
    t33 = pj.t_bijet(3, 3, degree)
    sth, cth = jets.sin(th), jets.cos(th)
    zero = BiJet.constant(0.0, u, v, degree)
    Lam = -t32 * sth + t31 * cth

    a1, b1 = al, zero
    a2, b2 = at * t33, at * Lam
    e1 = m * sth + n * cth
    f1 = th.du() - l.truncate(degree - 1)
    g1 = n * sth - m * cth
    e2 = zero
    f2 = th.dv()
    g2 = zero
    JF = a1 * b2 - a2 * b1
    KF = f2 * e1.truncate(degree - 1)
    HF = -0.5 * ((a1.truncate(degree - 1) * f2 - a2.truncate(degree - 1) * f1)
                 - (b1.truncate(degree - 1) * e2.truncate(degree - 1)
                    - b2.truncate(degree - 1) * e1.truncate(degree - 1)))

    nu1 = [BiJet.from_u_jet(c, v, degree) for c in pj.ju.row(1)]
    nu2 = [BiJet.from_u_jet(c, v, degree) for c in pj.ju.row(2)]
    bn = tuple(sth * nu1[c] + cth * nu2[c] for c in range(3))
    return FSInvariants(a1=a1, b1=b1, a2=a2, b2=b2,
                        e1=e1, f1=f1, g1=g1, e2=e2, f2=f2, g2=g2,
                        JF=JF, KF=KF, HF=HF, bn=bn)


# ---------------------------------------------------------------------------
# discriminant
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Discriminant:
    lam: BiJet                 # alpha alpha~ Lambda = det(x_u, x_v, bn)
    Lambda: BiJet              # normalized density -t32 sin(theta) + t31 cos(theta)
    eta: tuple[BiJet, BiJet]   # null field coefficients (-alpha~ t33, alpha)


def discriminant(pj: PointJets, pt: ThetaPoint,
                 degree: int = 3) -> Discriminant:
    th = pt.require()
    degree = min(degree, th.degree)
    th = th.truncate(degree)
    _, _, _, al, _, _, _, at = pj.curvature_bijets(degree)
    t31 = pj.t_bijet(3, 1, degree)
    t32 = pj.t_bijet(3, 2, degree)
    t33 = pj.t_bijet(3, 3, degree)
    sth, cth = jets.sin(th), jets.cos(th)
    Lam = -t32 * sth + t31 * cth
    lam = al * at * Lam
    eta = (-(at * t33), al)
    return Discriminant(lam=lam, Lambda=Lam, eta=eta)


def directional_derivative(f: BiJet, direction: tuple[BiJet, BiJet]) -> BiJet:
    """BiJet of (w . grad f) for a vector field w with BiJet coefficients."""
    d = f.degree - 1
    return (direction[0].truncate(d) * f.du()
            + direction[1].truncate(d) * f.dv())


def closed_form_density_partials(pj: PointJets,
                                 pt: ThetaPoint) -> dict[str, float]:
    """First/second partials of the normalized density at a dependent
    singular point, in closed form (the jet route is the cross-check)."""
    th = pt.value
    sthv, cthv = math.sin(th), math.cos(th)
    ca, cb = pj.ju.curvature, pj.jv.curvature
    l, m, n = ca.l.value, ca.m.value, ca.n.value
    m_u, n_u = ca.m.deriv(1), ca.n.deriv(1)
    lt, mt, nt = cb.l.value, cb.m.value, cb.n.value
    mt_v, nt_v = cb.m.deriv(1), cb.n.deriv(1)
    t = {(i, j): pj.t(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}
    return {
        "Lambda_u": t[3, 3] * (-n * sthv + m * cthv),
        "Lambda_v": ((mt * t[1, 2] + nt * t[2, 2]) * sthv
                     - (mt * t[1, 1] + nt * t[2, 1]) * cthv),
        "Lambda_uu": t[3, 3] * (-n_u * sthv + m_u * cthv),
        "Lambda_uv": 0.0,
        "Lambda_vv": (((mt_v - lt * nt) * t[1, 2] + (nt_v + lt * mt) * t[2, 2]) * sthv
                      - ((mt_v - lt * nt) * t[1, 1] + (nt_v + lt * mt) * t[2, 1]) * cthv),
    }


# ---------------------------------------------------------------------------
# front test
# ---------------------------------------------------------------------------

def front_decision(rank: int, HF: float, KF: float, tol: float) -> tuple[str, float]:
    """Front vs frontal-only from the framed-surface curvature."""
    if rank == 1:
        return ("front" if abs(HF) > tol else "frontal_only", HF)
    if rank == 0:
        return ("front" if abs(KF) > tol else "frontal_only", KF)
    raise ValueError("front test applies to singular points only")


def front_test(pj: PointJets, pt: ThetaPoint) -> tuple[str, float, int]:
    """Classify a point as front or frontal-only; returns (verdict, witness,
    rank)."""
    rank = pj.dx_rank()
    inv = fs_invariants(pj, pt, degree=2)
    verdict, witness = front_decision(rank, inv.HF.value, inv.KF.value,
                                      pj.s.tols.front_tol)
    return verdict, witness, rank


# ---------------------------------------------------------------------------
# relational-equation oracles (test support, not production logic)
# ---------------------------------------------------------------------------

def lemma_oracle(pj: PointJets, pt: ThetaPoint) -> dict[int, float]:
    """Residuals of the nine relations obtained by differentiating the
    defining equation of theta up to third order, evaluated at a dependent
    singular point."""
    th = pt.require()
    sth, cth = math.sin(pt.value), math.cos(pt.value)
    tu, tv = th.part(1, 0), th.part(0, 1)
    tuu, tuv, tvv = th.part(2, 0), th.part(1, 1), th.part(0, 2)
    ca, cb = pj.ju.curvature, pj.jv.curvature
    l, m, n = ca.l.value, ca.m.value, ca.n.value
    l_u, m_u, n_u = ca.l.deriv(1), ca.m.deriv(1), ca.n.deriv(1)
    m_uu, n_uu = ca.m.deriv(2), ca.n.deriv(2)
    lt, mt, nt = cb.l.value, cb.m.value, cb.n.value
    lt_v, mt_v, nt_v = cb.l.deriv(1), cb.m.deriv(1), cb.n.deriv(1)
    mt_vv, nt_vv = cb.m.deriv(2), cb.n.deriv(2)
    t = {(i, j): pj.t(i, j) for i in (1, 2) for j in (1, 2, 3)}
    t[3, 3] = pj.t(3, 3)

    r = {}
    r[1] = m * sth + n * cth
    r[2] = (-(mt * t[1, 2] + nt * t[2, 2]) * cth
            - (mt * t[1, 1] + nt * t[2, 1]) * sth)
    r[3] = ((l * n + m_u - 2 * n * tu) * sth
            + (-l * m + n_u + 2 * m * tu) * cth)
    r[4] = (((l - tu) * (mt * t[1, 1] + nt * t[2, 1]) + tv * m * t[3, 3]) * cth
            - ((l - tu) * (mt * t[1, 2] + nt * t[2, 2]) + tv * n * t[3, 3]) * sth)
    r[5] = (((-mt_v + lt * nt) * t[1, 2] - (lt * mt + nt_v) * t[2, 2]
             - 2 * (mt * t[1, 1] + nt * t[2, 1]) * tv) * cth
            + ((-mt_v + lt * nt) * t[1, 1] - (lt * mt + nt_v) * t[2, 1]
               + 2 * (mt * t[1, 2] + nt * t[2, 2]) * tv) * sth)
    r[6] = ((3 * (tuu * m + tu * m_u) - l * m_u + n_uu - 2 * l_u * m) * cth
            - (3 * (tuu * n + tu * n_u) - l * n_u - m_uu - 2 * l_u * n) * sth)
    r[7] = (((l_u + m * n - tuu) * (mt * t[1, 1] + nt * t[2, 1])
             + (tv * (l * n + m_u) + 2 * tuv * m) * t[3, 3]) * cth
            - ((l_u - m * n - tuu) * (mt * t[1, 2] + nt * t[2, 2])
               + (tv * (-l * m + n_u) + 2 * tuv * n) * t[3, 3]) * sth)
    # the (t11, t21) group carries cos(theta) here: the other pairing fails
    # its own unit-speed specialization (and the numerics)
    r[8] = (((2 * tuv * mt - (lt * nt - mt_v) * (tu - l)) * t[1, 1]
             + (2 * tuv * nt + (lt * mt + nt_v) * (tu - l)) * t[2, 1]
             - tvv * m * t[3, 3]) * cth
            - ((2 * tuv * mt - (lt * nt - mt_v) * (tu - l)) * t[1, 2]
               + (2 * tuv * nt + (lt * mt + nt_v) * (tu - l)) * t[2, 2]
               - tvv * n * t[3, 3]) * sth)
    r[9] = ((3 * (tv * (lt * nt - mt_v) - tvv * mt) * t[1, 1]
             + (lt_v * nt - mt_vv + 2 * lt * nt_v) * t[1, 2]
             - 3 * (tv * (lt * mt + nt_v) + tvv * nt) * t[2, 1]
             - (lt_v * mt + nt_vv + 2 * lt * mt_v) * t[2, 2]) * cth
            + ((lt_v * nt - mt_vv + 2 * lt * nt_v) * t[1, 1]
               - 3 * (tv * (lt * nt - mt_v) - tvv * mt) * t[1, 2]
               - (lt_v * mt + nt_vv + 2 * lt * mt_v) * t[2, 1]
               + 3 * (tv * (lt * mt + nt_v) + tvv * nt) * t[2, 2]) * sth)
    return {k: float(val) for k, val in r.items()}


def unit_speed_oracle(pj: PointJets, pt: ThetaPoint) -> dict[int, float]:
    """The same relations specialized to a pair of non-degenerate unit-speed
    curves, expressed through curvature and torsion."""
    th = pt.require()
    s, (u, v) = pj.s, pj.p
    if s.curve_u.frenet is None or s.curve_v.frenet is None:
        raise ValueError("both curves need curvature/torsion data")
    tu, tv = th.part(1, 0), th.part(0, 1)
    tuu, tuv, tvv = th.part(2, 0), th.part(1, 1), th.part(0, 2)
    ka = s.curve_u.frenet.kappa(u, 2)
    ta = s.curve_u.frenet.tau(u, 2)
    kb = s.curve_v.frenet.kappa(v, 2)
    tb = s.curve_v.frenet.tau(v, 2)
    kappa, kappa_u = ka.value, ka.deriv(1)
    tau, tau_u = ta.value, ta.deriv(1)
    kappat, kappat_v = kb.value, kb.deriv(1)
    taut, taut_v = tb.value, tb.deriv(1)
    t11, t12, t22, t33 = pj.t(1, 1), pj.t(1, 2), pj.t(2, 2), pj.t(3, 3)

    return {
        1: math.sin(pt.value),
        2: t12,
        3: tu - tau / 2.0,
        4: kappat * (tau - tu) * t11 + tv * kappa * t33,
        5: taut * t22 + 2 * t11 * tv,
        6: 3 * tuu * kappa + 0.5 * tau * kappa_u - 2 * tau_u * kappa,
        7: (kappat * t11 * (tuu - tau_u)
            - (tv * kappa_u + 2 * tuv * kappa) * t33),
        8: ((2 * tuv * kappat + kappat_v * (tu - tau)) * t11
            - tvv * kappa * t33),
        9: (3 * (tv * kappat_v + tvv * kappat) * t11
            + (taut_v * kappat + 2 * taut * kappat_v) * t22),
    }
