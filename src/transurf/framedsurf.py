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
is recovered from one-sided jets of (t31, t32) along a fan of 16 rays: if
the directional limits of the angle disagree there is no continuous normal
and the surface is not a framed base surface at that point. Along a ray
p + s d, after the common zero at s = 0 is divided out, the angle jet is
theta restricted to the ray, so its k-th derivative is the k-th derivative
of theta along d. Theta's partials of degree 1 and 2 are the least-squares
fit of those of the fan, one solve per degree, and a fit residual above
theta_dir_tol means there is no smooth normal angle. Each stage of this
limit extension is one array batch over all the points that need it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import jets
from .errors import ThetaUnavailable
from .framefield import frame_dot
from .jets import BiJet, Jet
from .surface import PointJets, TranslationSurface, _lstsq_steps

_EXT_RADIUS = 1e-6     # hypot(t31, t32) below this uses the limit extension
_RAY_ZERO_TOL = 1e-9   # relative size below which a ray-jet coefficient is 0

# the ray directions whose limits decide the angle at a zero of (t31, t32)
_FAN = tuple((math.cos(k * math.pi / 8), math.sin(k * math.pi / 8))
             for k in range(16))
# the first and second derivatives along each fan ray in theta's partials
# (theta_u, theta_v) and (theta_uu, theta_uv, theta_vv)
_D0, _D1 = np.array(_FAN).T
_FAN_ROWS = (np.stack([_D0, _D1], axis=-1),
             np.stack([_D0 * _D0, 2.0 * _D0 * _D1, _D1 * _D1], axis=-1))


def _angle_jets(da: np.ndarray,
                db: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Jets of the angles of the pairs whose derivative rows along their
    rays are the columns of ``da`` and ``db`` (shape (order + 1, lanes)),
    each after factoring out the common zeros of its pair (Taylor division
    by s while both leading coefficients vanish). Returns the derivatives of
    the angle jets as the columns of one array shaped as ``da`` (NaN past
    the end of a jet that factoring shortened) and the mask of the lanes
    with a jet: a pair that vanishes to high order has none, and its column
    is NaN. Each step runs on all the lanes at once, and the lanes of each
    length left after factoring are one batched ``jets.atan2``: column k
    equals the angle jet of pair k on its own bitwise."""
    out = np.full(da.shape, np.nan)
    scale = np.maximum(np.abs(da).max(axis=0), np.abs(db).max(axis=0))
    # the other pairs vanish along their ray up to roundoff
    idx = np.flatnonzero(~(scale < 1e-12))
    da, db, tol = da[:, idx], db[:, idx], _RAY_ZERO_TOL * scale[idx]
    while len(idx):
        zero = (np.abs(da[0]) < tol) & (np.abs(db[0]) < tol) & (len(da) > 3)
        a, b, k = da[:, ~zero], db[:, ~zero], idx[~zero]
        r = np.array([math.hypot(x, y) for x, y in zip(a[0].tolist(),
                                                        b[0].tolist())])
        ok = ~(r < tol[~zero])
        if ok.any():
            # a common positive rescale leaves the angle (and its jet) as is
            th = jets.atan2(Jet._fresh(0.0, b[:, ok] / r[ok]),
                            Jet._fresh(0.0, a[:, ok] / r[ok]))
            out[:len(a), k[ok]] = th.d
        steps = np.arange(1.0, len(da))[:, None]
        da, db = da[1:, zero] / steps, db[1:, zero] / steps
        idx, tol = idx[zero], tol[zero]
    return out, ~np.isnan(out[0])


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
    """Normal-angle field of a surface, evaluated at a point or at every point
    of a batch, on the canonical branch (the limit extension at a zero of
    (t31, t32))."""

    def __init__(self, s: TranslationSurface):
        self.s = s

    # -- raw ingredients ------------------------------------------------------

    @staticmethod
    def _ray_pairs(pj: PointJets, dirs) -> tuple[np.ndarray, np.ndarray]:
        """The derivatives (da, db) of the pair (t31, -t32) along q + s d at
        s = 0, for each point q of ``pj`` (one point, or a batch) and each
        direction d of ``dirs``, from one batched product: arrays of shape
        (order + 1, points * rays), point-major, whose columns
        ``_angle_jets`` turns into one-sided jets of the angles."""
        n = pj.ju.order + 1
        k = np.arange(n)
        # jets in s of t -> f(t0 + s d) at s = 0, one column per ray
        wu = np.array([np.power(d[0], k) for d in dirs]).T
        wv = np.array([np.power(d[1], k) for d in dirs]).T

        def along(row, w):
            return [Jet._fresh(0.0, (c.d.reshape(n, -1, 1)
                                     * w[:, None, :]).reshape(n, -1))
                    for c in row]

        mu_b = along(pj.jv.row(3), wv)
        t31 = frame_dot(mu_b, along(pj.ju.row(1), wu))
        t32 = frame_dot(mu_b, along(pj.ju.row(2), wu))
        return t31.d, (-t32).d

    # -- limit extension ------------------------------------------------------

    def _ray_limit(self, value: np.ndarray, ok: np.ndarray):
        """Limit of the angle at each point from its directional limits
        ``value`` (shape (points, 16)) along the rays of ``_FAN`` that have
        an angle jet (``ok``), as reductions over the rays.

        Returns (twice the limits, spreads, reasons): the doubled-angle mean
        of each point's directional limits (mod-pi agreement), the largest
        deviation of a limit from it, and why there is no limit ("" when
        there is one: the spread is within theta_dir_tol).
        """
        doubled = 2.0 * np.where(ok, value, 0.0)
        count = ok.sum(axis=1)
        zx, zy = (np.where(ok, f(doubled), 0.0).sum(axis=1)
                  / np.maximum(count, 1) for f in (np.cos, np.sin))
        z, mean2 = np.hypot(zx, zy), np.arctan2(zy, zx)
        spread = np.where(ok, np.abs(wrap_pi(doubled - mean2[:, None])),
                          0.0).max(axis=1) / 2.0
        spread[(count < 8) | (z < 1e-12)] = 0.0
        reasons = []
        for n, r, sp in zip(count.tolist(), z.tolist(), spread.tolist()):
            if n < 8:
                reasons.append("tangent pair vanishes to high order along "
                               "most directions")
            elif r < 1e-12:
                reasons.append("directional limits of the normal angle are "
                               "isotropic")
            elif sp > self.s.tols.theta_dir_tol:
                reasons.append(
                    "no continuous normal angle: directional limits spread "
                    f"{sp:.3e}; the surface is not a framed base surface here")
            else:
                reasons.append("")
        return mean2.tolist(), spread.tolist(), reasons

    def _extension(self, pj: PointJets) -> list[ThetaPoint]:
        """The limit extension at every point of ``pj`` (one point, or a
        batch), each stage one batch over the points: the angle jets of
        their fans, the fans' limits, and at the points with a limit the
        partials of theta of degree 1 and 2, each degree one stacked
        least-squares fit to the derivatives of the angle jets along the
        rays (the rows of rays without a jet are zero)."""
        us, vs = (np.atleast_1d(x).tolist() for x in pj.p)
        th, ok = _angle_jets(*self._ray_pairs(pj, _FAN))
        th, ok = th.reshape(len(th), len(us), -1), ok.reshape(len(us), -1)
        mean2, spread, reasons = self._ray_limit(th[0], ok)
        live = np.flatnonzero([not reason for reason in reasons])
        g = np.where(ok[live], th[1:3, live], 0.0)
        fits, fit_res = [], np.zeros(len(live))
        for rows, gk in zip(_FAN_ROWS, g):
            a = np.where(ok[live, :, None], rows, 0.0)
            x = _lstsq_steps(a, -gk)
            fit_res = np.maximum(fit_res, np.abs(
                (a @ x[..., None])[..., 0] - gk).max(axis=1))
            fits.append(x)
        bound = self.s.tols.theta_dir_tol * np.maximum(
            1.0, np.abs(g).max(axis=(0, 2)))
        out = [ThetaPoint(provenance="unavailable", residual=sp, reason=reason)
               for sp, reason in zip(spread, reasons)]
        for j, k in enumerate(live.tolist()):
            theta0, res = mean2[k] / 2.0, max(spread[k], float(fit_res[j]))
            if fit_res[j] > bound[j]:
                out[k] = ThetaPoint(
                    value=theta0, provenance="unavailable", residual=res,
                    reason="no smooth normal angle: the angle jets of the "
                           f"rays fit no 2-jet, residual {fit_res[j]:.3e}")
                continue
            c = np.zeros((3, 3))
            c[0, 0] = theta0
            c[1, 0], c[0, 1] = fits[0][j]
            c[2, 0], c[1, 1], c[0, 2] = fits[1][j]
            out[k] = ThetaPoint(value=theta0, bijet=BiJet(us[k], vs[k], c),
                                provenance="limit_extension", residual=res)
        return out

    # -- public evaluation ----------------------------------------------------

    def at(self, pj: PointJets,
           degree: int = 3) -> ThetaPoint | list[ThetaPoint]:
        """Normal angle with derivatives to ``degree`` at the point of
        ``pj``, a point of this field's surface; for a batch ``pj``, the
        list of the angles at its points. The points at a zero of (t31, t32)
        make one limit extension, each of its stages one batch over them."""
        batch = np.ndim(pj.p[0]) > 0
        out = _canonical(pj, degree)
        near = [k for k, pt in enumerate(out) if pt is None]
        if near:
            ext = self._extension(pj.take(np.array(near)) if batch else pj)
            for k, pt in zip(near, ext):
                out[k] = pt
        return out if batch else out[0]


def _canonical(pj: PointJets, degree: int) -> list[ThetaPoint | None]:
    """The angle on the canonical branch at every point of ``pj`` (one
    point, or a batch), its jets one ``jets.atan2`` over the points; None at
    a zero of (t31, t32), where the limit extension gives it."""
    t31, t32 = (np.atleast_1d(pj.t(3, j)).tolist() for j in (1, 2))
    far = [k for k, (a, b) in enumerate(zip(t31, t32))
           if math.hypot(a, b) >= _EXT_RADIUS]
    out = [None] * len(t31)
    if not far:
        return out
    batch = np.ndim(pj.p[0]) > 0
    q = pj.take(np.array(far)) if batch else pj
    th = jets.atan2(-q.t_bijet(3, 2, degree), q.t_bijet(3, 1, degree))
    for j, k in enumerate(far):
        bj = th.take(j) if batch else th
        out[k] = ThetaPoint(value=bj.value, bijet=bj, provenance="atan2_branch",
                            residual=abs(t32[k] * math.cos(bj.value)
                                         + t31[k] * math.sin(bj.value)))
    return out


def wrap_pi(x: float) -> float:
    """x reduced to [-pi, pi)."""
    return (x + math.pi) % (2 * math.pi) - math.pi


def align_pi(theta: float, ref: float) -> float:
    """Shift theta by a multiple of pi to land nearest the reference."""
    k = round((ref - theta) / math.pi)
    return theta + k * math.pi


def construct_theta(pj: PointJets) -> ThetaPoint | list[ThetaPoint]:
    """The normal angle at a point with its jets, evaluated once for every
    criterion that reads it there; for a batch ``pj``, the list of the
    angles at its points (:meth:`ThetaField.at`)."""
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
    lam: BiJet                 # alpha alpha~ Lambda = det(x_u, x_v, bn)
    Lambda: BiJet              # normalized density -t32 sin(theta) + t31 cos(theta)
    eta: tuple[BiJet, BiJet]   # null field coefficients (-alpha~ t33, alpha)


def _angle_bijet(pt, degree: int) -> BiJet:
    """The BiJet of theta to ``degree`` or its own lower one; for a list of
    ThetaPoints, one lane per point."""
    ths = [q.require() for q in ([pt] if isinstance(pt, ThetaPoint) else pt)]
    n = min([degree] + [th.degree for th in ths]) + 1
    if isinstance(pt, ThetaPoint):
        return ths[0].truncate(n - 1)
    return BiJet(np.array([th.u0 for th in ths]),
                 np.array([th.v0 for th in ths]),
                 np.stack([th.c[:n, :n] for th in ths], axis=-1))


def fs_invariants(pj: PointJets, pt: ThetaPoint | list[ThetaPoint],
                  degree: int = 3) -> FSInvariants:
    """Invariants of (x, bn, mu) where bn = sin(theta) nu1 + cos(theta) nu2,
    with the signed area density lam, its normalized form Lambda and the
    null field eta (for a batch ``pj``, ``pt`` lists the angles at its
    points)."""
    th = _angle_bijet(pt, degree)
    degree = th.degree
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
                        JF=JF, KF=KF, HF=HF, bn=bn, lam=al * at * Lam,
                        Lambda=Lam, eta=(-a2, a1))


def directional_derivative(f: BiJet, direction: tuple[BiJet, BiJet]) -> BiJet:
    """BiJet of (w . grad f) for a vector field w with BiJet coefficients."""
    d = f.degree - 1
    return (direction[0].truncate(d) * f.du()
            + direction[1].truncate(d) * f.dv())


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
    if not (pj.s.curve_u.is_frenet and pj.s.curve_v.is_frenet):
        raise ValueError("both curves need curvature/torsion data")
    tu, tv = th.part(1, 0), th.part(0, 1)
    tuu, tuv, tvv = th.part(2, 0), th.part(1, 1), th.part(0, 2)
    ka, ta = pj.ju.kappa_tau()
    kb, tb = pj.jv.kappa_tau()
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
