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
_FD_STEPS = (1e-3, -1e-3, 5e-4, -5e-4)   # the extension's difference steps
# most ray lanes in one batched product: the rays of many points (24 each)
# and the fans of their neighbours (16 each) are split into batches of at
# most this many, which bounds the memory a batch holds
_RAY_LANES = 96

# the ray directions whose limits decide the angle at a zero of (t31, t32)
_FAN = tuple((math.cos(k * math.pi / 8), math.sin(k * math.pi / 8))
             for k in range(16))
# the extension's one-sided derivative directions, exact (the even lanes of
# the fan differ in the last bit), each followed by its negative
_H = math.sqrt(0.5)
_AXES = {"u": (1.0, 0.0), "v": (0.0, 1.0), "diag": (_H, _H), "anti": (_H, -_H)}
_AXIS_RAYS = tuple(r for d in _AXES.values() for r in (d, (-d[0], -d[1])))


def _angle_jets(pairs) -> list[Jet | None]:
    """Jets of the angles of pairs with derivative rows (da, db) along rays,
    each after factoring out the common zeros of its pair (Taylor division
    by s while both leading coefficients vanish); None for a pair that
    vanishes to high order. Each step runs on all the lanes at once, and
    the lanes of each length left after factoring are one batched
    ``jets.atan2``: lane k equals the angle jet of pair k on its own
    bitwise."""
    out = [None] * len(pairs)
    if not pairs:
        return out
    da, db = (np.stack(rows, axis=1) for rows in zip(*pairs))
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
            for j, lane in enumerate(k[ok].tolist()):
                out[lane] = Jet._fresh(0.0, th.d[:, j])
        steps = np.arange(1.0, len(da))[:, None]
        da, db = da[1:, zero] / steps, db[1:, zero] / steps
        idx, tol = idx[zero], tol[zero]
    return out


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
    def _ray_pairs(pj: PointJets, dirs) -> list[tuple[np.ndarray, np.ndarray]]:
        """Derivative rows (da, db) of the pair (t31, -t32) along q + s d at
        s = 0, for each point q of ``pj`` (one point, or a batch) and each
        direction d of ``dirs``: one batched product of the pair's jets,
        one lane per point and ray, point-major. ``_angle_jets`` turns the
        pairs into one-sided jets of their angles."""
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

    def _extension(self, pj: PointJets) -> list[ThetaPoint]:
        """The limit extension at every point of ``pj`` (one point, or a
        batch), each stage one batch over the points: the rays, the angle
        jets of the fans, those of the axis rays (formed only where the fan
        has a limit) and the finite-difference neighbours
        (:meth:`_fd_derivatives`)."""
        us, vs = (np.atleast_1d(x).tolist() for x in pj.p)
        m, r = len(_FAN), len(_FAN) + len(_AXIS_RAYS)
        pairs = self._ray_pairs(pj, _FAN + _AXIS_RAYS)
        fans = _angle_jets([pairs[k * r + j] for k in range(len(us))
                            for j in range(m)])
        limits = [self._ray_limit(fans[k * m:(k + 1) * m])
                  for k in range(len(us))]
        live = [k for k, (_, _, reason) in enumerate(limits) if not reason]
        rays = iter(_angle_jets([pairs[k * r + j] for k in live
                                 for j in range(m, r)]))
        tol = self.s.tols.theta_dir_tol
        # derivatives from one-sided jets along the axes and diagonals, else
        # from finite differences of the extended values
        axes = {k: {name: _one_sided(next(rays), next(rays), tol)
                    for name in _AXES} for k in live}
        fd = [(k, name) for k in live for name, val in axes[k].items()
              if val is None]
        for (k, name), val in zip(fd, self._fd_derivatives(
                [((us[k], vs[k]), _AXES[name], limits[k][0] / 2.0)
                 for k, name in fd])):
            axes[k][name] = val
        out = []
        for k, (mean2, spread, reason) in enumerate(limits):
            theta0 = mean2 / 2.0
            if reason:
                out.append(ThetaPoint(provenance="unavailable",
                                      residual=spread, reason=reason))
            elif any(val is None for val in axes[k].values()):
                out.append(ThetaPoint(
                    value=theta0, provenance="unavailable",
                    reason="one-sided angle derivatives disagree across the "
                           "point"))
            else:
                (tu, tuu), (tv, tvv), (_, tdg), (_, tag) = axes[k].values()
                tuv = tdg - 0.5 * (tuu + tvv)
                tuv_check = 0.5 * (tuu + tvv) - tag
                c = np.zeros((3, 3))
                c[0, 0] = theta0
                c[1, 0], c[0, 1] = tu, tv
                c[2, 0], c[1, 1], c[0, 2] = tuu, 0.5 * (tuv + tuv_check), tvv
                out.append(ThetaPoint(
                    value=theta0, bijet=BiJet(us[k], vs[k], c),
                    provenance="limit_extension",
                    residual=max(spread, abs(tuv - tuv_check))))
        return out

    def _fd_derivatives(self, items) -> list[tuple[float, float] | None]:
        """The first and second derivatives of the extended angle along d at
        p, for each (p, d, theta0) of ``items``: Richardson-extrapolated
        central differences of its values at p + s d, s in ``_FD_STEPS``,
        aligned with theta0. Along a direction inside the singular set the
        rays carry no signal. None where a value is missing. The neighbours
        of all the items are one batch; should it raise a TransurfError,
        those of each item are a batch of their own, and an item whose
        batch raises has no derivatives."""
        def values(group):
            qs = [(p[0] + s * d[0], p[1] + s * d[1]) for p, d, _ in group
                  for s in _FD_STEPS]
            return self._smooth_values(
                self.s.at(tuple(np.array(x) for x in zip(*qs))),
                [th for *_, th in group for _ in _FD_STEPS])

        if not items:
            return []
        try:
            vals = values(items)
        except TransurfError:
            vals = []
            for item in items:
                try:
                    vals += values([item])
                except TransurfError:
                    vals += [None] * len(_FD_STEPS)
        out = []
        for j, (_, _, theta0) in enumerate(items):
            got = vals[j * len(_FD_STEPS):(j + 1) * len(_FD_STEPS)]
            if any(val is None for val in got):
                out.append(None)
                continue
            p1, m1, p2, m2 = got
            d1a = (p1 - m1) / 2e-3
            d1b = (p2 - m2) / 1e-3
            d2a = (p1 - 2 * theta0 + m1) / 1e-6
            d2b = (p2 - 2 * theta0 + m2) / 2.5e-7
            out.append(((4 * d1b - d1a) / 3.0, (4 * d2b - d2a) / 3.0))
        return out

    def _smooth_values(self, qj: PointJets, refs) -> list[float | None]:
        """Angle value at each point k of the batch ``qj``, aligned with
        refs[k] (extension where needed; None where the rays have no limit).
        The fans of the points that need one are batches of at most
        ``_RAY_LANES`` rays."""
        t31, t32 = (qj.t(3, i).tolist() for i in (1, 2))
        out = [align_pi(math.atan2(-b, a), ref)
               if math.hypot(a, b) >= _EXT_RADIUS else None
               for a, b, ref in zip(t31, t32, refs)]
        near = [k for k, val in enumerate(out) if val is None]
        m = len(_FAN)
        for i in range(0, len(near), _RAY_LANES // m):
            part = near[i:i + _RAY_LANES // m]
            fans = _angle_jets(self._ray_pairs(qj.take(np.array(part)), _FAN))
            for j, k in enumerate(part):
                mean2, _, reason = self._ray_limit(fans[j * m:(j + 1) * m])
                out[k] = None if reason else align_pi(mean2 / 2.0, refs[k])
        return out

    # -- public evaluation ----------------------------------------------------

    def at(self, pj: PointJets,
           degree: int = 3) -> ThetaPoint | list[ThetaPoint]:
        """Normal angle with derivatives to ``degree`` at the point of
        ``pj``, a point of this field's surface; for a batch ``pj``, the
        list of the angles at its points. The extensions of the points at a
        zero of (t31, t32) share each stage, in batches of at most
        ``_RAY_LANES`` rays."""
        batch = np.ndim(pj.p[0]) > 0
        out = [_canonical(q, degree) for q in
               ([pj.take(k) for k in range(len(pj.p[0]))] if batch else [pj])]
        near = [k for k, pt in enumerate(out) if pt is None]
        size = _RAY_LANES // (len(_FAN) + len(_AXIS_RAYS))
        for i in range(0, len(near), size):
            part = near[i:i + size]
            ext = self._extension(pj.take(np.array(part)) if batch else pj)
            for k, pt in zip(part, ext):
                out[k] = pt
        return out if batch else out[0]


def _canonical(pj: PointJets, degree: int) -> ThetaPoint | None:
    """The angle on the canonical branch at one point; None at a zero of
    (t31, t32), where the limit extension gives it."""
    t31, t32 = pj.t(3, 1), pj.t(3, 2)
    if math.hypot(t31, t32) < _EXT_RADIUS:
        return None
    th = jets.atan2(-pj.t_bijet(3, 2, degree), pj.t_bijet(3, 1, degree))
    return ThetaPoint(value=th.value, bijet=th, provenance="atan2_branch",
                      residual=abs(t32 * math.cos(th.value)
                                   + t31 * math.sin(th.value)))


def _one_sided(plus: Jet | None, minus: Jet | None,
               tol: float) -> tuple[float, float] | None:
    """The first and second derivatives of the angle along a direction from
    its jets along the ray and the opposite ray; None when either is
    missing or they disagree."""
    if plus is None or minus is None:
        return None
    d1p, d1m = plus.deriv(1), -minus.deriv(1)
    d2p, d2m = plus.deriv(2), minus.deriv(2)
    if (abs(d1p - d1m) > max(1.0, abs(d1p)) * 1e2 * tol
            or abs(d2p - d2m) > max(1.0, abs(d2p)) * 1e3 * tol):
        return None
    return (0.5 * (d1p + d1m), 0.5 * (d2p + d2m))


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
