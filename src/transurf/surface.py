"""Translation surfaces x(u,v) = gamma(u) + gamma~(v) and self-translation
surfaces x± = (gamma(u) ± gamma(v))/2, their invariants as generalised framed
surfaces, singular-point detection, and dependence diagnostics.

The singular set is the union of three conditions:
(i) alpha(u) = 0, (ii) alpha~(v) = 0, (iii) t31 = t32 = 0. At a point
satisfying (iii) with |t33| = 1 the two tangent direction fields are
parallel; that is the dependent condition this package classifies.

A self-translation surface x± is held as its generator pair (gamma, ±gamma),
whose sum the target dilation w -> w/2 takes to x±: every singularity class
and every zero of alpha, alpha~ and (t31, t32) is the pair's, and only the
geometry (``x_value``, the mesh) applies the half factor.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .curves import (CurveJets, FramedCurve, FrenetFrame, frenet_pair,
                     shift3, vec_values)
from .errors import TransurfError
from .framefield import FrameField, entry_bijet, entry_value, frame_dot
from .jets import BiJet
from .tolerances import DEFAULT, Tolerances

CONDITION_NAMES = ("i", "ii", "iii")
ALPHA_NEWTON_ITER = 30   # iteration cap of a Newton run on alpha = 0
T3_NEWTON_ITER = 80      # iteration cap of a Newton run on (t31, t32) = 0
# sigma_min / sigma_max below which a converged Newton iterate's Jacobian of
# (t31, t32) counts as rank 1, and at or above which the augmented Jacobian
# [J; grad det J] counts as regular: the gate of the augmented step
ROOT_SIGMA_RATIO = 1e-3
# the band of ratios of consecutive plain Newton steps that counts as the
# linear rate 1/2 of a degenerate zero; it sets how fast a root is found,
# not which point is reported
LINEAR_RATE = (0.35, 0.65)
PERIOD_MERGE_RADIUS = 1e-6   # folded points closer than this are one point


class TranslationSurface:
    """Sum of two framed curves as a surface; half the sum for a self pair."""

    def __init__(self, curve_u: FramedCurve, curve_v: FramedCurve,
                 kind: str = "general", tols: Tolerances = DEFAULT):
        if kind not in ("general", "self_plus", "self_minus"):
            raise ValueError(f"unknown surface kind {kind!r}")
        self.curve_u = curve_u
        self.curve_v = curve_v
        self.kind = kind
        self.tols = tols
        self.field = FrameField(curve_u, curve_v)

    # -- constructors ---------------------------------------------------------

    @staticmethod
    def general(a: FramedCurve, b: FramedCurve,
                tols: Tolerances = DEFAULT) -> "TranslationSurface":
        return TranslationSurface(a, b, "general", tols=tols)

    @staticmethod
    def self_translation(curve: FramedCurve, sign: int,
                         tols: Tolerances = DEFAULT) -> "TranslationSurface":
        """x± = (gamma(u) ± gamma(v)) / 2, held as its generator pair
        (gamma, ±gamma) with the frame of the first factor."""
        kind = "self_plus" if sign > 0 else "self_minus"
        return TranslationSurface(
            curve, curve if sign > 0 else curve.negated(), kind, tols)

    # -- evaluation -----------------------------------------------------------

    def x_value(self, p: tuple[float, float]) -> np.ndarray:
        u, v = p
        x = self.curve_u.point(u) + self.curve_v.point(v)
        return x if self.kind == "general" else 0.5 * x

    def at(self, p: tuple[float, float], order: int = 6) -> "PointJets":
        """The jets of both curves at p, each curve evaluated once."""
        return PointJets(self, p, order)


class PointJets:
    """The jets of both curves of a surface at one point p = (u, v).

    Each curve is evaluated once there, as one :class:`CurveJets` (``ju`` at
    u, ``jv`` at v) of an order that covers every reader: 6 by default, the
    order the theta rays read. A reader of a lower order reads the
    truncation, which equals a fresh evaluation at that order bitwise. Every
    point-level criterion takes this bundle in place of (surface, point).
    With p a pair of 1-D arrays it holds one batch per curve, lane k for the
    point (p[0][k], p[1][k]), and :meth:`t` and :meth:`alpha_values` return
    arrays. As t_ij(u, v) = (frame of the v-curve at v)_i . (frame of the
    u-curve at u)_j, each curve is then one batch at its parameter, and a
    self pair's shared frame is evaluated once for both
    (:func:`_pair_jets`). Jets passed as ``ju`` and ``jv`` are not
    evaluated again (:meth:`take`).
    """

    def __init__(self, s: TranslationSurface, p: tuple[float, float],
                 order: int = 6, ju: CurveJets | None = None,
                 jv: CurveJets | None = None):
        self.s = s
        self.ju, self.jv = (ju, jv) if ju is not None else _pair_jets(
            s, p, order)
        self.p = (self.ju.t, self.jv.t)   # p bitwise, shared by its BiJets

    def take(self, idx) -> "PointJets":
        """The points ``idx`` of a batch, read off its lanes with no
        evaluator call (:meth:`CurveJets.take`): one point for an int, a
        batch for an int array."""
        u, v = self.p
        p = ((float(u[idx]), float(v[idx])) if isinstance(idx, int)
             else (u[idx], v[idx]))
        return PointJets(self.s, p, ju=self.ju.take(idx),
                         jv=self.jv.take(idx))

    def t(self, i: int, j: int) -> float:
        """The frame-matrix entry t_ij at p."""
        return entry_value(self.jv.row(i), self.ju.row(j))

    def t_bijet(self, i: int, j: int, degree: int = 3, du: int = 0,
                dv: int = 0) -> BiJet:
        """BiJet of (d/du)^du (d/dv)^dv t_ij at p."""
        return entry_bijet(self.jv.row(i), self.ju.row(j), *self.p, degree,
                           du, dv)

    def x_partial_jets(self, du: int, dv: int,
                       degree: int = 3) -> tuple[BiJet, BiJet, BiJet]:
        """BiJets of d^{du+dv} x / du^du dv^dv, assembled exactly.

        Cross partials of x vanish identically; (du, dv) = (0, 0) gives x
        itself.
        """
        u, v = self.p
        if du > 0 and dv > 0:
            return tuple(BiJet.constant(0.0, u, v, degree) for _ in range(3))

        def along_u():
            return [BiJet.from_u_jet(c, v, degree)
                    for c in shift3(self.ju.gamma, du)]

        def along_v():
            return [BiJet.from_v_jet(c, u, degree)
                    for c in shift3(self.jv.gamma, dv)]

        if du > 0:
            return tuple(along_u())
        if dv > 0:
            return tuple(along_v())
        return tuple(a + b for a, b in zip(along_u(), along_v()))

    def curvature_bijets(self, degree: int = 3) -> tuple[BiJet, ...]:
        """(l, m, n, alpha, l~, m~, n~, alpha~) at p as BiJets in (u, v):
        the u-curve's framed curvature as functions of u, the v-curve's as
        functions of v."""
        u, v = self.p
        ca, cb = self.ju.curvature, self.jv.curvature
        return (tuple(BiJet.from_u_jet(j, v, degree)
                      for j in (ca.l, ca.m, ca.n, ca.alpha))
                + tuple(BiJet.from_v_jet(j, u, degree)
                        for j in (cb.l, cb.m, cb.n, cb.alpha)))

    def dx_matrix(self) -> np.ndarray:
        """3x2 Jacobian [x_u | x_v] at p; a batch stacks them, (L, 3, 2)."""
        cols = np.array([[c.deriv(1) for c in self.ju.gamma],
                         [c.deriv(1) for c in self.jv.gamma]])
        return np.moveaxis(cols, (0, 1), (-1, -2))

    def dx_rank(self) -> int | list[int]:
        """Numerical rank of dx at p: the number of singular values above
        rank_tol * max(1, sigma_max). A batch takes one stacked SVD, each
        matrix's bitwise, and returns the rank of each point."""
        sv = np.linalg.svd(self.dx_matrix(), compute_uv=False)
        cut = self.s.tols.rank_tol * np.maximum(1.0, sv[..., :1])
        return np.sum(sv > cut, axis=-1).tolist()

    def alpha_values(self) -> tuple[float, float]:
        return self.ju.alpha.value, self.jv.alpha.value


def _pair_jets(s: TranslationSurface, p,
               order: int) -> tuple[CurveJets, CurveJets]:
    """The jets of both curves of ``s`` at p = (u, v), a pair of floats or of
    1-D arrays.

    Each curve is evaluated at its own parameter, unless the two curves have
    one frame evaluator (a self pair). Then the frame and mu are evaluated
    once, at the distinct values of u and v together, told apart bitwise
    (a single point only when u == v bitwise), and so is gamma: x+ is one
    curve, and x- reads the v-curve's gamma as the negation of the u-curve's
    (:meth:`CurveJets.for_curve`); each entry reads its lane. Two Frenet
    frames with one ``nondeg_tol`` share their frame and mu at a batch of
    two or more points per side (:func:`frenet_pair`). Should a shared
    evaluation raise, the curves are evaluated apart, so the error is
    theirs. Every lane equals the separate evaluation bitwise.
    """
    u, v = p
    cu, cv = s.curve_u, s.curve_v
    fu, fv = cu._frame, cv._frame
    batch = isinstance(u, np.ndarray)
    if fu is fv and (np.size(u) > 1 or float(
            np.ravel(u)[0]).hex() == float(np.ravel(v)[0]).hex()):
        ts, inv = _distinct(np.concatenate((u, v))) if batch else (u, None)
        both = CurveJets(cu, ts, order)
        try:
            both.mu     # the frame and mu of both sides, evaluated once here
        except TransurfError:
            pass        # evaluated apart below, so that the error is theirs
        else:
            on_v = both if cv is cu else both.for_curve(cv)
            if not batch:
                return both, on_v
            return both.take(inv[:len(u)]), on_v.take(inv[len(u):])
    elif (batch and min(len(u), len(v)) > 1 and type(fu) is type(fv)
            is FrenetFrame and fu.nondeg_tol == fv.nondeg_tol):
        try:
            return frenet_pair(cu, u, cv, v, order)
        except TransurfError:
            pass        # evaluated apart below, so that the error is theirs
    return CurveJets(cu, u, order), CurveJets(cv, v, order)


def _distinct(t: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The distinct entries of a 1-D array, told apart bitwise, and the
    index of every entry among them."""
    _, first, inv = np.unique(np.ascontiguousarray(t).view(np.int64),
                              return_index=True, return_inverse=True)
    return t[first], inv


# ---------------------------------------------------------------------------
# generalised-framed-surface invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GFSInvariants:
    """Basic invariants (a_i, b_i, c_i, e_i, f_i, g_i, A, B) as BiJets."""

    frame: str                  # "nu_of_A" | "nu_of_B"
    a1: BiJet; b1: BiJet; c1: BiJet
    a2: BiJet; b2: BiJet; c2: BiJet
    e1: BiJet; f1: BiJet; g1: BiJet
    e2: BiJet; f2: BiJet; g2: BiJet
    A: BiJet; B: BiJet


def gfs_invariants(pj: PointJets, frame: str = "nu_of_A",
                   degree: int = 3) -> GFSInvariants:
    """Closed-form invariants of (x, nu1, nu2) or (x, nu1~, nu2~).

    With the first curve's frame: (a1,b1,c1) = (0,0,alpha),
    (a2,b2,c2) = alpha~ (t31,t32,t33), (e1,f1,g1) = (l,m,n), second row zero,
    A = -alpha alpha~ t32 and B = alpha alpha~ t31. The mirrored frame swaps
    the roles. A self pair's invariants are its generator pair's: only
    ``x_value`` applies the half factor.
    """
    l, m, n, al, lt, mt, nt, at = pj.curvature_bijets(degree)
    zero = BiJet.constant(0.0, *pj.p, degree)
    if frame == "nu_of_A":
        t31 = pj.t_bijet(3, 1, degree)
        t32 = pj.t_bijet(3, 2, degree)
        t33 = pj.t_bijet(3, 3, degree)
        return GFSInvariants(
            frame=frame,
            a1=zero, b1=zero, c1=al,
            a2=at * t31, b2=at * t32, c2=at * t33,
            e1=l, f1=m, g1=n,
            e2=zero, f2=zero, g2=zero,
            A=-(al * at * t32), B=al * at * t31)
    if frame == "nu_of_B":
        t13 = pj.t_bijet(1, 3, degree)
        t23 = pj.t_bijet(2, 3, degree)
        t33 = pj.t_bijet(3, 3, degree)
        return GFSInvariants(
            frame=frame,
            a1=al * t13, b1=al * t23, c1=al * t33,
            a2=zero, b2=zero, c2=at,
            e1=zero, f1=zero, g1=zero,
            e2=lt, f2=mt, g2=nt,
            A=al * at * t23, B=-(al * at * t13))
    raise ValueError(f"unknown frame choice {frame!r}")


# ---------------------------------------------------------------------------
# dependence tests
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DependenceResult:
    dependent: bool
    mu_cross_norm: float        # |mu(u) x mu~(v)|
    t_pair_norm: float          # hypot(t31, t32), equal in exact arithmetic
    t33: float


def dependence_test(pj: PointJets, t3=None) -> DependenceResult:
    """Pointwise linear dependence of the two tangent directions at a point,
    from (t31, t32, t33) there, ``t3`` where the caller has them."""
    cross = float(np.linalg.norm(np.cross(vec_values(pj.ju.mu),
                                          vec_values(pj.jv.mu))))
    t31, t32, t33 = t3 or (pj.t(3, j) for j in (1, 2, 3))
    return DependenceResult(dependent=bool(cross < pj.s.tols.dep_tol),
                            mu_cross_norm=cross,
                            t_pair_norm=math.hypot(t31, t32), t33=t33)


@dataclass(frozen=True)
class FieldDependenceReport:
    """Field-level (not pointwise) linear dependence over a region."""

    t_fields_dependent: bool
    t_sigma_ratio: float
    ab_fields_dependent: bool
    ab_sigma_ratio: float


def ab_dependence_scan(s: TranslationSurface,
                       window: tuple[float, float, float, float],
                       n: int = 12) -> FieldDependenceReport:
    """Smallest-singular-value test of the sampled (t31, t32) and (A, B).

    The samples are the n x n grid over the window, one row per node in
    row-major (u, v) order.
    """
    u0, u1, v0, v1 = window
    if n * n < 64:
        raise ValueError("need at least 64 sample points")
    alpha_u, alpha_v, t31, t32 = residual_landscape(
        s, np.linspace(u0, u1, n), np.linspace(v0, v1, n))
    au, av = alpha_u[:, None], alpha_v[None, :]
    rows_t = np.stack([t31.ravel(), t32.ravel()], axis=1)
    rows_ab = np.stack([(-au * av * t32).ravel(), (au * av * t31).ravel()],
                       axis=1)

    def ratio(rows):
        sv = np.linalg.svd(rows, compute_uv=False)
        if sv[0] == 0.0:
            return 0.0
        return float(sv[-1] / sv[0])

    rt, rab = ratio(rows_t), ratio(rows_ab)
    ratio_tol = s.tols.ratio_tol
    return FieldDependenceReport(
        t_fields_dependent=bool(rt < ratio_tol), t_sigma_ratio=rt,
        ab_fields_dependent=bool(rab < ratio_tol), ab_sigma_ratio=rab)


def residual_landscape(s: TranslationSurface, us: np.ndarray,
                       vs: np.ndarray) -> tuple[np.ndarray, ...]:
    """alpha on us, alpha~ on vs, and t31, t32 on the grid us x vs.

    One batch evaluation per curve, or of the shared frame of a self pair
    (:func:`_pair_jets`). Node (a, b) of a grid equals
    ``s.field.partial_value(3, j, us[a], vs[b])`` bitwise, and the alphas
    equal ``s.alpha_values``.
    """
    on_u, on_v = _pair_jets(s, (us, vs), 2)
    # t_ij(u, v) = (frame of v-curve)_i . (frame of u-curve)_j
    mu_v = [c.value[None, :] for c in on_v.mu]
    nu1, nu2 = on_u.frame
    t31 = frame_dot(mu_v, [c.value[:, None] for c in nu1])
    t32 = frame_dot(mu_v, [c.value[:, None] for c in nu2])
    return on_u.alpha.value, on_v.alpha.value, t31, t32


# ---------------------------------------------------------------------------
# singular point detection
# ---------------------------------------------------------------------------

@dataclass
class SingularPoint:
    u: float
    v: float
    conditions: tuple[str, ...]         # subset of ("i", "ii", "iii")
    dependence: str                     # "dependent" | "independent"
    corank: int                         # 1 or 2
    isolated: bool = True
    residual: float = 0.0

    @property
    def p(self) -> tuple[float, float]:
        return (self.u, self.v)


def _newton_alpha(curve: FramedCurve, ts, tol: float) -> list[float | None]:
    """Newton iteration on alpha = 0 from every start ``ts[k]``.

    Each iteration evaluates the curve once at all live iterates and steps
    them as arrays: a start stops at a root once |alpha| < tol, and takes
    the Newton step halved until it is at most 0.5 long. It gives up where
    the step is not finite (alpha' = 0 among them) and where |alpha| is not
    below its value at the previous iterate: -alpha/alpha' is a descent
    direction of |alpha|, so a start converging on a root lowers |alpha| at
    every step, while one that bounces between minima of |alpha| (a curve
    whose speed never vanishes) does not. Returns the root of each start,
    or None.
    """
    t = np.array(ts, dtype=float)
    roots: list[float | None] = [None] * len(t)
    live, last = np.arange(len(t)), np.full(len(t), np.inf)
    for _ in range(ALPHA_NEWTON_ITER):
        if not len(live):
            break
        alpha = curve.batch_jets(t[live], 2).alpha
        f, df = alpha.value, alpha.d[1]
        size = np.abs(f)
        done = size < tol
        for lane in live[done].tolist():
            roots[lane] = float(t[lane])
        with np.errstate(divide="ignore", over="ignore", invalid="ignore"):
            step = -f / df
        go = ~done & (size < last) & np.isfinite(step)
        live, last, step = live[go], size[go], step[go]
        while (long := np.abs(step) > 0.5).any():
            step[long] *= 0.5
        t[live] += step
    return roots


def _alpha_roots(s: TranslationSurface, starts_u, starts_v, tol: float):
    """The roots of alpha = 0 from ``starts_u`` and of alpha~ = 0 from
    ``starts_v``. A self pair's v-curve is its u-curve or that negated, with
    alpha~ = -alpha bitwise, and a Newton step is sign-symmetric: one run
    on the distinct starts of both serves both."""
    cu, cv = s.curve_u, s.curve_v
    if cv is cu or cv.negates is cu:
        ts, inv = _distinct(np.concatenate((starts_u, starts_v)))
        found = _newton_alpha(cu, ts, tol)
        roots = [found[i] for i in inv.tolist()]
        return roots[:len(starts_u)], roots[len(starts_u):]
    return _newton_alpha(cu, starts_u, tol), _newton_alpha(cv, starts_v, tol)


def _raise_lstsq(err, flag):
    raise np.linalg.LinAlgError("SVD did not converge in Linear Least Squares")


def _lstsq_steps(J: np.ndarray, r: np.ndarray) -> np.ndarray:
    """``np.linalg.lstsq(J[k], -r[k], rcond=1e-10)[0]`` bitwise for every
    system k of a stack, from one call of the LAPACK gufunc that it calls
    per matrix; a Jacobian that is not finite raises ``LinAlgError``."""
    with np.errstate(call=_raise_lstsq, invalid="call", over="ignore",
                     divide="ignore", under="ignore"):
        return _umath_linalg.lstsq(J, -r[..., None], 1e-10,
                                   signature="ddd->ddid")[0][..., 0]


def _newton_t3(s: TranslationSurface, us, vs,
               tol: float) -> list[tuple[float, float] | None]:
    """Newton iteration on (t31, t32) = 0 from every start (us[k], vs[k]).

    Each iteration evaluates both curves once at all live iterates, a shared
    frame once (:func:`_pair_jets`), and takes every live start's
    least-squares step, clamped to length 0.5, with one solve
    (:func:`_lstsq_steps`) from the residuals and Jacobians J of
    ``t_bijet(3, j, u, v, degree=2)``, j = 1, 2 (one broadcast ``frame_dot``
    of the same frame rows, so bitwise equal to those BiJet entries). At a
    degenerate zero (J of rank 1, as at an S1 point) that step converges
    only linearly, each step about half the one before. So a start takes the
    Gauss-Newton step of the augmented system (t31, t32, det J) instead
    once its last two plain steps each shrank by a ratio within
    ``LINEAR_RATE`` from a step taken in full (not clamped), or once its
    residual is below ``tol`` and its J has sigma_min / sigma_max below
    ``ROOT_SIGMA_RATIO``. In both cases it does so only where its 3x2
    Jacobian [J; grad det J], formed from the same rows' second derivatives
    (:func:`_augmented_systems`), has a ratio of at least
    ``ROOT_SIGMA_RATIO``: the zero is regular for that system, and the step
    converges quadratically. One more solve serves all those starts. The
    step-ratio test reads only the step lengths formed anyway, and it passes
    a start about ten halvings before its residual is below ``tol``; after
    an augmented step the next plain step no longer shrinks at the linear
    rate, and the residual test takes over. Along a curve of zeros the
    plain steps converge quadratically, so the step-ratio test does not
    pass there; the curve's tangent is in the kernel of J and of grad det J
    alike, the augmented Jacobian has rank 1 too, and the plain step stays.
    A start retires once its residual is below ``tol`` and the step
    it would take, plain or augmented, is below 1e-12 (its root is the
    iterate, or where a last augmented step lands), when its iterate
    leaves the finite range or when it runs out of iterations. Returns the
    root of each start, or None.
    """
    x = np.array([us, vs], dtype=float)     # iterate k is x[:, k]
    n = x.shape[1]
    roots: list[tuple[float, float] | None] = [None] * n
    converged = np.zeros(n, dtype=bool)
    last = np.zeros(n)                  # each start's last plain step length
    halved = np.zeros(n, dtype=bool)    # whether that step shrank linearly
    live = np.arange(n)
    for _ in range(T3_NEWTON_ITER):
        if not len(live):
            return roots
        p = x[:, live]
        ju, jv = _pair_jets(s, (p[0], p[1]), 2)
        # frame rows as arrays indexed [(j,) component, derivative order, lane]
        nu = np.array([[c.d for c in row] for row in ju.frame])
        mu = np.array([c.d for c in jv.mu])
        # (t31, t32) and its partials 1, _u, _v, _uu, _uv, _vv, each [lane, j]
        r, r_u, r_v, r_uu, r_uv, r_vv = frame_dot(
            mu[:, [0, 0, 1, 0, 1, 2], :, None],
            np.moveaxis(nu[:, :, [0, 1, 0, 2, 1, 0]], 0, -1))
        converged[live[np.fromiter(map(math.hypot, r[:, 0].tolist(),
                                       r[:, 1].tolist()), float) < tol]] = True
        # least-squares steps handle the rank-1 Jacobians along singular curves
        J = np.stack([r_u, r_v], -1)
        step = _lstsq_steps(J, r)
        nrm = np.sqrt(np.vecdot(step, step))   # np.linalg.norm bitwise
        # two plain steps in a row that shrank at the linear rate, each from
        # a step taken in full, mark a degenerate zero ahead; products, not
        # ratios, so 0/0 cannot arise
        prev = last[live]
        rate = ((nrm > LINEAR_RATE[0] * prev) & (nrm < LINEAR_RATE[1] * prev)
                & (prev <= 0.5))
        take = rate & halved[live]
        halved[live], last[live] = rate, nrm
        rank1 = np.flatnonzero(converged[live])
        if len(rank1):
            take[rank1[_sigma_ratio(J[rank1]) < ROOT_SIGMA_RATIO]] = True
        aug = np.flatnonzero(take)
        if len(aug):
            A, F = _augmented_systems(J[aug], r[aug], r_uu[aug], r_uv[aug],
                                      r_vv[aug])
            ok = _sigma_ratio(A) >= ROOT_SIGMA_RATIO
            aug = aug[ok]
            if len(aug):
                step[aug] = _lstsq_steps(A[ok], F[ok])
                nrm[aug] = np.sqrt(np.vecdot(step[aug], step[aug]))
        # retirement reads the step that is taken, plain or augmented
        done = converged[live] & (nrm < 1e-12)
        long = nrm > 0.5
        step[long] *= (0.5 / nrm[long])[:, None]
        new = p + step.T
        # a last augmented step is taken: it converges quadratically, so
        # it lands on the root to rounding; a last plain step is not
        end = p.copy()
        end[:, aug] = new[:, aug]
        for k in np.flatnonzero(done).tolist():
            roots[live[k]] = tuple(end[:, k].tolist())
        go = ~done & np.isfinite(new).all(axis=0)
        live = live[go]
        x[:, live] = new[:, go]
    for lane in live[converged[live]].tolist():
        roots[lane] = tuple(x[:, lane].tolist())
    return roots


def _sigma_ratio(M: np.ndarray) -> np.ndarray:
    """sigma_min / sigma_max of every matrix of a stack of n x 2 matrices,
    from the eigenvalues of its 2x2 Gram matrix [[a, b], [b, c]]. The Gram
    matrix squares the condition number, so a ratio is resolved only down
    to about 1e-7 (below that it may come out 0), far under the 1e-3 gate
    it serves. (An SVD or an axis sum here raised the peak RSS of a scan by
    0.2-0.3 MB.)"""
    col0, col1 = M[:, :, 0], M[:, :, 1]
    a, b, c = (np.vecdot(col0, col0), np.vecdot(col0, col1),
               np.vecdot(col1, col1))
    det, half = a * c - b * b, (a + c) / 2
    return (np.sqrt(np.maximum(det, 0.0))
            / (half + np.sqrt(np.maximum(half * half - det, 0.0))))


def _augmented_systems(J, r, r_uu, r_uv, r_vv):
    """The augmented system (t31, t32, det J) of a stack of Newton iterates
    and its 3x2 Jacobian [J; grad det J], from (t31, t32) ``r``, its
    Jacobians ``J`` ([lane, j, (u, v)]) and its second partials ([lane, j])."""
    (a, b), (c, d) = J[:, 0].T, J[:, 1].T    # t31_u, t31_v; t32_u, t32_v
    det_u = r_uu[:, 0] * d + a * r_uv[:, 1] - r_uv[:, 0] * c - b * r_uu[:, 1]
    det_v = r_uv[:, 0] * d + a * r_vv[:, 1] - r_vv[:, 0] * c - b * r_uv[:, 1]
    A = np.concatenate([J, np.stack([det_u, det_v], -1)[:, None]], 1)
    F = np.concatenate([r, (a * d - b * c)[:, None]], 1)
    return A, F


def find_singular_points(s: TranslationSurface,
                         window: tuple[float, float, float, float],
                         grid_n: int = 48) -> list[SingularPoint]:
    """Grid scan plus damped Newton refinement of the singular set.

    The residual landscape (alpha(u), alpha~(v) and (t31, t32) on the grid)
    comes from one batch evaluation of each curve. Candidate cells for
    condition (i) or (ii) are refined by a 1-D Newton on alpha, whose starts
    give up once |alpha| stops falling (:func:`_newton_alpha`), and all
    condition-(iii) candidates by one batched Newton run, which converges
    quadratically at a degenerate zero too (an S1 point, where the Jacobian
    of (t31, t32) has rank 1) through the augmented step of
    :func:`_newton_t3`, so such a point is located to about 1e-12. Roots
    are merged before any per-point data is computed, so only kept points
    are evaluated. Curve-shaped components come back as strings of samples
    flagged ``isolated=False``; isolated zeros as single points. Results are
    merged within three grid spacings and sorted by (u, v).
    """
    tol = s.tols.sing_tol
    if grid_n < 16:
        raise ValueError("grid_n must be at least 16")
    u0, u1, v0, v1 = window
    us = np.linspace(u0, u1, grid_n)
    vs = np.linspace(v0, v1, grid_n)
    du = (u1 - u0) / (grid_n - 1)
    dv = (v1 - v0) / (grid_n - 1)
    spacing = max(du, dv)
    merge_radius = 3.0 * spacing

    alpha_u, alpha_v, t31, t32 = residual_landscape(s, us, vs)
    hyp = np.hypot(t31, t32)

    # locally-minimal candidate cells per condition; generous, because
    # Newton discards false positives
    thresh = 2.0 * spacing
    roots: list[tuple[float, float] | None] = []
    cand_u = np.abs(alpha_u) < thresh * np.maximum(1.0, _slope(alpha_u, du))
    cand_v = np.abs(alpha_v) < thresh * np.maximum(1.0, _slope(alpha_v, dv))
    roots_u, roots_v = _alpha_roots(s, us[cand_u], vs[cand_v], tol)
    for root in roots_u:
        if root is not None:
            roots += [(root, float(vs[j])) for j in range(0, grid_n, 2)]
    for root in roots_v:
        if root is not None:
            roots += [(float(us[i]), root) for i in range(0, grid_n, 2)]
    ii, jj = np.nonzero(
        hyp < thresh * np.maximum(1.0, _grid_slope(hyp, spacing)))
    if len(ii):
        roots += _newton_t3(s, us[ii], vs[jj], tol)

    slack = 1e-7
    inside = [p for p in roots if p is not None
              and u0 - slack <= p[0] <= u1 + slack
              and v0 - slack <= p[1] <= v1 + slack]
    kept = _merge_points(inside, merge_radius)
    if not kept:
        return []
    # the kept points' data, lane k of one batch per curve for point k
    on = s.at((np.array([q[0] for q in kept]), np.array([q[1] for q in kept])),
              order=2)
    t3 = zip(*(on.t(3, j).tolist() for j in (1, 2, 3)))
    return [_make_point(on.take(k), q[2], t, rank) for k, (q, t, rank)
            in enumerate(zip(kept, t3, on.dx_rank()))]


def _neighbours(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Indices one step down and up along an axis of length n, clamped."""
    idx = np.arange(n)
    return np.maximum(idx - 1, 0), np.minimum(idx + 1, n - 1)


def _slope(arr: np.ndarray, h: float) -> np.ndarray:
    """Central-difference |slope| of a sampled function, one-sided at the ends."""
    lo, hi = _neighbours(len(arr))
    return np.abs(arr[hi] - arr[lo]) / ((hi - lo) * h)


def _grid_slope(arr: np.ndarray, h: float) -> np.ndarray:
    """Larger of the two central-difference |slopes| at every grid node."""
    lo, hi = _neighbours(arr.shape[0])
    gi = np.abs(arr[hi, :] - arr[lo, :])
    gj = np.abs(arr[:, hi] - arr[:, lo])
    return np.maximum(gi, gj) / (2 * h)


def singular_conditions(s: TranslationSurface, alphas: tuple[float, float],
                        t_pair_norm: float) -> tuple[str, ...]:
    """The conditions among (i) alpha = 0, (ii) alpha~ = 0 and
    (iii) (t31, t32) = 0 that hold, each to within 10 sing_tol."""
    residuals = (abs(alphas[0]), abs(alphas[1]), t_pair_norm)
    return tuple(name for name, r in zip(CONDITION_NAMES, residuals)
                 if r < s.tols.sing_tol * 10)


def _make_point(pj: PointJets, isolated: bool, t3: tuple[float, ...],
                rank: int) -> SingularPoint:
    dep = dependence_test(pj, t3)
    alphas = pj.alpha_values()
    return SingularPoint(
        u=pj.p[0], v=pj.p[1],
        conditions=singular_conditions(pj.s, alphas, dep.t_pair_norm),
        dependence="dependent" if dep.dependent else "independent",
        corank=max(2 - rank, 1),
        isolated=isolated,
        residual=min(abs(alphas[0]), abs(alphas[1]), dep.t_pair_norm))


def _merge_points(points: list[tuple[float, float]],
                  radius: float) -> list[tuple[float, float, bool]]:
    """Merge roots within 0.35 radius, keeping the first in (u, v) order.

    Returns (u, v, isolated) per kept root: a point on a curve-shaped
    component has at least two other kept roots within the merge radius.
    """
    kept: list[tuple[float, float]] = []
    for q in sorted(points):
        if not any(math.hypot(k[0] - q[0], k[1] - q[1]) < 0.35 * radius
                   for k in kept):
            kept.append(q)
    out = []
    for a, q in enumerate(kept):
        neighbours = sum(
            1 for b, k in enumerate(kept)
            if b != a and math.hypot(k[0] - q[0], k[1] - q[1]) < radius)
        out.append((q[0], q[1], neighbours < 2))
    return out


def canonical_periodic_points(points: list[SingularPoint],
                              period: float) -> list[SingularPoint]:
    """Fold a singular set of a doubly periodic surface into [0, period)^2.

    Boundary duplicates collapse, and points whose curve-shaped component only
    leaves the scan window (e.g. window corners on a shifted diagonal copy)
    regain their non-isolated flag through the periodic distance.
    """
    folded: list[SingularPoint] = []
    for q in points:
        u = q.u % period
        v = q.v % period
        if abs(u - period) < PERIOD_MERGE_RADIUS:
            u = 0.0
        if abs(v - period) < PERIOD_MERGE_RADIUS:
            v = 0.0
        folded.append(SingularPoint(u, v, q.conditions, q.dependence,
                                    q.corank, q.isolated, q.residual))

    def pdist(a: SingularPoint, b: SingularPoint) -> float:
        du_ = min(abs(a.u - b.u), period - abs(a.u - b.u))
        dv_ = min(abs(a.v - b.v), period - abs(a.v - b.v))
        return math.hypot(du_, dv_)

    kept: list[SingularPoint] = []
    for q in sorted(folded, key=lambda r: (r.u, r.v)):
        if all(pdist(q, k) > PERIOD_MERGE_RADIUS for k in kept):
            kept.append(q)
    for q in kept:
        near = [k for k in kept if k is not q and pdist(q, k) < 0.5]
        if len(near) >= 2:
            q.isolated = False
    return kept


def export_singular_csv(points: list[SingularPoint], path: str):
    """CSV rows ``u,v,conditions,dependence,isolated``, sorted by (u, v)."""
    lines = ["u,v,conditions,dependence,isolated"]
    for q in sorted(points, key=lambda r: (r.u, r.v)):
        lines.append("{:.17g},{:.17g},{},{},{}".format(
            q.u, q.v, "|".join(q.conditions), q.dependence,
            "true" if q.isolated else "false"))
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
