"""Constructed surface families with dependent singular points of known type.

There is no published numeric table for the cuspidal-edge / swallowtail /
cuspidal-cross-cap / beaks regimes of translation surfaces, so verification
relies on engineered instances whose structure forces a known verdict, each
cross-checked through the generic criteria:

* generalized cylinders (curve + line): fold along a tangent line, a
  cuspidal edge wherever the curve's tangent meets the line direction;

* tangent-sliding pairs: the second curve integrates the first curve's unit
  tangent along a reparametrization h, so the tangent indicatrices coincide
  and the singular set is the smooth curve u = h(v). With unit-speed data
  the verdict at h(v0) is steered by h'(v0): a cuspidal edge when
  h'(v0) != ±c, a swallowtail at h'(v0) = -c (with h'' != 0), and loss of
  the front condition at h'(v0) = +c;

* sliding pairs over a curve with a cusp, which realize the singular-speed
  regimes, and a pair of cusps for the rank-zero regime.
"""
from __future__ import annotations

import functools
import math

import numpy as np

from . import jets
from .curves import FramedCurve, batch_evaluator, frenet_lift
from .jets import Jet
from .surface import TranslationSurface


# ---------------------------------------------------------------------------
# building blocks
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def helix(a: float = 1.0, b: float = 0.6, name: str = "helix") -> FramedCurve:
    """Unit-speed circular helix; curvature a w^2, torsion b w^2."""
    w = 1.0 / math.sqrt(a * a + b * b)

    def gamma(t, order):
        u = Jet.variable(t, order)
        return (a * jets.cos(w * u), a * jets.sin(w * u), (b * w) * u)

    return frenet_lift(gamma, (-3.0, 3.0), name=name)


def line_curve(direction, normal_hint=(0.0, 0.0, 1.0),
               name: str = "line") -> FramedCurve:
    """Unit-speed straight line with a constant adapted frame."""
    d = np.asarray(direction, float)
    d = d / np.linalg.norm(d)
    h = np.asarray(normal_hint, float)
    n1 = h - d * (h @ d)
    if np.linalg.norm(n1) < 1e-8:
        h = np.array([1.0, 0.0, 0.0])
        n1 = h - d * (h @ d)
    n1 /= np.linalg.norm(n1)
    n2 = np.cross(d, n1)
    if np.cross(n1, n2) @ d < 0:
        n2 = -n2

    def gamma(t, order):
        u = Jet.variable(t, order)
        return tuple(float(c) * u for c in d)

    def frame(t, order):
        return tuple(tuple(Jet.constant(float(c), t, order) for c in vec)
                     for vec in (n1, n2))

    return FramedCurve(gamma, frame, (-3.0, 3.0), name=name)


@functools.lru_cache(maxsize=None)
def planar_circle(radius: float = 1.0, name: str = "circle") -> FramedCurve:
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (radius * jets.cos(u / radius), radius * jets.sin(u / radius),
                Jet.constant(0.0, t, order))

    return frenet_lift(gamma, (-3.0, 3.0), name=name, period=2 * math.pi * radius)


@functools.lru_cache(maxsize=None)
def cusp_curve(planar: bool = True, name: str = "cusp") -> FramedCurve:
    """Curve with a singular parameter value at t = 0 and a smooth frame.

    gamma' = t (1, t, 0) or t (1, t, t^2); the frame stays regular while
    alpha = t |(1, t, ...)| crosses zero.
    """
    def gamma(t, order):
        u = Jet.variable(t, order)
        z = Jet.constant(0.0, t, order)
        if planar:
            return (u * u / 2, u * u * u / 3, z)
        return (u * u / 2, u * u * u / 3, u * u * u * u / 4)

    def frame(t, order):
        u = Jet.variable(t, order)
        s = jets.sqrt(1 + u * u)
        nu1 = (-u / s, 1 / s, Jet.constant(0.0, t, order))
        if planar:
            return nu1, (Jet.constant(0.0, t, order),
                         Jet.constant(0.0, t, order),
                         Jet.constant(1.0, t, order))
        # nu2 = mu x nu1 for mu ~ (1, u, u^2)
        w = jets.sqrt(1 + u * u + (u * u) * (u * u))
        return nu1, (-(u * u) / (s * w), -(u * u * u) / (s * w),
                     (1 + u * u) / (s * w))

    return FramedCurve(gamma, frame, (-1.2, 1.2), name=name)


def _quadratic(h0: float, h1: float, h2: float):
    def h_jet(t, order: int) -> Jet:
        d = np.zeros((order + 1,) + np.shape(t))
        d[0] = h0 + h1 * t + 0.5 * h2 * t * t
        d[1] = h1 + h2 * t
        if order >= 2:
            d[2] = h2
        return Jet(t, d)
    return h_jet


def tangent_slide_curve(base: FramedCurve, h0: float, h1: float, h2: float = 0.0,
                        speed=1.0, domain=(-0.35, 0.35),
                        name: str = "slide") -> FramedCurve:
    """Curve B(v) = integral of speed(v) * mu_base(h(v)) dv, framed by its
    own Frenet lift; h(v) = h0 + h1 v + h2 v^2 / 2.

    ``speed`` is a constant or a coefficient pair (s0, s1) for s0 + s1 v.
    The tangent indicatrix of B retraces the one of ``base``, which makes the
    translation surface of (base, B) a framed base surface near the tangency
    curve u = h(v). B(t) is a Simpson sum over n + 1 nodes in [0, t], n =
    max(16, 2 int(|t| / 0.05) + 2), and B(0) = 0. The evaluators take a 1-D
    array of t (see :func:`~transurf.curves.batch_evaluator`): one call
    reads the base curve from two batches, at h(t) at the call's order and
    at the Simpson nodes of every lane at order 2, and each lane is formed
    with the float operations of its own scalar evaluation.
    """
    h_jet = _quadratic(h0, h1, h2)
    if isinstance(speed, (int, float)):
        s0, s1 = float(speed), 0.0
    else:
        s0, s1 = float(speed[0]), float(speed[1])

    def direction(ts, hj, mu):
        """speed(t) mu_base(h(t)) from the derivative rows ``mu`` of
        mu_base at h(t), at the order of ``hj``."""
        sp = np.zeros(hj.d.shape)
        sp[0], sp[1] = s0 + s1 * ts, s1
        return [Jet(ts, sp) * hj.compose_outer(c) for c in mu]

    @batch_evaluator
    def gamma(ts, order: int):
        k = max(order - 1, 2)
        hj = h_jet(ts, k)
        n = np.maximum(16, 2 * (np.abs(ts) / 0.05).astype(int) + 2)
        # lanes grouped by node count; a lane whose step vanishes (t = 0)
        # keeps B = 0: in linspace it would change the formula of its group
        live = ts / n != 0.0
        groups = [(m, np.flatnonzero(live & (n == m)))
                  for m in sorted(set(n[live].tolist()))]
        nodes = [np.linspace(0.0, ts[idx], m + 1) for m, idx in groups]
        # the sum reads mu's values alone at the nodes: order 2 there (jets
        # of a lower order are truncations, with equal values)
        at_nodes = base.batch_jets(np.concatenate(
            [h_jet(ss.ravel(), 2).value for ss in nodes]), 2).mu if nodes else ()
        val = np.zeros((len(ts), 3))
        start = 0
        for (m, idx), ss in zip(groups, nodes):
            stop = start + ss.size
            w = np.ones(m + 1)
            w[1:-1:2], w[2:-1:2] = 4.0, 2.0
            # the values of ``direction`` at the nodes, with 0.0 + mu as
            # the value ``compose_outer`` forms
            vals = (s0 + s1 * ss)[..., None] * (0.0 + np.stack(
                [c.d[0, start:stop].reshape(ss.shape) for c in at_nodes],
                axis=-1))
            val[idx] = ((ts[idx] / m) / 3.0)[:, None] * (
                w[:, None, None] * vals).sum(axis=0)
            start = stop
        mu = base.batch_jets(hj.value, k).mu
        dirs = direction(ts, hj, [c.d for c in mu])
        return tuple(Jet(ts, np.concatenate((val[None, :, c], dj.d[:order])))
                     for c, dj in enumerate(dirs))

    if s1 == 0.0 and s0 != 0.0:
        # the frame reads B' alone: the base at h(t), no quadrature
        @batch_evaluator
        def velocity(ts, order: int):
            k = max(order, 2)
            hj = h_jet(ts, k)
            mu = base.batch_jets(hj.value, k).mu
            return tuple(Jet(ts, dj.d[:order + 1])
                         for dj in direction(ts, hj, [c.d for c in mu]))

        return frenet_lift(gamma, domain, name=name, velocity=velocity)

    # a vanishing speed leaves the curve non-regular: frame it by transport
    @batch_evaluator
    def frame(ts, order: int):
        hj = h_jet(ts, max(order, 2))
        rows = base.batch_jets(hj.value, max(order, 2)).frame
        return tuple(tuple(hj.compose_outer(c.d) for c in row) for row in rows)

    return FramedCurve(gamma, frame, domain, name=name)


# ---------------------------------------------------------------------------
# classified instances
# ---------------------------------------------------------------------------

@functools.lru_cache(maxsize=None)
def cylinder_pair(curve: FramedCurve | None = None, t0: float = 0.4,
                  normal_hint=(0.0, 0.0, 1.0)) -> tuple[TranslationSurface, tuple[float, float]]:
    """Generalized cylinder: curve + straight line along its tangent at t0.

    Singular set is the vertical line u = t0; every point on it is a
    cuspidal edge when the curve has nonzero torsion there.
    """
    base = curve if curve is not None else helix()
    d = [c.deriv(1) for c in base.gamma_jets(t0, 2)]
    ruling = line_curve(d, normal_hint=normal_hint, name="ruling")
    s = TranslationSurface.general(base, ruling)
    return s, (t0, 0.0)


@functools.lru_cache(maxsize=None)
def slide_pair(kind: str, base: FramedCurve | None = None,
               u0: float = 0.2) -> tuple[TranslationSurface, tuple[float, float]]:
    """Tangent-sliding pair with the verdict at (u0, 0) steered by ``kind``.

    kind: "edge" (h' = 1.7), "swallowtail" (h' = -1, h'' != 0),
    "nonfront" (h' = +1, loses the front condition).
    """
    base = base if base is not None else helix()
    params = {"edge": (1.7, 0.6), "swallowtail": (-1.0, 0.8),
              "nonfront": (1.0, 0.9)}
    h1, h2 = params[kind]
    b = tangent_slide_curve(base, u0, h1, h2, name=f"slide-{kind}")
    return TranslationSurface.general(base, b), (u0, 0.0)


@functools.lru_cache(maxsize=None)
def planar_pair() -> tuple[TranslationSurface, tuple[float, float]]:
    """Two coplanar circles: frontal folds that are not fronts anywhere."""
    a = planar_circle(1.0)
    b = planar_circle(1.4, name="circle2")
    s = TranslationSurface.general(a, b)
    return s, (0.0, 0.0)


@functools.lru_cache(maxsize=None)
def singular_speed_pair(mirror: bool = False, slide_rate: float = 1.3,
                        ) -> tuple[TranslationSurface, tuple[float, float]]:
    """One curve singular at the tangency: the beaks regime.

    The non-planar cusp curve meets a slide over its own indicatrix at
    (0, 0); with ``mirror`` the roles (and the parameter axes) swap.
    ``slide_rate`` is h'(0) of the sliding reparametrization.
    """
    cusp = cusp_curve(planar=False)
    partner = tangent_slide_curve(cusp, 0.0, slide_rate, 0.0, speed=1.0,
                                  domain=(-0.3, 0.3),
                                  name=f"slide-over-cusp-{slide_rate:g}")
    if mirror:
        return TranslationSurface.general(partner, cusp), (0.0, 0.0)
    return TranslationSurface.general(cusp, partner), (0.0, 0.0)


@functools.lru_cache(maxsize=None)
def rank_zero_pair(structured: bool = True
                   ) -> tuple[TranslationSurface, tuple[float, float]]:
    """Both curves singular at a dependent point: rank d x = 0 there.

    The structured variant slides along the cusp curve's indicatrix with a
    linearly vanishing speed, so a continuous normal angle exists at the
    point; the unstructured variant pairs two transverse cusps (no angle).
    """
    cusp = cusp_curve(planar=False)
    if structured:
        partner = tangent_slide_curve(cusp, 0.0, 1.4, 0.0, speed=(0.0, 1.0),
                                      domain=(-0.3, 0.3), name="fading-slide")
        return TranslationSurface.general(cusp, partner), (0.0, 0.0)

    def gamma(t, order):
        v = Jet.variable(t, order)
        return (v * v / 2, Jet.constant(0.0, t, order), v * v * v / 3)

    def frame(t, order):
        v = Jet.variable(t, order)
        s = jets.sqrt(1 + v * v)
        return ((-v / s, Jet.constant(0.0, t, order), 1 / s),
                (Jet.constant(0.0, t, order), Jet.constant(-1.0, t, order),
                 Jet.constant(0.0, t, order)))

    other = FramedCurve(gamma, frame, (-1.2, 1.2), name="cusp-z")
    return TranslationSurface.general(cusp_curve(planar=True), other), (0.0, 0.0)
