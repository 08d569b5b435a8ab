"""Framed space curves: jet evaluation of the curve and its moving frame,
framed curvature, the Frenet adapter for non-degenerate curves, and the
curve catalog.

A framed curve is a triple (gamma, nu1, nu2) with nu1, nu2 orthonormal and
both orthogonal to gamma'. Its framed curvature (l, m, n, alpha) consists of
the frame structure functions and the tangential speed, with
gamma' = alpha * mu, mu = nu1 x nu2. The curve itself may be singular
(alpha = 0 somewhere); the frame never is.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from . import expr, jets
from .errors import InvalidFrame, NotNonDegenerate, ParseError, UnknownCurve
from .jets import Jet, cross3, det3, dot3, norm3
from .tolerances import DEFAULT, Tolerances

VecJets = tuple[Jet, Jet, Jet]
VecFn = Callable[[float, int], VecJets]


def shift3(v: VecJets, k: int = 1) -> VecJets:
    """Componentwise k-th derivative jets (k orders lower)."""
    return v if k == 0 else tuple(Jet(c.t0, c.d[k:]) for c in v)


def vec_values(v: VecJets) -> np.ndarray:
    """Values of a jet triple: shape (3,), or (3, B) for batch jets."""
    return np.array([c.value for c in v])


def lanewise(fn: VecFn) -> VecFn:
    """Evaluator for a batch of parameters from a scalar-only evaluator.

    For an evaluator that does scalar side-work (an ODE state, a quadrature)
    this calls ``fn`` once per lane and stacks the lanes, so each lane is the
    scalar evaluation itself.
    """
    @functools.wraps(fn)
    def wrapped(t, order: int) -> VecJets:
        if not isinstance(t, np.ndarray):
            return fn(t, order)
        lanes = [fn(float(tk), order) for tk in t]
        return tuple(Jet(t, np.stack([lane[c].d for lane in lanes], axis=1))
                     for c in range(3))
    return wrapped


@dataclass(frozen=True)
class FramedCurvature:
    """Structure functions (l, m, n, alpha) as jets at one parameter value."""

    l: Jet
    m: Jet
    n: Jet
    alpha: Jet

    def values(self) -> tuple[float, float, float, float]:
        return self.l.value, self.m.value, self.n.value, self.alpha.value


class FrenetData:
    """Curvature/torsion evaluators attached to Frenet-lifted curves."""

    def __init__(self, kappa: Callable[[float, int], Jet],
                 tau: Callable[[float, int], Jet]):
        self.kappa = kappa
        self.tau = tau


class FramedCurve:
    """Evaluator bundle for a framed curve; all evaluation is pure and cached.

    ``gamma``, ``nu1`` and ``nu2`` map (t, order) to triples of jets. The
    frame rows in order (nu1, nu2, mu) fix the index conventions used by
    every frame-matrix entry downstream.

    Evaluator contract: ``t`` is a float, or a 1-D array of parameters for
    :meth:`batch_jets`, and the evaluator then returns jets with a batch axis
    whose lane k equals its scalar result at ``t[k]`` bitwise. Evaluators
    built from ``Jet.variable``, ``Jet.constant``, jet arithmetic and the
    ``jets`` functions meet it unchanged. One that needs scalar side-work
    (an ODE state, a quadrature) is wrapped in :func:`lanewise`. The
    per-point methods (``gamma_jets``, ``frame_row``, ``curvature``, ...)
    take floats only and cache their results; :meth:`batch_jets` bypasses
    the cache.
    """

    def __init__(self, gamma: VecFn, nu1: VecFn, nu2: VecFn,
                 domain: tuple[float, float], name: str = "curve",
                 period: float | None = None,
                 frenet: FrenetData | None = None,
                 validate: bool = True):
        self._gamma = gamma
        self._nu1 = nu1
        self._nu2 = nu2
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        self.period = period
        self.frenet = frenet
        self._cache: dict = {}
        self._speed_deviation: float | None = None
        if validate:
            self._validate_frames()

    # -- evaluation ----------------------------------------------------------

    def _cached(self, key, fn):
        hit = self._cache.get(key)
        if hit is None:
            hit = fn()
            if len(self._cache) > 20000:
                self._cache.clear()
            self._cache[key] = hit
        return hit

    def gamma_jets(self, t: float, order: int = 6) -> VecJets:
        return self._cached(("g", t, order), lambda: self._gamma(t, order))

    def nu1_jets(self, t: float, order: int = 6) -> VecJets:
        return self._cached(("n1", t, order), lambda: self._nu1(t, order))

    def nu2_jets(self, t: float, order: int = 6) -> VecJets:
        return self._cached(("n2", t, order), lambda: self._nu2(t, order))

    def mu_jets(self, t: float, order: int = 6) -> VecJets:
        return self._cached(
            ("mu", t, order),
            lambda: cross3(self.nu1_jets(t, order), self.nu2_jets(t, order)))

    def frame_row(self, i: int, t: float, order: int = 6) -> VecJets:
        """Row i of the moving frame, 1-indexed as (nu1, nu2, mu)."""
        if i == 1:
            return self.nu1_jets(t, order)
        if i == 2:
            return self.nu2_jets(t, order)
        if i == 3:
            return self.mu_jets(t, order)
        raise IndexError(i)

    def curvature(self, t: float, order: int = 5) -> FramedCurvature:
        """Framed curvature (l, m, n, alpha) as jets of the given order."""
        def build():
            n1 = self.nu1_jets(t, order + 1)
            n2 = self.nu2_jets(t, order + 1)
            mu = self.mu_jets(t, order + 1)
            g = self.gamma_jets(t, order + 1)
            return FramedCurvature(
                l=dot3(shift3(n1), n2),
                m=dot3(shift3(n1), mu),
                n=dot3(shift3(n2), mu),
                alpha=dot3(shift3(g), mu),
            )
        return self._cached(("curv", t, order), build)

    def point(self, t: float) -> np.ndarray:
        return vec_values(self.gamma_jets(t, 2))

    def batch_jets(self, ts, order: int = 6) -> "CurveBatch":
        """Jets of gamma and the frame at every parameter of the 1-D array
        ``ts``, each evaluator called once on the whole array."""
        return CurveBatch(self, ts, order)

    # -- flags and checks ----------------------------------------------------

    def frame_residual(self, t: float) -> float:
        """Worst violation of unit/orthogonality/tangency at t."""
        n1 = self.nu1_jets(t, 2)
        n2 = self.nu2_jets(t, 2)
        mu = cross3(n1, n2)
        gd = shift3(self.gamma_jets(t, 3))
        alpha = dot3(gd, mu)
        recon = [gd[i] - alpha * mu[i] for i in range(3)]
        return max(
            abs(dot3(n1, n1).value - 1.0),
            abs(dot3(n2, n2).value - 1.0),
            abs(dot3(n1, n2).value),
            abs(dot3(gd, n1).value),
            abs(dot3(gd, n2).value),
            max(abs(r.value) for r in recon),
        )

    def _validate_frames(self):
        a, b = self.domain
        for t in np.linspace(a, b, 7):
            r = self.frame_residual(float(t))
            if not (r < 1e-7):
                raise InvalidFrame(
                    f"frame of {self.name!r} violates its invariants at "
                    f"t={t:.6g} (residual {r:.3e})")

    def is_arc_length(self, arc_tol: float) -> bool:
        """sup | |gamma'| - 1 | < arc_tol over 33 domain samples.

        The sup is computed once per curve and serves every tolerance.
        """
        if self._speed_deviation is None:
            a, b = self.domain
            self._speed_deviation = max(
                abs(abs(self.curvature(float(t), 2).alpha.value) - 1.0)
                for t in np.linspace(a, b, 33))
        return bool(self._speed_deviation < arc_tol)

    def unit_speed_gate(self, t: float, hyp_tol: float) -> bool:
        """Pointwise relaxation of the arc-length hypothesis:
        |alpha| = 1 and alpha' = 0 at t, each to within hyp_tol."""
        c = self.curvature(t, 2)
        return (abs(abs(c.alpha.value) - 1.0) < hyp_tol
                and abs(c.alpha.deriv(1)) < hyp_tol)

    # -- derived curves ------------------------------------------------------

    def scaled(self, s: float) -> "FramedCurve":
        """Curve s*gamma with the same frame; curvature (l, m, n, s*alpha)."""
        def gamma(t, order):
            return tuple(s * c for c in self._gamma(t, order))
        fr = None
        if self.frenet is not None and s > 0:
            base = self.frenet
            fr = FrenetData(
                kappa=lambda t, order: base.kappa(t, order) / s,
                tau=lambda t, order: base.tau(t, order) / s)
        return FramedCurve(gamma, self._nu1, self._nu2, self.domain,
                           name=f"{self.name}*{s:g}", period=self.period,
                           frenet=fr, validate=False)

    def negated(self) -> "FramedCurve":
        """Curve -gamma with the same frame; curvature (l, m, n, -alpha)."""
        def gamma(t, order):
            return tuple(-c for c in self._gamma(t, order))
        return FramedCurve(gamma, self._nu1, self._nu2, self.domain,
                           name=f"-{self.name}", period=self.period,
                           frenet=self.frenet, validate=False)


class CurveBatch:
    """Jets of one curve at an array of parameters, with a batch axis.

    Each attribute is evaluated on first use, once for the whole array. Lane
    k equals the per-point method at ``ts[k]`` bitwise: ``gamma`` is
    ``gamma_jets``, ``nu1``, ``nu2`` and ``mu`` are ``frame_row`` 1-3 (the
    ``*_jets`` methods), and ``alpha`` is ``curvature(t, order - 1).alpha``.
    """

    def __init__(self, curve: FramedCurve, ts, order: int):
        # a private array, so the Frenet evaluators may match it by identity
        self.ts = np.array(ts, dtype=float)
        if self.ts.ndim != 1:
            raise ValueError("batch parameters must be a 1-D array")
        self.curve = curve
        self.order = order

    @functools.cached_property
    def gamma(self) -> VecJets:
        return self.curve._gamma(self.ts, self.order)

    @functools.cached_property
    def nu1(self) -> VecJets:
        return self.curve._nu1(self.ts, self.order)

    @functools.cached_property
    def nu2(self) -> VecJets:
        return self.curve._nu2(self.ts, self.order)

    @functools.cached_property
    def mu(self) -> VecJets:
        return cross3(self.nu1, self.nu2)

    @functools.cached_property
    def alpha(self) -> Jet:
        return dot3(shift3(self.gamma), self.mu)


# ---------------------------------------------------------------------------
# Frenet adapter
# ---------------------------------------------------------------------------

def frenet_lift(gamma: VecFn, domain: tuple[float, float],
                name: str = "frenet-curve", period: float | None = None,
                tols: Tolerances = DEFAULT) -> FramedCurve:
    """Frame a non-degenerate regular curve with (principal normal, binormal).

    For an arc-length parameter the framed curvature is (tau, -kappa, 0, 1);
    for a general regular parameter it evaluates to
    (|gamma'| tau, -|gamma'| kappa, 0, |gamma'|).
    """

    parts_cache: dict = {}
    last_batch: list = [None, None, None]   # (ts, order, parts)

    def build(t, order: int):
        g = gamma(t, order + 2)
        g1 = shift3(g)
        g2 = shift3(g1)
        c = cross3(g1, g2)
        csq = dot3(c, c)
        flat = csq.value < tols.nondeg_tol**2
        if np.any(flat):
            where = t if not isinstance(t, np.ndarray) else float(t[flat][0])
            raise NotNonDegenerate("gamma' x gamma'' vanishes", where)
        cn = jets.sqrt(csq)
        speed = norm3(g1)
        tv = tuple(x / speed for x in g1)
        bv = tuple(x / cn for x in c)
        nv = cross3(bv, tv)
        return (g1, g2, cn, speed, nv, bv)

    def parts(t, order: int):
        if isinstance(t, np.ndarray):
            # nu1 and nu2 of one CurveBatch come with the same array
            if last_batch[0] is not t or last_batch[1] != order:
                last_batch[:] = (t, order, build(t, order))
            return last_batch[2]
        hit = parts_cache.get((t, order))
        if hit is None:
            hit = build(t, order)
            if len(parts_cache) > 20000:
                parts_cache.clear()
            parts_cache[(t, order)] = hit
        return hit

    def nu1(t, order):
        return parts(t, order)[4]

    def nu2(t, order):
        return parts(t, order)[5]

    def kappa(t, order):
        g1, g2, cn, speed, _, _ = parts(t, order)
        return cn / (speed * speed * speed)

    def tau(t, order):
        g = gamma(t, order + 4)
        g1 = shift3(g)
        g2 = shift3(g1)
        g3 = shift3(g2)
        c = cross3(g1, g2)
        return det3(g1, g2, g3) / dot3(c, c)

    for t in np.linspace(domain[0], domain[1], 33):
        parts(float(t), 2)

    return FramedCurve(gamma, nu1, nu2, domain, name=name, period=period,
                       frenet=FrenetData(kappa, tau))


# ---------------------------------------------------------------------------
# expression-defined curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class CurveSpec:
    """Parsed curve input: either a component triple or a catalog reference."""

    components: tuple | None = None       # triple of expression ASTs
    variable: str = "u"
    frame: object = "frenet"              # "frenet" | (nu1 triple, nu2 triple)
    catalog_name: str | None = None

    def source(self) -> str:
        if self.catalog_name is not None:
            return f"@{self.catalog_name}"
        return expr.serialize_tuple3(self.components)


def parse_curve(src: str) -> CurveSpec:
    """Parse ``(x, y, z)`` expression text (or ``@name`` catalog shorthand)."""
    src = src.strip()
    if src.startswith("@"):
        name = src[1:].strip()
        if name not in _CATALOG:
            raise UnknownCurve(f"unknown catalog curve {name!r}")
        return CurveSpec(catalog_name=name)
    nodes = expr.parse_tuple3(src)
    names = set().union(*(expr.variables(n) for n in nodes))
    if len(names) > 1:
        raise ParseError(f"curve must use one variable, found {sorted(names)}", 0)
    var = names.pop() if names else "u"
    return CurveSpec(components=nodes, variable=var)


def _expression_vecfn(nodes, var: str) -> VecFn:
    def fn(t: float, order: int) -> VecJets:
        env = {var: Jet.variable(t, order)}
        out = []
        for node in nodes:
            val = expr.evaluate(node, env)
            if isinstance(val, (int, float)):
                val = Jet.constant(float(val), t, order)
            out.append(val)
        return tuple(out)
    return fn


def build_curve(spec: CurveSpec, domain: tuple[float, float] = (-2.0, 2.0),
                name: str | None = None, tols: Tolerances = DEFAULT) -> FramedCurve:
    """Realize a CurveSpec as a FramedCurve (catalog, Frenet, or explicit)."""
    if spec.catalog_name is not None:
        return catalog(spec.catalog_name)
    gamma = _expression_vecfn(spec.components, spec.variable)
    label = name or spec.source()
    if spec.frame == "frenet":
        return frenet_lift(gamma, domain, name=label, tols=tols)
    nu1_nodes, nu2_nodes = spec.frame
    extra = (set().union(*(expr.variables(n) for n in nu1_nodes + nu2_nodes))
             - {spec.variable})
    if extra:
        raise ParseError(f"frame uses unknown identifiers {sorted(extra)}", 0)
    return FramedCurve(gamma,
                       _expression_vecfn(nu1_nodes, spec.variable),
                       _expression_vecfn(nu2_nodes, spec.variable),
                       domain, name=label)


# ---------------------------------------------------------------------------
# catalog
# ---------------------------------------------------------------------------

_CATALOG: dict[str, Callable[[], FramedCurve]] = {}
_INSTANCES: dict[str, FramedCurve] = {}


def _register(name):
    def deco(builder):
        _CATALOG[name] = builder
        return builder
    return deco


def catalog(name: str) -> FramedCurve:
    """Fetch a catalog curve by name; instances are shared and immutable."""
    if name not in _CATALOG:
        raise UnknownCurve(f"unknown catalog curve {name!r}")
    if name not in _INSTANCES:
        _INSTANCES[name] = _CATALOG[name]()
    return _INSTANCES[name]


def catalog_names() -> tuple[str, ...]:
    return tuple(sorted(_CATALOG))


def _const(t, order, value=0.0):
    return Jet.constant(value, t, order)


@_register("s0_a")
def _s0_a() -> FramedCurve:
    # planar parabola with an explicit frame; curvature (0, -1/(1+u^2), 0, sqrt(1+u^2))
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, u * u / 2, _const(t, order))

    def nu1(t, order):
        u = Jet.variable(t, order)
        s = jets.sqrt(1 + u * u)
        return (-u / s, 1 / s, _const(t, order))

    def nu2(t, order):
        return (_const(t, order), _const(t, order), _const(t, order, 1.0))

    return FramedCurve(gamma, nu1, nu2, (-2.0, 2.0), name="s0_a")


@_register("s0_b")
def _s0_b() -> FramedCurve:
    def gamma(t, order):
        v = Jet.variable(t, order)
        return (v, _const(t, order), v * v / 2)

    def nu1(t, order):
        v = Jet.variable(t, order)
        s = jets.sqrt(1 + v * v)
        return (v / s, _const(t, order), -1 / s)

    def nu2(t, order):
        return (_const(t, order), _const(t, order, 1.0), _const(t, order))

    return FramedCurve(gamma, nu1, nu2, (-2.0, 2.0), name="s0_b")


@_register("s1p_a")
def _s1p_a() -> FramedCurve:
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, u * u * u / 3, _const(t, order))

    def nu1(t, order):
        u = Jet.variable(t, order)
        s = jets.sqrt(1 + (u * u) * (u * u))
        return (-(u * u) / s, 1 / s, _const(t, order))

    def nu2(t, order):
        return (_const(t, order), _const(t, order), _const(t, order, 1.0))

    return FramedCurve(gamma, nu1, nu2, (-2.0, 2.0), name="s1p_a")


@_register("s1p_b")
def _s1p_b() -> FramedCurve:
    fc = _s0_b()
    fc.name = "s1p_b"
    return fc


@_register("s1m_a")
def _s1m_a() -> FramedCurve:
    # rotated circular helix, arc length, curvature 1 and torsion 1
    r10 = math.sqrt(10.0)
    rot = np.array([[3 / r10, 0.0, -1 / r10],
                    [0.0, 1.0, 0.0],
                    [1 / r10, 0.0, 3 / r10]])
    w = math.sqrt(2.0)

    def gamma(t, order):
        u = Jet.variable(t, order)
        raw = (u / w, jets.cos(w * u) / 2, jets.sin(w * u) / 2)
        return tuple(
            rot[i, 0] * raw[0] + rot[i, 1] * raw[1] + rot[i, 2] * raw[2]
            for i in range(3))

    return frenet_lift(gamma, (-2.0, 2.0), name="s1m_a")


@_register("s1m_b")
def _s1m_b() -> FramedCurve:
    r5 = math.sqrt(5.0)

    def gamma(t, order):
        v = Jet.variable(t, order)
        return (v / r5, 2 * jets.cos(r5 * v) / 5, 2 * jets.sin(r5 * v) / 5)

    return frenet_lift(gamma, (-2.0, 2.0), name="s1m_b")


@_register("sin_curve")
def _sin_curve() -> FramedCurve:
    # closed curve with an explicit non-Frenet frame; alpha = sqrt(sin^2 2u + 1)
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (jets.sin(u), -jets.cos(u), -jets.cos(2 * u) / 2)

    def nu1(t, order):
        u = Jet.variable(t, order)
        return (-jets.sin(u), jets.cos(u), _const(t, order))

    def nu2(t, order):
        u = Jet.variable(t, order)
        s2u = jets.sin(2 * u)
        s = jets.sqrt(s2u * s2u + 1)
        return (-s2u * jets.cos(u) / s, -s2u * jets.sin(u) / s, 1 / s)

    return FramedCurve(gamma, nu1, nu2, (-math.pi, math.pi),
                       name="sin_curve", period=2 * math.pi)


@_register("self_s1p")
def _self_s1p() -> FramedCurve:
    # regular non-arc-length curve; unit speed with vanishing speed derivative
    # exactly at t = 0 and t = pi
    w2 = math.sqrt(2.0)

    def gamma(t, order):
        u = Jet.variable(t, order)
        x = (jets.sin(u) + jets.sin(2 * u)) / (2 * w2) - jets.sin(3 * u) / (6 * w2)
        y = -jets.cos(2 * u) / (2 * w2)
        z = jets.sin(2 * u) / (2 * w2)
        return (x, y, z)

    return frenet_lift(gamma, (-1.0, math.pi + 1.0), name="self_s1p",
                       period=2 * math.pi)
