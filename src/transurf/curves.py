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
FrameFn = Callable[[float, int], tuple[VecJets, VecJets]]


def shift3(v: VecJets, k: int = 1) -> VecJets:
    """Componentwise k-th derivative jets (k orders lower), each on a view
    of its read-only array."""
    return v if k == 0 else tuple(Jet._fresh(c.t0, c.d[k:]) for c in v)


def vec_values(v: VecJets) -> np.ndarray:
    """Values of a jet triple: shape (3,), or (3, B) for batch jets."""
    return np.array([c.value for c in v])


def _pick(x, t, idx):
    """Lanes ``idx`` of nested tuples of batch jets, or of a framed
    curvature, with base point ``t``: scalar jets for an int (a view of the
    read-only batch array), a batch for an int array (a new array); None
    gives scalar jets a lane axis (a view)."""
    if isinstance(x, Jet):
        return Jet._fresh(t, x.d[:, idx])
    if isinstance(x, FramedCurvature):
        return FramedCurvature(*_pick((x.l, x.m, x.n, x.alpha), t, idx))
    return tuple(_pick(y, t, idx) for y in x)


def batch_evaluator(fn):
    """Evaluator over a 1-D array of parameters: a float ``t`` is evaluated
    as a batch of one, whose lane is returned as scalar jets. ``fn`` may
    return nested tuples of jets (a frame pair)."""
    @functools.wraps(fn)
    def wrapped(t, order: int):
        if isinstance(t, np.ndarray):
            return fn(t, order)
        return _pick(fn(np.array([t], dtype=float), order), t, 0)
    return wrapped


@dataclass(frozen=True)
class FramedCurvature:
    """Structure functions (l, m, n, alpha) as jets at one parameter value."""

    l: Jet
    m: Jet
    n: Jet
    alpha: Jet


class FrenetData:
    """Curvature/torsion evaluators attached to Frenet-lifted curves."""

    def __init__(self, kappa: Callable[[float, int], Jet],
                 tau: Callable[[float, int], Jet]):
        self.kappa = kappa
        self.tau = tau


class FramedCurve:
    """Evaluator bundle for a framed curve (gamma, nu1, nu2).

    ``gamma`` maps (t, order) to a triple of jets, and ``frame`` maps (t,
    order) to the pair (nu1, nu2) of jet triples: the frame is evaluated as
    one object, as the framed curvature is read off it. The frame rows in
    order (nu1, nu2, mu), mu = nu1 x nu2, fix the index conventions used by
    every frame-matrix entry downstream.

    Evaluator contract: ``t`` is a float, or a 1-D array of parameters for
    :meth:`batch_jets`, and the evaluator then returns jets with a batch axis
    whose lane k equals its scalar result at ``t[k]`` bitwise. Evaluators
    built from ``Jet.variable``, ``Jet.constant``, jet arithmetic and the
    ``jets`` functions meet it unchanged. One that does side-work over its
    parameters (an ODE state, a quadrature) is written for arrays and
    wrapped in :func:`batch_evaluator`, so a float goes through the same
    code as a batch of one; no operation of such an evaluator may mix lanes
    or depend on which other lanes share its batch. The per-point
    readers (``gamma_jets``, ``frame_row``, ``curvature``) take floats only
    and evaluate a fresh :class:`CurveJets` on every call; code that reads a
    point more than once holds its ``CurveJets`` instead.

    A curvature source, as :class:`~transurf.framefield.OdeFramedCurve`
    takes it, maps (ts, order) with ``ts`` a 1-D array to a
    :class:`FramedCurvature` of batch jets whose lane k equals
    ``curvature(ts[k], order)`` bitwise; :meth:`batch_curvature` is one.
    Arrays go to the batch methods only, never to the per-point ones.
    """

    def __init__(self, gamma: VecFn, frame: FrameFn,
                 domain: tuple[float, float], name: str = "curve",
                 period: float | None = None,
                 frenet: FrenetData | None = None,
                 validate: bool = True):
        self._gamma = gamma
        self._frame = frame
        self.domain = (float(domain[0]), float(domain[1]))
        self.name = name
        self.period = period
        self.frenet = frenet
        self._speed_deviation: float | None = None
        self.negates: FramedCurve | None = None   # set by :meth:`negated`
        if validate:
            self._validate_frames()

    # -- evaluation ----------------------------------------------------------

    def gamma_jets(self, t: float, order: int = 6) -> VecJets:
        return CurveJets(self, t, order).gamma

    def frame_row(self, i: int, t: float, order: int = 6) -> VecJets:
        """Row i of the moving frame, 1-indexed as (nu1, nu2, mu)."""
        return CurveJets(self, t, order).row(i)

    def curvature(self, t: float, order: int = 5) -> FramedCurvature:
        """Framed curvature (l, m, n, alpha) as jets of the given order."""
        return CurveJets(self, t, order + 1).curvature

    def batch_curvature(self, ts, order: int = 5) -> FramedCurvature:
        """Framed curvature at every parameter of the 1-D array ``ts``: the
        curvature source that :class:`~transurf.framefield.OdeFramedCurve`
        takes."""
        return self.batch_jets(ts, order + 1).curvature

    def point(self, t: float) -> np.ndarray:
        return vec_values(self.gamma_jets(t, 2))

    def batch_jets(self, ts, order: int = 6) -> "CurveJets":
        """Jets of gamma and the frame at every parameter of the 1-D array
        ``ts``, each evaluator called once on the whole array."""
        return CurveJets(self, np.asarray(ts, dtype=float), order)

    # -- flags and checks ----------------------------------------------------

    def frame_residual(self, t: float) -> float:
        """Worst violation of unit/orthogonality/tangency at t."""
        at = CurveJets(self, t, 2)
        (n1, n2), mu = at.frame, at.mu
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
            alpha = self.batch_jets(np.linspace(*self.domain, 33), 2).alpha
            self._speed_deviation = max(
                abs(abs(a) - 1.0) for a in alpha.value.tolist())
        return bool(self._speed_deviation < arc_tol)

    @functools.cached_property
    def speed_slope(self) -> float:
        """The largest |alpha'| at 64 domain samples, one batch."""
        alpha = self.batch_jets(np.linspace(*self.domain, 64), 2).alpha
        return float(np.max(np.abs(alpha.d[1])))

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
        return FramedCurve(gamma, self._frame, self.domain,
                           name=f"{self.name}*{s:g}", period=self.period,
                           frenet=fr, validate=False)

    def negated(self) -> "FramedCurve":
        """Curve -gamma with the same frame; curvature (l, m, n, -alpha)."""
        def gamma(t, order):
            return tuple(-c for c in self._gamma(t, order))
        out = FramedCurve(gamma, self._frame, self.domain,
                          name=f"-{self.name}", period=self.period,
                          frenet=self.frenet, validate=False)
        out.negates = self
        return out


class CurveJets:
    """Jets of one curve at a parameter ``t``: a float, or a 1-D array whose
    jets carry a batch axis.

    Each attribute is evaluated on first use, once for all of ``t``: the
    evaluators give ``gamma`` and the pair ``frame`` = (nu1, nu2); ``mu`` is
    nu1 x nu2, :meth:`row` a frame row of (nu1, nu2, mu), ``alpha`` the speed
    gamma' . mu and ``curvature`` the framed curvature, whose jets (like
    ``alpha``) are one order lower than ``order``. Lane k of a batch equals
    the jets at the float ``t[k]`` bitwise, and every jet of a lower order
    is the truncation of the one here, bitwise: a point read at several
    orders is evaluated once, at the highest.
    """

    def __init__(self, curve: FramedCurve, t, order: int):
        if isinstance(t, np.ndarray) and t.ndim != 1:
            raise ValueError("batch parameters must be a 1-D array")
        self.curve = curve
        self.t = t
        self.order = order
        self._lanes = None      # (batch, index) of jets made by :meth:`take`
        self._negates = None    # the jets whose gamma this one negates

    def _read(self, name: str, evaluate: Callable[[], object]):
        """Attribute ``name``: read off the lanes of the batch these jets
        were taken from; for a batch of one lane, that of the jets at its
        float with a lane axis (equal bitwise, and float arithmetic is
        faster than arrays of one lane); else ``evaluate()``."""
        if self._lanes is not None:
            batch, idx = self._lanes
            return _pick(getattr(batch, name), self.t, idx)
        if isinstance(self.t, np.ndarray) and len(self.t) == 1:
            return _pick(getattr(self._one, name), self.t, None)
        return evaluate()

    @functools.cached_property
    def _one(self) -> "CurveJets":
        """The jets at the float of a batch of one lane."""
        return CurveJets(self.curve, float(self.t[0]), self.order)

    @functools.cached_property
    def gamma(self) -> VecJets:
        if self._negates is not None:
            return tuple(-c for c in self._negates.gamma)
        return self._read("gamma",
                          lambda: self.curve._gamma(self.t, self.order))

    @functools.cached_property
    def frame(self) -> tuple[VecJets, VecJets]:
        return self._read("frame",
                          lambda: self.curve._frame(self.t, self.order))

    @functools.cached_property
    def mu(self) -> VecJets:
        return self._read("mu", lambda: cross3(*self.frame))

    def row(self, i: int) -> VecJets:
        """Frame row i, 1-indexed as (nu1, nu2, mu)."""
        if i == 3:
            return self.mu
        if i not in (1, 2):
            raise IndexError(i)
        return self.frame[i - 1]

    def take(self, idx) -> "CurveJets":
        """The jets of a batch at ``t[idx]``, read off its lanes with no
        evaluator call: for an int k the scalar jets at the float t[k], for
        an int array a batch with one lane per entry. ``gamma``, ``frame``,
        ``mu``, ``alpha`` and ``curvature`` are read on first use, each
        evaluated once on this batch for all the jets taken from it; jets
        taken from a batch that was itself taken read the first batch's
        lanes. Each lane equals a fresh evaluation at its parameter
        bitwise."""
        t = float(self.t[idx]) if isinstance(idx, int) else self.t[idx]
        out = CurveJets(self.curve, t, self.order)
        batch, lanes = self._lanes or (self, None)
        out._lanes = (batch, idx if lanes is None else lanes[idx])
        return out

    def for_curve(self, curve: FramedCurve) -> "CurveJets":
        """The jets at ``t`` of ``curve``, which has this curve's frame
        evaluator: this frame and mu, and gamma from its own evaluator, or
        read on first use as the negation of this gamma when ``curve`` is
        this curve negated (:meth:`FramedCurve.negated`), which equals its
        evaluator bitwise."""
        out = CurveJets(curve, self.t, self.order)
        out.frame, out.mu = self.frame, self.mu
        if curve.negates is self.curve:
            out._negates = self
        if isinstance(self.t, np.ndarray) and len(self.t) == 1:
            out._one = self._one.for_curve(curve)
        return out

    @functools.cached_property
    def alpha(self) -> Jet:
        return self._read("alpha", lambda: dot3(shift3(self.gamma), self.mu))

    def unit_speed_gate(self, hyp_tol: float) -> bool:
        """Pointwise relaxation of the arc-length hypothesis:
        |alpha| = 1 and alpha' = 0 at t, each to within hyp_tol."""
        return (abs(abs(self.alpha.value) - 1.0) < hyp_tol
                and abs(self.alpha.deriv(1)) < hyp_tol)

    @functools.cached_property
    def curvature(self) -> FramedCurvature:
        def evaluate():
            n1, n2 = self.frame
            return FramedCurvature(l=dot3(shift3(n1), n2),
                                   m=dot3(shift3(n1), self.mu),
                                   n=dot3(shift3(n2), self.mu),
                                   alpha=self.alpha)
        return self._read("curvature", evaluate)


# ---------------------------------------------------------------------------
# Frenet adapter
# ---------------------------------------------------------------------------

def frenet_tail(g1: VecJets, t, nondeg_tol: float):
    """(|g1 x g1'|, |g1|, (normal, binormal)) from the velocity jets g1 at t."""
    c = cross3(g1, shift3(g1))
    csq = dot3(c, c)
    flat = csq.value < nondeg_tol**2
    if np.any(flat):
        where = t if not isinstance(t, np.ndarray) else float(t[flat][0])
        raise NotNonDegenerate("gamma' x gamma'' vanishes", where)
    cn = jets.sqrt(csq)
    speed = norm3(g1)
    tv = tuple(x / speed for x in g1)
    bv = tuple(x / cn for x in c)
    return cn, speed, (cross3(bv, tv), bv)


class FrenetFrame:
    """The frame evaluator of :func:`frenet_lift`, from its velocity jets."""

    def __init__(self, velocity: VecFn, nondeg_tol: float):
        self.velocity = velocity
        self.nondeg_tol = nondeg_tol

    def parts(self, t, order: int):
        return frenet_tail(self.velocity(t, order + 1), t, self.nondeg_tol)

    def __call__(self, t, order: int) -> tuple[VecJets, VecJets]:
        return self.parts(t, order)[2]


def frenet_pair(cu: FramedCurve, u: np.ndarray, cv: FramedCurve,
                v: np.ndarray, order: int) -> tuple[CurveJets, CurveJets]:
    """The jets of ``cu`` at u and of ``cv`` at v (1-D arrays), two curves
    with :class:`FrenetFrame` evaluators of one ``nondeg_tol``: each curve
    evaluates its velocity jets, and :func:`frenet_tail` and mu run once on
    the joined jets. Every lane equals its curve's own evaluation bitwise."""
    t = np.concatenate((u, v))
    g1 = tuple(Jet._fresh(t, np.hstack((a.d, b.d))) for a, b in zip(
        cu._frame.velocity(u, order + 1), cv._frame.velocity(v, order + 1)))
    frame = frenet_tail(g1, t, cu._frame.nondeg_tol)[2]
    both = (frame, cross3(*frame))
    out = CurveJets(cu, u, order), CurveJets(cv, v, order)
    for jets, idx in zip(out, (slice(len(u)), slice(len(u), None))):
        jets.frame, jets.mu = _pick(both, jets.t, idx)
    return out


def frenet_lift(gamma: VecFn, domain: tuple[float, float],
                name: str = "frenet-curve", period: float | None = None,
                tols: Tolerances = DEFAULT,
                velocity: VecFn | None = None) -> FramedCurve:
    """Frame a non-degenerate regular curve with (principal normal, binormal).

    For an arc-length parameter the framed curvature is (tau, -kappa, 0, 1);
    for a general regular parameter it evaluates to
    (|gamma'| tau, -|gamma'| kappa, 0, |gamma'|).

    The frame reads gamma' alone: ``velocity(t, order)``, when given, is its
    jet of that order, equal bitwise to ``shift3(gamma(t, order + 1))``, for
    a curve whose gamma costs more than its derivative (a quadrature).
    """
    if velocity is None:
        def velocity(t, order):
            return shift3(gamma(t, order + 1))
    frame = FrenetFrame(velocity, tols.nondeg_tol)

    def kappa(t, order):
        cn, speed, _ = frame.parts(t, order)
        return cn / (speed * speed * speed)

    def tau(t, order):
        g1 = velocity(t, order + 3)
        g2 = shift3(g1)
        g3 = shift3(g2)
        c = cross3(g1, g2)
        return det3(g1, g2, g3) / dot3(c, c)

    # non-degeneracy at 33 domain samples, checked as one batch
    frame.parts(np.linspace(domain[0], domain[1], 33), 2)

    return FramedCurve(gamma, frame, domain, name=name, period=period,
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
        raise ParseError(
            f"curve must use one variable, found {sorted(names)}")
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
        raise ParseError(
            f"frame uses unknown identifiers {sorted(extra)}")
    rows = _expression_vecfn(nu1_nodes + nu2_nodes, spec.variable)

    def frame(t, order):
        r = rows(t, order)
        return r[:3], r[3:]

    return FramedCurve(gamma, frame, domain, name=label)


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

    def frame(t, order):
        u = Jet.variable(t, order)
        s = jets.sqrt(1 + u * u)
        return ((-u / s, 1 / s, _const(t, order)),
                (_const(t, order), _const(t, order), _const(t, order, 1.0)))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name="s0_a")


@_register("s0_b")
def _s0_b() -> FramedCurve:
    def gamma(t, order):
        v = Jet.variable(t, order)
        return (v, _const(t, order), v * v / 2)

    def frame(t, order):
        v = Jet.variable(t, order)
        s = jets.sqrt(1 + v * v)
        return ((v / s, _const(t, order), -1 / s),
                (_const(t, order), _const(t, order, 1.0), _const(t, order)))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name="s0_b")


@_register("s1p_a")
def _s1p_a() -> FramedCurve:
    def gamma(t, order):
        u = Jet.variable(t, order)
        return (u, u * u * u / 3, _const(t, order))

    def frame(t, order):
        u = Jet.variable(t, order)
        s = jets.sqrt(1 + (u * u) * (u * u))
        return ((-(u * u) / s, 1 / s, _const(t, order)),
                (_const(t, order), _const(t, order), _const(t, order, 1.0)))

    return FramedCurve(gamma, frame, (-2.0, 2.0), name="s1p_a")


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

    def frame(t, order):
        u = Jet.variable(t, order)
        su, cu, s2u = jets.sin(u), jets.cos(u), jets.sin(2 * u)
        s = jets.sqrt(s2u * s2u + 1)
        return ((-su, cu, _const(t, order)),
                (-s2u * cu / s, -s2u * su / s, 1 / s))

    return FramedCurve(gamma, frame, (-math.pi, math.pi),
                       name="sin_curve", period=2 * math.pi)


@_register("self_s1p")
def _self_s1p() -> FramedCurve:
    # regular non-arc-length curve; unit speed with vanishing speed derivative
    # exactly at t = 0 and t = pi
    w2 = math.sqrt(2.0)

    def gamma(t, order):
        u = Jet.variable(t, order)
        s2u = jets.sin(2 * u)
        x = (jets.sin(u) + s2u) / (2 * w2) - jets.sin(3 * u) / (6 * w2)
        y = -jets.cos(2 * u) / (2 * w2)
        z = s2u / (2 * w2)
        return (x, y, z)

    return frenet_lift(gamma, (-1.0, math.pi + 1.0), name="self_s1p",
                       period=2 * math.pi)
