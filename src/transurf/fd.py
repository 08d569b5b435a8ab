"""Finite-difference oracles: Richardson-extrapolated central differences.

These are deliberately independent of the jet arithmetic so they can serve
as a cross-check of it.
"""
from __future__ import annotations

import numpy as np

# central-difference weights for derivative order k on stencil -r..r
_STENCILS = {
    1: (np.array([-0.5, 0.0, 0.5]), 1),
    2: (np.array([1.0, -2.0, 1.0]), 1),
    3: (np.array([-0.5, 1.0, 0.0, -1.0, 0.5]), 2),
    4: (np.array([1.0, -4.0, 6.0, -4.0, 1.0]), 2),
}

# default steps per derivative order, balancing truncation against the
# roundoff amplification ~ eps / h^k
DEFAULT_STEPS = {1: 1e-4, 2: 1e-4, 3: 1e-3, 4: 1e-2}


def central_points(x: float, k: int, h: float) -> list[float]:
    """The points at which :func:`central_derivative` evaluates f."""
    r = _STENCILS[k][1]
    return [x + i * h for i in range(-r, r + 1)]


def central_derivative(f, x: float, k: int, h: float) -> float:
    """Plain central difference of order-2 accuracy for the k-th derivative,
    k >= 1."""
    pts = [f(t) for t in central_points(x, k, h)]
    return float(np.dot(_STENCILS[k][0], pts) / h**k)


def richardson_points(x: float, k: int) -> list[float]:
    """The points at which :func:`richardson_derivative` evaluates f at its
    default step, so that a caller can evaluate them as one batch."""
    h = DEFAULT_STEPS[k]
    return central_points(x, k, h) + central_points(x, k, h / 2.0)


def richardson_derivative(f, x: float, k: int, h: float | None = None) -> float:
    """Richardson-extrapolated central difference (removes the h^2 term)."""
    if k == 0:
        return f(x)
    if h is None:
        h = DEFAULT_STEPS[k]
    d1 = central_derivative(f, x, k, h)
    d2 = central_derivative(f, x, k, h / 2.0)
    return (4.0 * d2 - d1) / 3.0


def normalized_error(a: float, b: float) -> float:
    """|a - b| scaled by max(1, |a|, |b|); relative above 1, absolute below."""
    return abs(a - b) / max(1.0, abs(a), abs(b))
