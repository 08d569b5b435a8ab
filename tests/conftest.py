import numpy as np
import pytest

from transurf import instances
from transurf.classify import classify
from transurf.curves import shift3, vec_values


@pytest.fixture(scope="session")
def frenet_oracle():
    """(kappa, tau) of a curve at t from its own gamma jets, independent of
    its frame: kappa = |g' x g''| / |g'|^3 and
    tau = det(g', g'', g''') / |g' x g''|^2."""
    def oracle(curve, t):
        g = curve.gamma_jets(t, 4)
        g1, g2, g3 = (vec_values(shift3(g, k)) for k in (1, 2, 3))
        c = np.cross(g1, g2)
        return (float(np.linalg.norm(c) / np.linalg.norm(g1) ** 3),
                float(np.linalg.det(np.array([g1, g2, g3])) / c.dot(c)))
    return oracle


@pytest.fixture(scope="session")
def slide_reports():
    """Classified tangent-sliding instances, shared across test modules."""
    out = {}
    for kind in ("edge", "swallowtail", "nonfront"):
        s, p0 = instances.slide_pair(kind)
        out[kind] = (s, p0, classify(s, p0))
    return out


@pytest.fixture(scope="session")
def cylinder_reports():
    out = []
    for s, p0 in (instances.cylinder_pair(),
                  instances.cylinder_pair(t0=-0.8),
                  instances.cylinder_pair(
                      instances.helix(0.7, 1.1, "helix-b"), 0.3)):
        out.append((s, p0, classify(s, p0)))
    return out
