"""Numeric tolerances, all user-overridable from the CLI.

Every strict inequality in a classification criterion becomes a threshold
test against ``crit_tol`` and every equality hypothesis against ``hyp_tol``;
the raw values are always reported next to the thresholds.

A surface carries one ``Tolerances`` (``TranslationSurface.tols``) and every
decision made on it reads that instance, so an override reaches every
decision, the unit-speed checks of catalog curves included. The one
exception is ``nondeg_tol``: it is checked when a curve is built, so it acts
only on an expression curve built from the command line (catalog curves are
built once, with the defaults). Which decision reads each field:

- ``nondeg_tol``: the Frenet lift rejects a curve with |gamma' x gamma''|
  below it.
- ``sing_tol``: Newton convergence of the singular-point scan, and the
  conditions (i), (ii), (iii) reported at a point (each within 10 sing_tol).
  On a self pair it reads the generator curves' alpha, unhalved.
- ``dep_tol``: the dependent condition |mu x mu~| < dep_tol, and |t33| = 1 in
  the S0/S1 tests.
- ``ratio_tol``: sigma_min / sigma_max of the field-dependence scan.
- ``theta_dir_tol``: at a zero of (t31, t32), both the spread of the
  directional limits of theta along the ray fan, which decides whether
  theta extends continuously through the point, and the residual of the
  least-squares fit of theta's partials to the rays' angle jets (against
  theta_dir_tol * max(1, largest ray derivative)), which decides whether
  that extension is smooth.
- ``front_tol``: |H^F| (rank 1) or |K^F| (rank 0) of the front test.
- ``lemma_tol``: closed form vs jets of the density partials (framed route).
- ``rank_tol``: the numerical rank of dx (singular values of dx above
  rank_tol * max(1, sigma_max)).
- ``hess_tol``: closed form vs jets of the Hessian of phi (S1 test).
- ``crit_tol``: every "!= 0" of a criterion, in each of the three
  classification routes (direct, framed and generic).
- ``hyp_tol``: every "= 0" of a criterion or hypothesis, in each of the
  three routes, and the unit-speed gate (|alpha| = 1 and alpha' = 0 at the
  point, each within hyp_tol) that opens the unit-speed shortcut of the
  S0/S1 tests on a pair of Frenet curves.
"""
from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    nondeg_tol: float = 1e-9      # |gamma' x gamma''| floor for Frenet lifts
    sing_tol: float = 1e-8        # singular-point residual after Newton
    dep_tol: float = 1e-8         # |mu x mu~| threshold for the dependent condition
    ratio_tol: float = 1e-6       # sigma_min/sigma_max for field-dependence scans
    theta_dir_tol: float = 1e-6   # directional-limit agreement for theta extension
    front_tol: float = 1e-8       # |H^F| (or |K^F|) threshold for the front test
    lemma_tol: float = 1e-6       # closed form vs jets of the density partials
    rank_tol: float = 1e-8        # singular-value threshold for numerical rank
    hess_tol: float = 1e-6        # closed-form vs jet Hessian agreement
    crit_tol: float = 1e-7        # |value| > crit_tol realizes "!= 0"
    hyp_tol: float = 1e-7         # |value| < hyp_tol realizes "= 0"

    def replace(self, **overrides: float) -> "Tolerances":
        return dataclasses.replace(self, **overrides)

    @classmethod
    def names(cls) -> tuple[str, ...]:
        return tuple(f.name for f in dataclasses.fields(cls))


DEFAULT = Tolerances()
