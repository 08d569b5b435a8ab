#!/usr/bin/env python3
"""Print the work of `transurf verify recon` at the benchmark's step 1.6e-2
and at its default step 1e-3: the stacked RK4 steps it takes (each advances
every lane that still needs that step, so 8 chains of 56 steps count 56)
and the curvature-source calls of its reconstructed curves. Both are
counted by wrapping `framefield._rk4_step` and
`FramedCurve.batch_curvature`, the source the suite hands to its curves.
The counts do not depend on the machine, so they compare across commits
where times do not.

    python3 scripts/recon_counts.py
"""
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from transurf import framefield, verify  # noqa: E402
from transurf.curves import FramedCurve  # noqa: E402

STEPS = (1.6e-2, 1e-3)


def main():
    steps, sources = [], []
    rk4_step = framefield._rk4_step
    batch_curvature = FramedCurve.batch_curvature

    def count_step(*args):
        steps.append(1)
        return rk4_step(*args)

    def count_source(self, ts, order=5):
        sources.append(1)
        return batch_curvature(self, ts, order)

    framefield._rk4_step = count_step
    FramedCurve.batch_curvature = count_source
    counts = []
    for step in STEPS:
        steps.clear()
        sources.clear()
        if not all(c.passed for c in verify.suite_reconstruction(step)):
            sys.exit(f"verify recon failed at step {step:g}")
        counts.append(f"step {step:g}: {len(steps)} stacked RK4 steps, "
                      f"{len(sources)} source calls")
    print("verify recon: " + "; ".join(counts))


if __name__ == "__main__":
    main()
