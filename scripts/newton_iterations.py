#!/usr/bin/env python3
"""Print the Newton iteration counts of the benchmark's runs that refine a
degenerate root (an S1 point): the `s1p_scan` and `s1m_scan` scans and the
singular locus of the `s1p_mesh` mesh of the `scan_general` workload, at a
seed (default 1). One iteration is one evaluation of both curves by
`surface._newton_t3`, counted by wrapping `surface._pair_jets` as
`tests/test_surface.py` does. The counts do not depend on the machine, so
they compare across commits where times do not.

    python3 scripts/newton_iterations.py [SEED]
"""
import contextlib
import io
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import workloads  # noqa: E402
from transurf import cli, surface  # noqa: E402

OPS = ("s1p_scan", "s1m_scan", "s1p_mesh")


def main():
    seed = int(sys.argv[1]) if len(sys.argv) > 1 else 1
    iterations = []
    pair_jets = surface._pair_jets

    def spy(s, p, order):
        if sys._getframe(1).f_code.co_name == "_newton_t3":
            iterations.append(len(p[0]))
        return pair_jets(s, p, order)

    surface._pair_jets = spy
    counts = []
    with tempfile.TemporaryDirectory() as out:
        for op in workloads.scan_general(seed):
            if op["name"] not in OPS:
                continue
            iterations.clear()
            argv = [a.replace("{out}", out) for a in op["argv"]]
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()) as err:
                status = cli.main(argv)
            if status != 0:
                sys.exit(f"{op['name']}: run failed: {err.getvalue()}")
            counts.append(f"{op['name']} {len(iterations)}")
    print(f"Newton iterations (scan_general, seed {seed}): "
          + ", ".join(counts))


if __name__ == "__main__":
    main()
