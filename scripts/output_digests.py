#!/usr/bin/env python3
"""Print one line `sha256[:16]  name` per output of a fixed set of runs: the
report and singular-point CSV of each scan below, the OBJ mesh and
singular-locus CSV of each mesh run below, the classification document of
each constructed instance, and the stdout of `transurf verify all`. Run it
on two commits and diff the lines to show that a change keeps every output
byte for byte."""
import contextlib
import hashlib
import io
import math
import pathlib
import sys
import tempfile

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from transurf import cli, instances  # noqa: E402
from transurf.classify import classify  # noqa: E402
from transurf.report import classification_doc, dumps  # noqa: E402

PI, S1P = f"{-math.pi!r},{math.pi!r}", "-3.14159,3.14159"
# (name, curve arguments, window, grid)
SCANS = [(f"sin_{kind}_g{n}", ["@sin_curve", "--self", kind], PI, n)
         for kind, n in [("plus", 16), ("plus", 48), ("minus", 24),
                         ("minus", 48)]]
SCANS += [(f"self_s1p_{kind}_g{n}", ["@self_s1p", "--self", kind], S1P, n)
          for kind in ("plus", "minus") for n in (24, 40)]
SCANS += [("s0_g48", ["@s0_a", "--curve-b", "@s0_b"], "-2,2", 48),
          ("s1p_g48", ["@s1p_a", "--curve-b", "@s1p_b"], "-2,2", 48),
          ("s1m_g40", ["@s1m_a", "--curve-b", "@s1m_b"], "-1.5,1.5", 40)]
# (name, curve arguments, window, grid) of each `mesh --out --locus` run
MESHES = [(f"sin_{kind}_mesh", ["@sin_curve", "--self", kind], PI, 33)
          for kind in ("plus", "minus")]
INSTANCES = [
    ("cylinder", instances.cylinder_pair, ()),
    ("slide_edge", instances.slide_pair, ("edge",)),
    ("slide_swallowtail", instances.slide_pair, ("swallowtail",)),
    ("slide_nonfront", instances.slide_pair, ("nonfront",)),
    ("beaks", instances.singular_speed_pair, (False,)),
    ("beaks_mirror", instances.singular_speed_pair, (True,)),
    ("rank_zero", instances.rank_zero_pair, (True,)),
    ("rank_zero_transverse", instances.rank_zero_pair, (False,)),
    ("planar", instances.planar_pair, ()),
]


def line(name: str, data: bytes):
    print(f"{hashlib.sha256(data).hexdigest()[:16]}  {name}")


def main():
    with tempfile.TemporaryDirectory() as tmp:
        out = pathlib.Path(tmp)
        for name, curves, span, n in SCANS:
            argv = ["scan", "--curve-a", *curves, f"--window={span},{span}",
                    "--grid", str(n), "--report", str(out / "report.json"),
                    "--out", str(out / "points.csv")]
            with contextlib.redirect_stderr(io.StringIO()):
                if cli.main(argv) != 0:
                    sys.exit(f"{name}: scan failed")
            line(f"{name}.report", (out / "report.json").read_bytes())
            line(f"{name}.csv", (out / "points.csv").read_bytes())
        for name, curves, span, n in MESHES:
            argv = ["mesh", "--curve-a", *curves, f"--window={span},{span}",
                    "--grid", str(n), "--out", str(out / "mesh.obj"),
                    "--locus", str(out / "locus.csv")]
            if cli.main(argv) != 0:
                sys.exit(f"{name}: mesh failed")
            line(f"{name}.obj", (out / "mesh.obj").read_bytes())
            line(f"{name}.csv", (out / "locus.csv").read_bytes())
    for name, build, args in INSTANCES:
        s, p0 = build(*args)
        doc = classification_doc({"u": p0[0], "v": p0[1]}, classify(s, p0))
        line(f"instance.{name}", dumps(doc).encode())
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        status = cli.main(["verify", "all"])
    line("verify_all", buf.getvalue().encode())
    sys.exit(status)


if __name__ == "__main__":
    main()
