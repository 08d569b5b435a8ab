"""Command-line surface: singular-point scans with classification reports,
mesh export, and the verification suites.

Exit codes: 0 success, 1 verification failure, 2 input error.
"""
from __future__ import annotations

import argparse
import math
import sys
from dataclasses import dataclass, field

import numpy as np

from . import __version__
# ``classify`` is not called here, but perfbench's tracer rebinds this name
from .classify import classify, classify_all  # noqa: F401
from .curves import (CurveSpec, FramedCurve, build_curve, parse_curve,
                     vec_values)
from .errors import TransurfError
from .expr import parse_tuple3
from .report import SCHEMA, classification_doc, dumps, write_report
from .surface import (TranslationSurface, ab_dependence_scan,
                      canonical_periodic_points, export_singular_csv,
                      find_singular_points)
from .tolerances import DEFAULT, Tolerances
from .verify import SUITES, run_suites


@dataclass
class RunConfig:
    curve_a: str
    frame_a: str = "frenet"
    curve_b: str | None = None
    frame_b: str = "frenet"
    self_kind: str | None = None          # "plus" | "minus"
    window: tuple[float, float, float, float] = (-1.0, 1.0, -1.0, 1.0)
    grid_n: int = 32
    tol_overrides: dict = field(default_factory=dict)
    out: str | None = None
    report: str | None = None

    def validate(self):
        u0, u1, v0, v1 = self.window
        if not all(math.isfinite(x) for x in self.window):
            raise ValueError("window bounds must be finite")
        if not (u1 > u0 and v1 > v0):
            raise ValueError("window must be a nonempty rectangle")
        if self.grid_n < 16:
            raise ValueError("grid must be at least 16")
        for k, v in self.tol_overrides.items():
            if k not in Tolerances.names():
                raise ValueError(f"unknown tolerance {k!r}")
            if not (math.isfinite(v) and v > 0):
                raise ValueError(f"tolerance {k} must be finite and positive")
        if self.self_kind is None and self.curve_b is None:
            raise ValueError("need --curve-b or --self")
        # a value the run would ignore is an error, not a silent echo
        if self.self_kind is not None and self.curve_b is not None:
            raise ValueError("--curve-b is ignored with --self")
        if self.self_kind is not None and self.frame_b != "frenet":
            raise ValueError("--frame-b is ignored with --self")
        for flag, curve, frame in (("--frame-a", self.curve_a, self.frame_a),
                                   ("--frame-b", self.curve_b, self.frame_b)):
            if frame != "frenet" and frame.count(";") != 1:
                raise ValueError(f"{flag} must be 'frenet' or two triples "
                                 "joined by one ';': '(x,y,z);(x,y,z)'")
            if frame != "frenet" and curve and curve.strip().startswith("@"):
                raise ValueError(f"{flag} is ignored for the catalog curve "
                                 f"{curve.strip()}, which has its own frame")

    def tolerances(self) -> Tolerances:
        return DEFAULT.replace(**self.tol_overrides)

    def build_surface(self) -> TranslationSurface:
        self.validate()
        tols = self.tolerances()
        u0, u1, v0, v1 = self.window
        a = _curve_from_arg(self.curve_a, self.frame_a, (u0, u1), tols)
        if self.self_kind is not None:
            sign = +1 if self.self_kind == "plus" else -1
            return TranslationSurface.self_translation(a, sign, tols=tols)
        b = _curve_from_arg(self.curve_b, self.frame_b, (v0, v1), tols)
        return TranslationSurface.general(a, b, tols=tols)

    def echo(self) -> dict:
        return {
            "curve_a": self.curve_a, "frame_a": self.frame_a,
            "curve_b": self.curve_b, "frame_b": self.frame_b,
            "self": self.self_kind,
            "window": list(self.window), "grid": self.grid_n,
            "tolerances": {k: float(v) for k, v in
                           sorted(self.tol_overrides.items())},
        }


def _curve_from_arg(src: str, frame: str, span: tuple[float, float],
                    tols: Tolerances) -> FramedCurve:
    spec = parse_curve(src)
    if spec.catalog_name is None and frame != "frenet":
        nu1_src, nu2_src = frame.split(";")
        spec = CurveSpec(components=spec.components, variable=spec.variable,
                         frame=(parse_tuple3(nu1_src), parse_tuple3(nu2_src)))
    pad = 0.1 * (span[1] - span[0])
    return build_curve(spec, domain=(span[0] - pad, span[1] + pad), tols=tols)


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_scan(cfg: RunConfig) -> int:
    s = cfg.build_surface()
    points = find_singular_points(s, cfg.window, grid_n=cfg.grid_n)
    ordered = sorted(points, key=lambda r: (r.u, r.v))
    reports = classify_all(s, [q.p for q in ordered])
    # each report is released once its document is built, so that the two
    # lists do not coexist in full
    docs = [classification_doc({"u": q.u, "v": q.v, "isolated": q.isolated},
                               reports.pop(0)) for q in ordered]
    notes = []
    period = s.curve_u.period
    canonical = None
    image_count = None
    if period and s.kind != "general":
        canon = canonical_periodic_points(points, period)
        canonical = [{"u": q.u, "v": q.v, "isolated": q.isolated,
                      "conditions": list(q.conditions)}
                     for q in sorted(canon, key=lambda r: (r.u, r.v))]
        notes.append("window coordinates folded into one period for the "
                     "canonical list; reported points include periodic "
                     "images of singular components through the window")
        images: list[np.ndarray] = []
        for q in canon:
            if not q.isolated:
                continue
            x = s.x_value(q.p)
            if all(float(np.linalg.norm(x - y)) > 1e-6 for y in images):
                images.append(x)
        image_count = len(images)
    dep = ab_dependence_scan(s, cfg.window, n=max(8, cfg.grid_n // 4))
    doc = {
        "schema": SCHEMA,
        "tool": {"name": "transurf", "version": __version__},
        "input": cfg.echo(),
        "field_dependence": {
            "t_pair_dependent": dep.t_fields_dependent,
            "t_pair_sigma_ratio": dep.t_sigma_ratio,
            "normal_part_dependent": dep.ab_fields_dependent,
            "normal_part_sigma_ratio": dep.ab_sigma_ratio,
        },
        "singular_points": docs,
        "canonical_points": canonical,
        "isolated_image_count": image_count,
        "notes": notes,
    }
    if cfg.report:
        write_report(doc, cfg.report)
    else:
        sys.stdout.write(dumps(doc) + "\n")
    if cfg.out:
        export_singular_csv(points, cfg.out)
    summary = {}
    for d in docs:
        tag = d["verdict"]["tag"]
        summary[tag] = summary.get(tag, 0) + 1
    for tag in sorted(summary):
        print(f"{tag}: {summary[tag]}", file=sys.stderr)
    return 0


def write_obj(s: TranslationSurface, window, n: int, path: str):
    """Row-major triangulated grid mesh; deterministic vertex order."""
    u0, u1, v0, v1 = window
    gu = vec_values(s.curve_u.batch_jets(np.linspace(u0, u1, n), 2).gamma)
    gv = vec_values(s.curve_v.batch_jets(np.linspace(v0, v1, n), 2).gamma)
    # vertex (i, j) at row i * n + j, all formed by one broadcast add
    xyz = (gu[:, :, None] + gv[:, None, :]).reshape(3, -1)
    if s.kind != "general":
        xyz *= 0.5      # a self pair is half its generator pair's sum
    lines = ["v {:.9g} {:.9g} {:.9g}".format(*x) for x in zip(*xyz.tolist())]
    for i in range(n - 1):
        for j in range(n - 1):
            a, b = i * n + j + 1, (i + 1) * n + j + 1
            lines += [f"f {a} {b} {b + 1}", f"f {a} {b + 1} {a + 1}"]
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


def cmd_mesh(cfg: RunConfig, locus: str | None = None) -> int:
    if not cfg.out:
        raise ValueError("mesh requires --out PATH")
    if cfg.report:
        raise ValueError("--report is ignored by mesh, which writes no report")
    s = cfg.build_surface()
    write_obj(s, cfg.window, cfg.grid_n, cfg.out)
    if locus:
        points = find_singular_points(s, cfg.window, grid_n=max(32, cfg.grid_n))
        export_singular_csv(points, locus)
    return 0


def cmd_verify(suites: list[str]) -> int:
    checks, ok = run_suites(suites)
    for c in checks:
        print(c.line())
    print(f"{sum(c.passed for c in checks)}/{len(checks)} checks passed")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------

def _add_surface_args(p: argparse.ArgumentParser):
    p.add_argument("--curve-a", required=True,
                   help="curve expression '(x,y,z)' in one variable, or @name")
    p.add_argument("--frame-a", default="frenet",
                   help="'frenet' or explicit '(n1x,n1y,n1z);(n2x,n2y,n2z)'")
    p.add_argument("--curve-b", default=None)
    p.add_argument("--frame-b", default="frenet")
    p.add_argument("--self", dest="self_kind", choices=("plus", "minus"),
                   default=None, help="self pair (gamma(u) ± gamma(v))/2")
    p.add_argument("--window", default="-1,1,-1,1",
                   help="u0,u1,v0,v1")
    p.add_argument("--grid", type=int, default=32)
    p.add_argument("--tol", action="append", default=[],
                   metavar="NAME=VAL", help="tolerance override (repeatable)")
    p.add_argument("--out", default=None, help="output path (csv/obj)")
    p.add_argument("--report", default=None, help="classification report path")


def _config_from(ns) -> RunConfig:
    window = tuple(float(x) for x in ns.window.split(","))
    if len(window) != 4:
        raise ValueError("window needs four numbers u0,u1,v0,v1")
    tols = {}
    for item in ns.tol:
        name, _, val = item.partition("=")
        if not val:
            raise ValueError(f"bad --tol {item!r}; use NAME=VAL")
        tols[name.strip()] = float(val)
    return RunConfig(curve_a=ns.curve_a, frame_a=ns.frame_a,
                     curve_b=ns.curve_b, frame_b=ns.frame_b,
                     self_kind=ns.self_kind, window=window, grid_n=ns.grid,
                     tol_overrides=tols, out=ns.out, report=ns.report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(
        prog="transurf",
        description="translation surfaces of framed curves: singular loci, "
                    "meshes, and singularity classification")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    p_scan = sub.add_parser("scan", help="locate and classify singular points")
    _add_surface_args(p_scan)

    p_mesh = sub.add_parser("mesh", help="export a triangulated OBJ mesh")
    _add_surface_args(p_mesh)
    p_mesh.add_argument("--locus", default=None,
                        help="also export the singular locus CSV here")

    p_ver = sub.add_parser("verify", help="run residual/verdict suites")
    p_ver.add_argument("suite", choices=sorted(SUITES) + ["all"])

    ns = ap.parse_args(argv)
    try:
        if ns.command == "scan":
            return cmd_scan(_config_from(ns))
        if ns.command == "mesh":
            return cmd_mesh(_config_from(ns), locus=ns.locus)
        if ns.command == "verify":
            names = sorted(SUITES) if ns.suite == "all" else [ns.suite]
            return cmd_verify(names)
        raise ValueError(f"unknown command {ns.command!r}")
    except (TransurfError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
