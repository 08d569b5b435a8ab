import json
import math
import subprocess
import sys

import numpy as np
import pytest

from transurf.classify import classify
from transurf.cli import RunConfig, main, write_obj
from transurf.curves import catalog
from transurf.report import dumps
from transurf.surface import TranslationSurface


def run_cli(args):
    return main(list(args))


def test_scan_catalog_pair(tmp_path, capsys):
    rep = tmp_path / "report.json"
    csv = tmp_path / "locus.csv"
    code = run_cli(["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
                    "--window=-2,2,-2,2", "--grid", "32",
                    "--report", str(rep), "--out", str(csv)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["schema"] == "transurf-report-v1"
    pts = doc["singular_points"]
    assert len(pts) == 1
    assert pts[0]["verdict"]["tag"] == "CrossCap"
    assert abs(pts[0]["u"]) < 1e-8 and abs(pts[0]["v"]) < 1e-8
    rows = csv.read_text().strip().split("\n")
    assert rows[0] == "u,v,conditions,dependence,isolated"
    assert len(rows) == 2


def test_scan_expression_curves(tmp_path):
    rep = tmp_path / "report.json"
    code = run_cli(["scan", "--curve-a", "(u, u^2/2, 0)",
                    "--frame-a", "(-u/sqrt(1+u^2), 1/sqrt(1+u^2), 0);(0, 0, 1)",
                    "--curve-b", "(v, 0, v^2/2)",
                    "--frame-b", "(v/sqrt(1+v^2), 0, -1/sqrt(1+v^2));(0, 1, 0)",
                    "--window=-1.5,1.5,-1.5,1.5", "--grid", "24",
                    "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["singular_points"][0]["verdict"]["tag"] == "CrossCap"


def test_scan_sin_self_minus(tmp_path):
    rep = tmp_path / "r.json"
    code = run_cli(["scan", "--curve-a", "@sin_curve", "--self", "minus",
                    f"--window={-math.pi},{math.pi},{-math.pi},{math.pi}",
                    "--grid", "36", "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    canon = doc["canonical_points"]
    iso = sorted((q["u"], q["v"]) for q in canon if q["isolated"])
    assert len(iso) == 4
    expect = sorted([(0.0, math.pi), (math.pi / 2, 3 * math.pi / 2),
                     (math.pi, 0.0), (3 * math.pi / 2, math.pi / 2)])
    for got, want in zip(iso, expect):
        assert got == pytest.approx(want, abs=1e-7)
    cross_caps = [p for p in doc["singular_points"]
                  if p["verdict"]["tag"] == "CrossCap"]
    assert len(cross_caps) >= 4
    assert doc["isolated_image_count"] == 4
    diag = [p for p in doc["singular_points"] if not p["isolated"]]
    assert len(diag) >= 30


def test_scan_sin_self_plus_image_count(tmp_path):
    rep = tmp_path / "r.json"
    code = run_cli(["scan", "--curve-a", "@sin_curve", "--self", "plus",
                    f"--window={-math.pi},{math.pi},{-math.pi},{math.pi}",
                    "--grid", "36", "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["isolated_image_count"] == 2


def test_mesh_grid_combinatorics(tmp_path):
    obj = tmp_path / "mesh.obj"
    code = run_cli(["mesh", "--curve-a", "@s1p_a", "--curve-b", "@s1p_b",
                    "--window=-1,1,-1,1", "--grid", "33", "--out", str(obj)])
    assert code == 0
    lines = obj.read_text().strip().split("\n")
    vs = [l for l in lines if l.startswith("v ")]
    fs = [l for l in lines if l.startswith("f ")]
    assert len(vs) == 1089
    assert len(fs) == 2048
    # contains the image of the origin: gamma(0) + gamma~(0) = 0
    assert "v 0 0 0" in lines


@pytest.mark.parametrize("sign", [0, -1, 1])
def test_mesh_vertices_equal_per_vertex_sums(tmp_path, sign):
    # vertex i * n + j is x(u_i, v_j), the sum of the two curves' points;
    # a self pair holds its generator pair (gamma, +-gamma), and x is half
    # its sum, 0.5 (gamma(u) +- gamma(v)) bitwise
    s = (TranslationSurface.general(catalog("s1p_a"), catalog("s1p_b"))
         if sign == 0 else
         TranslationSurface.self_translation(catalog("sin_curve"), sign))
    us, vs = np.linspace(-1.0, 0.9, 7), np.linspace(-0.8, 1.1, 7)
    if sign:
        g = catalog("sin_curve").point
        assert all(s.x_value((u, v)).tobytes()
                   == (0.5 * (g(u) + sign * g(v))).tobytes()
                   for u in us for v in vs)
    write_obj(s, (-1.0, 0.9, -0.8, 1.1), 7, str(tmp_path / "m.obj"))
    lines = (tmp_path / "m.obj").read_text().split("\n")
    assert [l for l in lines if l.startswith("v ")] == [
        "v {:.9g} {:.9g} {:.9g}".format(*s.x_value((u, v)))
        for u in us for v in vs]


def test_mesh_sin_self_minus_diagonal_at_origin(tmp_path):
    obj = tmp_path / "m.obj"
    code = run_cli(["mesh", "--curve-a", "@sin_curve", "--self", "minus",
                    "--window=-3,3,-3,3", "--grid", "17", "--out", str(obj)])
    assert code == 0
    lines = obj.read_text().strip().split("\n")
    # 17 diagonal samples all map exactly to the origin
    assert lines.count("v 0 0 0") == 17


def test_determinism_byte_identical(tmp_path):
    args = ["scan", "--curve-a", "@s1m_a", "--curve-b", "@s1m_b",
            "--window=-1,1,-1,1", "--grid", "24"]
    rep1, rep2 = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(args + ["--report", str(rep1)]) == 0
    assert run_cli(args + ["--report", str(rep2)]) == 0
    assert rep1.read_bytes() == rep2.read_bytes()

    obj1, obj2 = tmp_path / "a.obj", tmp_path / "b.obj"
    margs = ["mesh", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
             "--window=-1,1,-1,1", "--grid", "21"]
    assert run_cli(margs + ["--out", str(obj1)]) == 0
    assert run_cli(margs + ["--out", str(obj2)]) == 0
    assert obj1.read_bytes() == obj2.read_bytes()


def test_tolerance_override(tmp_path):
    rep = tmp_path / "r.json"
    code = run_cli(["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
                    "--window=-1,1,-1,1", "--grid", "16",
                    "--tol", "sing_tol=1e-10", "--tol", "crit_tol=1e-9",
                    "--report", str(rep)])
    assert code == 0
    doc = json.loads(rep.read_text())
    assert doc["input"]["tolerances"]["sing_tol"] == 1e-10


def test_tolerance_overrides_reach_catalog_curves():
    # the s1m helices are arc-length; with hyp_tol at 1e-300 the unit-speed
    # gate may not open the shortcut, even though the catalog curves are
    # shared
    cfg = RunConfig(curve_a="@s1m_a", curve_b="@s1m_b",
                    tol_overrides={"hyp_tol": 1e-300})
    rep = classify(cfg.build_surface(), (0.0, 0.0))
    assert rep.tag == "S1Minus"
    assert "unit-speed shortcut available" not in rep.s1.hypotheses_checked
    assert "frenet_s1_discriminant" not in [c.name for c in rep.s1.conditions]

    default = classify(RunConfig(curve_a="@s1m_a", curve_b="@s1m_b")
                       .build_surface(), (0.0, 0.0))
    assert "unit-speed shortcut available" in default.s1.hypotheses_checked


@pytest.mark.parametrize("args", [
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--window=1,-1,0,1"],                          # empty window
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b", "--grid", "4"],
    ["scan", "--curve-a", "@nope", "--curve-b", "@s0_b"],
    ["scan", "--curve-a", "(u, ", "--curve-b", "@s0_b"],
    ["scan", "--curve-a", "@s0_a"],                 # no partner
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--tol", "bogus=1"],
    ["mesh", "--curve-a", "@s0_a", "--curve-b", "@s0_b"],   # no --out
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--tol", "div_eps=1e-9"],                      # a name nothing reads
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--window=0,inf,0,1"],                         # infinite window bound
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--tol", "sing_tol=inf"],                      # infinite tolerance
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--tol", "theta_tol=1e-9"],                    # removed with user theta
    ["scan", "--curve-a", "@sin_curve", "--curve-b", "@s0_b",
     "--self", "minus"],                            # --curve-b ignored
    ["scan", "--curve-a", "@s0_a", "--frame-a", "(1,0,0);(0,1,0)",
     "--curve-b", "@s0_b"],                         # catalog frame ignored
    ["mesh", "--curve-a", "@s0_a", "--curve-b", "@s0_b", "--out", "{tmp}/m.obj",
     "--report", "{tmp}/r.json"],                   # mesh writes no report
    ["scan", "--curve-a", "(u, u^2, 0)", "--frame-a", "(0,0,1)",
     "--curve-b", "(v,0,v^2)"],                     # a frame of one triple
    ["scan", "--curve-a", "(u, u^2, 0)", "--curve-b", "(v,0,v^2)",
     "--frame-b", "(0,0,1);(1,0,0);(0,1,0)"],       # three triples
    # a constant that is not a finite real number
    ["scan", "--curve-a", "(u, 1/0 + u^2, 0)", "--curve-b", "(v,0,v^2)"],
    ["scan", "--curve-a", "(u, u^2, 0^-1)", "--curve-b", "(v,0,v^2)"],
    ["scan", "--curve-a", "(u, u^2, 10^400)", "--curve-b", "(v,0,v^2)"],
    ["scan", "--curve-a", "(u, u^2, (-8)^(1/3))", "--curve-b", "(v,0,v^2)"],
    ["scan", "--curve-a", "(u, u^2, 1e400)", "--curve-b", "(v,0,v^2)"],
    ["mesh", "--curve-a", "(u, u^2, 1e400)", "--curve-b", "(v,0,v^2)",
     "--out", "{tmp}/m.obj"],                       # no inf vertices
    ["scan", "--curve-a", "@s0_a", "--curve-b", "@s0_b",
     "--tol", "arc_tol=1e-9"],                      # removed with the arc scan
    # a curve whose jets are not finite at a validation sample
    ["scan", "--curve-a", "(u, u^1e9, 0)", "--curve-b", "(v, 0, v^2)",
     "--grid", "16"],
    ["scan", "--curve-a", "(u, u^4000, u^3)", "--curve-b", "(v, 0, v^2)",
     "--grid", "16"],
    ["scan", "--curve-a", "(u, exp(u^400), 0)", "--frame-a",
     "(0,0,1);(0,1,0)", "--curve-b", "(v, 0, v^2)", "--grid", "16"],
])
def test_input_errors_exit_2(args, tmp_path, capsys, recwarn):
    assert run_cli([a.replace("{tmp}", str(tmp_path)) for a in args]) == 2
    err = capsys.readouterr().err
    assert "error:" in err
    # the error is the one line printed: numpy warns of nothing first
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
    assert len(err.splitlines()) == 1
    # a fault found after parsing has no source offset to report
    assert not err.rstrip().endswith("at offset 0")
    # a malformed frame is named by its flag
    for flag in ("--frame-a", "--frame-b"):
        if flag in args and args[args.index(flag) + 1].count(";") != 1:
            assert flag in err and "(x,y,z);(x,y,z)" in err
    assert not list(tmp_path.iterdir())



def test_build_surface_validates():
    # Python callers build surfaces without the command line; a frame the
    # catalog curve would drop is an error there too
    cfg = RunConfig(curve_a="@s0_a", frame_a="(1,0,0);(0,1,0)",
                    curve_b="@s0_b")
    with pytest.raises(ValueError, match="--frame-a is ignored"):
        cfg.build_surface()


def test_verify_command(capsys):
    assert run_cli(["verify", "jets"]) == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "checks passed" in out


def test_entry_point_subprocess():
    proc = subprocess.run([sys.executable, "-m", "transurf.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0


def test_report_float_format():
    assert dumps(0.1) == "0.10000000000000001"
    assert dumps({"a": [1.5, True, None]}) == (
        '{\n  "a": [\n    1.5,\n    true,\n    null\n  ]\n}')
