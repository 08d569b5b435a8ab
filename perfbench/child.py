"""Run one benchmark op in a fresh interpreter and write what it measured.

Usage: python3 child.py SPEC.json RESULT.json

The op process reads the system-wide monotonic clock, which the runner
shares, at the end of set-up (imports, then construction of the curves and
surfaces the op uses), at the start of the op and at its end. Between set-up
and the op, and again after the op, it times a fixed reference loop that
does not touch the engine (``reference_s``), so that the runner can express
its times at a fixed host speed. With ``"trace": true`` in the spec, the
outside-in tracer is installed after set-up and its aggregates are written
with the result.
"""
import contextlib
import io
import json
import os
import resource
import sys
import time
import traceback


def _reference_loop():
    """Fixed pure-Python float work, like the engine's jet arithmetic."""
    acc = 0.0
    for i in range(60_000):
        acc += (i * 1.0001) % 7.0
    return acc


def reference_s():
    """The median of five timings of the reference loop, in seconds."""
    times = []
    for _ in range(5):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return sorted(times)[2]


def _build(item, cli, curves, instances):
    """Perform one set-up construction of the spec's ``build`` list."""
    kind = item[0]
    if kind == "catalog":
        return curves.catalog(item[1])
    if kind == "catalog_all":
        return [curves.catalog(n) for n in curves.catalog_names()]
    if kind == "instance":
        return getattr(instances, item[1])(*item[2])
    if kind == "run_config":
        cfg = cli.RunConfig(**{**item[1], "window": tuple(item[1]["window"])})
        surface = cfg.build_surface()

        # The command builds its surface again from the same arguments; hand
        # it the one built here so construction stays in the set-up time.
        def build_surface(self):
            if self.echo() != cfg.echo():
                raise RuntimeError("command arguments differ from the spec")
            return surface
        cli.RunConfig.build_surface = build_surface
        return surface
    raise ValueError(f"unknown build item {item!r}")


def main(spec_path, result_path):
    with open(spec_path) as fh:
        spec = json.load(fh)
    sys.path.insert(0, spec["src"])
    import numpy
    import transurf
    # modules, not names: the tracer rebinds module attributes, so calls made
    # through the module after ``install`` go through its wrappers
    from transurf import classify, cli, curves, instances, verify
    if not os.path.abspath(transurf.__file__).startswith(spec["src"] + os.sep):
        raise RuntimeError(f"imported transurf from {transurf.__file__}")
    built = [_build(item, cli, curves, instances) for item in spec["build"]]
    t_built = time.perf_counter()
    ref_before = reference_s()

    tracer = None
    if spec["trace"]:
        import tracer as tracer_mod
        tracer = tracer_mod.Tracer()
        tracer.install()

    if spec["kind"] == "classify":
        surface, p0 = built[0]

        def op():
            return classify.classify(surface, p0)
    elif spec["kind"] == "suite":
        def op():
            # the report of ``transurf verify``, for one suite's parameters
            checks = verify.SUITES[spec["suite"]](**spec["params"])
            for c in checks:
                print(c.line())
            return 0 if all(c.passed for c in checks) else 1
    else:
        def op():
            return cli.main(spec["argv"])

    out, err = io.StringIO(), io.StringIO()
    result = {"rc": None, "error": None, "verdicts": []}
    t_op = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            value = tracer.span("op", op) if tracer else op()
    except Exception:
        # an op that raises is a failed op: record it, do not crash the run
        result["error"] = traceback.format_exc()
    else:
        if spec["kind"] == "classify":
            result["rc"] = 0
            result["verdicts"] = [[float(p0[0]), float(p0[1]), value.tag]]
        else:
            result["rc"] = value
    t_done = time.perf_counter()

    result.update({
        "t_built": t_built, "t_op": t_op, "t_done": t_done,
        "ref_s": [ref_before, reference_s()],
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "stdout": out.getvalue(), "stderr": err.getvalue(),
        "numpy": numpy.__version__,
        "trace": tracer.summary() if tracer else None,
    })
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
