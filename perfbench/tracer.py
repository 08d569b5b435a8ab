"""Outside-in span tracer for the transurf engine.

The benchmark wraps the engine's layer-boundary functions from here, without
touching ``src/``: methods and dunders are replaced on their class, module
functions on their module, and every other binding of the same function
object (a ``from ... import`` in another module, an alias such as
``__rmul__ = __mul__``, an entry of a module-level dict such as
``verify.SUITES``) is rebound to the same wrapper.

Each wrapper keeps per-name aggregates in memory (calls, inclusive time, self
time), because the hot layers run millions of times per op. Self time is the
span's duration minus the time covered by its child spans. Full span records
(name, start, end, parent) are kept only for the coarse ``RECORDED`` layers.
"""
from __future__ import annotations

import functools
import importlib
import sys
import time


def _tag_of(report):
    return report.tag


# (module, attribute path, span name, options of ``Tracer.wrap``). Order
# matters for the ``OdeFramedCurve.frame_row`` entry: it wraps the already
# wrapped base method, so the ODE span nests around ``curves.frame_row``.
TARGETS = [
    ("jets", "Jet.__mul__", "jets.Jet.mul", {}),
    ("jets", "BiJet.__mul__", "jets.BiJet.mul", {}),
    ("jets", "BiJet.__init__", "jets.BiJet.construct", {}),
    ("expr", "evaluate", "expr.evaluate", {}),
    ("curves", "FramedCurve.frame_row", "curves.frame_row", {"distinct": True}),
    ("curves", "FramedCurve.curvature", "curves.curvature", {"distinct": True}),
    ("curves", "FramedCurve.gamma_jets", "curves.gamma_jets",
     {"distinct": True}),
    ("framefield", "FrameField.partial_value", "framefield.partial_value",
     {"under": {"surface.find_singular_points":
                "surface.landscape.partial_value_calls"}}),
    ("framefield", "FrameField.t_bijet", "framefield.t_bijet",
     {"under": {"surface.newton": "surface.newton.t_bijet_calls"}}),
    ("framefield", "check_compatibility", "framefield.check_compatibility", {}),
    ("framefield", "OdeFramedCurve.frame_row", "framefield.ode_frame_row", {}),
    ("surface", "find_singular_points", "surface.find_singular_points",
     {"keep_result": len}),
    ("surface", "_newton_t3", "surface.newton", {}),
    ("surface", "ab_dependence_scan", "surface.ab_dependence_scan", {}),
    ("framedsurf", "construct_theta", "framedsurf.construct_theta", {}),
    ("framedsurf", "ThetaField.at", "framedsurf.ThetaField.at", {}),
    ("framedsurf", "lemma_oracle", "framedsurf.lemma_oracle", {}),
    ("classify", "classify", "classify.classify", {"keep_result": _tag_of}),
    ("classify", "classify_S0", "classify.classify_S0", {}),
    ("classify", "classify_S1", "classify.classify_S1", {}),
    ("classify", "classify_dependent_framed",
     "classify.classify_dependent_framed", {}),
    ("classify", "classify_generic_frontal",
     "classify.classify_generic_frontal", {}),
    ("report", "write_report", "report.write_report", {}),
    ("cli", "write_obj", "cli.write_obj", {}),
]

RECORDED = {
    "op", "surface.find_singular_points", "surface.ab_dependence_scan",
    "framedsurf.construct_theta", "framedsurf.lemma_oracle",
    "framefield.check_compatibility", "classify.classify",
    "classify.classify_S0", "classify.classify_S1",
    "classify.classify_dependent_framed", "classify.classify_generic_frontal",
    "report.write_report", "cli.write_obj",
}


def _call_key(args, kwargs):
    """Identity of a method call: the receiver object plus its arguments."""
    return (id(args[0]),) + args[1:] + tuple(sorted(kwargs.items()))


class Tracer:
    """Span aggregates for one process; ``clock`` is replaceable for tests."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []      # open spans: [name, child_time]
        self.stats: dict[str, list] = {}  # name -> [calls, incl_s, self_s]
        self.depth: dict[str, list] = {}  # name -> [open spans of that name]
        self.distinct: dict[str, set] = {}
        self.counts: dict[str, list] = {}
        self.spans: list[tuple] = []     # (name, start, end, parent)
        self.results: dict[str, list] = {}

    def wrap(self, name, fn, distinct=False, under=None, keep_result=None):
        """Return ``fn`` wrapped in a span called ``name``.

        ``distinct`` records call keys for a unique ratio; ``under`` maps an
        enclosing span name to a counter of calls made inside it;
        ``keep_result`` maps the return value to a summary kept per call.
        """
        stats = self.stats.setdefault(name, [0, 0.0, 0.0])
        depth = self.depth.setdefault(name, [0])
        keys = self.distinct.setdefault(name, set()) if distinct else None
        conds = [(self.counts.setdefault(counter, [0]),
                  self.depth.setdefault(outer, [0]))
                 for outer, counter in (under or {}).items()]
        kept = self.results.setdefault(name, []) if keep_result else None
        recorded = name in RECORDED
        stack, spans, clock = self.stack, self.spans, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if keys is not None:
                keys.add(_call_key(args, kwargs))
            for counter, outer_depth in conds:
                if outer_depth[0]:
                    counter[0] += 1
            frame = [name, 0.0]
            stack.append(frame)
            depth[0] += 1
            t0 = clock()
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                dt = t1 - t0
                depth[0] -= 1
                stack.pop()
                stats[0] += 1
                stats[2] += dt - frame[1]
                if not depth[0]:
                    stats[1] += dt
                if stack:
                    stack[-1][1] += dt
                if recorded:
                    spans.append((name, t0, t1,
                                  stack[-1][0] if stack else None))
            if kept is not None:
                kept.append(keep_result(out))
            return out

        return wrapper

    def span(self, name, fn, *args, **kwargs):
        """Call ``fn`` inside a span named ``name``."""
        return self.wrap(name, fn)(*args, **kwargs)

    def install(self, package="transurf"):
        """Wrap every target of ``TARGETS`` and ``verify.SUITES``."""
        for mod, path, name, opts in TARGETS:
            owner = importlib.import_module(f"{package}.{mod}")
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = getattr(owner, attr)
            wrapper = self.wrap(name, original, **opts)
            if isinstance(owner, type):
                # aliases such as ``__rmul__ = __mul__`` live in the same
                # class dict; a subclass entry shadows only the subclass
                for key, val in list(vars(owner).items()):
                    if val is original:
                        setattr(owner, key, wrapper)
                setattr(owner, attr, wrapper)
            else:
                _rebind(package, original, wrapper)
        suites = importlib.import_module(f"{package}.verify").SUITES
        for key, original in list(suites.items()):
            _rebind(package, original, self.wrap(f"verify.suite_{key}",
                                                 original))

    def summary(self) -> dict:
        """Plain-data aggregates, written out by the op process at exit."""
        return {
            "stats": self.stats,
            "distinct": {k: len(v) for k, v in self.distinct.items()},
            "counts": {k: v[0] for k, v in self.counts.items()},
            "results": self.results,
            "spans": self.spans,
        }


def _rebind(package, original, wrapper):
    """Point every module-level binding of ``original`` in the package, and
    every entry of a module-level dict, at ``wrapper``."""
    for modname, mod in list(sys.modules.items()):
        if mod is None or not (modname == package
                               or modname.startswith(package + ".")):
            continue
        for key, val in list(vars(mod).items()):
            if val is original:
                setattr(mod, key, wrapper)
            elif isinstance(val, dict):
                for dkey, dval in list(val.items()):
                    if dval is original:
                        val[dkey] = wrapper
