"""Deterministic report serialization.

Reports are JSON with a fixed field order and floats printed with 17
significant digits (enough to round-trip doubles), so identical inputs
produce byte-identical files.
"""
from __future__ import annotations

import math

from .classify import ClassificationReport, Verdict

SCHEMA = "transurf-report-v1"


def fmt_float(x: float) -> str:
    if isinstance(x, float) and (math.isnan(x) or math.isinf(x)):
        return '"%s"' % x
    return format(float(x), ".17g")


def dumps(obj, indent: int = 0) -> str:
    """Minimal JSON emitter with deterministic float formatting."""
    if obj is None:
        return "null"
    if obj is True:
        return "true"
    if obj is False:
        return "false"
    if isinstance(obj, str):
        return '"' + obj.replace("\\", "\\\\").replace('"', '\\"') + '"'
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        return fmt_float(obj)
    if isinstance(obj, (list, tuple, dict)):
        if not obj:
            return "{}" if isinstance(obj, dict) else "[]"
        pieces: list[str] = []
        _write(pieces.append, obj, indent)
        return "".join(pieces)
    raise TypeError(f"cannot serialize {type(obj)!r}")


def _write(write, obj, indent: int):
    """Pass the text of a nonempty list or dict, ``dumps(obj, indent)``, to
    ``write`` in pieces: a file takes them one at a time, so that a report
    is never one string in memory."""
    pad = " " * indent
    keyed = isinstance(obj, dict)
    write("{\n" if keyed else "[\n")
    for n, item in enumerate(obj.items() if keyed else obj):
        value = item[1] if keyed else item
        write((",\n" if n else "") + pad + "  "
              + (dumps(str(item[0])) + ": " if keyed else ""))
        if isinstance(value, (list, tuple, dict)) and value:
            _write(write, value, indent + 2)
        else:
            write(dumps(value, indent + 2))
    write("\n" + pad + ("}" if keyed else "]"))


def verdict_doc(v: Verdict | None):
    if v is None:
        return None
    return {
        "tag": v.tag,
        "route": v.route,
        "conditions": [
            {"name": c.name, "value": c.value, "threshold": c.threshold,
             "satisfied": c.satisfied} for c in v.conditions],
        "hypotheses_checked": list(v.hypotheses_checked),
        "notes": list(v.notes),
    }


def classification_doc(point_info: dict, rep: ClassificationReport):
    doc = dict(point_info)
    doc.update({
        "conditions": list(rep.conditions),
        "dependence": rep.dependence,
        "corank": rep.corank,
        "verdict": verdict_doc(rep.final),
        "routes": {
            "gfs_cross_cap": verdict_doc(rep.gfs),
            "gfs_s1": verdict_doc(rep.s1),
            "framed_surface": verdict_doc(rep.framed),
            "generic_frontal": verdict_doc(rep.generic),
        },
        "notes": list(rep.notes),
    })
    return doc


def write_report(doc: dict, path: str):
    with open(path, "w") as fh:
        _write(fh.write, doc, 0)
        fh.write("\n")
