#!/usr/bin/env python3
"""Scan and classify every catalog pair plus the constructed instances,
printing a compact verdict table. Each pair's row also counts the samples
whose verdict notes a candidate of the generic route alone ("generic route
alone says"), which the framed route does not confirm. A quick end-to-end
exercise of the pipeline; the real assertions live in the test suite."""
import math
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "src"))

from transurf import instances  # noqa: E402
from transurf.classify import classify, classify_all  # noqa: E402
from transurf.surface import find_singular_points  # noqa: E402
from transurf.verify import all_pairs, surface_for  # noqa: E402

PI = math.pi

WINDOWS = {
    "s0": (-2, 2, -2, 2), "s1p": (-2, 2, -2, 2), "s1m": (-1.5, 1.5, -1.5, 1.5),
    "sin_plus": (-PI, PI, -PI, PI), "sin_minus": (-PI, PI, -PI, PI),
    "self_s1p_plus": (-0.8, PI + 0.8, -0.8, PI + 0.8),
    "self_s1p_minus": (-0.8, PI + 0.8, -0.8, PI + 0.8),
}


def main():
    t0 = time.time()
    for key in all_pairs():
        s = surface_for(key)
        pts = find_singular_points(s, WINDOWS[key], grid_n=40)
        tags, alone = {}, 0
        for rep in classify_all(s, [q.p for q in pts]):
            tags[rep.tag] = tags.get(rep.tag, 0) + 1
            alone += any(n.startswith("generic route alone says")
                         for n in rep.final.notes)
        row = ", ".join(f"{t}x{c}" for t, c in sorted(tags.items()))
        print(f"{key:16s} {len(pts):3d} singular samples: {row or '(none)'}"
              f"; generic route alone: {alone}")

    print("\nconstructed instances:")
    for name, (s, p0) in [
        ("cylinder", instances.cylinder_pair()),
        ("slide edge", instances.slide_pair("edge")),
        ("slide swallowtail", instances.slide_pair("swallowtail")),
        ("slide nonfront", instances.slide_pair("nonfront")),
        ("beaks", instances.singular_speed_pair()),
        ("rank zero", instances.rank_zero_pair()),
    ]:
        rep = classify(s, p0)
        gen = rep.generic.tag if rep.generic else "-"
        print(f"{name:18s} {rep.tag:18s} (generic: {gen})")
    # the time goes to stderr, so that stdout compares across commits
    print(f"\n{time.time() - t0:.1f}s", file=sys.stderr)


if __name__ == "__main__":
    main()
