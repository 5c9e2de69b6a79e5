"""Per-layer spans recorded around calls into the program's modules.

``Tracer.install`` replaces selected functions of the ``cubeshell``
modules with timing wrappers, wherever a module holds a reference to them
(``from .geometry import center_domain`` makes a second reference), and
``uninstall`` puts the originals back. Spans live in memory (name, start,
end and the index of the enclosing span) until ``dump`` writes them out.
Counters computed from a call's arguments or result run outside every
span; the time they take is taken off the tracer's clock, so it shows in
no span.

A function the program no longer has is skipped, and the metrics built
from it read 0.
"""

from __future__ import annotations

import json
import sys
import time
from collections import Counter
from fractions import Fraction
from math import lcm


def _scale_bits(args, counts):
    if "squares.scale_bits" not in counts:
        ps, r = args[0], Fraction(args[1])
        dens = {c.denominator for p in ps for c in p}
        dens.add(r.denominator)
        counts["squares.scale_bits"] = (2 * lcm(*dens)).bit_length()


def _kept_squares(args, result, counts):
    counts["squares.active_squares"] += len(result[0])


def _height_levels(args, counts):
    counts["solver.height_levels"] += len({abs(p[-1]) for p in args[0]})


def _low_sites(args, result, counts):
    counts["solver.low_sites"] += len(args[0])
    counts["voronoi.vertices"] += len(result.vertices)
    counts["voronoi.edges"] += len(result.edges)


def _candidates(args, result, counts):
    counts["solver.candidates"] += result[1]


# (module, function, span name, counter before the call, counter after it)
TARGETS = (
    ("pointio", "parse_points", "pointio.parse", None, None),
    ("geometry", "normalize", "geometry.normalize", None, None),
    ("geometry", "center_domain", "geometry.center_domain", None, None),
    ("geometry", "smallest_enclosing_box", "geometry.enclosing_box", None, None),
    ("squares", "decide", "squares.decide", _scale_bits, None),
    ("squares", "uncovered_scaled", "squares.sweep", None, None),
    ("squares", "_prefilter", "squares.prefilter", None, _kept_squares),
    ("solver", "solve3d", "solver.solve3d", None, None),
    ("solver", "solve2d", "solver.solve2d", None, None),
    ("solver", "solve_plateau_case", "solver.plateau", _height_levels, None),
    ("solver", "solve_voronoi_case", "solver.voronoi", None, _candidates),
    ("voronoi", "build_voronoi", "voronoi.build", None, _low_sites),
    ("voronoi", "vd_candidates_in_rect", "voronoi.candidates", None, None),
    ("cli", "cmd_solve", "cli.solve", None, None),
)


class Tracer:
    """Spans and counters for the calls made while installed."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int | None]] = []
        self.counts: Counter = Counter()
        self._open: list[int] = []
        self.paused = 0.0
        self._patched: list[tuple[dict, str, object]] = []

    def clock(self) -> float:
        return time.perf_counter() - self.paused

    def _count(self, hook, *args):
        t0 = time.perf_counter()
        hook(*args, self.counts)
        self.paused += time.perf_counter() - t0

    def _wrap(self, fn, name, before, after):
        def traced(*args, **kwargs):
            if before is not None:
                self._count(before, args)
            parent = self._open[-1] if self._open else None
            idx = len(self.spans)
            self.spans.append((name, self.clock(), 0.0, parent))
            self._open.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._open.pop()
                _, start, _, _ = self.spans[idx]
                self.spans[idx] = (name, start, self.clock(), parent)
            if after is not None:
                self._count(after, args, result)
            return result
        return traced

    def install(self) -> None:
        for module, attr, name, before, after in TARGETS:
            fn = getattr(sys.modules.get(f"cubeshell.{module}"), attr, None)
            if fn is None:
                continue
            wrapper = self._wrap(fn, name, before, after)
            refs = [(vars(mod), key)
                    for mod_name, mod in list(sys.modules.items())
                    if mod_name.split(".")[0] == "cubeshell"
                    for key, value in vars(mod).items() if value is fn]
            for namespace, key in refs:
                namespace[key] = wrapper
                self._patched.append((namespace, key, fn))

    def uninstall(self) -> None:
        for namespace, key, fn in reversed(self._patched):
            namespace[key] = fn
        self._patched.clear()

    def reset(self) -> None:
        self.spans.clear()
        self.counts.clear()
        self.paused = 0.0

    def dump(self, path) -> None:
        """Write the spans as JSON: [name, start, end, parent index]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.spans, fh)

    def totals(self) -> tuple[Counter, Counter, Counter]:
        """Calls, inclusive seconds and self seconds, by span name."""
        calls, incl, child = Counter(), Counter(), Counter()
        for name, start, end, parent in self.spans:
            calls[name] += 1
            incl[name] += end - start
            if parent is not None:
                child[parent] += end - start
        own = Counter()
        for idx, (name, start, end, _) in enumerate(self.spans):
            own[name] += end - start - child[idx]
        return calls, incl, own

    def metrics(self) -> dict[str, float]:
        """The per-layer metrics of the spans and counters recorded so far."""
        calls, incl, own = self.totals()
        c = self.counts
        return {
            "pointio.parse_s": incl["pointio.parse"],
            "geometry.normalize_s": incl["geometry.normalize"],
            "geometry.center_domain_s": incl["geometry.center_domain"],
            "geometry.enclosing_box_calls": calls["geometry.enclosing_box"],
            "geometry.enclosing_box_s": incl["geometry.enclosing_box"],
            "squares.decide_calls": calls["squares.decide"],
            "squares.decide_s": incl["squares.decide"],
            "squares.sweep_s": incl["squares.sweep"],
            "squares.frame_s": incl["squares.decide"] - incl["squares.sweep"],
            "squares.active_squares": c["squares.active_squares"],
            "squares.scale_bits": c["squares.scale_bits"],
            "solver.plateau_s": incl["solver.plateau"],
            "solver.height_levels": c["solver.height_levels"],
            "solver.voronoi_s": incl["solver.voronoi"],
            "solver.low_sites": c["solver.low_sites"],
            "solver.candidates": c["solver.candidates"],
            "voronoi.build_s": incl["voronoi.build"],
            "voronoi.candidates_s": incl["voronoi.candidates"],
            "voronoi.vertices": c["voronoi.vertices"],
            "voronoi.edges": c["voronoi.edges"],
            "solver.assemble_s": own["solver.solve3d"],
            "solver.envelope_s": own["solver.solve2d"],
            "cli.emit_s": own["cli.solve"],
        }
