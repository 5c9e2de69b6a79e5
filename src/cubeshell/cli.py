"""Command line front end.

Every numeric field in JSON output appears twice: rounded to the chosen
precision under its plain name, and exactly as "numerator/denominator"
under the same name with an "_exact" suffix. Exit codes: 0 on success,
1 when the answer is "infeasible" or the input/result is empty, 2 on
usage errors.

The oracle, diagram and figure modules are imported by the subcommands
that use them, so ``solve`` does not load them; its records are built on
``geometry.Record``, so it loads no ``dataclasses`` either. Nothing here
needs a third-party package.
``decide`` and ``union`` run on the normalized set's integer frame, as
``solve`` does, and make no Fraction per point.
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from .errors import CubeshellError, EmptyInputError, UsageError
from .geometry import PointSet, center_domain, normalize
from .pointio import (DISTRIBUTIONS, generate_points, load_points,
                      parse_bytes, write_points)
from .rational import Scalar, format_decimal, format_ratio, parse_scalar
from .shell import lift, lifted_dist, planar_dist
from .solver import SolveResult, solve
from .squares import decide, union_at

PROG = "cubeshell"


def _read_points(args) -> PointSet:
    dim = getattr(args, "dim", None)
    if args.points == "-":
        # as sys.stdin does on POSIX, split lines at "\n" only
        return parse_bytes(sys.stdin.buffer.read(), dim, newline="\n")
    return load_points(args.points, dim)


def _emit(payload: dict) -> None:
    print(json.dumps(payload, indent=2))


def _pair(prefix: str, value: Scalar | None, places: int) -> dict:
    if value is None:
        return {prefix: None, f"{prefix}_exact": None}
    return {prefix: format_decimal(value, places),
            f"{prefix}_exact": format_ratio(value)}


def _point_pair(prefix: str, point, places: int) -> dict:
    if point is None:
        return {prefix: None, f"{prefix}_exact": None}
    return {prefix: [format_decimal(c, places) for c in point],
            f"{prefix}_exact": [format_ratio(c) for c in point]}


def _result_payload(ps: PointSet, center, outer: Scalar, inner: Scalar,
                    tag: str, r1: Scalar | None, r2: Scalar | None,
                    places: int) -> dict:
    payload: dict = {"dimension": ps.dimension, "n": len(ps)}
    payload.update(_point_pair("center", center, places))
    payload.update(_pair("outer_radius", outer, places))
    payload.update(_pair("inner_radius", inner, places))
    payload.update(_pair("width", outer - inner, places))
    payload["case"] = tag
    payload.update(_pair("r1", r1, places))
    payload.update(_pair("r2", r2, places))
    return payload


# ---------------------------------------------------------------------------
# subcommands


def cmd_solve(args) -> int:
    ps = _read_points(args)
    res: SolveResult = solve(ps)
    sh = res.shell
    _emit(_result_payload(ps, sh.center, sh.outer_radius, sh.inner_radius,
                          res.case_tag, res.plateau_value, res.voronoi_value,
                          args.precision))
    return 0


def cmd_decide(args) -> int:
    ps = _read_points(args)
    level = parse_scalar(args.level)
    psn, nrm = normalize(ps)
    feasible, witness = decide(psn, level)
    payload: dict = {"feasible": feasible}
    payload.update(_point_pair("witness", witness, args.precision))
    if witness is not None:
        payload.update(_point_pair("center", nrm.invert(lift(witness)),
                                   args.precision))
    else:
        payload.update(_point_pair("center", None, args.precision))
    _emit(payload)
    return 0 if feasible else 1


def _planar_sites(ps: PointSet):
    from .voronoi import make_sites
    if ps.dimension == 2:
        pts = ps.points
    elif ps.dimension == 3:
        psn, _ = normalize(ps)
        pts = [(p[0], p[1]) for p in psn]
    else:
        raise UsageError("planar diagrams need dimension 2 or 3 input")
    return make_sites(sorted(set(pts)))


def cmd_voronoi(args) -> int:
    from .voronoi import build_voronoi
    vd = build_voronoi(_planar_sites(_read_points(args)))
    _emit(vd.as_dict())
    return 0


def cmd_union(args) -> int:
    ps = _read_points(args)
    if ps.dimension != 3:
        raise UsageError("union expects dimension 3 input")
    level = parse_scalar(args.level)
    if level < 0:
        raise UsageError("level must be nonnegative")
    psn, _ = normalize(ps)
    count, ub = union_at(psn, level)
    places = args.precision
    payload = {
        "square_count": count,
        "component_count": ub.component_count,
        "vertex_count": len(ub.vertices),
    }
    payload.update(_pair("area", ub.area, places))
    payload["vertices"] = [[format_ratio(c) for c in v] for v in ub.vertices]
    payload["edges"] = [[[format_ratio(c) for c in e[0]],
                         [format_ratio(c) for c in e[1]]] for e in ub.edges]
    _emit(payload)
    return 0 if count else 1


def cmd_oracle(args) -> int:
    from .oracle import (exact_oracle_2d, exact_oracle_3d,
                         oracle_plateau_level, oracle_voronoi_level)
    ps = _read_points(args)
    psn, nrm = normalize(ps)
    dom = center_domain(psn)
    outer = dom.half_side
    r1 = r2 = None
    if ps.dimension == 3:
        value, c = exact_oracle_3d(psn)
        lev = oracle_plateau_level(psn)
        vor = oracle_voronoi_level(psn)
        r1 = lev[0] if lev else None
        r2 = vor[0] if vor else None
        plateau_hit = r1 == value
        voronoi_hit = r2 == value
    elif ps.dimension == 2:
        value, c = exact_oracle_2d(psn)
        plateau_hit = any(abs(p[-1]) == value for p in psn
                          if lifted_dist(p, c) == value)
        voronoi_hit = any(planar_dist(p, c) == value for p in psn
                          if lifted_dist(p, c) == value)
    elif ps.dimension == 1:
        # the center is forced to the midpoint; only heights remain
        value, c = min(abs(p[0]) for p in psn), ()
        plateau_hit, voronoi_hit = True, False
    else:
        raise UsageError("the oracle handles dimensions 1, 2 and 3")
    tag = "both" if plateau_hit and voronoi_hit else (
        "plateau" if plateau_hit else "voronoi")
    center = nrm.invert(lift(tuple(c)))
    _emit(_result_payload(ps, center, outer, value, tag, r1, r2,
                          args.precision))
    return 0


def cmd_gen(args) -> int:
    ps = generate_points(args.n, args.dim, args.dist, args.seed)
    text = write_points(ps)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


def cmd_bench(args) -> int:
    try:
        sizes = [int(tok) for tok in args.sizes.split(",") if tok.strip()]
    except ValueError as exc:
        raise UsageError(f"bad --sizes value {args.sizes!r}") from exc
    if not sizes:
        raise UsageError("--sizes needs at least one integer")
    if min(sizes) < 1:
        raise UsageError("instance size must be at least 1")
    print(f"{'n':>10}  {'dim':>3}  {'seconds':>9}  {'sweeps':>6}  case")
    for n in sizes:
        ps = generate_points(n, args.dim, args.dist, args.seed)
        t0 = time.perf_counter()
        res = solve(ps)
        dt = time.perf_counter() - t0
        print(f"{n:>10}  {args.dim:>3}  {dt:>9.3f}  {res.candidate_count:>6}  "
              f"{res.case_tag}")
    return 0


def cmd_render(args) -> int:
    from .svgfig import write_figure
    ps = _read_points(args)
    write_figure(ps, args.svg)
    return 0


# ---------------------------------------------------------------------------
# parser wiring


def _add_input(sub, with_precision=True):
    sub.add_argument("points", nargs="?", default="-",
                     help="point file, '-' for stdin")
    sub.add_argument("--dim", type=int, default=None,
                     help="expected dimension; default: infer from the file")
    if with_precision:
        sub.add_argument("--precision", type=int, default=6,
                         help="decimal places in rounded output fields")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog=PROG,
        description="Exact minimum-width cubic shell solver (d = 1, 2, 3).")
    subs = parser.add_subparsers(dest="command", required=True)

    p = subs.add_parser("solve", help="compute the optimal shell")
    _add_input(p)
    p.set_defaults(func=cmd_solve)

    p = subs.add_parser("decide",
                        help="test whether inner radius r is attainable")
    _add_input(p)
    p.add_argument("--level", required=True, help="inner radius r to test")
    p.set_defaults(func=cmd_decide)

    p = subs.add_parser("voronoi", help="dump the nearest-site diagram")
    _add_input(p, with_precision=False)
    p.set_defaults(func=cmd_voronoi)

    p = subs.add_parser("union",
                        help="boundary of the squares blocked at a level")
    _add_input(p)
    p.add_argument("--level", required=True, help="square half side r")
    p.set_defaults(func=cmd_union)

    p = subs.add_parser("oracle", help="brute-force reference answer")
    _add_input(p)
    p.set_defaults(func=cmd_oracle)

    p = subs.add_parser("gen", help="write a random instance")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--dist", choices=sorted(DISTRIBUTIONS), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", default=None, help="output file; default stdout")
    p.set_defaults(func=cmd_gen)

    p = subs.add_parser("bench", help="time the solver on generated inputs")
    p.add_argument("--sizes", required=True,
                   help="comma separated instance sizes")
    p.add_argument("--dim", type=int, choices=(1, 2, 3), default=3)
    p.add_argument("--dist", choices=sorted(DISTRIBUTIONS), default="uniform")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_bench)

    p = subs.add_parser("render", help="draw the instance and shell as SVG")
    _add_input(p, with_precision=False)
    p.add_argument("--svg", required=True, help="output SVG path")
    p.set_defaults(func=cmd_render)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        # before any input is read
        if getattr(args, "precision", 0) < 0:
            raise UsageError("precision must be >= 0")
        return args.func(args)
    except EmptyInputError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 1
    except CubeshellError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"{PROG}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
