import hashlib
import io
import json
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from conftest import pts
from cubeshell import solver
from cubeshell.cli import main
from cubeshell.errors import EmptyInputError, UsageError
from cubeshell.geometry import PointSet, center_domain, normalize, point_set
from cubeshell.pointio import (generate_points, parse_points, write_points)
from cubeshell.rational import format_decimal, format_ratio, parse_scalar
from cubeshell.solver import solve
from cubeshell.squares import clip_ball, decide, union_at, union_of_squares
from cubeshell.svgfig import figure

F = Fraction

CORNERS = "".join(f"{sx} {sy} {sz}\n" for sx in (-1, 1) for sy in (-1, 1)
                  for sz in (-1, 1))


def run_cli(capsys, args, stdin_text=None, monkeypatch=None):
    if stdin_text is not None:
        data = (stdin_text if isinstance(stdin_text, bytes)
                else stdin_text.encode("utf-8"))
        monkeypatch.setattr(sys, "stdin", io.TextIOWrapper(io.BytesIO(data)))
    code = main(args)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParsePoints:
    def test_whitespace_fields(self):
        ps = parse_points(["0 0 0", "2 1 4"])
        assert ps.dimension == 3 and len(ps) == 2

    def test_commas_and_rationals(self):
        ps = parse_points(["1.25, -3", "0, 0"])
        assert ps.dimension == 2
        assert ps.points[0] == (F(5, 4), F(-3))

    def test_ragged_row_names_line(self):
        with pytest.raises(UsageError, match="line 2"):
            parse_points(["1 2", "3 4 5"])

    def test_bad_literal_names_line(self):
        with pytest.raises(UsageError, match="line 3"):
            parse_points(["1 2", "3 4", "x y"])

    def test_comments_and_blanks_skipped(self):
        ps = parse_points(["# header", "", "1 2 # trailing", "3/2 4"])
        assert ps.points == ((1, 2), (F(3, 2), 4))

    def test_dimension_override_enforced(self):
        with pytest.raises(UsageError, match="line 1"):
            parse_points(["1 2 3"], dimension=2)

    def test_empty_input(self):
        with pytest.raises(EmptyInputError):
            parse_points(["# only a comment"])


class TestGenerate:
    def test_round_trip_lossless(self):
        for dist in ("uniform", "clustered", "slab"):
            for dim in (1, 2, 3):
                ps = generate_points(17, dim, dist, seed=3)
                again = parse_points(write_points(ps).splitlines())
                assert again.points == ps.points

    def test_same_seed_identical(self):
        a = generate_points(40, 3, "uniform", seed=9)
        b = generate_points(40, 3, "uniform", seed=9)
        assert a.points == b.points

    def test_different_seeds_differ(self):
        a = generate_points(40, 3, "uniform", seed=9)
        b = generate_points(40, 3, "uniform", seed=10)
        assert a.points != b.points

    def test_coordinates_in_range(self):
        for dist in ("uniform", "clustered", "slab"):
            ps = generate_points(200, 3, dist, seed=1)
            assert all(abs(c) <= 100 for p in ps for c in p)

    def test_slab_is_flat(self):
        ps = generate_points(200, 3, "slab", seed=1)
        heights = sorted(abs(p[-1]) for p in ps)
        assert heights[-2:] == [100, 100] and heights[-3] <= F(1, 8)
        assert all(abs(c) <= 50 for p in ps for c in p[:-1])

    def test_bad_distribution(self):
        with pytest.raises(UsageError):
            generate_points(5, 3, "bimodal", seed=0)

    def test_output_unchanged(self):
        # the digest of the files the Fraction-row generators wrote
        h = hashlib.sha256()
        for dist in ("uniform", "clustered", "slab"):
            for dim in (1, 2, 3):
                for seed in (1, 2, 3):
                    for n in (1, 2, 257):
                        h.update(write_points(
                            generate_points(n, dim, dist, seed)).encode())
        assert h.hexdigest() == ("0a97f3da9b28e69993e7e1faa1140a85"
                                 "9c63b2c2656755b4161216bf296975e7")

    def test_built_from_integers(self, monkeypatch):
        def from_rows(*args):
            raise AssertionError("generated points went through Fraction rows")

        monkeypatch.setattr(PointSet, "__init__", from_rows)
        for dist in ("uniform", "clustered", "slab"):
            assert len(generate_points(30, 3, dist, seed=2)) == 30


class TestSolveCommand:
    def test_cube_corner_file(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "corners.txt"
        path.write_text(CORNERS)
        code, out, _ = run_cli(capsys, ["solve", str(path)])
        assert code == 0
        doc = json.loads(out)
        assert doc["width"] == "0.0"
        assert doc["width_exact"] == "0/1"
        assert doc["case"] == "both"
        assert doc["center_exact"] == ["0/1", "0/1", "0/1"]
        assert doc["r1_exact"] == "1/1" and doc["r2_exact"] == "1/1"

    def test_planar_file_reports_both_regimes(self, capsys, tmp_path):
        for seed in (1, 2, 3):
            path = tmp_path / f"p{seed}.txt"
            path.write_text(write_points(generate_points(12, 2, "uniform",
                                                         seed)))
            code, out, _ = run_cli(capsys, ["solve", str(path)])
            doc = json.loads(out)
            assert code == 0 and doc["dimension"] == 2
            r1, r2 = F(doc["r1_exact"]), F(doc["r2_exact"])
            assert F(doc["inner_radius_exact"]) == max(r1, r2)
            assert doc["case"] == ("plateau" if r1 > r2 else
                                   "voronoi" if r2 > r1 else "both")

    def test_precision_flag(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["solve", "--precision", "2"],
                               stdin_text="1/3 0 0\n0 0 0\n",
                               monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["outer_radius"] == "0.17"
        assert doc["outer_radius_exact"] == "1/6"

    def test_empty_input_exits_1(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve"], stdin_text="\n",
                               monkeypatch=monkeypatch)
        assert code == 1 and "no points" in err

    def test_ragged_input_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve"], stdin_text="1 2\n3 4 5\n",
                               monkeypatch=monkeypatch)
        assert code == 2 and "line 2" in err

    def test_dim_flag_mismatch_exits_2(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, ["solve", "--dim", "2"],
                             stdin_text="1 2 3\n", monkeypatch=monkeypatch)
        assert code == 2

    def test_unsupported_dimension_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve"],
                               stdin_text="1 2 3 4\n5 6 7 8\n",
                               monkeypatch=monkeypatch)
        assert code == 2 and "dimension" in err

    def test_non_utf8_file_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"1 2 3\n\xff\xfe 4 5\n")
        code, out, err = run_cli(capsys, ["solve", str(path)])
        assert code == 2 and out == ""
        assert err == "cubeshell: line 2: not UTF-8 text (byte 0xff)\n"

    def test_non_utf8_stdin_exits_2(self, capsys, monkeypatch):
        code, out, err = run_cli(capsys, ["solve", "-"],
                                 stdin_text=b"1 2 3\n\xff\xfe 4 5\n",
                                 monkeypatch=monkeypatch)
        assert code == 2 and out == ""
        assert err == "cubeshell: line 2: not UTF-8 text (byte 0xff)\n"

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_solve_builds_no_fraction_rows(self, capsys, monkeypatch,
                                           tmp_path, dim):
        path = tmp_path / "p.txt"
        path.write_text(write_points(generate_points(300, dim, "uniform", 6)))

        def built(ps):
            raise AssertionError("the parsed points were made Fractions")

        monkeypatch.setattr(PointSet, "points", property(built))
        code, out, _ = run_cli(capsys, ["solve", str(path)])
        assert code == 0 and json.loads(out)["n"] == 300
        code, out, _ = run_cli(capsys, ["solve"], stdin_text=path.read_text(),
                               monkeypatch=monkeypatch)
        assert code == 0 and json.loads(out)["n"] == 300

    @pytest.mark.parametrize("command", [["solve"], ["decide", "--level", "1"],
                                         ["union", "--level", "1"],
                                         ["oracle"]])
    def test_negative_precision_before_input(self, capsys, command):
        # the input would fail too; the precision is checked first
        code, out, err = run_cli(capsys, [*command, "--precision", "-1",
                                          "/nonexistent/points.txt"])
        assert code == 2 and out == ""
        assert err == "cubeshell: precision must be >= 0\n"

    def test_byte_identical_reruns(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "p.txt"
        path.write_text(write_points(generate_points(25, 3, "uniform", 4)))
        _, out1, _ = run_cli(capsys, ["solve", str(path)])
        _, out2, _ = run_cli(capsys, ["solve", str(path)])
        assert out1 == out2


class TestDecideCommand:
    def test_feasible(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["decide", "--level", "1"],
                               stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["feasible"] is True
        assert doc["witness_exact"] == ["0/1", "0/1"]

    def test_infeasible_exits_1(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["decide", "--level", "3/2"],
                               stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 1
        doc = json.loads(out)
        assert doc["feasible"] is False and doc["witness"] is None

    def test_negative_level_exits_2(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, ["decide", "--level", "-1"],
                             stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 2

    @pytest.mark.parametrize("level", ["1", "7/3", "1000000"])
    def test_decide_builds_no_fraction_rows(self, capsys, monkeypatch,
                                            tmp_path, level):
        # normalize, decide and center_domain read the parsed integers
        text = write_points(generate_points(300, 3, "uniform", 6))
        path = tmp_path / "p.txt"
        path.write_text(text)
        args = ["decide", "--level", level]
        want = run_cli(capsys, [*args, str(path)])

        def library():
            psn, nrm = normalize(parse_points(text.splitlines()))
            return decide(psn, parse_scalar(level)), center_domain(psn), nrm

        lib = library()

        def built(ps):
            raise AssertionError("the parsed points were made Fractions")

        monkeypatch.setattr(PointSet, "points", property(built))
        assert run_cli(capsys, [*args, str(path)]) == want
        assert run_cli(capsys, args, stdin_text=text,
                       monkeypatch=monkeypatch) == want
        assert library() == lib
        assert want[0] == (1 if level == "1000000" else 0)


class TestOracleCommand:
    def test_matches_solve(self, capsys, monkeypatch, tmp_path):
        for seed in (1, 2, 3):
            path = tmp_path / f"i{seed}.txt"
            path.write_text(write_points(generate_points(18, 3, "uniform",
                                                         seed)))
            _, sout, _ = run_cli(capsys, ["solve", str(path)])
            _, oout, _ = run_cli(capsys, ["oracle", str(path)])
            sdoc, odoc = json.loads(sout), json.loads(oout)
            for key in ("width_exact", "inner_radius_exact",
                        "outer_radius_exact", "center_exact", "case"):
                assert sdoc[key] == odoc[key]

    def test_lower_dimensions(self, capsys, monkeypatch, tmp_path):
        for dim in (1, 2):
            path = tmp_path / f"d{dim}.txt"
            path.write_text(write_points(generate_points(12, dim, "uniform",
                                                         5)))
            _, sout, _ = run_cli(capsys, ["solve", str(path)])
            _, oout, _ = run_cli(capsys, ["oracle", str(path)])
            assert (json.loads(sout)["width_exact"]
                    == json.loads(oout)["width_exact"])

    def test_cap_must_be_an_integer(self, capsys, monkeypatch, tmp_path):
        path = tmp_path / "i.txt"
        path.write_text(write_points(generate_points(12, 3, "uniform", 1)))
        monkeypatch.setenv("CUBESHELL_ORACLE_MAX_N", "sixty")
        code, out, err = run_cli(capsys, ["oracle", str(path)])
        assert (code, out) == (2, "")
        assert "CUBESHELL_ORACLE_MAX_N must be an integer" in err


class TestOtherCommands:
    def test_gen_pipes_into_solve(self, capsys, monkeypatch, tmp_path):
        code, out, _ = run_cli(capsys, ["gen", "--n", "30", "--dim", "3",
                                        "--seed", "7"])
        assert code == 0
        ps = parse_points(out.splitlines())
        assert len(ps) == 30 and ps.dimension == 3

    def test_gen_slab_solves_in_diagram_regime(self, capsys, monkeypatch):
        for seed in (1, 2, 3):
            _, out, _ = run_cli(capsys, ["gen", "--n", "60", "--dist", "slab",
                                         "--seed", str(seed)])
            code, sout, _ = run_cli(capsys, ["solve"], stdin_text=out,
                                    monkeypatch=monkeypatch)
            assert code == 0
            assert json.loads(sout)["case"] in ("voronoi", "both")

    def test_gen_deterministic(self, capsys, monkeypatch):
        _, out1, _ = run_cli(capsys, ["gen", "--n", "20", "--seed", "11"])
        _, out2, _ = run_cli(capsys, ["gen", "--n", "20", "--seed", "11"])
        assert out1 == out2

    def test_voronoi_dump(self, capsys, monkeypatch):
        text = "0 0\n4 0\n0 4\n4 4\n"
        code, out, _ = run_cli(capsys, ["voronoi"], stdin_text=text,
                               monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert len(doc["sites"]) == 4
        assert {"sites", "vertices", "edges"} <= set(doc)
        assert any(v["point"] == ["2", "2"] for v in doc["vertices"])

    def test_union_dump(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["union", "--level", "3/2"],
                               stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 0
        doc = json.loads(out)
        assert doc["square_count"] == 8  # all corners are below the level
        assert doc["component_count"] == 1
        assert doc["area_exact"] == "25/1"

    def test_union_empty_exits_1(self, capsys, monkeypatch):
        code, out, _ = run_cli(capsys, ["union", "--level", "1/2"],
                               stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 1
        assert json.loads(out)["square_count"] == 0

    @pytest.mark.parametrize("level", ["10", "1/3", "0"])
    def test_union_builds_no_fraction_rows(self, capsys, monkeypatch,
                                           tmp_path, level):
        # the squares are cut from the normalized set's integer columns
        path = tmp_path / "p.txt"
        path.write_text(write_points(generate_points(300, 3, "uniform", 6)))
        args = ["union", "--level", level, str(path)]
        want = run_cli(capsys, args)

        def built(ps):
            raise AssertionError("the parsed points were made Fractions")

        monkeypatch.setattr(PointSet, "points", property(built))
        assert run_cli(capsys, args) == want
        assert want[0] == (1 if level == "0" else 0)

    def test_bench_table(self, capsys, monkeypatch):
        # the sweeps column is the solve's candidate_count, the coverage
        # sweeps of the diagram-regime search in 2D as in 3D
        sweeps_run = []
        search = solver.solve_voronoi_case

        def counted(fr, r1):
            best, count = search(fr, r1)
            sweeps_run.append(count)
            return best, count

        monkeypatch.setattr(solver, "solve_voronoi_case", counted)
        for d in ("3", "2"):
            code, out, _ = run_cli(capsys, ["bench", "--sizes", "5,10",
                                            "--dim", d])
            assert code == 0
            rows = [ln.split() for ln in out.splitlines() if ln.strip()]
            assert len(rows) == 3  # header + one row per size
            assert rows[0] == ["n", "dim", "seconds", "sweeps", "case"]
            for (n, dim, _, sweeps, case), size in zip(rows[1:], (5, 10)):
                res = solve(generate_points(size, int(d), "uniform", 0))
                assert (n, dim, case) == (str(size), d, res.case_tag)
                assert sweeps == str(res.candidate_count)
            # the bench ran each size, then the loop above did
            assert sweeps_run[:2] == sweeps_run[2:] == [
                int(row[3]) for row in rows[1:]]
            sweeps_run.clear()

    def test_bench_bad_sizes_exits_2(self, capsys, monkeypatch):
        code, _, _ = run_cli(capsys, ["bench", "--sizes", "a,b"])
        assert code == 2

    def test_bench_rejects_before_printing(self, capsys):
        code, out, err = run_cli(capsys, ["bench", "--sizes", "5,0"])
        assert code == 2 and out == "" and "at least 1" in err
        with pytest.raises(SystemExit) as exc:
            main(["bench", "--sizes", "5", "--dim", "4"])
        assert exc.value.code == 2 and capsys.readouterr().out == ""

    def test_render_writes_svg(self, capsys, monkeypatch, tmp_path):
        out_path = tmp_path / "fig.svg"
        code, _, _ = run_cli(capsys, ["render", "--svg", str(out_path)],
                             stdin_text=CORNERS, monkeypatch=monkeypatch)
        assert code == 0
        text = out_path.read_text()
        assert text.startswith("<svg") and "</svg>" in text

    def test_missing_file_exits_2(self, capsys, monkeypatch):
        code, _, err = run_cli(capsys, ["solve", "/nonexistent/points.txt"])
        assert code == 2 and "cannot read" in err


def _union_reference(rows, level, places=6) -> dict:
    """The union payload, from ``clip_ball`` squares of the normalized rows."""
    psn, _ = normalize(point_set(rows))
    squares = [s for s in (clip_ball(p, level) for p in psn) if s is not None]
    ub = union_of_squares(squares)
    return {
        "square_count": len(squares),
        "component_count": ub.component_count,
        "vertex_count": len(ub.vertices),
        "area": format_decimal(ub.area, places),
        "area_exact": format_ratio(ub.area),
        "vertices": [[format_ratio(c) for c in v] for v in ub.vertices],
        "edges": [[[format_ratio(c) for c in a], [format_ratio(c) for c in b]]
                  for a, b in ub.edges],
    }


class TestUnionCommand:
    def test_matches_union_of_clipped_squares(self, capsys, tmp_path):
        rng = random.Random(1207)
        path = tmp_path / "p.txt"
        codes = set()
        for _ in range(500):
            n = rng.randint(1, 24)
            rows = [[F(rng.randint(-30 * q, 30 * q), q)
                     for q in rng.choices((1, 2, 3, 5, 7, 12), k=3)]
                    for _ in range(n)]
            rows += rng.choices(rows, k=rng.randint(0, n))  # duplicates
            rng.shuffle(rows)
            level = rng.choice((F(0), F(1, 3), F(5, 7),
                                F(rng.randint(1, 80), rng.choice((1, 2, 7)))))
            path.write_text(write_points(point_set(rows)))
            code, out, _ = run_cli(capsys, ["union", "--level", str(level),
                                            str(path)])
            want = _union_reference(rows, level)
            assert json.loads(out) == want
            assert code == (0 if want["square_count"] else 1)
            codes.add(code)
        assert codes == {0, 1}


class TestColdStart:
    @staticmethod
    def solve_in_child(tmp_path, flags, modules):
        """Exit code of a solve in a fresh interpreter started with flags,
        and which of modules it loaded."""
        # 1,200 points: the first coverage sweep sees about 600 squares
        path = tmp_path / "points.txt"
        path.write_text(write_points(generate_points(1200, 3, "uniform", 5)))
        script = (
            "import json, sys\n"
            "import cubeshell.cli\n"
            f"code = cubeshell.cli.main(['solve', {str(path)!r}])\n"
            f"loaded = [m for m in {modules!r} if m in sys.modules]\n"
            "print(json.dumps([code, loaded]), file=sys.stderr)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, *flags, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["n"] == 1200
        return json.loads(proc.stderr.splitlines()[-1])

    def test_solve_loads_only_the_solve_path(self, tmp_path):
        heavy = ["numpy", "cubeshell.oracle", "cubeshell.voronoi",
                 "cubeshell.svgfig", "dataclasses", "inspect", "ast", "dis"]
        assert self.solve_in_child(tmp_path, [], heavy) == [0, []]

    def test_solve_loads_no_typing_or_random(self, tmp_path):
        # -S: no site-packages .pth file preloads modules before the package
        loaded = self.solve_in_child(tmp_path, ["-S"], ["typing", "random"])
        assert loaded == [0, []]


class TestFigure:
    def test_contains_all_layers(self):
        ps = pts((0, 0, 0), (10, 2, 1), (3, 8, -4), (7, 1, 6), (2, 2, 2))
        text = figure(ps)
        assert text.count("<circle") >= len(ps)
        assert "<rect" in text and "<polyline" in text

    def test_lower_dimensions_render(self):
        assert "<svg" in figure(pts((0, 0), (4, 1), (2, 5)))
        assert "<svg" in figure(pts((0,), (9,), (4,)))

    def test_draws_the_squares_at_r_star(self):
        # the boundary of the squares the decision tests at r*, edge by edge
        ps = generate_points(60, 3, "slab", 4)
        rstar = solve(ps).inner_level
        assert rstar > 0
        edges = union_at(normalize(ps)[0], rstar)[1].edges
        assert edges
        assert figure(ps).count('stroke="#8ab4e8"') == len(edges)

    def test_render_loads_no_diagram_builder(self, tmp_path):
        path = tmp_path / "points.txt"
        path.write_text(write_points(generate_points(300, 3, "slab", 1)))
        svg = tmp_path / "out.svg"
        script = (
            "import sys\n"
            "import cubeshell.cli\n"
            f"code = cubeshell.cli.main(['render', {str(path)!r}, "
            f"'--svg', {str(svg)!r}])\n"
            "print(code, 'cubeshell.voronoi' in sys.modules)\n")
        src = Path(__file__).resolve().parents[1] / "src"
        env = dict(os.environ, PYTHONPATH=str(src))
        proc = subprocess.run([sys.executable, "-c", script], env=env,
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0", "False"]
        assert "<polyline" in svg.read_text()
