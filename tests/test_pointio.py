"""The point reader: tokens straight to integers, and the sets it builds.

``parse_ratio`` must accept exactly what ``parse_scalar`` accepts, with
the same value and the same error text, and a set parsed from text must
solve exactly as the same points given as Fractions.
"""

import random
from dataclasses import FrozenInstanceError
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from cubeshell.errors import UsageError
from cubeshell.geometry import PointSet, int_frame, point_set
from cubeshell.pointio import (load_points, parse_bytes, parse_points,
                               parse_ratio)
from cubeshell.rational import parse_scalar
from cubeshell.solver import solve

F = Fraction

# ASCII, Arabic-Indic and fullwidth decimal digits; int() and Fraction()
# both read any Unicode decimal digit
DIGITS = "0123456789" + "٠٣٩" + "０１９"
digits = st.text(alphabet=DIGITS, min_size=1, max_size=5)
sign = st.sampled_from(["", "+", "-"])

INVALID = ["1/-2", "1/+2", "/3", "3/", "7/0", "1//2", "1/2/3", "--1", "+",
           "nan", "inf", "x", "", "1/0_0", "1.5/2", "1e3/2", "0x10", "1/2.0",
           "²", "1/²", "1 /- 2", "1_/2", "_1", " 3 / 4 ", "3 /4", "3/ 4"]
VALID = ["1_000/3", "007/010", "-0/5", "+12", "1.25", "-3e-2", "5E+1", ".5",
         "5.", "2/4", "-6/9", "٣/٤", "1_0.5", " 3/4 ", "\t-3"]

tokens = st.one_of(
    st.builds("{}{}".format, sign, digits),
    st.builds("{}{}/{}".format, sign, digits, digits),
    st.builds("{}{}.{}".format, sign, digits, digits),
    st.builds("{}{}e{}{}".format, sign, digits, sign, digits),
    st.builds("{}{}_{}/{}".format, sign, digits, digits, digits),
    st.sampled_from(INVALID + VALID),
    # anything else built from the characters these literals use
    st.text(alphabet=DIGITS[:4] + "+-/._eE x\t　", max_size=8),
)


def outcome(read, text):
    try:
        return read(text)
    except UsageError as exc:
        return f"error: {exc}"


def as_fraction(text):
    num, den = parse_ratio(text)
    assert den > 0
    return Fraction(num, den)


class TestParseRatio:
    @settings(max_examples=600)
    @given(tokens)
    @example("1/2")
    def test_matches_parse_scalar(self, text):
        assert outcome(as_fraction, text) == outcome(parse_scalar, text)

    @pytest.mark.parametrize("text", INVALID)
    def test_invalid_tokens_keep_their_error(self, text):
        with pytest.raises(UsageError) as want:
            parse_scalar(text)
        with pytest.raises(UsageError) as got:
            parse_ratio(text)
        assert str(got.value) == str(want.value)

    @pytest.mark.parametrize("text", VALID)
    def test_valid_tokens_keep_their_value(self, text):
        assert as_fraction(text) == parse_scalar(text)

    def test_ratios_are_not_reduced(self):
        assert parse_ratio("2/4") == (2, 4)
        assert parse_ratio("-6/9") == (-6, 9)
        assert parse_ratio("7") == (7, 1)

    @settings(max_examples=300)
    @given(st.lists(tokens.filter(lambda t: t.split() == [t] and "," not in t
                                  and "#" not in t), min_size=1, max_size=3))
    def test_parse_points_matches_parse_scalar(self, fields):
        def scalars(line):
            try:
                return tuple(parse_scalar(f) for f in line.split())
            except UsageError as exc:
                raise UsageError(f"line 1: {exc}") from exc

        line = " ".join(fields)
        assert (outcome(lambda t: parse_points([t]).points[0], line)
                == outcome(scalars, line))


class TestErrorTexts:
    def test_ragged_row(self):
        with pytest.raises(UsageError) as err:
            parse_points(["1 2", "", "3 4 5"])
        assert str(err.value) == "line 3: expected 2 fields, found 3"

    def test_bad_literal(self):
        with pytest.raises(UsageError) as err:
            parse_points(["# header", "1 2", "3 1/0"])
        assert str(err.value) == "line 3: cannot parse '1/0' as a number"

    def test_non_utf8_names_its_line(self):
        with pytest.raises(UsageError) as err:
            parse_bytes(b"1 2 3\n\xff\xfe 4 5\n")
        assert str(err.value) == "line 2: not UTF-8 text (byte 0xff)"

    def test_non_utf8_lines_split_as_the_source_does(self):
        # a file also ends lines at a lone "\r", standard input does not
        data = b"1 2\r3 4\n\xc3\n"
        for newline, line in ((None, 3), ("\n", 2)):
            with pytest.raises(UsageError, match=f"^line {line}: "):
                parse_bytes(data, newline=newline)
        assert len(parse_bytes(b"1 2\r3 4\n")) == 2
        assert parse_bytes(b"1 2\r3 4\n", newline="\n").dimension == 4


class TestParsedPointSet:
    def test_same_surface_as_rows(self, tmp_path):
        parsed = parse_points(["1/2 -3", "0.25, 4/8"])
        rows = PointSet(((F(1, 2), F(-3)), (F(1, 4), F(1, 2))), 2)
        assert parsed == rows and hash(parsed) == hash(rows)
        assert parsed.dimension == 2 and len(parsed) == 2
        assert list(parsed) == list(rows.points) == list(parsed.points)
        assert repr(parsed) == repr(rows)
        assert parsed != parse_points(["1/2 -3"])
        path = tmp_path / "p.txt"
        path.write_text("1/2 -3\n0.25 4/8\n")
        assert load_points(str(path)) == rows

    def test_immutable(self):
        parsed = parse_points(["1 2"])
        for ps in (parsed, PointSet(((F(1), F(2)),), 2)):
            with pytest.raises(FrozenInstanceError):
                ps.dimension = 3
            with pytest.raises(FrozenInstanceError):
                ps.points = ()
            with pytest.raises(FrozenInstanceError):
                del ps.dimension

    def test_frame_stands_for_the_same_points(self):
        parsed = parse_points(["1/3 2/4", "-5 0"])
        rows = point_set(parsed.points)
        a, b = int_frame(parsed), int_frame(rows)
        assert (a.U, b.U) == (24, 12)  # "2/4" is not reduced
        assert a.nrm == b.nrm and a.domain() == b.domain()
        assert ([[a.value(v) for v in p] for p in a]
                == [[b.value(v) for v in p] for p in b])
        # at equal U the two input paths give equal frames, columns included
        for text in (["1/2 3 1", "-5 0 2", "1 1 1"], ["0 1/3", "1 0"]):
            parsed = parse_points(text)
            rows = point_set(parsed.points)
            assert int_frame(parsed) == int_frame(rows)
            assert len(int_frame(parsed)) == len(text)

    def test_rejects_bad_ratios(self):
        for nums, dens in (([], []), ([1, 2, 3], [1, 1, 1]), ([1, 2], [1]),
                           ([1, 2], [0, 1])):
            with pytest.raises(UsageError):
                PointSet.from_ratios(nums, dens, 2)
        ps = PointSet.from_ratios([2, -6, 3, 0], [4, 9, 1, 5], 2)
        assert ps.points == ((F(1, 2), F(-2, 3)), (F(3), F(0)))


# ---------------------------------------------------------------------------
# Parsed text and Fractions give the same SolveResult.


def token(v: Fraction, rng: random.Random) -> str:
    """v as an integer, decimal or unreduced "a/b" literal, at random."""
    pick = rng.random()
    if v.denominator == 1 and pick < 0.3:
        return str(v.numerator)
    if 10**6 % v.denominator == 0 and pick < 0.5:
        return _decimal(v)
    k = rng.randint(1, 3)
    return f"{v.numerator * k}/{v.denominator * k}"


def _decimal(v: Fraction) -> str:
    scaled = v * 10**6
    sign = "-" if scaled < 0 else ""
    whole, frac = divmod(abs(scaled.numerator), 10**6)
    return f"{sign}{whole}.{frac:06d}"


def assert_same_solve(rows, rng):
    text = ["# instance"] + [", ".join(token(v, rng) for v in row)
                             for row in rows]
    parsed = parse_points(text)
    # values, center, tag, contacts and candidate_count, all compared;
    # solved before the comparison below builds the parsed set's rows
    assert solve(parsed) == solve(point_set(rows))
    assert parsed == point_set(rows)


class TestSolveEquivalence:
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_random_denominators(self, dim):
        rng = random.Random(600 + dim)
        for _ in range(60):
            n = rng.randint(1, 30)
            rows = [[F(rng.randint(-60 * q, 60 * q), q)
                     for q in (rng.randint(1, 12) for _ in range(dim))]
                    for _ in range(n)]
            assert_same_solve(rows, rng)

    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_grid_ties(self, dim):
        rng = random.Random(700 + dim)
        for _ in range(40):
            n = rng.randint(2, 40)
            rows = [[F(rng.randint(-3, 3), 2) for _ in range(dim)]
                    for _ in range(n)]
            assert_same_solve(rows, rng)

    def test_unreduced_ratios(self):
        parsed = parse_points(["2/4 -6/9 0", "1/2 -2/3 4/4", "-4/8 6/9 -8/8"])
        rows = [[F(1, 2), F(-2, 3), 0], [F(1, 2), F(-2, 3), 1],
                [F(-1, 2), F(2, 3), -1]]
        assert solve(parsed) == solve(point_set(rows))

    def test_thousand_denominators(self):
        rng = random.Random(11)
        dens = list(range(1, 1001)) + [rng.randint(1, 1000) for _ in range(200)]
        rng.shuffle(dens)
        rows = [[F(rng.randint(-100 * q, 100 * q), q) for q in dens[i:i + 3]]
                for i in range(0, len(dens), 3)]
        assert_same_solve(rows, rng)
