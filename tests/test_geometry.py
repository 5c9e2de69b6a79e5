import copy
import pickle
from dataclasses import FrozenInstanceError, make_dataclass
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from conftest import CUBE8, pts, rand_points
from cubeshell.errors import PreconditionError, UsageError
from cubeshell.geometry import (Box, CenterDomain, IntFrame, Normalization,
                                PointSet, center_domain, int_frame,
                                is_smallest_enclosing_cube, linf_dist,
                                normalize, point_set, smallest_enclosing_box)
from cubeshell.pointio import parse_points
from cubeshell.shell import Shell
from cubeshell.solver import SolveResult
from cubeshell.squares import Square, UnionBoundary
from cubeshell.voronoi import Site, VdCell, VdEdge, VdVertex, VoronoiDiagram

coord = st.fractions(min_value=-50, max_value=50, max_denominator=16)
triple = st.tuples(coord, coord, coord)


class TestLinfDist:
    def test_three_axes(self):
        assert linf_dist((0, 0, 0), (3, -1, 2)) == 3

    def test_identity(self):
        p = (Fraction(5, 3), Fraction(-2), Fraction(7))
        assert linf_dist(p, p) == 0

    def test_single_axis(self):
        assert linf_dist((1, 2), (1, 5)) == 3

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            linf_dist((1, 2), (1, 2, 3))

    @given(triple, triple, triple)
    def test_metric(self, a, b, c):
        assert linf_dist(a, b) >= 0
        assert linf_dist(a, b) == linf_dist(b, a)
        assert linf_dist(a, c) <= linf_dist(a, b) + linf_dist(b, c)
        assert (linf_dist(a, b) == 0) == (a == b)


class TestSmallestEnclosingBox:
    def test_two_points(self):
        box = smallest_enclosing_box(pts((0, 0, 0), (2, 1, 4)))
        assert box.lo == (0, 0, 0) and box.hi == (2, 1, 4)
        assert box.longest_side == 4

    def test_single_point(self):
        box = smallest_enclosing_box(pts((3, -1)))
        assert box.lo == box.hi == (3, -1)
        assert box.longest_side == 0

    def test_symmetric_pair(self):
        box = smallest_enclosing_box(pts((-1, -1), (1, 1)))
        assert box.lo == (-1, -1) and box.hi == (1, 1)
        assert box.longest_side == 2

    def test_empty_rejected(self):
        with pytest.raises(UsageError):
            point_set([])


class TestPointSet:
    def test_dimension_below_one_rejected(self):
        for build in (lambda: point_set([[]]), lambda: point_set([[], []]),
                      lambda: PointSet(((),), 0)):
            with pytest.raises(UsageError):
                build()

    @pytest.mark.parametrize("source", ["parsed", "rows", "normalized"])
    def test_copy_and_pickle(self, source):
        text = ["1/3 2/4 -5", "0 7/6 1", "1/3 2/4 -5"]
        ps = {"parsed": lambda: parse_points(text),
              "rows": lambda: pts((F(1, 3), F(1, 2), -5), (0, F(7, 6), 1),
                                  (F(1, 3), F(1, 2), -5)),
              "normalized": lambda: normalize(parse_points(text))[0]}[source]()
        copies = [pickle.loads(pickle.dumps(ps, protocol))
                  for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
        copies += [copy.copy(ps), copy.deepcopy(ps)]
        for twin in copies:
            # the frame first, while a parsed set's rows are still unbuilt
            assert int_frame(twin) == int_frame(ps)
            assert twin == ps and hash(twin) == hash(ps)
            assert len(twin) == len(ps) == 3 and twin.dimension == 3
            assert twin.points == ps.points


class TestNormalize:
    def test_longest_already_last(self):
        psn, nrm = normalize(pts((0, 0, 0), (2, 1, 4)))
        assert psn.points == ((0, 0, -2), (2, 1, 2))
        assert nrm.axis_order == (0, 1, 2)

    def test_longest_axis_moved_last(self):
        psn, nrm = normalize(pts((0, 0, 0), (4, 1, 2)))
        assert psn.points == ((0, 0, -2), (1, 2, 2))
        assert nrm.axis_order == (1, 2, 0)

    def test_already_normalized_is_identity(self):
        psn, nrm = normalize(pts((0, 0, -2), (2, 1, 2)))
        assert nrm.axis_order == (0, 1, 2)
        assert all(t == 0 for t in nrm.translation)
        assert psn.points == ((0, 0, -2), (2, 1, 2))

    @given(st.lists(triple, min_size=1, max_size=12))
    def test_round_trip_identity(self, rows):
        ps = pts(*rows)
        psn, nrm = normalize(ps)
        for original, moved in zip(ps, psn):
            assert nrm.invert(moved) == original
            assert nrm.apply(original) == moved

    @given(st.lists(triple, min_size=2, max_size=12))
    def test_halving_plane_centered(self, rows):
        psn, _ = normalize(pts(*rows))
        box = smallest_enclosing_box(psn)
        assert box.lo[-1] + box.hi[-1] == 0
        assert box.side(psn.dimension - 1) == box.longest_side


class TestCenterDomain:
    def test_generic_pair(self):
        psn, _ = normalize(pts((0, 0, 0), (2, 1, 4)))
        dom = center_domain(psn)
        assert dom.half_side == 2
        assert dom.box.lo == (0, -1) and dom.box.hi == (2, 2)

    def test_cube_corners_degenerate_point(self):
        dom = center_domain(CUBE8)
        assert dom.half_side == 1
        assert dom.box.lo == dom.box.hi == (0, 0)
        assert dom.degeneracy_rank == 2

    def test_planar_interval(self):
        psn, _ = normalize(pts((0, -2), (0, 2)))
        dom = center_domain(psn)
        assert dom.half_side == 2
        assert dom.box.lo == (-2,) and dom.box.hi == (2,)

    @given(st.lists(triple, min_size=1, max_size=14))
    def test_every_center_encloses(self, rows):
        psn, _ = normalize(pts(*rows))
        dom = center_domain(psn)
        for c in dom.box.corners():
            center = c + (Fraction(0),)
            assert all(linf_dist(p, center) <= dom.half_side for p in psn)

    @given(st.lists(triple, min_size=2, max_size=10),
           st.fractions(min_value="1/1000", max_value=1))
    def test_shrinking_fails(self, rows, eps):
        psn, _ = normalize(pts(*rows))
        dom = center_domain(psn)
        if dom.half_side == 0:
            return
        shrunk = dom.half_side - min(eps, dom.half_side)
        for c in dom.box.corners():
            center = c + (Fraction(0),)
            assert any(linf_dist(p, center) > shrunk for p in psn)


class TestIsSmallestEnclosingCube:
    def test_cube_corners_tight(self):
        assert is_smallest_enclosing_cube(CUBE8, (0, 0, 0), 1)

    def test_slack_radius(self):
        assert not is_smallest_enclosing_cube(CUBE8, (0, 0, 0), 2)

    def test_one_axis_touching(self):
        ps = pts((0, 0, 0), (2, 1, 1))
        assert is_smallest_enclosing_cube(ps, (1, 1, 1), 1)

    def test_non_enclosing_rejected(self):
        with pytest.raises(PreconditionError):
            is_smallest_enclosing_cube(CUBE8, (0, 0, 0), Fraction(1, 2))

    @given(st.lists(triple, min_size=1, max_size=12))
    def test_true_at_domain_corners(self, rows):
        psn, _ = normalize(pts(*rows))
        dom = center_domain(psn)
        for c in dom.box.corners():
            assert is_smallest_enclosing_cube(psn, c + (Fraction(0),),
                                              dom.half_side)


def test_box_rejects_inverted_interval():
    with pytest.raises(PreconditionError):
        Box((Fraction(1),), (Fraction(0),))


F = Fraction
_BOX = Box((F(-1), F(0)), (F(1), F(1, 2)))
_NRM = Normalization((1, 0), (F(0), F(-3, 4)))
_SHELL = Shell((F(1), F(-2), F(0)), F(5), F(3, 2))
_SITE = Site((F(0), F(1, 3)), (0, 4))
_VERTEX = VdVertex((F(1), F(1)), frozenset({0, 1, 2}))
_EDGE = VdEdge(((F(0), F(0)), (F(2), F(2))), frozenset({0, 1}))
_CELL = VdCell(0, (((0, 0), (8, 0), (0, 8)),))

# each record, its field names, values for one instance of it, and
# another value for its last field
RECORDS = [
    (Box, ("lo", "hi"), (_BOX.lo, _BOX.hi), (F(2), F(1))),
    (Normalization, ("axis_order", "translation"),
     (_NRM.axis_order, _NRM.translation), (F(0), F(0))),
    (CenterDomain, ("half_side", "box", "degeneracy_rank"), (F(7, 2), _BOX, 0), 1),
    (IntFrame, ("U", "cols", "nrm", "half", "box"),
     (4, ((2, -6), (8, 0)), _NRM, 4, (-2, 2)), (-4, 4)),
    (Shell, ("center", "outer_radius", "inner_radius"),
     (_SHELL.center, F(5), F(3, 2)), F(1)),
    (SolveResult, ("shell", "inner_level", "case_tag", "candidate_count",
                   "outer_contacts", "inner_contacts", "plateau_value",
                   "voronoi_value"),
     (_SHELL, F(3, 2), "both", 3, (0, 2), (1,), F(3, 2), F(1, 2)), None),
    (Square, ("center", "radius"), ((F(1, 2), F(-1)), F(3)), F(1)),
    (UnionBoundary, ("vertices", "edges", "component_count", "area"),
     (((F(0), F(0)), (F(2), F(0))), (((F(0), F(0)), (F(2), F(0))),), 1, F(4)),
     F(5)),
    (Site, ("location", "source_indices"), (_SITE.location, (0, 4)), (1,)),
    (VdVertex, ("point", "nearest"), (_VERTEX.point, _VERTEX.nearest),
     frozenset({0})),
    (VdEdge, ("chain", "nearest"), (_EDGE.chain, _EDGE.nearest),
     frozenset({1, 2})),
    (VdCell, ("site_index", "pieces"), (0, _CELL.pieces), ()),
    (VoronoiDiagram, ("sites", "vertices", "edges", "cells", "U"),
     ((_SITE,), (_VERTEX,), (_EDGE,), (_CELL,), 8), 16),
]


def _twin(cls, names):
    """A frozen dataclass with the record's name and fields."""
    fields = [(n, object) for n in names]
    if cls is SolveResult:
        fields[-2:] = [(n, object, None) for n in names[-2:]]
    return make_dataclass(cls.__name__, fields, frozen=True)


@pytest.mark.parametrize("cls, names, values, last", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
class TestRecordParity:
    """Each record behaves as its @dataclass(frozen=True) twin would."""

    def test_repr_eq_hash(self, cls, names, values, last):
        twin = _twin(cls, names)
        rec, other = cls(*values), twin(*values)
        assert repr(rec) == repr(other)
        assert rec == cls(*values) and not rec != cls(*values)
        assert hash(rec) == hash(other) == hash(values)
        assert rec != other and other != rec
        assert cls.__match_args__ == twin.__match_args__ == names
        assert tuple(getattr(rec, n) for n in names) == values

    def test_inequality(self, cls, names, values, last):
        twin = _twin(cls, names)
        changed = values[:-1] + (last,)
        assert cls(*values) != cls(*changed)
        assert twin(*values) != twin(*changed)
        assert repr(cls(*changed)) == repr(twin(*changed))
        assert hash(cls(*changed)) == hash(twin(*changed))

    def test_construction(self, cls, names, values, last):
        twin = _twin(cls, names)
        by_name = dict(zip(names, values))
        assert cls(**by_name) == cls(*values)
        assert repr(cls(**by_name)) == repr(twin(**by_name))
        mixed = cls(*values[:1], **dict(zip(names[1:], values[1:])))
        assert mixed == cls(*values)

    def test_bad_arguments(self, cls, names, values, last):
        twin = _twin(cls, names)
        required = 6 if cls is SolveResult else len(names)
        for make in (cls, twin):
            with pytest.raises(TypeError):
                make(*values[:required - 1])
            with pytest.raises(TypeError):
                make(*values, bogus=1)
            with pytest.raises(TypeError):
                make(*values, **{names[0]: values[0]})
            with pytest.raises(TypeError):
                make(*values, None)

    def test_frozen(self, cls, names, values, last):
        rec, other = cls(*values), _twin(cls, names)(*values)
        for obj in (rec, other):
            for name in (names[0], names[-1], "extra"):
                with pytest.raises(FrozenInstanceError) as got:
                    setattr(obj, name, values[0])
                assert isinstance(got.value, AttributeError)
                assert str(got.value) == f"cannot assign to field {name!r}"
            with pytest.raises(FrozenInstanceError) as got:
                delattr(obj, names[0])
            assert str(got.value) == f"cannot delete field {names[0]!r}"
        assert rec == cls(*values)

    def test_copy_pickle_and_match(self, cls, names, values, last):
        rec = cls(*values)
        for dup in (copy.copy(rec), copy.deepcopy(rec),
                    pickle.loads(pickle.dumps(rec))):
            assert dup == rec and type(dup) is cls
        match rec:
            case cls(first):
                assert first == values[0]
            case _:
                pytest.fail("positional class pattern did not match")


def test_solve_result_defaults():
    cls, names, values, _ = next(r for r in RECORDS if r[0] is SolveResult)
    twin = _twin(cls, names)
    rec = cls(*values[:6])
    assert rec.plateau_value is None and rec.voronoi_value is None
    assert repr(rec) == repr(twin(*values[:6]))
    late = cls(*values[:6], voronoi_value=F(1))
    assert (late.plateau_value, late.voronoi_value) == (None, F(1))
    assert repr(late) == repr(twin(*values[:6], voronoi_value=F(1)))


def test_records_of_two_classes_differ_on_equal_fields():
    values = ((F(0), F(0)), frozenset({1}))
    twins = [_twin(r[0], r[1]) for r in RECORDS if r[0] in (VdVertex, VdEdge)]
    assert twins[0](*values) != twins[1](*values)
    assert VdVertex(*values) != VdEdge(*values)
    assert Site(*values) != VdVertex(*values)


def test_records_keep_their_preconditions():
    origin = (F(0), F(0), F(0))
    with pytest.raises(PreconditionError):
        Box((F(0),), (F(0), F(1)))
    with pytest.raises(PreconditionError):
        Box((F(0), F(1)), (F(1), F(0)))
    with pytest.raises(PreconditionError):
        Shell(origin, F(1), F(2))
    with pytest.raises(PreconditionError):
        Shell(origin, F(1), F(-1))
    with pytest.raises(PreconditionError):
        Square(origin, F(1))
    with pytest.raises(PreconditionError):
        Square((F(0), F(0)), F(0))
    with pytest.raises(PreconditionError):
        Square((F(0), F(0)), radius=F(-1))
