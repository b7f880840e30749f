import itertools
import operator

import pytest
from hypothesis import given, settings, strategies as st

import wsgap as w
from wsgap import fixtures as fx
from wsgap import maximals as mx
from wsgap.core import Box
from wsgap.maximals import family_contains

POOL = [w.curve_params(a, b, m) for a, b, m in
        [(2, 3, 2), (3, 4, 3), (4, 5, 2), (4, 5, 3), (4, 7, 3), (5, 9, 4), (2, 5, 3)]]


class TestRegionFamilies:
    def test_absolute_4_5_3(self):
        ms = w.absolute_maximals_region(w.curve_params(4, 5, 3))
        assert set(ms.region_reps) == {(0, 0, 0), (6, 1, 1), (2, 2, 2),
                                       (-2, 3, 3), (-6, 4, 4)}

    def test_absolute_4_7_3(self):
        ms = w.absolute_maximals_region(w.curve_params(4, 7, 3))
        assert set(ms.region_reps) == {(0, 0, 0), (10, 1, 1), (6, 2, 2), (2, 3, 3),
                                       (-2, 4, 4), (-6, 5, 5), (-10, 6, 6)}

    def test_absolute_4_5_2(self):
        ms = w.absolute_maximals_region(w.curve_params(4, 5, 2))
        assert set(ms.region_reps) == {(0, 0), (11, 1), (7, 2), (3, 3), (-1, 4)}

    def test_relative_4_5_3(self):
        ms = w.relative_maximals_region(w.curve_params(4, 5, 3))
        assert set(ms.region_reps) == {(5, 0, 0), (11, 1, 1), (7, 2, 2),
                                       (3, 3, 3), (-1, 4, 4)}

    def test_relative_4_7_3(self):
        ms = w.relative_maximals_region(w.curve_params(4, 7, 3))
        assert set(ms.region_reps) == {(7, 0, 0), (17, 1, 1), (13, 2, 2), (9, 3, 3),
                                       (5, 4, 4), (1, 5, 5), (-3, 6, 6)}

    def test_relative_4_5_2_coincides_with_absolute(self):
        p = w.curve_params(4, 5, 2)
        assert w.relative_maximals_region(p).region_reps == \
            w.absolute_maximals_region(p).region_reps

    @pytest.mark.parametrize("p", POOL, ids=str)
    def test_cardinality_is_b(self, p):
        assert len(w.absolute_maximals_region(p).region_reps) == p.b
        assert len(w.relative_maximals_region(p).region_reps) == p.b

    def test_needs_two_points(self):
        p = w.curve_params(4, 5, 1)
        with pytest.raises(w.BadPointCountError):
            w.absolute_maximals_region(p)
        with pytest.raises(w.BadPointCountError):
            w.relative_maximals_region(p)


class TestTranslates:
    """``translates`` against a product over a box of shifts, filtered on
    the tuples.  On a bounded side each coordinate pins its shift; the
    open side lies within (sum|rep| + sum|bound|)/b of it, as every
    translate keeps the coordinate sum of ``rep``."""

    @staticmethod
    def reference(p, rep, lo, hi):
        b = p.b
        span = (sum(map(abs, rep)) + sum(map(abs, lo or hi))) // b + 1
        ranges = []
        for j in range(1, p.m):
            least = None if lo is None else -((rep[j] - lo[j]) // b)
            most = None if hi is None else (hi[j] - rep[j]) // b
            ranges.append(range(most - span if least is None else least,
                                (least + span if most is None else most) + 1))
        out = []
        for d in itertools.product(*ranges):  # lexicographic shift order
            t = tuple(map(operator.add, rep, w.theta_vector(p, d)))
            if (lo is None or all(map(operator.le, lo, t))) and \
                    (hi is None or all(map(operator.le, t, hi))):
                out.append(t)
        return out

    @settings(max_examples=300, deadline=None)
    @given(data=st.data(), b=st.integers(2, 5), m=st.integers(2, 4),
           sides=st.sampled_from(["box", "floor", "ceiling"]))
    def test_matches_shift_box_filter(self, data, b, m, sides):
        p = w.curve_params(b + 1, b, m)
        rep = (data.draw(st.integers(-15, 15)),
               *data.draw(st.lists(st.integers(-6, 6), min_size=m - 1, max_size=m - 1)))
        corner = tuple(data.draw(st.lists(st.integers(-5, 5), min_size=m, max_size=m)))
        if sides == "box":  # a width of -1 leaves the window empty
            widths = data.draw(st.lists(st.integers(-1, 9), min_size=m, max_size=m))
            lo, hi = corner, tuple(map(operator.add, corner, widths))
        else:
            lo, hi = (corner, None) if sides == "floor" else (None, corner)
        assert list(mx.translates(p, rep, lo, hi)) == self.reference(p, rep, lo, hi)

    def test_empty_windows(self):
        p = w.curve_params(5, 4, 3)
        rep = (6, 1, 1)
        # every translate sums to 8, so a floor summing above it or a
        # ceiling summing below it leaves nothing
        assert list(mx.translates(p, rep, (7, 1, 1), None)) == []
        assert list(mx.translates(p, rep, None, (-11, 9, 9))) == []
        assert list(mx.translates(p, rep, None, (-10, 9, 9))) == [(-10, 9, 9)]
        assert list(mx.translates(p, rep, (0, 2, 2), (20, 4, 4))) == []  # no shift fits between
        assert list(mx.translates(p, rep, (0, 1, 1), (0, 9, 9))) == []  # the sum misses the window
        assert list(mx.translates(p, rep, (6, 1, 1), (6, 1, 1))) == [rep]

    @pytest.mark.parametrize("p", POOL + [w.curve_params(3, 4, 4)], ids=str)
    def test_families_never_repeat_a_translate(self, p):
        """Distinct shifts give distinct translates, and a family's
        representatives differ in residue at coordinate 2, so the
        expansions, ``lambda_nonneg`` and the oracle's enumeration sort
        the walk's output without a set pass."""
        m, n = p.m, 2 * p.genus
        windows = [((-(p.b + 1),) * m, (n,) * m), ((0,) * m, None), (None, (n,) * m)]
        for ms in (mx.absolute_maximals_region(p), mx.relative_maximals_region(p)):
            for lo, hi in windows:
                ts = [t for rep in ms.region_reps for t in mx.translates(p, rep, lo, hi)]
                assert ts and len(ts) == len(set(ts)), (ms.kind, lo, hi)

    def test_lexicographic_order(self):
        p = w.curve_params(3, 2, 3)
        got = list(mx.translates(p, (4, 0, 0), (0, 0, 0), None))
        assert got == [(4, 0, 0), (2, 0, 2), (0, 0, 4), (2, 2, 0), (0, 2, 2), (0, 4, 0)]


def brute_force_expand(ms, box):
    """Independent oracle: a tuple is a lattice translate of a
    representative iff its residues mod b at coordinates 2..m and its
    coordinate sum match that representative's.  So each choice of
    coordinates 2..m in the box leaves one first coordinate per matching
    representative, kept when it lies in the box."""
    b = ms.params.b
    sums = {}
    for r in ms.region_reps:
        sums.setdefault(tuple(c % b for c in r[1:]), []).append(sum(r))
    out = []
    for rest in itertools.product(*(range(l, h + 1) for l, h in zip(box.lo[1:], box.hi[1:]))):
        for total in sums.get(tuple(c % b for c in rest), ()):
            first = total - sum(rest)
            if box.lo[0] <= first <= box.hi[0]:
                out.append((first, *rest))
    return out


class TestExpansion:
    def test_box_positive_4_5_3_matches_reference(self):
        p = w.curve_params(4, 5, 3)
        ms = w.relative_maximals_region(p)
        box = Box(lo=(1, 1, 1), hi=(11, 11, 11))
        assert w.expand_in_box(ms, box) == tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_453))

    def test_box_positive_4_7_3_matches_reference(self):
        p = w.curve_params(4, 7, 3)
        ms = w.relative_maximals_region(p)
        box = Box(lo=(1, 1, 1), hi=(17, 17, 17))
        assert w.expand_in_box(ms, box) == tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_473))

    def test_empty_box_intersection(self):
        p = w.curve_params(4, 5, 3)
        ms = w.relative_maximals_region(p)
        assert w.expand_in_box(ms, Box(lo=(-30, -30, -30), hi=(-25, -25, -25))) == ()

    @pytest.mark.parametrize("p", POOL, ids=str)
    @pytest.mark.parametrize("kind", ["absolute", "relative"])
    def test_expand_matches_brute_force(self, p, kind):
        ms = (w.absolute_maximals_region(p) if kind == "absolute"
              else w.relative_maximals_region(p))
        box = Box(lo=(-p.b,) * p.m, hi=(2 * p.genus,) * p.m)
        assert w.expand_in_box(ms, box) == tuple(sorted(brute_force_expand(ms, box)))

    def test_box_symmetric_in_later_coordinates(self):
        p = w.curve_params(4, 5, 3)
        ms = w.relative_maximals_region(p)
        asym = Box(lo=(0, 1, 2), hi=(11, 7, 9))
        swapped = Box(lo=(0, 2, 1), hi=(11, 9, 7))
        got = {(t[0], t[2], t[1]) for t in w.expand_in_box(ms, asym)}
        assert got == set(w.expand_in_box(ms, swapped))

    @pytest.mark.parametrize("p", POOL, ids=str)
    def test_positive_and_nonneg_match_closed_formula(self, p):
        rel = w.relative_maximals_region(p)
        assert w.expand_positive(rel) == w.lambda_nonneg(p)
        assert w.expand_nonneg(rel) == w.lambda_nonneg(p, include_zero_family=True)

    def test_expand_wrong_dimension(self):
        p = w.curve_params(4, 5, 3)
        ms = w.relative_maximals_region(p)
        with pytest.raises(ValueError):
            w.expand_in_box(ms, Box(lo=(0, 0), hi=(1, 1)))


class TestLambdaNonneg:
    def test_4_5_3(self):
        assert w.lambda_nonneg(w.curve_params(4, 5, 3)) == \
            tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_453))

    def test_4_7_3(self):
        assert w.lambda_nonneg(w.curve_params(4, 7, 3)) == \
            tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_473))

    def test_4_5_2_has_genus_many(self):
        got = w.lambda_nonneg(w.curve_params(4, 5, 2))
        assert set(got) == {(11, 1), (6, 6), (1, 11), (7, 2), (2, 7), (3, 3)}
        assert len(got) == 6

    def test_one_cache_entry_per_result(self):
        p = w.curve_params(4, 5, 3)
        mx._lambda_nonneg.cache_clear()
        assert w.lambda_nonneg(p) == w.lambda_nonneg(p, False) == \
            w.lambda_nonneg(p, include_zero_family=False)
        assert mx._lambda_nonneg.cache_info().currsize == 1

    def test_zero_family_4_5_3(self):
        # the zero tuple itself is absolute maximal at three points, so the
        # nonnegative zero-family translates stop at single b entries
        p = w.curve_params(4, 5, 3)
        extra = set(w.lambda_nonneg(p, include_zero_family=True)) - set(w.lambda_nonneg(p))
        assert extra == {(5, 0, 0), (0, 5, 0), (0, 0, 5)}

    def test_zero_family_m2_is_origin(self):
        p = w.curve_params(4, 5, 2)
        extra = set(w.lambda_nonneg(p, include_zero_family=True)) - set(w.lambda_nonneg(p))
        assert extra == {(0, 0)}

    @pytest.mark.parametrize("p", POOL, ids=str)
    def test_later_coordinates_share_residue(self, p):
        for t in w.lambda_nonneg(p):
            residues = {c % p.b for c in t[1:]}
            assert len(residues) == 1

    @pytest.mark.parametrize("p", POOL, ids=str)
    def test_all_strictly_positive(self, p):
        assert all(min(t) >= 1 for t in w.lambda_nonneg(p))

    def test_family_contains(self):
        p = w.curve_params(4, 5, 3)
        rel = w.relative_maximals_region(p)
        assert family_contains(rel, (1, 6, 6))
        assert family_contains(rel, (16, 1, -4))
        assert not family_contains(rel, (1, 1, 1))
