import itertools

import pytest
from hypothesis import given, settings, strategies as st

import wsgap as w
from wsgap import fixtures as fx
from wsgap import maximals as mx
from wsgap.core import Box, box_tuples, reduce_to_region
from wsgap.maximals import family_contains, shift_vectors

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


class TestShiftVectors:
    @settings(max_examples=150, deadline=None)
    @given(lo=st.lists(st.integers(-3, 3), min_size=0, max_size=4),
           cap=st.integers(-4, 8))
    def test_matches_product_filter(self, lo, cap):
        # no entry can exceed its own bound by more than the slack
        slack = cap - sum(lo)
        expected = [d for d in itertools.product(*(range(l, l + slack + 1) for l in lo))
                    if sum(d) <= cap]
        got = list(shift_vectors(lo, cap))
        assert got == expected  # same vectors, in lexicographic order
        if cap < sum(lo):
            assert got == []

    def test_no_parts(self):
        assert list(shift_vectors((), 0)) == [()]
        assert list(shift_vectors((), -1)) == []


def brute_force_expand(ms, box):
    """Independent oracle: scan the whole box and keep lattice translates
    of the representatives, recognized through canonical reduction."""
    reps = set(ms.region_reps)
    return tuple(t for t in box_tuples(box)
                 if reduce_to_region(ms.params, t)[0] in reps)


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
