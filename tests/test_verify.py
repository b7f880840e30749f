import collections
import hashlib
import itertools
import os
import random
import threading
import tracemalloc
import types

import pytest

import wsgap as w
from wsgap import maximals as mx
from wsgap import core, oracle, verify
from wsgap.core import Box


class TestFixtures:
    def test_corpus_passes(self):
        report = w.run_fixtures()
        assert report.ok, [e.name for e in report.failures()]
        assert len(report.entries) == 15

    def test_corpus_covers_reference_content(self):
        kinds = {}
        for f in w.builtin_fixtures():
            kinds.setdefault(f.kind, []).append(f)
        assert len(kinds["relative_maximals"]) == 2
        assert len(kinds["pure_gaps"]) == 2
        assert len(kinds["nabla_set"]) == 10
        assert len(kinds["witnesses"]) == 1

    def test_corrupted_fixture_fails_with_diff(self):
        base = next(f for f in w.builtin_fixtures()
                    if f.name == "hermitian-q4-relmax")
        corrupted = tuple(sorted(base.expected[:-1] + ((9, 9, 9),)))
        bad = w.Fixture(base.name, base.params, base.kind, corrupted, base.source, base.arg)
        report = w.run_fixtures([bad])
        assert not report.ok
        failure = report.failures()[0]
        assert "(9, 9, 9)" in failure.detail
        assert "(11, 1, 1)" in failure.detail  # the dropped tuple shows as extra

    def test_fixture_timing_recorded(self):
        report = w.run_fixtures()
        assert all(e.ms >= 0 for e in report.entries)


class TestSweep:
    def test_cell_enumeration(self):
        cells = w.sweep_cells()
        assert len(cells) == 56
        assert all(2 <= p.m <= min(4, p.a + 1) for p in cells)
        specs = {(p.a, p.b) for p in cells}
        assert (2, 4) not in specs  # non-coprime pairs skipped
        assert (4, 6) not in specs

    def test_tiny_sweep_passes(self):
        report = w.run_property_sweep(max_a=2, max_b=3, max_m=2)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]

    def test_check_filter(self):
        report = w.run_property_sweep(max_a=2, max_b=3, max_m=2,
                                      checks=("gap-methods",))
        assert report.ok
        assert all("gap-methods" in e.name or e.name == "sweep-coverage"
                   for e in report.entries)

    def test_coverage_notes_skipped_pairs(self):
        report = w.run_property_sweep(max_a=2, max_b=4, max_m=2,
                                      checks=("gap-methods",))
        note = next(e for e in report.entries if e.name == "sweep-coverage")
        assert "(2, 4)" in note.detail

    def test_results_carry_their_own_time(self, monkeypatch):
        """Each result of a multi-result check is stamped with the time
        spent on it, not an even share of the check's time."""
        now = [0.0]
        monkeypatch.setattr(verify, "time", types.SimpleNamespace(perf_counter=lambda: now[0]))
        seconds = {"union_nabla": 1.0, "explicit_s": 2.0}
        real_gaps, real_route = verify.gs.gaps, verify.gs._route_walk

        def slow_gaps(p):
            now[0] += 10.0
            return real_gaps(p)

        def slow_route(p, method, include_zero_family):
            now[0] += seconds[method]
            return real_route(p, method, include_zero_family)

        monkeypatch.setattr(verify.gs, "gaps", slow_gaps)
        monkeypatch.setattr(verify.gs, "_route_walk", slow_route)
        report = w.run_property_sweep(max_a=2, max_b=3, max_m=2, checks=("gap-methods",))
        ms = {e.name: e.ms for e in report.entries}
        # the shared kernel is charged to the first result
        assert ms["a2-b3-m2:gap-methods-agree:union_nabla"] == 11000.0
        assert ms["a2-b3-m2:gap-methods-agree:explicit_s"] == 2000.0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            w.run_property_sweep(checks=("no-such-check",))


class TestOracleInvariants:
    def test_small_battery_passes(self):
        report = w.run_oracle_invariants(max_a=3, max_b=5, max_m=3, trials=100)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]

    @pytest.mark.parametrize("trials", [0, -3])
    def test_no_trial_rejected_before_any_work(self, monkeypatch, trials):
        def no_work(*args):
            raise AssertionError("work started")

        monkeypatch.setattr(verify, "_run_cells", no_work)
        monkeypatch.setattr(verify, "_Stamps", no_work)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            w.run_oracle_invariants(max_a=3, max_b=4, max_m=2, trials=trials)
        with pytest.raises(ValueError, match="trials must be at least 1"):
            verify.oracle_invariants(w.curve_params(3, 4, 2), trials, verify.DEFAULT_SEED)


class TestDefinitionLevel:
    @pytest.mark.parametrize("spec", [(4, 5, 3), (4, 5, 2), (3, 4, 3)])
    def test_families_reclassified(self, spec):
        report = w.check_definition_level(w.curve_params(*spec), sample_size=20)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]
        assert len(report.entries) == 3

    def test_deterministic(self):
        p = w.curve_params(3, 4, 3)
        a = w.check_definition_level(p, sample_size=10)
        b = w.check_definition_level(p, sample_size=10)
        assert [e.name for e in a.entries] == [e.name for e in b.entries]
        assert [e.passed for e in a.entries] == [e.passed for e in b.entries]


def _two_predicate_kinds(p, alpha, method):
    """(absolute, relative) from two separate walks over the big J, one
    per predicate: the reference ``oracle._maximal_kinds`` must match."""
    if oracle._maximal(p, alpha, method) is None:
        return False, False
    Js = [J for size in range(2, p.m) for J in itertools.combinations(range(1, p.m + 1), size)]
    return (all(oracle._nabla_empty(p, alpha, J, method) for J in Js),
            not any(oracle._nabla_empty(p, alpha, J, method) for J in Js))


def _c8_cells():
    """The cells C8 reclassifies on the search route, with the edge
    cells (4, 5, 2) and (3, 4, 4) (m = a + 1)."""
    cells = {}
    for p in [w.curve_params(4, 5, 3), w.curve_params(4, 5, 2), w.curve_params(4, 7, 3),
              w.curve_params(3, 4, 4), *verify.sweep_cells()]:
        box = Box(lo=(-(p.b + 1),) * p.m, hi=(2 * p.genus,) * p.m)
        if box.cell_count() <= 250_000:
            cells.setdefault((p.a, p.b, p.m), pytest.param(p, box, id=f"a{p.a}-b{p.b}-m{p.m}"))
    return list(cells.values())


class TestMaximalKinds:
    @pytest.mark.parametrize("p,box", _c8_cells())
    def test_matches_the_two_predicates(self, p, box):
        """On both families in the box, and on seeded members and tuples
        of the box, on both routes."""
        rng = random.Random(p.a * 100 + p.b * 10 + p.m)
        reps = verify._member_reps(p)
        tuples = [*mx.expand_in_box(mx.relative_maximals_region(p), box),
                  *mx.expand_in_box(mx.absolute_maximals_region(p), box)]
        tuples += [t for t in (verify._random_member(rng, p, reps) for _ in range(20))
                   if t in box]
        tuples += [tuple(rng.randint(lo, hi) for lo, hi in zip(box.lo, box.hi))
                   for _ in range(20)]
        for method in ("profile", "search"):
            got = [oracle._maximal_kinds(p, t, method) for t in tuples]
            assert got == [_two_predicate_kinds(p, t, method) for t in tuples]
            assert any(kinds != (False, False) for kinds in got)

    @pytest.mark.parametrize("fault,failing", [
        # a swap leaves (False, False) as it is: the sample of members
        # outside both families cannot see it
        (lambda kinds: kinds[::-1], {"formula-classification", "definition-level-relative",
                                     "definition-level-absolute"}),
        (lambda kinds: (not kinds[0], not kinds[1]),
         {"formula-classification", "definition-level-relative", "definition-level-absolute",
          "definition-level-nonmaximal-sample"}),
    ], ids=["swap", "negate"])
    def test_reclassification_catches_a_faulty_classifier(self, monkeypatch, fault, failing):
        p = w.curve_params(4, 5, 3)
        real = oracle._maximal_kinds
        monkeypatch.setattr(oracle, "_maximal_kinds", lambda *args: fault(real(*args)))
        results = [*verify.PROPERTY_CHECKS["formula-classification"](p),
                   *w.check_definition_level(p, sample_size=20).entries]
        assert {e.name.split(":")[1] for e in results if not e.passed} == failing
        assert all("classified (absolute, relative) = " in e.detail
                   for e in results if not e.passed)

    def test_formula_classification_reaches_outside_members(self, monkeypatch):
        """Every default sweep cell classifies members outside both
        families, the smallest curves included, where every lub drawn
        from the family pool is a family element."""
        seen = {}
        real = verify._reclassify

        def recording(p, method, relatives, absolutes, others):
            seen[p] = others = list(others)
            return real(p, method, relatives, absolutes, others)

        monkeypatch.setattr(verify, "_reclassify", recording)
        for p in verify.sweep_cells():
            [result] = verify.PROPERTY_CHECKS["formula-classification"](p)
            assert result.passed, result.detail
            assert 1 <= len(seen[p]) <= 12
            assert not any(mx.family_contains(region(p), t) for t in seen[p]
                           for region in (mx.relative_maximals_region,
                                          mx.absolute_maximals_region))


class TestReport:
    def test_payload_shape(self):
        report = w.run_property_sweep(max_a=2, max_b=3, max_m=2,
                                      checks=("gap-methods",))
        payload = report.to_payload()
        assert payload["ok"] is True
        assert payload["total"] == payload["passed"] + payload["failed"]
        assert all({"name", "kind", "passed", "detail", "ms"} <= set(c)
                   for c in payload["checks"])

    def test_extend_merges(self):
        a = w.run_fixtures()
        total = len(a.entries)
        b = w.run_property_sweep(max_a=2, max_b=3, max_m=2, checks=("sigma",))
        merged = verify.ConformanceReport().extend(a).extend(b)
        assert len(merged.entries) == total + len(b.entries)


def test_default_sweep_soft_budget():
    import time
    t0 = time.perf_counter()
    report = w.run_property_sweep()
    elapsed = time.perf_counter() - t0
    assert report.ok
    assert elapsed < 180  # soft 60s budget with a generous multiplier


def test_axis_sets_match_the_tuple_scan():
    """One pass over the rows finds the axis values that a scan of every
    gap tuple finds: on sweep cells, and on rows with negative, repeated
    and off-axis tuples."""
    def scan(tuples, m, k):
        return tuple(sorted({t[k] for t in tuples if t[k] > 0 and t.count(0) == m - 1}))

    cases = [(p.m, w.gaps(p).gap_rows) for p in w.sweep_cells(4, 7, 4)]
    odd = ((0, 0, -1), (0, 0, 3), (0, 0, 3), (0, 2, 0), (0, 2, 1), (0, -2, 0),
           (0, 3, 1), (1, 1, 0), (5, 0, 0), (-1, 0, 0), (5, 0, 0), (0, 0, 0), (0, 4, 0))
    cases.append((3, w.TupleRows.of(odd)))
    for m, rows in cases:
        assert verify._axis_sets(rows, m) == [scan(rows.tuples, m, k) for k in range(m)]


def _with_rows(report, gap_rows=None, pure_rows=None):
    """The gap report with its gap or pure-gap rows replaced, built
    through the constructor, so its subset check runs on the new rows."""
    return w.GapReport(report.params,
                       report.gap_rows if gap_rows is None else gap_rows,
                       report.pure_rows if pure_rows is None else pure_rows,
                       report.method, report.stats)


class TestChecksCatchFaults:
    """Corrupted gap reports make each rewritten check fail with its detail."""

    CELLS = w.sweep_cells(3, 4, 3)

    @staticmethod
    def _patch(monkeypatch, name, corrupt):
        real = getattr(verify.gs, name)

        def corrupted(p, *args, **kwargs):
            return corrupt(real(p, *args, **kwargs))

        monkeypatch.setattr(verify.gs, name, corrupted)

    def _results(self, check, result_name):
        """(cell, result) of one named result on every cell of a small sweep."""
        report = w.run_property_sweep(max_a=3, max_b=4, max_m=3, checks=(check,))
        by_name = {e.name: e for e in report.entries}
        return [(p, by_name[f"a{p.a}-b{p.b}-m{p.m}:{result_name}"]) for p in self.CELLS]

    def test_symmetry_catches_unpermuted_gap(self, monkeypatch):
        # (0, B + 1, 0, ...) is no gap, and swapping the later coordinates
        # moves it to a tuple that is absent
        def add_gap(report):
            m, B = report.params.m, 2 * report.params.genus - 1
            extra = (0, B + 1) + (0,) * (m - 2)
            return _with_rows(report, gap_rows=w.TupleRows.of(report.gaps + (extra,)))

        self._patch(monkeypatch, "gaps", add_gap)
        for p, e in self._results("symmetry", "coordinate-symmetry"):
            if p.m == 2:
                assert e.passed  # the identity is the only permutation
            else:
                assert not e.passed
                assert e.detail == "gap set moved by permutation (0, 2, 1)"

    def test_axis_gaps_catch_dropped_axis_gap(self, monkeypatch):
        def drop_axis_gap(report):
            first = (0, 1) + (0,) * (report.params.m - 2)
            assert first in report.gaps  # 1 is a gap at every point
            return _with_rows(
                report, gap_rows=w.TupleRows.of(t for t in report.gaps if t != first))

        self._patch(monkeypatch, "gaps", drop_axis_gap)
        for p, e in self._results("axis-gaps", "axis-gaps-coordinate-2"):
            assert not e.passed
            assert e.detail == f"{p.genus - 1} axis gaps, genus is {p.genus}"

    @pytest.mark.parametrize("p", [w.curve_params(3, 4, 2), w.curve_params(4, 5, 3),
                                   w.hermitian_params(5, 4)], ids=str)
    def test_superset_catches_dropped_candidate(self, monkeypatch, p):
        # drop the smallest value of A: every pure gap using it past the
        # first coordinate is an outlier, and the first 8 are named in order
        real = verify.gs.candidate_superset
        a_star, a_set = real(p)
        outliers = [t for t in w.pure_gaps(p).pure_gaps if a_set[0] in t[1:]]
        assert outliers
        monkeypatch.setattr(verify.gs, "candidate_superset", lambda p: (a_star, a_set[1:]))
        (e,) = verify.PROPERTY_CHECKS["superset"](p)
        assert not e.passed
        assert e.detail == f"outliers={outliers[:8]}"

    def test_witnesses_catch_dropped_pure_gap(self, monkeypatch):
        pure = {p: w.pure_gaps(p).pure_gaps for p in self.CELLS}
        assert any(pure.values())

        def drop_pure_gap(report):
            return _with_rows(report, pure_rows=w.TupleRows.of(report.pure_gaps[1:]))

        self._patch(monkeypatch, "pure_gaps", drop_pure_gap)
        for p, e in self._results("witnesses", "witness-coherence"):
            if pure[p]:
                assert not e.passed
                assert e.detail == f"witness found for non-pure gap {pure[p][0]}"
            else:
                assert e.passed

    def test_witnesses_catch_dropped_last_pure_gap(self, monkeypatch):
        # past the last pure gap the merge still finds the walk's tuple
        pure = {p: w.pure_gaps(p).pure_gaps for p in self.CELLS}

        def drop_pure_gap(report):
            return _with_rows(report, pure_rows=w.TupleRows.of(report.pure_gaps[:-1]))

        self._patch(monkeypatch, "pure_gaps", drop_pure_gap)
        for p, e in self._results("witnesses", "witness-coherence"):
            if pure[p]:
                assert not e.passed
                assert e.detail == f"witness found for non-pure gap {pure[p][-1]}"
            else:
                assert e.passed

    def test_witnesses_catch_added_plain_gap(self, monkeypatch):
        # the first gap that is no pure gap, listed as one
        plain = {}
        for p in self.CELLS:
            report = w.gaps(p)
            plain[p] = next(t for t in report.gaps if t not in report.pure_gaps)

        def add_plain_gap(report):
            pure = sorted(report.pure_gaps + (plain[report.params],))
            return _with_rows(report, pure_rows=w.TupleRows.of(pure))

        self._patch(monkeypatch, "pure_gaps", add_plain_gap)
        for p, e in self._results("witnesses", "witness-coherence"):
            assert not e.passed
            assert e.detail == f"no witness for pure gap {plain[p]}"


class TestFastPathFaults:
    """The shared routes, the row comparison, the symmetry generators and
    the sortedness test fail with the details of the checks they replace."""

    @staticmethod
    def _results(check, result_name, max_m=3):
        report = w.run_property_sweep(max_a=3, max_b=4, max_m=max_m, checks=(check,))
        by_name = {e.name: e for e in report.entries}
        return [(p, by_name[f"a{p.a}-b{p.b}-m{p.m}:{result_name}"])
                for p in w.sweep_cells(3, 4, max_m)]

    @staticmethod
    def _patch_route(monkeypatch, corrupt):
        """Make every route walk the rows ``corrupt`` returns, given the
        route's rows held."""
        real = verify.gs._route_walk

        def route(p, method, include_zero_family):
            held = list(real(p, method, include_zero_family))
            rows = w.TupleRows([prefix for prefix, _ in held], [lasts for _, lasts in held])
            return corrupt(p, method, include_zero_family, rows).rows()

        monkeypatch.setattr(verify.gs, "_route_walk", route)

    def test_gap_methods_catch_dropped_route_tuple(self, monkeypatch):
        # worked out here, since the sweep may run a cell in another process
        dropped = {}
        for p in w.sweep_cells(3, 4, 3):
            tuples = verify.gs._route_rows(p, "union_nabla", False).tuples
            dropped[p] = tuples[len(tuples) // 2]

        def drop_middle(p, method, include_zero_family, rows):
            if method != "union_nabla":
                return rows
            return w.TupleRows.of(t for t in rows.tuples if t != dropped[p])

        self._patch_route(monkeypatch, drop_middle)
        for p, e in self._results("gap-methods", "gap-methods-agree:union_nabla"):
            assert not e.passed
            assert e.detail == f"missing={[dropped[p]]} extra=[]"
        for p, e in self._results("gap-methods", "gap-methods-agree:explicit_s"):
            assert e.passed

    def test_fault_in_both_union_nabla_routes_fails_both_checks(self, monkeypatch):
        """The same tuple dropped from the union_nabla route with and
        without the zero family: gap-methods and zero-family each compare
        one of the two with the kernel, so both fail."""
        dropped = {}
        for p in w.sweep_cells(3, 4, 3):
            tuples = verify.gs._route_rows(p, "union_nabla", False).tuples
            dropped[p] = tuples[len(tuples) // 2]

        def drop_middle(p, method, include_zero_family, rows):
            if method != "union_nabla":
                return rows
            return w.TupleRows.of(t for t in rows.tuples if t != dropped[p])

        self._patch_route(monkeypatch, drop_middle)
        for check, name in (("gap-methods", "gap-methods-agree:union_nabla"),
                            ("zero-family", "zero-family-indifferent")):
            for p, e in self._results(check, name):
                assert not e.passed, e.name

    @pytest.mark.parametrize("route", ["union_nabla", "intersection"])
    def test_zero_family_catches_changed_route(self, monkeypatch, route):
        def drop_first(p, method, include_zero_family, rows):
            if method != route or not include_zero_family:
                return rows
            return w.TupleRows.of(rows.tuples[1:])

        self._patch_route(monkeypatch, drop_first)
        for p, e in self._results("zero-family", "zero-family-indifferent"):
            if route == "union_nabla" or w.pure_gaps(p).pure_gaps:
                assert not e.passed
                assert e.detail == "zero-family translates changed an output"
            else:
                assert e.passed

    def test_symmetry_names_first_permutation_when_only_the_swap_moves(self, monkeypatch):
        # the orbit of (0, x, y, z) under the cycle of coordinates 2..4 is
        # fixed by the cycle and moved by the swap; the full loop tries
        # the identity first, then (0, 1, 3, 2), which moves it
        def add_cycle_orbit(report):
            p = report.params
            if p.m != 4:
                return report
            x, y, z = (2 * p.genus + k for k in range(3))
            orbit = ((0, x, y, z), (0, y, z, x), (0, z, x, y))
            return _with_rows(report, gap_rows=w.TupleRows.of(report.gaps + orbit))

        TestChecksCatchFaults._patch(monkeypatch, "gaps", add_cycle_orbit)
        results = self._results("symmetry", "coordinate-symmetry", max_m=4)
        assert any(p.m == 4 for p, _ in results)
        for p, e in results:
            if p.m == 4:
                assert not e.passed
                assert e.detail == "gap set moved by permutation (0, 1, 3, 2)"
            else:
                assert e.passed

    @pytest.mark.parametrize("corrupt", ["unsorted", "duplicated"])
    def test_report_sanity_catches_unsorted_or_duplicated_gaps(self, monkeypatch, corrupt):
        def corrupted(report):
            gaps = list(report.gaps)
            if corrupt == "duplicated":
                gaps.insert(0, gaps[0])
            else:
                # swap two neighbours of one row, so every row keeps its prefix
                k = next((k for k in range(len(gaps) - 1) if gaps[k][:-1] == gaps[k + 1][:-1]),
                         None)
                if k is None:
                    return report
                gaps[k], gaps[k + 1] = gaps[k + 1], gaps[k]
            return _with_rows(report, gap_rows=w.TupleRows.of(gaps))

        TestChecksCatchFaults._patch(monkeypatch, "gaps", corrupted)
        results = self._results("report-sanity", "gap-report-sanity")
        assert any(p.genus > 1 for p, _ in results)
        for p, e in results:
            if corrupt == "duplicated" or p.genus > 1:  # genus 1 has no row of two gaps
                assert not e.passed
                assert e.detail == "gap list not sorted or not duplicate-free"
            else:
                assert e.passed

    def test_gap_methods_catch_a_route_split_over_one_prefix(self, monkeypatch):
        """A route that walks the right tuples but splits the first row of
        two or more over two rows of one prefix fails: rows are compared
        pair by pair, and the detail finds no tuple missing or extra."""
        def split_first_long_row(p, method, include_zero_family, rows):
            held = list(rows.rows())
            k = next((k for k, (_, lasts) in enumerate(held) if len(lasts) > 1), None)
            if method != "union_nabla" or k is None:
                return rows
            prefix, lasts = held[k]
            held[k:k + 1] = [(prefix, lasts[:1]), (prefix, lasts[1:])]
            return w.TupleRows([prefix for prefix, _ in held], [lasts for _, lasts in held])

        self._patch_route(monkeypatch, split_first_long_row)
        results = self._results("gap-methods", "gap-methods-agree:union_nabla")
        assert any(not e.passed for _, e in results)
        for p, e in results:
            if any(len(lasts) > 1 for _, lasts in w.gaps(p).gap_rows.rows()):
                assert not e.passed and e.detail == "missing=[] extra=[]"
            else:
                assert e.passed

    @pytest.mark.parametrize("check", ["gap-methods", "zero-family"])
    def test_route_checks_hold_no_route(self, check):
        """Comparing the routes with the kernel at Hermitian q = 7, m = 4,
        with the plan and the relative maximals cached, traces about
        0.4 MB at peak, against 1.7 MB while each route was held whole."""
        p = w.hermitian_params(7, 4)
        core.clear_curve_caches()
        verify.gs._plan(p)
        mx.lambda_nonneg(p, False)
        mx.lambda_nonneg(p, True)
        tracemalloc.start()
        try:
            assert all(r.passed for r in verify.PROPERTY_CHECKS[check](p))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
            core.clear_curve_caches()
        assert peak < 1e6

    def test_rows_split_over_one_prefix_compare_unequal(self):
        """Rows are compared pair by pair: the same tuples split over two
        rows of one prefix differ, as does a walk one row short or over."""
        whole = w.TupleRows.of([(0, 1), (0, 2), (0, 3), (1, 0)])
        split = w.TupleRows([(0,), (0,), (1,)], [(1,), (2, 3), (0,)])
        assert split.tuples == whole.tuples
        assert verify._same_rows(whole.rows(), whole)
        assert not verify._same_rows(split.rows(), whole)
        assert not verify._same_rows(whole.rows(), split)
        assert not verify._same_rows(iter(list(whole.rows())[:-1]), whole)
        assert not verify._same_rows(itertools.chain(whole.rows(), [((2,), (0,))]), whole)


def test_sweep_builds_each_route_once_per_cell(monkeypatch):
    """Per cell, the union_nabla gaps with and without the zero family,
    the explicit_s gaps, and the intersection pure gaps with and without
    it: three cube builds and two witness walks, each route built by the
    one check that reads it, and one more walk for the witness check."""
    calls = collections.Counter()
    for name in ("_cube_rows", "_witness_walk"):
        real = getattr(verify.gs, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify.gs, name, counted)
    cells = w.sweep_cells(3, 4, 3)
    # cell by cell in this process, where the counts are kept, as the
    # sweep runs each cell in one process
    for p in cells:
        for check in verify.PROPERTY_CHECKS.values():
            assert all(r.passed for r in check(p))
    assert calls == {"_cube_rows": 3 * len(cells), "_witness_walk": 3 * len(cells)}


def _cache_sizes():
    return {f.__name__: f.cache_info().currsize for f in core.CURVE_CACHES}


def _while_a_thread_runs(fn):
    """``fn()`` while another thread is alive, so the sweep forks nothing."""
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        return fn()
    finally:
        stop.set()
        thread.join(timeout=10)
        assert not thread.is_alive()


def test_sweep_leaves_every_curve_cache_empty():
    """Each cell's cache entries are dropped once the cell is done, in
    the caller, which runs every cell itself while another thread runs."""
    assert _while_a_thread_runs(lambda: w.run_property_sweep(3, 4, 3).ok)
    assert _while_a_thread_runs(lambda: w.run_oracle_invariants(3, 4, 3, trials=5).ok)
    assert _cache_sizes() == {name: 0 for name in _cache_sizes()}


@pytest.mark.parametrize("cpus", [1, 3])
def test_sweep_never_fills_the_callers_caches(monkeypatch, cpus):
    """The forked children run every cell, so the caller's per-curve
    caches, emptied first, are empty whenever a cell is done and after
    the sweep."""
    parent, seen = os.getpid(), []

    def clear():
        if os.getpid() == parent:
            seen.append(_cache_sizes())
        core.clear_curve_caches()

    monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
    monkeypatch.setattr(verify, "clear_curve_caches", clear)
    core.clear_curve_caches()
    assert w.run_property_sweep(3, 4, 3).ok
    assert w.run_oracle_invariants(3, 4, 3, trials=5).ok
    empty = {name: 0 for name in _cache_sizes()}
    assert all(sizes == empty for sizes in seen) and _cache_sizes() == empty


def test_each_cell_starts_with_empty_caches(monkeypatch):
    """No cell reads another cell's entries: every cell, in the caller or
    in a forked child, begins with every per-curve cache empty."""
    def sizes(p):
        filled = [f.__name__ for f in core.CURVE_CACHES if f.cache_info().currsize]
        w.gaps(p)  # fill some, for the next cell to find
        return [verify.CheckResult(f"a{p.a}-b{p.b}-m{p.m}:empty", "property", not filled,
                                   " ".join(filled))]

    monkeypatch.setitem(verify.PROPERTY_CHECKS, "empty", sizes)
    core.clear_curve_caches()
    report = w.run_property_sweep(max_a=4, max_b=5, max_m=3, checks=("empty",))
    assert report.ok, report.failures()


def _symmetry_by_tuples(m, gaps, pure):
    """The coordinate-symmetry result by its definition: every
    permutation of coordinates 2..m applied to every tuple."""
    gap_set, pure_set = set(gaps), set(pure)
    for perm_tail in itertools.islice(itertools.permutations(range(1, m)), 1, None):
        perm = (0,) + perm_tail
        if verify._moves(perm, gap_set):
            return False, f"gap set moved by permutation {perm}"
        if verify._moves(perm, pure_set):
            return False, f"pure-gap set moved by permutation {perm}"
    return True, ""


def _sanity_by_tuples(p, gaps):
    """The gap-report-sanity result as the check read every gap tuple."""
    B = 2 * p.genus - 1
    if not all(a < b for a, b in zip(gaps, gaps[1:])):
        return False, "gap list not sorted or not duplicate-free"
    if any(min(t) < 0 or sum(t) > B for t in gaps):
        return False, "gap outside the bounding simplex"
    gap_set = set(gaps)
    rng = random.Random(verify._mix_seed(verify.DEFAULT_SEED, p.a, p.b, p.m, 2))
    for _ in range(50):
        t = tuple(rng.randrange(B + 1) for _ in range(p.m))
        if sum(t) <= B and (t in gap_set) == w.is_member(p, t):
            return False, f"grid and oracle disagree on {t}"
    return True, ""


def _row_checks(monkeypatch, p, gap_rows, pure_rows):
    """(passed, detail) of coordinate-symmetry and gap-report-sanity on
    ``p`` when its gap report carries the given rows."""
    report = types.SimpleNamespace(gap_rows=gap_rows, pure_rows=pure_rows,
                                   gaps=gap_rows.tuples, pure_gaps=pure_rows.tuples)
    with monkeypatch.context() as patch:
        patch.setattr(verify.gs, "gaps", lambda params: report)
        return [(e.passed, e.detail)
                for e in verify._check_symmetry(p) + verify._check_report_sanity(p)]


def _by_tuples(p, gap_rows, pure_rows):
    return [_symmetry_by_tuples(p.m, gap_rows.tuples, pure_rows.tuples),
            _sanity_by_tuples(p, gap_rows.tuples)]


class TestRowChecks:
    """coordinate-symmetry and gap-report-sanity read rows, and give the
    results and details of the checks that read every tuple."""

    def test_sweep_cells_match_the_tuple_checks(self, monkeypatch):
        for p in w.sweep_cells():
            report = w.gaps(p)
            got = _row_checks(monkeypatch, p, report.gap_rows, report.pure_rows)
            assert got == _by_tuples(p, report.gap_rows, report.pure_rows) == [(True, "")] * 2

    @staticmethod
    def _variants(p):
        """Hand-made gap rows of ``p``: each a name, gap rows and pure rows."""
        report = w.gaps(p)
        gaps, pure = list(report.gaps), list(report.pure_gaps)
        rows = list(report.gap_rows.rows())
        k = next(k for k, (_, lasts) in enumerate(rows) if len(lasts) >= 3)
        prefix, lasts = rows[k]
        B, m = 2 * p.genus - 1, p.m
        outside = (0, B + 1) + (0,) * (m - 2)
        orbit = sorted({(0, *perm) for perm in itertools.permutations((B + 1,) + (0,) * (m - 2))})
        negative = sorted({(0, *perm) for perm in itertools.permutations((-1,) + (0,) * (m - 2))})
        of = w.TupleRows.of
        yield "as-is", report.gap_rows, report.pure_rows
        yield "unsorted-lasts", w.TupleRows(
            [r[0] for r in rows], [r[1][::-1] if j == k else r[1] for j, r in enumerate(rows)]), \
            report.pure_rows
        yield "split-prefix", w.TupleRows(
            [r[0] for r in rows[:k]] + [prefix, prefix] + [r[0] for r in rows[k + 1:]],
            [r[1] for r in rows[:k]] + [lasts[:1], lasts[1:]] + [r[1] for r in rows[k + 1:]]), \
            report.pure_rows
        yield "split-out-of-order", w.TupleRows(
            [r[0] for r in rows[:k]] + [prefix] + [r[0] for r in rows[k + 1:]] + [prefix],
            [r[1] for r in rows[:k]] + [lasts[1:]] + [r[1] for r in rows[k + 1:]] + [lasts[:1]]), \
            report.pure_rows
        yield "duplicate", of(gaps[:5] + gaps[4:]), report.pure_rows
        yield "duplicate-pure", report.gap_rows, of(pure[:1] + pure)
        yield "reversed", of(gaps[::-1]), of(pure[::-1])
        yield "outside-appended", of(gaps + [outside]), report.pure_rows
        yield "outside-sorted", of(sorted(gaps + [outside])), report.pure_rows
        yield "outside-orbit", of(sorted(gaps + orbit)), report.pure_rows
        yield "negative-orbit", of(sorted(gaps + negative)), report.pure_rows
        yield "outside-pure", report.gap_rows, of(sorted(pure + [outside]))
        yield "dropped", of(gaps[:len(gaps) // 2] + gaps[len(gaps) // 2 + 1:]), report.pure_rows
        # a tuple the oracle check samples, dropped from the gaps or added to them
        rng = random.Random(verify._mix_seed(verify.DEFAULT_SEED, p.a, p.b, m, 2))
        draws = [tuple(rng.randrange(B + 1) for _ in range(m)) for _ in range(50)]
        sampled = [t for t in draws if sum(t) <= B]
        for t in sampled[:1]:
            if t in report.gaps:
                yield "sampled-gap-dropped", of(g for g in gaps if g != t), report.pure_rows
            else:
                yield "sampled-member-added", of(sorted(gaps + [t])), report.pure_rows

    @pytest.mark.parametrize("p", [w.curve_params(4, 5, 3), w.hermitian_params(3, 4),
                                   w.curve_params(5, 7, 4), w.curve_params(3, 7, 2)], ids=str)
    def test_hand_made_rows_match_the_tuple_checks(self, monkeypatch, p):
        outcomes = set()
        for name, gap_rows, pure_rows in self._variants(p):
            got = _row_checks(monkeypatch, p, gap_rows, pure_rows)
            assert got == _by_tuples(p, gap_rows, pure_rows), name
            outcomes.update(got)
        assert (True, "") in outcomes and len(outcomes) >= 3

    @pytest.mark.parametrize("m", [2, 3, 4, 5])
    def test_swaps_decide_as_every_permutation(self, m):
        """Random small sets, some closed under a few permutations, in
        shuffled rows with repeats: the swaps of neighbours fix a set
        exactly when every permutation of coordinates 2..m does."""
        rng = random.Random(m)
        perms = [(0,) + tail for tail in itertools.permutations(range(1, m))]
        outcomes = set()
        for _ in range(150):
            tuples = {tuple(rng.randrange(-1, 3) for _ in range(m)) for _ in range(rng.randrange(12))}
            for _ in range(rng.randrange(4)):
                perm = rng.choice(perms)
                tuples |= {tuple(t[i] for i in perm) for t in tuples}
            listed = list(tuples) + rng.sample(sorted(tuples), min(2, len(tuples)))
            rng.shuffle(listed)
            expected = not any(verify._moves(perm, tuples) for perm in perms)
            assert verify._fixed_by_swaps(w.TupleRows.of(listed), m) == expected, listed
            outcomes.add(expected)
        assert outcomes == ({True} if m == 2 else {True, False})

    def test_lasts_by_prefix_is_the_tuple_set(self):
        rows = w.TupleRows([(0, 1), (0, 0), (0, 1), (2, 2)], [(5, 3, 5), (1,), (4, 3), (0,)])
        assert verify._lasts_by_prefix(rows) == {(0, 1): (3, 4, 5), (0, 0): (1,), (2, 2): (0,)}
        shared = (1, 2, 3)
        kept = verify._lasts_by_prefix(w.TupleRows([(0,), (1,)], [shared, shared]))
        assert kept[(0,)] is shared and kept[(1,)] is shared


def _fields(report):
    return [(e.name, e.kind, e.passed, e.detail) for e in report.entries]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessPerCPU:
    """The sweep cells run in one forked child per CPU, never in the caller."""

    def test_one_process_gives_the_same_results(self, monkeypatch):
        many = (_fields(w.run_property_sweep()), _fields(w.run_oracle_invariants(trials=200)))
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        one = (_fields(w.run_property_sweep()), _fields(w.run_oracle_invariants(trials=200)))
        assert one == many
        _no_child_left()

    @staticmethod
    def _raise_in(monkeypatch, caller, exc):
        """Make ``caller``'s per-cell work raise ``exc(cell)`` on the cells
        run in a child, not in the caller itself, with the cells dealt over
        three children."""
        parent = os.getpid()

        def check(p):
            if os.getpid() != parent:
                raise exc(p)
            return []

        monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
        if caller == "sweep":
            monkeypatch.setitem(verify.PROPERTY_CHECKS, "raising", check)
            return lambda: w.run_property_sweep(max_a=3, max_b=5, max_m=2, checks=("raising",))
        monkeypatch.setattr(verify, "oracle_invariants", lambda p, trials, seed: check(p))
        return lambda: w.run_oracle_invariants(max_a=3, max_b=5, max_m=2)

    @pytest.mark.parametrize("caller", ["sweep", "oracle"])
    def test_child_exception_is_raised_in_the_caller(self, monkeypatch, caller):
        cells = w.sweep_cells(3, 5, 2)
        assert len(cells) > 3
        run = self._raise_in(monkeypatch, caller,
                             lambda p: w.WsgapError(f"cell {p.a},{p.b},{p.m} is wrong"))
        with pytest.raises(w.WsgapError) as exc:
            run()
        # cells[0] is the first cell of share 0, whose reply is read first
        assert type(exc.value) is w.WsgapError
        assert str(exc.value) == f"cell {cells[0].a},{cells[0].b},{cells[0].m} is wrong"
        _no_child_left()

    def test_unpicklable_child_exception_keeps_its_message(self, monkeypatch):
        class Local(Exception):
            pass

        run = self._raise_in(monkeypatch, "sweep", lambda p: Local("odd cell"))
        with pytest.raises(w.WsgapError, match="^Local: odd cell$"):
            run()
        _no_child_left()

    def test_caller_exception_reaps_the_children(self, monkeypatch):
        """A failure in the caller while it reads the first reply, with
        every child still to be reaped."""
        def failing(data):
            raise KeyError("reply")

        monkeypatch.setattr(verify, "_cpu_count", lambda: 3)
        monkeypatch.setattr(verify.marshal, "loads", failing)
        with pytest.raises(KeyError, match="reply"):
            w.run_property_sweep(max_a=3, max_b=5, max_m=2, checks=("sigma",))
        _no_child_left()

    @pytest.mark.parametrize("cpus", [1, 3])
    def test_every_cell_runs_in_a_child(self, monkeypatch, cpus):
        monkeypatch.setattr(verify, "_cpu_count", lambda: cpus)
        monkeypatch.setitem(verify.PROPERTY_CHECKS, "pid", lambda p: [verify.CheckResult(
            f"a{p.a}-b{p.b}-m{p.m}:pid", "property", True, str(os.getpid()))])
        report = w.run_property_sweep(max_a=3, max_b=5, max_m=2, checks=("pid",))
        pids = {int(e.detail) for e in report.entries if e.name.endswith(":pid")}
        assert len(report.entries) == len(w.sweep_cells(3, 5, 2)) + 1  # and the coverage
        assert os.getpid() not in pids and len(pids) == cpus
        _no_child_left()

    def test_no_cell_forks_nothing(self, monkeypatch):
        def no_fork():
            raise AssertionError("forked for no cell")

        monkeypatch.setattr(verify.os, "fork", no_fork)
        assert w.sweep_cells(5, 9, 1) == ()
        assert [e.name for e in w.run_property_sweep(max_m=1).entries] == ["sweep-coverage"]
        assert w.run_oracle_invariants(max_m=1).entries == []

    def test_child_that_dies_without_a_reply(self, monkeypatch):
        run = self._raise_in(monkeypatch, "sweep", lambda p: os._exit(3))
        with pytest.raises(w.WsgapError, match="died without a reply, exit status 3"):
            run()
        _no_child_left()

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        run = self._raise_in(monkeypatch, "sweep", lambda p: w.WsgapError("forked"))
        assert _while_a_thread_runs(run).ok  # every cell ran in the caller
        with pytest.raises(w.WsgapError, match="forked"):
            run()
        _no_child_left()


# sha256 of (name, kind, passed, detail) over the fixtures, the default
# property sweep and the oracle invariants at 200 trials, default seed;
# recorded before the sweep's checks were rewritten with hashed lookups.
PINNED_PAYLOAD_SHA256 = "be8d25fe03a86781fdc150527ed532f52d7fc8ab4e080dc4a5d2a8cbf39c5ec9"


def test_default_payload_is_pinned():
    entries = (w.run_fixtures().entries + w.run_property_sweep().entries
               + w.run_oracle_invariants(trials=200).entries)
    assert len(entries) == 1268
    digest = hashlib.sha256("\n".join(
        repr((e.name, e.kind, e.passed, e.detail)) for e in entries).encode()).hexdigest()
    assert digest == PINNED_PAYLOAD_SHA256
