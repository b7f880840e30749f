import collections
import hashlib
import os
import threading
import types

import pytest

import wsgap as w
from wsgap import verify


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
        seconds = {"complement": 10.0, "union_nabla": 1.0, "explicit_s": 2.0}
        real_gaps = verify.gs.gaps

        def slow_gaps(p, method="complement", **kwargs):
            now[0] += seconds[method]
            return real_gaps(p, method=method, **kwargs)

        monkeypatch.setattr(verify.gs, "gaps", slow_gaps)
        report = w.run_property_sweep(max_a=2, max_b=3, max_m=2, checks=("gap-methods",))
        ms = {e.name: e.ms for e in report.entries}
        # the shared complement route is charged to the first result
        assert ms["a2-b3-m2:gap-methods-agree:union_nabla"] == 11000.0
        assert ms["a2-b3-m2:gap-methods-agree:explicit_s"] == 2000.0

    def test_unknown_check_rejected(self):
        with pytest.raises(ValueError):
            w.run_property_sweep(checks=("no-such-check",))


class TestOracleInvariants:
    def test_small_battery_passes(self):
        report = w.run_oracle_invariants(max_a=3, max_b=5, max_m=3, trials=100)
        assert report.ok, [(e.name, e.detail) for e in report.failures()]


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
        real = verify.gs._route_rows

        def route(p, method, include_zero_family):
            return corrupt(p, method, include_zero_family, real(p, method, include_zero_family))

        monkeypatch.setattr(verify.gs, "_route_rows", route)

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

    def test_rows_split_over_one_prefix_compare_equal(self):
        whole = w.TupleRows.of([(0, 1), (0, 2), (0, 3), (1, 0)])
        split = w.TupleRows([(0,), (0,), (1,)], [(1,), (2, 3), (0,)])
        assert list(whole.rows()) != list(split.rows())
        assert verify._same_tuples(whole, split) and verify._same_tuples(split, whole)
        assert not verify._same_tuples(whole, w.TupleRows.of([(0, 1), (0, 2), (1, 0)]))
        assert not verify._same_tuples(split, w.TupleRows.of([(0, 1), (0, 3), (0, 2), (1, 0)]))


def test_sweep_builds_each_route_once_per_cell(monkeypatch):
    """Per cell, the union_nabla gaps with and without the zero family,
    the explicit_s gaps, and the intersection pure gaps with and without
    it: three cube builds and two intersections, shared by the checks."""
    calls = collections.Counter()
    for name in ("_cube_rows", "_pure_set_intersection"):
        real = getattr(verify.gs, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(verify.gs, name, counted)
    cells = w.sweep_cells(3, 4, 3)
    verify.gs._route_rows.cache_clear()
    try:
        # cell by cell in this process, where the counts are kept, as the
        # sweep runs each cell in one process
        for p in cells:
            for check in verify.PROPERTY_CHECKS.values():
                assert all(r.passed for r in check(p))
    finally:
        verify.gs._route_rows.cache_clear()
    assert calls == {"_cube_rows": 3 * len(cells), "_pure_set_intersection": 2 * len(cells)}


def _fields(report):
    return [(e.name, e.kind, e.passed, e.detail) for e in report.entries]


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


class TestProcessPerCPU:
    """The sweep cells run in one forked process per CPU."""

    def test_one_process_gives_the_same_results(self, monkeypatch):
        many = (_fields(w.run_property_sweep()), _fields(w.run_oracle_invariants(trials=200)))
        monkeypatch.setattr(verify, "_cpu_count", lambda: 1)
        one = (_fields(w.run_property_sweep()), _fields(w.run_oracle_invariants(trials=200)))
        assert one == many
        _no_child_left()

    @staticmethod
    def _raise_in(monkeypatch, caller, where, exc):
        """Make ``caller``'s per-cell work raise ``exc(cell)`` on the cells
        run in a child (``where="child"``) or in the caller itself, with
        the cells dealt over three processes."""
        parent = os.getpid()

        def check(p):
            if (os.getpid() != parent) == (where == "child"):
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
        run = self._raise_in(monkeypatch, caller, "child",
                             lambda p: w.WsgapError(f"cell {p.a},{p.b},{p.m} is wrong"))
        with pytest.raises(w.WsgapError) as exc:
            run()
        # cells[1] is the first cell of the first child, which is read first
        assert type(exc.value) is w.WsgapError
        assert str(exc.value) == f"cell {cells[1].a},{cells[1].b},{cells[1].m} is wrong"
        _no_child_left()

    def test_unpicklable_child_exception_keeps_its_message(self, monkeypatch):
        class Local(Exception):
            pass

        run = self._raise_in(monkeypatch, "sweep", "child", lambda p: Local("odd cell"))
        with pytest.raises(w.WsgapError, match="^Local: odd cell$"):
            run()
        _no_child_left()

    def test_caller_exception_reaps_the_children(self, monkeypatch):
        run = self._raise_in(monkeypatch, "sweep", "caller", lambda p: KeyError(p.b))
        with pytest.raises(KeyError):
            run()
        _no_child_left()

    def test_child_that_dies_without_a_reply(self, monkeypatch):
        run = self._raise_in(monkeypatch, "sweep", "child", lambda p: os._exit(3))
        with pytest.raises(w.WsgapError, match="died without a reply, exit status 3"):
            run()
        _no_child_left()

    def test_no_fork_while_other_threads_run(self, monkeypatch):
        run = self._raise_in(monkeypatch, "sweep", "child", lambda p: w.WsgapError("forked"))
        stop = threading.Event()
        thread = threading.Thread(target=stop.wait)
        thread.start()
        try:
            assert run().ok  # every cell ran in the caller
        finally:
            stop.set()
            thread.join(timeout=10)
        assert not thread.is_alive()
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
