import ast
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsgap as w
from wsgap import fixtures as fx
from wsgap import gapsets as gs
from wsgap import maximals as mx
from wsgap import oracle
from wsgap import verify
from wsgap.core import sorted_unique

P453 = w.curve_params(4, 5, 3)
P473 = w.curve_params(4, 7, 3)
SMALL = [w.curve_params(a, b, m) for a, b, m in
         [(2, 3, 2), (2, 5, 2), (3, 4, 3), (4, 5, 3), (3, 5, 4)]]


class TestNumericalGaps:
    def test_4_5(self):
        assert gs.numerical_gaps(4, 5) == (1, 2, 3, 6, 7, 11)

    @pytest.mark.parametrize("a,b", [(2, 3), (2, 5), (3, 4), (4, 7), (5, 9)])
    def test_genus_many(self, a, b):
        assert len(gs.numerical_gaps(a, b)) == (a - 1) * (b - 1) // 2


class TestSinglePoint:
    def test_gaps_4_5_1(self):
        p = w.curve_params(4, 5, 1)
        report = w.gaps(p)
        assert report.gaps == ((1,), (2,), (3,), (6,), (7,), (11,))
        assert report.pure_gaps == report.gaps

    def test_methods_coincide(self):
        p = w.curve_params(4, 5, 1)
        assert w.gaps(p, "union_nabla").gaps == w.gaps(p, "explicit_s").gaps == \
            w.gaps(p, "complement").gaps

    @pytest.mark.parametrize("method", gs.PURE_METHODS)
    def test_pure_gaps_single_point(self, method):
        p = w.curve_params(4, 5, 1)
        report = w.pure_gaps(p, method)
        assert report.pure_gaps == report.gaps == w.gaps(p).gaps
        assert report.method == method
        assert report.stats["pure_gap_method"] == "single-point"

    def test_oracle_rejects_single_point(self):
        p = w.curve_params(4, 5, 1)
        for query in (w.is_member, w.dim_L):
            with pytest.raises(w.BadPointCountError):
                query(p, (3,))


class TestGaps453:
    def test_membership_spot_checks(self):
        gap_set = set(w.gaps(P453).gaps)
        assert (1, 0, 5) in gap_set
        assert (0, 0, 11) in gap_set
        assert (4, 4, 4) not in gap_set

    def test_gap_set_is_union_of_reference_nabla_sets(self):
        union = set()
        for nabla in fx.NABLA_SETS_453.values():
            union.update(nabla)
        assert union == set(w.gaps(P453).gaps)

    @pytest.mark.parametrize("p", SMALL + [P473], ids=str)
    def test_three_methods_agree(self, p):
        base = w.gaps(p, "complement").gaps
        assert w.gaps(p, "union_nabla").gaps == base
        assert w.gaps(p, "explicit_s").gaps == base

    @pytest.mark.parametrize("p", SMALL, ids=str)
    def test_zero_family_indifferent(self, p):
        assert w.gaps(p, "union_nabla").gaps == gs._route_rows(p, "union_nabla", True).tuples

    def test_unknown_method(self):
        with pytest.raises(w.WsgapError):
            w.gaps(P453, "magic")


class TestNablaBarNonneg:
    @pytest.mark.parametrize("gamma", sorted(fx.NABLA_SETS_453), ids=str)
    def test_reference_sets(self, gamma):
        assert w.nabla_bar_nonneg(P453, gamma) == tuple(sorted(fx.NABLA_SETS_453[gamma]))

    def test_negative_coordinate_gives_empty(self):
        assert w.nabla_bar_nonneg(P453, (-1, 0, 0)) == ()
        assert w.nabla_bar_nonneg(P453, (0, -2, 0)) == ()

    def test_slab_shape_of_3_3_3(self):
        # three disjoint 3x3 slabs: one coordinate pinned to 3, the others below
        got = w.nabla_bar_nonneg(P453, (3, 3, 3))
        assert len(got) == 27
        assert all(t.count(3) == 1 for t in got)


class TestPureGaps:
    def test_453_both_methods(self):
        expected = tuple(sorted(fx.PURE_GAPS_453))
        assert w.pure_gaps(P453, "profile").pure_gaps == expected
        assert w.pure_gaps(P453, "intersection").pure_gaps == expected

    def test_473_both_methods(self):
        expected = tuple(sorted(fx.PURE_GAPS_473))
        assert w.pure_gaps(P473, "profile").pure_gaps == expected
        assert w.pure_gaps(P473, "intersection").pure_gaps == expected

    @pytest.mark.parametrize("p", SMALL, ids=str)
    def test_methods_and_zero_family(self, p):
        base = w.pure_gaps(p, "profile").pure_gaps
        assert w.pure_gaps(p, "intersection").pure_gaps == base
        assert gs._route_rows(p, "intersection", True).tuples == base

    def test_high_degree_tuples_never_pure(self):
        pure = set(w.pure_gaps(P453).pure_gaps)
        for t in itertools.product(range(13), repeat=3):
            if sum(t) >= 12:
                assert t not in pure

    @pytest.mark.parametrize("p", SMALL, ids=str)
    def test_report_invariants(self, p):
        report = w.pure_gaps(p)
        assert set(report.pure_gaps) <= set(report.gaps)
        assert list(report.gaps) == sorted(set(report.gaps))
        B = 2 * p.genus - 1
        assert all(min(t) >= 0 and sum(t) <= B for t in report.gaps)
        assert report.stats["gap_count"] == len(report.gaps)
        assert report.stats["pure_gap_count"] == len(report.pure_gaps)


class TestWitness:
    def test_reference_witnesses(self):
        for gap, expected in fx.PURE_GAP_WITNESSES_453.items():
            assert w.pure_gap_witness(P453, gap) == expected

    def test_member_has_no_witness(self):
        assert w.pure_gap_witness(P453, (0, 0, 0)) is None

    def test_plain_gap_has_no_witness(self):
        gap_set = set(w.gaps(P453).gaps)
        pure = set(w.pure_gaps(P453).pure_gaps)
        assert (1, 0, 5) in gap_set and (1, 0, 5) not in pure
        assert w.pure_gap_witness(P453, (1, 0, 5)) is None

    def test_witness_common_point_is_glb(self):
        for gap in fx.PURE_GAPS_453:
            witness = w.pure_gap_witness(P453, gap)
            assert w.glb(list(witness)) == gap
            assert tuple(witness[i][i] for i in range(3)) == gap


class TestCandidateSuperset:
    def test_4_5(self):
        a_star, a_set = w.candidate_superset(P453)
        assert a_star == (1, 2, 3, 6, 7, 11)
        assert a_set == (1, 2, 3, 6, 7, 11)

    def test_473_contains_all_pure_gaps(self):
        a_star, a_set = w.candidate_superset(P473)
        for t in fx.PURE_GAPS_473:
            assert t[0] in a_star
            assert t[1] in a_set and t[2] in a_set

    @pytest.mark.parametrize("p", SMALL, ids=str)
    def test_max_value(self, p):
        a_star, _ = w.candidate_superset(p)
        assert max(a_star) == p.a * (p.b - 1) - p.b


class TestSingletonProperty:
    """A choice of one relative maximal per coordinate meets in at most one
    point: the common point exists exactly when each choice is strictly
    dominated by the others at its own coordinate, and it is then both the
    componentwise minimum and the diagonal of the choices."""

    def test_all_triples_sampled(self):
        lam = w.lambda_nonneg(P453)
        m = 3
        for combo in itertools.islice(itertools.product(lam, repeat=m), 0, None, 7):
            candidate = tuple(combo[i][i] for i in range(m))
            in_every_nabla = all(
                candidate[i] == combo[i][i]
                and all(candidate[j] < combo[i][j] for j in range(m) if j != i)
                for i in range(m))
            criterion = all(combo[i][i] < combo[j][i]
                            for i in range(m) for j in range(m) if j != i)
            assert in_every_nabla == criterion
            if criterion:
                assert w.glb(list(combo)) == candidate
                assert candidate in set(w.pure_gaps(P453).pure_gaps)


ORACLE_CASES = (
    [w.hermitian_params(q, m) for q in (3, 4, 5) for m in (2, 3, 4)]
    + [w.norm_trace_params(2, 3, m) for m in (2, 3)]
    + [w.curve_params(a, b, m) for a, b, m in [(2, 5, 2), (3, 7, 3), (5, 7, 2), (3, 8, 4)]]
)


class TestProfileEngine:
    """The residue-threshold kernel against the scalar oracle, cell by cell."""

    @pytest.mark.parametrize("p", ORACLE_CASES, ids=str)
    def test_matches_scalar_oracle_over_simplex(self, p):
        B = 2 * p.genus - 1
        simplex = [t for t in itertools.product(range(B + 1), repeat=p.m) if sum(t) <= B]
        expected_gaps = [t for t in simplex if not w.is_member(p, t)]
        expected_pure = []
        for t in simplex:
            pcm = w.per_coord_max(p, t)
            if pcm is None or all(c < x for c, x in zip(pcm, t)):
                expected_pure.append(t)
        # itertools.product walks the simplex in lexicographic order
        assert list(w.gaps(p).gaps) == expected_gaps
        assert list(w.pure_gaps(p).pure_gaps) == expected_pure

    def test_cache_stays_bounded(self):
        maxsize = gs._residue_gap_sets.cache_info().maxsize
        assert maxsize is not None
        cells = [w.curve_params(a, b, 2) for a in (2, 3) for b in range(3, 40)
                 if b % a][:maxsize + 3]
        assert len(cells) > maxsize
        for p in cells:
            w.gaps(p)
            w.pure_gap_witness(p, (1, 1))
            w.sigma_pair(p)
            w.relative_maximals_region(p)
        per_curve = (gs._residue_gap_sets, gs._witness_index, gs.numerical_gaps,
                     mx.absolute_maximals_region, mx.relative_maximals_region,
                     mx._lambda_nonneg)
        for cached in per_curve:
            info = cached.cache_info()
            assert info.maxsize is not None
            assert info.currsize <= info.maxsize, cached.__name__

    def test_no_unbounded_cache_in_package(self):
        """No ``functools.cache`` and no ``lru_cache(None)`` anywhere in the package."""
        unbounded = []
        for path in sorted(Path(gs.__file__).parent.glob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                name = node.func if isinstance(node, ast.Call) else node
                name = getattr(name, "id", getattr(name, "attr", None))
                if name == "cache":
                    unbounded.append(f"{path.name}:{node.lineno}")
                if name == "lru_cache" and isinstance(node, ast.Call):
                    size = node.args[:1] + [k.value for k in node.keywords if k.arg == "maxsize"]
                    if any(isinstance(v, ast.Constant) and v.value is None for v in size):
                        unbounded.append(f"{path.name}:{node.lineno}")
        assert not unbounded


def _profile_walk(params):
    """Gaps and pure gaps of [0, B]^m by a walk over the first coordinate;
    the reference for the residue-threshold kernel.

    Seeds an envelope with the coordinate values of every absolute
    maximal below (B, ..., B), enumerated by ``local_absolute_maximals``
    and clamped into the cube, so that after running maxima along all
    axes cell beta holds the componentwise maximum over the absolute
    maximals <= beta: beta is a member when that maximum equals beta and
    a pure gap when it is strictly below beta in every coordinate (or
    there is no maximal below beta).

    The running maximum along the first axis is kept as one slab of
    shape (m,) + (B+1,)*(m-1).  At slab s the maximals whose clamped
    first coordinate is s are maxed in and the running maxima along the
    other m-1 axes taken again; the slab already holds those maxima for
    the earlier slabs, so this equals accumulating the new seeds alone
    and folding them in.  Each slab then yields its gaps (inside the
    simplex sum <= B and not members) and pure gaps in lexicographic
    order.  Slabs span the whole cube so that a pure cell outside the
    simplex is caught.
    """
    m, B = params.m, 2 * params.genus - 1
    n = B + 1
    gammas = np.array(oracle.local_absolute_maximals(params, (B,) * m).gamma_hat_beta,
                      dtype=np.int64).reshape(-1, m)
    # Against cells >= 0 only the sign of a negative value matters, so
    # values clamp to -1, which also stands for "no maximal below".
    dtype = np.min_scalar_type(-n)
    gammas = gammas[np.argsort(np.maximum(gammas[:, 0], 0))]
    cells = np.maximum(gammas, 0)
    values = np.maximum(gammas, -1).astype(dtype)
    # seeds of slab s are rows bounds[s]:bounds[s+1]
    bounds = np.searchsorted(cells[:, 0], np.arange(n + 1))

    envel = np.full((m,) + (n,) * (m - 1), -1, dtype=dtype)
    grid = np.ogrid[(slice(0, n),) * (m - 1)]
    coords = [c.astype(dtype) for c in grid]
    coord_sum = sum(grid)
    gap_cells, pure_cells = [], []
    for s in range(n):
        lo, hi = bounds[s], bounds[s + 1]
        if hi > lo:
            idx = tuple(cells[lo:hi, 1:].T)
            for k in range(m):
                np.maximum.at(envel[k], idx, values[lo:hi, k])
            for axis in range(1, m):
                _running_max(envel, axis)
        member = envel[0] == s
        pure = envel[0] < s
        for k in range(1, m):
            member &= envel[k] == coords[k - 1]
            pure &= envel[k] < coords[k - 1]
        inside = coord_sum <= B - s
        assert not (pure & ~inside).any(), "pure-gap cube reaches outside the simplex"
        offset = s * n ** (m - 1)
        gap_cells.append(np.flatnonzero(inside & ~member) + offset)
        pure_cells.append(np.flatnonzero(pure) + offset)
    shape = (n,) * m
    return tuple(tuple(zip(*(c.tolist() for c in np.unravel_index(np.concatenate(flat), shape))))
                 for flat in (gap_cells, pure_cells))


def _running_max(a, axis):
    """Running maximum of ``a`` along ``axis``, in place."""
    if axis == a.ndim - 1:
        np.maximum.accumulate(a, axis=axis, out=a)
        return
    # Along an outer axis numpy's accumulate runs short strided inner
    # loops; maxing whole hyperplanes in turn is several times faster.
    planes = np.moveaxis(a, axis, 0)
    for i in range(1, planes.shape[0]):
        np.maximum(planes[i], planes[i - 1], out=planes[i])


KERNEL_CURVES = [w.hermitian_params(7, 4), w.hermitian_params(8, 4), w.hermitian_params(11, 3),
                 w.hermitian_params(32, 2), w.norm_trace_params(2, 4, 3),
                 w.norm_trace_params(3, 3, 3)]


def _kernel_tuples(p):
    """The kernel's gap and pure-gap rows, as tuples."""
    return tuple(rows.tuples for rows in gs._residue_gap_sets(p))


CHECK_CURVES = [P453, w.hermitian_params(3, 3), w.curve_params(2, 5, 2),
                w.curve_params(3, 5, 4), w.curve_params(5, 6, 2), P473]


def _per_prefix_check_fails(p):
    """The whole-cube check prefix by prefix, as first written: over every
    prefix of [0, 2g-1]^(m-1) and every class s mod b, the first
    beta_m >= 0 of class s with sum(beta) >= 2g must be a member."""
    n = 2 * p.genus
    for prefix in itertools.product(range(n), repeat=p.m - 1):
        low = max(n - sum(prefix), 0)
        for s in range(p.b):
            if not oracle.is_member(p, prefix + (low + (s - low) % p.b,)):
                return True
    return False


class TestResidueGapKernel:
    """The kernel against the slab walk it replaced, tuple for tuple."""

    def test_matches_walk_on_sweep_cells(self):
        for p in verify.sweep_cells():
            assert _kernel_tuples(p) == _profile_walk(p), p

    @pytest.mark.parametrize("p", KERNEL_CURVES, ids=str)
    def test_matches_walk_on_large_curves(self, p):
        assert _kernel_tuples(p) == _profile_walk(p)

    # at (4, 5, 3) with r = 3 the first non-member has coordinate sum 2g exactly
    @pytest.mark.parametrize("p,r", [(P453, 1), (P453, 3), (w.hermitian_params(3, 3), 1)],
                             ids=["4-5-3-r1", "4-5-3-r3", "3-4-3-r1"])
    def test_cube_check_catches_a_shifted_family(self, p, r, monkeypatch):
        f, hit = oracle._residue_table(p)
        shifted = f[:r] + (f[r] + p.b,) + f[r + 1:]
        monkeypatch.setattr(oracle, "_residue_table", lambda params: (shifted, hit))
        gs._residue_gap_sets.cache_clear()
        with pytest.raises(w.WsgapError, match="not a member"):
            gs._residue_gap_sets(p)

    @pytest.mark.parametrize("p", CHECK_CURVES, ids=str)
    def test_cube_check_matches_per_prefix_check(self, p, monkeypatch):
        """The kernel raises exactly when the per-prefix check over the whole
        cube fails, on tables with families shifted by multiples of b."""
        f, hit = oracle._residue_table(p)
        rng = random.Random(p.a * 100 + p.b * 10 + p.m)
        tables = [f[:r] + (f[r] + k * p.b,) + f[r + 1:]
                  for r in range(p.b) for k in (-2, -1, 1, 2)]
        tables += [tuple(x + rng.randint(-2, 2) * p.b for x in f) for _ in range(8)]
        outcomes = set()
        try:
            for table in tables:
                monkeypatch.setattr(oracle, "_residue_table", lambda params: (table, hit))
                gs._residue_gap_sets.cache_clear()
                try:
                    gs._residue_gap_sets(p)
                    raised = False
                except w.WsgapError as exc:
                    assert "not a member" in str(exc)
                    raised = True
                assert raised == _per_prefix_check_fails(p), table
                outcomes.add(raised)
        finally:
            gs._residue_gap_sets.cache_clear()
        assert outcomes == {False, True}

    def test_routes_skip_the_reference_enumeration(self, monkeypatch):
        def enumeration(*args):
            raise AssertionError("local_absolute_maximals called")

        monkeypatch.setattr(oracle, "local_absolute_maximals", enumeration)
        gs._residue_gap_sets.cache_clear()
        for p in (P453, w.hermitian_params(4, 2)):
            for method in gs.GAP_METHODS:
                w.gaps(p, method)
            for method in gs.PURE_METHODS:
                w.pure_gaps(p, method)


# Coprime (a, b, m) outside the a <= 5, b <= 9 sweep box, drawn once from
# random.Random(20261018) until 18 were kept: randint(2, 12) for a and
# randint(2, 40) for b, dropped if a == b, gcd(a, b) > 1, (a, b) lies in the
# box, or a > b after three such cells; then randint(2, min(4, a + 1)) for
# m, dropped if (2g)^m > 3e6 or the cell repeats.
OUTSIDE_BOX = [(5, 23, 2), (3, 16, 2), (2, 17, 2), (2, 23, 2), (11, 5, 2), (9, 35, 2),
               (10, 9, 3), (5, 37, 3), (9, 22, 2), (4, 19, 3), (2, 33, 3), (5, 24, 2),
               (5, 11, 2), (3, 29, 2), (11, 4, 4), (11, 20, 2), (2, 31, 2), (2, 11, 3)]


@pytest.mark.parametrize("spec", OUTSIDE_BOX, ids=lambda spec: "-".join(map(str, spec)))
def test_routes_agree_outside_the_sweep_box(spec):
    p = w.curve_params(*spec)
    results = [e for name in ("gap-methods", "pure-methods", "axis-gaps", "sigma")
               for e in verify.PROPERTY_CHECKS[name](p)]
    assert results
    assert all(e.passed for e in results), [(e.name, e.detail) for e in results if not e.passed]


class TestRowForm:
    """Gap sets stay in row form until a caller reads the tuples."""

    @pytest.mark.parametrize("p", SMALL + [P473, w.hermitian_params(5, 4)], ids=str)
    def test_rows_spell_the_tuples(self, p):
        cubes = tuple(gs._cube_rows(p.m, 2 * p.genus, slabs)
                      for slabs in (gs._union_nabla_slabs(p, False),
                                    gs._union_nabla_slabs(p, True), gs._explicit_s_slabs(p)))
        for rows in gs._residue_gap_sets(p) + cubes:
            pairs = list(rows.rows())
            assert len(rows) == sum(len(lasts) for _, lasts in pairs) == len(rows.tuples)
            prefixes = [prefix for prefix, _ in pairs]
            assert prefixes == sorted(set(prefixes))  # one row per prefix, in order
            assert all(len(prefix) == p.m - 1 for prefix in prefixes)
            assert all(lasts and type(lasts) is tuple for _, lasts in pairs)  # no empty rows
            spelled = tuple(prefix + (v,) for prefix, lasts in pairs for v in lasts)
            assert spelled == rows.tuples == tuple(sorted(set(rows.tuples)))

    @given(st.integers(2, 4).flatmap(lambda m: st.lists(
        st.lists(st.one_of(st.integers(0, 4), st.integers(0, 5).map(range)),
                 min_size=m, max_size=m), max_size=6).map(lambda slabs: (m, slabs))))
    @settings(max_examples=80, deadline=None)
    def test_cube_rows_are_the_union_of_the_slabs(self, case):
        m, slabs = case
        union = set()
        for slab in slabs:
            union.update(itertools.product(*[c if isinstance(c, range) else (c,)
                                              for c in slab]))
        rows = gs._cube_rows(m, 5, slabs)
        assert all(lasts for _, lasts in rows.rows())
        assert rows.tuples == tuple(sorted(union))

    @pytest.mark.parametrize("k", range(3))
    @pytest.mark.parametrize("pinned", [-1, 6])
    def test_cube_rows_reject_pinned_values_outside_the_cube(self, pinned, k):
        slab = [range(2), range(3), range(4)]
        slab[k] = pinned
        with pytest.raises(w.WsgapError, match="leaves the cube"):
            gs._cube_rows(3, 6, [slab])

    @pytest.mark.parametrize("p", [P473, w.hermitian_params(5, 4), w.hermitian_params(8, 3)],
                             ids=str)
    def test_equal_signature_rows_share_lasts(self, p):
        """Prefixes with the same residues and quotient sum share one row."""
        shared = []
        for rows in gs._residue_gap_sets(p):
            by_key = {}
            for prefix, lasts in rows.rows():
                key = (tuple(c % p.b for c in prefix), sum(c // p.b for c in prefix))
                assert by_key.setdefault(key, lasts) is lasts, prefix
            shared.append(len(by_key) < sum(1 for _ in rows.rows()))
        assert shared[0]  # some gap rows are shared

    def _spy(self, monkeypatch):
        built = []
        real = gs.TupleRows.tuples

        def spy(rows):
            built.append(rows)
            return real.fget(rows)

        monkeypatch.setattr(gs.TupleRows, "tuples", property(spy))
        return built

    def test_cube_routes_leave_kernel_gaps_unbuilt(self, monkeypatch):
        p = w.hermitian_params(4, 3)
        gs._residue_gap_sets.cache_clear()
        kernel_gaps, kernel_pure = gs._residue_gap_sets(p)
        built = self._spy(monkeypatch)
        for method in ("union_nabla", "explicit_s"):
            report = w.gaps(p, method)
            assert report.gap_rows is not kernel_gaps
            assert report.stats["pure_gap_count"] == len(kernel_pure)
        assert built == []
        assert w.gaps(p, "union_nabla").gaps == w.gaps(p).gaps
        assert any(rows is kernel_gaps for rows in built)

    @pytest.mark.parametrize("argv", [
        ("pure-gaps",), ("pure-gaps", "--method", "intersection"),
        ("gaps",), ("gaps", "--method", "union-nabla"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_cli_builds_no_tuples(self, monkeypatch, capsys, argv, fmt):
        from wsgap import cli

        built = self._spy(monkeypatch)
        gs._residue_gap_sets.cache_clear()
        assert cli.main([*argv, "--preset", "hermitian", "--q", "4", "--m", "3",
                         "--format", fmt]) == 0
        assert capsys.readouterr().out
        assert built == []

    def test_intersection_outside_gaps_raises(self, monkeypatch):
        real = gs._pure_set_intersection
        origin = (0,) * P453.m  # a member, so no gap
        monkeypatch.setattr(gs, "_pure_set_intersection",
                            lambda params, zero: sorted_unique(real(params, zero) + (origin,)))
        # the corrupted rows are cached: build them here, and drop them after
        gs._route_rows.cache_clear()
        try:
            with pytest.raises(w.WsgapError, match="pure gaps outside the gap set"):
                w.pure_gaps(P453, "intersection")
        finally:
            gs._route_rows.cache_clear()

    @given(st.lists(st.tuples(*[st.integers(-3, 9)] * 3), max_size=25),
           st.lists(st.tuples(*[st.integers(-3, 9)] * 3), max_size=25))
    @settings(max_examples=150, deadline=None)
    def test_subset_check_matches_sets(self, small, big):
        # negative tuples as well; sorted rows, where the merge is exact
        expected = set(small) <= set(big)
        left, right = _set_rows(small), _set_rows(big)
        assert gs._is_subset(left, right) == expected
        assert gs._is_subset(left, _set_rows(big + small))

    @given(st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=1, max_size=25), st.data())
    @settings(max_examples=150, deadline=None)
    def test_subset_check_is_sound_on_unsorted_rows(self, big, data):
        # unsorted and repeated tuples, grouped as given; most drawn from big
        small = data.draw(st.lists(st.one_of(st.sampled_from(big),
                                             st.tuples(*[st.integers(0, 3)] * 3)), max_size=25))
        if gs._is_subset(gs.TupleRows.of(small), gs.TupleRows.of(big)):
            assert set(small) <= set(big)

    def test_subset_check_far_apart_tuples(self):
        far = (2**40, 0, 0)
        assert gs._is_subset(gs.TupleRows.of([far]), gs.TupleRows.of([(0, 0, 0), far]))
        assert not gs._is_subset(gs.TupleRows.of([far, (0, 0, 1)]),
                                 gs.TupleRows.of([(0, 0, 0), far]))

    @pytest.mark.parametrize("p", [P473, w.hermitian_params(5, 4)], ids=str)
    def test_subset_check_on_kernel_rows(self, p):
        gap_rows, pure_rows = gs._residue_gap_sets(p)
        assert gs._is_subset(pure_rows, gap_rows)
        assert not gs._is_subset(gap_rows, pure_rows)
        assert gs._is_subset(_set_rows(pure_rows.tuples[::-1]), gap_rows)
        assert not gs._is_subset(_set_rows(gap_rows.tuples[:-1] + ((0,) * p.m,)), gap_rows)

    def test_subset_check_merges_once_per_row_pair(self, monkeypatch):
        """The reports of one verify cell hand over the same cached rows
        again and again, and each pair of rows is merged once; rows built
        anew are checked anew."""
        pairs = []
        real = gs._report

        def report(params, gap_rows, pure_rows, *args):
            pairs.append((gap_rows, pure_rows))
            return real(params, gap_rows, pure_rows, *args)

        monkeypatch.setattr(gs, "_report", report)
        gs._is_subset.cache_clear()
        for check in verify.PROPERTY_CHECKS.values():
            check(P453)
        distinct = {(id(gap_rows), id(pure_rows)) for gap_rows, pure_rows in pairs}
        assert len(pairs) > 2 * len(distinct)
        assert gs._is_subset.cache_info().misses == len(distinct)

        good = w.gaps(P453)
        w.GapReport(P453, gs.TupleRows.of(good.gaps), good.pure_rows, good.method, good.stats)
        assert gs._is_subset.cache_info().misses == len(distinct) + 1
        dropped = gs.TupleRows.of(t for t in good.gaps if t != good.pure_gaps[0])
        with pytest.raises(w.WsgapError, match="pure gaps outside the gap set"):
            w.GapReport(P453, dropped, good.pure_rows, good.method, good.stats)

    def test_rows_of_group_runs_in_the_given_order(self):
        tuples = ((2, 1), (2, 0), (1, 5), (2, 3), (7,), (7,), (3,), (1, 5, 0))
        rows = gs.TupleRows.of(tuples)
        assert list(rows.rows()) == [((2,), (1, 0)), ((1,), (5,)), ((2,), (3,)),
                                     ((), (7, 7, 3)), ((1, 5), (0,))]
        assert len(rows) == len(tuples) and rows.tuples == tuples
        assert list(gs.TupleRows.of([]).rows()) == []

    @pytest.mark.parametrize("p", [w.curve_params(4, 5, 1), w.curve_params(2, 3, 2), P473,
                                   w.hermitian_params(4, 4)], ids=str)
    def test_reports_hold_rows_for_every_method(self, p):
        reports = ([w.gaps(p, method) for method in gs.GAP_METHODS]
                   + [w.pure_gaps(p, method) for method in gs.PURE_METHODS])
        for report in reports:
            assert type(report.gap_rows) is type(report.pure_rows) is w.TupleRows
            assert report.gaps == report.gap_rows.tuples
            assert report.pure_gaps == report.pure_rows.tuples


def _set_rows(tuples):
    """The tuples as ``TupleRows``, sorted and without repeats."""
    return gs.TupleRows.of(sorted(set(tuples)))


def _witness_by_scan(p, alpha, include_zero_family=False):
    """The witness by a linear scan of the relative maximals."""
    lam = w.lambda_nonneg(p, include_zero_family)
    chosen = []
    for i in range(p.m):
        for cand in lam:
            if cand[i] == alpha[i] and all(cand[j] > alpha[j] for j in range(p.m) if j != i):
                chosen.append(cand)
                break
        else:
            return None
    return tuple(chosen)


@pytest.mark.parametrize("p", SMALL + [P473], ids=str)
@pytest.mark.parametrize("zero_family", [False, True])
def test_witness_index_matches_scan(p, zero_family):
    """With or without the zero family the scan finds the witness
    ``pure_gap_witness`` gives: the zero family changes no witness."""
    B = 2 * p.genus - 1
    for t in itertools.product(range(-1, B + 2), repeat=p.m):
        if sum(t) <= B + 1:
            assert w.pure_gap_witness(p, t) == _witness_by_scan(p, t, zero_family)


def _pure_set_intersection_recursive(params, include_zero_family):
    """The intersection route as a plain recursion over one relative
    maximal per coordinate, checking the pairwise conditions as soon as
    both sides are chosen; the reference for the merged-state walk."""
    lam = w.lambda_nonneg(params, include_zero_family)
    m = params.m
    out = set()

    def rec(i, chosen):
        if i == m:
            out.add(tuple(chosen[k][k] for k in range(m)))
            return
        for cand in lam:
            ok = True
            for j, prev in enumerate(chosen):
                if not (cand[i] < prev[i] and prev[j] < cand[j]):
                    ok = False
                    break
            if ok:
                rec(i + 1, chosen + [cand])

    rec(0, [])
    return sorted_unique(out)


INTERSECTION_CASES = list(verify.sweep_cells()) + [
    w.hermitian_params(5, 4), w.norm_trace_params(2, 3, 3)]


@pytest.mark.parametrize("zero_family", [False, True])
def test_intersection_matches_recursive_reference(zero_family):
    for p in INTERSECTION_CASES:
        assert gs._pure_set_intersection(p, zero_family) == \
            _pure_set_intersection_recursive(p, zero_family), p
