import ast
import collections
import itertools
import random
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import wsgap as w
from wsgap import core, oracle
from wsgap.core import add

P453 = w.curve_params(4, 5, 3)
P452 = w.curve_params(4, 5, 2)
P473 = w.curve_params(4, 7, 3)
POOL = [w.curve_params(a, b, m) for a, b, m in
        [(2, 3, 2), (3, 4, 3), (4, 5, 2), (4, 5, 3), (2, 5, 3), (5, 4, 4)]]

params_st = st.sampled_from(POOL)


def tuple_st(p, lo=-12, hi=18):
    return st.tuples(*([st.integers(lo, hi)] * p.m))


class TestLocalProfile:
    def test_ones(self):
        prof = w.local_absolute_maximals(P453, (1, 1, 1))
        assert prof.gamma_hat_beta == ((0, 0, 0),)
        assert prof.per_coord_max == (0, 0, 0)

    def test_2_3_3(self):
        prof = w.local_absolute_maximals(P453, (2, 3, 3))
        assert set(prof.gamma_hat_beta) == {(0, 0, 0), (2, 2, 2), (-2, 3, 3)}
        assert prof.per_coord_max == (2, 3, 3)

    def test_all_negative(self):
        prof = w.local_absolute_maximals(P453, (-1, -1, -1))
        assert prof.gamma_hat_beta == ()
        assert prof.per_coord_max == (None, None, None)
        assert w.per_coord_max(P453, (-1, -1, -1)) is None


class TestMembership:
    @pytest.mark.parametrize("t,expected", [
        ((0, 0, 0), True),
        ((1, 1, 1), False),
        ((12, 0, 0), True),
        ((2, 3, 3), True),
        ((0, 0, 1), False),
    ])
    def test_examples(self, t, expected):
        assert w.is_member(P453, t) is expected

    def test_needs_two_points(self):
        with pytest.raises(w.BadPointCountError):
            w.is_member(w.curve_params(4, 5, 1), (0,))

    def test_rejects_bool_coordinates(self):
        p = w.hermitian_params(4, 3)
        for op in (w.is_member, w.dim_L, w.per_coord_max, w.local_absolute_maximals):
            with pytest.raises(w.WsgapError):
                op(p, (True, False, False))
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(p, (True, 0, 0), (1,), "profile")


class TestDimension:
    @pytest.mark.parametrize("t,expected", [
        ((0, 0, 0), 1),
        ((12, 0, 0), 7),
        ((1, 1, 1), 1),
        ((-1, -1, -1), 0),
    ])
    def test_examples(self, t, expected):
        assert w.dim_L(P453, t) == expected

    def test_riemann_roch_regime(self):
        for t in [(11, 0, 0), (4, 4, 4), (20, 3, 1)]:
            assert w.dim_L(P453, t) == sum(t) - 6 + 1


class TestNabla:
    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_examples(self, method):
        assert w.nabla_J_empty(P453, (3, 3, 3), (1,), method) is True
        assert w.nabla_J_empty(P453, (3, 3, 3), (2, 3), method) is False
        assert w.nabla_J_empty(P453, (0, 0, 0), (1,), method) is True

    def test_witness_for_nonempty(self):
        # (2,3,3) is the member witnessing nabla_{2,3}((3,3,3))
        assert w.is_member(P453, (2, 3, 3))

    def test_J_validation(self):
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(P453, (3, 3, 3), ())
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(P453, (3, 3, 3), (1, 2, 3))
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(P453, (3, 3, 3), (0,))
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(P453, (3, 3, 3), (4,))

    @pytest.mark.parametrize("method", ["search", "profile"])
    @pytest.mark.parametrize("J", [(True,), (1, True)])
    def test_J_rejects_non_int_indices(self, method, J):
        with pytest.raises(w.WsgapError):
            w.nabla_J_empty(P453, (3, 3, 3), J, method)

    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_bad_alpha_reported_before_an_unreadable_J(self, method):
        with pytest.raises(w.WsgapError, match=r"^expected a tuple of length m=3, got \(1, 2\)$"):
            w.nabla_J_empty(P453, iter((1, 2)), None, method)
        with pytest.raises(TypeError):
            w.nabla_J_empty(P453, (1, 2, 3), None, method)


class TestMaximality:
    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_examples(self, method):
        assert w.is_relative_maximal(P453, (11, 1, 1), method)
        assert w.is_absolute_maximal(P453, (6, 1, 1), method)
        assert not w.is_relative_maximal(P453, (1, 1, 1), method)
        assert not w.is_absolute_maximal(P453, (1, 1, 1), method)
        # with three points the two kinds are mutually exclusive
        assert not w.is_absolute_maximal(P453, (11, 1, 1), method)
        assert not w.is_relative_maximal(P453, (6, 1, 1), method)

    def test_m2_kinds_coincide_on_reps(self):
        for t in w.relative_maximals_region(P452).region_reps:
            assert w.is_relative_maximal(P452, t)
            assert w.is_absolute_maximal(P452, t)


# the scalar ops of the query stream, nabla on the profile route
SCALAR_OPS = {
    "is_member": w.is_member,
    "dim_L": w.dim_L,
    "per_coord_max": w.per_coord_max,
    "nabla_J_empty": lambda p, beta: w.nabla_J_empty(p, beta, (1, 3), "profile"),
}


def _count_calls(monkeypatch, *names):
    """Count the calls of the named ``oracle`` globals from here on."""
    calls = collections.Counter()
    for name in names:
        real = getattr(oracle, name)

        def counted(*args, _real=real, _name=name):
            calls[_name] += 1
            return _real(*args)

        monkeypatch.setattr(oracle, name, counted)
    return calls


class TestPredicateChecks:
    @pytest.mark.parametrize("method", ["search", "profile"])
    @pytest.mark.parametrize("predicate", [w.is_relative_maximal, w.check_relmax_equivalence],
                             ids=["is_relative_maximal", "check_relmax_equivalence"])
    def test_alpha_checked_once(self, monkeypatch, predicate, method):
        """A valid alpha is checked inside each signature read, with no
        separate pass, and the nablas the predicates decide skip the J check."""
        calls = _count_calls(monkeypatch, "check_tuple", "_check_J")
        predicate(w.hermitian_params(5, 4), (12, 0, 0, 0), method)
        assert calls == {}

    @pytest.mark.parametrize("op", SCALAR_OPS.values(), ids=SCALAR_OPS)
    def test_scalar_op_reads_once(self, monkeypatch, op):
        """Each scalar op makes one pass: one checked signature read, one
        curve-table lookup and, for a nabla, one J check."""
        calls = _count_calls(monkeypatch, "check_tuple", "_check_J", "_query", "_residue_table")
        for beta in [(2, 3, 3), (-1, 4, 9), iter((12, 0, 0))]:
            calls.clear()
            op(P453, beta)
            nabla = op is SCALAR_OPS["nabla_J_empty"]
            assert calls == {"_query": 1, "_residue_table": 1, **({"_check_J": 1} if nabla else {})}

    @pytest.mark.parametrize("predicate", [w.is_maximal, w.is_absolute_maximal,
                                           w.is_relative_maximal])
    def test_bad_method_raises_only_at_a_nabla(self, predicate):
        assert predicate(P453, (0, 0, 1), "bogus") is False  # no member
        with pytest.raises(w.WsgapError, match="^unknown nabla method 'bogus'$"):
            predicate(P453, (11, 1, 1), "bogus")


class TestRelMaxEquivalence:
    def test_relative_maximal_all_true(self):
        rep = w.check_relmax_equivalence(P453, (3, 3, 3))
        assert rep.definition and rep.dimension_step and rep.pivot_exists
        assert rep.agree

    def test_absolute_maximal_all_false(self):
        rep = w.check_relmax_equivalence(P453, (6, 1, 1))
        assert not (rep.definition or rep.dimension_step or rep.pivot_exists)
        assert rep.agree

    def test_non_member_all_false(self):
        rep = w.check_relmax_equivalence(P453, (0, 0, 1))
        assert not (rep.definition or rep.dimension_step or rep.pivot_exists)
        assert rep.agree

    @given(p=params_st, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_equivalence_agrees_randomly(self, p, data):
        alpha = data.draw(tuple_st(p, -4, 2 * p.genus))
        assert w.check_relmax_equivalence(p, alpha, method="profile").agree

    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_each_singleton_nabla_decided_once(self, monkeypatch, method):
        p = w.hermitian_params(5, 4)
        singletons = collections.Counter()
        real = oracle._nabla_empty

        def counted(params, alpha, J, method):
            if len(J) == 1:
                singletons[tuple(J)] += 1
            return real(params, alpha, J, method)

        monkeypatch.setattr(oracle, "_nabla_empty", counted)
        for alpha in [(3, 3, 3, 3), (12, 0, 0, 0), (0, 0, 0, 1), (24, 1, 1, 1)]:
            singletons.clear()
            w.check_relmax_equivalence(p, alpha, method)
            assert sum(singletons.values()) <= p.m
            assert max(singletons.values()) == 1


class TestOracleProperties:
    @given(p=params_st, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_profile_matches_enumeration(self, p, data):
        beta = data.draw(tuple_st(p))
        prof = w.local_absolute_maximals(p, beta)
        fast = w.per_coord_max(p, beta)
        if prof.gamma_hat_beta:
            assert fast == prof.per_coord_max
            assert w.dim_L(p, beta) == len({g[0] for g in prof.gamma_hat_beta})
        else:
            assert fast is None
            assert w.dim_L(p, beta) == 0

    @given(p=params_st, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_theta_invariance(self, p, data):
        alpha = data.draw(tuple_st(p))
        d = data.draw(st.tuples(*([st.integers(-2, 2)] * (p.m - 1))))
        shifted = add(alpha, w.theta_vector(p, d))
        assert w.is_member(p, alpha) == w.is_member(p, shifted)

    @given(p=params_st, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_two_genus_rule(self, p, data):
        alpha = list(data.draw(tuple_st(p)))
        alpha[0] += max(0, 2 * p.genus - sum(alpha))
        assert w.is_member(p, tuple(alpha))

    @given(p=params_st, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_lub_closure(self, p, data):
        reps = w.relative_maximals_region(p).region_reps
        idx = st.integers(0, len(reps) - 1)
        shifts = st.tuples(*([st.integers(-2, 2)] * (p.m - 1)))
        x = add(reps[data.draw(idx)], w.theta_vector(p, data.draw(shifts)))
        y = add(reps[data.draw(idx)], w.theta_vector(p, data.draw(shifts)))
        assert w.is_member(p, x) and w.is_member(p, y)
        assert w.is_member(p, w.lub([x, y]))

    @given(p=params_st, data=st.data())
    @settings(max_examples=80, deadline=None)
    def test_dimension_steps_and_membership(self, p, data):
        alpha = data.draw(tuple_st(p))
        dim = w.dim_L(p, alpha)
        steps = []
        for i in range(p.m):
            down = tuple(c - (1 if k == i else 0) for k, c in enumerate(alpha))
            steps.append(dim - w.dim_L(p, down))
        assert all(s in (0, 1) for s in steps)
        assert w.is_member(p, alpha) == all(s == 1 for s in steps)

    @given(p=params_st, data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_riemann_roch_regime(self, p, data):
        alpha = list(data.draw(tuple_st(p)))
        deficit = 2 * p.genus - 1 - sum(alpha)
        if deficit > 0:
            alpha[0] += deficit
        assert w.dim_L(p, tuple(alpha)) == sum(alpha) - p.genus + 1

    @given(p=params_st, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_nabla_methods_agree(self, p, data):
        alpha = data.draw(tuple_st(p, -3, 2 * p.genus - 1))
        size = data.draw(st.integers(1, p.m - 1))
        J = data.draw(st.permutations(range(1, p.m + 1)))[:size]
        assert w.nabla_J_empty(p, alpha, J, "search") == \
            w.nabla_J_empty(p, alpha, J, "profile")

    @given(p=params_st, data=st.data())
    @settings(max_examples=40, deadline=None)
    def test_membership_lub_generation(self, p, data):
        """Members are exactly the componentwise maxima of absolute
        maximals below them: each coordinate must be attained."""
        beta = data.draw(tuple_st(p))
        prof = w.local_absolute_maximals(p, beta)
        attained = prof.gamma_hat_beta and all(
            any(g[k] == beta[k] for g in prof.gamma_hat_beta) for k in range(p.m))
        assert w.is_member(p, beta) == bool(attained)


def _box_reference(p, lo, hi):
    """Membership, dimension and envelope on every tuple of [lo, hi]^m,
    by filtering the explicit enumeration below the corner (hi, ..., hi):
    an absolute maximal is <= a tuple of the box exactly when it is in
    that enumeration and <= the tuple."""
    m = p.m
    gammas = np.array(w.local_absolute_maximals(p, (hi,) * m).gamma_hat_beta,
                      dtype=np.int64).reshape(-1, m)
    # the enumeration is sorted, so rows with equal first coordinates are adjacent
    starts = np.flatnonzero(np.r_[True, np.diff(gammas[:, 0]) != 0])
    betas = np.array(list(itertools.product(range(lo, hi + 1), repeat=m)),
                     dtype=np.int64).reshape(-1, m)
    for chunk in np.array_split(betas, max(1, len(betas) // 2048)):
        below = (gammas[None, :, :] <= chunk[:, None, :]).all(axis=2)
        dims = (np.logical_or.reduceat(below, starts, axis=1).sum(axis=1)
                if len(gammas) else np.zeros(len(chunk), dtype=np.int64))
        none = np.iinfo(np.int64).min
        tops = np.stack([np.where(below, gammas[:, k], none).max(axis=1, initial=none)
                         for k in range(m)], axis=1)
        for beta, dim, top, any_below in zip(chunk.tolist(), dims.tolist(),
                                             tops.tolist(), below.any(axis=1).tolist()):
            pcm = tuple(top) if any_below else None
            yield tuple(beta), pcm == tuple(beta), dim, pcm


# Small curves, m = a + 1 included, on the box [-b-2, 2g+b]^m
KERNEL_CELLS = [w.curve_params(2, 3, 2), w.curve_params(2, 3, 3),
                w.hermitian_params(3, 2), w.hermitian_params(3, 3), w.hermitian_params(3, 4),
                w.curve_params(5, 7, 2), w.curve_params(4, 3, 3), w.curve_params(5, 3, 2)]


class TestResidueKernel:
    @pytest.mark.parametrize("p", KERNEL_CELLS, ids=str)
    def test_matches_enumeration_on_box(self, p):
        lo, hi = -p.b - 2, 2 * p.genus + p.b
        for beta, member, dim, pcm in _box_reference(p, lo, hi):
            assert w.is_member(p, beta) is member, beta
            assert w.dim_L(p, beta) == dim, beta
            assert w.per_coord_max(p, beta) == pcm, beta

    def test_box_reference_matches_per_tuple_enumeration(self):
        p = w.curve_params(2, 3, 3)
        lo, hi = -p.b - 2, 2 * p.genus + p.b
        for beta, member, dim, pcm in _box_reference(p, lo, hi):
            prof = w.local_absolute_maximals(p, beta)
            assert dim == len({g[0] for g in prof.gamma_hat_beta})
            assert pcm == (prof.per_coord_max if prof.gamma_hat_beta else None)

    @pytest.mark.parametrize("p", KERNEL_CELLS, ids=str)
    def test_nabla_profile_matches_search(self, p):
        rng = random.Random(p.a * 1000 + p.b * 10 + p.m)
        lo, hi = -p.b - 2, 2 * p.genus + p.b
        subsets = [J for size in range(1, p.m)
                   for J in itertools.combinations(range(1, p.m + 1), size)]
        for _ in range(60):
            alpha = tuple(rng.randint(lo, hi) for _ in range(p.m))
            for J in subsets:
                assert w.nabla_J_empty(p, alpha, J, "profile") == \
                    w.nabla_J_empty(p, alpha, J, "search"), (alpha, J)


# The curves of the benchmark's oracle query stream
STREAM_CURVES = [w.hermitian_params(8, 3), w.hermitian_params(16, 2), w.hermitian_params(5, 4),
                 w.norm_trace_params(2, 4, 4)]


def _stream_sample(p, count):
    """``count`` seeded tuples of [-b-2, 2g+b]^m, then ``count`` whose
    coordinates 2..m take at most two residues mod b, mostly one: a
    residue's count is the index of its first occurrence among them."""
    rng = random.Random(p.a * 1000 + p.b * 10 + p.m)
    lo, hi = -p.b - 2, 2 * p.genus + p.b
    out = [tuple(rng.randint(lo, hi) for _ in range(p.m)) for _ in range(count)]
    for _ in range(count):
        first, other = rng.sample(range(p.b), 2)
        residues = [rng.choice((first, first, other)) for _ in range(p.m - 1)]
        out.append((rng.randint(lo, hi),
                    *[rng.choice(range(lo + (s - lo) % p.b, hi + 1, p.b)) for s in residues]))
    return out


@pytest.mark.parametrize("p,count", list(zip(STREAM_CURVES, (60, 60, 60, 20))), ids=str)
def test_stream_curves_match_enumeration(p, count):
    subsets = [J for size in range(1, p.m)
               for J in itertools.combinations(range(1, p.m + 1), size)]
    for beta in _stream_sample(p, count):
        prof = w.local_absolute_maximals(p, beta)
        pcm = prof.per_coord_max if prof.gamma_hat_beta else None
        assert w.per_coord_max(p, beta) == pcm, beta
        assert w.is_member(p, beta) is (pcm == beta), beta
        assert w.dim_L(p, beta) == len({g[0] for g in prof.gamma_hat_beta}), beta
        for J in subsets:
            assert w.nabla_J_empty(p, beta, J, "profile") == \
                w.nabla_J_empty(p, beta, J, "search"), (beta, J)


# Large b (33 and 35), with many signatures per curve, and m = a + 1 cells
# with b > a and b < a: only the latter has envelopes with all but one
# family feasible that fall short of beta
EDGE_CURVES = [w.hermitian_params(32, 2), w.curve_params(3, 35, 4), w.curve_params(3, 8, 4),
               w.curve_params(4, 3, 5)]


@pytest.mark.parametrize("p,count", list(zip(EDGE_CURVES, (40, 8, 40, 40))), ids=str)
def test_signature_store_matches_enumeration(p, count, monkeypatch):
    """The four scalar ops against the enumeration, and nabla profile
    against search, once with a store of two tables (evicted all the
    time) and once at the default cap."""
    subsets = [J for size in range(1, p.m)
               for J in itertools.combinations(range(1, p.m + 1), size)]
    betas = _stream_sample(p, count)
    expected = []
    for beta in betas:
        prof = w.local_absolute_maximals(p, beta)
        pcm = prof.per_coord_max if prof.gamma_hat_beta else None
        expected.append((pcm == beta, len({g[0] for g in prof.gamma_hat_beta}), pcm))
    searched = None
    for cap in (2, oracle.SIGNATURE_CAP):
        monkeypatch.setattr(oracle, "SIGNATURE_CAP", cap)
        oracle._residue_table.cache_clear()
        assert [(w.is_member(p, beta), w.dim_L(p, beta), w.per_coord_max(p, beta))
                for beta in betas] == expected
        nablas = {method: [w.nabla_J_empty(p, beta, J, method) for beta in betas for J in subsets]
                  for method in ("search", "profile")}
        assert nablas["profile"] == nablas["search"]
        assert searched in (None, nablas["search"])
        searched = nablas["search"]
        assert len(oracle._residue_table(p.a, p.b, p.m)[2]) <= cap
    oracle._residue_table.cache_clear()


def _product_filter_maximals(p, beta):
    """``local_absolute_maximals`` in its earlier form: the whole box of
    shifts d, dropping every d with sum(d) < smin."""
    b, m = p.b, p.m
    found = []
    for rep in w.absolute_maximals_region(p).region_reps:
        U = [(beta[j] - rep[j]) // b for j in range(1, m)]
        smin = -((beta[0] - rep[0]) // b)
        lo = [smin - (sum(U) - U[j]) for j in range(m - 1)]
        for d in itertools.product(*(range(lo[j], U[j] + 1) for j in range(m - 1))):
            if sum(d) < smin:
                continue
            found.append(tuple([rep[0] - b * sum(d)] + [rep[j + 1] + b * d[j] for j in range(m - 1)]))
    return tuple(sorted(set(found)))


@pytest.mark.parametrize("p", list(w.sweep_cells()) + STREAM_CURVES, ids=str)
def test_enumeration_matches_product_filter(p):
    rng = random.Random(p.a * 1000 + p.b * 10 + p.m)
    lo, hi = -p.b - 2, 2 * p.genus + p.b
    for _ in range(12):
        beta = tuple(rng.randint(lo, hi) for _ in range(p.m))
        assert w.local_absolute_maximals(p, beta).gamma_hat_beta == \
            _product_filter_maximals(p, beta), beta


ORACLE_OPS = {
    "is_member": w.is_member,
    "dim_L": w.dim_L,
    "per_coord_max": w.per_coord_max,
    "nabla_search": lambda p, beta: w.nabla_J_empty(p, beta, (2,), "search"),
    "nabla_profile": lambda p, beta: w.nabla_J_empty(p, beta, (2,), "profile"),
    "is_maximal": w.is_maximal,
    "is_absolute_maximal": w.is_absolute_maximal,
    "is_relative_maximal": w.is_relative_maximal,
    "relmax_equivalence": w.check_relmax_equivalence,
}


class TestInputForms:
    @pytest.mark.parametrize("op", ORACLE_OPS.values(), ids=ORACLE_OPS)
    def test_one_point_raises(self, op):
        with pytest.raises(w.BadPointCountError, match="^the oracle needs m >= 2$"):
            op(w.curve_params(4, 5, 1), (0,))

    @pytest.mark.parametrize("op", ORACLE_OPS.values(), ids=ORACLE_OPS)
    @pytest.mark.parametrize("beta", [(1, 2), (1, 2, 3, 4), ()])
    def test_wrong_length_message(self, op, beta):
        with pytest.raises(w.WsgapError) as err:
            op(P453, beta)
        assert str(err.value) == f"expected a tuple of length m=3, got {beta!r}"

    @pytest.mark.parametrize("op", ORACLE_OPS.values(), ids=ORACLE_OPS)
    def test_non_int_coordinate_message(self, op):
        with pytest.raises(w.WsgapError) as err:
            op(P453, [2, 3.0, 3])
        assert str(err.value) == "tuple coordinates must be integers, got (2, 3.0, 3)"

    @pytest.mark.parametrize("op", ORACLE_OPS.values(), ids=ORACLE_OPS)
    def test_list_and_one_shot_generator(self, op):
        # a second pass over a generator would see no coordinates
        for beta in [(2, 3, 3), (1, 1, 1), (12, 0, 0), (-1, 4, 9), (3, 3, 8)]:
            want = op(P453, beta)
            assert op(P453, list(beta)) == want
            assert op(P453, (c for c in beta)) == want

    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_J_forms(self, method):
        for alpha in [(3, 3, 3), (0, 0, 0), (2, 3, 3), (6, 1, 1), (11, 1, 1)]:
            for J in [(2, 3), (1,), (1, 3)]:
                want = w.nabla_J_empty(P453, alpha, J, method)
                assert w.nabla_J_empty(P453, alpha, set(J), method) is want
                assert w.nabla_J_empty(P453, alpha, (j for j in reversed(J)), method) is want
                assert w.nabla_J_empty(P453, alpha, J + J[:1], method) is want

    @pytest.mark.parametrize("method", ["search", "profile", "bogus"])
    @pytest.mark.parametrize("J,message", [
        ((), "J must be nonempty"),
        ((0,), "J must contain point indices in 1..3, got [0]"),
        ((4, 1), "J must contain point indices in 1..3, got [4, 1]"),
        ((1, True), "J must contain point indices in 1..3, got [1, True]"),
        ((1, 2, 3), "J must be a proper subset of the point indices"),
        ((3, 1, 2, 3), "J must be a proper subset of the point indices"),
    ])
    def test_J_messages_before_method(self, method, J, message):
        for form in (tuple, list, iter):
            with pytest.raises(w.WsgapError) as err:
                w.nabla_J_empty(P453, (3, 3, 3), form(J), method)
            assert str(err.value) == message

    def test_unknown_method_after_J(self):
        with pytest.raises(w.WsgapError) as err:
            w.nabla_J_empty(P453, (3, 3, 3), (1,), "bogus")
        assert str(err.value) == "unknown nabla method 'bogus'"

    @pytest.mark.parametrize("method", ["search", "profile"])
    def test_alpha_checked_before_J(self, method):
        for alpha, message in [((1, 2), "expected a tuple of length m=3, got (1, 2)"),
                               ((True, 0, 0), "tuple coordinates must be integers, "
                                              "got (True, 0, 0)")]:
            for J in [(), (0,), (1, 2, 3)]:
                with pytest.raises(w.WsgapError) as err:
                    w.nabla_J_empty(P453, alpha, J, method)
                assert str(err.value) == message
        with pytest.raises(w.BadPointCountError):
            w.nabla_J_empty(w.curve_params(4, 5, 1), (0,), (), method)


class TestOracleCaches:
    def test_no_unbounded_or_per_tuple_cache(self):
        tree = ast.parse(Path(oracle.__file__).read_text())
        cached = {}
        for node in ast.walk(tree):
            if not isinstance(node, ast.FunctionDef):
                continue
            for dec in node.decorator_list:
                name = dec.func if isinstance(dec, ast.Call) else dec
                if getattr(name, "id", getattr(name, "attr", None)) in (
                        "lru_cache", "cache", "curve_cache"):
                    cached[node.name] = dec
        # one per-curve table, keyed by the curve alone, in the bounded registry
        assert set(cached) == {"_residue_table"}
        assert oracle._residue_table in core.CURVE_CACHES
        assert oracle._residue_table.cache_parameters()["maxsize"] == core.CURVE_CACHE_SIZE

    def test_preset_curve_fills_one_region_entry(self):
        """The residue table and the region family read the same
        representatives, for a preset curve, whose ``field_size`` is set."""
        p = w.hermitian_params(8, 3)
        core.clear_curve_caches()
        try:
            w.is_member(p, (1, 2, 3))
            region = w.absolute_maximals_region(p)
            assert region.region_reps == w.maximals.absolute_reps(p.a, p.b, p.m)
        finally:
            core.clear_curve_caches()

    def test_signature_store_stays_bounded(self):
        """A long-lived process that meets more than cap + 100 signatures on
        one curve keeps at most cap tables, and an evicted one comes back
        with the same answers."""
        p = w.curve_params(3, 35, 4)
        cap = oracle.SIGNATURE_CAP
        signatures = list(itertools.islice(
            itertools.combinations_with_replacement(range(p.b), p.m - 1), cap + 101))
        assert len(signatures) == cap + 101
        oracle._residue_table.cache_clear()
        try:
            store = oracle._residue_table(p.a, p.b, p.m)[2]
            first = (p.b, *signatures[0])
            before = (w.is_member(p, first), w.dim_L(p, first), w.per_coord_max(p, first))
            for S in signatures:
                w.is_member(p, (0, *S))
            assert len(store) == cap  # the first 101 signatures were evicted
            assert (w.is_member(p, first), w.dim_L(p, first), w.per_coord_max(p, first)) == before
            assert len(store) <= cap
        finally:
            oracle._residue_table.cache_clear()

    def test_table_cache_stays_bounded(self):
        maxsize = oracle._residue_table.cache_info().maxsize
        cells = [w.curve_params(a, b, 2) for a in (2, 3) for b in range(3, 40)
                 if b % a][:maxsize + 3]
        assert len(cells) > maxsize
        for p in cells:
            assert w.is_member(p, (0, 0))
        assert oracle._residue_table.cache_info().currsize <= maxsize

    def test_key_weights_filled_on_first_use(self):
        """A query at b = 65535 computes the m**s of its own residues only,
        not all b of them (O(b**2 log m) bits)."""
        p = w.curve_params(65536, 65535, 2)
        oracle._residue_table.cache_clear()
        try:
            assert w.is_member(p, (1, 1)) is False
            weights = oracle._residue_table(p.a, p.b, p.m)[2].weights
            assert len(weights) == p.b
            assert sum(map(bool, weights)) <= p.m - 1
            assert weights[1] == p.m
        finally:
            oracle._residue_table.cache_clear()
