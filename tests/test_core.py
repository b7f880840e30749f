import ast
import copy
import dataclasses
import functools
import importlib
import pathlib
import pickle
import warnings

import pytest
from hypothesis import given, strategies as st

import wsgap as w
from wsgap.core import add, box_tuples, check_tuple

POOL = [w.curve_params(a, b, m) for a, b, m in
        [(2, 3, 2), (3, 4, 3), (4, 5, 2), (4, 5, 3), (4, 7, 3), (5, 9, 4), (2, 5, 2)]]

coords = st.integers(min_value=-30, max_value=30)


def tuples_st(n: int):
    return st.tuples(*([coords] * n))


params_st = st.sampled_from(POOL)


class TestCurveParams:
    def test_hermitian_genus(self):
        p = w.curve_params(4, 5, 3, field_size=16)
        assert p.genus == 6

    def test_norm_trace_genus(self):
        p = w.curve_params(4, 7, 3, field_size=8)
        assert p.genus == 9

    def test_not_coprime(self):
        with pytest.raises(w.NotCoprimeError):
            w.curve_params(4, 6, 2)

    @pytest.mark.parametrize("m", [0, -1, 6])
    def test_bad_point_count(self, m):
        with pytest.raises(w.BadPointCountError):
            w.curve_params(4, 5, m)

    def test_m_one_allowed(self):
        assert w.curve_params(4, 5, 1).m == 1

    def test_small_degrees_rejected(self):
        with pytest.raises(w.WsgapError):
            w.curve_params(1, 5, 1)

    def test_huge_degrees_rejected(self):
        with pytest.raises(w.WsgapError):
            w.curve_params(2, (1 << 16) + 1, 2)

    def test_genus_mismatch_rejected(self):
        with pytest.raises(w.WsgapError):
            w.CurveParams(a=4, b=5, m=3, genus=7)

    def test_field_too_small_warns(self):
        with pytest.warns(w.FieldTooSmallWarning):
            w.curve_params(4, 5, 3, field_size=2)

    def test_field_large_enough_silent(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            w.curve_params(4, 5, 3, field_size=16)

    # True is 1, a valid m and the genus of (2, 3); the other fields reject
    # 1 anyway, so the message must name the type
    @pytest.mark.parametrize("field", ["a", "b", "m", "field_size"])
    def test_curve_params_rejects_bool(self, field):
        kwargs = {**dict(a=2, b=3, m=1, field_size=2), field: True}
        with pytest.raises(w.WsgapError, match="integer"):
            w.curve_params(**kwargs)

    @pytest.mark.parametrize("field", ["a", "b", "m", "genus", "field_size"])
    def test_constructor_rejects_bool(self, field):
        kwargs = {**dict(a=2, b=3, m=1, genus=1, field_size=2), field: True}
        with pytest.raises(w.WsgapError, match="integer"):
            w.CurveParams(**kwargs)

    @pytest.mark.parametrize("field_size", [None, 16])
    def test_hash_cached_and_pickled_without_it(self, field_size):
        p = w.curve_params(4, 5, 3, field_size)
        q = w.CurveParams(a=4, b=5, m=3, genus=6, field_size=field_size)
        assert p == q and hash(p) == hash(q)
        # the value the generated dataclass hash gives
        assert hash(p) == hash((4, 5, 3, 6, field_size))
        assert repr(p) == f"CurveParams(a=4, b=5, m=3, genus=6, field_size={field_size})"
        data = pickle.dumps(p)
        assert b"_hash" not in data
        back = pickle.loads(data)
        assert back == p and hash(back) == hash(p)
        assert {p: 1}[back] == 1


class TestPresets:
    def test_norm_trace_is_hermitian_at_r2(self):
        assert w.norm_trace_params(4, 2, 3) == w.curve_params(4, 5, 3, field_size=16)
        assert w.hermitian_params(4, 3) == w.norm_trace_params(4, 2, 3)

    def test_norm_trace_l2_r3(self):
        assert w.norm_trace_params(2, 3, 3) == w.curve_params(4, 7, 3, field_size=8)

    def test_ell_must_be_prime_power(self):
        with pytest.raises(w.WsgapError):
            w.norm_trace_params(6, 2, 2)

    def test_r_must_be_at_least_two(self):
        with pytest.raises(w.WsgapError):
            w.norm_trace_params(4, 1, 2)

    @pytest.mark.parametrize("n,expected", [
        (2, True), (4, True), (9, True), (27, True), (1, False),
        (6, False), (12, False), (100, False), (121, True),
    ])
    def test_is_prime_power(self, n, expected):
        assert w.is_prime_power(n) is expected


class TestLubGlb:
    def test_lub_examples(self):
        assert w.lub([(11, 1, 1), (1, 11, 1)]) == (11, 11, 1)
        assert w.lub([(0, 0, 0)]) == (0, 0, 0)
        assert w.lub([(6, 1, 6), (6, 6, 1), (1, 6, 6)]) == (6, 6, 6)

    def test_glb_examples(self):
        assert w.glb([(1, 6, 6), (6, 1, 6), (6, 6, 1)]) == (1, 1, 1)
        assert w.glb([(0, 0, 0)]) == (0, 0, 0)
        assert w.glb([(2, 2, 7), (6, 1, 6), (7, 2, 2)]) == (2, 1, 2)

    @pytest.mark.parametrize("fn", [w.lub, w.glb])
    def test_empty_input(self, fn):
        with pytest.raises(w.EmptyInputError):
            fn([])

    @pytest.mark.parametrize("fn", [w.lub, w.glb])
    def test_mixed_lengths(self, fn):
        with pytest.raises(w.WsgapError):
            fn([(1, 2), (1, 2, 3)])

    @given(ts=st.lists(tuples_st(3), min_size=1, max_size=5))
    def test_lub_glb_fold_properties(self, ts):
        # idempotent, commutative, associative as folds
        assert w.lub(ts) == w.lub(list(reversed(ts)))
        assert w.glb(ts) == w.glb(list(reversed(ts)))
        assert w.lub(ts + ts) == w.lub(ts)
        assert w.glb(ts + [w.glb(ts)]) == w.glb(ts)
        split = max(1, len(ts) // 2)
        assert w.lub([w.lub(ts[:split]), w.lub(ts[split:] or ts[:1])]) == \
            w.lub(ts + ts[:1])

    @given(t=tuples_st(4))
    def test_glb_lub_bound_single(self, t):
        assert w.lub([t]) == t == w.glb([t])


class TestTheta:
    def test_vector_needs_two_points(self):
        with pytest.raises(w.BadPointCountError):
            w.theta_vector(w.curve_params(4, 5, 1), ())

    @given(p=params_st, data=st.data())
    def test_theta_vector_spans_same_lattice(self, p, data):
        d = data.draw(st.tuples(*([st.integers(-3, 3)] * (p.m - 1))))
        vec = w.theta_vector(p, d)
        assert sum(vec) == 0
        assert all(c % p.b == 0 for c in vec)


class TestReduceToRegion:
    def test_example_pull_shift_into_first(self):
        p = w.curve_params(4, 5, 3)
        rep, d = w.reduce_to_region(p, (1, 6, 6))
        assert rep == (11, 1, 1)
        assert d == (-1, -1)

    def test_example_already_reduced(self):
        p = w.curve_params(4, 5, 3)
        assert w.reduce_to_region(p, (3, 3, 3)) == ((3, 3, 3), (0, 0))

    def test_example_negative_coordinate(self):
        p = w.curve_params(4, 5, 3)
        rep, d = w.reduce_to_region(p, (0, -1, 0))
        assert rep == (-5, 4, 0)
        assert d == (1, 0)

    @given(p=params_st, data=st.data())
    def test_reduction_properties(self, p, data):
        alpha = data.draw(tuples_st(p.m))
        rep, d = w.reduce_to_region(p, alpha)
        assert all(0 <= c < p.b for c in rep[1:])
        assert sum(rep) == sum(alpha)
        assert rep == add(alpha, w.theta_vector(p, d))
        # idempotent
        assert w.reduce_to_region(p, rep) == (rep, (0,) * (p.m - 1))

    @given(p=params_st, data=st.data())
    def test_reduction_lattice_invariant(self, p, data):
        alpha = data.draw(tuples_st(p.m))
        d = data.draw(st.tuples(*([st.integers(-3, 3)] * (p.m - 1))))
        shifted = add(alpha, w.theta_vector(p, d))
        assert w.reduce_to_region(p, shifted)[0] == w.reduce_to_region(p, alpha)[0]


class TestBox:
    def test_lexicographic_order(self):
        box = w.Box(lo=(0, 0), hi=(1, 1))
        assert list(box_tuples(box)) == [(0, 0), (0, 1), (1, 0), (1, 1)]

    def test_single_cell(self):
        box = w.Box(lo=(3, 3, 3), hi=(3, 3, 3))
        assert list(box_tuples(box)) == [(3, 3, 3)]

    def test_cardinality(self):
        box = w.Box(lo=(0, 0, 0), hi=(11, 11, 11))
        assert box.cell_count() == 12**3
        assert sum(1 for _ in box_tuples(box)) == 12**3

    def test_invalid_bounds(self):
        with pytest.raises(w.WsgapError):
            w.Box(lo=(0, 2), hi=(5, 1))

    def test_contains(self):
        box = w.Box(lo=(-1, 0), hi=(1, 3))
        assert (0, 3) in box and (2, 0) not in box


def _records():
    """One instance of every record type of the package."""
    p = w.curve_params(4, 5, 3, field_size=16)
    return [
        w.Box(lo=(0, 0), hi=(1, 2)),
        p,
        w.absolute_maximals_region(p),
        w.local_absolute_maximals(p, (12, 0, 0)),
        w.check_relmax_equivalence(p, (1, 6, 6)),
        w.gaps(p),
        w.sigma_pair(w.curve_params(4, 5, 2)),
        w.builtin_fixtures()[0],
        w.CheckResult("x", "property", True),
    ]


def _dataclass_twin(record):
    """The same values in a frozen dataclass of the same name and fields."""
    cls = type(record)
    fields = [(name, object, dataclasses.field(default=cls._defaults[name]))
              if name in cls._defaults else (name, object) for name in cls._fields]
    twin = dataclasses.make_dataclass(cls.__name__, fields, frozen=True)
    return twin(*(getattr(record, name) for name in cls._fields))


def _values(record):
    """The field values of a record, with row sets as their tuples."""
    return [value.tuples if isinstance(value, w.TupleRows) else value
            for value in (getattr(record, name) for name in record._fields)]


def _unchecked(cls, **fields):
    """A record built around its constructor, so it skips validation."""
    record = object.__new__(cls)
    for name, value in fields.items():
        object.__setattr__(record, name, value)
    return record


class TestRecord:
    """The frozen-record base behaves as the frozen dataclasses it replaced."""

    @pytest.mark.parametrize("record", _records(), ids=lambda r: type(r).__name__)
    def test_repr_eq_hash_match_frozen_dataclass(self, record):
        twin = _dataclass_twin(record)
        assert repr(record) == repr(twin)
        same = type(record)(*(getattr(record, name) for name in record._fields))
        assert record == same and not record != same
        # another type, even with equal fields, is left to its own __eq__
        assert record.__eq__(twin) is NotImplemented and record != twin
        if isinstance(record, w.GapReport):  # its stats dict is unhashable
            with pytest.raises(TypeError):
                hash(record)
        else:
            assert hash(record) == hash(same) == hash(twin)

    def test_unequal_when_a_field_differs(self):
        assert w.Box((0, 0), (1, 2)) != w.Box((0, 0), (1, 3))
        assert w.CheckResult("x", "fixture", True) != w.CheckResult("x", "fixture", True, ms=1.0)

    def test_fields_cannot_be_assigned_or_deleted(self):
        box = w.Box((0, 0), (1, 2))
        with pytest.raises(AttributeError, match="cannot assign to field 'lo'"):
            box.lo = (1, 1)
        with pytest.raises(AttributeError, match="cannot delete field 'hi'"):
            del box.hi
        with pytest.raises(AttributeError):
            box.extra = 1
        p = w.curve_params(4, 5, 3)
        with pytest.raises(AttributeError, match="cannot assign to field '_hash'"):
            p._hash = 0
        assert box == w.Box((0, 0), (1, 2)) and hash(p) == hash((4, 5, 3, 6, None))

    def test_constructor_binds_like_a_dataclass(self):
        assert w.Box((0,), hi=(1,)) == w.Box(lo=(0,), hi=(1,))
        assert w.CheckResult("x", "fixture", False).detail == ""
        assert w.CheckResult("x", "fixture", False, ms=2.0).ms == 2.0
        for args, kwargs in [(((0,),), {}), (((0,), (1,), (2,)), {}),
                             (((0,), (1,)), {"lo": (1,)}),
                             ((), {"lo": (0,), "hi": (1,), "x": 1})]:
            with pytest.raises(TypeError):
                w.Box(*args, **kwargs)

    @pytest.mark.parametrize("clone", [copy.copy, copy.deepcopy,
                                       lambda r: pickle.loads(pickle.dumps(r))],
                             ids=["copy", "deepcopy", "pickle"])
    def test_copies_round_trip_through_the_constructor(self, clone):
        for record in _records():
            back = clone(record)
            assert type(back) is type(record)
            # row sets compare by identity, and a deep copy makes new ones
            assert _values(back) == _values(record)
        # the constructor's validation runs on the copy
        bad = _unchecked(w.Box, lo=(2,), hi=(1,))
        with pytest.raises(w.WsgapError, match="lower bound exceeds"):
            clone(bad)
        with pytest.warns(w.FieldTooSmallWarning):
            small = w.curve_params(4, 5, 3, field_size=2)
        with pytest.warns(w.FieldTooSmallWarning):
            assert clone(small) == small


def test_check_tuple_validates_length_and_type():
    p = w.curve_params(4, 5, 3)
    assert check_tuple(p, [1, 2, 3]) == (1, 2, 3)
    assert check_tuple(p, (c for c in (1, 2, 3))) == (1, 2, 3)
    with pytest.raises(w.WsgapError, match=r"^expected a tuple of length m=3, got \(1, 2\)$"):
        check_tuple(p, (1, 2))
    # the length is checked before the coordinates
    with pytest.raises(w.WsgapError, match=r"^expected a tuple of length m=3, got \(1, 'x'\)$"):
        check_tuple(p, (1, "x"))
    for bad in [(1, 2, "x"), (1, 2, 3.0), (True, 2, 3), (1, 2, None)]:
        with pytest.raises(w.WsgapError, match=r"^tuple coordinates must be integers, got \("):
            check_tuple(p, bad)


def test_library_has_no_assert():
    # python -O strips assert statements, so invariants must raise instead
    offenders = []
    for path in sorted(pathlib.Path(w.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        offenders += [f"{path.name}:{node.lineno}" for node in ast.walk(tree)
                      if isinstance(node, ast.Assert)]
    assert offenders == []


def test_library_has_no_unused_import():
    # a top-level import that no name in its module reads is a leftover
    offenders = []
    for path in sorted(pathlib.Path(w.__file__).parent.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                offenders += [f"{path.name}:{node.lineno} {alias.name}" for alias in node.names
                              if (alias.asname or alias.name.partition(".")[0]) not in used]
    assert offenders == []


def test_every_per_curve_cache_is_registered():
    """Every ``lru_cache`` of the package sized ``CURVE_CACHE_SIZE`` is in
    the registry that ``clear_curve_caches`` empties, and is still a plain
    ``lru_cache`` object."""
    from wsgap import core

    found = set()
    for path in sorted(pathlib.Path(w.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"wsgap.{path.stem}" if path.stem != "__init__"
                                         else "wsgap")
        for value in vars(module).values():
            params = getattr(value, "cache_parameters", None)
            if callable(params) and params()["maxsize"] == core.CURVE_CACHE_SIZE:
                found.add(value)
    assert {f"{f.__module__}.{f.__name__}" for f in found} == {
        "wsgap.gapsets._plan", "wsgap.maximals._lambda_nonneg", "wsgap.oracle._residue_table"}
    assert found <= set(core.CURVE_CACHES)
    assert len(set(map(id, core.CURVE_CACHES))) == len(core.CURVE_CACHES)
    assert all(type(f) is type(functools.lru_cache(maxsize=1)(len)) for f in core.CURVE_CACHES)


def test_clear_curve_caches_empties_every_registered_cache():
    from wsgap import core

    p = w.hermitian_params(3, 3)
    w.gaps(p, "union_nabla")
    w.pure_gaps(p, "intersection")
    w.sigma_pair(w.hermitian_params(3, 2))
    assert any(f.cache_info().currsize for f in core.CURVE_CACHES)
    core.clear_curve_caches()
    assert [f.cache_info().currsize for f in core.CURVE_CACHES] == [0] * len(core.CURVE_CACHES)
