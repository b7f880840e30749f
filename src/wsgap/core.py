"""Exact integer machinery shared by every other module.

The curves handled by this package have a plane model f(y) = g(x) with
deg f = a, deg g = b and gcd(a, b) = 1, together with rational points
P_1, ..., P_{a+1} such that a*P_1 is equivalent to P_2 + ... + P_{a+1}
and b*P_1 is equivalent to b*P_j for every j.  Semigroup elements at the
first m of those points are plain m-tuples of integers.  This module
provides:

* validated curve parameters (including the norm-trace presets),
* componentwise least upper / greatest lower bounds,
* the rank m-1 translation lattice generated by (0,..,-b,b,..,0) steps,
  written in shift coordinates by ``theta_vector``,
* canonical reduction into the fundamental region where coordinates
  2..m lie in [0, b),
* deterministic iteration over integer boxes,
* the row form in which every tuple set moves between modules,
* ``curve_cache``, the one registry of bounded per-curve caches, and
* ``Record``, the frozen-record base of every result type of the package.

All types are immutable and all functions but the cache registry's are
pure, so everything else here is safe to use from concurrent callers.
"""

from __future__ import annotations

import functools
import itertools
import math
import warnings
from typing import Callable, Iterable, Iterator, Sequence

IntTuple = tuple[int, ...]

# Degrees above this make no sense for desk-scale exact enumeration and
# would only invite accidental huge sweeps.
MAX_DEGREE = 1 << 16

# Entries for a few recent curves in every per-curve cache of the
# package: the calls of one command or one verify cell all hit the same
# entries, and a long-lived process cannot grow the caches.
CURVE_CACHE_SIZE = 8

# Every per-curve cache of the package, in the order they were made.
CURVE_CACHES: list = []


def curve_cache(func):
    """``functools.lru_cache(maxsize=CURVE_CACHE_SIZE)`` of ``func``,
    recorded in ``CURVE_CACHES`` so that ``clear_curve_caches`` empties it.
    The cache is the plain ``lru_cache`` object, with its C call path,
    ``cache_info`` and ``cache_clear``."""
    cached = functools.lru_cache(maxsize=CURVE_CACHE_SIZE)(func)
    CURVE_CACHES.append(cached)
    return cached


def clear_curve_caches() -> None:
    """Empty every per-curve cache: ``verify`` does so after each cell."""
    for cached in CURVE_CACHES:
        cached.cache_clear()


class WsgapError(ValueError):
    """Base class for domain errors raised by this package."""


class NotCoprimeError(WsgapError):
    """The two curve degrees share a nontrivial factor."""


class BadPointCountError(WsgapError):
    """The number of points is outside the range supported by the curve."""


class EmptyInputError(WsgapError):
    """An operation that needs at least one tuple received none."""


class FieldTooSmallWarning(UserWarning):
    """The declared field size is smaller than the number of points."""


class _RecordType(type):
    """Makes the annotated names of a ``Record`` class body its fields:
    one slot each, in order, with an assigned value as the default.
    Slots the body lists itself are not fields."""

    def __new__(mcls, name, bases, ns):
        fields = tuple(ns.get("__annotations__", ()))
        ns["_defaults"] = {f: ns.pop(f) for f in fields if f in ns}
        ns["_fields"] = fields
        ns["__slots__"] = fields + tuple(ns.get("__slots__", ()))
        return super().__new__(mcls, name, bases, ns)


class Record(metaclass=_RecordType):
    """Base of the package's frozen record types.

    A subclass lists its fields as annotated names in its body, each
    with an optional default, as for a frozen dataclass.  The
    constructor takes the fields by position or keyword, then runs
    ``__post_init__``, the subclass's validation.  Fields cannot be
    assigned or deleted afterwards.  Equality, hash and repr read the
    fields in order, as a frozen dataclass's do, and pickle and copy
    rebuild a record through its constructor, so the copy is validated
    again.  (``dataclasses`` itself is not used: importing it and
    generating each class's methods cost more than a small command-line
    request computes.)
    """

    __slots__ = ()

    def __init__(self, *args, **kwargs) -> None:
        cls = type(self)
        fields = cls._fields
        values = {**cls._defaults, **dict(zip(fields, args)), **kwargs}
        # too many, repeated, unknown or missing arguments
        if (len(args) > len(fields) or not kwargs.keys().isdisjoint(fields[:len(args)])
                or values.keys() != set(fields)):
            raise TypeError(f"{cls.__name__}() takes the fields {', '.join(fields)}; "
                            f"got {len(args)} positional and {sorted(kwargs)}")
        for name in fields:
            object.__setattr__(self, name, values[name])
        self.__post_init__()

    def __post_init__(self) -> None:
        """Validate the fields: nothing to check unless a subclass says."""

    def _astuple(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._astuple() == other._astuple()

    def __hash__(self) -> int:
        return hash(self._astuple())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self) -> tuple:
        return type(self), self._astuple()


class CurveParams(Record):
    """Degrees (a, b), point count m, genus, and optional field metadata.

    ``genus`` must equal (a-1)(b-1)/2; the constructor checks it so that
    hand-built instances cannot drift from the derived value.
    ``field_size`` is metadata only: the combinatorics below never look
    at it, but several statements assume the field has at least m
    elements, hence the warning when it is declared smaller.  Every
    field is a plain ``int``: ``bool`` is an ``int`` subclass, but
    ``True`` is no point count.
    """

    # Per-curve caches hash the parameters, so the hash is computed once.
    # It stays out of pickles, which rebuild through the constructor, as
    # hash(None) differs between processes (< 3.12).
    __slots__ = ("_hash",)

    a: int
    b: int
    m: int
    genus: int
    field_size: int | None = None

    def __post_init__(self) -> None:
        for name in ("a", "b", "m", "genus"):
            if type(getattr(self, name)) is not int:
                raise WsgapError(f"{name} must be an integer")
        if self.a < 2 or self.b < 2:
            raise WsgapError("degrees a and b must both be at least 2")
        if self.a > MAX_DEGREE or self.b > MAX_DEGREE:
            raise WsgapError(f"degrees above {MAX_DEGREE} are not supported")
        if math.gcd(self.a, self.b) != 1:
            raise NotCoprimeError(f"gcd({self.a}, {self.b}) != 1")
        if not 1 <= self.m <= self.a + 1:
            raise BadPointCountError(
                f"m={self.m} outside [1, a+1]=[1, {self.a + 1}]"
            )
        if self.genus != (self.a - 1) * (self.b - 1) // 2:
            raise WsgapError(
                f"genus must be (a-1)(b-1)/2 = {(self.a - 1) * (self.b - 1) // 2}"
            )
        if self.field_size is not None:
            if type(self.field_size) is not int or self.field_size < 2:
                raise WsgapError("field_size must be an integer >= 2")
            if self.field_size < self.m:
                warnings.warn(
                    f"field_size={self.field_size} < m={self.m}",
                    FieldTooSmallWarning,
                    stacklevel=3,
                )
        object.__setattr__(self, "_hash", hash(self._astuple()))

    def __hash__(self) -> int:
        return self._hash


def curve_params(a: int, b: int, m: int, field_size: int | None = None) -> CurveParams:
    """Validate (a, b, m) and return parameters with the genus filled in."""
    if not (type(a) is int and type(b) is int and type(m) is int):
        raise WsgapError("a, b and m must be integers")
    if a < 2 or b < 2:
        raise WsgapError("degrees a and b must both be at least 2")
    return CurveParams(a=a, b=b, m=m, genus=(a - 1) * (b - 1) // 2,
                       field_size=field_size)


def is_prime_power(n: int) -> bool:
    """True when n = p**k for a prime p and k >= 1."""
    if n < 2:
        return False
    for p in range(2, math.isqrt(n) + 1):
        if n % p == 0:
            while n % p == 0:
                n //= p
            return n == 1
    return True


def norm_trace_params(ell: int, r: int, m: int) -> CurveParams:
    """Parameters of the norm-trace curve over GF(ell**r) at m points.

    The curve x**((ell**r - 1)/(ell - 1)) = y**(ell**(r-1)) + ... + y has
    a = ell**(r-1), b = (ell**r - 1)/(ell - 1), and lives over a field of
    size ell**r.
    """
    if not isinstance(ell, int) or not is_prime_power(ell):
        raise WsgapError(f"ell={ell} is not a prime power")
    if not isinstance(r, int) or r < 2:
        raise WsgapError("r must be an integer >= 2")
    a = ell ** (r - 1)
    b = (ell**r - 1) // (ell - 1)
    return curve_params(a, b, m, field_size=ell**r)


def hermitian_params(q: int, m: int) -> CurveParams:
    """The Hermitian curve over GF(q**2): the norm-trace curve with r=2."""
    return norm_trace_params(q, 2, m)


def check_tuple(params: CurveParams, t: Sequence[int]) -> IntTuple:
    """Coerce ``t`` to a tuple and check it has m integer coordinates.

    Coordinates must be plain ``int``: ``bool`` is an ``int`` subclass,
    but ``True`` is no coordinate.
    """
    out = tuple(t)
    if len(out) != params.m:
        raise WsgapError(f"expected a tuple of length m={params.m}, got {out!r}")
    for c in out:
        if type(c) is not int:
            raise WsgapError(f"tuple coordinates must be integers, got {out!r}")
    return out


def add(s: IntTuple, t: IntTuple) -> IntTuple:
    return tuple(x + y for x, y in zip(s, t, strict=True))


def lub(ts: Sequence[IntTuple]) -> IntTuple:
    """Componentwise maximum of a nonempty family of equal-length tuples."""
    if not ts:
        raise EmptyInputError("lub of an empty family")
    n = len(ts[0])
    if any(len(t) != n for t in ts):
        raise WsgapError("lub over tuples of mixed lengths")
    return tuple(max(t[k] for t in ts) for k in range(n))


def glb(ts: Sequence[IntTuple]) -> IntTuple:
    """Componentwise minimum of a nonempty family of equal-length tuples."""
    if not ts:
        raise EmptyInputError("glb of an empty family")
    n = len(ts[0])
    if any(len(t) != n for t in ts):
        raise WsgapError("glb over tuples of mixed lengths")
    return tuple(min(t[k] for t in ts) for k in range(n))


def theta_vector(params: CurveParams, d: Sequence[int]) -> IntTuple:
    """Lattice element (-b*sum(d), b*d_2, ..., b*d_m) for shifts d.

    The lattice is generated by the m-1 steps carrying -b at coordinate
    i-1 and +b at coordinate i (i = 2..m); every lattice element arises
    this way for exactly one d, so all its coordinates are divisible by b
    and sum to zero.
    """
    if params.m < 2:
        raise BadPointCountError("the translation lattice needs m >= 2")
    if len(d) != params.m - 1:
        raise WsgapError(f"expected {params.m - 1} shift entries, got {len(d)}")
    b = params.b
    return tuple([-b * sum(d)] + [b * dj for dj in d])


def reduce_to_region(params: CurveParams, alpha: Sequence[int]) -> tuple[IntTuple, IntTuple]:
    """Reduce ``alpha`` modulo the lattice into the fundamental region.

    Returns ``(rep, d)`` where ``rep`` has coordinates 2..m in [0, b),
    ``d`` lists the number of +b shifts applied to each of those
    coordinates, and ``rep == add(alpha, theta_vector(params, d))``.
    Coordinate 1 absorbs the compensating shift, so the coordinate sum
    is preserved and the representative is unique.
    """
    if params.m < 2:
        raise BadPointCountError("region reduction needs m >= 2")
    alpha = check_tuple(params, alpha)
    b = params.b
    quots = [c // b for c in alpha[1:]]
    rep = tuple([alpha[0] + b * sum(quots)] + [c - b * q for c, q in zip(alpha[1:], quots)])
    d = tuple(-q for q in quots)
    return rep, d


def in_region(params: CurveParams, t: Sequence[int]) -> bool:
    """True when coordinates 2..m of ``t`` already lie in [0, b)."""
    t = check_tuple(params, t)
    return all(0 <= c < params.b for c in t[1:])


class Box(Record):
    """Componentwise-inclusive integer box lo <= x <= hi."""

    lo: IntTuple
    hi: IntTuple

    def __post_init__(self) -> None:
        if len(self.lo) != len(self.hi):
            raise WsgapError("box bounds of different lengths")
        if not self.lo:
            raise EmptyInputError("zero-dimensional box")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise WsgapError(f"box lower bound exceeds upper bound: {self}")

    @property
    def dim(self) -> int:
        return len(self.lo)

    def cell_count(self) -> int:
        return math.prod(h - l + 1 for l, h in zip(self.lo, self.hi))

    def __contains__(self, t: object) -> bool:
        if not isinstance(t, tuple) or len(t) != self.dim:
            return False
        return all(l <= c <= h for l, c, h in zip(self.lo, t, self.hi))


def box_tuples(box: Box) -> Iterator[IntTuple]:
    """Every lattice point of the box exactly once, in lexicographic order."""
    return itertools.product(*(range(l, h + 1) for l, h in zip(box.lo, box.hi)))


def ceil_div(p: int, q: int) -> int:
    """Ceiling of p/q for positive q."""
    return -((-p) // q)


def sorted_unique(ts: Iterable[IntTuple]) -> tuple[IntTuple, ...]:
    """Canonical form for returned sets: sorted and duplicate-free."""
    return tuple(sorted(set(ts)))


class TupleRows:
    """A list of tuples in row form: consecutive tuples that share all but
    their last coordinate make one row.

    A row is a pair ``(prefix, lasts)``: the shared coordinates and the
    last coordinates of the row's tuples, never empty.  The gap routes
    hand over sorted m-tuples, so their rows come in lexicographic order
    of their prefixes and each ``lasts`` ascends; several rows may share
    one ``lasts`` tuple.

    Rows have one form, a walk and an exact length: ``walk()`` yields
    the rows afresh on every read, and ``tuples`` builds the tuples anew
    on every access, so no read keeps anything.  The constructor holds
    the ``(prefix, lasts)`` pairs, the form every walk yields; ``of``
    groups a list of tuples; ``walked`` takes any walk and its length,
    so a cache can hand rows that are never held to every caller.
    Pickle and copy rebuild rows through the constructor.
    """

    __slots__ = ("_len", "walk")

    def __init__(self, rows: Iterable[tuple[IntTuple, IntTuple]]) -> None:
        rows = tuple(rows)
        self.walk = functools.partial(iter, rows)
        self._len = sum([len(lasts) for _, lasts in rows])

    @classmethod
    def walked(cls, walk: Callable[[], Iterator[tuple[IntTuple, IntTuple]]],
               length: int) -> TupleRows:
        """The rows ``walk()`` yields in order, ``length`` tuples in all."""
        rows = cls.__new__(cls)
        rows._len, rows.walk = length, walk
        return rows

    def __reduce__(self) -> tuple:
        return TupleRows, (tuple(self.rows()),)

    @classmethod
    def of(cls, tuples: Iterable[IntTuple]) -> TupleRows:
        """The rows of ``tuples`` in the given order, unsorted: each run of
        consecutive tuples that share all but their last coordinate."""
        return cls((prefix, tuple([t[-1] for t in run]))
                   for prefix, run in itertools.groupby(tuples, lambda t: t[:-1]))

    def __len__(self) -> int:
        return self._len

    @property
    def tuples(self) -> tuple[IntTuple, ...]:
        """The tuples in order, built anew on every access."""
        return tuple([prefix + (v,) for prefix, lasts in self.rows() for v in lasts])

    def rows(self) -> Iterator[tuple[IntTuple, IntTuple]]:
        """(prefix, last coordinates) of every row, in order."""
        return self.walk()
