"""Closed-form families of absolute and relative maximal elements.

Inside the fundamental region the two families are given by explicit
formulas in (a, b, m, i):

* absolute:  (a(b-i) - b(m-1), i, ..., i) for i = 1..b-1, plus the zero
  tuple;
* relative:  (b(m-2), 0, ..., 0) plus (a(b-i) - b, i, ..., i) for
  i = 1..b-1.

Each family has exactly b representatives, and the full (infinite)
families are the representatives translated by the lattice.  This module
generates the representatives and expands them into boxes, into the
nonnegative orthant, or into the strictly positive orthant.  For m = 2
the two families coincide.
"""

from __future__ import annotations

import itertools
from functools import lru_cache
from typing import Iterator, Literal, Sequence

from .core import (
    CURVE_CACHE_SIZE,
    Box,
    BadPointCountError,
    CurveParams,
    IntTuple,
    Record,
    WsgapError,
    add,
    ceil_div,
    check_tuple,
    in_region,
    reduce_to_region,
    sorted_unique,
    theta_vector,
)

MaximalKind = Literal["absolute", "relative"]


class MaximalSet(Record):
    """A maximal-element family: its representatives in the fundamental
    region; the whole family is their translates by the lattice."""

    kind: MaximalKind
    region_reps: tuple[IntTuple, ...]
    params: CurveParams

    def __post_init__(self) -> None:
        if len(self.region_reps) != self.params.b:
            raise WsgapError(f"{self.kind} family has {len(self.region_reps)} "
                             f"representatives, expected b={self.params.b}")
        if not all(in_region(self.params, r) for r in self.region_reps):
            raise WsgapError(f"{self.kind} representative outside the fundamental region")


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def absolute_maximals_region(params: CurveParams) -> MaximalSet:
    """The b absolute-maximal representatives in the fundamental region."""
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    a, b, m = params.a, params.b, params.m
    reps = [(0,) * m]
    for i in range(1, b):
        reps.append(tuple([a * (b - i) - b * (m - 1)] + [i] * (m - 1)))
    return MaximalSet(kind="absolute", region_reps=sorted_unique(reps), params=params)


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def relative_maximals_region(params: CurveParams) -> MaximalSet:
    """The b relative-maximal representatives in the fundamental region."""
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    a, b, m = params.a, params.b, params.m
    reps = [tuple([b * (m - 2)] + [0] * (m - 1))]
    for i in range(1, b):
        reps.append(tuple([a * (b - i) - b] + [i] * (m - 1)))
    return MaximalSet(kind="relative", region_reps=sorted_unique(reps), params=params)


def shift_vectors(lo: Sequence[int], cap: int) -> Iterator[tuple[int, ...]]:
    """Integer vectors d >= lo, componentwise, with sum(d) <= cap.

    Yields them in lexicographic order, and nothing when cap < sum(lo).
    Lattice translates d of a representative are bounded exactly this
    way: a lower bound per coordinate 2..m, and a cap on sum(d) from the
    first coordinate.
    """
    lo = tuple(lo)
    tail = [sum(lo[k:]) for k in range(len(lo) + 1)]  # least sum of d[k:]
    if cap < tail[0]:
        return

    def rec(k: int, prefix: tuple[int, ...], remaining: int) -> Iterator[tuple[int, ...]]:
        if k == len(lo):
            yield prefix
            return
        for v in range(lo[k], remaining - tail[k + 1] + 1):
            yield from rec(k + 1, prefix + (v,), remaining - v)

    yield from rec(0, (), cap)


def _translates_in_box(params: CurveParams, rep: IntTuple, box: Box) -> Iterator[IntTuple]:
    """All lattice translates of ``rep`` inside ``box``.

    Coordinates 2..m pin each shift d_j to a finite interval and the
    first coordinate pins sum(d), so the enumeration is complete.
    """
    b, m = params.b, params.m
    ranges = []
    for j in range(1, m):
        lo_d = ceil_div(box.lo[j] - rep[j], b)
        hi_d = (box.hi[j] - rep[j]) // b
        if lo_d > hi_d:
            return
        ranges.append(range(lo_d, hi_d + 1))
    sum_lo = ceil_div(rep[0] - box.hi[0], b)
    sum_hi = (rep[0] - box.lo[0]) // b
    if sum_lo > sum_hi:
        return
    for d in itertools.product(*ranges):
        s = sum(d)
        if sum_lo <= s <= sum_hi:
            yield tuple([rep[0] - b * s] + [rep[j + 1] + b * d[j] for j in range(m - 1)])


def expand_in_box(ms: MaximalSet, box: Box) -> tuple[IntTuple, ...]:
    """Every element of the family lying in ``box``, sorted."""
    params = ms.params
    if box.dim != params.m:
        raise ValueError(f"box dimension {box.dim} != m={params.m}")
    out: list[IntTuple] = []
    for rep in ms.region_reps:
        out.extend(_translates_in_box(params, rep, box))
    return sorted_unique(out)


def _expand_above(ms: MaximalSet, floor: int) -> tuple[IntTuple, ...]:
    """Every element of the family with all coordinates >= floor, sorted:
    the lattice translates of each representative by the shifts d with
    rep_j + b*d_j >= floor for j >= 2 and rep_1 - b*sum(d) >= floor."""
    params, b = ms.params, ms.params.b
    out: list[IntTuple] = []
    for rep in ms.region_reps:
        lo = [ceil_div(floor - c, b) for c in rep[1:]]
        cap = (rep[0] - floor) // b  # sum(d) <= cap keeps coordinate 1 >= floor
        out.extend(add(rep, theta_vector(params, d)) for d in shift_vectors(lo, cap))
    return sorted_unique(out)


def expand_nonneg(ms: MaximalSet) -> tuple[IntTuple, ...]:
    """Every element of the family with all coordinates >= 0, sorted."""
    return _expand_above(ms, 0)


def expand_positive(ms: MaximalSet) -> tuple[IntTuple, ...]:
    """Every element of the family with all coordinates >= 1, sorted."""
    return _expand_above(ms, 1)


def lambda_nonneg(params: CurveParams, include_zero_family: bool = False) -> tuple[IntTuple, ...]:
    """Relative maximal elements by the explicit nonnegative formula.

    Yields (a(b-i) - b - b*sum(d), i + b*d_2, ..., i + b*d_m) over
    i = 1..b-1 and shift vectors d >= 0 that keep the first coordinate
    nonnegative.  With ``include_zero_family`` the translates of
    (b(m-2), 0, ..., 0) with all coordinates nonnegative are added; the
    plain formula omits them, and the gap and pure-gap sets downstream
    are the same either way because those translates always leave some
    coordinate at zero.
    """
    # one cache entry per result, whatever the call form
    return _lambda_nonneg(params, bool(include_zero_family))


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _lambda_nonneg(params: CurveParams, include_zero_family: bool) -> tuple[IntTuple, ...]:
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    a, b, m = params.a, params.b, params.m
    zero = (0,) * (m - 1)
    out: list[IntTuple] = []
    for i in range(1, b):
        cap = (a * (b - i) - b) // b
        for d in shift_vectors(zero, cap):
            first = a * (b - i) - b * (1 + sum(d))
            if first < 0:
                raise WsgapError(f"negative first coordinate {first} in the formula")
            out.append(tuple([first] + [i + b * dj for dj in d]))
    if include_zero_family:
        for d in shift_vectors(zero, m - 2):
            out.append(tuple([b * (m - 2) - b * sum(d)] + [b * dj for dj in d]))
    return sorted_unique(out)


def family_contains(ms: MaximalSet, t: IntTuple) -> bool:
    """Whether ``t`` is a lattice translate of one of the representatives."""
    t = check_tuple(ms.params, t)
    rep, _ = reduce_to_region(ms.params, t)
    return rep in ms.region_reps
