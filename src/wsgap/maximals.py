"""Closed-form families of absolute and relative maximal elements.

Inside the fundamental region the two families are given by explicit
formulas in (a, b, m, i):

* absolute:  (a(b-i) - b(m-1), i, ..., i) for i = 1..b-1, plus the zero
  tuple;
* relative:  (b(m-2), 0, ..., 0) plus (a(b-i) - b, i, ..., i) for
  i = 1..b-1.

Each family has exactly b representatives, and the full (infinite)
families are the representatives translated by the lattice.  This module
generates the representatives, and ``translates`` lists the translates
of one representative between a floor and a ceiling, either of which
may be open.  That one walk expands the families into boxes, into the
nonnegative or the strictly positive orthant, and below a tuple (the
oracle's explicit enumeration), and lists the closed formula
``lambda_nonneg`` and the gap slabs of ``gapsets``.  For m = 2 the two
families coincide.
"""

from __future__ import annotations

import math
import operator
from typing import Iterable, Iterator, Literal, Sequence

from .core import (
    Box,
    BadPointCountError,
    CurveParams,
    IntTuple,
    Record,
    WsgapError,
    ceil_div,
    check_tuple,
    curve_cache,
    in_region,
    reduce_to_region,
    sorted_unique,
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


def absolute_maximals_region(params: CurveParams) -> MaximalSet:
    """The b absolute-maximal representatives in the fundamental region."""
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    return MaximalSet(kind="absolute", region_reps=absolute_reps(params.a, params.b, params.m),
                      params=params)


def absolute_reps(a: int, b: int, m: int) -> tuple[IntTuple, ...]:
    """The absolute-maximal representatives of the curve (a, b) at m
    points, sorted and unchecked: ``absolute_maximals_region`` checks
    them, and the oracle reads them keyed by (a, b, m) alone."""
    reps = [(0,) * m]
    for i in range(1, b):
        reps.append(tuple([a * (b - i) - b * (m - 1)] + [i] * (m - 1)))
    return sorted_unique(reps)


def relative_maximals_region(params: CurveParams) -> MaximalSet:
    """The b relative-maximal representatives in the fundamental region."""
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    a, b, m = params.a, params.b, params.m
    reps = [tuple([b * (m - 2)] + [0] * (m - 1))]
    for i in range(1, b):
        reps.append(tuple([a * (b - i) - b] + [i] * (m - 1)))
    return MaximalSet(kind="relative", region_reps=sorted_unique(reps), params=params)


def translates(params: CurveParams, rep: IntTuple, lo: Sequence[int] | None,
               hi: Sequence[int] | None) -> Iterator[IntTuple]:
    """The lattice translates rep + theta(d) of ``rep`` with lo <= t <= hi.

    Coordinates 2..m bound each shift d_j, and coordinate 1 bounds
    sum(d).  Either of ``lo`` and ``hi``, not both, may be None for an
    open side; that side is then bounded through the sum by the other
    one (with a floor only, d_j can exceed its own floor by the room the
    other floors leave under the cap on sum(d)).  Each level of the walk
    cuts d_j's range with the suffix sums of the bounds, so every shift
    it visits has a completion.  Yields the tuples in lexicographic
    order of d, which is the lexicographic order of coordinates 2..m.
    """
    b, first, rest = params.b, rep[0], rep[1:]
    if lo is not None:
        d_lo, s_hi = _floors(params, rep, lo)
    if hi is not None:
        d_hi = [(h - c) // b for h, c in zip(hi[1:], rest)]
        s_lo = ceil_div(first - hi[0], b)
    if lo is None:
        s_hi = sum(d_hi)
        d_lo = [s_lo - s_hi + u for u in d_hi]
    elif hi is None:
        s_lo = sum(d_lo)
        d_hi = [s_hi - s_lo + l for l in d_lo]
    if s_lo > s_hi or any(map(operator.gt, d_lo, d_hi)):
        return
    last = len(rest) - 1
    # least and greatest sum of the shifts after level k
    lo_after = [sum(d_lo[k + 1:]) for k in range(last + 1)]
    hi_after = [sum(d_hi[k + 1:]) for k in range(last + 1)]

    def walk(k: int, head: IntTuple, used: int) -> Iterator[IntTuple]:
        start = max(d_lo[k], s_lo - used - hi_after[k])
        stop = min(d_hi[k], s_hi - used - lo_after[k]) + 1
        c = rest[k]
        if k == last:
            total = first - b * used + c  # coordinates 1 and m sum to it
            for v in range(c + b * start, c + b * stop, b):
                yield (total - v, *head, v)
        else:
            for d in range(start, stop):
                yield from walk(k + 1, (*head, c + b * d), used + d)

    yield from walk(0, (), 0)


def _floors(params: CurveParams, rep: IntTuple, lo: Sequence[int]) -> tuple[list[int], int]:
    """d_lo and s_hi of ``translates`` under the floor ``lo``: the least
    shift of each coordinate 2..m and the greatest sum of the shifts."""
    return ([ceil_div(l - c, params.b) for l, c in zip(lo[1:], rep[1:])],
            (rep[0] - lo[0]) // params.b)


def count_translates(params: CurveParams, reps: Iterable[IntTuple], lo: Sequence[int]) -> int:
    """The number of translates t >= lo of ``reps``, which ``translates``
    lists with an open ceiling: the shifts d >= d_lo with sum(d) <= s_hi,
    C(s_hi - sum(d_lo) + m - 1, m - 1) per representative, if any."""
    return sum(math.comb(max(s_hi - sum(d_lo) + params.m - 1, 0), params.m - 1)
               for d_lo, s_hi in (_floors(params, rep, lo) for rep in reps))


def _expand(ms: MaximalSet, lo: Sequence[int] | None,
            hi: Sequence[int] | None) -> tuple[IntTuple, ...]:
    # No tuple repeats: the representatives differ in residue at
    # coordinate 2, and the shifts d fix a translate.
    return tuple(sorted(t for rep in ms.region_reps for t in translates(ms.params, rep, lo, hi)))


def expand_in_box(ms: MaximalSet, box: Box) -> tuple[IntTuple, ...]:
    """Every element of the family lying in ``box``, sorted."""
    if box.dim != ms.params.m:
        raise ValueError(f"box dimension {box.dim} != m={ms.params.m}")
    return _expand(ms, box.lo, box.hi)


def expand_nonneg(ms: MaximalSet) -> tuple[IntTuple, ...]:
    """Every element of the family with all coordinates >= 0, sorted."""
    return _expand(ms, (0,) * ms.params.m, None)


def expand_positive(ms: MaximalSet) -> tuple[IntTuple, ...]:
    """Every element of the family with all coordinates >= 1, sorted."""
    return _expand(ms, (1,) * ms.params.m, None)


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


@curve_cache
def _lambda_nonneg(params: CurveParams, include_zero_family: bool) -> tuple[IntTuple, ...]:
    if params.m < 2:
        raise BadPointCountError("maximal families need m >= 2")
    a, b, m = params.a, params.b, params.m
    reps = [(a * (b - i) - b, *[i] * (m - 1)) for i in range(1, b)]
    if include_zero_family:
        reps.append((b * (m - 2), *[0] * (m - 1)))
    # one residue per representative at coordinate 2, so no repeats, as in _expand
    return tuple(sorted(t for rep in reps for t in translates(params, rep, (0,) * m, None)))


def family_contains(ms: MaximalSet, t: IntTuple) -> bool:
    """Whether ``t`` is a lattice translate of one of the representatives."""
    t = check_tuple(ms.params, t)
    rep, _ = reduce_to_region(ms.params, t)
    return rep in ms.region_reps
