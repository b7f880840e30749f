"""Gap and pure-gap enumeration at several points, by cross-checking routes.

Three routes produce the gap set, of which only ``complement`` is
independent of the other two:

* ``complement``: sweep the simplex {alpha >= 0, sum <= 2g-1} and keep
  the tuples the membership oracle rejects (everything with coordinate
  sum >= 2g is a member, so the sweep is complete);
* ``union_nabla``: materialize, for every nonnegative relative maximal
  beta*, the tuples that agree with beta* in one coordinate and are
  strictly smaller elsewhere;
* ``explicit_s``: the same sets written as explicit index families
  S_{i,k} in (a, b, m, i).  It expands the same representatives as
  ``union_nabla`` with the same walk (``maximals.translates``), and the
  two walk the union of their slabs alike (``_cube_rows``): only their
  slab rules differ.

Pure gaps come from two routes: the ``profile`` test (the componentwise
maximum of the absolute maximals below alpha is strictly smaller than
alpha in every coordinate) and the ``intersection`` route, by relative
maximality: alpha is a pure gap iff each coordinate i has a nonnegative
relative maximal c with c_i = alpha_i and c_j > alpha_j for every
j != i, a witness.  One walk fixes alpha coordinate by coordinate and
keeps the candidates that can still witness each coordinate; it serves
the route, ``pure_gap_witness`` and verify's witness check.

The two-point case additionally gets the classical pairing: the gap
sequences at the two points are matched by a permutation sigma read off
the relative maximals, gaps are unions over the matched pairs, and pure
gaps correspond to the inversions of sigma.

The complement gaps and the profile pure gaps come from one kernel built
on the oracle's signature tables (``oracle._Signature``): per prefix of
the first m-1 coordinates and per residue class of the last, where the
members start and below which no coordinate is reached.  Both depend on
the prefix only through its residues mod b and the sum of its quotients.
The kernel has two parts.  The plan (``_plan``, one bounded cache per
curve) computes each such row, or at m = 2 the cells it is cut from,
once, in pure Python; it runs the whole-cube test and checks that the
pure cells lie inside the gap cells, so it raises every error the kernel
can raise, and it sums the exact counts (``gap_counts``) without a row.
The walk (``_walk``) then goes over the simplex only and yields one
side's rows in lexicographic order.  The plan hands its two sides over
once, as walked ``TupleRows``: their lengths are the exact counts and
each read walks the plan, so a side holds no row, however often it is
read, and the plan's cache keeps no caller's rows alive.  The
union_nabla and explicit_s routes stay independent of the kernel, as
cross-checks: each lists its sets as slabs of [0, 2g-1]^m, and one
walk goes over their union by first coordinates, marking one byte
block at a time.  Every route is walked anew on each call
(``_route_walk``), and ``_route_rows`` holds its rows for a report.
``gaps`` and ``pure_gaps`` build their reports in one place
(``_report``): the plan's two sides, with the side a requested route
gives read from that route.

Every route hands its sets over in row form (``core.TupleRows``): the
tuples that share their first m-1 coordinates make one row, a prefix
tuple and a tuple of last coordinates.  The kernel, the slab walk and
the witness walk yield their rows as ``(prefix, lasts)`` pairs, the
form ``TupleRows`` holds; the single-point report groups its sorted
tuples with ``TupleRows.of``.  The command line
renders the rows of the report; the tuples themselves are built anew
on each read of ``GapReport.gaps`` or ``.pure_gaps``.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from typing import Iterable, Iterator, Sequence

from .core import (
    BadPointCountError,
    CurveParams,
    IntTuple,
    Record,
    TupleRows,
    WsgapError,
    check_tuple,
    curve_cache,
    sorted_unique,
)
from . import maximals as mx
from . import oracle

GAP_METHODS = ("complement", "union_nabla", "explicit_s")
PURE_METHODS = ("profile", "intersection")


class GapReport(Record):
    """Gap and pure-gap sets for one parameter choice, with provenance.

    Every route hands its sets over as sorted ``TupleRows``: ``gap_rows``
    and ``pure_rows``.  ``gaps`` and ``pure_gaps`` read them as sorted
    tuples, built anew on each read of a kernel side, which holds nothing.
    """

    params: CurveParams
    gap_rows: TupleRows
    pure_rows: TupleRows
    method: str
    stats: dict

    def __post_init__(self) -> None:
        if not _is_subset(self.pure_rows, self.gap_rows):
            raise WsgapError("pure gaps outside the gap set")

    @property
    def gaps(self) -> tuple[IntTuple, ...]:
        return self.gap_rows.tuples

    @property
    def pure_gaps(self) -> tuple[IntTuple, ...]:
        return self.pure_rows.tuples


def _is_subset(small: TupleRows, big: TupleRows) -> bool:
    """Whether every tuple of ``small`` lies in ``big``, by one merge of
    their rows.

    True only if every row of ``small`` lies inside a row of ``big`` with
    the same prefix, whatever the order of the rows; exact when both come
    in lexicographic order, as every route hands them over.  True without
    a walk when ``small`` and ``big`` are the pure and the gap side of one
    plan: ``_plan`` has checked every leaf's pure cells inside its gap
    cells, and raises the same error as the report otherwise.
    """
    gap_walk, pure_walk = big.walk, small.walk  # a plan's sides: partial(_walk, plan, side)
    if (getattr(gap_walk, "func", None) is getattr(pure_walk, "func", None) is _walk
            and gap_walk.args == (pure_walk.args[0], 0) and pure_walk.args[1] == 1):
        return True
    rows = big.rows()
    for prefix, lasts in small.rows():
        for other, others in rows:
            if other >= prefix:
                break
        else:
            return False
        if other != prefix or not set(lasts).issubset(others):
            return False
    return True


def numerical_gaps(a: int, b: int) -> tuple[int, ...]:
    """Gaps of the numerical semigroup generated by a and b, ascending."""
    g = (a - 1) * (b - 1) // 2
    out = []
    for t in range(1, 2 * g):
        if not any((t - a * x) % b == 0 for x in range(t // a + 1)):
            out.append(t)
    if len(out) != g:
        raise WsgapError(f"{len(out)} numerical gaps of <{a}, {b}>, genus is {g}")
    return tuple(out)


class _Plan:
    """What ``_walk`` reads of the kernel's plan for one curve (see
    ``_plan``): ``split[v]`` is divmod(v, b) for v below 2g, ``width`` is
    min(b, 2g), ``depth`` = m-2 the length of a head and ``leaves`` the
    leaves of each side per signature in lexicographic order.  It does
    not hold the sides that walk it: with no reference cycle, a plan
    dropped from the cache is freed at once."""

    __slots__ = ("split", "width", "depth", "leaves")

    def __init__(self, split: list[tuple[int, int]], width: int, depth: int,
                 leaves: tuple[list, list]) -> None:
        self.split, self.width, self.depth, self.leaves = split, width, depth, leaves


class _CellRows:
    """The rows by Q of one signature at m = 2, built as they are read:
    row Q holds the w >= b*Q whose cell is set, as w - b*Q."""

    __slots__ = ("cells", "values", "b")

    def __init__(self, cells: bytes, values: list[int], b: int) -> None:
        self.cells, self.values, self.b = cells, values, b

    def __getitem__(self, Q: int) -> IntTuple:
        return tuple(itertools.compress(self.values, self.cells[self.b * Q:]))


@curve_cache
def _plan(params: CurveParams) -> tuple[TupleRows, TupleRows]:
    """The complement/profile kernel's plan for one curve, from the
    oracle's signature tables, built and checked whole, as its two sides:
    the gaps and the pure gaps as walked ``TupleRows`` of exact length,
    made once per plan, so that every report of the curve holds the same.

    By ``oracle._Signature``, coordinate k of beta is reached iff
    theta_{r_k} <= t, where theta_r = f_r + b*#{x in S : x < r}, S holds
    the residues of beta_2..beta_m, t = sum(beta) - sum(S),
    r_1 = hit[beta_1 mod b] and r_k = beta_k mod b.  Write the prefix
    P = (beta_1, ..., beta_{m-1}) as beta_1 = b*q_1 + u and
    beta_j = b*q_j + s_j (residues below b), call sig = (u, s_2, ...,
    s_{m-1}) its signature and Q = q_1 + ... + q_{m-1} its quotient sum,
    and write beta_m = b*q + s.  Then S is S' = {s_2, ..., s_{m-1}} plus s,
    t = u + b*(Q + q) and r_m = s, so coordinate k is reached iff
    q >= A_k(s) - Q, where

        A_k(s) = ceil((theta_{r_k} - u)/b),

    theta read in the table of S' + {s}.  With H(s) = max_k A_k(s) and
    h(s) = min_k A_k(s), which read theta at hit[u] and the table's
    ``top`` and ``bottom`` over S, beta is a member iff q >= H(s) - Q, a
    pure gap iff q < h(s) - Q, and a gap iff it is no member and
    beta_m < L, where L = 2g - sum(P) = 2g - sum(sig) - b*Q.  So a row
    depends on (sig, Q) alone.  Taking w = beta_m + b*Q, which keeps the
    class s and adds Q to the quotient, the gap row of (sig, Q) is the cut
    list W = {w < room : floor(w/b) < H(w mod b)}, room = 2g - sum(sig),
    from b*Q on, shifted down by b*Q; the pure row is the same with h.
    Both read sig only through u and the multiset S', so signatures that
    permute s_2..s_{m-1} share one leaf.  The b tables of one S' are
    built here, read for every u and dropped; they stay out of the
    oracle's store of query tables.

    Per (u, S') the plan keeps, for each side (0 the gaps, 1 the pure
    gaps), a leaf of rows by Q: at m >= 3 the rows themselves, each one
    tuple shared by every prefix with the same (sig, Q); at m = 2, where
    each (sig, Q) is one prefix and no row is shared, the cells, from
    which ``_walk`` builds a row when it reaches the prefix.

    Over every prefix of the whole cube [0, 2g-1]^(m-1), the first
    beta_m >= 0 in each class s with sum(beta) >= 2g must be a member,
    or ``WsgapError`` is raised.  Membership in a class only grows with
    q, so no gap, hence no pure gap, lies outside the simplex, as
    Riemann-Roch promises.  The test is one per signature.  That first
    beta_m has quotient ceil((max(L, 0) - s)/b), so the test reads
    ceil((max(L, 0) - s)/b) + Q >= H(s), and the left side equals
    max(c(s), Q) with c(s) = ceil((room - s)/b): if L >= 0 it is c(s),
    and c(s) >= Q; if L < 0 it is Q, and c(s) <= Q.  It only grows with
    Q, and Q = 0 occurs for every signature (the prefix sig itself lies
    in the cube), so the whole cube passes iff every signature has
    H(s) <= max(c(s), 0) for every s.  Each (u, S') must also keep its
    pure cells inside its gap cells, or ``WsgapError`` is raised.

    The counts need no row.  Class s of (sig, Q) holds the w of class s
    with b*Q <= w < min(room, E_s), E_s = s + b*H(s) (s + b*h(s) for
    pure gaps), that is K_s - Q of them when positive, with
    K_s = ceil((min(room, E_s) - s)/b).  C(Q+m-2, m-2) prefixes share the
    signature and Q, so by the hockey-stick identity the signature holds
    sum_s C(K_s+m-1, m) tuples, and (u, S') stands for the multinomial
    number of orderings of S'.  The plan sums the same terms by quotient
    instead of by class: a cell w with floor(w/b) = k lies in the rows
    Q = 0..k, which C(k+m-1, m-1) prefixes hold, so the signature holds
    sum_k C(k+m-1, m-1) times the cells of the block [b*k, b*k + b),
    counted in C by ``bytes.count``.  Summed by class, in Python, the plan
    of ``curve_params(3, 35, 4)`` took about three times as long.
    """
    b, m, n = params.b, params.m, 2 * params.genus
    f, hit, _ = oracle._residue_table(params.a, b, m)
    width = min(b, n)  # the residues of coordinates below 2g
    values = list(range(n))
    shared: dict[tuple, list] = {}  # leaves per (u, S')
    counts = [0, 0]
    weights = [math.comb(k + m - 1, m - 1) for k in range(n // b + 1)]
    for rest in itertools.combinations_with_replacement(range(width), m - 2):
        tables = [oracle._Signature(f, hit, b, sorted(rest + (s,))) for s in range(b)]
        orderings = math.factorial(m - 2)
        for _, run in itertools.groupby(rest):
            orderings //= math.factorial(len(list(run)))
        for u in range(width):
            room = n - u - sum(rest)
            ends = _class_ends(u, hit[u], tables)
            # the first w >= max(room, 0) of class s lies below max(room, 0) + b,
            # and the test H(s) <= max(c(s), 0) says ends[0][s] is at most that w
            if max(ends[0]) >= max(room, 0) + b:
                raise WsgapError("a tuple with coordinate sum >= 2g is not a member")
            sides = [bytes(map(operator.lt, values[:max(room, 0)], itertools.cycle(side_ends)))
                     for side_ends in ends]
            if int.from_bytes(sides[1], "big") & ~int.from_bytes(sides[0], "big"):
                raise WsgapError("pure gaps outside the gap set")  # a pure cell, no gap cell
            leaf = []
            for side, cells in enumerate(sides):
                blocks = [cells.count(1, shift, shift + b) for shift in range(0, room, b)]
                counts[side] += orderings * sum(map(operator.mul, weights, blocks))
                if m == 2:
                    leaf.append(_CellRows(cells, values, b))
                else:  # the row of Q holds the cells w >= b*Q, as w - b*Q
                    leaf.append([tuple(itertools.compress(values, cells[shift:]))
                                 for shift in range(0, room, b)])
            shared[u, rest] = leaf
    leaves = tuple([shared[u, tuple(sorted(others))][side]  # in lexicographic order
                    for u, *others in itertools.product(range(width), repeat=m - 1)]
                   for side in (0, 1))
    plan = _Plan([divmod(v, b) for v in values], width, m - 2, leaves)
    return tuple(TupleRows.walked(functools.partial(_walk, plan, side), counts[side])
                 for side in (0, 1))


def _class_ends(u: int, reach: int, tables: list[oracle._Signature]) -> tuple[list, list]:
    """The class ends of one u and S', for the gaps and the pure gaps.

    In the terms of ``_plan``: ``u`` is the residue of beta_1, ``reach``
    is r_1 = hit[u] and ``tables[s]`` is the table of S' + {s}.  A
    threshold A on class s is kept as its end s + b*A: the w of class s
    with floor(w/b) < A are the w < s + b*A.
    """
    b = len(tables)
    ends: list[int] = []
    pure_ends: list[int] = []
    # -((u - y) // b) is ceil((y - u)/b), and y is the max (for H) or the
    # min (for h) of theta[reach] and the table's top or bottom
    for s, tab in enumerate(tables):
        x, top, bottom = tab.theta[reach], tab.top, tab.bottom
        ends.append(s - b * ((u - (x if x > top else top)) // b))
        pure_ends.append(s - b * ((u - (x if x < bottom else bottom)) // b))
    return ends, pure_ends


def _heads(plan: _Plan, head: IntTuple = (), total: int = 0, quot: int = 0,
           index: int = 0) -> Iterator[tuple[IntTuple, int, int, int]]:
    """``(head, total, quot, index)`` for each head of m-2 coordinates
    with sum below 2g, in lexicographic order: its sum, its quotient sum
    and its leaf index times the width."""
    if len(head) == plan.depth:
        yield head, total, quot, index
        return
    for v in range(len(plan.split) - total):
        q, s = plan.split[v]
        yield from _heads(plan, head + (v,), total + v, quot + q, (index + s) * plan.width)


def _walk(plan: _Plan, side: int) -> Iterator[tuple[IntTuple, IntTuple]]:
    """``(prefix, lasts)`` for every nonempty row of one side of the
    plan, 0 for the gaps and 1 for the pure gaps, in lexicographic order
    of the prefixes, each ``lasts`` ascending."""
    leaves, split = plan.leaves[side], plan.split
    n = len(split)
    for head, total, quot, index in _heads(plan):
        for v in range(n - total):
            q, s = split[v]
            lasts = leaves[index + s][quot + q]
            if lasts:
                yield head + (v,), lasts


def gap_counts(params: CurveParams) -> tuple[int, int]:
    """The numbers of gaps and of pure gaps, read off the kernel's plan
    without building a row; it raises where the kernel raises."""
    if params.m == 1:
        return params.genus, params.genus
    return tuple(map(len, _plan(params)))


def _cube_rows(m: int, n: int, slabs: Iterable[Sequence[int | range]]) -> Iterator[tuple]:
    """The rows of the union of ``slabs`` in the cube [0, n-1]^m, walked
    in lexicographic order.

    A slab gives each coordinate a pinned value or a ``range(0, hi)``;
    ``WsgapError`` is raised, before the walk, if one leaves the cube.
    The walk files the slabs under each value of the next coordinate
    they cover, the head passed down, and at the last two coordinates
    marks one ``bytearray(n * n)`` block at a time: a slab sets a
    rectangle one slice per line along its shorter side, a row or a
    column with stride n.  Equal rows of one walk share a tuple.
    """
    marked = []  # per slab: the ranges of its head, its slices and their fill
    for slab in slabs:
        box = [c if isinstance(c, range) else range(c, c + 1) for c in slab]
        if any(r.start < 0 or r.stop > n for r in box):
            raise WsgapError(f"slab {slab} leaves the cube [0, {n - 1}]^{m}")
        *heads, down, across = box
        if len(down) <= len(across):
            cuts = [slice(x * n + across.start, x * n + across.stop) for x in down]
        else:
            cuts = [slice(down.start * n + y, down.stop * n, n) for y in across]
        marked.append((*heads, cuts, b"\x01" * max(len(down), len(across))))
    shared: dict[bytes, IntTuple] = {}

    def walk(head: IntTuple, under: list) -> Iterator[tuple[IntTuple, IntTuple]]:
        k = len(head)
        if k == m - 2:
            block = bytearray(n * n)
            for slab in under:
                for cut in slab[-2]:
                    block[cut] = slab[-1]
            cells = bytes(block)
            for x in range(n):
                row = cells[x * n:(x + 1) * n]
                if 1 in row:
                    if row not in shared:
                        shared[row] = tuple(itertools.compress(range(n), row))
                    yield head + (x,), shared[row]
            return
        by_value: list[list] = [[] for _ in range(n)]
        for slab in under:
            for v in slab[k]:
                by_value[v].append(slab)
        for v, filed in enumerate(by_value):
            if filed:
                yield from walk(head + (v,), filed)

    return walk((), marked)


def _nabla_slabs(beta_star: IntTuple, n: int) -> Iterator[list]:
    """The slabs {x >= 0 : x_i = beta*_i, x_j < beta*_j} over the
    coordinates i, each range clipped below n, leaving out the empty ones
    (beta*_i negative or some other beta*_j nonpositive)."""
    for i, pin in enumerate(beta_star):
        if pin >= 0 and min(beta_star[:i] + beta_star[i + 1:]) >= 1:
            yield [pin if j == i else range(min(c, n)) for j, c in enumerate(beta_star)]


def _union_nabla_slabs(params: CurveParams, include_zero_family: bool) -> Iterator[list]:
    """The nabla slabs of the nonnegative relative maximals, in [0, 2g-1]^m."""
    n = 2 * params.genus
    for beta_star in mx.lambda_nonneg(params, include_zero_family):
        yield from _nabla_slabs(beta_star, n)


def _explicit_s_slabs(params: CurveParams) -> Iterator[list]:
    """The slabs of the index families S_{i,k}, written in (a, b, m): one
    set per nonnegative translate of (a(b-i) - b, i, ..., i)."""
    a, b, m, n = params.a, params.b, params.m, 2 * params.genus
    for i in range(1, b):
        for t in mx.translates(params, (a * (b - i) - b, *[i] * (m - 1)), (0,) * m, None):
            first = t[0]
            others = [range(min(c, n)) for c in t[1:]]
            # family with the first coordinate pinned to a(b-i) - b(1+j), j = sum(d)
            yield [first] + others
            if first < 1:
                continue
            # families with coordinate k >= 2 pinned to i + b*d_k
            for k in range(1, m):
                idx = [range(min(first, n))] + others
                idx[k] = t[k]
                yield idx


def _pick(live: list, wits: list[list], k: int, v: int) -> tuple[list, list[list]] | None:
    """Fix alpha_k = v.  ``live`` holds the candidates strictly above the
    prefix, ``wits[i]`` those with c_i = alpha_i strictly above it
    elsewhere, in the order of ``mx.lambda_nonneg``.  Returns both for
    the longer prefix, or None when a coordinate loses its last witness.
    """
    wits = [[c for c in cands if c[k] > v] for cands in wits]
    wits.append([c for c in live if c[k] == v])
    if not all(wits):
        return None
    return [c for c in live if c[k] > v], wits


def _witness_walk(params: CurveParams, include_zero_family: bool) -> Iterator[tuple]:
    """``(prefix, lasts, live, wits)`` for each prefix of m-1 coordinates
    with pure gaps, in lexicographic order.  alpha_k runs over the c_k of
    ``live``; a last coordinate v keeps a witness at i iff some c in
    ``wits[i]`` has its last coordinate above v, so ``lasts`` holds the
    last coordinates of ``live`` below the least of those maxima."""
    last = params.m - 1

    def walk(prefix: IntTuple, live: list, wits: list[list]) -> Iterator[tuple]:
        k = len(prefix)
        if k == last:
            cap = min(max(c[last] for c in cands) for cands in wits)
            lasts = sorted({c[last] for c in live if c[last] < cap})
            if lasts:
                yield prefix, tuple(lasts), live, wits
            return
        for v in sorted({c[k] for c in live}):
            picked = _pick(live, wits, k, v)
            if picked is not None:
                yield from walk(prefix + (v,), *picked)

    return walk((), list(mx.lambda_nonneg(params, include_zero_family)), [])


def _route_walk(params: CurveParams, method: str, include_zero_family: bool) -> Iterator[tuple]:
    """The rows of one cross-check route, walked anew in lexicographic
    order: the ``union_nabla`` or ``explicit_s`` gaps, or the
    ``intersection`` pure gaps."""
    if method == "union_nabla":
        return _cube_rows(params.m, 2 * params.genus,
                          _union_nabla_slabs(params, include_zero_family))
    if method == "explicit_s":
        return _cube_rows(params.m, 2 * params.genus, _explicit_s_slabs(params))
    return (row[:2] for row in _witness_walk(params, include_zero_family))


def _route_rows(params: CurveParams, method: str, include_zero_family: bool) -> TupleRows:
    """The rows of ``_route_walk``, held."""
    return TupleRows(_route_walk(params, method, include_zero_family))


def _report(params: CurveParams, method: str, gap_method: str, pure_method: str) -> GapReport:
    """The report of ``gaps`` or ``pure_gaps``: the kernel's two sides,
    with the side a cross-check route gives read from that route; at a
    single point the numerical gaps as both sides."""
    if params.m == 1:
        gap_rows = pure_rows = TupleRows.of((t,) for t in numerical_gaps(params.a, params.b))
        pure_method = "single-point"
    else:
        gap_rows, pure_rows = _plan(params)
        if gap_method != "complement":
            gap_rows = _route_rows(params, gap_method, False)
        if pure_method != "profile":
            pure_rows = _route_rows(params, pure_method, False)
    B = 2 * params.genus - 1
    return GapReport(params=params, gap_rows=gap_rows, pure_rows=pure_rows, method=method,
                     stats={"gap_count": len(gap_rows), "pure_gap_count": len(pure_rows),
                            "bounding_box": {"lo": [0] * params.m, "hi": [B] * params.m},
                            "gap_method": gap_method, "pure_gap_method": pure_method})


def gaps(params: CurveParams, method: str = "complement") -> GapReport:
    """The finite gap set, by the requested route.

    For a single point the gap set is that of the numerical semigroup
    generated by a and b (as 1-tuples) and the routes coincide by
    definition; gaps and pure gaps agree there, since both notions
    reduce to the dimension not growing at the point.
    """
    if method not in GAP_METHODS:
        raise WsgapError(f"unknown gap method {method!r}; choose from {GAP_METHODS}")
    return _report(params, method, method, "profile")


def pure_gaps(params: CurveParams, method: str = "profile") -> GapReport:
    """The finite pure-gap set, by the requested route.

    For a single point this is the report ``gaps`` builds there: pure
    gaps and gaps coincide, both being the numerical gaps.
    """
    if method not in PURE_METHODS:
        raise WsgapError(f"unknown pure-gap method {method!r}; choose from {PURE_METHODS}")
    return _report(params, method, "complement", method)


def nabla_bar_nonneg(params: CurveParams, beta_star: Sequence[int]) -> tuple[IntTuple, ...]:
    """Nonnegative tuples agreeing with beta* somewhere, smaller elsewhere."""
    if params.m < 2:
        raise BadPointCountError("nabla sets need m >= 2")
    beta_star = check_tuple(params, beta_star)
    out: set[IntTuple] = set()
    for slab in _nabla_slabs(beta_star, max(beta_star)):  # a clip that cuts nothing
        out.update(itertools.product(*[c if isinstance(c, range) else (c,) for c in slab]))
    return sorted_unique(out)


def pure_gap_witness(params: CurveParams, alpha: Sequence[int]) -> tuple[IntTuple, ...] | None:
    """One relative maximal per coordinate exhibiting alpha as a pure gap.

    Coordinate i gets the first (in sorted order) nonnegative relative
    maximal whose i-th coordinate equals alpha_i and whose remaining
    coordinates strictly exceed alpha; None when some coordinate has no
    such witness, that is, whenever alpha is not a pure gap.  Found by
    ``_pick`` along alpha's coordinates, as the intersection route's rows.
    """
    if params.m < 2:
        raise BadPointCountError("pure gaps need m >= 2")
    picked = list(mx.lambda_nonneg(params)), []
    for k, v in enumerate(check_tuple(params, alpha)):
        picked = _pick(*picked, k, v)
        if picked is None:
            return None
    return tuple(cands[0] for cands in picked[1])


def _witnesses(params: CurveParams) -> Iterator[tuple[IntTuple, tuple[IntTuple, ...]]]:
    """``(alpha, pure_gap_witness(params, alpha))`` along one walk, in
    lexicographic order; each row's last pick reads ``live`` grouped by c_m."""
    last = params.m - 1
    for prefix, lasts, live, wits in _witness_walk(params, False):
        by_last: dict[int, list] = {}
        for c in live:
            by_last.setdefault(c[last], []).append(c)
        for v in lasts:
            _, chosen = _pick(by_last[v], wits, last, v)
            yield prefix + (v,), tuple(cands[0] for cands in chosen)


def candidate_superset(params: CurveParams) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Index sets (A*, A) with every pure gap in A* x A^(m-1).

    A* collects the values a(b-i) - b(1+j) and A the values i + b*j,
    over i = 1..b-1 and j = 0..floor((a(b-i) - b)/b).
    """
    if params.m < 2:
        raise BadPointCountError("the candidate superset needs m >= 2")
    a, b = params.a, params.b
    a_star: set[int] = set()
    a_set: set[int] = set()
    for i in range(1, b):
        for j in range((a * (b - i) - b) // b + 1):
            a_star.add(a * (b - i) - b * (1 + j))
            a_set.add(i + b * j)
    return tuple(sorted(a_star)), tuple(sorted(a_set))


class SigmaTable(Record):
    """The two-point pairing: gap sequences, sigma, pairs, inversions.

    ``sigma`` is 1-based as a permutation of {1..g}: sigma[i-1] is the
    index paired with gap index i.  ``inversions`` holds the pairs
    (i, j) with i < j and sigma(i) > sigma(j), in row form: one row per i
    that has inversions, with its j ascending.  Each inversion yields the
    pure gap (gaps_q1[i-1], gaps_q2[sigma(j)-1]).
    """

    params: CurveParams
    gaps_q1: tuple[int, ...]
    gaps_q2: tuple[int, ...]
    sigma: tuple[int, ...]
    gamma_pairs: tuple[IntTuple, ...]
    inversions: TupleRows


def sigma_pair(params: CurveParams) -> SigmaTable:
    """Read the pairing off the nonnegative relative maximals (m = 2).

    The first coordinates of the pairs recover the gap sequence of the
    numerical semigroup generated by a and b (the semigroup at the first
    point); the second coordinates are the gap sequence at the second
    point, which for general (a, b) is a different set of the same size.
    """
    if params.m != 2:
        raise BadPointCountError("the pairing is defined for exactly two points")
    seq = numerical_gaps(params.a, params.b)
    pairs = mx.lambda_nonneg(params, include_zero_family=False)
    if len(pairs) != params.genus or tuple(sorted(x for x, _ in pairs)) != seq:
        raise WsgapError("relative maximals do not pair off the numerical gaps")
    seq2 = tuple(sorted(y for _, y in pairs))
    if len(set(seq2)) != params.genus:
        raise WsgapError("second-point gap sequence has repeated values")
    index = {v: k + 1 for k, v in enumerate(seq2)}
    partner = dict(pairs)
    sigma = tuple(index[partner[ell]] for ell in seq)
    ids = list(enumerate(sigma, 1))
    rows = [((i,), row) for i, s in ids if (row := tuple([j for j, t in ids[i:] if s > t]))]
    return SigmaTable(params=params, gaps_q1=seq, gaps_q2=seq2, sigma=sigma,
                      gamma_pairs=pairs, inversions=TupleRows(rows))


def sigma_gap_set(table: SigmaTable) -> tuple[IntTuple, ...]:
    """Gaps of the pair from the matched gap indices."""
    out: set[IntTuple] = set()
    for i, ell in enumerate(table.gaps_q1, start=1):
        partner = table.gaps_q2[table.sigma[i - 1] - 1]
        out.update((ell, y) for y in range(partner))
        out.update((x, partner) for x in range(ell))
    return sorted_unique(out)


def sigma_pure_gap_set(table: SigmaTable) -> tuple[IntTuple, ...]:
    """Pure gaps of the pair from the inversions of sigma."""
    out = set()
    for (i,), js in table.inversions.rows():
        ell = table.gaps_q1[i - 1]
        out.update((ell, table.gaps_q2[table.sigma[j - 1] - 1]) for j in js)
    return sorted_unique(out)


def sigma_literal(params: CurveParams) -> tuple[int, ...]:
    """The pairing by its direct definition, via membership sweeps.

    For each gap value at the first point, the smallest nonnegative
    partner making the pair a member; bounded because any pair with
    coordinate sum 2g is a member.
    """
    if params.m != 2:
        raise BadPointCountError("the pairing is defined for exactly two points")
    out = []
    for ell in numerical_gaps(params.a, params.b):
        y = 0
        while not oracle.is_member(params, (ell, y)):
            y += 1
            if y > 2 * params.genus:
                raise WsgapError(f"no partner up to 2g for the gap {ell}")
        out.append(y)
    return tuple(out)
