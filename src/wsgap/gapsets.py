"""Gap and pure-gap enumeration at several points, by cross-checking routes.

Three independent routes produce the gap set:

* ``complement``: sweep the simplex {alpha >= 0, sum <= 2g-1} and keep
  the tuples the membership oracle rejects (everything with coordinate
  sum >= 2g is a member, so the sweep is complete);
* ``union_nabla``: materialize, for every nonnegative relative maximal
  beta*, the tuples that agree with beta* in one coordinate and are
  strictly smaller elsewhere;
* ``explicit_s``: the same sets written as explicit index families
  S_{i,k} in (a, b, m, i) without constructing the maximals first.

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
the prefix only through its residues mod b and the sum of its quotients,
so the kernel computes each such row once, in pure Python, and walks
only the simplex.  The union_nabla and explicit_s routes stay
independent of it, as cross-checks: each lists its sets as slabs of
[0, 2g-1]^m, and one builder marks the slabs in byte blocks kept only
where slabs touch.
Their rows, and those of the intersection route, are cached per curve,
so that callers comparing the routes build each one once.

Every route hands its sets over in row form (``core.TupleRows``): the
tuples that share their first m-1 coordinates make one row, a prefix
tuple and a tuple of last coordinates.  The kernel, the builder and
the witness walk make their rows directly; the single-point report
groups its sorted tuples with ``TupleRows.of``.  The command line
renders the rows; the tuples themselves are built only when a caller
reads ``GapReport.gaps`` or ``.pure_gaps``, and are then kept.
"""

from __future__ import annotations

import itertools
import operator
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import (
    CURVE_CACHE_SIZE,
    BadPointCountError,
    CurveParams,
    IntTuple,
    Record,
    TupleRows,
    WsgapError,
    check_tuple,
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
    tuples, which are built on first read and kept.
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


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _is_subset(small: TupleRows, big: TupleRows) -> bool:
    """Whether every tuple of ``small`` lies in ``big``, by one merge of
    their rows.

    True only if every row of ``small`` lies inside a row of ``big`` with
    the same prefix, whatever the order of the rows; exact when both come
    in lexicographic order, as every route hands them over.  Cached by
    the identity of the two row sets, which are immutable and which the
    cache keeps alive: the reports of one curve hand over the same
    cached rows again and again.
    """
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


@lru_cache(maxsize=CURVE_CACHE_SIZE)
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


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _residue_gap_sets(params: CurveParams) -> tuple[TupleRows, TupleRows]:
    """Gaps and pure gaps in row form, from the oracle's signature tables.

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
    list W = {w < 2g - sum(sig) : floor(w/b) < H(w mod b)} from b*Q on,
    shifted down by b*Q; the pure row is the same with h.  H and h read
    sig only through u and the multiset S', so signatures that permute
    s_2..s_{m-1} share their tables and rows.  Each row is built once as
    a tuple and shared by every prefix with the same (sig, Q).  The b
    tables of one S' are built here, read for every u and dropped; they
    stay out of the oracle's store of query tables.

    Over every prefix of the whole cube [0, 2g-1]^(m-1), the first
    beta_m >= 0 in each class s with sum(beta) >= 2g must be a member,
    or ``WsgapError`` is raised.  Membership in a class only grows with
    q, so no gap, hence no pure gap, lies outside the simplex, as
    Riemann-Roch promises.  The test is one per signature.  That first
    beta_m has quotient ceil((max(L, 0) - s)/b), so the test reads
    ceil((max(L, 0) - s)/b) + Q >= H(s), and the left side equals
    max(c(s), Q) with c(s) = ceil((2g - sum(sig) - s)/b): if L >= 0 it
    is c(s), and c(s) >= Q; if L < 0 it is Q, and c(s) <= Q.  It only
    grows with Q, and Q = 0 occurs for every signature (the prefix sig
    itself lies in the cube), so the whole cube passes iff every
    signature has H(s) <= max(c(s), 0) for every s.

    Prefixes of the simplex go in lexicographic order and each row holds
    its beta_m in ascending order: the sets come out as sorted
    ``TupleRows``, and no tuple is built here.
    """
    b, m, n = params.b, params.m, 2 * params.genus
    f, hit, _ = oracle._residue_table(params)
    width = min(b, n)  # the residues of coordinates below 2g
    values = list(range(n))
    shared: dict[tuple, list] = {}  # rows by Q, per (u, S')
    for rest in itertools.combinations_with_replacement(range(width), m - 2):
        tables = [oracle._Signature(f, hit, b, sorted(rest + (s,))) for s in range(b)]
        for u in range(width):
            shared[u, rest] = _signature_rows(u, hit[u], tables, n - u - sum(rest), values)
    leaves = [shared[u, tuple(sorted(others))]  # per signature in lexicographic order
              for u, *others in itertools.product(range(width), repeat=m - 1)]

    gap_prefixes: list[IntTuple] = []
    gap_lasts: list[IntTuple] = []
    pure_prefixes: list[IntTuple] = []
    pure_lasts: list[IntTuple] = []
    split = [divmod(v, b) for v in values]

    def walk(head: IntTuple, total: int, quot: int, index: int) -> None:
        inner = len(head) == m - 2
        for v in range(n - total):
            q, s = split[v]
            prefix = head + (v,)
            if inner:
                gap, pure = leaves[index + s][quot + q]
                if gap:
                    gap_prefixes.append(prefix)
                    gap_lasts.append(gap)
                if pure:
                    pure_prefixes.append(prefix)
                    pure_lasts.append(pure)
            else:
                walk(prefix, total + v, quot + q, (index + s) * width)

    walk((), 0, 0, 0)
    return TupleRows(gap_prefixes, gap_lasts), TupleRows(pure_prefixes, pure_lasts)


def _signature_rows(u: int, reach: int, tables: list[oracle._Signature], room: int,
                    values: list[int]) -> list[tuple[IntTuple, IntTuple]]:
    """(gap row, pure row) by quotient sum Q for the signatures of one u and S'.

    In the terms of ``_residue_gap_sets``: ``u`` is the residue of beta_1,
    ``reach`` is r_1 = hit[u], ``tables[s]`` is the table of S' + {s} and
    ``room`` is 2g - sum(sig); ``values[v]`` is v.  Raises ``WsgapError``
    if the signatures fail the whole-cube test.
    """
    b = len(tables)
    # A threshold A on class s is kept as its end s + b*A: the w of class s
    # with floor(w/b) < A are the w < s + b*A.  -((u - y) // b) is
    # ceil((y - u)/b), and y is the max (for H) or the min (for h) of
    # theta[reach] and the table's top or bottom.
    ends: list[int] = []
    pure_ends: list[int] = []
    for s, tab in enumerate(tables):
        x, top, bottom = tab.theta[reach], tab.top, tab.bottom
        ends.append(s - b * ((u - (x if x > top else top)) // b))
        pure_ends.append(s - b * ((u - (x if x < bottom else bottom)) // b))
    # the first w >= max(room, 0) of class s lies below max(room, 0) + b,
    # and the test H(s) <= max(c(s), 0) says ends[s] is at most that w
    if max(ends) >= max(room, 0) + b:
        raise WsgapError("a tuple with coordinate sum >= 2g is not a member")
    if room <= 0:
        return []
    cells = values[:room]
    gap_cells = bytes(map(operator.lt, cells, itertools.cycle(ends)))
    pure_cells = bytes(map(operator.lt, cells, itertools.cycle(pure_ends)))
    # the row of Q holds the cells w >= b*Q, as w - b*Q
    return [(tuple(itertools.compress(values, gap_cells[shift:])),
             tuple(itertools.compress(values, pure_cells[shift:])))
            for shift in range(0, room, b)]


def _cube_rows(m: int, n: int, slabs: Iterable[Sequence[int | range]]) -> TupleRows:
    """The union of ``slabs`` in the cube [0, n-1]^m, in row form.

    A slab gives each coordinate a pinned value or a ``range(0, hi)``, and
    raises ``WsgapError`` if it leaves the cube.  The rows that share their
    first m-2 coordinates make one ``bytearray(n * n)`` block, kept once a
    slab touches it; a slab sets a rectangle in it one slice per line
    along the shorter side, a row or a column with stride n.
    """
    blocks: dict[IntTuple, bytearray] = {}
    for slab in slabs:
        box = [c if isinstance(c, range) else range(c, c + 1) for c in slab]
        if any(r.start < 0 or r.stop > n for r in box):
            raise WsgapError(f"slab {slab} leaves the cube [0, {n - 1}]^{m}")
        *heads, down, across = box
        if len(down) <= len(across):
            cuts = [slice(x * n + across.start, x * n + across.stop) for x in down]
            fill = b"\x01" * len(across)
        else:
            cuts = [slice(down.start * n + y, down.stop * n, n) for y in across]
            fill = b"\x01" * len(down)
        for head in itertools.product(*heads):
            block = blocks.get(head)
            if block is None:
                block = blocks[head] = bytearray(n * n)
            for cut in cuts:
                block[cut] = fill
    shared: dict[bytes, IntTuple] = {}  # equal rows share one tuple
    prefixes: list[IntTuple] = []
    lasts: list[IntTuple] = []
    for head in sorted(blocks):
        cells = bytes(blocks.pop(head))
        for x in range(n):
            row = cells[x * n:(x + 1) * n]
            if 1 in row:
                if row not in shared:
                    shared[row] = tuple(itertools.compress(range(n), row))
                prefixes.append(head + (x,))
                lasts.append(shared[row])
    return TupleRows(prefixes, lasts)


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


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _route_rows(params: CurveParams, method: str, include_zero_family: bool) -> TupleRows:
    """The rows of one cross-check route: the ``union_nabla`` or
    ``explicit_s`` gaps, or the ``intersection`` pure gaps.

    Cached, so that the checks of one verify cell that read the same
    route share one build.
    """
    if method == "union_nabla":
        slabs = _union_nabla_slabs(params, include_zero_family)
    elif method == "explicit_s":
        slabs = _explicit_s_slabs(params)
    else:
        rows = [row[:2] for row in _witness_walk(params, include_zero_family)]
        return TupleRows([prefix for prefix, _ in rows], [lasts for _, lasts in rows])
    return _cube_rows(params.m, 2 * params.genus, slabs)


def _report(params: CurveParams, gap_rows: TupleRows, pure_rows: TupleRows, method: str,
            gap_method: str, pure_method: str) -> GapReport:
    B = 2 * params.genus - 1
    return GapReport(
        params=params,
        gap_rows=gap_rows,
        pure_rows=pure_rows,
        method=method,
        stats={
            "gap_count": len(gap_rows),
            "pure_gap_count": len(pure_rows),
            "bounding_box": {"lo": [0] * params.m, "hi": [B] * params.m},
            "gap_method": gap_method,
            "pure_gap_method": pure_method,
        },
    )


def _single_point_report(params: CurveParams, method: str, gap_method: str) -> GapReport:
    singles = TupleRows.of((t,) for t in numerical_gaps(params.a, params.b))
    return _report(params, singles, singles, method, gap_method, "single-point")


def gaps(params: CurveParams, method: str = "complement") -> GapReport:
    """The finite gap set, by the requested route.

    For a single point the gap set is that of the numerical semigroup
    generated by a and b (as 1-tuples) and the routes coincide by
    definition; gaps and pure gaps agree there, since both notions
    reduce to the dimension not growing at the point.
    """
    if method not in GAP_METHODS:
        raise WsgapError(f"unknown gap method {method!r}; choose from {GAP_METHODS}")
    if params.m == 1:
        return _single_point_report(params, method, method)
    gap_rows, pure = _residue_gap_sets(params)
    if method != "complement":
        gap_rows = _route_rows(params, method, False)
    return _report(params, gap_rows, pure, method, method, "profile")


def pure_gaps(params: CurveParams, method: str = "profile") -> GapReport:
    """The finite pure-gap set, by the requested route.

    For a single point this is the report ``gaps`` builds there: pure
    gaps and gaps coincide, both being the numerical gaps.
    """
    if method not in PURE_METHODS:
        raise WsgapError(f"unknown pure-gap method {method!r}; choose from {PURE_METHODS}")
    if params.m == 1:
        return _single_point_report(params, method, "complement")
    gap_rows, pure = _residue_gap_sets(params)
    if method == "intersection":
        pure = _route_rows(params, method, False)
    return _report(params, gap_rows, pure, method, "complement", method)


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
    prefixes, lasts = [], []
    for i, s in ids:
        row = tuple([j for j, t in ids[i:] if s > t])
        if row:
            prefixes.append((i,))
            lasts.append(row)
    return SigmaTable(params=params, gaps_q1=seq, gaps_q2=seq2, sigma=sigma,
                      gamma_pairs=pairs, inversions=TupleRows(prefixes, lasts))


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
