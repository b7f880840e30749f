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
alpha in every coordinate) and the ``intersection`` procedure (choose
one relative maximal per coordinate, keep the combination when each
choice is strictly dominated by the others at its own coordinate, and
emit the componentwise minimum, which is then the single common point).

The two-point case additionally gets the classical pairing: the gap
sequences at the two points are matched by a permutation sigma read off
the relative maximals, gaps are unions over the matched pairs, and pure
gaps correspond to the inversions of sigma.

The complement gaps and the profile pure gaps come from one kernel on the
oracle's residue table: per prefix of the first m-1 coordinates and per
residue class of the last, where the members start and below which no
coordinate is reached.  Both depend on the prefix only through its
residues mod b and the sum of its quotients, so the kernel computes each
such row once, in pure Python, and walks only the simplex.  The
union_nabla and explicit_s routes stay independent of it, as
cross-checks: each lists its sets as slabs of [0, 2g-1]^m, and one
builder marks the slabs in byte blocks kept only where slabs touch.

Kernel and builder hand their sets over in row form (``TupleRows``): the
tuples that share their first m-1 coordinates make one row, a prefix
tuple and a tuple of last coordinates.  The command line renders the rows
directly; the tuples themselves are built only when a caller reads
``GapReport.gaps`` or ``.pure_gaps``, and are then kept.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .core import (
    CURVE_CACHE_SIZE,
    BadPointCountError,
    CurveParams,
    IntTuple,
    WsgapError,
    check_tuple,
    sorted_unique,
)
from . import maximals as mx
from . import oracle

GAP_METHODS = ("complement", "union_nabla", "explicit_s")
PURE_METHODS = ("profile", "intersection")


class TupleRows:
    """Sorted m-tuples in row form: the tuples that share their first m-1
    coordinates make one row.

    A row is a pair ``(prefix, lasts)``: the m-1 shared coordinates and
    the last coordinates of the row's tuples, ascending and never empty.
    Rows come in lexicographic order of their prefixes, and several rows
    may share one ``lasts`` tuple; the constructor takes the prefixes and
    the lasts of the rows as two sequences in that order.  Everything is
    immutable, since a cache hands the same rows to every caller.
    ``tuples`` builds the tuples on first access and keeps them.
    """

    __slots__ = ("_prefixes", "_lasts", "_len", "_tuples")

    def __init__(self, prefixes: Iterable[IntTuple], lasts: Iterable[IntTuple]) -> None:
        self._prefixes = tuple(prefixes)
        self._lasts = tuple(lasts)
        self._len = sum(map(len, self._lasts))
        self._tuples: tuple[IntTuple, ...] | None = None

    def __len__(self) -> int:
        return self._len

    @property
    def tuples(self) -> tuple[IntTuple, ...]:
        """The tuples in order, built on first access and kept."""
        if self._tuples is None:
            self._tuples = tuple([prefix + (v,) for prefix, lasts in self.rows() for v in lasts])
        return self._tuples

    def rows(self) -> Iterator[tuple[IntTuple, IntTuple]]:
        """(prefix, last coordinates) of every row, in order."""
        return zip(self._prefixes, self._lasts)


class _TupleField:
    """A ``GapReport`` field given as ``TupleRows`` or as tuples, read as tuples.

    The value is stored as given; reading the field returns its tuples,
    which a ``TupleRows`` builds on first access and keeps.
    """

    def __set_name__(self, owner, name: str) -> None:
        self.name = name

    def __get__(self, report, owner=None):
        if report is None:
            raise AttributeError(self.name)  # the dataclass field has no default
        value = report.__dict__[self.name]
        return value.tuples if isinstance(value, TupleRows) else value

    def __set__(self, report, value) -> None:
        report.__dict__[self.name] = value if isinstance(value, TupleRows) else tuple(value)


@dataclass(frozen=True)
class GapReport:
    """Gap and pure-gap sets for one parameter choice, with provenance.

    ``gaps`` and ``pure_gaps`` read as sorted tuples.  The routes hand
    them over in row form where they have one (``gap_rows``,
    ``pure_rows``), and the tuples are only built when a field is read.
    """

    params: CurveParams
    gaps: tuple[IntTuple, ...] = _TupleField()
    pure_gaps: tuple[IntTuple, ...] = _TupleField()
    method: str
    stats: dict

    def __post_init__(self) -> None:
        if not _is_subset(self.pure_rows, self.gap_rows):
            raise WsgapError("pure gaps outside the gap set")

    @property
    def gap_rows(self) -> TupleRows | tuple[IntTuple, ...]:
        """The gaps as handed over: ``TupleRows``, or tuples."""
        return self.__dict__["gaps"]

    @property
    def pure_rows(self) -> TupleRows | tuple[IntTuple, ...]:
        """The pure gaps as handed over: ``TupleRows``, or tuples."""
        return self.__dict__["pure_gaps"]


def _is_subset(small, big) -> bool:
    """Whether every tuple of ``small`` lies in ``big`` (each ``TupleRows``
    or tuples), by one merge of their rows in prefix order."""
    rows = _sorted_rows(big)
    for prefix, lasts in _sorted_rows(small):
        for other, others in rows:
            if other >= prefix:
                break
        else:
            return False
        if other != prefix or not set(lasts).issubset(others):
            return False
    return True


def _sorted_rows(seq) -> Iterator[tuple[IntTuple, Sequence[int]]]:
    """The rows of a tuple set in prefix order: a ``TupleRows`` as it is,
    plain tuples (in any order, possibly repeated) sorted and grouped."""
    if isinstance(seq, TupleRows):
        return seq.rows()
    return ((prefix, [t[-1] for t in run])
            for prefix, run in itertools.groupby(sorted(set(seq)), key=lambda t: t[:-1]))


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
    """Gaps and pure gaps in row form, from the oracle's residue thresholds.

    By ``oracle._attained``, coordinate k of beta is reached iff
    F_r(beta) = floor((t - f_r)/b) - #{x in S : x < r} >= 0 for r = r_k,
    where S holds the residues of beta_2..beta_m, t = sum(beta) - sum(S),
    r_1 = hit[beta_1 mod b] and r_k = beta_k mod b.  Write the prefix
    P = (beta_1, ..., beta_{m-1}) as beta_1 = b*q_1 + u and
    beta_j = b*q_j + s_j (residues below b), call sig = (u, s_2, ...,
    s_{m-1}) its signature and Q = q_1 + ... + q_{m-1} its quotient sum,
    and write beta_m = b*q + s.  Then S is S' = {s_2, ..., s_{m-1}} plus s,
    t = u + b*(Q + q) and r_m = s, so coordinate k is reached iff
    q >= A_k(s) - Q, where

        A_k(s) = #{x in S' : x < r_k} + [s < r_k] - floor((u - f[r_k])/b),

    the bracket 0 for k = m.  With H(s) = max_k A_k(s) and
    h(s) = min_k A_k(s), beta is a member iff q >= H(s) - Q, a pure gap
    iff q < h(s) - Q, and a gap iff it is no member and beta_m < L, where
    L = 2g - sum(P) = 2g - sum(sig) - b*Q.  So a row depends on (sig, Q)
    alone.  Taking w = beta_m + b*Q, which keeps the class s and adds Q
    to the quotient, the gap row of (sig, Q) is the cut list
    W = {w < 2g - sum(sig) : floor(w/b) < H(w mod b)} from b*Q on, shifted
    down by b*Q; the pure row is the same with h.  H and h read sig only
    through u and the multiset S', so signatures that permute
    s_2..s_{m-1} share one table.  Each row is built once as a tuple and
    shared by every prefix with the same (sig, Q).

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
    f, hit = oracle._residue_table(params)
    width = min(b, n)  # the residues of coordinates below 2g
    values = list(range(n))
    # A threshold A on class s is kept as its end b*A + s: the w of class s
    # with floor(w/b) < A are the w < b*A + s.  A_m(s) = base(s) and
    # A_k(s) = base(r_k) + [s < r_k] for k < m, where
    # base(r) = #{x in S' : x < r} - floor((u - f[r])/b), and the end of
    # A_m(s) is below[S'][s] + lift[u][s].
    lift = [[b * -((u - x) // b) + s for s, x in enumerate(f)] for u in range(width)]
    steps = [[s + b * (s < cut) for s in range(b)] for cut in range(b + 1)]
    below: dict[IntTuple, list[int]] = {}
    shared: dict[tuple, list] = {}
    leaves = []  # rows by Q, per signature in lexicographic order
    for u, *others in itertools.product(range(width), repeat=m - 1):
        rest = tuple(sorted(others))
        rows = shared.get((u, rest))
        if rows is None:
            if rest not in below:
                below[rest] = [b * bisect.bisect_left(rest, r) for r in range(b)]
            own = list(map(operator.add, below[rest], lift[u]))
            rows = shared[u, rest] = _signature_rows(own, (hit[u], *rest), n - u - sum(rest),
                                                     steps, values)
        leaves.append(rows)

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


def _signature_rows(own: list[int], reach: Sequence[int], room: int, steps: list[list[int]],
                    values: list[int]) -> list[tuple[IntTuple, IntTuple]]:
    """(gap row, pure row) by quotient sum Q for the signatures of one table.

    In the terms of ``_residue_gap_sets``: ``own[s]`` is the end of
    A_m(s), ``reach`` holds r_1, ..., r_{m-1} and ``room`` is
    2g - sum(sig); ``steps[c][s]`` is s + b*[s < c] and ``values[v]`` is v.
    Raises ``WsgapError`` if the signatures fail the whole-cube test.
    """
    b = len(own)
    # The largest base(r) + [s < r] over r in reach is top + 1 below the
    # last r with base(r) = top, the largest, and top from there on; the
    # smallest is bottom + 1 below the first r with base(r) = bottom, the
    # smallest, and bottom from there on.  Here at holds b*base(r).
    reach = sorted(reach)
    at = [own[r] - r for r in reach]
    top, bottom = max(at), min(at)
    top_step = steps[reach[len(at) - 1 - at[::-1].index(top)]]
    bottom_step = steps[reach[at.index(bottom)]]
    ends = [x if x > y + top else y + top for x, y in zip(own, top_step)]  # of H(s)
    # the first w >= max(room, 0) of class s lies below max(room, 0) + b,
    # and the test H(s) <= max(c(s), 0) says ends[s] is at most that w
    if max(ends) >= max(room, 0) + b:
        raise WsgapError("a tuple with coordinate sum >= 2g is not a member")
    if room <= 0:
        return []
    pure_ends = [x if x < y + bottom else y + bottom for x, y in zip(own, bottom_step)]
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


def _union_nabla_slabs(params: CurveParams, include_zero_family: bool) -> Iterator[list]:
    """The slabs {x >= 0 : x_i = beta*_i, x_j < beta*_j} over the
    nonnegative relative maximals beta* and the coordinates i, leaving out
    the empty ones (beta*_i negative or some other beta*_j nonpositive)."""
    n = 2 * params.genus
    for beta_star in mx.lambda_nonneg(params, include_zero_family):
        for i, pin in enumerate(beta_star):
            if pin >= 0 and min(beta_star[:i] + beta_star[i + 1:]) >= 1:
                yield [pin if j == i else range(min(c, n)) for j, c in enumerate(beta_star)]


def _explicit_s_slabs(params: CurveParams) -> Iterator[list]:
    """The slabs of the index families S_{i,k}, written in (a, b, m)."""
    a, b, m, n = params.a, params.b, params.m, 2 * params.genus
    for i in range(1, b):
        jmax = (a * (b - i) - b) // b
        for d in mx.shift_vectors((0,) * (m - 1), jmax):
            first = a * (b - i) - b * (1 + sum(d))
            others = [range(min(i + b * dt, n)) for dt in d]
            # family with the first coordinate pinned to a(b-i) - b(1+j), j = sum(d)
            yield [first] + others
            if first < 1:
                continue
            # families with coordinate k >= 2 pinned to i + b*d_k
            for k in range(1, m):
                idx = [range(min(first, n))] + others
                idx[k] = i + b * d[k - 1]
                yield idx


def _pure_set_intersection(params: CurveParams, include_zero_family: bool) -> tuple[IntTuple, ...]:
    """Pure gaps by picking one relative maximal per coordinate.

    A combination (beta^1, ..., beta^m) contributes exactly when
    beta^i_i < beta^j_i for every i and j != i, and then its single
    common point is (beta^1_1, ..., beta^m_m).

    The choices are made coordinate by coordinate, and partial choices
    that cannot differ later are merged.  Once beta^1..beta^i are fixed,
    a later choice beta^l (l > i) must satisfy beta^k_k < beta^l_k for
    every k <= i, which reads only the diagonal (beta^1_1, ..., beta^i_i),
    and beta^l_l < beta^k_l for every k <= i, which reads only the
    minimum of beta^k_l over k <= i.  Two partial choices with the same
    diagonal and the same minima at the later coordinates therefore
    admit the same completions, and the output only keeps diagonals, so
    each level walks a set of (diagonal, minima) states.  At coordinate i
    the candidates come from the relative maximals sorted by coordinate
    i, cut at the first one not below the minimum there.
    """
    lam = mx.lambda_nonneg(params, include_zero_family)
    m = params.m
    # states: (diagonal so far, minima at the coordinates not yet chosen)
    states: set[tuple] = {((), (math.inf,) * m)}
    for i in range(m):
        by_i = sorted(lam, key=lambda t: t[i])
        keys = [t[i] for t in by_i]
        nxt = set()
        for diag, mins in states:
            for cand in by_i[:bisect.bisect_left(keys, mins[0])]:
                if all(map(operator.lt, diag, cand)):
                    nxt.add((diag + (cand[i],), tuple(map(min, mins[1:], cand[i + 1:]))))
        states = nxt
    return sorted_unique(diag for diag, _ in states)


def _report(params: CurveParams, gap_set, pure_set, method: str,
            gap_method: str, pure_method: str) -> GapReport:
    B = 2 * params.genus - 1
    return GapReport(
        params=params,
        gaps=gap_set,
        pure_gaps=pure_set,
        method=method,
        stats={
            "gap_count": len(gap_set),
            "pure_gap_count": len(pure_set),
            "bounding_box": {"lo": [0] * params.m, "hi": [B] * params.m},
            "gap_method": gap_method,
            "pure_gap_method": pure_method,
        },
    )


def _single_point_report(params: CurveParams, method: str, gap_method: str) -> GapReport:
    singles = tuple((t,) for t in numerical_gaps(params.a, params.b))
    return _report(params, singles, singles, method, gap_method, "single-point")


def gaps(params: CurveParams, method: str = "complement",
         include_zero_family: bool = False) -> GapReport:
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
    n = 2 * params.genus
    if method == "union_nabla":
        gap_rows = _cube_rows(params.m, n, _union_nabla_slabs(params, include_zero_family))
    elif method == "explicit_s":
        gap_rows = _cube_rows(params.m, n, _explicit_s_slabs(params))
    return _report(params, gap_rows, pure, method, method, "profile")


def pure_gaps(params: CurveParams, method: str = "profile",
              include_zero_family: bool = False) -> GapReport:
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
        pure = _pure_set_intersection(params, include_zero_family)
    return _report(params, gap_rows, pure, method, "complement", method)


def nabla_bar_nonneg(params: CurveParams, beta_star: Sequence[int]) -> tuple[IntTuple, ...]:
    """Nonnegative tuples agreeing with beta* somewhere, smaller elsewhere."""
    if params.m < 2:
        raise BadPointCountError("nabla sets need m >= 2")
    beta_star = check_tuple(params, beta_star)
    m = params.m
    out: set[IntTuple] = set()
    for i in range(m):
        if beta_star[i] < 0 or any(beta_star[j] < 1 for j in range(m) if j != i):
            continue
        ranges = [range(beta_star[j]) if j != i else (beta_star[i],) for j in range(m)]
        out.update(itertools.product(*ranges))
    return sorted_unique(out)


def pure_gap_witness(params: CurveParams, alpha: Sequence[int],
                     include_zero_family: bool = False) -> tuple[IntTuple, ...] | None:
    """One relative maximal per coordinate exhibiting alpha as a pure gap.

    Coordinate i gets the first (in sorted order) nonnegative relative
    maximal whose i-th coordinate equals alpha_i and whose remaining
    coordinates strictly exceed alpha; None when some coordinate has no
    such witness, in particular whenever alpha is not a pure gap.
    """
    if params.m < 2:
        raise BadPointCountError("pure gaps need m >= 2")
    alpha = check_tuple(params, alpha)
    others = params.m - 1
    chosen = []
    for i, by_value in enumerate(_witness_index(params, include_zero_family)):
        for cand in by_value.get(alpha[i], ()):
            # cand_i equals alpha_i, so the others all exceed alpha when
            # m - 1 coordinates do
            if sum(map(operator.gt, cand, alpha)) == others:
                chosen.append(cand)
                break
        else:
            return None
    return tuple(chosen)


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _witness_index(params: CurveParams, include_zero_family: bool) -> tuple[dict, ...]:
    """Per coordinate i, the relative maximals by their i-th value, in sorted order."""
    index: tuple[dict, ...] = tuple({} for _ in range(params.m))
    for cand in mx.lambda_nonneg(params, include_zero_family):
        for i, by_value in enumerate(index):
            by_value.setdefault(cand[i], []).append(cand)
    return tuple({v: tuple(cands) for v, cands in by_value.items()} for by_value in index)


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


@dataclass(frozen=True)
class SigmaTable:
    """The two-point pairing: gap sequences, sigma, pairs, inversions.

    ``sigma`` is 1-based as a permutation of {1..g}: sigma[i-1] is the
    index paired with gap index i.  ``inversions`` holds the pairs
    (i, j) with i < j and sigma(i) > sigma(j); each inversion yields the
    pure gap (gaps_q1[i-1], gaps_q2[sigma(j)-1]).
    """

    params: CurveParams
    gaps_q1: tuple[int, ...]
    gaps_q2: tuple[int, ...]
    sigma: tuple[int, ...]
    gamma_pairs: tuple[IntTuple, ...]
    inversions: tuple[tuple[int, int], ...]


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
    inversions = tuple(
        (i, j)
        for i in range(1, params.genus + 1)
        for j in range(i + 1, params.genus + 1)
        if sigma[i - 1] > sigma[j - 1]
    )
    return SigmaTable(params=params, gaps_q1=seq, gaps_q2=seq2, sigma=sigma,
                      gamma_pairs=pairs, inversions=inversions)


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
    for i, j in table.inversions:
        out.add((table.gaps_q1[i - 1], table.gaps_q2[table.sigma[j - 1] - 1]))
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
