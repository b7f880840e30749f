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
coordinate is reached.  The union_nabla and explicit_s routes mark dense
boolean cubes over [0, 2g-1]^m and stay independent of it, as cross-checks.
"""

from __future__ import annotations

import bisect
import itertools
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
    CURVE_CACHE_SIZE,
    BadPointCountError,
    CurveParams,
    IntTuple,
    WsgapError,
    check_tuple,
    glb,
    sorted_unique,
)
from . import maximals as mx
from . import oracle

GAP_METHODS = ("complement", "union_nabla", "explicit_s")
PURE_METHODS = ("profile", "intersection")


@dataclass(frozen=True)
class GapReport:
    """Gap and pure-gap sets for one parameter choice, with provenance."""

    params: CurveParams
    gaps: tuple[IntTuple, ...]
    pure_gaps: tuple[IntTuple, ...]
    method: str
    stats: dict

    def __post_init__(self) -> None:
        if not set(self.pure_gaps) <= set(self.gaps):
            raise WsgapError("pure gaps outside the gap set")


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


def _bound(params: CurveParams) -> int:
    return 2 * params.genus - 1


# prefixes per block times 2g values of beta_m: temporaries of a few 100 kB
_BLOCK_CELLS = 1 << 15


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _residue_gap_sets(params: CurveParams) -> tuple[tuple[IntTuple, ...], tuple[IntTuple, ...]]:
    """Gaps and pure gaps, row by row from the oracle's residue thresholds.

    By ``oracle._attained``, coordinate k of beta is reached iff
    F_r(beta) = floor((t - f_r)/b) - #{x in S : x < r} >= 0 for r = r_k,
    where S holds the residues of beta_2..beta_m, t = sum(beta) - sum(S),
    r_1 = hit[beta_1 mod b] and r_k = beta_k mod b.  For the prefix
    P = (beta_1, ..., beta_{m-1}) and beta_m = b*q + s (0 <= s < b), S is
    S' (the residues of beta_2..beta_{m-1}) plus s, t = t' + b*q with
    t' = sum(P) - sum(S'), and r_m = s; so coordinate k is reached iff
    q >= need_k(s) = #{x in S' : x < r_k} + [s < r_k] - floor((t' - f[r_k])/b),
    the bracket 0 for k = m.  beta is a member iff q >= max_k need_k(s),
    a pure gap iff q < min_k need_k(s), and a gap iff it is no member
    and beta_m < 2g - sum(P).

    Over every prefix of the whole cube [0, 2g-1]^(m-1), the first
    beta_m >= 0 in each class s with sum(beta) >= 2g must be a member,
    or ``WsgapError`` is raised.  Membership in a class only grows with
    q, so no gap, hence no pure gap, lies outside the simplex, as
    Riemann-Roch promises.  Prefixes go in lexicographic order, a block
    at a time, and rows in ascending beta_m: the tuples come out sorted.
    """
    b, m, n = params.b, params.m, 2 * params.genus
    f, hit = (np.array(x) for x in oracle._residue_table(params))
    s, v = np.arange(b), np.arange(n)
    v_class = v % b
    prefixes = n ** (m - 1)
    rows = max(1, _BLOCK_CELLS // n)
    gaps, pure_gaps = [], []
    for start in range(0, prefixes, rows):
        flat = np.arange(start, min(start + rows, prefixes))
        prefix = np.unravel_index(flat, (n,) * (m - 1))
        res = [c % b for c in prefix[1:]]
        total = sum(prefix)
        t = total - sum(res)
        # need_m(s) = base[:, s]; need_k(s) = base[:, r_k] + [s < r_k] for k < m
        base = sum(x[:, None] < s for x in res) - (t[:, None] - f) // b
        hi, lo = base.copy(), base.copy()
        for r in [hit[prefix[0] % b]] + res:
            step = np.take_along_axis(base, r[:, None], 1) + (s < r[:, None])
            np.maximum(hi, step, out=hi)
            np.minimum(lo, step, out=lo)
        # the first beta_m >= low in class s has quotient ceil((low - s)/b)
        low = np.maximum(n - total, 0)[:, None]
        if (-((s - low) // b) < hi).any():
            raise WsgapError("a tuple with coordinate sum >= 2g is not a member")
        inside = total < n
        heads = [c[inside] for c in prefix]
        gap = (v < (b * hi[inside] + s)[:, v_class]) & (v < n - total[inside, None])
        pure = gap & (v < (b * lo[inside] + s)[:, v_class])
        for out, mask in ((gaps, gap), (pure_gaps, pure)):
            row, last = np.nonzero(mask)
            out.extend(_index_tuples([c[row] for c in heads] + [last]))
    return tuple(gaps), tuple(pure_gaps)


def _index_tuples(columns: Sequence[np.ndarray]) -> tuple[IntTuple, ...]:
    """Tuples from equal-length index columns, row by row."""
    return tuple(zip(*(c.tolist() for c in columns)))


def _mask_to_tuples(mask: np.ndarray) -> tuple[IntTuple, ...]:
    """The set cells of ``mask``, in lexicographic (C) order."""
    return _index_tuples(np.nonzero(mask))


def _nabla_slab_ranges(params: CurveParams, beta_star: IntTuple, i: int) -> list | None:
    """Index ranges of {x >= 0 : x_i = beta*_i, x_j < beta*_j} in the cube.

    Returns None when the set is empty (the fixed coordinate negative or
    some other coordinate nonpositive).  Nonempty slabs always fit the
    cube: every family member with positive surroundings stays below 2g.
    """
    m, B = params.m, _bound(params)
    if beta_star[i] < 0:
        return None
    if any(beta_star[j] < 1 for j in range(m) if j != i):
        return None
    if beta_star[i] > B:
        raise WsgapError(f"nabla slab of {beta_star} leaves the cube")
    return [slice(0, min(beta_star[j], B + 1)) if j != i else beta_star[i]
            for j in range(m)]


def _gap_mask_union_nabla(params: CurveParams, include_zero_family: bool) -> np.ndarray:
    mask = np.zeros(((_bound(params)) + 1,) * params.m, dtype=bool)
    for beta_star in mx.lambda_nonneg(params, include_zero_family):
        for i in range(params.m):
            idx = _nabla_slab_ranges(params, beta_star, i)
            if idx is not None:
                mask[tuple(idx)] = True
    return mask


def _gap_mask_explicit_s(params: CurveParams) -> np.ndarray:
    a, b, m, B = params.a, params.b, params.m, _bound(params)
    mask = np.zeros((B + 1,) * m, dtype=bool)
    for i in range(1, b):
        jmax = (a * (b - i) - b) // b
        for d in mx.shift_vectors((0,) * (m - 1), jmax):
            j = sum(d)
            first = a * (b - i) - b * (1 + j)
            others = [slice(0, min(i + b * dt, B + 1)) for dt in d]
            # family with the first coordinate pinned to a(b-i) - b(1+j)
            mask[tuple([first] + others)] = True
            if first < 1:
                continue
            # families with coordinate k >= 2 pinned to i + b*d_k
            for k in range(1, m):
                idx = [slice(0, min(first, B + 1))] + others
                idx[k] = i + b * d[k - 1]
                mask[tuple(idx)] = True
    return mask


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


def _report(params: CurveParams, gap_tuples, pure_tuples, method: str,
            gap_method: str, pure_method: str) -> GapReport:
    B = _bound(params)
    return GapReport(
        params=params,
        gaps=tuple(gap_tuples),
        pure_gaps=tuple(pure_tuples),
        method=method,
        stats={
            "gap_count": len(gap_tuples),
            "pure_gap_count": len(pure_tuples),
            "bounding_box": {"lo": [0] * params.m, "hi": [B] * params.m},
            "gap_method": gap_method,
            "pure_gap_method": pure_method,
        },
    )


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
        singles = tuple((t,) for t in numerical_gaps(params.a, params.b))
        return _report(params, singles, singles, method, method, "single-point")
    gap_tuples, pure = _residue_gap_sets(params)
    if method == "union_nabla":
        gap_tuples = _mask_to_tuples(_gap_mask_union_nabla(params, include_zero_family))
    elif method == "explicit_s":
        gap_tuples = _mask_to_tuples(_gap_mask_explicit_s(params))
    return _report(params, gap_tuples, pure, method, method, "profile")


def pure_gaps(params: CurveParams, method: str = "profile",
              include_zero_family: bool = False) -> GapReport:
    """The finite pure-gap set, by the requested route."""
    if params.m < 2:
        raise BadPointCountError("pure gaps need m >= 2")
    if method not in PURE_METHODS:
        raise WsgapError(f"unknown pure-gap method {method!r}; choose from {PURE_METHODS}")
    gap_tuples, pure = _residue_gap_sets(params)
    if method == "intersection":
        pure = _pure_set_intersection(params, include_zero_family)
    return _report(params, gap_tuples, pure, method, "complement", method)


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
