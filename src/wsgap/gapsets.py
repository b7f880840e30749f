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

Sweeps are evaluated on boolean cubes over [0, 2g-1]^m so that the
whole parameter sweep stays fast; tuple lists are extracted from the
cubes in lexicographic order.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Sequence

import numpy as np

from .core import (
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


@lru_cache(maxsize=None)
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


@lru_cache(maxsize=None)
def _profile_grids(params: CurveParams) -> tuple[np.ndarray, np.ndarray]:
    """Boolean member/pure-drop cubes over [0, B]^m from the oracle profile.

    Seeds one integer grid per coordinate with the coordinate values of
    every absolute maximal below (B, ..., B) (clamped into the cube) and
    takes running maxima along all axes; cell beta then holds the
    componentwise maximum over the absolute maximals <= beta.
    """
    m, B = params.m, _bound(params)
    shape = (B + 1,) * m
    sentinel = -(1 << 60)
    envel = [np.full(shape, sentinel, dtype=np.int64) for _ in range(m)]
    gammas = oracle.local_absolute_maximals(params, (B,) * m).gamma_hat_beta
    for gamma in gammas:
        cell = tuple(max(c, 0) for c in gamma)
        for k in range(m):
            if envel[k][cell] < gamma[k]:
                envel[k][cell] = gamma[k]
    for k in range(m):
        for axis in range(m):
            np.maximum.accumulate(envel[k], axis=axis, out=envel[k])
    coords = np.ogrid[(slice(0, B + 1),) * m]
    member = np.ones(shape, dtype=bool)
    pure = np.ones(shape, dtype=bool)
    for k in range(m):
        member &= envel[k] == coords[k]
        pure &= envel[k] < coords[k]
    return member, pure


@lru_cache(maxsize=None)
def _simplex_mask(params: CurveParams) -> np.ndarray:
    m, B = params.m, _bound(params)
    return sum(np.ogrid[(slice(0, B + 1),) * m]) <= B


def _mask_to_tuples(mask: np.ndarray) -> tuple[IntTuple, ...]:
    # argwhere walks the cube in C order, which is lexicographic here
    return tuple(map(tuple, np.argwhere(mask).tolist()))


def _gap_mask_complement(params: CurveParams) -> np.ndarray:
    member, _ = _profile_grids(params)
    return _simplex_mask(params) & ~member


def _pure_mask_profile(params: CurveParams) -> np.ndarray:
    _, pure = _profile_grids(params)
    if (pure & ~_simplex_mask(params)).any():
        raise WsgapError("pure-gap cube reaches outside the simplex")
    return pure


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
    common point is (beta^1_1, ..., beta^m_m).  The recursion checks the
    pairwise conditions as soon as both sides are chosen.
    """
    lam = mx.lambda_nonneg(params, include_zero_family)
    m = params.m
    out: set[IntTuple] = set()

    def rec(i: int, chosen: list[IntTuple]) -> None:
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
    if method == "complement":
        mask = _gap_mask_complement(params)
    elif method == "union_nabla":
        mask = _gap_mask_union_nabla(params, include_zero_family)
    else:
        mask = _gap_mask_explicit_s(params)
    pure = _mask_to_tuples(_pure_mask_profile(params))
    return _report(params, _mask_to_tuples(mask), pure, method, method, "profile")


def pure_gaps(params: CurveParams, method: str = "profile",
              include_zero_family: bool = False) -> GapReport:
    """The finite pure-gap set, by the requested route."""
    if params.m < 2:
        raise BadPointCountError("pure gaps need m >= 2")
    if method not in PURE_METHODS:
        raise WsgapError(f"unknown pure-gap method {method!r}; choose from {PURE_METHODS}")
    if method == "profile":
        pure = _mask_to_tuples(_pure_mask_profile(params))
    else:
        pure = _pure_set_intersection(params, include_zero_family)
    gap_tuples = _mask_to_tuples(_gap_mask_complement(params))
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
    lam = mx.lambda_nonneg(params, include_zero_family)
    chosen = []
    for i in range(params.m):
        for cand in lam:
            if cand[i] == alpha[i] and all(cand[j] > alpha[j]
                                           for j in range(params.m) if j != i):
                chosen.append(cand)
                break
        else:
            return None
    return tuple(chosen)


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
