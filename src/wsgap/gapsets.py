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

The complement gaps and the profile pure gaps come from one walk over
the first coordinate of [0, 2g-1]^m that keeps a single (m-1)-dimensional
slab of the envelope in memory and reads both sets off it in
lexicographic order.  The union_nabla and explicit_s routes mark dense
boolean cubes over [0, 2g-1]^m and stay independent of that walk, as
cross-checks.
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


@lru_cache(maxsize=CURVE_CACHE_SIZE)
def _profile_walk(params: CurveParams) -> tuple[tuple[IntTuple, ...], tuple[IntTuple, ...]]:
    """Gaps and pure gaps of [0, B]^m, walking the first coordinate.

    Seeds an envelope with the coordinate values of every absolute
    maximal below (B, ..., B), clamped into the cube, so that after
    running maxima along all axes cell beta holds the componentwise
    maximum over the absolute maximals <= beta: beta is a member when
    that maximum equals beta and a pure gap when it is strictly below
    beta in every coordinate (or there is no maximal below beta).

    The running maximum along the first axis is kept as one slab of
    shape (m,) + (B+1,)*(m-1).  At slab s the maximals whose clamped
    first coordinate is s are maxed in and the running maxima along the
    other m-1 axes taken again; the slab already holds those maxima for
    the earlier slabs, so this equals accumulating the new seeds alone
    and folding them in.  Each slab then yields its gaps (inside the
    simplex sum <= B and not members) and pure gaps in lexicographic
    order.  Slabs span the whole cube so that a pure cell outside the
    simplex is caught.
    """
    m, B = params.m, _bound(params)
    n = B + 1
    gammas = np.array(oracle.local_absolute_maximals(params, (B,) * m).gamma_hat_beta,
                      dtype=np.int64).reshape(-1, m)
    # Against cells >= 0 only the sign of a negative value matters, so
    # values clamp to -1, which also stands for "no maximal below"; the
    # smallest signed type holding [-1, B] then suffices.
    dtype = np.min_scalar_type(-n)
    gammas = gammas[np.argsort(np.maximum(gammas[:, 0], 0))]
    cells = np.maximum(gammas, 0)
    values = np.maximum(gammas, -1).astype(dtype)
    # seeds of slab s are rows bounds[s]:bounds[s+1]
    bounds = np.searchsorted(cells[:, 0], np.arange(n + 1))

    envel = np.full((m,) + (n,) * (m - 1), -1, dtype=dtype)
    grid = np.ogrid[(slice(0, n),) * (m - 1)]
    coords = [c.astype(dtype) for c in grid]
    coord_sum = sum(grid)
    gap_cells, pure_cells = [], []
    for s in range(n):
        lo, hi = bounds[s], bounds[s + 1]
        if hi > lo:
            idx = tuple(cells[lo:hi, 1:].T)
            for k in range(m):
                np.maximum.at(envel[k], idx, values[lo:hi, k])
            for axis in range(1, m):
                _running_max(envel, axis)
        member = envel[0] == s
        pure = envel[0] < s
        for k in range(1, m):
            member &= envel[k] == coords[k - 1]
            pure &= envel[k] < coords[k - 1]
        inside = coord_sum <= B - s
        if (pure & ~inside).any():
            raise WsgapError("pure-gap cube reaches outside the simplex")
        offset = s * n ** (m - 1)
        gap_cells.append(np.flatnonzero(inside & ~member) + offset)
        pure_cells.append(np.flatnonzero(pure) + offset)
    shape = (n,) * m
    return (_cells_to_tuples(np.concatenate(gap_cells), shape),
            _cells_to_tuples(np.concatenate(pure_cells), shape))


def _running_max(a: np.ndarray, axis: int) -> None:
    """Running maximum of ``a`` along ``axis``, in place."""
    if axis == a.ndim - 1:
        np.maximum.accumulate(a, axis=axis, out=a)
        return
    # Along an outer axis numpy's accumulate runs short strided inner
    # loops; maxing whole hyperplanes in turn is several times faster.
    planes = np.moveaxis(a, axis, 0)
    for i in range(1, planes.shape[0]):
        np.maximum(planes[i], planes[i - 1], out=planes[i])


def _cells_to_tuples(flat: np.ndarray, shape: tuple[int, ...]) -> tuple[IntTuple, ...]:
    """Index tuples of ascending C-order flat indices, hence in lexicographic order."""
    return tuple(zip(*(c.tolist() for c in np.unravel_index(flat, shape))))


def _mask_to_tuples(mask: np.ndarray) -> tuple[IntTuple, ...]:
    return _cells_to_tuples(np.flatnonzero(mask), mask.shape)


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
    gap_tuples, pure = _profile_walk(params)
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
    gap_tuples, pure = _profile_walk(params)
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
