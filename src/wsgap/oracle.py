"""Membership and dimension oracle for the generalized semigroup.

Everything in this module reduces to one question about the absolute
maximal elements below a target tuple beta: what is the componentwise
maximum of {gamma <= beta : gamma absolute maximal}?  Membership holds
exactly when that maximum equals beta in every coordinate, the dimension
of the space attached to beta counts the distinct first coordinates of
the same finite set, and emptiness of the sets nabla_J(alpha) comes down
to the same profile evaluated at a perturbed target.

The absolute maximals are b translate families rep + lattice.  Family r
(r = 0..b-1) is indexed by its residue in coordinates 2..m: its
representative in the fundamental region is (f_r, r, ..., r), with
f_0 = 0 and f_r = a(b-r) - b(m-1) otherwise.  A translate by shifts d
is (f_r - b*sum(d), r + b*d_2, ..., r + b*d_m); it lies below beta iff
d_j <= floor((beta_j - r)/b) for j >= 2 and sum(d) >= (f_r - beta_1)/b.
So the family has a member below beta iff

    F_r(beta) = floor((beta_1 - f_r)/b) + sum_{j>=2} floor((beta_j - r)/b) >= 0,

and then its first coordinates below beta form a progression of F_r + 1
values.  A feasible family reaches, at coordinate k, the largest value
<= beta_k in its residue class mod b (f_r at k = 1, r otherwise), so the
componentwise maximum falls short of beta_k by the smallest residue
distance (beta_k - class) mod b over the feasible families.

Let S be the multiset of residues of beta_2..beta_m mod b.  Writing
beta_j = b*q_j + s_j with 0 <= s_j < b, floor((beta_j - r)/b) is q_j,
less one when s_j < r; so with t = beta_1 + b*sum(q_j) = sum(beta) - sum(S),
F_r >= 0 iff theta_r <= t, where

    theta_r = f_r + b*#{s in S : s < r},

and then F_r + 1 = (t - theta_r)//b + 1.  The thresholds theta_r depend
on beta only through the multiset S, of which a curve has at most
C(b+m-2, m-1), so each curve keeps a store of signature tables keyed by
S, filled on first use and capped at ``SIGNATURE_CAP`` tables, the
oldest evicted first.  A table holds theta by family and the largest
and the smallest theta over S, and later theta in ascending order.
Coordinate k reaches beta_k exactly when the one family in the residue
class of beta_k is feasible: r = beta_k mod b for k >= 2, and for k = 1
the r = hit[beta_1 mod b] with f_r = beta_1 (mod b), unique because
f_r = -a*r (mod b) and gcd(a, b) = 1.  So, after one pass that checks
beta and reduces it mod b (``_query``) and two dictionary lookups:

* membership is two comparisons with t: the family reaching
  coordinate 1, and the largest theta over the families of S;
* a nabla profile test reads theta at the |J| reaching families of the
  perturbed target;
* the dimension sums (t - theta_r)//b + 1 over the feasible families,
  walking theta in ascending order until it passes t; once every
  family is feasible it is t + 1 - sum_r floor(theta_r/b), as the
  theta_r fill every class mod b once;
* the envelope is beta itself once every family is feasible, None when
  none is, and otherwise steps each coordinate's class down until the
  family reaching it is feasible.

A query thus costs O(m) plus, for the dimension and the envelope, O(b)
at worst.  A new signature costs O(b) to build, and O(b log b) more the
first time a dimension or an envelope needs its thetas sorted; nothing
is enumerated, and a table holds at most 2b + 3 numbers.  The explicit
enumeration (``local_absolute_maximals``) lists the translates below beta
with the walk that every expansion of the maximal families uses
(``maximals.translates``), which reads none of the thresholds above; the
test suite and ``verify`` check the two against each other.
"""

from __future__ import annotations

import itertools
from operator import add
from typing import Collection, Iterable, Literal, Sequence

from .core import (
    BadPointCountError,
    CurveParams,
    IntTuple,
    Record,
    WsgapError,
    check_tuple,
    curve_cache,
)
from .maximals import absolute_reps, translates

NablaMethod = Literal["search", "profile"]


class LocalProfile(Record):
    """The finite set of absolute maximals below ``beta`` and its envelope."""

    beta: IntTuple
    gamma_hat_beta: tuple[IntTuple, ...]
    per_coord_max: tuple[int | None, ...]


# Signature tables kept per curve; past it the oldest is evicted first.
SIGNATURE_CAP = 4096


class _Signature:
    """Family thresholds for one residue multiset S of beta_2..beta_m.

    ``theta[r]`` is f_r + b*#{s in S : s < r}: family r has a member
    <= beta iff theta[r] <= t = sum(beta) - sum(S).  ``hit`` is the
    curve's table of the family reaching coordinate 1 per residue of
    beta_1, and ``top`` and ``bottom`` the largest and the smallest theta
    at the residues in S, so beta is a member iff theta[hit[beta_1 mod b]]
    and top are <= t, and no coordinate is reached while it and bottom
    are > t.  The thetas in ascending order (``order``) are sorted when a
    dimension or an envelope first asks for them; every family is
    feasible from t = order[-1] on, where the dimension is t + 1 - ``full``.
    """

    __slots__ = ("theta", "hit", "top", "bottom", "order", "full")

    def __init__(self, f: Sequence[int], hit: Sequence[int], b: int, S: list[int]):
        # b*#{s in S : s < r}, block by block between the sorted residues
        lift: list[int] = []
        for k, s in enumerate(S):
            lift += [b * k] * (s + 1 - len(lift))
        lift += [b * len(S)] * (b - len(lift))
        self.theta = theta = tuple(map(add, f, lift))
        self.hit = hit
        self.top = max(map(theta.__getitem__, S))
        self.bottom = min(map(theta.__getitem__, S))
        self.order: list[int] | None = None

    def member(self, beta_1: int, t: int, b: int) -> bool:
        """Whether beta, with this S and t, is a member (see above)."""
        return self.top <= t and self.theta[self.hit[beta_1 % b]] <= t

    def _sorted(self, b: int) -> list[int]:
        self.order = order = sorted(self.theta)
        # theta_r mod b = f_r mod b runs over every class once
        self.full = (sum(order) - b * (b - 1) // 2) // b
        return order

    def dim(self, t: int, b: int) -> int:
        """The sum of (t - theta_r)//b + 1 over the families with theta_r <= t."""
        order = self.order or self._sorted(b)
        if t >= order[-1]:
            return t + 1 - self.full
        u = t + b
        total = 0
        for x in order:
            if x > t:
                break
            total += (u - x) // b
        return total

    def envelope(self, beta: IntTuple, t: int, b: int) -> tuple[int, ...] | None:
        """Each coordinate lowered to the nearest class, at or below it
        mod b, that a feasible family reaches there; None if none is."""
        order = self.order or self._sorted(b)
        if t >= order[-1]:
            return beta  # every class is reached at every coordinate
        if t < order[0]:
            return None
        theta, hit = self.theta, self.hit
        # Step down from each coordinate's class until a feasible family
        # reaches it: cyclically, as negative indices wrap around.
        c = beta[0]
        x = c % b
        while theta[hit[x]] > t:
            x -= 1
        out = [c - (c - x) % b]
        for c in beta[1:]:
            x = c % b
            while theta[x] > t:
                x -= 1
            out.append(c - (c - x) % b)
        return tuple(out)


class _Store(dict):
    """A curve's signature tables, keyed by the residue multiset S as the
    sum of ``weights[s]`` = m**s over S: base-m digits that count each
    residue (at most m - 1 times), so no sort is needed to find a table.
    A weight is 0 until its residue is first used (``weight``): all b of
    them would take O(b**2 log m) bits."""

    __slots__ = ("m", "weights")

    def __init__(self, m: int, b: int):
        super().__init__()
        self.m = m
        self.weights = [0] * b

    def weight(self, s: int) -> int:
        w = self.weights[s] = self.m ** s
        return w


@curve_cache
def _residue_table(a: int, b: int, m: int) -> tuple[tuple[int, ...], tuple[int, ...], _Store]:
    """``(f, hit, store)`` of the curve (a, b) at m points (keyed by
    integers: a ``CurveParams`` hashes in Python): ``f[r]`` is the first
    coordinate of family r's representative (f_r, r, ..., r), read from
    ``maximals.absolute_reps``, ``hit[s]`` is the one family with f_r
    congruent to s mod b, and ``store`` holds the curve's signature tables,
    filled by ``_query``.  The gap kernel's plan (``gapsets._plan``)
    builds ``_Signature`` tables from the same f and hit for every
    signature it walks and keeps them out of the store.

    Raises ``WsgapError`` if the representatives are not of that shape or
    two families share a first-coordinate residue, which would break the
    one-family-per-coordinate tests below.
    """
    f: list[int | None] = [None] * b
    for rep in absolute_reps(a, b, m):
        r = rep[1]
        if any(c != r for c in rep[2:]) or f[r] is not None:
            raise WsgapError(f"representative {rep} is not (f_r, r, ..., r) for a new r")
        f[r] = rep[0]
    hit: list[int | None] = [None] * b
    for r, x in enumerate(f):
        s = x % b
        if hit[s] is not None:
            raise WsgapError(f"families {hit[s]} and {r} share the first-coordinate "
                             f"residue {s} mod {b}")
        hit[s] = r
    return tuple(f), tuple(hit), _Store(m, b)


def _query(params: CurveParams, beta: Iterable[int],
           keep: Collection[int] = ()) -> tuple[Sequence[int], _Signature, int]:
    """``(beta, table, t)``: beta read once and checked, the table of its
    residue signature S and t = sum(beta) - sum(S).  Each coordinate is
    checked to be a plain int in the loop that builds S's key and t; a
    failed check raises through ``check_tuple``.  With ``keep``, checked
    1-based indices, beta is first lowered by one off them."""
    m, b = params.m, params.b
    if m < 2:
        raise BadPointCountError("the oracle needs m >= 2")
    alpha = beta = tuple(beta)
    if len(alpha) != m or type(alpha[0]) is not int:
        check_tuple(params, alpha)
    if keep:  # a coordinate that is no int is left for the check below
        beta = [c if k in keep or type(c) is not int else c - 1 for k, c in enumerate(alpha, 1)]
    f, hit, store = _residue_table(params.a, b, m)
    weights, key, t = store.weights, 0, beta[0]
    for c in beta[1:]:
        if type(c) is not int:
            check_tuple(params, alpha)
        s = c % b
        key += weights[s] or store.weight(s)
        t += c - s
    tab = store.get(key)
    if tab is None:
        if len(store) >= SIGNATURE_CAP:
            del store[next(iter(store))]
        tab = store[key] = _Signature(f, hit, b, sorted([c % b for c in beta[1:]]))
    return beta, tab, t


def per_coord_max(params: CurveParams, beta: Sequence[int]) -> tuple[int, ...] | None:
    """Componentwise maximum over the absolute maximals <= beta, or None."""
    beta, tab, t = _query(params, beta)
    return tab.envelope(beta, t, params.b)


def local_absolute_maximals(params: CurveParams, beta: Sequence[int]) -> LocalProfile:
    """Explicit enumeration of every absolute maximal element <= beta.

    This is the reference the residue arithmetic above is checked
    against, so it shares none of it: it lists the lattice translates of
    each representative with ceiling beta (``maximals.translates``).
    """
    if params.m < 2:
        raise BadPointCountError("the oracle needs m >= 2")
    beta = check_tuple(params, beta)
    # no translate repeats: the families differ in residue at coordinate 2
    gammas = tuple(sorted(t for rep in absolute_reps(params.a, params.b, params.m)
                          for t in translates(params, rep, None, beta)))
    pcm = tuple(map(max, zip(*gammas))) if gammas else (None,) * params.m
    return LocalProfile(beta=beta, gamma_hat_beta=gammas, per_coord_max=pcm)


def is_member(params: CurveParams, beta: Sequence[int]) -> bool:
    """Whether beta belongs to the generalized semigroup at the m points."""
    beta, tab, t = _query(params, beta)
    return tab.member(beta[0], t, params.b)


def dim_L(params: CurveParams, beta: Sequence[int]) -> int:
    """Dimension of the function space attached to beta.

    Counts the values t <= beta_1 at which some absolute maximal gamma
    has gamma_1 = t and gamma_j <= beta_j for j >= 2: within family r
    those t form a progression of F_r(beta) + 1 values in the residue
    class of f_r mod b, and families never share a class, so the count
    is a sum of window lengths.
    """
    _, tab, t = _query(params, beta)
    return tab.dim(t, params.b)


def _check_J(params: CurveParams, J: Iterable[int]) -> set[int]:
    """Validate 1-based point indices and return them as a set."""
    Js, m = list(J), params.m
    for k in Js:
        # bool is an int subclass, and True would pass for point 1
        if type(k) is not int or not 0 < k <= m:
            raise WsgapError(f"J must contain point indices in 1..{m}, got {Js}")
    Jset = {*Js}
    if not Jset:
        raise WsgapError("J must be nonempty")
    if len(Jset) == m:
        raise WsgapError("J must be a proper subset of the point indices")
    return Jset


def nabla_J_empty(params: CurveParams, alpha: Sequence[int], J: Iterable[int],
                  method: NablaMethod = "search") -> bool:
    """Whether no member agrees with alpha on J and is smaller elsewhere.

    ``J`` holds 1-based point indices.  The default decides the question
    by exhaustive membership tests over the finite candidate box (any
    member outside it would have negative coordinate sum); ``profile``
    answers from the componentwise-maximum characterization instead and
    is used by the large sweeps.  The two agree, and the test suite
    checks that they do.
    """
    try:
        J = _check_J(params, J)
    except (WsgapError, TypeError):
        _query(params, alpha)  # a bad alpha is reported before a bad J
        raise
    return _nabla_empty(params, alpha, J, method)


def _nabla_empty(params: CurveParams, alpha: Iterable[int], J: Collection[int],
                 method: NablaMethod) -> bool:
    """``nabla_J_empty`` on checked 1-based indices J."""
    if method == "profile":
        # A member of nabla_J exists iff, for every j in J, some absolute
        # maximal reaches alpha_j at coordinate j while staying <= alpha on
        # J and < alpha elsewhere (componentwise maxima of such witnesses
        # assemble the member): iff alpha lowered by one off J is reached
        # at every point of J.
        beta, tab, t = _query(params, alpha, J)
        b, theta, hit = params.b, tab.theta, tab.hit
        for k in J:
            # point 1 reads the family of its first-coordinate class, k >= 2 family beta_k mod b
            x = beta[k - 1] % b
            if theta[hit[x] if k == 1 else x] > t:
                return True
        return False
    alpha, _, _ = _query(params, alpha)
    if method != "search":
        raise WsgapError(f"unknown nabla method {method!r}")
    return _nabla_J_empty_search(params, alpha, J)


def _nabla_J_empty_search(params: CurveParams, alpha: IntTuple, J: Collection[int]) -> bool:
    m = params.m
    free = [k for k in range(m) if k + 1 not in J]
    his = [alpha[k] - 1 for k in free]
    fixed_sum = sum(alpha[k - 1] for k in J)
    # The corner candidate has the largest coordinate sum; at or above 2g
    # it is a member outright.
    if fixed_sum + sum(his) >= 2 * params.genus:
        return False
    # Any member has nonnegative coordinate sum, which bounds each free
    # coordinate below once the others sit at their maxima.
    los = [-(fixed_sum + (sum(his) - his[idx])) for idx in range(len(free))]
    # sum of his[t] for t > idx, for the sum-based pruning below
    tail_his = [sum(his[idx + 1:]) for idx in range(len(free))]

    beta = list(alpha)

    def rec(idx: int, partial_sum: int) -> bool:
        """True when a member is found among completions from ``idx`` on."""
        if idx == len(free):
            _, tab, t = _query(params, beta)
            return tab.member(beta[0], t, params.b)
        k = free[idx]
        for v in range(his[idx], los[idx] - 1, -1):
            if partial_sum + v + tail_his[idx] < 0:
                break  # v only decreases from here; no completion reaches sum >= 0
            beta[k] = v
            if rec(idx + 1, partial_sum + v):
                return True
        return False

    return not rec(0, fixed_sum)


def is_maximal(params: CurveParams, alpha: Sequence[int], method: NablaMethod = "search") -> bool:
    """Member with nabla(alpha) empty, i.e. all single-index nablas empty."""
    return _maximal(params, alpha, method) is not None


def _maximal(params: CurveParams, alpha: Iterable[int], method: NablaMethod) -> IntTuple | None:
    """alpha, checked, if it is maximal, else None."""
    alpha, tab, t = _query(params, alpha)
    maximal = tab.member(alpha[0], t, params.b) and all(
        _nabla_empty(params, alpha, (i,), method) for i in range(1, params.m + 1))
    return alpha if maximal else None


def _big_nabla_kinds(params: CurveParams, alpha: IntTuple,
                     method: NablaMethod) -> tuple[bool, bool]:
    """Whether every nabla_J(alpha) is empty, and whether none is, over
    the proper J of size >= 2; the walk stops once it has seen both."""
    seen: set[bool] = set()
    for size in range(2, params.m):
        for J in itertools.combinations(range(1, params.m + 1), size):
            seen.add(_nabla_empty(params, alpha, J, method))
            if len(seen) == 2:
                return False, False
    return False not in seen, True not in seen


def _maximal_kinds(params: CurveParams, alpha: Iterable[int],
                   method: NablaMethod) -> tuple[bool, bool]:
    """``(absolute, relative)``: maximal with every nabla_J empty, and
    maximal with every nabla_J nonempty, over the proper J of size >= 2.
    At m = 2 there is no such J, and a maximal element is of both kinds.
    """
    alpha = _maximal(params, alpha, method)
    return (False, False) if alpha is None else _big_nabla_kinds(params, alpha, method)


def is_absolute_maximal(params: CurveParams, alpha: Sequence[int],
                        method: NablaMethod = "search") -> bool:
    """Maximal with nabla_J empty for every proper J of size >= 2."""
    return _maximal_kinds(params, alpha, method)[0]


def is_relative_maximal(params: CurveParams, alpha: Sequence[int],
                        method: NablaMethod = "search") -> bool:
    """Maximal with nabla_J nonempty for every proper J of size >= 2."""
    return _maximal_kinds(params, alpha, method)[1]


class RelMaxEquivalence(Record):
    """Three independent evaluations of relative maximality for one tuple."""

    alpha: IntTuple
    definition: bool       # members with empty nabla and all big nabla_J nonempty
    dimension_step: bool   # empty nabla and dim jumps by m-1 from alpha - 1
    pivot_exists: bool     # some i has nabla_i empty and nabla_{i,j} nonempty for all j

    @property
    def agree(self) -> bool:
        return self.definition == self.dimension_step == self.pivot_exists


def check_relmax_equivalence(params: CurveParams, alpha: Sequence[int],
                             method: NablaMethod = "search") -> RelMaxEquivalence:
    """Evaluate the three characterizations of relative maximality,
    deciding each singleton nabla once for all three."""
    alpha, tab, t = _query(params, alpha)
    m, b = params.m, params.b
    member = tab.member(alpha[0], t, b)
    singles = [_nabla_empty(params, alpha, (i,), method) for i in range(1, m + 1)]
    nabla_empty = all(singles)

    definition = member and nabla_empty and _big_nabla_kinds(params, alpha, method)[1]

    dimension_step = nabla_empty and (
        tab.dim(t, b) == dim_L(params, [c - 1 for c in alpha]) + (m - 1))

    # at m = 2 the pair set {i, j} is the full index set: it holds exactly
    # the tuple alpha itself, so nonemptiness is membership
    pivot_exists = any(empty and (member if m == 2 else all(
        not _nabla_empty(params, alpha, (i, j), method) for j in range(1, m + 1) if j != i))
        for i, empty in enumerate(singles, 1))

    return RelMaxEquivalence(alpha=alpha, definition=definition,
                             dimension_step=dimension_step, pivot_exists=pivot_exists)
