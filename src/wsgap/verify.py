"""Conformance harness: fixture replay and cross-method property sweeps.

``run_fixtures`` replays the embedded reference values for the two
preset curves (relative maximals, pure gaps, nabla sets, witness
choices) with exact set equality.  ``run_property_sweep`` runs the
cross-method and structural invariants over every coprime (a, b, m)
inside the requested bounds.  ``run_oracle_invariants`` stress-tests
the membership oracle with seeded random trials, and
``check_definition_level`` re-derives the closed-form maximal families
from the raw emptiness definitions.  These four return a
``ConformanceReport`` that serializes into the command-line envelope.
The per-cell entry points, which ``scripts/check_large.py`` also runs,
are ``PROPERTY_CHECKS`` (name to one-cell check) and ``oracle_invariants``.

The sweep and the oracle battery run their cells in forked children,
one per CPU and at most one per cell; the calling process runs no cell,
so each check's ``ms`` is measured in the child that ran the check.
The reports are sorted by check name, whichever child ran a check.  The
checks of one cell run in one child and share their inputs: the gap
routes keep their rows in per-curve caches, so the ``union_nabla``,
``explicit_s`` and ``intersection`` rows that ``gap-methods`` and
``pure-methods`` build are the ones ``zero-family`` reads again, and
each check's ``ms`` holds only the work it did first.  Once a cell is
done, its child empties every per-curve cache
(``core.clear_curve_caches``): the cells are distinct curves, so no
cell reads another's entries, and a child's memory follows the cell it
runs, not the cells it has finished.  The caller only deals the cells
and reads the replies, so its heap is not fragmented by the dozens of
cells one share holds: ``wsgap verify --what all --format json`` peaks
at about 14.9 MB max-RSS on a 2-vCPU VM, against 16.7 MB when the
caller ran a share of each round itself and 20.9 MB when each process
kept its last 8 cells.  Row sets are compared row by row, and the
symmetry and report-sanity checks read rows; tuples are built only when
rows differ or a check fails.
"""

from __future__ import annotations

import itertools
import marshal
import math
import operator
import os
import random
import signal
import threading
import time
from typing import Callable, Iterable, Iterator, NoReturn, Sequence

from . import fixtures as fx
from . import gapsets as gs
from . import maximals as mx
from . import oracle
from .core import (
    Box,
    CurveParams,
    IntTuple,
    Record,
    TupleRows,
    WsgapError,
    add,
    clear_curve_caches,
    curve_params,
    glb,
    lub,
    theta_vector,
)

DEFAULT_SEED = 20240811


def _mix_seed(*parts: int) -> int:
    """Fold integers into one seed without salted string hashing."""
    s = 0
    for part in parts:
        s = (s * 1000003 + part) % (1 << 63)
    return s


class CheckResult(Record):
    name: str
    kind: str            # "fixture" or "property"
    passed: bool
    detail: str = ""
    ms: float = 0.0

    def to_payload(self) -> dict:
        return {"name": self.name, "kind": self.kind, "passed": self.passed,
                "detail": self.detail, "ms": round(self.ms, 3)}


class ConformanceReport:
    """The results of a conformance run, in the order they were added."""

    def __init__(self, entries: list[CheckResult] | None = None) -> None:
        self.entries = [] if entries is None else entries

    @property
    def ok(self) -> bool:
        return all(e.passed for e in self.entries)

    @property
    def passed(self) -> int:
        return sum(e.passed for e in self.entries)

    @property
    def failed(self) -> int:
        return sum(not e.passed for e in self.entries)

    def extend(self, other: "ConformanceReport") -> "ConformanceReport":
        self.entries.extend(other.entries)
        return self

    def sorted(self) -> "ConformanceReport":
        return ConformanceReport(entries=sorted(self.entries, key=lambda e: e.name))

    def failures(self) -> list[CheckResult]:
        return [e for e in self.entries if not e.passed]

    def to_payload(self) -> dict:
        return {
            "checks": [e.to_payload() for e in self.entries],
            "passed": self.passed,
            "failed": self.failed,
            "total": len(self.entries),
            "ok": self.ok,
        }


class Fixture(Record):
    """One replayable reference value with its provenance string."""

    name: str
    params: CurveParams
    kind: str            # relative_maximals | pure_gaps | nabla_set | witnesses
    expected: tuple
    source: str
    arg: IntTuple | None = None


def _params(spec: tuple[int, int, int, int]) -> CurveParams:
    a, b, m, q = spec
    return curve_params(a, b, m, field_size=q)


def builtin_fixtures() -> tuple[Fixture, ...]:
    """The embedded corpus for the two preset curves."""
    herm = _params(fx.HERMITIAN_Q4)
    ntc = _params(fx.NORM_TRACE_L2_R3)
    out = [
        Fixture("hermitian-q4-relmax", herm, "relative_maximals",
                tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_453)),
                "Hermitian curve over GF(16), three points"),
        Fixture("hermitian-q4-puregaps", herm, "pure_gaps",
                tuple(sorted(fx.PURE_GAPS_453)),
                "Hermitian curve over GF(16), three points"),
        Fixture("norm-trace-l2-r3-relmax", ntc, "relative_maximals",
                tuple(sorted(fx.RELATIVE_MAXIMALS_POSITIVE_473)),
                "norm-trace curve over GF(8), three points"),
        Fixture("norm-trace-l2-r3-puregaps", ntc, "pure_gaps",
                tuple(sorted(fx.PURE_GAPS_473)),
                "norm-trace curve over GF(8), three points"),
        Fixture("hermitian-q4-witnesses", herm, "witnesses",
                tuple(sorted(fx.PURE_GAP_WITNESSES_453.items())),
                "Hermitian curve over GF(16), pure-gap witness choices"),
    ]
    for k, (gamma, nabla) in enumerate(sorted(fx.NABLA_SETS_453.items()), start=1):
        out.append(Fixture(f"hermitian-q4-nabla-{k:02d}", herm, "nabla_set",
                           tuple(sorted(nabla)),
                           f"Hermitian curve over GF(16), nabla set of {gamma}",
                           arg=gamma))
    return tuple(out)


def _diff_detail(computed: Sequence, expected: Sequence) -> str:
    missing = sorted(set(expected) - set(computed))
    extra = sorted(set(computed) - set(expected))
    return f"missing={missing[:8]} extra={extra[:8]}"


def _evaluate_fixture(f: Fixture) -> CheckResult:
    t0 = time.perf_counter()
    detail = ""
    if f.kind == "relative_maximals":
        computed = mx.expand_positive(mx.relative_maximals_region(f.params))
        if computed != mx.lambda_nonneg(f.params):
            detail = "expansion and closed formula disagree"
    elif f.kind == "pure_gaps":
        computed = gs.pure_gaps(f.params, method="profile").pure_gaps
        if computed != gs.pure_gaps(f.params, method="intersection").pure_gaps:
            detail = "profile and intersection methods disagree"
    elif f.kind == "nabla_set":
        computed = gs.nabla_bar_nonneg(f.params, f.arg)
    elif f.kind == "witnesses":
        computed = tuple(sorted(
            (gap, gs.pure_gap_witness(f.params, gap))
            for gap, _ in f.expected
        ))
    else:
        raise ValueError(f"unknown fixture kind {f.kind!r}")
    if not detail and tuple(sorted(computed)) != tuple(sorted(f.expected)):
        detail = _diff_detail(computed, f.expected)
    return CheckResult(f.name, "fixture", not detail, detail,
                       (time.perf_counter() - t0) * 1000)


def run_fixtures(fixtures: Iterable[Fixture] | None = None) -> ConformanceReport:
    """Replay the fixture corpus; failures become report entries."""
    report = ConformanceReport()
    for f in builtin_fixtures() if fixtures is None else fixtures:
        report.entries.append(_evaluate_fixture(f))
    return report.sorted()


def sweep_cells(max_a: int = 5, max_b: int = 9, max_m: int = 4) -> tuple[CurveParams, ...]:
    """All coprime (a, b) with 2 <= a <= max_a, 2 <= b <= max_b, and
    every m with 2 <= m <= min(max_m, a + 1)."""
    cells = []
    for a in range(2, max_a + 1):
        for b in range(2, max_b + 1):
            if math.gcd(a, b) != 1:
                continue
            for m in range(2, min(max_m, a + 1) + 1):
                cells.append(curve_params(a, b, m))
    return tuple(cells)


# ---------------------------------------------------------------------------
# per-cell property checks

def _axis_sets(rows: TupleRows, m: int) -> list[tuple[int, ...]]:
    """Per coordinate k, the positive values at k of the tuples of
    ``rows`` that are 0 elsewhere, ascending.

    A tuple lies on the last axis iff its prefix is all zero, and on
    axis k < m-1 iff its prefix is zero off k and its last coordinate
    is 0, so one pass over the prefixes finds them all.
    """
    axes: list[set[int]] = [set() for _ in range(m)]
    zero = (0,) * (m - 1)
    for prefix, lasts in rows.rows():
        if prefix == zero:
            axes[m - 1].update(v for v in lasts if v > 0)
        elif prefix.count(0) == m - 2 and 0 in lasts:
            k = next(k for k, c in enumerate(prefix) if c)
            if prefix[k] > 0:
                axes[k].add(prefix[k])
    return [tuple(sorted(values)) for values in axes]


class _Stamps:
    """Names and times the property results of one check on one cell.

    Each result carries the time since the previous result of the check,
    or since the check began: work several results share is charged to
    the first that needs it, and the results add up to the check's time.
    Across checks the same holds: a route that an earlier check of the
    cell built is a cache hit for the later ones, since every check of a
    cell runs in one process.  The times are read in the process that
    runs the check, a forked child of the sweep (``_run_cells``).
    """

    def __init__(self, p: CurveParams) -> None:
        self.prefix = f"a{p.a}-b{p.b}-m{p.m}"
        self.t0 = time.perf_counter()

    def result(self, name: str, passed: bool, detail: str = "") -> CheckResult:
        now = time.perf_counter()
        ms, self.t0 = (now - self.t0) * 1000, now
        return CheckResult(f"{self.prefix}:{name}", "property", passed, detail, ms)


def _same_tuples(x: TupleRows, y: TupleRows) -> bool:
    """Whether two row sets list the same tuples in the same order.

    Equal rows list equal tuples; only when the rows differ are the
    tuples built and compared, since a route may split the tuples of one
    prefix over two rows.
    """
    return list(x.rows()) == list(y.rows()) or x.tuples == y.tuples


def _check_gap_methods(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    base = gs.gaps(p, method="complement").gap_rows
    results = []
    for method in ("union_nabla", "explicit_s"):
        got = gs.gaps(p, method=method).gap_rows
        ok = _same_tuples(got, base)
        results.append(stamps.result(f"gap-methods-agree:{method}", ok,
                                     "" if ok else _diff_detail(got.tuples, base.tuples)))
    return results


def _check_pure_methods(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    prof = gs.pure_gaps(p, method="profile").pure_rows
    inter = gs.pure_gaps(p, method="intersection").pure_rows
    ok = _same_tuples(prof, inter)
    return [stamps.result("pure-methods-agree", ok,
                          "" if ok else _diff_detail(inter.tuples, prof.tuples))]


def _check_zero_family(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    g_off = gs.gaps(p, method="union_nabla").gap_rows
    g_on = gs._route_rows(p, "union_nabla", True)
    p_off = gs.pure_gaps(p, method="intersection").pure_rows
    p_on = gs._route_rows(p, "intersection", True)
    ok = _same_tuples(g_off, g_on) and _same_tuples(p_off, p_on)
    return [stamps.result("zero-family-indifferent", ok,
                          "" if ok else "zero-family translates changed an output")]


def _check_axis_gaps(p: CurveParams) -> list[CheckResult]:
    """Genus-many gaps along every axis; the first axis recovers the
    numerical semigroup (the later points can carry a different gap
    sequence of the same size)."""
    stamps = _Stamps(p)
    axes = _axis_sets(gs.gaps(p).gap_rows, p.m)
    expected = gs.numerical_gaps(p.a, p.b)
    results = []
    later_axes = set()
    for k, got in enumerate(axes):
        ok = len(got) == p.genus
        detail = "" if ok else f"{len(got)} axis gaps, genus is {p.genus}"
        if ok and k == 0 and got != expected:
            ok, detail = False, f"axis gaps {got} != semigroup gaps {expected}"
        if k >= 1:
            later_axes.add(got)
        results.append(stamps.result(f"axis-gaps-coordinate-{k + 1}", ok, detail))
    if p.m >= 3:
        ok = len(later_axes) == 1
        results.append(stamps.result(
            "axis-gaps-later-points-agree", ok,
            "" if ok else f"later axes carry different gap sequences {later_axes}"))
    return results


def _check_superset(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    a_star, a_set = gs.candidate_superset(p)
    star, plain = set(a_star), set(a_set)
    bad = [prefix + (v,) for prefix, lasts in gs.pure_gaps(p).pure_rows.rows() for v in lasts
           if v not in plain or prefix[0] not in star or not plain.issuperset(prefix[1:])]
    ok = not bad
    return [stamps.result("pure-gaps-in-candidate-superset", ok,
                          "" if ok else f"outliers={bad[:8]}")]


def _lasts_by_prefix(rows: TupleRows) -> dict[IntTuple, IntTuple]:
    """Each prefix of ``rows`` with the distinct last coordinates of its
    tuples, ascending: the set of the rows' tuples exactly, whatever the
    order of the rows, split or repeated.  A row that already ascends
    strictly, as every route hands them over, is kept as it is."""
    out: dict[IntTuple, IntTuple] = {}
    for prefix, lasts in rows.rows():
        out[prefix] = out.get(prefix, ()) + lasts
    for prefix, lasts in out.items():
        if not all(map(operator.lt, lasts, lasts[1:])):
            out[prefix] = tuple(sorted(set(lasts)))
    return out


def _fixed_by_swaps(rows: TupleRows, m: int) -> bool:
    """Whether every permutation of coordinates 2..m fixes the set of the
    tuples of ``rows``: the swaps of neighbours among those coordinates
    generate every such permutation, so it is enough that each swap does.

    A swap inside the prefix maps rows to rows, so each prefix must carry
    the lasts of its swapped prefix.  The swap of coordinates m-1 and m
    keeps the head, the first m-2 coordinates, so the pairs
    (prefix[-1], last) of each head must be closed under transposition.
    """
    if m < 3:
        return True  # no two coordinates to swap
    lasts = _lasts_by_prefix(rows)
    for k in range(1, m - 2):
        swap = operator.itemgetter(*range(k), k + 1, k, *range(k + 2, m - 1))
        if not all(map(operator.eq, map(lasts.get, map(swap, lasts)), lasts.values())):
            return False
    for _, prefixes in itertools.groupby(sorted(lasts), operator.itemgetter(slice(-1))):
        xs: list[int] = []
        ys: list[int] = []
        for prefix in prefixes:
            row = lasts[prefix]
            xs += [prefix[-1]] * len(row)
            ys += row
        if not set(zip(xs, ys)).issuperset(zip(ys, xs)):
            return False
    return True


def _moves(perm: IntTuple, tuples: set[IntTuple]) -> bool:
    """Whether permuting the coordinates by ``perm`` moves the set: it
    does iff some permuted tuple falls outside, since a permutation of
    the coordinates maps distinct tuples to distinct tuples."""
    # m >= 2, so itemgetter returns tuples
    return not all(map(tuples.__contains__, map(operator.itemgetter(*perm), tuples)))


def _check_symmetry(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    report = gs.gaps(p)
    ok, detail = True, ""
    if not (_fixed_by_swaps(report.gap_rows, p.m) and _fixed_by_swaps(report.pure_rows, p.m)):
        # name the first permutation, in lexicographic order, that moves a set
        gap_set, pure_set = set(report.gaps), set(report.pure_gaps)
        for perm_tail in itertools.islice(itertools.permutations(range(1, p.m)), 1, None):
            perm = (0,) + perm_tail
            if _moves(perm, gap_set):
                ok, detail = False, f"gap set moved by permutation {perm}"
                break
            if _moves(perm, pure_set):
                ok, detail = False, f"pure-gap set moved by permutation {perm}"
                break
    return [stamps.result("coordinate-symmetry", ok, detail)]


def _check_region_families(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    absolute = mx.absolute_maximals_region(p)
    relative = mx.relative_maximals_region(p)
    ok = len(absolute.region_reps) == p.b and len(relative.region_reps) == p.b
    detail = "" if ok else "region family of the wrong size"
    if ok and p.m == 2 and absolute.region_reps != relative.region_reps:
        ok, detail = False, "absolute and relative families differ at m=2"
    if ok:
        closed = mx.lambda_nonneg(p, include_zero_family=True)
        expanded = mx.expand_nonneg(relative)
        if closed != expanded:
            ok, detail = False, _diff_detail(closed, expanded)
    if ok and mx.lambda_nonneg(p) != mx.expand_positive(relative):
        ok, detail = False, "positive expansion disagrees with the closed formula"
    return [stamps.result("region-families", ok, detail)]


def _reclassify(p: CurveParams, method: oracle.NablaMethod, relatives: Iterable[IntTuple],
                absolutes: Iterable[IntTuple], others: Iterable[IntTuple]) -> Iterator[str | None]:
    """The closed-form families against the emptiness-based classifier
    on one route: the first failure of each part, or None, lazily and in
    order.  The relative family's elements classify as relative only,
    the absolute family's as absolute only (at m = 2, where the families
    coincide, as both), and ``others``, members outside both families,
    as neither."""
    both = p.m == 2
    for label, pool, kinds in (("relative", relatives, (both, True)),
                               ("absolute", absolutes, (True, both)),
                               ("non-maximal", others, (False, False))):
        failure = None
        for t in pool:
            got = oracle._maximal_kinds(p, t, method)
            if got != kinds:
                failure = f"{label} {t} classified (absolute, relative) = {got}"
                break
        yield failure


def _outside_families(p: CurveParams, ts: Iterable[IntTuple]) -> Iterator[IntTuple]:
    """The tuples of ``ts`` in neither closed-form family."""
    relative, absolute = mx.relative_maximals_region(p), mx.absolute_maximals_region(p)
    return (t for t in ts
            if not (mx.family_contains(relative, t) or mx.family_contains(absolute, t)))


def _check_formula_classification(p: CurveParams) -> list[CheckResult]:
    """The nonnegative relative and positive absolute families, and 12
    members outside both, reclassified on the profile route, which keeps
    the full sweep fast; ``check_definition_level`` runs the search route.
    The lubs of 12 pairs of family elements that fall outside are topped
    up to 12 from at most 100 draws of ``_random_member``: on the
    smallest curves every such lub is a family element."""
    stamps = _Stamps(p)
    rng = random.Random(_mix_seed(DEFAULT_SEED, p.a, p.b, p.m, 4))
    relatives = mx.lambda_nonneg(p)
    absolutes = mx.expand_positive(mx.absolute_maximals_region(p))
    pool = relatives + absolutes
    lubs = [lub([rng.choice(pool), rng.choice(pool)]) for _ in range(12)]
    others = list(_outside_families(p, lubs))
    draws, reps = random.Random(_mix_seed(DEFAULT_SEED, p.a, p.b, p.m, 5)), _member_reps(p)
    members = (_random_member(draws, p, reps) for _ in range(100))
    others += itertools.islice(_outside_families(p, members), 12 - len(others))
    failure = next(filter(None, _reclassify(p, "profile", relatives, absolutes, others)), None)
    return [stamps.result("formula-classification", failure is None, failure or "")]


def _check_sigma(p: CurveParams) -> list[CheckResult]:
    if p.m != 2:
        return []
    stamps = _Stamps(p)
    results = []
    table = gs.sigma_pair(p)
    g = p.genus
    ok = sorted(table.sigma) == list(range(1, g + 1)) and len(table.gamma_pairs) == g
    results.append(stamps.result("sigma-bijection", ok,
                                 "" if ok else f"sigma={table.sigma}"))
    literal = gs.sigma_literal(p)
    expected = tuple(table.gaps_q2[s - 1] for s in table.sigma)
    ok = literal == expected
    results.append(stamps.result("sigma-literal-definition", ok,
                                 "" if ok else f"{literal} != {expected}"))
    axis2 = tuple(t for t in range(1, 2 * g + 1) if not oracle.is_member(p, (0, t)))
    ok = table.gaps_q2 == axis2
    results.append(stamps.result("sigma-second-point-gap-sequence", ok,
                                 "" if ok else f"{table.gaps_q2} != {axis2}"))
    gaps_pairing = gs.sigma_gap_set(table)
    gaps_generic = gs.gaps(p).gaps
    ok = gaps_pairing == gaps_generic
    results.append(stamps.result("sigma-gap-set", ok,
                                 "" if ok else _diff_detail(gaps_pairing, gaps_generic)))
    pure_pairing = gs.sigma_pure_gap_set(table)
    pure_generic = gs.pure_gaps(p).pure_gaps
    ok = pure_pairing == pure_generic and len(pure_generic) == len(table.inversions)
    results.append(stamps.result("sigma-pure-gaps-inversions", ok,
                                 "" if ok else _diff_detail(pure_pairing, pure_generic)))
    return results


def _check_witnesses(p: CurveParams) -> list[CheckResult]:
    """Every pure gap, and no other tuple, has a witness: one merge of
    the pure gaps and the walk's tuples, both in lexicographic order."""
    stamps = _Stamps(p)
    found = gs._witnesses(p)
    ok, detail = True, ""
    extra = None  # the first tuple with a witness that is no pure gap
    nxt = next(found, None)
    for t in gs.pure_gaps(p).pure_gaps:
        while nxt is not None and nxt[0] < t:
            extra = extra or nxt[0]
            nxt = next(found, None)
        if nxt is None or nxt[0] != t:
            ok, detail = False, f"no witness for pure gap {t}"
            break
        witness = nxt[1]
        nxt = next(found, None)
        if glb(list(witness)) != t or tuple(w[i] for i, w in enumerate(witness)) != t:
            ok, detail = False, f"witness for {t} has the wrong common point"
            break
        if any(w[j] <= t[j] for i, w in enumerate(witness)
               for j in range(p.m) if j != i):
            ok, detail = False, f"witness for {t} not strictly dominating"
            break
    if ok and (extra or nxt):
        ok, detail = False, f"witness found for non-pure gap {extra or nxt[0]}"
    return [stamps.result("witness-coherence", ok, detail)]


def _ascending(rows: TupleRows) -> bool:
    """Whether the tuples of ``rows`` ascend strictly in lexicographic
    order: within each row, and from each row's last tuple to the next
    row's first."""
    end = None  # (prefix, last) of the previous row's last tuple
    for prefix, lasts in rows.rows():
        if end is not None and end >= (prefix, lasts[0]):
            return False
        if not all(map(operator.lt, lasts, lasts[1:])):
            return False
        end = prefix, lasts[-1]
    return True


def _check_report_sanity(p: CurveParams) -> list[CheckResult]:
    """The gap rows ascend, lie in the simplex, and agree with the oracle
    on 50 sampled tuples, all read row by row: no gap tuple is built."""
    stamps = _Stamps(p)
    rows = gs.gaps(p).gap_rows
    B = 2 * p.genus - 1
    ok, detail = True, ""
    if not _ascending(rows):
        ok, detail = False, "gap list not sorted or not duplicate-free"
    # each row ascends now, so its first and last tuples bound the others
    if ok and any(min(prefix, default=0) < 0 or lasts[0] < 0 or sum(prefix) + lasts[-1] > B
                  for prefix, lasts in rows.rows()):
        ok, detail = False, "gap outside the bounding simplex"
    if ok:
        rng = random.Random(_mix_seed(DEFAULT_SEED, p.a, p.b, p.m, 2))
        draws = [tuple(rng.randrange(B + 1) for _ in range(p.m)) for _ in range(50)]
        samples = [t for t in draws if sum(t) <= B]
        # the rows of the sampled prefixes only, one each as the rows ascend
        wanted = {t[:-1] for t in samples}
        lasts = {prefix: row for prefix, row in rows.rows() if prefix in wanted}
        for t in samples:
            in_gaps = t[-1] in lasts.get(t[:-1], ())
            if in_gaps == oracle.is_member(p, t):
                ok, detail = False, f"grid and oracle disagree on {t}"
                break
    return [stamps.result("gap-report-sanity", ok, detail)]


PROPERTY_CHECKS: dict[str, Callable[[CurveParams], list[CheckResult]]] = {
    "gap-methods": _check_gap_methods,
    "pure-methods": _check_pure_methods,
    "zero-family": _check_zero_family,
    "axis-gaps": _check_axis_gaps,
    "superset": _check_superset,
    "symmetry": _check_symmetry,
    "region-families": _check_region_families,
    "formula-classification": _check_formula_classification,
    "sigma": _check_sigma,
    "witnesses": _check_witnesses,
    "report-sanity": _check_report_sanity,
}


# ---------------------------------------------------------------------------
# one forked child per CPU

def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_cells(cells: Sequence[CurveParams],
               run_cell: Callable[[CurveParams], list[CheckResult]]) -> list[CheckResult]:
    """The results of ``run_cell`` on every cell, in one forked child per
    CPU.

    The cells are dealt round-robin over ``n = min(CPUs, cells)``
    children, so one child even on one CPU and none for no cells: the
    child forked for share ``k`` runs ``cells[k::n]`` and sends its
    results back through a pipe.  The caller runs no cell: it reads the
    replies in share order and reaps the children, so it holds no cell's
    memory, and the children of a later round are not forked from a
    heap that earlier cells have fragmented.  The
    cells are independent, so each child empties its per-curve caches
    after each cell (``_run_share``), and each result's ``ms`` is
    measured in the child that ran it.  The results come back share by
    share; callers sort them by their unique names.

    Without ``os.fork``, or while the caller has other threads (forking
    them is unsafe), the caller runs every cell itself, in the same way.
    An exception in a child's share is raised here with its type and
    message; before any exception leaves, the children still running
    are killed.  No child outlives the call.
    """
    if not hasattr(os, "fork") or threading.active_count() > 1:
        return _run_share(cells, run_cell)
    n = min(_cpu_count(), len(cells))
    pids: list[int] = []
    pipes: list[int] = []    # read ends, pipes[k] from pids[k]
    reaped: set[int] = set()
    try:
        for k in range(n):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child_share(cells[k::n], run_cell, write)
            finally:
                os.close(write)
            pids.append(pid)
        results: list[CheckResult] = []
        for pid, read in zip(pids, pipes):
            chunks = []
            while chunk := os.read(read, 1 << 16):
                chunks.append(chunk)
            status = os.waitpid(pid, 0)[1]
            reaped.add(pid)
            reply = b"".join(chunks)
            if not reply:
                raise WsgapError(f"verify process {pid} died without a reply, "
                                 f"exit status {os.waitstatus_to_exitcode(status)}")
            ok, value = marshal.loads(reply)
            if not ok:
                import pickle
                raise pickle.loads(value)
            results.extend(CheckResult(*fields) for fields in value)
        return results
    finally:
        for read in pipes:
            os.close(read)
        for pid in pids:
            if pid not in reaped:
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)


def _run_share(cells: Sequence[CurveParams],
               run_cell: Callable[[CurveParams], list[CheckResult]]) -> list[CheckResult]:
    """The results of ``run_cell`` on each cell in turn, in this process,
    with every per-curve cache emptied after each cell: the cells are
    distinct curves, so no cell reads another's entries."""
    results: list[CheckResult] = []
    for p in cells:
        results += run_cell(p)
        clear_curve_caches()
    return results


def _run_child_share(cells: Sequence[CurveParams],
                     run_cell: Callable[[CurveParams], list[CheckResult]],
                     write: int) -> NoReturn:
    """In a forked child: run one share, write the reply to ``write``
    and exit.  It never returns or unwinds into the caller's frames,
    whatever is raised, so no ``finally`` of theirs runs twice.

    The reply is ``marshal``led: ``(True, fields of every result)``, or
    ``(False, the pickled exception)``.
    """
    code = 1
    try:
        try:
            reply = (True, [r._astuple() for r in _run_share(cells, run_cell)])
        except BaseException as exc:
            import pickle
            try:
                value = pickle.dumps(exc)
                pickle.loads(value)
            except Exception:
                value = pickle.dumps(WsgapError(f"{type(exc).__name__}: {exc}"))
            reply = (False, value)
        data = marshal.dumps(reply)
        while data:
            data = data[os.write(write, data):]
        code = 0
    finally:
        os._exit(code)


def run_property_sweep(max_a: int = 5, max_b: int = 9, max_m: int = 4,
                       checks: Sequence[str] | None = None) -> ConformanceReport:
    """Run the structural invariants over the whole parameter sweep.

    ``checks`` selects a subset of the ``PROPERTY_CHECKS`` names; the
    merged report is sorted by check name.  The cells run in one forked
    child per CPU (``_run_cells``).
    """
    selected = tuple(PROPERTY_CHECKS if checks is None else checks)
    unknown = [c for c in selected if c not in PROPERTY_CHECKS]
    if unknown:
        raise ValueError(f"unknown property checks: {unknown}")
    cells = sweep_cells(max_a, max_b, max_m)
    report = ConformanceReport(_run_cells(
        cells, lambda p: [r for name in selected for r in PROPERTY_CHECKS[name](p)]))
    skipped = [(a, b) for a in range(2, max_a + 1) for b in range(2, max_b + 1)
               if math.gcd(a, b) != 1]
    report.entries.append(CheckResult(
        "sweep-coverage", "property", True,
        f"{len(cells)} cells checked; non-coprime pairs skipped: {skipped}"))
    return report.sorted()


# ---------------------------------------------------------------------------
# randomized oracle invariants

def _random_tuple(rng: random.Random, p: CurveParams) -> IntTuple:
    lo, hi = -p.b - 2, 2 * p.genus + p.b
    return tuple(rng.randint(lo, hi) for _ in range(p.m))


def _member_reps(p: CurveParams) -> tuple[IntTuple, ...]:
    """The representatives ``_random_member`` translates: relative, then absolute."""
    return mx.relative_maximals_region(p).region_reps + mx.absolute_maximals_region(p).region_reps


def _random_member(rng: random.Random, p: CurveParams, reps: Sequence[IntTuple]) -> IntTuple:
    """The lub of two random lattice translates of ``reps``, a member."""
    def translate() -> IntTuple:
        d = tuple(rng.randint(-2, 2) for _ in range(p.m - 1))
        return add(rng.choice(reps), theta_vector(p, d))
    return lub([translate(), translate()])


def run_oracle_invariants(max_a: int = 5, max_b: int = 9, max_m: int = 4,
                          trials: int = 1000,
                          seed: int = DEFAULT_SEED) -> ConformanceReport:
    """Seeded random trials of the oracle invariants over the sweep, in
    one forked child per CPU (``_run_cells``); at least one trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    return ConformanceReport(_run_cells(
        sweep_cells(max_a, max_b, max_m), lambda p: oracle_invariants(p, trials, seed))).sorted()


def oracle_invariants(p: CurveParams, trials: int, seed: int) -> list[CheckResult]:
    """Seeded random trials of the oracle invariants on one curve; at least one trial."""
    if trials < 1:
        raise ValueError(f"trials must be at least 1, got {trials}")
    rng = random.Random(_mix_seed(seed, p.a, p.b, p.m, 1))
    stamps = _Stamps(p)
    results = []

    def record(name: str, failure: str | None) -> None:
        results.append(stamps.result(name, failure is None, failure or ""))

    # lattice invariance of membership (and of the maximal classifiers)
    failure = None
    for k in range(trials):
        alpha = _random_tuple(rng, p)
        d = tuple(rng.randint(-2, 2) for _ in range(p.m - 1))
        shifted = add(alpha, theta_vector(p, d))
        if oracle.is_member(p, alpha) != oracle.is_member(p, shifted):
            failure = f"membership not lattice-invariant at {alpha}, shift {d}"
            break
        if k % 25 == 0:
            if oracle._maximal_kinds(p, alpha, "profile") != \
                    oracle._maximal_kinds(p, shifted, "profile"):
                failure = f"maximality not lattice-invariant at {alpha}"
                break
    record("theta-invariance", failure)

    # coordinate sum at least 2g forces membership
    failure = None
    for _ in range(max(trials // 5, 1)):
        alpha = list(_random_tuple(rng, p))
        deficit = 2 * p.genus - sum(alpha)
        if deficit > 0:
            alpha[0] += deficit + rng.randint(0, p.b)
        if not oracle.is_member(p, tuple(alpha)):
            failure = f"{tuple(alpha)} with sum >= 2g rejected"
            break
    record("two-genus-rule", failure)

    # members are closed under componentwise maxima
    failure = None
    reps = _member_reps(p)
    for _ in range(max(trials // 5, 1)):
        x, y = _random_member(rng, p, reps), _random_member(rng, p, reps)
        if not (oracle.is_member(p, x) and oracle.is_member(p, y)):
            failure = f"constructed member {x} or {y} rejected"
            break
        if not oracle.is_member(p, lub([x, y])):
            failure = f"lub of members {x}, {y} rejected"
            break
    record("lub-closure", failure)

    # dimension increments and the membership equivalence
    failure = None
    for _ in range(max(trials // 5, 1)):
        alpha = _random_tuple(rng, p)
        dim = oracle.dim_L(p, alpha)
        steps = []
        for i in range(p.m):
            down = tuple(c - (1 if k == i else 0) for k, c in enumerate(alpha))
            steps.append(dim - oracle.dim_L(p, down))
        if any(s not in (0, 1) for s in steps):
            failure = f"dimension step outside {{0,1}} at {alpha}: {steps}"
            break
        if oracle.is_member(p, alpha) != all(s == 1 for s in steps):
            failure = f"membership does not match unit increments at {alpha}"
            break
    record("dimension-increments", failure)

    # exact dimension in the high-degree regime
    failure = None
    for _ in range(max(trials // 5, 1)):
        alpha = list(_random_tuple(rng, p))
        deficit = 2 * p.genus - 1 - sum(alpha)
        if deficit > 0:
            alpha[rng.randrange(p.m)] += deficit + rng.randint(0, p.b)
        expected = sum(alpha) - p.genus + 1
        if oracle.dim_L(p, tuple(alpha)) != expected:
            failure = f"dimension at {tuple(alpha)} != {expected}"
            break
    record("riemann-roch-regime", failure)

    # closed-form windows against the explicit enumeration
    failure = None
    for _ in range(max(trials // 10, 1)):
        alpha = _random_tuple(rng, p)
        profile = oracle.local_absolute_maximals(p, alpha)
        if oracle.per_coord_max(p, alpha) != (
                None if profile.per_coord_max[0] is None else profile.per_coord_max):
            failure = f"window maxima disagree with enumeration at {alpha}"
            break
        if oracle.is_member(p, alpha) != (profile.per_coord_max == alpha):
            failure = f"membership disagrees with enumeration at {alpha}"
            break
        firsts = {g[0] for g in profile.gamma_hat_beta}
        if oracle.dim_L(p, alpha) != len(firsts):
            failure = f"window dimension disagrees with enumeration at {alpha}"
            break
    record("profile-enumeration-agreement", failure)

    # the two emptiness routes agree
    failure = None
    subsets = [J for size in range(1, p.m)
               for J in itertools.combinations(range(1, p.m + 1), size)]
    for _ in range(max(trials // 20, 1)):
        alpha = tuple(rng.randint(-2, 2 * p.genus - 1) for _ in range(p.m))
        J = rng.choice(subsets)
        if oracle.nabla_J_empty(p, alpha, J, "search") != \
                oracle.nabla_J_empty(p, alpha, J, "profile"):
            failure = f"nabla emptiness routes disagree at {alpha}, J={J}"
            break
    record("nabla-routes-agreement", failure)

    return results


# ---------------------------------------------------------------------------
# definition-level reclassification

def check_definition_level(params: CurveParams, sample_size: int = 50,
                           seed: int = DEFAULT_SEED) -> ConformanceReport:
    """Reclassify the closed-form maximals from the raw definitions.

    Every family element inside the box [-(b+1), 2g]^m must pass the
    search-based (exhaustive) classifier for its own kind only, and
    ``sample_size`` sampled members in the box outside both families
    must pass neither (``_reclassify``).
    """
    p = params
    stamps = _Stamps(p)
    box = Box(lo=(-(p.b + 1),) * p.m, hi=(2 * p.genus,) * p.m)
    rng = random.Random(_mix_seed(seed, p.a, p.b, p.m, 3))
    reps = _member_reps(p)
    members = iter(lambda: _random_member(rng, p, reps), None)  # endless, never None
    others = _outside_families(p, (t for t in members if t in box))
    parts = _reclassify(p, "search",
                        mx.expand_in_box(mx.relative_maximals_region(p), box),
                        mx.expand_in_box(mx.absolute_maximals_region(p), box),
                        itertools.islice(others, sample_size))
    names = ("definition-level-relative", "definition-level-absolute",
             "definition-level-nonmaximal-sample")
    return ConformanceReport([stamps.result(name, failure is None, failure or "")
                              for name, failure in zip(names, parts)]).sorted()
