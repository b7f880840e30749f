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

The sweep and the oracle battery run their cells in one process per
CPU: the caller runs one share of the cells and a forked child each
other share, so each check's ``ms`` is measured in the process that ran
the check.  The reports are sorted by check name, whichever process ran
a check.  The checks of one cell run in one process and share their
inputs: the gap routes keep their rows in per-curve caches, so the
``union_nabla``, ``explicit_s`` and ``intersection`` rows that
``gap-methods`` and ``pure-methods`` build are the ones ``zero-family``
reads again, and each check's ``ms`` holds only the work it did first.
Row sets are compared row by row, and their tuples are built only when
the rows differ.
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
from typing import Callable, Iterable, NoReturn, Sequence

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
    if f.kind == "relative_maximals":
        computed = mx.expand_positive(mx.relative_maximals_region(f.params))
        also = mx.lambda_nonneg(f.params)
        if computed != also:
            return CheckResult(f.name, "fixture", False,
                               "expansion and closed formula disagree",
                               (time.perf_counter() - t0) * 1000)
    elif f.kind == "pure_gaps":
        profile = gs.pure_gaps(f.params, method="profile").pure_gaps
        inter = gs.pure_gaps(f.params, method="intersection").pure_gaps
        if profile != inter:
            return CheckResult(f.name, "fixture", False,
                               "profile and intersection methods disagree",
                               (time.perf_counter() - t0) * 1000)
        computed = profile
    elif f.kind == "nabla_set":
        computed = gs.nabla_bar_nonneg(f.params, f.arg)
    elif f.kind == "witnesses":
        computed = tuple(sorted(
            (gap, gs.pure_gap_witness(f.params, gap))
            for gap, _ in f.expected
        ))
    else:
        raise ValueError(f"unknown fixture kind {f.kind!r}")
    passed = tuple(sorted(computed)) == tuple(sorted(f.expected))
    detail = "" if passed else _diff_detail(computed, f.expected)
    return CheckResult(f.name, "fixture", passed, detail,
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
    runs the check, the caller or a forked child (``_run_cells``).
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
    bad = [t for t in gs.pure_gaps(p).pure_gaps
           if t[0] not in star or any(c not in plain for c in t[1:])]
    ok = not bad
    return [stamps.result("pure-gaps-in-candidate-superset", ok,
                          "" if ok else f"outliers={bad[:8]}")]


def _moves(perm: IntTuple, tuples: set[IntTuple]) -> bool:
    """Whether permuting the coordinates by ``perm`` moves the set: it
    does iff some permuted tuple falls outside, since a permutation of
    the coordinates maps distinct tuples to distinct tuples."""
    # m >= 2, so itemgetter returns tuples
    return not all(map(tuples.__contains__, map(operator.itemgetter(*perm), tuples)))


def _check_symmetry(p: CurveParams) -> list[CheckResult]:
    stamps = _Stamps(p)
    report = gs.gaps(p)
    gap_set, pure_set = set(report.gaps), set(report.pure_gaps)
    # The cycle of coordinates 2..m and, for m >= 4, the swap of 2 and 3
    # (neighbours in the cycle) generate every permutation of 2..m, so
    # they fix both sets iff every permutation does.  For m = 3 the swap
    # is the cycle, and for m = 2 there is nothing to permute.
    generators = [(0, *range(2, p.m), 1), (0, 2, 1, *range(3, p.m))][:p.m - 2]
    ok, detail = True, ""
    if any(_moves(perm, gap_set) or _moves(perm, pure_set) for perm in generators):
        # name the first permutation, in lexicographic order, that moves a set
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


def _check_formula_classification(p: CurveParams, sample: int = 12,
                                  seed: int = DEFAULT_SEED) -> list[CheckResult]:
    """Closed-form families against the emptiness-based classifiers.

    Uses the profile route of the classifiers so the full sweep stays
    fast; the search route is exercised by ``check_definition_level``.
    """
    stamps = _Stamps(p)
    rng = random.Random(_mix_seed(seed, p.a, p.b, p.m, 4))
    relative = mx.relative_maximals_region(p)
    absolute = mx.absolute_maximals_region(p)
    ok, detail = True, ""
    for t in mx.lambda_nonneg(p):
        if not oracle.is_relative_maximal(p, t, method="profile"):
            ok, detail = False, f"{t} not classified relative maximal"
            break
        if p.m >= 3 and oracle.is_absolute_maximal(p, t, method="profile"):
            ok, detail = False, f"{t} classified absolute maximal"
            break
    if ok:
        for t in mx.expand_positive(absolute):
            if not oracle.is_absolute_maximal(p, t, method="profile"):
                ok, detail = False, f"{t} not classified absolute maximal"
                break
    if ok:
        pool = mx.lambda_nonneg(p) + mx.expand_positive(absolute)
        for _ in range(sample):
            x, y = rng.choice(pool), rng.choice(pool)
            t = lub([x, y])
            if mx.family_contains(relative, t) or mx.family_contains(absolute, t):
                continue
            if oracle.is_relative_maximal(p, t, method="profile") or \
                    oracle.is_absolute_maximal(p, t, method="profile"):
                ok, detail = False, f"member {t} outside both families classified maximal"
                break
    return [stamps.result("formula-classification", ok, detail)]


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
    stamps = _Stamps(p)
    pure = gs.pure_gaps(p).pure_gaps
    pure_set = set(pure)
    ok, detail = True, ""
    for t, witness in zip(pure, gs._witnesses(p, pure)):
        if witness is None:
            ok, detail = False, f"no witness for pure gap {t}"
            break
        if glb(list(witness)) != t or tuple(w[i] for i, w in enumerate(witness)) != t:
            ok, detail = False, f"witness for {t} has the wrong common point"
            break
        if any(w[j] <= t[j] for i, w in enumerate(witness)
               for j in range(p.m) if j != i):
            ok, detail = False, f"witness for {t} not strictly dominating"
            break
    if ok:
        others = [t for t in gs.gaps(p).gaps if t not in pure_set]
        for t, witness in zip(others, gs._witnesses(p, others)):
            if witness is not None:
                ok, detail = False, f"witness found for non-pure gap {t}"
                break
    return [stamps.result("witness-coherence", ok, detail)]


def _check_report_sanity(p: CurveParams, sample: int = 50,
                         seed: int = DEFAULT_SEED) -> list[CheckResult]:
    stamps = _Stamps(p)
    report = gs.gaps(p)
    B = 2 * p.genus - 1
    ok, detail = True, ""
    gaps = report.gaps
    gap_set = set(gaps)
    if not all(map(operator.lt, gaps, gaps[1:])):
        ok, detail = False, "gap list not sorted or not duplicate-free"
    if ok and any(min(t) < 0 or sum(t) > B for t in gaps):
        ok, detail = False, "gap outside the bounding simplex"
    if ok and not set(report.pure_gaps) <= gap_set:
        ok, detail = False, "pure gaps not contained in gaps"
    if ok:
        rng = random.Random(_mix_seed(seed, p.a, p.b, p.m, 2))
        for _ in range(sample):
            t = tuple(rng.randrange(B + 1) for _ in range(p.m))
            if sum(t) > B:
                continue
            in_gaps = t in gap_set
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
# one process per CPU

def _cpu_count() -> int:
    """The number of CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _run_cells(cells: Sequence[CurveParams],
               run_cell: Callable[[CurveParams], list[CheckResult]]) -> list[CheckResult]:
    """The results of ``run_cell`` on every cell, in one process per CPU.

    The cells are dealt round-robin over ``n`` processes, at most one per
    CPU and per cell: the caller runs share 0, ``cells[0::n]``, and a
    child forked for each other share ``k`` runs ``cells[k::n]`` and
    sends its results back through a pipe.  The cells are independent,
    so each process keeps only its own cells' cached routes, and each
    result's ``ms`` is measured in the process that ran it.  The results
    come back share by share; callers sort them by their unique names.

    With one CPU, without ``os.fork``, or while the caller has other
    threads (forking them is unsafe), ``n`` is 1 and the caller runs
    every cell.  An exception in a child's share is raised here with its
    type and message; before any exception leaves, the children still
    running are killed.  No child outlives the call.
    """
    n = max(1, min(_cpu_count(), len(cells)))
    if not hasattr(os, "fork") or threading.active_count() > 1:
        n = 1
    pids: list[int] = []
    pipes: list[int] = []    # read ends, pipes[k] from pids[k]
    reaped: set[int] = set()
    try:
        for k in range(1, n):
            read, write = os.pipe()
            pipes.append(read)
            try:
                pid = os.fork()
                if pid == 0:
                    _run_child_share(cells[k::n], run_cell, write)
            finally:
                os.close(write)
            pids.append(pid)
        results = [r for p in cells[::n] for r in run_cell(p)]
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
            reply = (True, [r._astuple() for p in cells for r in run_cell(p)])
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
    merged report is sorted by check name.  The cells run in one process
    per CPU (``_run_cells``).
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
    one process per CPU (``_run_cells``)."""
    return ConformanceReport(_run_cells(
        sweep_cells(max_a, max_b, max_m), lambda p: oracle_invariants(p, trials, seed))).sorted()


def oracle_invariants(p: CurveParams, trials: int, seed: int) -> list[CheckResult]:
    """Seeded random trials of the oracle invariants on one curve."""
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
            if oracle.is_relative_maximal(p, alpha, method="profile") != \
                    oracle.is_relative_maximal(p, shifted, method="profile"):
                failure = f"relative maximality not lattice-invariant at {alpha}"
                break
            if oracle.is_absolute_maximal(p, alpha, method="profile") != \
                    oracle.is_absolute_maximal(p, shifted, method="profile"):
                failure = f"absolute maximality not lattice-invariant at {alpha}"
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
    search-based (exhaustive) classifier for its own kind and fail the
    other kind for m >= 3, and sampled members outside both families
    must fail both classifiers.
    """
    p = params
    box = Box(lo=(-(p.b + 1),) * p.m, hi=(2 * p.genus,) * p.m)
    relative = mx.relative_maximals_region(p)
    absolute = mx.absolute_maximals_region(p)
    stamps = _Stamps(p)
    report = ConformanceReport()

    failure = None
    for t in mx.expand_in_box(relative, box):
        if not oracle.is_relative_maximal(p, t, method="search"):
            failure = f"{t} fails the relative definition"
            break
        if p.m >= 3 and oracle.is_absolute_maximal(p, t, method="search"):
            failure = f"{t} passes the absolute definition"
            break
    report.entries.append(stamps.result("definition-level-relative",
                                        failure is None, failure or ""))

    failure = None
    for t in mx.expand_in_box(absolute, box):
        if not oracle.is_absolute_maximal(p, t, method="search"):
            failure = f"{t} fails the absolute definition"
            break
        if p.m >= 3 and oracle.is_relative_maximal(p, t, method="search"):
            failure = f"{t} passes the relative definition"
            break
    report.entries.append(stamps.result("definition-level-absolute",
                                        failure is None, failure or ""))

    failure = None
    rng = random.Random(_mix_seed(seed, p.a, p.b, p.m, 3))
    reps = _member_reps(p)
    tested = 0
    while tested < sample_size:
        t = _random_member(rng, p, reps)
        if t not in box:
            continue
        if mx.family_contains(relative, t) or mx.family_contains(absolute, t):
            continue
        tested += 1
        if oracle.is_relative_maximal(p, t, method="search") or \
                oracle.is_absolute_maximal(p, t, method="search"):
            failure = f"member {t} outside both families passes a definition"
            break
    report.entries.append(stamps.result("definition-level-nonmaximal-sample",
                                        failure is None, failure or ""))

    return report.sorted()
