"""Span recording for the traced benchmark pass, and self-time arithmetic.

A child process that runs the program calls ``install()`` before it
does any work.  ``install`` replaces the public functions named in
``WRAPPED`` with timing wrappers by assigning the module attribute, so
every caller that looks the function up through its module (``gs.gaps``,
``oracle.is_member``, and ``oracle``'s own lookups of its globals) goes
through the wrapper.  Copies imported by name elsewhere (``from .oracle
import is_member``) keep the original.  No file of the program changes.

Each span records its name, start, end, parent span and request id in
flat arrays.  The arrays stay in memory and are written once, when the
child exits (``Recorder.dump``).  The parent reads the dumps back with
``load`` and folds them into per-function self times and call counts
with ``self_times``.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
import tracemalloc
from array import array
from collections import Counter

from inputs import simplex_cells

# module -> public functions that get a span, in report order
WRAPPED = {
    "cli": ("main",),
    "gapsets": ("gaps", "pure_gaps", "sigma_pair", "sigma_literal", "pure_gap_witness"),
    "oracle": ("local_absolute_maximals", "is_member", "dim_L", "per_coord_max",
               "nabla_J_empty"),
    "maximals": ("lambda_nonneg", "absolute_maximals_region"),
    "verify": ("run_fixtures", "run_property_sweep", "run_oracle_invariants"),
}
SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in WRAPPED.items() for fn in fns)

COUNTERS = ("gapsets.cells_swept", "gapsets.cube_cells", "gapsets.tuples_emitted",
            "oracle.seeds", "verify.checks", "verify.checks_failed")
PEAK_COUNTER = "gapsets.traced_peak_mb"


def _count_gap_report(counters: Counter, args, result) -> None:
    params = args[0]
    counters["gapsets.cube_cells"] += (2 * params.genus) ** params.m
    counters["gapsets.cells_swept"] += simplex_cells(params.genus, params.m)
    counters["gapsets.tuples_emitted"] += len(result.gaps) + len(result.pure_gaps)


def _count_seeds(counters: Counter, args, result) -> None:
    counters["oracle.seeds"] += len(result.gamma_hat_beta)


def _count_checks(counters: Counter, args, result) -> None:
    counters["verify.checks"] += len(result.entries)
    counters["verify.checks_failed"] += result.failed


# counts read off a wrapped call's arguments and result, at its boundary
_HOOKS = {
    "gapsets.gaps": _count_gap_report,
    "gapsets.pure_gaps": _count_gap_report,
    "oracle.local_absolute_maximals": _count_seeds,
    "verify.run_fixtures": _count_checks,
    "verify.run_property_sweep": _count_checks,
    "verify.run_oracle_invariants": _count_checks,
}


class Recorder:
    """In-memory span store for one process."""

    def __init__(self, trace_memory: bool = False) -> None:
        self.name = array("i")
        self.parent = array("i")
        self.request = array("i")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.request_id = 0
        self.counters: Counter = Counter()
        self.trace_memory = trace_memory
        self._gapsets_depth = 0

    def wrap(self, span_name: str, fn):
        """Return ``fn`` wrapped in a span named ``span_name``."""
        nid = SPAN_NAMES.index(span_name)
        hook = _HOOKS.get(span_name)
        measure_peak = self.trace_memory and span_name.startswith("gapsets.")
        name, parent, request = self.name, self.parent, self.request
        start, end, stack = self.start, self.end, self.stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            i = len(start)
            name.append(nid)
            parent.append(stack[-1] if stack else -1)
            request.append(self.request_id)
            end.append(0.0)
            stack.append(i)
            if measure_peak:
                self._enter_gapsets()
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[i] = clock()
                stack.pop()
                if measure_peak:
                    self._leave_gapsets()
            if hook is not None:
                hook(self.counters, args, result)
            return result

        return wrapper

    def _enter_gapsets(self) -> None:
        if self._gapsets_depth == 0:
            tracemalloc.reset_peak()
        self._gapsets_depth += 1

    def _leave_gapsets(self) -> None:
        self._gapsets_depth -= 1
        if self._gapsets_depth == 0:
            peak_mb = tracemalloc.get_traced_memory()[1] / (1 << 20)
            self.counters[PEAK_COUNTER] = max(self.counters[PEAK_COUNTER], peak_mb)

    def dump(self, path: str) -> None:
        """Write the spans and counters: one JSON header line, then the arrays."""
        header = {"names": list(SPAN_NAMES), "count": len(self.start),
                  "counters": dict(self.counters)}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.request, self.start, self.end):
                arr.tofile(fh)


def install(trace_memory: bool = False) -> Recorder:
    """Import the program's modules and wrap every function in ``WRAPPED``.

    With ``trace_memory`` the process runs under ``tracemalloc`` from
    here on and each outermost ``gapsets`` span records the traced peak
    reached inside it.  That slows every allocation, so the benchmark
    runs it as a pass of its own and takes only the peak from it.
    """
    rec = Recorder(trace_memory)
    for mod_name, fns in WRAPPED.items():
        mod = importlib.import_module(f"wsgap.{mod_name}")
        for fn in fns:
            setattr(mod, fn, rec.wrap(f"{mod_name}.{fn}", getattr(mod, fn)))
    if trace_memory:
        tracemalloc.start()
    return rec


def load(path: str) -> tuple[dict, dict]:
    """Read a dump back as (header, columns)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        cols = {}
        for key, code in (("name", "i"), ("parent", "i"), ("request", "i"),
                          ("start", "d"), ("end", "d")):
            arr = array(code)
            arr.fromfile(fh, n)
            cols[key] = arr
    return header, cols


def self_times(names, cols) -> dict[str, tuple[float, int]]:
    """Self time and call count per span name.

    A span's self time is its duration minus the part of its interval
    that its child spans cover.  Spans must be listed in order of start
    time, which is how a single-threaded ``Recorder`` appends them, so
    each parent sees its children in start order and the union of their
    intervals can be accumulated in one pass.
    """
    name, parent = cols["name"], cols["parent"]
    start, end = cols["start"], cols["end"]
    n = len(start)
    covered = [0.0] * n
    frontier = list(start)  # per parent: end of the covered part so far
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], frontier[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            frontier[p] = hi
    out: dict[str, list] = {}
    for i in range(n):
        acc = out.setdefault(names[name[i]], [0.0, 0])
        acc[0] += (end[i] - start[i]) - covered[i]
        acc[1] += 1
    return {k: (v[0], v[1]) for k, v in out.items()}
