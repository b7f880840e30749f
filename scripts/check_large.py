#!/usr/bin/env python3
"""Cross-check the gap and pure-gap routes on curves beyond the test sweep.

The test suite and ``wsgap verify`` compare the routes on every coprime
(a, b, m) with a <= 5, b <= 9.  This script compares them on the larger
curves people run: Hermitian q = 7, 8 at m = 2..4, q = 9 at m = 2, 3,
and norm-trace (ell, r) = (2, 4) at m = 2, 3.  On each curve the three
gap routes (complement, union_nabla, explicit_s) must give the same
tuples, and the two pure-gap routes (profile, intersection) the same
pure gaps.  It prints one line per curve with the time of each route
and exits 1 on any disagreement.  The complement and profile routes
share one cached walk, which the complement time includes.

It is not part of the test suite: a run takes about 35 s on two cores,
most of it in the intersection route at Hermitian q = 8, m = 4.

    PYTHONPATH=src python3 scripts/check_large.py
"""

import sys
import time

import wsgap as w

CELLS = (
    [(f"hermitian q={q} m={m}", w.hermitian_params(q, m))
     for q, ms in ((7, (2, 3, 4)), (8, (2, 3, 4)), (9, (2, 3))) for m in ms]
    + [(f"norm-trace ell=2 r=4 m={m}", w.norm_trace_params(2, 4, m)) for m in (2, 3)]
)


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def check(params):
    """Disagreeing routes and the time of every route, for one curve."""
    bad, times = [], {}
    base, times["complement"] = timed(w.gaps, params, "complement")
    for method in ("union_nabla", "explicit_s"):
        report, times[method] = timed(w.gaps, params, method)
        if report.gaps != base.gaps:
            bad.append(f"gaps {method} != complement")
    profile, times["profile"] = timed(w.pure_gaps, params, "profile")
    inter, times["intersection"] = timed(w.pure_gaps, params, "intersection")
    if inter.pure_gaps != profile.pure_gaps:
        bad.append("pure gaps intersection != profile")
    if profile.pure_gaps != base.pure_gaps:
        bad.append("pure gaps of the gaps and pure_gaps reports differ")
    return bad, times


def main():
    failed = 0
    for label, params in CELLS:
        t0 = time.perf_counter()
        bad, times = check(params)
        routes = " ".join(f"{k}={v:.2f}s" for k, v in times.items())
        status = "FAIL" if bad else "ok"
        print(f"{status:4} {label}: {time.perf_counter() - t0:.2f}s ({routes})", flush=True)
        for line in bad:
            print(f"     {line}", flush=True)
        failed += bool(bad)
    print(f"{len(CELLS) - failed}/{len(CELLS)} curves agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
