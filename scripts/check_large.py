#!/usr/bin/env python3
"""Run ``wsgap verify``'s per-cell checks, a count check and a render check, beyond the test sweep.

The test suite and ``wsgap verify`` run the checks on every coprime
(a, b, m) with a <= 5, b <= 9.  This script runs the same checks on the
larger curves people run:

* Hermitian q = 7, 8 at m = 2..4, q = 9 at m = 2, 3, q = 11 at m = 3,
  q = 16, 32 at m = 2 and q = 5 at m = 4, and norm-trace (ell, r) =
  (2, 4) at m = 2, 3 and (3, 3) at m = 3: every ``verify.PROPERTY_CHECKS``
  entry (the gap routes complement, union_nabla and explicit_s, the
  pure-gap routes profile and intersection, the zero family, the axes,
  the candidate superset, the coordinate symmetry, the region families,
  the formula classification, the pairing at m = 2, the witnesses and
  the report sanity), ``verify.oracle_invariants`` at 2000 trials, a
  count check and a render check.  The count check compares
  ``gapsets.gap_counts``, the kernel plan's closed form, with the
  lengths of the rows of ``gapsets.gaps``'s report, each side walked,
  and at m = 2 the pure-gap count with the inversions of sigma.  In the
  render check the command line's emitters, streaming into a sink,
  print an envelope of the report's gap rows, and one of its pure-gap
  rows, in JSON, text and CSV byte for byte as per-tuple encoders print
  the same envelope with the tuples built from the rows, once per side
  for the three formats; the report is the one the command line prints
  for ``gaps`` and ``pure-gaps``.
* Norm-trace (2, 4) and Hermitian q = 11 at m = 4: every property
  check but ``sigma``, which needs m = 2, ``verify.oracle_invariants``
  and the count check.  At norm-trace (2, 4), run alone in a fresh
  process, ``gap-methods`` took 0.6 s and 19 MB, each route walked
  beside the kernel (64 MB while each route was held whole), and
  ``symmetry`` and ``report-sanity`` read the gap rows, in 0.9 and
  0.6 s, where building every gap tuple took 2.5 and 1.2 s and 263 MB.
  So the render check, which builds every tuple, stays off: ``check``
  takes the names of the property checks to run, and the render check
  runs only when all of them run.  At Hermitian q = 11 the checks and
  the oracle invariants took 8.1 s and 45 MB in a fresh process (95 MB
  while each route was held whole).
* (a, b, m) = (7, 13, 5): ``gap-methods``, ``pure-methods`` and
  ``zero-family``, the oracle invariants and the count check, so the
  memory of the walked routes stays checked.  Run alone in a fresh
  process, ``gap-methods`` took 3.1 s and 21.5 MB and ``zero-family``
  2.3 s and 21.3 MB, against 289 MB each while every route was held
  whole.
* Hermitian q = 64 at m = 2 (b = 65, genus 2016): the oracle invariants
  and the count check alone, so the oracle's signature tables meet a b
  beyond the curves above.  At m = 3 they would take about 10 s per 200
  trials, nearly all of it in ``profile-enumeration-agreement``, whose
  reference ``oracle.local_absolute_maximals`` lists and sorts about
  130,000 translates a call; the tables answer in microseconds.
* Hermitian q = 16 at m = 4: the count check alone.  The kernel walks
  62,779,592 gaps and 3,547,856 pure gaps, in about 1.3 s and 40 MB:
  each side is walked, and no side keeps a row.

With ``--seed N`` it runs, in place of those curves, the property checks,
the oracle invariants seeded from N, the count check and the render
check on 12 coprime cells drawn from N outside the a <= 5, b <= 9 sweep
box (a <= 12, b <= 40, a != b, m <= min(4, a + 1), (2g)^m <= 10^7).
Each line names the cell and the seed, so a disagreement can be rerun.

It prints one line per curve with the time of each part, then the name
and detail of each failing check, and a summary line with the run's
max-RSS, and exits 1 on any failure.  Each
check walks the cross-check routes it reads beside the kernel's rows
and holds none; the kernel's plan is cached per curve.  Once a curve is
done, every per-curve cache is emptied (``core.clear_curve_caches``),
as ``wsgap verify`` does after each cell: no curve reads another's
entries.  A full run on two cores printed "20/20 curves agree, max-RSS
134.1 MB" after 36 s; the same curves peaked at 293 MB while every
route was held whole.

It is not part of the test suite: runs took 36 to 57 s on two cores.
The largest lines of the 36 s run were (7, 13, 5) (13.2 s, of which the
oracle invariants 7.0 s, ``gap-methods`` 3.3 s and ``zero-family``
2.1 s), Hermitian q = 11 at m = 4 (8.2 s, of which ``witnesses`` 2.3 s
and the oracle invariants 2.2 s) and norm-trace (2, 4) at m = 4 (4.2 s).
Seeded runs of seeds 1, 2 and 3 took 4 to 11 s.

    PYTHONPATH=src python3 scripts/check_large.py [--seed N]
"""

import argparse
import csv
import io
import json
import math
import random
import resource
import sys
import time

import wsgap as w
from wsgap import cli, core, verify
from wsgap import gapsets as gs

CELLS = (
    [(f"hermitian q={q} m={m}", w.hermitian_params(q, m))
     for q, ms in ((7, (2, 3, 4)), (8, (2, 3, 4)), (9, (2, 3)), (11, (3,)), (16, (2,)),
                   (32, (2,)), (5, (4,)))
     for m in ms]
    + [(f"norm-trace ell={ell} r={r} m={m}", w.norm_trace_params(ell, r, m))
       for ell, r, ms in ((2, 4, (2, 3)), (3, 3, (3,))) for m in ms]
)
# every property check but the pairing, which needs m = 2
BUT_SIGMA = tuple(name for name in verify.PROPERTY_CHECKS if name != "sigma")
# curves that run some property checks, or none, with the oracle invariants
PARTIAL = [("norm-trace ell=2 r=4 m=4", w.norm_trace_params(2, 4, 4), BUT_SIGMA),
           ("hermitian q=11 m=4", w.hermitian_params(11, 4), BUT_SIGMA),
           ("a=7 b=13 m=5", w.curve_params(7, 13, 5),
            ("gap-methods", "pure-methods", "zero-family")),
           ("hermitian q=64 m=2", w.hermitian_params(64, 2), ())]
# curves whose counts alone are checked
COUNTS_ONLY = [("hermitian q=16 m=4", w.hermitian_params(16, 4))]
ORACLE_TRIALS = 2000
SEEDED_CELLS = 12
SEEDED_CUBE = 10**7


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def envelope(params, key, rows):
    """A command-line envelope carrying one tuple list."""
    return {"schema": cli.SCHEMA, "tool_version": w.__version__, "command": "gaps",
            "params": cli._params_echo(params),
            "payload": {key: rows, "count": len(rows), "method": "complement"},
            "timing_ms": 1.5}


def per_tuple(fmt, env, key, tuples):
    """The envelope as the encoders print it one tuple at a time, with
    ``tuples`` the tuples of its list ``key``."""
    payload, p = env["payload"], env["params"]
    if fmt == "json":
        listed = {**payload, key: [list(t) for t in tuples]}
        return json.dumps({**env, "payload": listed}, sort_keys=True, indent=2) + "\n"
    if fmt == "text":
        lines = [f"# {env['schema']} tool_version={env['tool_version']}",
                 f"# command: {env['command']}",
                 "# params: " + " ".join(f"{k}={p[k]}" for k in p)]
        for k, value in sorted(payload.items()):
            if k == key:
                lines.append(f"{key} ({len(tuples)}):")
                lines += ["(" + ", ".join(map(str, t)) + ")" for t in tuples]
            else:
                lines.append(f"{k}: {value}")
        return "\n".join(lines + [f"# timing_ms: {env['timing_ms']}"]) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "name", "tuple", "value"])
    writer.writerows(["meta", k, "", env[k]] for k in ("schema", "tool_version", "command"))
    writer.writerows(["meta", k, "", "" if v is None else v] for k, v in p.items())
    for k, value in sorted(payload.items()):
        if k == key:
            writer.writerows([key, "", ";".join(map(str, t)), ""] for t in tuples)
        else:
            writer.writerow([k, "", "", value])
    writer.writerow(["meta", "timing_ms", "", env["timing_ms"]])
    return buf.getvalue()


def check_rendering(params, report):
    """The streaming emitters against per-tuple encoders, in all three
    formats, on the rows of the report the command line prints."""
    bad = []
    for key, rows in (("gaps", report.gap_rows), ("pure_gaps", report.pure_rows)):
        tuples = rows.tuples  # built once: a kernel side builds them anew on each read
        for fmt, emit in cli._EMITTERS.items():
            env = envelope(params, key, rows)
            expected = per_tuple(fmt, env, key, tuples)
            sink = io.StringIO()
            emit(env, sink)
            if sink.getvalue() != expected:
                bad.append(f"{fmt} envelope of {key} differs from the per-tuple encoding")
    return bad


def check_counts(params):
    """``gap_counts`` against the lengths of the rows of ``gapsets.gaps``'s
    report, each side walked, and at m = 2 the pure-gap count against the
    inversions of sigma."""
    counts = gs.gap_counts(params)
    report = gs.gaps(params)
    walked = tuple(sum(len(lasts) for _, lasts in rows.rows())
                   for rows in (report.gap_rows, report.pure_rows))
    bad = [] if counts == walked else [f"gap_counts {counts} != walked lengths {walked}"]
    if params.m == 2 and counts[1] != len(gs.sigma_pair(params).inversions):
        bad.append(f"pure-gap count {counts[1]} != the inversions of sigma")
    return bad


def check(params, seed=verify.DEFAULT_SEED, checks=tuple(verify.PROPERTY_CHECKS)):
    """The failing checks and the time of each part, for one curve: the
    named property checks, the oracle invariants, the counts, and the
    render check when every property check runs."""
    bad, times = [], {}
    parts = [(name, verify.PROPERTY_CHECKS[name]) for name in checks]
    parts.append(("oracle", lambda p: verify.oracle_invariants(p, ORACLE_TRIALS, seed)))
    for name, fn in parts:
        results, times[name] = timed(fn, params)
        bad += [f"{e.name}: {e.detail}" for e in results if not e.passed]
    counts_bad, times["counts"] = timed(check_counts, params)
    bad += counts_bad
    if set(checks) == set(verify.PROPERTY_CHECKS):
        rendering_bad, times["rendering"] = timed(check_rendering, params, w.gaps(params))
        bad += rendering_bad
    return bad, times


def count_only(params):
    """``check_counts`` alone, timed as ``check`` times its parts."""
    bad, elapsed = timed(check_counts, params)
    return bad, {"counts": elapsed}


def seeded_cells(seed):
    """``SEEDED_CELLS`` coprime (a, b, m) drawn from ``random.Random(seed)``,
    outside the a <= 5, b <= 9 sweep box: a <= 12, b <= 40, a != b,
    m <= min(4, a + 1), no repeats and (2g)^m <= ``SEEDED_CUBE``."""
    rng = random.Random(seed)
    cells = []
    while len(cells) < SEEDED_CELLS:
        a, b = rng.randint(2, 12), rng.randint(2, 40)
        if a == b or math.gcd(a, b) > 1 or (a <= 5 and b <= 9):
            continue
        p = w.curve_params(a, b, rng.randint(2, min(4, a + 1)))
        if (2 * p.genus) ** p.m <= SEEDED_CUBE and p not in cells:
            cells.append(p)
    return cells


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int,
                        help="check cells drawn from this seed instead of the fixed curves")
    args = parser.parse_args(argv)
    if args.seed is None:
        runs = [(label, params, check) for label, params in CELLS] + \
            [(label, params, lambda p, names=names: check(p, checks=names))
             for label, params, names in PARTIAL] + \
            [(label, params, count_only) for label, params in COUNTS_ONLY]
    else:
        runs = [(f"a={p.a} b={p.b} m={p.m} seed={args.seed}", p,
                 lambda p: check(p, args.seed)) for p in seeded_cells(args.seed)]
    failed = 0
    for label, params, fn in runs:
        t0 = time.perf_counter()
        bad, times = fn(params)
        core.clear_curve_caches()
        parts = " ".join(f"{k}={v:.2f}s" for k, v in times.items())
        status = "FAIL" if bad else "ok"
        print(f"{status:4} {label}: {time.perf_counter() - t0:.2f}s ({parts})", flush=True)
        for line in bad:
            print(f"     {line}", flush=True)
        failed += bool(bad)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(f"{len(runs) - failed}/{len(runs)} curves agree, max-RSS {peak_mb:.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
