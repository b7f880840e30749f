#!/usr/bin/env python3
"""Run ``wsgap verify``'s per-cell checks, a count check and a render check, beyond the test sweep.

The test suite and ``wsgap verify`` run the checks on every coprime
(a, b, m) with a <= 5, b <= 9.  This script runs the same checks on the
larger curves people run.  Each curve of ``CURVES`` lists the parts it
runs, named from ``PARTS``: the ``verify.PROPERTY_CHECKS`` entries (the
gap routes complement, union_nabla and explicit_s, the pure-gap routes
profile and intersection, the zero family, the axes, the candidate
superset, the coordinate symmetry, the region families, the formula
classification, the pairing at m = 2, the witnesses and the report
sanity), ``"oracle"`` for ``verify.oracle_invariants`` at 2000 trials,
``"counts"`` and ``"rendering"``.  The count check compares
``gapsets.gap_counts``, the kernel plan's closed form, with the lengths
of the rows of ``gapsets.gaps``'s report, each side walked, and at
m = 2 the pure-gap count with the inversions of sigma.  In the render
check the command line's emitters, streaming into a sink, print an
envelope of the report's gap rows, and one of its pure-gap rows, in
JSON, text and CSV byte for byte as per-tuple encoders print the same
envelope with the tuples built from the rows, once per side for the
three formats; the report is the one the command line prints for
``gaps`` and ``pure-gaps``.  Both outputs stream into a SHA-256
(``Digest``) and are compared by their digests, so neither is held.

* Hermitian q = 7, 8 at m = 2..4, q = 9 at m = 2, 3, q = 11 at m = 3,
  q = 16, 32 at m = 2 and q = 5 at m = 4, and norm-trace (ell, r) =
  (2, 4) at m = 2, 3 and (3, 3) at m = 3: every part.
* Norm-trace (2, 4) and Hermitian q = 11 at m = 4: every part but
  ``sigma``, which needs m = 2, and the render check, which builds
  every gap tuple (263 MB at norm-trace (2, 4)).  At norm-trace (2, 4),
  run alone in a fresh process, ``gap-methods`` took 0.6 s and 19 MB,
  each route walked beside the kernel (64 MB while each route was held
  whole), and ``symmetry`` and ``report-sanity`` read the gap rows, in
  0.9 and 0.6 s, where building every gap tuple took 2.5 and 1.2 s.
  At Hermitian q = 11 the checks and the oracle invariants took 8.1 s
  and 45 MB in a fresh process (95 MB while each route was held whole).
* (a, b, m) = (7, 13, 5): ``gap-methods``, ``pure-methods`` and
  ``zero-family`` and the count check, so the memory of the walked
  routes stays checked.  Run alone in a fresh process, ``gap-methods``
  took 3.1 s and 21.5 MB and ``zero-family`` 2.3 s and 21.3 MB, against
  289 MB each while every route was held whole.  The oracle invariants,
  which took 7.0 to 10.1 s of the curve's 13.2 to 17.4 s, are left out.
* Hermitian q = 64 at m = 2 (b = 65, genus 2016): the oracle invariants
  and the count check alone, so the oracle's signature tables meet a b
  beyond the curves above.  At m = 3 they would take about 10 s per 200
  trials, nearly all of it in ``profile-enumeration-agreement``, whose
  reference ``oracle.local_absolute_maximals`` lists and sorts about
  130,000 translates a call; the tables answer in microseconds.
* Hermitian q = 16 at m = 4: the count check alone.  The kernel walks
  62,779,592 gaps and 3,547,856 pure gaps, in about 1.3 s and 40 MB:
  each side is walked, and no side keeps a row.

With ``--seed N`` it runs, in place of those curves, every part, the
oracle invariants seeded from N, on 12 coprime cells drawn from N
outside the a <= 5, b <= 9 sweep box (a <= 12, b <= 40, a != b,
m <= min(4, a + 1), (2g)^m <= 10^7).  Each line names the cell and the
seed, so a disagreement can be rerun.

It prints one line per curve with the time of each part, then the name
and detail of each failing check, and a summary line with the run's
max-RSS, and exits 1 on any failure.  Each
check walks the cross-check routes it reads beside the kernel's rows
and holds none; the kernel's plan is cached per curve.  Once a curve is
done, every per-curve cache is emptied (``core.clear_curve_caches``),
as ``wsgap verify`` does after each cell: no curve reads another's
entries.  A full run on two cores printed "20/20 curves agree, max-RSS
92.5 MB" after 39 s; the same curves peaked at 132 MB while the render
check held each output whole and 293 MB while every route was held
whole.  ``--seed 2`` printed "12/12 curves agree" at 58 to 66 MB
max-RSS (278 MB with the outputs held); its largest render check, at
(7, 31, 3) with 435,973 gaps, took 3 to 5 s, as it did with the
outputs held.

It is not part of the test suite: runs took 36 to 57 s on two cores.
The largest lines of a 39 s run were Hermitian q = 11 at m = 4
(11.2 s, of which ``witnesses`` 2.8 s and the oracle invariants
2.9 s), (7, 13, 5) (7.6 s, of which ``gap-methods`` 3.9 s and
``zero-family`` 2.7 s) and norm-trace (2, 4) at m = 4 (6.1 s).  Seeded
runs of seeds 1, 2 and 3 took 7 to 13 s.

    PYTHONPATH=src python3 scripts/check_large.py [--seed N]
"""

import argparse
import csv
import hashlib
import itertools
import json
import math
import random
import resource
import sys
import time

import wsgap as w
from wsgap import cli, core, verify
from wsgap import gapsets as gs

# the parts ``check`` can run: every property check, then the oracle
# invariants, the count check and the render check
PARTS = (*verify.PROPERTY_CHECKS, "oracle", "counts", "rendering")
# every part but the pairing, which needs m = 2, and the render check
BUT_SIGMA_RENDERING = tuple(name for name in PARTS if name not in ("sigma", "rendering"))
CURVES = (
    [(f"hermitian q={q} m={m}", w.hermitian_params(q, m), PARTS)
     for q, ms in ((7, (2, 3, 4)), (8, (2, 3, 4)), (9, (2, 3)), (11, (3,)), (16, (2,)),
                   (32, (2,)), (5, (4,)))
     for m in ms]
    + [(f"norm-trace ell={ell} r={r} m={m}", w.norm_trace_params(ell, r, m), PARTS)
       for ell, r, ms in ((2, 4, (2, 3)), (3, 3, (3,))) for m in ms]
    + [("norm-trace ell=2 r=4 m=4", w.norm_trace_params(2, 4, 4), BUT_SIGMA_RENDERING),
       ("hermitian q=11 m=4", w.hermitian_params(11, 4), BUT_SIGMA_RENDERING),
       ("a=7 b=13 m=5", w.curve_params(7, 13, 5),
        ("gap-methods", "pure-methods", "zero-family", "counts")),
       ("hermitian q=64 m=2", w.hermitian_params(64, 2), ("oracle", "counts")),
       ("hermitian q=16 m=4", w.hermitian_params(16, 4), ("counts",))]
)
ORACLE_TRIALS = 2000
SEEDED_CELLS = 12
SEEDED_CUBE = 10**7


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


class Digest:
    """A text sink that keeps only the SHA-256 of what is written to it."""

    def __init__(self):
        self.sha = hashlib.sha256()

    def write(self, text):
        self.sha.update(text.encode())

    def writelines(self, lines):
        lines = iter(lines)  # hashed in batches: one update per piece costs more
        while batch := list(itertools.islice(lines, 1 << 12)):
            self.write("".join(batch))


def envelope(params, key, rows):
    """A command-line envelope carrying one tuple list."""
    return {"schema": cli.SCHEMA, "tool_version": w.__version__, "command": "gaps",
            "params": cli._params_echo(params),
            "payload": {key: rows, "count": len(rows), "method": "complement"},
            "timing_ms": 1.5}


def per_tuple(fmt, env, key, tuples, out):
    """Write the envelope to ``out`` as the encoders print it one tuple at
    a time, with ``tuples`` the tuples of its list ``key``."""
    payload, p = env["payload"], env["params"]
    if fmt == "json":
        # json lays out a tuple as it does a list
        listed = {**env, "payload": {**payload, key: tuples}}
        out.writelines(json.JSONEncoder(sort_keys=True, indent=2).iterencode(listed))
        out.write("\n")
    elif fmt == "text":
        out.write(f"# {env['schema']} tool_version={env['tool_version']}\n"
                  f"# command: {env['command']}\n"
                  "# params: " + " ".join(f"{k}={p[k]}" for k in p) + "\n")
        for k, value in sorted(payload.items()):
            if k == key:
                out.write(f"{key} ({len(tuples)}):\n")
                out.writelines("(" + ", ".join(map(str, t)) + ")\n" for t in tuples)
            else:
                out.write(f"{k}: {value}\n")
        out.write(f"# timing_ms: {env['timing_ms']}\n")
    else:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(["kind", "name", "tuple", "value"])
        writer.writerows(["meta", k, "", env[k]] for k in ("schema", "tool_version", "command"))
        writer.writerows(["meta", k, "", "" if v is None else v] for k, v in p.items())
        for k, value in sorted(payload.items()):
            if k == key:
                writer.writerows([key, "", ";".join(map(str, t)), ""] for t in tuples)
            else:
                writer.writerow([k, "", "", value])
        writer.writerow(["meta", "timing_ms", "", env["timing_ms"]])


def check_rendering(params, report):
    """The streaming emitters against per-tuple encoders, in all three
    formats, on the rows of the report the command line prints; each
    side's output is compared by its SHA-256, so neither is held."""
    bad = []
    for key, rows in (("gaps", report.gap_rows), ("pure_gaps", report.pure_rows)):
        tuples = rows.tuples  # built once: a kernel side builds them anew on each read
        for fmt, emit in cli._EMITTERS.items():
            env = envelope(params, key, rows)
            expected, sink = Digest(), Digest()
            per_tuple(fmt, env, key, tuples, expected)
            emit(env, sink)
            if sink.sha.digest() != expected.sha.digest():
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


def failures(results):
    """The name and detail of each failing ``verify.CheckResult``."""
    return [f"{e.name}: {e.detail}" for e in results if not e.passed]


def check(params, parts=PARTS, seed=verify.DEFAULT_SEED):
    """The failing checks and the time of each part, for one curve: the
    named ``PARTS``, in the order given."""
    runs = {name: lambda p, fn=fn: failures(fn(p)) for name, fn in verify.PROPERTY_CHECKS.items()}
    runs.update(oracle=lambda p: failures(verify.oracle_invariants(p, ORACLE_TRIALS, seed)),
                counts=check_counts, rendering=lambda p: check_rendering(p, w.gaps(p)))
    bad, times = [], {}
    for name in parts:
        found, times[name] = timed(runs[name], params)
        bad += found
    return bad, times


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
        runs = [(label, params, parts, verify.DEFAULT_SEED) for label, params, parts in CURVES]
    else:
        runs = [(f"a={p.a} b={p.b} m={p.m} seed={args.seed}", p, PARTS, args.seed)
                for p in seeded_cells(args.seed)]
    failed = 0
    for label, params, parts, seed in runs:
        t0 = time.perf_counter()
        bad, times = check(params, parts, seed)
        core.clear_curve_caches()
        timings = " ".join(f"{k}={v:.2f}s" for k, v in times.items())
        status = "FAIL" if bad else "ok"
        print(f"{status:4} {label}: {time.perf_counter() - t0:.2f}s ({timings})", flush=True)
        for line in bad:
            print(f"     {line}", flush=True)
        failed += bool(bad)
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024  # kB on Linux
    print(f"{len(runs) - failed}/{len(runs)} curves agree, max-RSS {peak_mb:.1f} MB")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
