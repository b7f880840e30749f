#!/usr/bin/env python3
"""Cross-check the gap routes, the oracle and the pairing beyond the test sweep.

The test suite and ``wsgap verify`` compare the routes on every coprime
(a, b, m) with a <= 5, b <= 9.  This script compares them on the larger
curves people run.

* Hermitian q = 7, 8 at m = 2..4, q = 9 at m = 2, 3, q = 11 at m = 3,
  q = 32 at m = 2, and norm-trace (ell, r) = (2, 4) at m = 2, 3 and
  (3, 3) at m = 3: the three gap routes (complement,
  union_nabla, explicit_s) give the same tuples, the two pure-gap
  routes (profile, intersection) the same pure gaps, and every axis
  carries exactly genus gaps.
* On each of those curves, on Hermitian q = 16, 32 at m = 2, and on
  Hermitian q = 5 and norm-trace (2, 4) at m = 4 (the benchmark's oracle
  curves), the oracle (``is_member``, ``dim_L``, ``per_coord_max``)
  agrees with the explicit enumeration ``local_absolute_maximals`` on a
  seeded sample of tuples in [-b-2, 2g+b]^m, and the two
  ``nabla_J_empty`` routes agree on a smaller one.
* At Hermitian q = 16, 32 (m = 2): ``sigma_pair`` equals the literal
  pairing ``sigma_literal``, and both axes carry exactly genus gaps.
* On every curve, the command line's emitters, streaming into a sink,
  print an envelope of the kernel's gap rows, and one of its pure-gap
  rows, in JSON, text and CSV byte for byte as per-tuple encoders print
  the same envelope with the tuples built from the rows.

With ``--seed N`` it checks, in place of those curves, 12 coprime cells
drawn from N outside the a <= 5, b <= 9 sweep box (a <= 12, b <= 40,
a != b, m <= min(4, a + 1), (2g)^m <= 10^7): the routes, the axes, the
emitters and the oracle sample as above, the sample seeded from N too.
Each line names the cell and the seed, so a disagreement can be rerun.

It prints one line per curve with the time of each part and exits 1 on
any disagreement.  The complement and profile routes share one cached
kernel, which the complement time includes.

It is not part of the test suite: a run takes about 30 s on two cores,
the largest parts the oracle sample at norm-trace (2, 4), m = 4 (about
4.5 s), the render check at Hermitian q = 32, m = 2 (about 3 s, run for
both of its entries) and the oracle sample at q = 8, m = 4 (about 2 s;
the intersection route takes about 0.5 s there).  A seeded run takes
5 to 20 s.

    PYTHONPATH=src python3 scripts/check_large.py [--seed N]
"""

import argparse
import csv
import io
import itertools
import json
import math
import random
import sys
import time

import wsgap as w
from wsgap import cli

CELLS = (
    [(f"hermitian q={q} m={m}", w.hermitian_params(q, m))
     for q, ms in ((7, (2, 3, 4)), (8, (2, 3, 4)), (9, (2, 3)), (11, (3,)), (32, (2,)))
     for m in ms]
    + [(f"norm-trace ell={ell} r={r} m={m}", w.norm_trace_params(ell, r, m))
       for ell, r, ms in ((2, 4, (2, 3)), (3, 3, (3,))) for m in ms]
)
PAIRING_CELLS = [(f"hermitian q={q} m=2", w.hermitian_params(q, 2)) for q in (16, 32)]
# curves of the benchmark's oracle stream that the lists above leave out
ORACLE_CELLS = [("hermitian q=5 m=4", w.hermitian_params(5, 4)),
                ("norm-trace ell=2 r=4 m=4", w.norm_trace_params(2, 4, 4))]
KERNEL_SAMPLE = 200
NABLA_SAMPLE = 20
SEED = 20240811
SEEDED_CELLS = 12
SEEDED_CUBE = 10**7


def timed(fn, *args):
    t0 = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - t0


def axis_counts(params, gaps):
    """Gaps on each coordinate axis, which must each number genus."""
    counts = [0] * params.m
    for t in gaps:
        nonzero = [k for k, c in enumerate(t) if c]
        if len(nonzero) == 1:
            counts[nonzero[0]] += 1
    return counts


def check_axes(params, gaps):
    counts = axis_counts(params, gaps)
    if any(c != params.genus for c in counts):
        return [f"axis gap counts {counts}, genus is {params.genus}"]
    return []


def check_kernel(params, seed=SEED):
    """The oracle against the explicit enumeration on seeded tuples."""
    rng = random.Random(seed * 1000 + params.a * 100 + params.m)
    lo, hi = -params.b - 2, 2 * params.genus + params.b
    for k in range(KERNEL_SAMPLE):
        beta = tuple(rng.randint(lo, hi) for _ in range(params.m))
        prof = w.local_absolute_maximals(params, beta)
        pcm = prof.per_coord_max if prof.gamma_hat_beta else None
        if w.per_coord_max(params, beta) != pcm:
            return [f"per_coord_max at {beta} != enumeration {pcm}"]
        if w.is_member(params, beta) != (pcm == beta):
            return [f"is_member at {beta} disagrees with the enumeration"]
        if w.dim_L(params, beta) != len({g[0] for g in prof.gamma_hat_beta}):
            return [f"dim_L at {beta} disagrees with the enumeration"]
    subsets = [J for size in range(1, params.m)
               for J in itertools.combinations(range(1, params.m + 1), size)]
    for _ in range(NABLA_SAMPLE):
        alpha = tuple(rng.randint(lo, hi) for _ in range(params.m))
        J = rng.choice(subsets)
        if w.nabla_J_empty(params, alpha, J, "profile") != \
                w.nabla_J_empty(params, alpha, J, "search"):
            return [f"nabla_J_empty routes disagree at {alpha}, J={J}"]
    return []


def envelope(params, key, rows):
    """A command-line envelope carrying one tuple list."""
    return {"schema": cli.SCHEMA, "tool_version": w.__version__, "command": "gaps",
            "params": cli._params_echo(params),
            "payload": {key: rows, "count": len(rows), "method": "complement"},
            "timing_ms": 1.5}


def per_tuple(fmt, env, key):
    """The envelope as the encoders print it one tuple at a time."""
    payload, p = env["payload"], env["params"]
    tuples = payload[key].tuples
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
    """The streaming emitters against per-tuple encoders, in all three formats."""
    bad = []
    for key, rows in (("gaps", report.gap_rows), ("pure_gaps", report.pure_rows)):
        env = envelope(params, key, rows)
        for fmt, emit in cli._EMITTERS.items():
            sink = io.StringIO()
            emit(env, sink)
            if sink.getvalue() != per_tuple(fmt, env, key):
                bad.append(f"{fmt} envelope of {key} differs from the per-tuple encoding")
    return bad


def check(params, seed=SEED):
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
    bad += check_axes(params, base.gaps)
    rendering_bad, times["rendering"] = timed(check_rendering, params, base)
    kernel_bad, times["oracle"] = timed(check_kernel, params, seed)
    return bad + rendering_bad + kernel_bad, times


def check_pairing(params):
    """The pairing, the axes and the oracle at a large two-point curve."""
    bad, times = [], {}
    table, times["sigma_pair"] = timed(w.sigma_pair, params)
    literal, times["sigma_literal"] = timed(w.sigma_literal, params)
    if literal != tuple(table.gaps_q2[s - 1] for s in table.sigma):
        bad.append("sigma_literal != sigma_pair")
    report, times["complement"] = timed(w.gaps, params, "complement")
    bad += check_axes(params, report.gaps)
    rendering_bad, times["rendering"] = timed(check_rendering, params, report)
    kernel_bad, times["oracle"] = timed(check_kernel, params)
    return bad + rendering_bad + kernel_bad, times


def check_oracle(params):
    """The oracle sample alone, for one curve."""
    bad, seconds = timed(check_kernel, params)
    return bad, {"oracle": seconds}


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
            [(label, params, check_pairing) for label, params in PAIRING_CELLS] + \
            [(label, params, check_oracle) for label, params in ORACLE_CELLS]
    else:
        runs = [(f"a={p.a} b={p.b} m={p.m} seed={args.seed}", p,
                 lambda p: check(p, args.seed)) for p in seeded_cells(args.seed)]
    failed = 0
    for label, params, fn in runs:
        t0 = time.perf_counter()
        bad, times = fn(params)
        parts = " ".join(f"{k}={v:.2f}s" for k, v in times.items())
        status = "FAIL" if bad else "ok"
        print(f"{status:4} {label}: {time.perf_counter() - t0:.2f}s ({parts})", flush=True)
        for line in bad:
            print(f"     {line}", flush=True)
        failed += bool(bad)
    print(f"{len(runs) - failed}/{len(runs)} curves agree")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
