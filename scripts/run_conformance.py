#!/usr/bin/env python3
"""Run the full conformance battery and write a JSON report.

Replays the fixture corpus, the property sweep, and the seeded oracle
invariants; prints a one-line summary per failing check and writes the
merged report to the requested path.
"""

import argparse
import json
import sys
import time

import wsgap as w
from wsgap.verify import ConformanceReport


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-a", type=int, default=5)
    parser.add_argument("--max-b", type=int, default=9)
    parser.add_argument("--max-m", type=int, default=4)
    parser.add_argument("--trials", type=int, default=1000)
    parser.add_argument("--out", default="conformance_report.json")
    args = parser.parse_args()

    t0 = time.perf_counter()
    report = ConformanceReport()
    report.extend(w.run_fixtures())
    report.extend(w.run_property_sweep(args.max_a, args.max_b, args.max_m))
    report.extend(w.run_oracle_invariants(args.max_a, args.max_b, args.max_m,
                                          trials=args.trials))
    report = report.sorted()
    wall = time.perf_counter() - t0

    payload = report.to_payload()
    payload["wall_seconds"] = round(wall, 2)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")

    for entry in report.failures():
        print(f"FAIL {entry.name}: {entry.detail}", file=sys.stderr)
    print(f"{report.passed}/{len(report.entries)} checks passed "
          f"in {wall:.1f}s -> {args.out}")
    return 0 if report.ok else 1


if __name__ == "__main__":
    sys.exit(main())
