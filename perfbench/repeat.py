"""Run the benchmark over several seeds and summarise each end-to-end metric.

    python3 perfbench/repeat.py --runs 10 [--first-seed 1] [--seconds S]
                                [--workload NAME ...] [--out FILE]

For every workload, runs ``run.py`` once per seed, printing how long
each run took end to end, and then prints, per metric, the median, the
quartiles (``statistics.quantiles(n=4)``) and the spread: the distance
between the quartiles as a share of the median.  ``--out`` writes the same summary, with the record of the
first run (commit, versions, host, line count), as JSON: a trajectory
entry.  Exits non-zero if any run fails or reports ``correct: false``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("enum-cube", "oracle-query", "verify-sweep")


def summarise(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median, "values": values}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--workload", action="append", choices=WORKLOADS)
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()
    bench = json.loads(Path("BENCHMARK.json").read_text())
    seconds = args.seconds if args.seconds is not None else bench["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    summary, record, status = {}, None, 0
    for workload in args.workload or WORKLOADS:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            t0 = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
                capture_output=True, text=True)
            print(f"{workload} seed {seed}: {time.perf_counter() - t0:.1f} s", flush=True)
            lines = proc.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if lines else {}
            if proc.returncode != 0 or not result.get("correct"):
                print(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}",
                      file=sys.stderr)
                status = 1
                continue
            record = record or json.loads(lines[-2])["record"]
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        summary[workload] = {}
        for name, vals in values.items():
            if len(vals) < 2:
                continue
            s = summarise(vals)
            summary[workload][name] = s
            flag = "" if s["spread"] < bounds[name] / 3 else "  <-- above bound/3"
            print(f"{workload:13s} {name:14s} median {s['median']:<12.6g} "
                  f"q1 {s['q1']:<12.6g} q3 {s['q3']:<12.6g} "
                  f"spread {s['spread']:.4f} (bound {bounds[name]}){flag}", flush=True)
    if args.out:
        args.out.write_text(json.dumps({"first_run_record": record, "runs": args.runs,
                                        "seconds": seconds, "summary": summary},
                                       indent=1) + "\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
