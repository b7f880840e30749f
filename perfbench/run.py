"""End-to-end and per-layer benchmark of the wsgap command line and library.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the root of a source checkout: the program is imported from
``./src`` (it need not be installed) and scratch files go to
``./.bench_build/perfbench``.  One client runs one child process at a
time (closed loop, one client).

Workloads:

* ``enum-cube``: one fresh ``python -m wsgap.cli`` per request, ten
  gap, pure-gap and sigma requests on Hermitian and norm-trace curves in
  all three output formats, in a seeded order.
* ``oracle-query``: one fresh child runs a seeded stream of scalar
  ``is_member``/``dim_L``/``per_coord_max``/``nabla_J_empty`` queries
  through the ``wsgap.oracle`` module attributes, cold, no warm-up.
* ``verify-sweep``: one fresh ``wsgap verify --what all --format json``
  with the default bounds, trials and seed.

A run repeats passes over its workload until ``--seconds`` have passed
(at least one pass).  Every pass runs the same requests, or the same
query stream, in the same order from fresh processes, so item ``k`` of
a pass is the same work in every pass.  For the CLI workloads each
request's time is its mean over the run's passes: with the two to four
passes a run fits, over ten seeds the mean spread 0.13 of its median
between quartiles for the wall and 0.15 for the p50, against 0.16 and
0.24 for the per-request median.  On ``oracle-query`` the time of each
segment of ``SEGMENT`` consecutive queries (tens of milliseconds) is taken from the pass that ran it fastest
(``fastest_segments``): on a shared machine other tenants slow whole
stretches of seconds, sometimes most of a run, by up to half, and the
fastest pass of each segment drops those stretches where a median over
the few passes of a run does not.  In sets of ten seeds on a 2-vCPU
VM, the p50 spread 0.03 to 0.11 of its median between quartiles this
way, against 0.06 to 0.29 for per-pass medians, and the query time 0.08
to 0.24 against 0.06 to 0.29.  The p99 is read per pass and its median
taken: the fastest segments spread it wider (up to 0.42).  Slow or fast
spells that last minutes move every figure of a run alike, and no
estimator inside a run removes them.  With ``--trace 0`` it prints
every end-to-end metric:

* ``setup_s``: median time for a fresh process to import ``wsgap.cli``
  and exit, with the bytecode cache warm, over samples taken before the
  first pass and after every round of passes.
* ``wall_s``: one pass.  For the CLI workloads, the sum of the request
  wall times, process start-up included; for ``oracle-query`` the time
  spent inside the queries (the sum of their latencies from the fastest
  segments, without the client's loop).
* ``peak_rss_mb``: the largest max-RSS of any child in a pass (``wait4``),
  the median over passes.
* ``cells_per_s``: cells answered per second.  A CLI request answers the
  simplex of ``C(2g-1+m, m)`` cells of its curve (``verify-sweep``: of
  every parameter cell it sweeps); a query answers one tuple.
* ``queries_per_s``, ``query_p50_us``, ``query_p99_us``: rate and
  nearest-rank latency percentiles of the workload's queries, where a
  query is one oracle call on ``oracle-query`` (200k per pass, 2k beyond
  p99) and one CLI request on the CLI workloads (p99 is then the
  slowest request).

Failures are counted, not reported as a metric: ``attempted`` and
``failed`` in the result line give the failed ratio.  A request fails
when it exits non-zero or its payload, timings removed, does not hash
to the digest in ``digests.json``.  A query fails when its answer
disagrees with the reference enumerator on the checked sample of the
first pass (checked after the timed passes) or with the same query's
answer in the run's first pass.

With ``--trace 1`` a run alternates untraced passes with passes under
the span wrappers of ``spans.py`` (and, for the CLI workloads, a pass
under ``tracemalloc``; each request runs in all three back to back) and
prints the per-layer metrics: self time and calls of every wrapped
function, the counts named in ``spans.COUNTERS``, the traced peak, and
``trace.wall_s`` (a traced pass), ``trace.overhead_s`` (traced minus
untraced pass wall, medians over passes) and ``trace.unaccounted_s``
(traced wall minus process start-up minus all self times).
"""

from __future__ import annotations

import argparse
import array
import hashlib
import json
import os
import pickle
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"
PY = sys.executable

WORKLOADS = ("enum-cube", "oracle-query", "verify-sweep")
# set-up samples: a first import that fills the bytecode cache and is not
# counted, then this many more before the first pass and after every round
# of passes, so that the median spans the run
SETUP_SAMPLES = 3
# queries of the oracle stream per segment, the unit whose fastest pass is
# kept: a few tens of milliseconds, short against the machine's slow spells
# and long enough that the pass chosen does not hinge on single queries
SEGMENT = 1000
# reference checks of the query stream, per curve
CHECKED_TUPLES = 100
CHECKED_NABLA = 10

END_TO_END = {
    "setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "cells_per_s": "1/s",
    "queries_per_s": "1/s", "query_p50_us": "us", "query_p99_us": "us",
}


def per_layer_units() -> dict[str, str]:
    units = {}
    for name in spans.SPAN_NAMES:
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
    for name in spans.COUNTERS:
        units[name] = "count"
    units[spans.PEAK_COUNTER] = "MB"
    units["oracle.repeat_share"] = "ratio"
    units["cli.output_bytes"] = "bytes"
    units["trace.wall_s"] = "s"
    units["trace.overhead_s"] = "s"
    units["trace.unaccounted_s"] = "s"
    return units


# ---------------------------------------------------------------------------
# child processes

def child_env() -> dict[str, str]:
    """The environment of every child: the program from ./src, serial sweeps."""
    env = {k: v for k, v in os.environ.items()
           if not k.startswith(("PYTHON", "WSGAP_"))}
    env["PYTHONPATH"] = str(SRC)
    env["PYTHONHASHSEED"] = "0"
    return env


class Launcher:
    """Client of ``spawner.py``, which starts, waits for and times each child."""

    def __enter__(self) -> "Launcher":
        self.proc = subprocess.Popen([PY, str(HERE / "spawner.py")], stdin=subprocess.PIPE,
                                     stdout=subprocess.PIPE, text=True)
        return self

    def __exit__(self, *exc) -> None:
        self.proc.stdin.close()
        self.proc.wait(timeout=60)

    def run(self, argv: list[str], out: Path, err: Path) -> tuple[float, int, float]:
        """Run one child to completion: (wall seconds, exit code, max RSS in MB)."""
        request = {"argv": argv, "env": child_env(), "out": str(out), "err": str(err)}
        self.proc.stdin.write(json.dumps(request) + "\n")
        self.proc.stdin.flush()
        line = self.proc.stdout.readline()
        if not line:
            raise RuntimeError("the spawner process exited")
        reply = json.loads(line)
        return reply["wall_s"], reply["code"], reply["rss_mb"]


def report_child_failure(what: str, code: int, err: Path) -> None:
    tail = err.read_text(errors="replace").strip().splitlines()[-5:]
    print(f"perfbench: {what} exited with {code}", *tail, sep="\n  ", file=sys.stderr)


def time_imports(launch: Launcher, count: int) -> list[float]:
    """Wall times of ``count`` fresh processes that import ``wsgap.cli`` and exit."""
    walls = []
    for _ in range(count):
        wall, code, _ = launch.run([PY, "-c", "import wsgap.cli"],
                                   WORK / "setup.out", WORK / "setup.err")
        if code != 0:
            report_child_failure("setup import", code, WORK / "setup.err")
            raise SystemExit(2)
        walls.append(wall)
    return walls


# ---------------------------------------------------------------------------
# passes

def load_digests() -> dict[str, str]:
    return json.loads((HERE / "digests.json").read_text())


def cli_round(launch: Launcher, requests: list[str], modes: list[str],
              digests: dict[str, str]) -> dict[str, dict]:
    """One pass over CLI requests per mode: plain, spans or memory.

    Each request runs in every mode back to back, so that its traced and
    untraced runs meet the same machine load.  Before its spans run, a
    bare ``import wsgap.cli`` is timed as that request's process start-up.
    """
    passes = {mode: {"latency": [], "rss": 0.0, "failed": 0, "attempted": len(requests),
                     "output_bytes": 0, "dumps": [], "startup_s": 0.0} for mode in modes}
    for i, request in enumerate(requests):
        for mode, p in passes.items():
            out, err = WORK / f"out-{mode}-{i}", WORK / f"err-{mode}-{i}"
            if mode == "plain":
                argv = [PY, "-m", "wsgap.cli", *request.split()]
            else:
                if mode == "spans":
                    p["startup_s"] += time_imports(launch, 1)[0]
                dump = WORK / f"spans-{mode}-{i}.bin"
                p["dumps"].append(dump)
                argv = [PY, str(HERE / "child.py"), "cli", mode, str(dump), *request.split()]
            wall, code, maxrss = launch.run(argv, out, err)
            p["latency"].append(wall)
            p["rss"] = max(p["rss"], maxrss)
            data = out.read_bytes()
            p["output_bytes"] += len(data)
            if code != 0:
                report_child_failure(request, code, err)
                p["failed"] += 1
            elif inputs.payload_digest(inputs.request_format(request), data) != digests[request]:
                print(f"perfbench: payload digest mismatch: {request}", file=sys.stderr)
                p["failed"] += 1
    for p in passes.values():
        p["wall_s"] = sum(p["latency"])
    return passes


def oracle_pass(launch: Launcher, stream_file: Path, length: int, traced: bool) -> dict:
    out, err, answers = WORK / "oracle.out", WORK / "oracle.err", WORK / "answers.json"
    latency, dump = WORK / "latency.bin", WORK / "spans-oracle.bin"
    argv = [PY, str(HERE / "child.py"), "oracle", str(stream_file), str(answers),
            str(latency), str(dump) if traced else "-"]
    _, code, maxrss = launch.run(argv, out, err)
    if code != 0:
        report_child_failure("oracle child", code, err)
        return {"failed_child": True, "rss": maxrss, "attempted": length}
    lat = array.array("d", latency.read_bytes())
    return {"answers": json.loads(answers.read_text()), "latency": lat, "wall_s": sum(lat),
            "rss": maxrss, "attempted": length, "dumps": [dump] if traced else []}


def check_oracle_answers(seed: int, stream: list, answers: list) -> tuple[int, int]:
    """Check a seeded sample of answers against the reference enumerator.

    For ``CHECKED_TUPLES`` distinct tuples per curve, drawn by stream
    position (so hot tuples are likelier), every answer on that tuple is
    compared with ``local_absolute_maximals``: its componentwise maximum,
    membership as that maximum equalling the tuple, and dim as the number
    of distinct first coordinates.  ``CHECKED_NABLA`` of the
    ``nabla_J_empty`` answers per curve are compared with the exhaustive
    ``method="search"``.  Returns (answers checked, mismatches).
    """
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    from wsgap import oracle
    from child import curve

    curves = [curve(*spec) for spec in inputs.ORACLE_CURVES]
    rng = random.Random(f"check-{seed}")
    by_key: dict[tuple, list[int]] = {}
    for k, (c, _, beta, _) in enumerate(stream):
        by_key.setdefault((c, beta), []).append(k)
    positions = list(range(len(stream)))
    rng.shuffle(positions)
    checked, bad = 0, 0
    for c, p in enumerate(curves):
        keys, nablas = [], 0
        for k in positions:
            if stream[k][0] == c and (c, stream[k][2]) not in keys:
                keys.append((c, stream[k][2]))
                if len(keys) == CHECKED_TUPLES:
                    break
        for key in keys:
            beta = key[1]
            gammas = oracle.local_absolute_maximals(p, beta).gamma_hat_beta
            pcm = [max(g[j] for g in gammas) for j in range(p.m)] if gammas else None
            expect = {0: pcm == list(beta), 1: len({g[0] for g in gammas}), 2: pcm}
            for k in by_key[key]:
                op, J = stream[k][1], stream[k][3]
                if op == 3:
                    if nablas >= CHECKED_NABLA:
                        continue
                    nablas += 1
                    want = oracle.nabla_J_empty(p, beta, J, method="search")
                else:
                    want = expect[op]
                checked += 1
                if answers[k] != want:
                    bad += 1
                    print(f"perfbench: {inputs.OPS[op]} mismatch on curve {c} at {beta}"
                          f" (J={J}): got {answers[k]}, reference {want}", file=sys.stderr)
    return checked, bad


def fold_spans(dumps: list[Path]) -> tuple[dict, dict]:
    """Summed (self time, calls) per span name, and counters, over dumps."""
    times: dict[str, list] = {name: [0.0, 0] for name in spans.SPAN_NAMES}
    counters: dict[str, float] = {}
    for dump in dumps:
        header, cols = spans.load(str(dump))
        for name, (self_s, calls) in spans.self_times(header["names"], cols).items():
            times[name][0] += self_s
            times[name][1] += calls
        for key, value in header["counters"].items():
            if key == spans.PEAK_COUNTER:
                counters[key] = max(counters.get(key, 0.0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    return times, counters


def fastest_segments(passes: list, size: int) -> list[float]:
    """The latencies of each run of ``size`` items taken from the pass that
    ran it in the least total time.

    Every pass runs the same items in the same order from the same cold
    start, so item ``k`` is the same work in each pass; what differs is
    the machine around it.  Keeping each segment's fastest pass drops the
    stretches in which other tenants slowed the machine, as the minimum
    over repeats does for a single timing, while every latency kept is
    one that was measured.
    """
    out: list[float] = []
    for i in range(0, len(passes[0]), size):
        out.extend(min((p[i:i + size] for p in passes), key=sum))
    return out


# ---------------------------------------------------------------------------
# workloads

class Workload:
    """Inputs of one workload and how a pass over them runs."""

    def __init__(self, name: str, seed: int, launch: Launcher) -> None:
        self.seed, self.launch = seed, launch
        self.stream = None
        if name == "enum-cube":
            self.requests = inputs.cube_request_order(seed)
            self.cells = sum(inputs.request_cells(r) for r in self.requests)
        elif name == "verify-sweep":
            self.requests = list(inputs.VERIFY_SWEEP)
            self.cells = inputs.verify_sweep_cells()
        else:
            self.requests = None
            self.stream = inputs.query_stream(seed, inputs.STREAM_LENGTH)
            self.cells = len(self.stream)
            self.stream_file = WORK / "stream.pickle"
            self.stream_file.write_bytes(pickle.dumps(self.stream))
        self.digests = load_digests()
        self.first_answers = None
        self.answers_checked = 0

    def run_round(self, modes: list[str]) -> dict[str, dict]:
        """One pass in each mode, with its spans folded and answers checked."""
        if self.stream is None:
            passes = cli_round(self.launch, self.requests, modes, self.digests)
        else:
            passes = {mode: self._oracle_pass(traced=mode == "spans") for mode in modes}
        for p in passes.values():
            if p.get("dumps"):
                p["times"], p["counters"] = fold_spans(p.pop("dumps"))
        return passes

    def _oracle_pass(self, traced: bool) -> dict:
        result = oracle_pass(self.launch, self.stream_file, len(self.stream), traced)
        if result.get("failed_child"):
            result["failed"] = len(self.stream)
            return result
        answers = result.pop("answers")
        if self.first_answers is None:
            self.first_answers = answers
            failed = 0
        else:
            failed = sum(a != b for a, b in zip(answers, self.first_answers))
        result["failed"] = failed
        return result

    def check_answers(self) -> int:
        """Mismatches of the first pass's answers with the reference, checked
        after the timed passes so that the check does not use up their time."""
        if self.first_answers is None:
            return 0
        self.answers_checked, bad = check_oracle_answers(
            self.seed, self.stream, self.first_answers)
        return bad

    def end_to_end(self, passes: list[dict]) -> dict[str, float]:
        """Medians over passes; for CLI requests, each request's mean over
        passes.  Query time, rate and p50 come from each segment's fastest
        pass."""
        rss = statistics.median(p["rss"] for p in passes)
        if self.stream is None:
            lat = sorted(statistics.fmean(ws) for ws in zip(*(p["latency"] for p in passes)))
            wall, p99 = sum(lat), inputs.nearest_rank(lat, 99)
        else:
            lat = sorted(fastest_segments([p["latency"] for p in passes], SEGMENT))
            wall = sum(lat)
            p99 = statistics.median(inputs.nearest_rank(sorted(p["latency"]), 99)
                                    for p in passes)
        return {"wall_s": wall, "peak_rss_mb": rss, "cells_per_s": self.cells / wall,
                "queries_per_s": len(lat) / wall,
                "query_p50_us": inputs.nearest_rank(lat, 50) * 1e6,
                "query_p99_us": p99 * 1e6}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """Set up, then repeat passes until the next one would end after ``seconds``."""
    WORK.mkdir(parents=True, exist_ok=True)
    with Launcher() as launch:
        time_imports(launch, 1)
        setup = time_imports(launch, SETUP_SAMPLES)
        work = Workload(name, seed, launch)
        modes = ["plain"]
        if trace:
            modes += ["spans"] if work.stream is not None else ["spans", "memory"]
        passes: dict[str, list] = {mode: [] for mode in modes}
        attempted = failed = 0
        begin = time.perf_counter()
        round_s = 0.0
        while not passes["plain"] or time.perf_counter() - begin + round_s <= seconds:
            t0 = time.perf_counter()
            for mode, p in work.run_round(modes).items():
                passes[mode].append(p)
                attempted += p["attempted"]
                failed += p["failed"]
            setup += time_imports(launch, SETUP_SAMPLES)
            round_s = time.perf_counter() - t0
    failed += work.check_answers()
    result = {"attempted": attempted, "failed": failed, "metrics": {},
              "answers_checked": work.answers_checked}
    if any(p.get("failed_child") for ps in passes.values() for p in ps):
        return result
    if not trace:
        metrics = work.end_to_end(passes["plain"])
        metrics["setup_s"] = statistics.median(setup)
        units = END_TO_END
    else:
        metrics = layer_metrics(work, passes)
        units = per_layer_units()
    result["metrics"] = {k: {"value": metrics[k], "unit": units[k]} for k in units}
    return result


def layer_metrics(work: Workload, passes: dict) -> dict[str, float]:
    """Medians over the traced passes of every per-layer metric."""
    rows = []
    for p in passes["spans"]:
        times, counters = p["times"], p["counters"]
        row = {name: counters.get(name, 0) for name in spans.COUNTERS}
        for name, (self_s, calls) in times.items():
            row[f"{name}.self_s"] = self_s
            row[f"{name}.calls"] = calls
        total_self = sum(self_s for self_s, _ in times.values())
        row["trace.wall_s"] = p["wall_s"]
        row["trace.unaccounted_s"] = p["wall_s"] - p.get("startup_s", 0.0) - total_self
        row["cli.output_bytes"] = p.get("output_bytes", 0)
        rows.append(row)
    metrics = {k: statistics.median(r[k] for r in rows) for k in rows[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(
        p["wall_s"] for p in passes["plain"])
    peaks = [p["counters"].get(spans.PEAK_COUNTER, 0.0) for p in passes.get("memory", ())]
    metrics[spans.PEAK_COUNTER] = statistics.median(peaks) if peaks else 0.0
    metrics["oracle.repeat_share"] = inputs.repeat_share(work.stream) if work.stream else 0.0
    return metrics


# ---------------------------------------------------------------------------
# run record

def run_record(seed: int) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    sources = sorted((SRC / "wsgap").glob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for path in sources:
        data = path.read_bytes()
        digest.update(path.name.encode() + b"\0" + data)
        lines += data.count(b"\n")
    mem_available_kb = None
    try:
        for line in Path("/proc/meminfo").read_text().splitlines():
            if line.startswith("MemAvailable:"):
                mem_available_kb = int(line.split()[1])
    except OSError:
        pass
    numpy_version = subprocess.run(
        [PY, "-c", "import numpy; print(numpy.__version__)"], env=child_env(),
        capture_output=True, text=True, timeout=60).stdout.strip()
    return {"commit": commit, "src_sha256": digest.hexdigest(),
            "python": platform.python_version(), "numpy": numpy_version,
            "nproc": os.cpu_count(), "mem_available_kb": mem_available_kb,
            "seed": seed, "src_lines": lines}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "wsgap" / "cli.py").is_file():
        print(f"perfbench: no program sources at {SRC}; run from the repository root",
              file=sys.stderr)
        return 2
    record = run_record(args.seed)
    if args.workload == "all":
        return run_all(args, record)
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"record": dict(record, workload=args.workload, trace=args.trace,
                                     answers_checked=result["answers_checked"])}))
    correct = result["failed"] == 0
    print(json.dumps({"correct": correct, "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": result["metrics"]}))
    return 0 if correct else 1


def run_all(args, record: dict) -> int:
    print(json.dumps({"record": record}))
    status = 0
    for name in WORKLOADS:
        result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        ratio = result["failed"] / result["attempted"]
        print(f"{name}: failed_ratio = {ratio:.6g} ({result['failed']}/{result['attempted']})")
        for key, m in result["metrics"].items():
            print(f"{name}: {key} = {m['value']:.6g} {m['unit']}")
        if result["failed"]:
            status = 1
    return status


if __name__ == "__main__":
    sys.exit(main())
