"""Child process of the benchmark: one traced CLI call, or one query stream.

    python child.py cli spans|memory SPANS_OUT ARG...
        install the span wrappers, run ``wsgap.cli.main(ARG...)`` with
        stdout as the CLI prints it, write the spans to SPANS_OUT and
        exit with the CLI's exit code.  ``memory`` also runs the call
        under ``tracemalloc`` for the peak inside ``gapsets`` spans.

    python child.py oracle STREAM ANSWERS_OUT LATENCY_OUT SPANS_OUT|-
        load the query stream pickled in STREAM (``inputs.query_stream``),
        then time each query through the ``wsgap.oracle`` module
        attributes, from a cold process with no warm-up.  Writes every
        answer as JSON to ANSWERS_OUT and every latency in seconds, in
        stream order, to LATENCY_OUT as native doubles; with a SPANS_OUT
        other than ``-`` the queries are traced and the spans written
        there.

The program is imported from ``PYTHONPATH``; this file imports nothing
from it before the wrappers are installed.
"""

from __future__ import annotations

import array
import json
import pickle
import sys
import time

import inputs
import spans


def run_cli(mode: str, spans_out: str, argv: list[str]) -> int:
    rec = spans.install(trace_memory=mode == "memory")
    import wsgap.cli

    try:
        return wsgap.cli.main(argv)
    finally:
        sys.stdout.flush()
        rec.dump(spans_out)


def curve(preset: str, args: tuple[int, ...], m: int):
    from wsgap.core import hermitian_params, norm_trace_params

    if preset == "hermitian":
        return hermitian_params(*args, m)
    return norm_trace_params(*args, m)


def run_oracle(stream_in: str, answers_out: str, latency_out: str, spans_out: str) -> int:
    rec = spans.install() if spans_out != "-" else None
    import wsgap.oracle as oracle

    with open(stream_in, "rb") as fh:
        stream = pickle.load(fh)
    curves = [curve(*spec) for spec in inputs.ORACLE_CURVES]
    answers = [None] * len(stream)
    latency = array.array("d", bytes(8 * len(stream)))
    clock = time.perf_counter
    for k, (c, op, beta, J) in enumerate(stream):
        p = curves[c]
        if rec is not None:
            rec.request_id = k
        t0 = clock()
        if op == 0:
            ans = oracle.is_member(p, beta)
        elif op == 1:
            ans = oracle.dim_L(p, beta)
        elif op == 2:
            ans = oracle.per_coord_max(p, beta)
        else:
            ans = oracle.nabla_J_empty(p, beta, J, method="profile")
        latency[k] = clock() - t0
        answers[k] = ans
    with open(latency_out, "wb") as fh:
        latency.tofile(fh)
    with open(answers_out, "w") as fh:
        json.dump(answers, fh)
    if rec is not None:
        rec.dump(spans_out)
    return 0


if __name__ == "__main__":
    mode = sys.argv[1]
    if mode == "cli":
        sys.exit(run_cli(sys.argv[2], sys.argv[3], sys.argv[4:]))
    if mode == "oracle":
        sys.exit(run_oracle(*sys.argv[2:6]))
    sys.exit(f"unknown mode {mode!r}")
