"""Command-line front end.

Subcommands mirror the library: maximals, gaps, pure-gaps, member, dim,
sigma, superset and verify.  Curve parameters come either from --a/--b
or from a preset (--preset norm-trace --ell L --r R, or --preset
hermitian --q Q).  Output formats json, csv and text carry the same
information inside a versioned envelope; payloads are sorted so that
identical inputs print identical payload bytes (the timing field in the
envelope is the only varying part).

Exit codes: 0 success, 1 domain error (message on standard error),
2 usage error.

``gapsets`` and ``verify`` are imported by the subcommands that use them,
and ``json`` and ``csv`` by the emitters that use them; the package
does not import ``dataclasses``.  Payload tuple lists are
``core.TupleRows``, except those of ``gaps --method complement`` and
``pure-gaps --method profile`` at m >= 2: there the gap kernel's plan is
built and checked whole, with its exact counts, and the payload holds a
``gapsets.RowStream`` that walks the rows as the emitter prints them,
so every error is raised before the first byte and no row is kept.
``verify``'s payload holds its ``verify.CheckResult``s, which each
emitter renders from their fields.
The envelope is streamed to standard output row by row, so no copy of
the whole output is held (JSON writes the encoder's chunks in batches);
``timing_ms``, which every format prints after the payload, is read as
it is written.  A reader that closes the pipe early leaves exit status 0.

``run``, the entry point of the ``wsgap`` script and of ``python -m
wsgap.cli``, exits without interpreter teardown once the output is
flushed: freeing the caches of a large request cost more than some
requests compute.  ``main`` returns the exit code, for callers in the
same process.
"""

from __future__ import annotations

import argparse
import os
import sys
import time

from . import __version__
from . import maximals as mx
from . import oracle
from .core import (
    Box,
    CurveParams,
    TupleRows,
    WsgapError,
    check_tuple,
    curve_params,
    hermitian_params,
    norm_trace_params,
)

SCHEMA = "wsgap/1"
BOX_CELL_LIMIT = 10**8

ENVELOPE_SCHEMA = {
    "type": "object",
    "required": ["schema", "tool_version", "command", "params", "payload", "timing_ms"],
    "properties": {
        "schema": {"const": SCHEMA},
        "tool_version": {"type": "string"},
        "command": {"type": "string"},
        "params": {
            "type": "object",
            "required": ["a", "b", "m", "genus"],
            "properties": {
                "a": {"type": ["integer", "null"]},
                "b": {"type": ["integer", "null"]},
                "m": {"type": ["integer", "null"]},
                "genus": {"type": ["integer", "null"]},
                "field_size": {"type": ["integer", "null"]},
            },
        },
        "payload": {"type": "object"},
        "timing_ms": {"type": "number"},
    },
}


def _trials(text: str) -> int:
    """``--trials``: an integer of at least 1, since no trial checks nothing."""
    try:
        value = int(text)
    except ValueError:
        # argparse's own message for a type=int argument
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wsgap",
        description="Weierstrass gaps and pure gaps at several points on "
                    "curves f(y) = g(x) with coprime degrees",
    )
    parser.add_argument("--version", action="version", version=f"wsgap {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)
    grp = common.add_argument_group("curve parameters")
    grp.add_argument("--preset", choices=["norm-trace", "hermitian"],
                     help="derive a and b from a named curve family")
    grp.add_argument("--ell", type=int, help="prime power for --preset norm-trace")
    grp.add_argument("--r", type=int, help="extension degree for --preset norm-trace")
    grp.add_argument("--q", type=int, help="prime power for --preset hermitian")
    grp.add_argument("--a", type=int, help="degree of f (generic curve)")
    grp.add_argument("--b", type=int, help="degree of g (generic curve)")
    grp.add_argument("--m", type=int, default=2, help="number of points (default 2)")
    grp.add_argument("--field-size", type=int, default=None,
                     help="optional field size metadata for generic curves")
    out = common.add_argument_group("output")
    out.add_argument("--format", choices=["json", "csv", "text"], default="text")
    out.add_argument("--force", action="store_true",
                     help="allow sweeps above the cell-count guard")

    p = sub.add_parser("maximals", parents=[common],
                       help="absolute or relative maximal elements")
    p.add_argument("--kind", choices=["absolute", "relative"], required=True)
    p.add_argument("--scope", choices=["region", "nonneg", "positive", "box"],
                   default="region")
    p.add_argument("--box-positive", action="store_true",
                   help="shorthand for --scope positive")
    p.add_argument("--lo", type=str, help="box lower corner, e.g. 0,0,0")
    p.add_argument("--hi", type=str, help="box upper corner, e.g. 11,11,11")
    p.add_argument("--include-zero-family", action="store_true",
                   help="add the zero-coordinate translate family in nonneg scope")

    p = sub.add_parser("gaps", parents=[common], help="the Weierstrass gap set")
    p.add_argument("--method", choices=["complement", "union-nabla", "explicit-s"],
                   default="complement")

    p = sub.add_parser("pure-gaps", parents=[common], help="the pure gap set")
    p.add_argument("--method", choices=["profile", "intersection"], default="profile")

    p = sub.add_parser("member", parents=[common], help="semigroup membership")
    p.add_argument("--tuple", required=True, help="comma-separated coordinates")

    p = sub.add_parser("dim", parents=[common],
                       help="dimension of the space attached to a tuple")
    p.add_argument("--tuple", required=True, help="comma-separated coordinates")

    sub.add_parser("sigma", parents=[common],
                   help="two-point gap pairing, its permutation and inversions")

    sub.add_parser("superset", parents=[common],
                   help="the candidate index sets containing all pure gaps")

    p = sub.add_parser("verify", parents=[common],
                       help="fixture replay and property sweeps")
    p.add_argument("--what", choices=["fixtures", "sweep", "all"], default="all")
    p.add_argument("--max-a", type=int, default=5)
    p.add_argument("--max-b", type=int, default=9)
    p.add_argument("--max-m", type=int, default=4)
    p.add_argument("--trials", type=_trials, default=200,
                   help="random trials per parameter cell in the oracle battery")
    p.add_argument("--seed", type=int, default=None,
                   help="seed of the oracle battery (default: the fixed verify seed)")

    return parser


def _resolve_params(args: argparse.Namespace) -> CurveParams:
    if args.preset == "norm-trace":
        if args.ell is None or args.r is None:
            raise WsgapError("--preset norm-trace needs --ell and --r")
        return norm_trace_params(args.ell, args.r, args.m)
    if args.preset == "hermitian":
        if args.q is None:
            raise WsgapError("--preset hermitian needs --q")
        return hermitian_params(args.q, args.m)
    if args.a is None or args.b is None:
        raise WsgapError("give --a and --b, or choose a --preset")
    return curve_params(args.a, args.b, args.m, field_size=args.field_size)


def _parse_tuple(params: CurveParams, text: str) -> tuple[int, ...]:
    try:
        values = tuple(int(part) for part in text.split(","))
    except ValueError as exc:
        raise WsgapError(f"could not parse tuple {text!r}") from exc
    return check_tuple(params, values)


def _guard_cells(cells: int, force: bool) -> None:
    if cells > BOX_CELL_LIMIT and not force:
        raise WsgapError(
            f"sweep of {cells} cells exceeds the {BOX_CELL_LIMIT} guard; "
            f"pass --force to run it anyway"
        )


def _guard_params(params: CurveParams, force: bool) -> None:
    _guard_cells((2 * params.genus) ** params.m, force)


# ---------------------------------------------------------------------------
# payload builders

def _tuples_payload(key: str, rows) -> dict:
    # rows: a TupleRows, or the RowStream of a streamed gap set
    return {key: rows, "count": len(rows)}


def _run_maximals(params: CurveParams, args: argparse.Namespace) -> dict:
    ms = (mx.absolute_maximals_region(params) if args.kind == "absolute"
          else mx.relative_maximals_region(params))
    scope = "positive" if args.box_positive else args.scope
    if scope == "region":
        tuples = ms.region_reps
    elif scope == "nonneg":
        if args.kind == "relative":
            tuples = mx.lambda_nonneg(params, args.include_zero_family)
        else:
            tuples = mx.expand_nonneg(ms)
    elif scope == "positive":
        tuples = mx.expand_positive(ms)
    else:
        if args.lo is None or args.hi is None:
            raise WsgapError("--scope box needs --lo and --hi")
        box = Box(lo=_parse_tuple(params, args.lo), hi=_parse_tuple(params, args.hi))
        _guard_cells(box.cell_count(), args.force)
        tuples = mx.expand_in_box(ms, box)
    payload = _tuples_payload("tuples", TupleRows.of(tuples))
    payload.update({"kind": args.kind, "scope": scope})
    return payload


def _run_gaps(params: CurveParams, args: argparse.Namespace) -> dict:
    from . import gapsets as gs

    _guard_params(params, args.force)
    method = args.method.replace("-", "_")
    if method == "complement" and params.m > 1:
        rows, stats = gs.stream_rows(params)
    else:
        report = gs.gaps(params, method=method)
        rows, stats = report.gap_rows, report.stats
    payload = _tuples_payload("gaps", rows)
    payload.update({"method": method, "stats": stats})
    return payload


def _run_pure_gaps(params: CurveParams, args: argparse.Namespace) -> dict:
    from . import gapsets as gs

    _guard_params(params, args.force)
    if args.method == "profile" and params.m > 1:
        rows, stats = gs.stream_rows(params, pure=True)
    else:
        report = gs.pure_gaps(params, method=args.method)
        rows, stats = report.pure_rows, report.stats
    payload = _tuples_payload("pure_gaps", rows)
    payload.update({"method": args.method, "stats": stats})
    return payload


def _run_member(params: CurveParams, args: argparse.Namespace) -> dict:
    t = _parse_tuple(params, args.tuple)
    return {"tuple": list(t), "member": oracle.is_member(params, t)}


def _run_dim(params: CurveParams, args: argparse.Namespace) -> dict:
    t = _parse_tuple(params, args.tuple)
    return {"tuple": list(t), "dim": oracle.dim_L(params, t)}


def _run_sigma(params: CurveParams, args: argparse.Namespace) -> dict:
    from . import gapsets as gs

    _guard_params(params, args.force)
    table = gs.sigma_pair(params)
    return {
        "gaps_q1": list(table.gaps_q1),
        "gaps_q2": list(table.gaps_q2),
        "sigma": list(table.sigma),
        "gamma_pairs": TupleRows.of(table.gamma_pairs),
        "inversions": table.inversions,
        "genus": params.genus,
        "pure_gap_count": len(table.inversions),
    }


def _run_superset(params: CurveParams, args: argparse.Namespace) -> dict:
    from . import gapsets as gs

    _guard_cells(2 * params.genus, args.force)
    a_star, a_set = gs.candidate_superset(params)
    return {"a_star": list(a_star), "a": list(a_set)}


def _run_verify(args: argparse.Namespace) -> dict:
    from . import verify

    if args.what in ("sweep", "all"):
        for params in verify.sweep_cells(args.max_a, args.max_b, args.max_m):
            _guard_params(params, args.force)
    seed = verify.DEFAULT_SEED if args.seed is None else args.seed
    report = verify.ConformanceReport()
    if args.what in ("fixtures", "all"):
        report.extend(verify.run_fixtures())
    if args.what in ("sweep", "all"):
        report.extend(verify.run_property_sweep(args.max_a, args.max_b, args.max_m))
        report.extend(verify.run_oracle_invariants(args.max_a, args.max_b, args.max_m,
                                                   trials=args.trials, seed=seed))
    report = report.sorted()
    # ConformanceReport.to_payload's keys, with the CheckResults themselves
    # as the checks: the emitters render each from its fields
    return {"checks": report.entries, "passed": report.passed, "failed": report.failed,
            "total": len(report.entries), "ok": report.ok, "what": args.what,
            "bounds": {"max_a": args.max_a, "max_b": args.max_b, "max_m": args.max_m}}


# ---------------------------------------------------------------------------
# output formatting

def _params_echo(params: CurveParams) -> dict:
    return {"a": params.a, "b": params.b, "m": params.m,
            "genus": params.genus, "field_size": params.field_size}


_TUPLE_KEYS = ("tuples", "gaps", "pure_gaps", "gamma_pairs", "inversions")
_LIST_KEYS = ("gaps_q1", "gaps_q2", "sigma", "a_star", "a")


class _Tails(dict):
    """``template % v`` for each value v looked up, formatted once."""

    def __init__(self, template: str) -> None:
        super().__init__()
        self.template = template

    def __missing__(self, value):
        text = self[value] = self.template % value
        return text


def _render_rows(rows: TupleRows, template, sep: str = ""):
    """The tuples of ``rows`` rendered by the ``%d`` template
    ``template(len)``, one string per row.

    Each template is cut before its last ``%d``: a row fills the head
    with its prefix once and takes each tuple's tail from a per-value
    table, so a row of k tuples reads head + (sep + head).join(k tails).
    Joining the rows with ``sep`` gives the tuples one after another.
    """
    parts = {}
    for prefix, lasts in rows.rows():
        part = parts.get(len(prefix))
        if part is None:
            full = template(len(prefix) + 1)
            cut = full.rindex("%d")
            part = parts[len(prefix)] = (full[:cut], _Tails(full[cut:]))
        head = part[0] % prefix
        yield head + (sep + head).join(map(part[1].__getitem__, lasts))


def _json_tuple(n: int) -> str:
    # a tuple as json.dumps(indent=2) lays it out inside envelope["payload"]
    return "      [\n" + ",\n".join(["        %d"] * n) + "\n      ]"


def _text_tuple(n: int) -> str:
    return "(" + ", ".join(["%d"] * n) + ")\n"


def _csv_tuple(key: str):
    # rows "key,,c1;c2;...,": no field needs csv quoting
    return lambda n: f"{key},," + ";".join(["%d"] * n) + ",\n"


# a check as json.dumps(indent=2) lays out CheckResult.to_payload() inside
# envelope["payload"]["checks"]
_JSON_CHECK = ('      {\n        "detail": %s,\n        "kind": %s,\n        "ms": %r,\n'
               '        "name": %s,\n        "passed": %s\n      }')


def _json_checks(checks):
    """Each ``verify.CheckResult`` of ``checks`` rendered by ``_JSON_CHECK``."""
    from json.encoder import encode_basestring_ascii as quote

    for c in checks:
        yield _JSON_CHECK % (quote(c.detail), quote(c.kind), round(c.ms, 3), quote(c.name),
                             "true" if c.passed else "false")


def _timing_ms(envelope: dict) -> float:
    """The envelope's ``timing_ms``: a number, or a clock read now."""
    timing = envelope["timing_ms"]
    return timing() if callable(timing) else timing


# encoder chunks joined into one write
_JSON_BATCH = 1024


def _emit_json(envelope: dict, out) -> None:
    import json

    # The indenting encoder is pure Python and yields each string value as
    # one chunk, so each tuple list and the checks go in as placeholder
    # strings whose chunks are swapped for the items rendered by template,
    # and timing_ms, which follows the payload, is read when its
    # placeholder comes.  The other chunks are written in batches.
    payload = envelope["payload"]
    marks = {json.dumps("\0" + key): key for key in (*_TUPLE_KEYS, "checks") if key in payload}
    timing = json.dumps("\0timing_ms")
    chunks = json.JSONEncoder(sort_keys=True, indent=2).iterencode(
        {**envelope, "payload": {**payload, **{key: "\0" + key for key in marks.values()}},
         "timing_ms": "\0timing_ms"})
    batch: list[str] = []
    for chunk in chunks:
        if chunk == timing:
            chunk = json.dumps(_timing_ms(envelope))
        elif chunk in marks:
            out.write("".join(batch))
            batch.clear()
            key = marks[chunk]
            items = (_json_checks(payload[key]) if key == "checks"
                     else _render_rows(payload[key], _json_tuple, ",\n"))
            first = next(items, None)
            if first is None:
                out.write("[]")
                continue
            out.write("[\n" + first)
            for item in items:
                out.write(",\n" + item)
            out.write("\n    ]")
            continue
        batch.append(chunk)
        if len(batch) >= _JSON_BATCH:
            out.write("".join(batch))
            batch.clear()
    batch.append("\n")
    out.write("".join(batch))


def _scalar(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    if isinstance(value, (int, float, str)):
        return str(value)
    import json

    return json.dumps(value, sort_keys=True)


def _emit_text(envelope: dict, out) -> None:
    p = envelope["params"]
    out.write(f"# {envelope['schema']} tool_version={envelope['tool_version']}\n"
              f"# command: {envelope['command']}\n"
              f"# params: a={p['a']} b={p['b']} m={p['m']} genus={p['genus']}"
              f" field_size={p['field_size']}\n")
    payload = envelope["payload"]
    for key, value in sorted(payload.items()):
        if key in _TUPLE_KEYS:
            out.write(f"{key} ({len(value)}):\n")
            out.writelines(_render_rows(value, _text_tuple))
        elif key in _LIST_KEYS:
            out.write(f"{key}: " + " ".join(str(v) for v in value) + "\n")
        elif key == "checks":
            for chk in value:
                status = "PASS" if chk.passed else "FAIL"
                detail = f" {chk.detail}" if chk.detail else ""
                out.write(f"{status} {chk.name}{detail}\n")
        else:
            out.write(f"{key}: {_scalar(value)}\n")
    out.write(f"# timing_ms: {_timing_ms(envelope)}\n")


def _emit_csv(envelope: dict, out) -> None:
    import csv

    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["kind", "name", "tuple", "value"])
    writer.writerow(["meta", "schema", "", envelope["schema"]])
    writer.writerow(["meta", "tool_version", "", envelope["tool_version"]])
    writer.writerow(["meta", "command", "", envelope["command"]])
    for key in ("a", "b", "m", "genus", "field_size"):
        value = envelope["params"][key]
        writer.writerow(["meta", key, "", "" if value is None else value])
    payload = envelope["payload"]
    for key, value in sorted(payload.items()):
        if key in _TUPLE_KEYS:
            out.writelines(_render_rows(value, _csv_tuple(key)))
        elif key in _LIST_KEYS:
            for idx, v in enumerate(value, start=1):
                writer.writerow([key, idx, "", v])
        elif key == "checks":
            for chk in value:
                writer.writerow(["check", chk.name, "", "pass" if chk.passed else "fail"])
                if chk.detail:
                    writer.writerow(["check-detail", chk.name, "", chk.detail])
        else:
            writer.writerow([key, "", "", _scalar(value)])
    writer.writerow(["meta", "timing_ms", "", _timing_ms(envelope)])


_EMITTERS = {"json": _emit_json, "text": _emit_text, "csv": _emit_csv}


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    t0 = time.perf_counter()
    try:
        if args.command == "verify":
            params = None
            payload = _run_verify(args)
        else:
            params = _resolve_params(args)
            runner = {
                "maximals": _run_maximals,
                "gaps": _run_gaps,
                "pure-gaps": _run_pure_gaps,
                "member": _run_member,
                "dim": _run_dim,
                "sigma": _run_sigma,
                "superset": _run_superset,
            }[args.command]
            payload = runner(params, args)
    except WsgapError as exc:
        print(f"wsgap: error: {exc}", file=sys.stderr)
        return 1
    envelope = {
        "schema": SCHEMA,
        "tool_version": __version__,
        "command": args.command,
        "params": _params_echo(params) if params is not None else
                  {"a": None, "b": None, "m": None, "genus": None, "field_size": None},
        "payload": payload,
        # read as it is written, after the payload
        "timing_ms": lambda: round((time.perf_counter() - t0) * 1000, 3),
    }
    try:
        _EMITTERS[args.format](envelope, sys.stdout)
        sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed the pipe, as `wsgap gaps ... | head` does: the
        # rest was not wanted, so succeed, with fd 1 pointed at devnull to
        # keep the flush at exit silent.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    if args.command == "verify" and not payload["ok"]:
        return 1
    return 0


def run() -> None:
    """Run ``main`` on the command line, flush standard output and error,
    and end the process with ``main``'s exit code, skipping interpreter
    teardown.  An exception that escapes, such as a usage error's
    ``SystemExit(2)``, exits the usual way."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
