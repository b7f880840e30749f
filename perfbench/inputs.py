"""Workload inputs and output normalisation for the benchmark.

Everything here is a pure function of its arguments: the same seed
gives the same requests and the same query stream.  The program never
sees the seed, only the generated inputs.
"""

from __future__ import annotations

import hashlib
import math
import random
import re

# One fresh ``python -m wsgap.cli`` process per request.  Hermitian and
# norm-trace curves from the ladder, all three output formats, every gap
# and pure-gap route; q=32 m=2 has a small cube but 10 MB of JSON, so
# tuple extraction and emission dominate it.
ENUM_CUBE = (
    "gaps --preset hermitian --q 8 --m 4 --format text",
    "pure-gaps --preset hermitian --q 8 --m 4 --format json",
    "gaps --preset hermitian --q 7 --m 4 --format csv",
    "gaps --preset hermitian --q 11 --m 3 --format json",
    "gaps --preset norm-trace --ell 2 --r 4 --m 3 --format csv",
    "pure-gaps --preset norm-trace --ell 3 --r 3 --m 3 --format text",
    "gaps --preset hermitian --q 32 --m 2 --format json",
    "sigma --preset hermitian --q 32 --format json",
    "gaps --method union-nabla --preset hermitian --q 5 --m 4 --format json",
    "pure-gaps --method intersection --preset hermitian --q 5 --m 4 --format json",
)

# The default bounds, trials and seed of ``wsgap verify``.
VERIFY_SWEEP = ("verify --what all --format json",)

# Curves of the query stream: (preset, preset arguments, m).
ORACLE_CURVES = (
    ("hermitian", (8,), 3),
    ("hermitian", (16,), 2),
    ("hermitian", (5,), 4),
    ("norm-trace", (2, 4), 4),
)
OPS = ("is_member", "dim_L", "per_coord_max", "nabla_J_empty")
OP_WEIGHTS = (50, 25, 15, 10)
HOT_SET_SIZE = 500
HOT_SHARE = 0.5
STREAM_LENGTH = 200_000


def curve_abm(preset: str, args: tuple[int, ...], m: int) -> tuple[int, int, int]:
    """(a, b, m) of a preset curve, without importing the program."""
    if preset == "hermitian":
        (q,) = args
        return q, q + 1, m
    ell, r = args
    return ell ** (r - 1), (ell ** r - 1) // (ell - 1), m


def genus(a: int, b: int) -> int:
    return (a - 1) * (b - 1) // 2


def simplex_cells(g: int, m: int) -> int:
    """Cells of the simplex sum(beta) <= 2g-1 in [0, 2g-1]^m."""
    return math.comb(2 * g - 1 + m, m)


def verify_sweep_cells(max_a: int = 5, max_b: int = 9, max_m: int = 4) -> int:
    """Simplex cells over the parameter cells of the default verify sweep."""
    return sum(simplex_cells(genus(a, b), m)
               for a in range(2, max_a + 1) for b in range(2, max_b + 1)
               if math.gcd(a, b) == 1
               for m in range(2, min(max_m, a + 1) + 1))


def cube_request_order(seed: int) -> list[str]:
    """The enum-cube requests in a seeded order."""
    order = list(ENUM_CUBE)
    random.Random(seed).shuffle(order)
    return order


def request_cells(request: str) -> int:
    """Simplex cells C(2g-1+m, m) the answer to a CLI request covers."""
    words = request.split()
    opts = {k: v for k, v in zip(words, words[1:]) if k.startswith("--")}
    m = int(opts.get("--m", 2))
    if opts["--preset"] == "hermitian":
        a, b, m = curve_abm("hermitian", (int(opts["--q"]),), m)
    else:
        a, b, m = curve_abm("norm-trace", (int(opts["--ell"]), int(opts["--r"])), m)
    return simplex_cells(genus(a, b), m)


def query_stream(seed: int, length: int = STREAM_LENGTH) -> list[tuple]:
    """Seeded oracle queries: (curve index, op index, tuple, J or None).

    Tuples are uniform in [-b-2, 2g+b]^m; half of them come from a
    fixed hot set of ``HOT_SET_SIZE`` tuples per curve, so the stream
    repeats tuples at a known rate.  ``J`` is a random proper nonempty
    subset of the 1-based point indices, for ``nabla_J_empty`` only.
    """
    rng = random.Random(seed)
    shapes = []
    for preset, args, m in ORACLE_CURVES:
        a, b, m = curve_abm(preset, args, m)
        lo, hi = -b - 2, 2 * genus(a, b) + b
        hot = [tuple(rng.randint(lo, hi) for _ in range(m)) for _ in range(HOT_SET_SIZE)]
        shapes.append((lo, hi, m, hot))
    ops = rng.choices(range(len(OPS)), weights=OP_WEIGHTS, k=length)
    stream = []
    for op in ops:
        c = rng.randrange(len(ORACLE_CURVES))
        lo, hi, m, hot = shapes[c]
        if rng.random() < HOT_SHARE:
            beta = rng.choice(hot)
        else:
            beta = tuple(rng.randint(lo, hi) for _ in range(m))
        J = None
        if OPS[op] == "nabla_J_empty":
            J = tuple(sorted(rng.sample(range(1, m + 1), rng.randint(1, m - 1))))
        stream.append((c, op, beta, J))
    return stream


def nearest_rank(sorted_values: list[float], percent: int) -> float:
    """The nearest-rank ``percent`` percentile of an ascending list."""
    return sorted_values[min(len(sorted_values) - 1, percent * len(sorted_values) // 100)]


def repeat_share(stream) -> float:
    """Share of queries whose (curve, tuple) appeared earlier in the stream."""
    seen = set()
    repeats = 0
    for c, _, beta, _ in stream:
        key = (c, beta)
        if key in seen:
            repeats += 1
        else:
            seen.add(key)
    return repeats / len(stream)


# The line of CLI output that carries the envelope's ``timing_ms``, by format
_TIMING_LINE = {
    "json": re.compile(rb'^  "timing_ms": '),
    "text": re.compile(rb"^# timing_ms: "),
    "csv": re.compile(rb"^meta,timing_ms,"),
}
# ``verify`` also times each check in its ``ms`` field, inside the payload
_CHECK_MS_LINE = re.compile(rb'^        "ms": [-+.0-9eE]+,$')


def payload_digest(fmt: str, data: bytes) -> str:
    """sha256 of a CLI output with the lines that carry timings removed.

    Every other byte is hashed as printed, so the digest pins the
    payload byte for byte.  Raises ValueError when the output does not
    have exactly one envelope timing line.
    """
    lines = data.splitlines(keepends=True)
    kept = [ln for ln in lines if not _TIMING_LINE[fmt].match(ln)]
    if len(kept) != len(lines) - 1:
        raise ValueError(f"expected exactly one timing line in {fmt} output")
    if fmt == "json":
        kept = [ln for ln in kept if not _CHECK_MS_LINE.match(ln.rstrip(b"\n"))]
    return hashlib.sha256(b"".join(kept)).hexdigest()


def request_format(request: str) -> str:
    words = request.split()
    return words[words.index("--format") + 1]
