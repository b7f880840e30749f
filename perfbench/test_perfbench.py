"""Tests of the benchmark itself.

    python3 -m pytest perfbench

Run from the repository root.  The smoke runs use reduced inputs and
write their scratch files under pytest's temporary directory.
"""

from __future__ import annotations

import contextlib
import io
import json
import pickle
import re
import shutil
import subprocess
import sys
from array import array
from pathlib import Path

import pytest

import inputs
import run
import spans

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture
def bench_dirs(tmp_path, monkeypatch):
    monkeypatch.setattr(run, "SRC", REPO / "src")
    monkeypatch.setattr(run, "WORK", tmp_path / "work")
    (tmp_path / "work").mkdir()
    return tmp_path


def cli_output(argv: list[str]) -> bytes:
    sys.path.insert(0, str(REPO / "src"))
    from wsgap import cli

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert cli.main(argv) == 0
    return buf.getvalue().encode()


# ---------------------------------------------------------------------------
# generated inputs

def test_same_seed_gives_identical_inputs():
    assert pickle.dumps(inputs.query_stream(7, 5000)) == \
        pickle.dumps(inputs.query_stream(7, 5000))
    assert inputs.cube_request_order(7) == inputs.cube_request_order(7)
    assert inputs.query_stream(7, 5000) != inputs.query_stream(8, 5000)
    assert sorted(inputs.cube_request_order(8)) == sorted(inputs.ENUM_CUBE)


def test_stream_shape():
    stream = inputs.query_stream(3, 20000)
    for c, op, beta, J in stream:
        a, b, m = inputs.curve_abm(*inputs.ORACLE_CURVES[c])
        assert len(beta) == m
        assert all(-b - 2 <= x <= 2 * inputs.genus(a, b) + b for x in beta)
        if inputs.OPS[op] == "nabla_J_empty":
            assert 1 <= len(J) < m and set(J) <= set(range(1, m + 1))
        else:
            assert J is None
    # 10k hot draws over 2000 hot tuples: about 8k repeats
    assert 0.35 < inputs.repeat_share(stream) < 0.45


# ---------------------------------------------------------------------------
# payload digests

TIMING_LINES = {"json": rb'(?m)^  "timing_ms": [0-9.]+,$',
                "text": rb"(?m)^# timing_ms: [0-9.]+$",
                "csv": rb"(?m)^meta,timing_ms,,[0-9.]+$"}
RETIMED = {"json": b'  "timing_ms": 99999.5,', "text": b"# timing_ms: 99999.5",
           "csv": b"meta,timing_ms,,99999.5"}


@pytest.mark.parametrize("fmt", ["json", "text", "csv"])
def test_digest_ignores_timing_and_catches_tampering(fmt):
    data = cli_output(["gaps", "--a", "4", "--b", "5", "--m", "3", "--format", fmt])
    digest = inputs.payload_digest(fmt, data)
    retimed, n = re.subn(TIMING_LINES[fmt], RETIMED[fmt], data)
    assert n == 1 and retimed != data
    assert inputs.payload_digest(fmt, retimed) == digest
    tampered = retimed.replace(b"2", b"3", 1)
    assert inputs.payload_digest(fmt, tampered) != digest
    with pytest.raises(ValueError):
        inputs.payload_digest(fmt, re.sub(TIMING_LINES[fmt], b"", data))


def test_digest_ignores_verify_check_times():
    data = cli_output(["verify", "--what", "fixtures", "--format", "json"])
    retimed, n = re.subn(rb'"ms": [0-9.]+,', b'"ms": 3.25,', data)
    assert n > 1 and retimed != data
    assert inputs.payload_digest("json", retimed) == inputs.payload_digest("json", data)
    tampered = retimed.replace(b'"passed": true', b'"passed": false', 1)
    assert inputs.payload_digest("json", tampered) != inputs.payload_digest("json", data)


# ---------------------------------------------------------------------------
# span arithmetic

def columns(rows):
    """Spans as (name, parent, start, end), listed in start order."""
    return {"name": array("i", [r[0] for r in rows]),
            "parent": array("i", [r[1] for r in rows]),
            "request": array("i", [0] * len(rows)),
            "start": array("d", [r[2] for r in rows]),
            "end": array("d", [r[3] for r in rows])}


def test_self_times_on_a_synthetic_tree():
    names = ["root", "a", "b", "leaf"]
    cols = columns([
        (0, -1, 0.0, 10.0),   # root: children a, a, b cover [1, 6] and [7, 9]
        (1, 0, 1.0, 4.0),     # a: its leaf covers [2, 3]
        (3, 1, 2.0, 3.0),
        (1, 0, 3.5, 6.0),     # overlaps the first a: the union counts once
        (2, 0, 7.0, 9.0),
        (0, -1, 20.0, 21.0),  # a second root without children
    ])
    st = spans.self_times(names, cols)
    assert st["root"] == pytest.approx((10.0 - 7.0 + 1.0, 2))
    assert st["a"] == pytest.approx((3.0 - 1.0 + 2.5, 2))
    assert st["b"] == pytest.approx((2.0, 1))
    assert st["leaf"] == pytest.approx((1.0, 1))


def test_fastest_segments_keeps_each_segments_fastest_pass():
    slow = [5.0, 1.0, 1.0, 9.0, 1.0]
    fast = [1.0, 4.0, 2.0, 2.0, 3.0]
    # segments [0, 2) and [2, 4) come from whichever pass summed less there
    assert run.fastest_segments([slow, fast], 2) == [1.0, 4.0, 2.0, 2.0, 1.0]
    assert run.fastest_segments([slow, fast], 1) == [1.0, 1.0, 1.0, 2.0, 1.0]
    assert run.fastest_segments([array("d", slow)], 3) == slow


def test_recorder_nests_and_round_trips(tmp_path):
    rec = spans.Recorder()
    inner = rec.wrap("oracle.is_member", lambda x: x + 1)
    outer = rec.wrap("cli.main", lambda x: inner(x) + inner(x))
    rec.request_id = 4
    assert outer(1) == 4
    rec.dump(str(tmp_path / "spans.bin"))
    header, cols = spans.load(str(tmp_path / "spans.bin"))
    assert header["count"] == 3
    assert list(cols["parent"]) == [-1, 0, 0]
    assert list(cols["request"]) == [4, 4, 4]
    st = spans.self_times(header["names"], cols)
    assert st["cli.main"][1] == 1 and st["oracle.is_member"][1] == 2
    total = sum(s for s, _ in st.values())
    assert total == pytest.approx(cols["end"][0] - cols["start"][0])


# ---------------------------------------------------------------------------
# reduced-size smoke runs

SMALL_CUBE = tuple(r for r in inputs.ENUM_CUBE if "--q 5 " in r)


@pytest.mark.parametrize("trace", [False, True])
def test_enum_cube_smoke(bench_dirs, monkeypatch, trace):
    monkeypatch.setattr(inputs, "ENUM_CUBE", SMALL_CUBE)
    result = run.run_workload("enum-cube", 1, 0, trace)
    assert (result["attempted"], result["failed"]) == (len(SMALL_CUBE) * (3 if trace else 1), 0)
    units = run.per_layer_units() if trace else run.END_TO_END
    assert result["metrics"].keys() == units.keys()
    m = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert m["cli.main.calls"] == len(SMALL_CUBE)
        assert m["maximals.lambda_nonneg.calls"] >= 2
        assert m["gapsets.traced_peak_mb"] > 0
        assert m["cli.output_bytes"] > 0
    else:
        assert all(v > 0 for v in m.values())


def test_wrong_digest_fails_the_run(bench_dirs, monkeypatch, capsys):
    monkeypatch.setattr(inputs, "ENUM_CUBE", SMALL_CUBE[:1])
    monkeypatch.setattr(run, "load_digests", lambda: {SMALL_CUBE[0]: "0" * 64})
    assert run.main(["--workload", "enum-cube", "--seed", "1", "--seconds", "0"]) == 1
    result = json.loads(capsys.readouterr().out.splitlines()[-1])
    assert (result["correct"], result["attempted"], result["failed"]) == (False, 1, 1)


@pytest.mark.parametrize("trace", [False, True])
def test_oracle_query_smoke(bench_dirs, monkeypatch, trace):
    monkeypatch.setattr(inputs, "STREAM_LENGTH", 2000)
    result = run.run_workload("oracle-query", 2, 0, trace)
    assert (result["attempted"], result["failed"]) == (2000 * (2 if trace else 1), 0)
    assert result["answers_checked"] > 100
    if trace:
        m = {k: v["value"] for k, v in result["metrics"].items()}
        assert m["oracle.is_member.calls"] > 0 and m["oracle.is_member.self_s"] > 0
    else:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_oracle_check_catches_a_wrong_answer(bench_dirs, monkeypatch):
    stream = inputs.query_stream(5, 400)
    stream_file = bench_dirs / "work" / "stream.pickle"
    stream_file.write_bytes(pickle.dumps(stream))
    with run.Launcher() as launch:
        answers = run.oracle_pass(launch, stream_file, 400, traced=False)["answers"]
    assert run.check_oracle_answers(5, stream, answers)[1] == 0
    k = next(k for k, q in enumerate(stream) if inputs.OPS[q[1]] == "dim_L")
    answers[k] += 1
    # a tuple asked about once may fall outside the checked sample
    monkeypatch.setattr(run, "CHECKED_TUPLES", 400)
    assert run.check_oracle_answers(5, stream, answers)[1] == 1


def test_verify_sweep_smoke(bench_dirs):
    result = run.run_workload("verify-sweep", 3, 0, False)
    assert (result["attempted"], result["failed"]) == (1, 0)
    assert all(v["value"] > 0 for v in result["metrics"].values())


def test_fails_without_the_program(tmp_path):
    shutil.copy(REPO / "BENCHMARK.json", tmp_path)
    shutil.copytree(REPO / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "enum-cube",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert proc.stdout == ""
