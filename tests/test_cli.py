import csv
import io
import json
import subprocess
import sys
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wsgap as w
from wsgap import cli
from wsgap import fixtures as fx
from wsgap import gapsets as gs
from wsgap import oracle


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv, "--format", "json")
    assert code == 0, err
    envelope = json.loads(out)
    jsonschema.validate(envelope, cli.ENVELOPE_SCHEMA)
    return envelope


def _payload_field(fmt, out, key):
    """One payload field of an envelope printed in ``fmt``."""
    if fmt == "json":
        return json.loads(out)["payload"][key]
    if fmt == "text":
        lines = [line for line in out.splitlines() if line.startswith(f"{key}: ")]
        return json.loads(lines[0][len(key) + 2:])
    rows = [row for row in csv.reader(io.StringIO(out)) if row[0] == key]
    return json.loads(rows[0][3])


class TestOracleCommandsAtLargeB:
    """``member`` and ``dim`` on Hermitian q=32, m=3 (b = 33) against the
    explicit enumeration of the absolute maximals, in every format."""

    TUPLES = [(0, 0, 0), (5, 7, 9), (33, 32, 0), (500, 300, 400), (64, 31, 2),
              (1000, 0, -1), (-1, 40, 70)]

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_member_and_dim_match_enumeration(self, capsys, fmt):
        p = w.hermitian_params(32, 3)
        for t in self.TUPLES:
            prof = w.local_absolute_maximals(p, t)
            expected = {"member": bool(prof.gamma_hat_beta) and prof.per_coord_max == t,
                        "dim": len({g[0] for g in prof.gamma_hat_beta})}
            for command, value in expected.items():
                code, out, err = run_cli(capsys, command, "--preset", "hermitian", "--q", "32",
                                         "--m", "3", "--tuple=" + ",".join(map(str, t)),
                                         "--format", fmt)
                assert code == 0, err
                assert _payload_field(fmt, out, command) == value, (command, t)
                assert _payload_field(fmt, out, "tuple") == list(t)


class TestSubcommands:
    def test_member_true(self, capsys):
        env = run_json(capsys, "member", "--a", "4", "--b", "5", "--m", "3",
                       "--tuple", "12,0,0")
        assert env["payload"] == {"tuple": [12, 0, 0], "member": True}
        assert env["params"]["genus"] == 6

    def test_member_false(self, capsys):
        env = run_json(capsys, "member", "--a", "4", "--b", "5", "--m", "3",
                       "--tuple", "1,1,1")
        assert env["payload"]["member"] is False

    def test_dim(self, capsys):
        env = run_json(capsys, "dim", "--a", "4", "--b", "5", "--m", "3",
                       "--tuple", "12,0,0")
        assert env["payload"]["dim"] == 7

    def test_pure_gaps_preset(self, capsys):
        env = run_json(capsys, "pure-gaps", "--preset", "norm-trace",
                       "--ell", "4", "--r", "2", "--m", "3")
        assert env["payload"]["count"] == 16
        assert [tuple(t) for t in env["payload"]["pure_gaps"]] == \
            sorted(fx.PURE_GAPS_453)

    def test_maximals_box_positive(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "relative", "--a", "4",
                       "--b", "7", "--m", "3", "--box-positive")
        assert [tuple(t) for t in env["payload"]["tuples"]] == \
            sorted(fx.RELATIVE_MAXIMALS_POSITIVE_473)

    def test_maximals_region_default_scope(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "absolute", "--a", "4",
                       "--b", "5", "--m", "3")
        assert env["payload"]["scope"] == "region"
        assert len(env["payload"]["tuples"]) == 5

    def test_maximals_box_scope(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "relative", "--a", "4",
                       "--b", "5", "--m", "3", "--scope", "box",
                       "--lo", "1,1,1", "--hi", "11,11,11")
        assert env["payload"]["count"] == 10

    def test_gaps_method_flag(self, capsys):
        for method in ("complement", "union-nabla", "explicit-s"):
            env = run_json(capsys, "gaps", "--a", "4", "--b", "5", "--m", "3",
                           "--method", method)
            assert env["payload"]["count"] == 193

    def test_gaps_single_point(self, capsys):
        env = run_json(capsys, "gaps", "--a", "4", "--b", "5", "--m", "1")
        assert env["payload"]["gaps"] == [[1], [2], [3], [6], [7], [11]]

    @pytest.mark.parametrize("method", ["profile", "intersection"])
    def test_pure_gaps_single_point(self, capsys, method):
        # at one point pure gaps and gaps coincide: the numerical gaps
        env = run_json(capsys, "pure-gaps", "--a", "4", "--b", "5", "--m", "1",
                       "--method", method)
        assert env["payload"]["pure_gaps"] == [[1], [2], [3], [6], [7], [11]]
        assert env["payload"]["method"] == method
        assert env["payload"]["stats"]["pure_gap_method"] == "single-point"

    def test_sigma(self, capsys):
        env = run_json(capsys, "sigma", "--a", "4", "--b", "5")
        assert env["payload"]["sigma"] == [6, 5, 3, 4, 2, 1]
        assert env["payload"]["pure_gap_count"] == 14

    def test_superset(self, capsys):
        env = run_json(capsys, "superset", "--a", "4", "--b", "5", "--m", "3")
        assert env["payload"]["a_star"] == [1, 2, 3, 6, 7, 11]

    def test_verify_fixtures(self, capsys):
        env = run_json(capsys, "verify", "--what", "fixtures")
        assert env["payload"]["ok"] is True
        assert env["payload"]["failed"] == 0


class TestPresetEquivalence:
    CASES = [
        (["--preset", "norm-trace", "--ell", "4", "--r", "2", "--m", "3"],
         ["--a", "4", "--b", "5", "--m", "3", "--field-size", "16"]),
        (["--preset", "hermitian", "--q", "4", "--m", "3"],
         ["--a", "4", "--b", "5", "--m", "3", "--field-size", "16"]),
    ]

    @pytest.mark.parametrize("preset,generic", CASES)
    @pytest.mark.parametrize("command", ["pure-gaps", "gaps", "superset"])
    def test_identical_payloads(self, capsys, command, preset, generic):
        a = run_json(capsys, command, *preset)
        b = run_json(capsys, command, *generic)
        assert json.dumps(a["payload"], sort_keys=True) == \
            json.dumps(b["payload"], sort_keys=True)
        assert a["params"] == b["params"]


class TestFormats:
    def test_payload_bytes_deterministic(self, capsys):
        code1, out1, _ = run_cli(capsys, "pure-gaps", "--a", "4", "--b", "5",
                                 "--m", "3", "--format", "json")
        code2, out2, _ = run_cli(capsys, "pure-gaps", "--a", "4", "--b", "5",
                                 "--m", "3", "--format", "json")
        assert code1 == code2 == 0
        p1, p2 = json.loads(out1)["payload"], json.loads(out2)["payload"]
        assert json.dumps(p1, sort_keys=True) == json.dumps(p2, sort_keys=True)

    def test_csv_carries_same_tuples(self, capsys):
        env = run_json(capsys, "pure-gaps", "--a", "4", "--b", "5", "--m", "3")
        code, out, _ = run_cli(capsys, "pure-gaps", "--a", "4", "--b", "5",
                               "--m", "3", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        tuples = [tuple(int(c) for c in row["tuple"].split(";"))
                  for row in rows if row["kind"] == "pure_gaps"]
        assert tuples == [tuple(t) for t in env["payload"]["pure_gaps"]]
        meta = {row["name"]: row["value"] for row in rows if row["kind"] == "meta"}
        assert meta["schema"] == "wsgap/1"
        assert meta["a"] == "4" and meta["genus"] == "6"

    def test_text_lists_tuples(self, capsys):
        code, out, _ = run_cli(capsys, "pure-gaps", "--a", "4", "--b", "5",
                               "--m", "3", "--format", "text")
        assert code == 0
        assert "(1, 1, 1)" in out
        assert "pure_gaps (16):" in out
        assert out.endswith("\n")

    def test_csv_verify_rows(self, capsys):
        code, out, _ = run_cli(capsys, "verify", "--what", "fixtures",
                               "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        checks = [r for r in rows if r["kind"] == "check"]
        assert len(checks) == 15
        assert all(r["value"] == "pass" for r in checks)


class TestErrors:
    def test_not_coprime_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "member", "--a", "4", "--b", "6",
                               "--m", "2", "--tuple", "1,2")
        assert code == 1
        assert "gcd" in err

    def test_bad_point_count_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "gaps", "--a", "4", "--b", "5", "--m", "9")
        assert code == 1
        assert "m=9" in err

    def test_missing_params_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "gaps", "--m", "2")
        assert code == 1
        assert "--a" in err

    @pytest.mark.parametrize("command", ["member", "dim"])
    def test_oracle_needs_two_points(self, capsys, command):
        code, _, err = run_cli(capsys, command, "--a", "4", "--b", "5", "--m", "1",
                               "--tuple", "3")
        assert code == 1
        assert "m >= 2" in err

    def test_sigma_needs_two_points(self, capsys):
        code, _, err = run_cli(capsys, "sigma", "--a", "4", "--b", "5", "--m", "3")
        assert code == 1

    def test_bad_tuple_exits_one(self, capsys):
        code, _, err = run_cli(capsys, "member", "--a", "4", "--b", "5",
                               "--m", "3", "--tuple", "1,x,3")
        assert code == 1
        code, _, err = run_cli(capsys, "member", "--a", "4", "--b", "5",
                               "--m", "3", "--tuple", "1,2")
        assert code == 1

    def test_usage_error_exits_two(self, capsys):
        with pytest.raises(SystemExit) as exc:
            cli.main(["no-such-command"])
        assert exc.value.code == 2
        with pytest.raises(SystemExit) as exc:
            cli.main(["gaps", "--a", "4", "--b", "5", "--method", "bogus"])
        assert exc.value.code == 2

    def test_non_prime_power_preset(self, capsys):
        code, _, err = run_cli(capsys, "gaps", "--preset", "hermitian",
                               "--q", "6", "--m", "2")
        assert code == 1
        assert "prime power" in err


class TestGuardsAndThreads:
    def test_large_sweep_refused(self, capsys):
        code, _, err = run_cli(capsys, "gaps", "--a", "251", "--b", "256", "--m", "2")
        assert code == 1
        assert "--force" in err

    @pytest.mark.parametrize("argv,name", [
        (("sigma", "--a", "251", "--b", "256"), "sigma_pair"),
        (("superset", "--a", "65536", "--b", "65535"), "candidate_superset"),
    ], ids=["sigma", "superset"])
    def test_pairing_and_superset_refused_before_any_work(self, capsys, monkeypatch,
                                                          argv, name):
        from wsgap import gapsets

        def no_work(*args, **kwargs):
            raise AssertionError(f"{name} ran before the guard")

        monkeypatch.setattr(gapsets, name, no_work)
        code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (1, "")
        assert "exceeds the 100000000 guard" in err and "--force" in err

    @pytest.mark.parametrize("what", ["sweep", "all"])
    def test_verify_sweep_refused_before_any_work(self, capsys, monkeypatch, what):
        from wsgap import verify as verify_mod

        def no_work(*args, **kwargs):
            raise AssertionError("verify ran before the guard")

        for name in ("run_fixtures", "run_property_sweep", "run_oracle_invariants"):
            monkeypatch.setattr(verify_mod, name, no_work)
        code, out, err = run_cli(capsys, "verify", "--what", what, "--max-a", "20",
                                 "--max-b", "21", "--max-m", "4")
        assert (code, out) == (1, "")
        assert "exceeds the 100000000 guard" in err and "--force" in err

    @pytest.mark.parametrize("trials", ["0", "-5"])
    def test_verify_refuses_fewer_than_one_trial(self, capsys, monkeypatch, trials):
        from wsgap import verify as verify_mod

        def no_work(*args, **kwargs):
            raise AssertionError("verify ran before the trials were checked")

        for name in ("run_fixtures", "run_property_sweep", "run_oracle_invariants"):
            monkeypatch.setattr(verify_mod, name, no_work)
        with pytest.raises(SystemExit) as exc:
            cli.main(["verify", "--what", "all", "--trials", trials])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert f"argument --trials: must be at least 1, got {trials}" in err

    def test_verify_force_passes_the_guard(self, capsys, monkeypatch):
        # (a, b, m) = (2, 3, 2) has genus 1, so its one cell counts (2g)^m = 4
        monkeypatch.setattr(cli, "BOX_CELL_LIMIT", 3)
        argv = ("verify", "--what", "sweep", "--max-a", "2", "--max-b", "3", "--max-m", "2",
                "--trials", "5")
        code, _, err = run_cli(capsys, *argv)
        assert code == 1 and "sweep of 4 cells exceeds the 3 guard" in err
        code, out, err = run_cli(capsys, *argv, "--force")
        assert code == 0, err
        assert "PASS a2-b3-m2:" in out

    def test_box_guard(self, capsys):
        code, _, err = run_cli(capsys, "maximals", "--kind", "relative",
                               "--a", "4", "--b", "5", "--m", "3", "--scope", "box",
                               "--lo", "0,0,0", "--hi", "999,999,999")
        assert code == 1
        assert "--force" in err


def test_verify_failure_exits_one(capsys, monkeypatch):
    from wsgap import verify as verify_mod

    failing = verify_mod.ConformanceReport(entries=[
        verify_mod.CheckResult("forced", "fixture", False, "forced failure")])
    monkeypatch.setattr(verify_mod, "run_fixtures", lambda: failing)
    code, out, _ = run_cli(capsys, "verify", "--what", "fixtures", "--format", "json")
    assert code == 1
    assert json.loads(out)["payload"]["ok"] is False


class TestMaximalsScopes:
    def test_nonneg_relative_default_formula(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "relative", "--a", "4",
                       "--b", "5", "--m", "3", "--scope", "nonneg")
        assert env["payload"]["count"] == 10

    def test_nonneg_relative_with_zero_family(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "relative", "--a", "4",
                       "--b", "5", "--m", "3", "--scope", "nonneg",
                       "--include-zero-family")
        got = {tuple(t) for t in env["payload"]["tuples"]}
        assert got == set(w.lambda_nonneg(w.curve_params(4, 5, 3),
                                          include_zero_family=True))
        assert (5, 0, 0) in got

    def test_nonneg_absolute(self, capsys):
        env = run_json(capsys, "maximals", "--kind", "absolute", "--a", "4",
                       "--b", "5", "--m", "3", "--scope", "nonneg")
        got = {tuple(t) for t in env["payload"]["tuples"]}
        p = w.curve_params(4, 5, 3)
        assert got == set(w.expand_nonneg(w.absolute_maximals_region(p)))
        assert (0, 0, 0) in got

    def test_box_scope_requires_corners(self, capsys):
        code, _, err = run_cli(capsys, "maximals", "--kind", "relative",
                               "--a", "4", "--b", "5", "--m", "3", "--scope", "box")
        assert code == 1
        assert "--lo" in err


# The emitters as they rendered tuple lists before the %d templates: one
# json.dumps over the whole envelope, and a str/join per tuple.

def _reference_json(envelope):
    return json.dumps(envelope, sort_keys=True, indent=2) + "\n"


def _reference_text(envelope):
    lines = [f"# {envelope['schema']} tool_version={envelope['tool_version']}"]
    p = envelope["params"]
    lines.append("# command: " + envelope["command"])
    lines.append(f"# params: a={p['a']} b={p['b']} m={p['m']} genus={p['genus']}"
                 f" field_size={p['field_size']}")
    for key, value in sorted(envelope["payload"].items()):
        if key in cli._TUPLE_KEYS:
            lines.append(f"{key} ({len(value)}):")
            lines.extend("(" + ", ".join(str(c) for c in t) + ")" for t in value)
        elif key in cli._LIST_KEYS:
            lines.append(f"{key}: " + " ".join(str(v) for v in value))
        elif key == "checks":
            for chk in value:
                status = "PASS" if chk["passed"] else "FAIL"
                detail = f" {chk['detail']}" if chk["detail"] else ""
                lines.append(f"{status} {chk['name']}{detail}")
        else:
            lines.append(f"{key}: {cli._scalar(value)}")
    lines.append(f"# timing_ms: {envelope['timing_ms']}")
    return "\n".join(lines) + "\n"


def _reference_csv(envelope):
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(["kind", "name", "tuple", "value"])
    writer.writerow(["meta", "schema", "", envelope["schema"]])
    writer.writerow(["meta", "tool_version", "", envelope["tool_version"]])
    writer.writerow(["meta", "command", "", envelope["command"]])
    for key in ("a", "b", "m", "genus", "field_size"):
        value = envelope["params"][key]
        writer.writerow(["meta", key, "", "" if value is None else value])
    for key, value in sorted(envelope["payload"].items()):
        if key in cli._TUPLE_KEYS:
            for t in value:
                writer.writerow([key, "", ";".join(str(c) for c in t), ""])
        elif key in cli._LIST_KEYS:
            for idx, v in enumerate(value, start=1):
                writer.writerow([key, idx, "", v])
        elif key == "checks":
            for chk in value:
                writer.writerow(["check", chk["name"], "",
                                 "pass" if chk["passed"] else "fail"])
                if chk["detail"]:
                    writer.writerow(["check-detail", chk["name"], "", chk["detail"]])
        else:
            writer.writerow([key, "", "", cli._scalar(value)])
    writer.writerow(["meta", "timing_ms", "", envelope["timing_ms"]])
    return buf.getvalue()


REFERENCE_EMITTERS = {"json": _reference_json, "text": _reference_text, "csv": _reference_csv}


def _spelled(rows):
    """The tuples of ``TupleRows`` or of a streamed ``RowStream``, in order."""
    return [prefix + (v,) for prefix, lasts in rows.rows() for v in lasts]


def _reference_payload(payload, spell=_spelled):
    """The payload as the reference encoders take it: each tuple list
    spelled by ``spell``, and each ``CheckResult`` of ``verify`` through
    its ``to_payload()``."""
    return {key: spell(value) if key in cli._TUPLE_KEYS
            else [c.to_payload() for c in value] if key == "checks" else value
            for key, value in payload.items()}


def _emitted(fmt, envelope):
    out = io.StringIO()
    cli._EMITTERS[fmt](envelope, out)
    return out.getvalue()


def _assert_emitters_match(envelope):
    # the reference encoders take the tuple lists that row payloads stand
    # for, and the check dicts that CheckResults stand for
    as_tuples = {**envelope, "payload": _reference_payload(envelope["payload"])}
    for fmt, reference in REFERENCE_EMITTERS.items():
        out = io.StringIO()
        cli._EMITTERS[fmt](envelope, out)
        assert out.getvalue() == reference(as_tuples), fmt


class _WriteSizes(io.StringIO):
    """A text sink that records the length of every write."""

    def __init__(self):
        super().__init__()
        self.sizes = []

    def write(self, text):
        self.sizes.append(len(text))
        return super().write(text)


class TestEmitterBytes:
    """The template emitters print what the per-tuple encoders printed."""

    def _envelope(self, monkeypatch, capsys, *argv, fmt="json"):
        seen = []
        real = cli._EMITTERS[fmt]
        monkeypatch.setitem(cli._EMITTERS, fmt,
                            lambda env, out: seen.append(env) or real(env, out))
        code, _, err = run_cli(capsys, *argv, "--format", fmt)
        assert code == 0, err
        # main hands over a clock, read as the emitter writes timing_ms; the
        # reference encoders take a number
        assert callable(seen[0]["timing_ms"])
        return {**seen[0], "timing_ms": 1.5}

    @pytest.mark.parametrize("argv", [
        ("gaps", "--a", "4", "--b", "5", "--m", "1"),                      # 1-tuples
        ("pure-gaps", "--a", "2", "--b", "3", "--m", "2"),                 # empty list
        ("maximals", "--kind", "absolute", "--a", "4", "--b", "5", "--m", "3"),  # negatives
        ("gaps", "--a", "4", "--b", "7", "--m", "3"),
        ("sigma", "--a", "4", "--b", "5"),
        ("superset", "--a", "4", "--b", "7", "--m", "3"),
        ("verify", "--what", "fixtures"),
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_command_envelopes(self, monkeypatch, capsys, argv):
        envelope = self._envelope(monkeypatch, capsys, *argv)
        _assert_emitters_match(envelope)

    @pytest.mark.parametrize("fmt", ["text", "csv"])
    def test_verify_all_checks(self, monkeypatch, capsys, fmt):
        """``verify --what all`` prints its CheckResults as the reference
        encoders print their ``to_payload()`` dicts."""
        envelope = self._envelope(monkeypatch, capsys, "verify", "--what", "all", fmt=fmt)
        checks = envelope["payload"]["checks"]
        assert len(checks) == 1268 and all(type(c) is w.CheckResult for c in checks)
        reference = {**envelope, "payload": _reference_payload(envelope["payload"])}
        assert _emitted(fmt, envelope) == REFERENCE_EMITTERS[fmt](reference)

    @pytest.mark.parametrize("command", ["gaps", "pure-gaps"])
    @pytest.mark.parametrize("curve", [
        ("--preset", "hermitian", "--q", "3", "--m", "2"),
        ("--preset", "hermitian", "--q", "3", "--m", "3"),
        ("--preset", "hermitian", "--q", "3", "--m", "4"),
        ("--a", "4", "--b", "7", "--m", "3"),
        ("--preset", "norm-trace", "--ell", "2", "--r", "3", "--m", "3"),
        ("--a", "2", "--b", "3", "--m", "2"),                             # no pure gaps
    ], ids=lambda curve: "-".join(curve[1::2]))
    def test_kernel_rows(self, monkeypatch, capsys, command, curve):
        """The streamed rows are the library's collected rows, and every
        emitter prints them as it prints the collected rows."""
        envelope = self._envelope(monkeypatch, capsys, command, *curve)
        key = "gaps" if command == "gaps" else "pure_gaps"
        rows = envelope["payload"][key]
        report = gs.gaps(cli._resolve_params(cli.build_parser().parse_args([command, *curve])))
        collected = report.gap_rows if key == "gaps" else report.pure_rows
        assert list(rows.rows()) == list(collected.rows())
        assert len(rows) == len(collected)
        as_collected = {**envelope, "payload": {**envelope["payload"], key: collected}}
        for fmt in cli._EMITTERS:
            assert _emitted(fmt, envelope) == _emitted(fmt, as_collected), fmt
        _assert_emitters_match(envelope)

    @pytest.mark.parametrize("fmt, q, m", [("json", "32", "2"), ("text", "8", "4"),
                                           ("csv", "8", "4")])
    def test_large_envelopes_stream_row_by_row(self, monkeypatch, capsys, fmt, q, m):
        # 10.4 MB of JSON, 2.7 MB of text, 3.0 MB of CSV
        envelope = self._envelope(monkeypatch, capsys, "gaps", "--preset", "hermitian",
                                  "--q", q, "--m", m, fmt=fmt)
        sink = _WriteSizes()
        cli._EMITTERS[fmt](envelope, sink)
        params = w.hermitian_params(int(q), int(m))
        payload = {**envelope["payload"], "gaps": list(w.gaps(params).gaps)}
        assert sink.getvalue() == REFERENCE_EMITTERS[fmt]({**envelope, "payload": payload})
        assert max(sink.sizes) < 64 * 1024

    @given(st.lists(st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=5).map(tuple),
                    max_size=30))
    @settings(max_examples=60, deadline=None)
    def test_generated_tuple_lists(self, tuples):
        envelope = {
            "schema": cli.SCHEMA, "tool_version": w.__version__, "command": "gaps",
            "params": {"a": 4, "b": 5, "m": 3, "genus": 6, "field_size": None},
            "payload": {"gaps": w.TupleRows.of(tuples), "count": len(tuples),
                        "method": "complement"},
            "timing_ms": 1.5,
        }
        _assert_emitters_match(envelope)

    @given(st.lists(st.builds(w.CheckResult, st.text(max_size=12),
                              st.sampled_from(["fixture", "property"]), st.booleans(),
                              st.text(max_size=20),
                              st.one_of(st.floats(0, 1e7), st.integers(0, 10**6))),
                    max_size=8))
    @settings(max_examples=60, deadline=None)
    def test_generated_checks(self, checks):
        envelope = {
            "schema": cli.SCHEMA, "tool_version": w.__version__, "command": "verify",
            "params": {"a": None, "b": None, "m": None, "genus": None, "field_size": None},
            "payload": {"checks": checks, "ok": all(c.passed for c in checks),
                        "total": len(checks), "what": "all"},
            "timing_ms": 1.5,
        }
        _assert_emitters_match(envelope)


class TestJsonStream:
    """``_emit_json`` writes the encoder's chunks in bounded batches, with
    the rows and ``timing_ms`` swapped in: it prints what ``json.dumps``
    prints for the same envelope."""

    @pytest.mark.parametrize("argv", [
        ("verify", "--what", "all"),
        ("gaps", "--a", "4", "--b", "7", "--m", "3"),
        ("maximals", "--kind", "relative", "--scope", "nonneg", "--a", "4", "--b", "5",
         "--m", "3"),
        ("pure-gaps", "--a", "2", "--b", "3", "--m", "2"),                 # empty list
    ], ids=lambda argv: " ".join(argv[:2]))
    def test_matches_json_dumps(self, monkeypatch, capsys, argv):
        envelope = TestEmitterBytes()._envelope(monkeypatch, capsys, *argv)
        payload = _reference_payload(envelope["payload"],
                                     lambda rows: [list(t) for t in _spelled(rows)])
        sink = _WriteSizes()
        cli._emit_json(envelope, sink)
        assert sink.getvalue() == json.dumps({**envelope, "payload": payload},
                                             sort_keys=True, indent=2) + "\n"
        assert max(sink.sizes) < 64 * 1024
        if argv[0] == "verify":  # about 200 KB, so several batches
            assert len(sink.sizes) > 3

    def test_timing_read_after_the_rows(self, monkeypatch, capsys):
        envelope = TestEmitterBytes()._envelope(monkeypatch, capsys, "gaps", "--a", "4",
                                                "--b", "7", "--m", "3")
        sink = io.StringIO()
        written = []
        cli._emit_json({**envelope, "timing_ms": lambda: written.append(sink.tell()) or 2.5},
                       sink)
        text = sink.getvalue()
        rows_end = text.index("\n    ]") + len("\n    ]")
        assert len(written) == 1 and written[0] >= rows_end
        assert json.loads(text)["timing_ms"] == 2.5


class TestStreamedFaults:
    """The streamed ``gaps`` and ``pure-gaps`` check the kernel's plan
    whole before they print: a fault exits 1 with nothing on stdout."""

    ARGV = ("--a", "4", "--b", "5", "--m", "3")

    def _assert_refused(self, capsys, message):
        gs._plan.cache_clear()  # the faulty plan is built here, and dropped after
        try:
            for command in ("gaps", "pure-gaps"):
                for fmt in ("json", "text", "csv"):
                    code, out, err = run_cli(capsys, command, *self.ARGV, "--format", fmt)
                    assert (code, out) == (1, ""), (command, fmt)
                    assert message in err
        finally:
            gs._plan.cache_clear()

    def test_shifted_family_is_refused(self, monkeypatch, capsys):
        # as in test_gapsets' test_cube_check_catches_a_shifted_family
        p = w.curve_params(4, 5, 3)
        f, hit, _ = oracle._residue_table(p.a, p.b, p.m)
        shifted = f[:1] + (f[1] + p.b,) + f[2:]
        monkeypatch.setattr(oracle, "_residue_table",
                            lambda a, b, m: (shifted, hit, oracle._Store(p.m, p.b)))
        self._assert_refused(capsys, "not a member")

    def test_pure_end_above_its_gap_end_is_refused(self, monkeypatch, capsys):
        real = gs._class_ends

        def planted(u, reach, tables):
            ends, pure_ends = real(u, reach, tables)
            return ends, [end + len(tables) for end in ends]

        monkeypatch.setattr(gs, "_class_ends", planted)
        self._assert_refused(capsys, "pure gaps outside the gap set")


def test_closed_pipe_exits_cleanly():
    """A reader that stops early, as `wsgap gaps ... | head` does, leaves
    exit status 0 and nothing on standard error."""
    src = str(Path(cli.__file__).resolve().parents[1])
    proc = subprocess.Popen(  # 0.94 MB of CSV, more than a pipe holds
        [sys.executable, "-m", "wsgap.cli", "gaps", "--preset", "hermitian", "--q", "7",
         "--m", "4", "--format", "csv"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env={"PYTHONPATH": src, "PATH": ""})
    try:
        assert len(proc.stdout.read(100)) == 100
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=60) == 0
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == b""


def test_light_commands_do_not_import_numpy():
    """Importing the command line and running any command, the gap routes
    and verify included, leaves numpy unloaded."""
    commands = [
        "sigma --a 4 --b 5 --format json",
        "member --a 4 --b 5 --m 3 --tuple 12,0,0 --format json",
        "dim --a 4 --b 5 --m 3 --tuple 12,0,0 --format json",
        "superset --a 4 --b 7 --m 3 --format json",
        "maximals --kind relative --a 4 --b 7 --m 3 --box-positive --format json",
    ] + [f"{command} --a 4 --b 5 --m 3 --format {fmt}"
         for command in ("gaps", "pure-gaps", "pure-gaps --method intersection")
         for fmt in ("json", "text", "csv")] + [
        "gaps --method union-nabla --a 4 --b 5 --m 2 --format json",
        "gaps --method explicit-s --a 4 --b 5 --m 3 --format json",
        "verify --what sweep --max-a 3 --max-b 4 --max-m 3 --format json",
    ]
    script = f"""
import contextlib, io, sys
import wsgap.cli
print('import', 'numpy' in sys.modules)
for argv in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        code = wsgap.cli.main(argv.split())
    print(argv, code, 'numpy' in sys.modules)
"""
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": ""}, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == ["import False"] + [
        f"{argv} 0 False" for argv in commands]


def test_import_loads_no_dataclasses_json_or_csv():
    """Importing the command line leaves the modules that only some
    requests need, and ``dataclasses`` with what it pulls in, unloaded."""
    unwanted = ("dataclasses", "inspect", "json", "csv", "wsgap.gapsets", "wsgap.verify")
    script = f"import wsgap.cli, sys; print([m for m in {unwanted!r} if m in sys.modules])"
    src = str(Path(cli.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={"PYTHONPATH": src, "PATH": ""}, timeout=60)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "[]\n"


class TestRunEntryPoint:
    """``python -m wsgap.cli`` goes through ``cli.run``, which skips
    interpreter teardown: the exit codes hold and the output is whole."""

    TIMING_LINE = {"json": b'  "timing_ms": ', "text": b"# timing_ms: ",
                   "csv": b"meta,timing_ms,"}

    @staticmethod
    def _run(*args):
        src = str(Path(cli.__file__).resolve().parents[1])
        return subprocess.run([sys.executable, *args], capture_output=True,
                              env={"PYTHONPATH": src, "PATH": ""}, timeout=120)

    @classmethod
    def _untimed(cls, fmt, data):
        lines = data.splitlines(keepends=True)
        kept = [ln for ln in lines if not ln.startswith(cls.TIMING_LINE[fmt])]
        assert len(kept) == len(lines) - 1
        return b"".join(kept)

    @pytest.mark.parametrize("fmt", ["json", "text", "csv"])
    def test_success_prints_the_in_process_output(self, capsys, fmt):
        argv = ["pure-gaps", "--preset", "hermitian", "--q", "5", "--m", "3", "--format", fmt]
        done = self._run("-m", "wsgap.cli", *argv)
        assert done.returncode == 0 and done.stderr == b""
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        assert self._untimed(fmt, done.stdout) == self._untimed(fmt, out.encode())

    def test_domain_error_exits_one(self):
        done = self._run("-m", "wsgap.cli", "gaps", "--a", "4", "--b", "6")
        assert done.returncode == 1
        assert done.stdout == b"" and done.stderr == b"wsgap: error: gcd(4, 6) != 1\n"

    def test_usage_error_exits_two(self):
        done = self._run("-m", "wsgap.cli", "gaps", "--no-such-option")
        assert done.returncode == 2 and done.stdout == b""
        assert done.stderr.startswith(b"usage: wsgap")
        assert done.stderr.endswith(b"unrecognized arguments: --no-such-option\n")

    def test_failing_verify_exits_one(self):
        # the form of the generated ``wsgap`` script, with the fixtures patched
        script = """
import sys
from wsgap import cli, verify
failing = verify.ConformanceReport([verify.CheckResult("forced", "fixture", False, "no")])
verify.run_fixtures = lambda: failing
sys.argv = ["wsgap", "verify", "--what", "fixtures", "--format", "json"]
sys.exit(cli.run())
"""
        done = self._run("-c", script)
        assert done.returncode == 1 and done.stderr == b""
        payload = json.loads(done.stdout)["payload"]
        assert payload["ok"] is False and payload["checks"][0]["detail"] == "no"
