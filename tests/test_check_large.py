"""``scripts/check_large.py``: its per-curve check and its seeded cells."""

import importlib.util
import math
from pathlib import Path

import pytest

import wsgap as w
from wsgap import cli, core
from wsgap import gapsets as gs

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "check_large.py"


@pytest.fixture(scope="module")
def check_large():
    spec = importlib.util.spec_from_file_location("check_large", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


CURVES = [w.hermitian_params(4, 3), w.curve_params(4, 5, 2)]


@pytest.mark.parametrize("p", CURVES, ids=str)
def test_check_passes_and_times_every_part(check_large, p):
    bad, times = check_large.check(p)
    assert bad == []
    assert list(times) == [*w.verify.PROPERTY_CHECKS, "oracle", "counts", "rendering"]


@pytest.mark.parametrize("p", CURVES, ids=str)
def test_subset_run_times_only_its_checks(check_large, p):
    # no render check unless every property check runs
    bad, times = check_large.check(p, checks=("witnesses", "pure-methods"))
    assert bad == []
    assert list(times) == ["witnesses", "pure-methods", "oracle", "counts"]


def test_oracle_only_run(check_large):
    bad, times = check_large.check(w.curve_params(4, 5, 2), checks=())
    assert bad == []
    assert list(times) == ["oracle", "counts"]


def test_count_only_run(check_large):
    bad, times = check_large.count_only(w.hermitian_params(4, 4))
    assert bad == []
    assert list(times) == ["counts"]


@pytest.mark.parametrize("p", CURVES, ids=str)
def test_check_reports_a_wrong_count(check_large, monkeypatch, p):
    real = gs.gap_counts
    monkeypatch.setattr(gs, "gap_counts", lambda params: (real(params)[0] + 1, real(params)[1]))
    assert any(line.startswith("gap_counts ") for line in check_large.count_only(p)[0])
    if p.m == 2:
        monkeypatch.setattr(gs, "gap_counts", lambda params: (real(params)[0],
                                                              real(params)[1] - 1))
        assert any("inversions of sigma" in line for line in check_large.count_only(p)[0])


def test_render_check_reads_the_streamed_rows(check_large, monkeypatch):
    """The render check prints the rows of the report through the
    command line's emitters: a row they drop shows in every format."""
    p = w.hermitian_params(4, 3)
    real = cli._render_rows

    def drop_first(rows, *args):
        rendered = real(rows, *args)
        next(rendered)
        return rendered

    monkeypatch.setattr(cli, "_render_rows", drop_first)
    bad = check_large.check_rendering(p, w.gaps(p))
    assert bad == [f"{fmt} envelope of {key} differs from the per-tuple encoding"
                   for key in ("gaps", "pure_gaps") for fmt in cli._EMITTERS]


@pytest.mark.parametrize("p", CURVES, ids=str)
def test_check_reports_a_dropped_route_tuple(check_large, monkeypatch, p):
    real = gs._route_walk

    def drop_one(params, method, include_zero_family):
        rows = real(params, method, include_zero_family)
        if method != "union_nabla":
            return rows
        tuples = [prefix + (v,) for prefix, lasts in rows for v in lasts]
        return w.TupleRows.of(tuples[1:]).rows()

    monkeypatch.setattr(gs, "_route_walk", drop_one)
    bad, _ = check_large.check(p)
    prefix = f"a{p.a}-b{p.b}-m{p.m}:"
    assert any(line.startswith(prefix + "gap-methods-agree:union_nabla: missing=")
               for line in bad), bad


def test_seeded_cells_repeat_and_stay_outside_the_box(check_large):
    cells = check_large.seeded_cells(7)
    assert cells == check_large.seeded_cells(7)
    assert len(cells) == len(set(cells)) == 12
    for p in cells:
        assert math.gcd(p.a, p.b) == 1 and p.a != p.b
        assert not (p.a <= 5 and p.b <= 9)
        assert 2 <= p.m <= min(4, p.a + 1)
        assert (2 * p.genus) ** p.m <= 10**7


def test_each_curve_starts_with_empty_caches(check_large, monkeypatch, capsys):
    """``main`` empties every per-curve cache once a curve is done."""
    filled = []

    def fill(p, seed):
        filled.append([f.__name__ for f in core.CURVE_CACHES if f.cache_info().currsize])
        w.gaps(p)
        return [], {}

    monkeypatch.setattr(check_large, "seeded_cells", lambda seed: CURVES)
    monkeypatch.setattr(check_large, "check", fill)
    core.clear_curve_caches()
    assert check_large.main(["--seed", "1"]) == 0
    assert filled == [[], []]
    assert all(f.cache_info().currsize == 0 for f in core.CURVE_CACHES)
    assert "2/2 curves agree" in capsys.readouterr().out
