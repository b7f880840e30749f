import pytest

import wsgap as w
from wsgap import gapsets as gs

P452 = w.curve_params(4, 5, 2)


class TestSigmaHermitian:
    def test_table(self):
        table = w.sigma_pair(P452)
        assert table.gaps_q1 == (1, 2, 3, 6, 7, 11)
        assert table.gaps_q2 == (1, 2, 3, 6, 7, 11)
        assert table.sigma == (6, 5, 3, 4, 2, 1)
        assert set(table.gamma_pairs) == {(1, 11), (2, 7), (3, 3), (6, 6),
                                          (7, 2), (11, 1)}
        assert len(table.gamma_pairs) == P452.genus

    def test_inversion_count_matches_pure_gaps(self):
        table = w.sigma_pair(P452)
        assert len(table.inversions) == 14
        assert len(w.pure_gaps(P452).pure_gaps) == 14

    def test_literal_definition(self):
        table = w.sigma_pair(P452)
        literal = w.sigma_literal(P452)
        assert literal == tuple(table.gaps_q2[s - 1] for s in table.sigma)
        assert literal == (11, 7, 3, 6, 2, 1)

    def test_pair_formulas_match_generic_methods(self):
        table = w.sigma_pair(P452)
        assert w.sigma_gap_set(table) == w.gaps(P452).gaps
        assert w.sigma_pure_gap_set(table) == w.pure_gaps(P452).pure_gaps


class TestSigmaAsymmetric:
    """a=2, b=5: the second point carries a different gap sequence."""

    def test_second_sequence_differs(self):
        p = w.curve_params(2, 5, 2)
        table = w.sigma_pair(p)
        assert table.gaps_q1 == (1, 3)
        assert table.gaps_q2 == (1, 2)
        assert sorted(table.sigma) == [1, 2]

    def test_pair_formulas_still_match(self):
        p = w.curve_params(2, 5, 2)
        table = w.sigma_pair(p)
        assert w.sigma_gap_set(table) == w.gaps(p).gaps
        assert w.sigma_pure_gap_set(table) == w.pure_gaps(p).pure_gaps
        literal = w.sigma_literal(p)
        assert literal == tuple(table.gaps_q2[s - 1] for s in table.sigma)


@pytest.mark.parametrize("spec", [(3, 4, 2), (5, 7, 2), (3, 8, 2)])
def test_sigma_bijection_sweep(spec):
    p = w.curve_params(*spec)
    table = w.sigma_pair(p)
    g = p.genus
    assert sorted(table.sigma) == list(range(1, g + 1))
    assert len(table.gamma_pairs) == g
    assert len(w.pure_gaps(p).pure_gaps) == len(table.inversions)


def test_sigma_requires_two_points():
    with pytest.raises(w.BadPointCountError):
        w.sigma_pair(w.curve_params(4, 5, 3))
    with pytest.raises(w.BadPointCountError):
        w.sigma_literal(w.curve_params(4, 5, 3))


def _inversions_by_double_loop(table):
    """The pairs (i, j), i < j, with sigma(i) > sigma(j), in order."""
    g = len(table.sigma)
    return tuple((i, j) for i in range(1, g + 1) for j in range(i + 1, g + 1)
                 if table.sigma[i - 1] > table.sigma[j - 1])


@pytest.mark.parametrize("p", [p for p in w.sweep_cells() if p.m == 2]
                         + [w.hermitian_params(q, 2) for q in (16, 32)],
                         ids=lambda p: f"{p.a}-{p.b}")
def test_inversion_rows_spell_the_double_loop(p):
    table = w.sigma_pair(p)
    assert isinstance(table.inversions, w.TupleRows)
    assert table.inversions.tuples == _inversions_by_double_loop(table)
    assert all(lasts for _, lasts in table.inversions.rows())
