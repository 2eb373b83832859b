import itertools

import pytest

from gl2diamond.core import (
    DomainError,
    Params,
    Weight,
    chi_of_weight,
    conjugate_char,
    weight_dim,
)
from gl2diamond.principal import U_contents, factor_of_weight, jh_of_induced, socle_of_induced
from gl2diamond.tuples import X


def test_f1_split_example(par51):
    chi = chi_of_weight(Weight(par51, (2,), 0))
    jh = jh_of_induced(chi)
    assert sorted(map(str, jh.weights())) == ["(2)", "(2)*det^2"]
    assert jh.total_dim == par51.q + 1


def test_f2_generic_example(par72):
    chi = chi_of_weight(Weight(par72, (2, 1), 0))
    jh = jh_of_induced(chi)
    assert len(jh.factors) == 4
    assert jh.total_dim == par72.q + 1
    assert not jh.dropped


def test_conjugation_fixed_splits(par52):
    chi = chi_of_weight(Weight(par52, (0, 0), 3))
    jh = jh_of_induced(chi)
    assert len(jh.factors) == 2
    ws = set(jh.weights())
    assert ws == {Weight(par52, (0, 0), 3), Weight(par52, (4, 4), 3)}
    assert set(socle_of_induced(chi)) == ws
    for fac in jh.factors:
        assert U_contents(fac, chi) == {fac}


def test_socle_is_all_identity_tuple(par52):
    for r in [(2, 1), (3, 3), (1, 2)]:
        chi = chi_of_weight(Weight(par52, r, 0))
        (soc,) = socle_of_induced(chi)
        assert factor_of_weight(chi, soc) == ((X,) * par52.f, frozenset())


def test_multiplicity_one_and_dimension_sum():
    for (p, f) in [(5, 1), (5, 2), (7, 2), (5, 3)]:
        par = Params(p, f)
        for r in itertools.product(range(1, p - 1), repeat=f):
            jh = jh_of_induced(chi_of_weight(Weight(par, r, 0)))
            assert jh.total_dim == par.q + 1
            assert not jh.dropped
            ws = jh.weights()
            assert len(set(ws)) == len(ws)


def test_degenerate_digits_drop_factors(par52):
    chi = chi_of_weight(Weight(par52, (1, 0), 0))
    jh = jh_of_induced(chi)
    assert jh.dropped
    # a dropped tuple has a -1 entry, so it contributes zero formal dimension
    # and the dimension identity persists
    assert jh.total_dim == par52.q + 1
    assert len(jh.factors) + len(jh.dropped) == 2 ** par52.f


def test_U_contents_monotone(par72):
    chi = chi_of_weight(Weight(par72, (2, 1), 0))
    jh = jh_of_induced(chi)
    facs = list(jh.factors)
    for f1 in facs:
        for f2 in facs:
            if f1.J <= f2.J:
                assert U_contents(f1, chi) <= U_contents(f2, chi)
    full = [f for f in facs if f.J == frozenset(range(par72.f))]
    assert len(full) == 1
    assert U_contents(full[0], chi) == set(facs)
    soc = jh.by_subset(frozenset())
    assert U_contents(soc, chi) == {soc}


def test_U_contents_rejects_foreign_factor(par72, par52):
    chi7 = chi_of_weight(Weight(par72, (2, 1), 0))
    chi5 = chi_of_weight(Weight(par52, (2, 1), 0))
    foreign = jh_of_induced(chi5).factors[0]
    with pytest.raises(DomainError):
        U_contents(foreign, chi7)
