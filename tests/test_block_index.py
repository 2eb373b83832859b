"""The per-parameter block index against brute-force references.

`delta_data` looks the companion weight up in an index built once per
parameter, `d0_factors` walks a cached list of compatible mu-tuples and
`jh_of_induced` is cached per character.  Each is compared here with the
direct computation it replaced, over random generic parameters with f <= 5
and a few at f = 6.  Every clause of the couple comparisons is checked over
random generic parameters with 2 <= f <= 4.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond import diamond
from gl2diamond.core import Params, Weight, chi_of_weight, conjugate_char, sigma_s
from gl2diamond.diamond import (
    D0Factor,
    GaloisParams,
    d0_all,
    d0_factors,
    d0_is_multiplicity_free,
    delta_data,
    diamond_set,
    is_generic,
    lifting_factors,
    verify_combination,
)
from gl2diamond.principal import jh_of_induced
from gl2diamond.tuples import (
    S_of_mu,
    compatible,
    compose_tuples,
    e_of_lambda,
    enumerate_Imu,
    eval_tuple,
    in_weight_range,
    mu_of_lambda,
)


@st.composite
def generic_parameters(draw, min_f=1, max_f=5):
    p = draw(st.sampled_from([5, 7, 11, 13]))
    f = draw(st.integers(min_f, max_f))
    reducible = draw(st.booleans())
    rest = [draw(st.integers(0, p - 3)) for _ in range(f - 1)]
    # (p-2,) is excluded, so an irreducible r_0 = p-2 needs f > 1
    first = draw(st.integers(0, p - 3) if reducible else st.integers(1, p - 2 if f > 1 else p - 3))
    twist = draw(st.integers(0, p ** f - 2))
    rho = GaloisParams(Params(p, f), reducible, (first, *rest), twist)
    if not is_generic(rho):  # only the two constant reducible vectors
        rho = GaloisParams(Params(p, f), False, (1,) * f, twist)
    return rho


def brute_force_delta(rho, factor):
    """The (block, factor) pairs holding tau^[s], by a scan over every block."""
    target = sigma_s(factor.weight)
    return [(dw, fac) for dw, facs in d0_all(rho).items() for fac in facs if fac.weight == target]


def unfiltered_block(rho, sigma):
    """The block of sigma from every mu-tuple of the family, each tested for compatibility."""
    par = rho.params
    mu_base = mu_of_lambda(sigma.lam, rho.reducible)
    out = []
    for mu in enumerate_Imu(par.f):
        if not compatible(mu, mu_base):
            continue
        comp = compose_tuples(mu, sigma.lam)
        vals = eval_tuple(comp, rho.r, par.p)
        if in_weight_range(vals, par.p):
            tw = e_of_lambda(comp, rho.r, par.p) + rho.twist
            out.append(D0Factor(sigma, mu, comp, Weight(par, vals, tw)))
    out.sort(key=lambda fac: (len(S_of_mu(fac.mu)), fac.mu))
    return tuple(out)


def check_index(rho, stride=1):
    """Every property of the index at one parameter; stride thins the delta scan."""
    dws = diamond_set(rho)
    assert len(dws) == 2 ** rho.params.f
    assert d0_is_multiplicity_free(rho)
    lifted = []
    for dw in dws:
        assert d0_factors(rho, dw) == unfiltered_block(rho, dw)
        assert lifting_factors(rho, dw) == [fac for fac in d0_factors(rho, dw) if fac.lifts]
        lifted.extend((dw, fac) for fac in lifting_factors(rho, dw))
    for dw, fac in lifted[::stride]:
        res = delta_data(rho, dw, fac)
        assert brute_force_delta(rho, fac) == [(res.target, res.mirror)]
        chi = conjugate_char(chi_of_weight(fac.weight))
        assert jh_of_induced(chi) == jh_of_induced.__wrapped__(chi)
        assert jh_of_induced(chi) is jh_of_induced(chi)


@settings(max_examples=30, deadline=None)
@given(generic_parameters())
def test_block_index_matches_brute_force(rho):
    check_index(rho)


@settings(max_examples=30, deadline=None)
@given(generic_parameters(min_f=2, max_f=4))
def test_every_couple_clause_passes(rho):
    for sigma in diamond_set(rho):
        for j in range(rho.params.f):
            failed = [cl for cl in verify_combination(rho, sigma, j).clauses if not cl.passed]
            assert not failed, (str(sigma.weight), j, failed)


@pytest.mark.parametrize(
    "p,reducible,r",
    [(5, False, (1, 0, 2, 2, 0, 1)), (5, True, (2, 0, 1, 0, 2, 1)), (7, False, (3, 4, 0, 1, 2, 4))],
)
def test_block_index_at_f6(p, reducible, r):
    check_index(GaloisParams(Params(p, 6), reducible, r, 1), stride=17)


def test_delta_guard_survives_the_index(monkeypatch):
    """A weight repeated across two blocks makes delta_data refuse, not pick one."""
    rho = GaloisParams(Params(7, 3), False, (2, 1, 3), 0)
    sigma = diamond_set(rho)[0]
    tau = lifting_factors(rho, sigma)[1]
    mirror = delta_data(rho, sigma, tau)
    other = next(dw for dw in diamond_set(rho) if dw != mirror.target)
    duplicate = D0Factor(other, mirror.mirror.mu, mirror.mirror.composed, mirror.mirror.weight)
    real = d0_factors

    def patched(rho_, sigma_):
        facs = real(rho_, sigma_)
        return facs + (duplicate,) if sigma_ == other else facs

    diamond._block_index.cache_clear()
    monkeypatch.setattr(diamond, "d0_factors", patched)
    try:
        with pytest.raises(AssertionError, match="found 2 times"):
            delta_data(rho, sigma, tau)
    finally:
        diamond._block_index.cache_clear()
