import itertools

import pytest

from gl2diamond.core import (
    DomainError,
    Params,
    Weight,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    sigma_s,
)
from gl2diamond.couples import CoupleType, couple_type, minus_one_partner, plus_one_partner
from gl2diamond.diamond import GaloisParams, d0_factors, diamond_set, weight_in_diamond
from gl2diamond.filtration import (
    NONVANISHING_ALLOWED,
    UNKNOWN,
    VANISHES,
    J_prime,
    example1_filtration,
    ext_vanishing,
    f2_tables,
    v1_s1_filtrations,
    w_contains_U,
    w_contents_two_char,
)
from gl2diamond.principal import jh_of_induced
from gl2diamond.tuples import S_of_mu
from gl2diamond.verify import generic_parameters


def test_couple_templates(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    by = {tuple(sorted(dw.S)): dw.weight for dw in diamond_set(rho)}
    s1, s2, s3, s4 = by[()], by[(0,)], by[(0, 1)], by[(1,)]
    assert couple_type(s1, s4) == CoupleType(+1, 1)
    assert couple_type(s1, s2) == CoupleType(-1, 0)
    assert couple_type(s1, s1) is None
    # character-level consistency of the (+1, j) template
    for j in range(2):
        tau = plus_one_partner(s1, j)
        jm1 = (j - 1) % 2
        expected = char_times_alpha_power(
            chi_of_weight(s1), jm1, -(s1.r[jm1] + 1)
        )
        expected = char_times_alpha_power(expected, j, +1)
        assert chi_of_weight(tau) == expected


def test_J_prime(par52):
    p = par52.p
    # slot digit at least two moves only that slot
    chi = chi_of_weight(Weight(par52, (2, 1), 0))
    assert J_prime(chi, 0) == frozenset()
    # a run of p-1 digits opens up between the slot and the next nonzero
    par = Params(5, 3)
    chi = chi_of_weight(Weight(par, (1, 0, 2), 0))
    assert J_prime(chi, 0) == frozenset({1})


def test_w_contains_U_clauses(par52):
    f = 2
    chi = chi_of_weight(Weight(par52, (2, 1), 0))  # slot-0 digit 2: strict clause
    jh_low = jh_of_induced(conjugate_char(chi))
    psi = char_times_alpha_power(chi, 0, -1)
    jh_up = jh_of_induced(conjugate_char(psi))
    for om in jh_up.factors:
        for tau in jh_low.factors:
            want = tau.J <= om.J | {1}
            assert w_contains_U(om.lam, tau.lam, chi, 0) == want
    # f = 1: everything is swallowed
    par1 = Params(5, 1)
    chi1 = chi_of_weight(Weight(par1, (3,), 0))
    up1 = jh_of_induced(conjugate_char(char_times_alpha_power(chi1, 0, -1)))
    low1 = jh_of_induced(conjugate_char(chi1))
    for om in up1.factors:
        for tau in low1.factors:
            assert w_contains_U(om.lam, tau.lam, chi1, 0)


def test_w_contains_U_conjugation_fixed(par52):
    chi = chi_of_weight(Weight(par52, (0, 0), 0))
    jh_low = jh_of_induced(conjugate_char(chi))
    psi = char_times_alpha_power(chi, 0, -1)
    jh_up = jh_of_induced(conjugate_char(psi))
    comp = [f for f in jh_low.factors if len(f.J) == par52.f][0]
    head = [f for f in jh_low.factors if not f.J][0]
    for om in jh_up.factors:
        assert w_contains_U(om.lam, comp.lam, chi, 0)
        assert w_contains_U(om.lam, head.lam, chi, 0) == (om.J | {1} == {0, 1})


def test_w_contents_two_char_clauses():
    f, j = 3, 1
    assert w_contents_two_char(frozenset(), frozenset(), "sigma", j, f)
    assert w_contents_two_char(frozenset(), frozenset({(j - 2) % f}), "sigma", j, f)
    assert not w_contents_two_char(frozenset(), frozenset({(j - 2) % f}), "tau", j, f)
    assert w_contents_two_char(frozenset({(j - 2) % f}), frozenset({(j - 2) % f}), "tau", j, f)
    with pytest.raises(DomainError):
        w_contents_two_char(frozenset(), frozenset(), "nope", j, f)


def test_ext_vanishing(par72):
    sigma = Weight(par72, (2, 1), 0)
    assert ext_vanishing(sigma, sigma) == VANISHES
    up = Weight(par72, (4, 1), -1 % 48)
    assert ext_vanishing(sigma, up) == VANISHES
    down = Weight(par72, (0, 1), 1)
    assert ext_vanishing(sigma, down) == VANISHES
    partner = plus_one_partner(sigma, 1)
    assert ext_vanishing(sigma, partner) == NONVANISHING_ALLOWED
    unrelated = Weight(par72, (5, 5), 3)
    assert ext_vanishing(sigma, unrelated) == UNKNOWN
    # a self-extension with a digit p-1 is not covered by the criteria
    st = Weight(par72, (6, 6), 0)
    assert ext_vanishing(st, st) == UNKNOWN


@pytest.mark.parametrize("j", [-1, 3])
def test_slot_out_of_range_is_refused(j):
    sigma = Weight(Params(7, 3), (2, 2, 2), 0)
    for build in (plus_one_partner, minus_one_partner, example1_filtration):
        with pytest.raises(DomainError, match=f"j={j} out of range"):
            build(sigma, j)
    with pytest.raises(DomainError, match=f"j={j} out of range"):
        char_times_alpha_power(chi_of_weight(sigma), j, 1)


def test_example1_layer_count_and_coincidences():
    par = Params(7, 3)
    sigma = Weight(par, (2, 2, 2), 0)
    ex = example1_filtration(sigma, 0)
    assert len(ex.layers.layers) == ex.r_pivot + 2
    assert ex.blocks[0][frozenset({2})] == ex.omega
    for _, a, b in ex.coincidences:
        assert a == b
    # every listed weight is a factor of the matching induction level
    chi = chi_of_weight(sigma)
    for i, blk in enumerate(ex.blocks):
        jh = jh_of_induced(conjugate_char(char_times_alpha_power(chi, 2, -i)))
        for J, w in blk.items():
            assert jh.by_subset(J).weight == w


def example1_explicit_weights(sigma: Weight, j: int) -> dict:
    """Closed-form weights of example1_filtration's display, stated for f >= 3."""
    par = sigma.params
    f = par.f
    assert f >= 3
    p = par.p
    jm1, jm2 = (j - 1) % f, (j - 2) % f
    r = list(sigma.r)
    rj1, rj2 = r[jm1], r[jm2]
    t = rj1 // 2
    eta = sigma.twist
    out = {}

    def mk(vals, tw):
        return Weight(par, tuple(vals), tw + eta)

    for i in range(t + 1):
        v = list(r)
        v[jm1] = rj1 - 2 * i
        out[(i, "empty")] = mk(v, p ** jm1 * i)
        if not (rj1 % 2 == 0 and i == t):
            v = list(r)
            v[jm2], v[jm1] = p - 2 - rj2, rj1 - 1 - 2 * i
            out[(i, "jm2")] = mk(v, p ** jm1 * i + p ** jm2 * (rj2 + 1))
        v = list(r)
        v[jm1], v[j] = p - 2 - rj1 + 2 * i, r[j] - 1
        out[(i, "jm1")] = mk(v, p ** jm1 * (rj1 + 1 - i))
        v = list(r)
        v[jm2], v[jm1], v[j] = p - 2 - rj2, p - 1 - rj1 + 2 * i, r[j] - 1
        out[(i, "J")] = mk(v, p ** jm1 * (rj1 - i) + p ** jm2 * (rj2 + 1))
    for i in range(t + 1, rj1 + 1):
        v = list(r)
        v[jm1], v[j] = p + rj1 - 2 * i, r[j] - 1
        out[(i, "empty")] = mk(v, p ** jm1 * i)
        v = list(r)
        v[jm2], v[jm1], v[j] = p - 2 - rj2, p + rj1 - 1 - 2 * i, r[j] - 1
        out[(i, "jm2")] = mk(v, p ** jm1 * i + p ** jm2 * (rj2 + 1))
    return out


def test_example1_explicit_forms_match():
    for (p, f, r, j) in [(7, 3, (2, 3, 1), 0), (5, 3, (2, 2, 1), 1), (7, 4, (1, 2, 3, 2), 2)]:
        par = Params(p, f)
        sigma = Weight(par, r, 0)
        ex = example1_filtration(sigma, j)
        exp = example1_explicit_weights(sigma, j)
        names = {"empty": frozenset(), "jm2": frozenset({(j - 2) % f}),
                 "jm1": frozenset({(j - 1) % f}), "J": frozenset({(j - 1) % f, (j - 2) % f})}
        for (i, tag), w in exp.items():
            assert ex.blocks[i][names[tag]] == w


def test_example1_preconditions():
    par = Params(5, 3)
    with pytest.raises(DomainError):
        example1_filtration(Weight(par, (2, 4, 2), 0), 0)  # slot j-2 digit p-1


def test_f2_tables_and_v1(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    tab = f2_tables(rho)
    assert tab.matches_d0, tab.detail
    assert str(tab.sigmas[1]) == "(1,4)*det^14"
    assert str(tab.sigmas[2]) == "(4,3)*det^16"
    assert str(tab.sigmas[3]) == "(3,2)*det^44"
    # the table's middle digits of the third base weight and tail of the first, read from their blocks

    def level(sigma, n):
        facs = d0_factors(rho, weight_in_diamond(rho, sigma))
        return sorted(fac.weight.r for fac in facs if len(S_of_mu(fac.mu)) == n)

    assert level(tab.sigmas[2], 1) == [(1, 2), (5, 2)]
    assert level(tab.sigmas[0], 2) == [(2, 5)]
    vs = v1_s1_filtrations(rho)
    r0 = rho.r[0]
    assert len(vs.v1.layers) == 2 * r0 + 3
    assert len([l for l in vs.v1.layers]) - 2 == len(vs.s1.layers)
    assert vs.s1.layers == vs.v1.layers[:-2]
    assert vs.taus_outside[0] and not any(vs.taus_outside[1:])
    assert all(ok for _, ok in vs.couple_checks)
    assert vs.taus[1] == sigma_s(tab.sigmas[1])


def test_f2_sweep():
    for p in (5, 7):
        for rho in generic_parameters(Params(p, 2), "irreducible"):
            tab = f2_tables(rho)
            assert tab.matches_d0, (str(rho), tab.detail)


def test_two_char_reproduces_example1_weights():
    # the containment criteria, applied per chain segment as in their proof,
    # reproduce exactly the weights of the two-row display (empty J(omega)):
    # lower levels allow slots {j-2, j-1}, upper-middle levels only {j-2},
    # the top level nothing, and the partner level only {j-1}
    for (p, f, r, j) in [(7, 2, (2, 2), 0), (5, 3, (2, 2, 1), 1), (7, 3, (3, 2, 2), 0)]:
        par = Params(p, f)
        sigma = Weight(par, r, 0)
        ex = example1_filtration(sigma, j)
        listed = sorted(str(w) for w in ex.layers.weights())
        chi = chi_of_weight(sigma)
        jm1 = (j - 1) % f
        admitted = []
        for i in range(ex.r_pivot + 2):
            jh = jh_of_induced(conjugate_char(char_times_alpha_power(chi, jm1, -i)))
            for fac in jh.factors:
                if i <= ex.t:
                    ok = w_contents_two_char(frozenset(), fac.J, "sigma", j, f)
                elif i <= ex.r_pivot:
                    ok = w_contents_two_char(frozenset(), fac.J, "tau", jm1, f)
                else:
                    ok = fac.J == frozenset()
                if ok:
                    admitted.append(fac.weight)
        tau = plus_one_partner(sigma, j)
        jh_tau = jh_of_induced(conjugate_char(chi_of_weight(tau)))
        for fac in jh_tau.factors:
            if w_contents_two_char(frozenset(), fac.J, "tau", j, f):
                admitted.append(fac.weight)
        assert sorted(map(str, admitted)) == listed, (p, f, r, j)
