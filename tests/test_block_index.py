"""The per-parameter block index and the shared P-family evaluation against
brute-force references.

`delta_data` looks the companion weight up in the record of the blocks
built once per parameter, and keeps its answer there, as `xi_and_J` does;
each block evaluates a skeleton of (mu, mu o lam) pairs shared by every
parameter; and `jh_of_induced` and `factor_of_weight` read one evaluation
of the P-family per digit vector.  Each is compared here with the direct
computation it replaced (a block composed tuple by tuple, the whole-family
build of an induction and a linear scan of its factors), over random
characters and random generic parameters with f <= 5 and a few at f = 6.
Every clause of the couple comparisons is checked over random generic
parameters with 2 <= f <= 4.
"""

import re
from collections import Counter

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from gl2diamond import diamond, principal
from gl2diamond.core import (
    DomainError,
    ICharacter,
    Params,
    Weight,
    char_normal_form,
    chi_of_weight,
    conjugate_char,
    sigma_s,
)
from gl2diamond.diamond import (
    D0Factor,
    GaloisParams,
    d0_all,
    d0_factors,
    Y,
    YP1,
    d0_is_multiplicity_free,
    delta_data,
    delta_of_tau,
    diamond_set,
    is_generic,
    lifting_factors,
    verify_combination,
    xi_and_J,
)
from gl2diamond.principal import InducedJH, PSFactor, factor_of_weight, jh_of_induced
from gl2diamond.tuples import (
    J_of_lambda,
    S_of_mu,
    compatible,
    compatible_Imu,
    compose_tuples,
    e_of_lambda,
    enumerate_Imu,
    enumerate_P,
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


def composed_block(rho, sigma):
    """The block of sigma composed mu by mu for this parameter, then sorted."""
    par = rho.params
    mu_base = mu_of_lambda(sigma.lam, rho.reducible)
    out = []
    for mu in compatible_Imu(mu_base):
        comp = compose_tuples(mu, sigma.lam)
        vals = eval_tuple(comp, rho.r, par.p)
        if not in_weight_range(vals, par.p):
            continue
        tw = e_of_lambda(comp, rho.r, par.p) + rho.twist
        out.append(D0Factor(sigma, mu, comp, Weight(par, vals, tw)))
    out.sort(key=lambda fac: (len(S_of_mu(fac.mu)), fac.mu))
    return tuple(out)


def brute_force_delta(rho, factor):
    """The (block, factor) pairs holding tau^[s], by a scan over every block."""
    target = sigma_s(factor.weight)
    return [(dw, fac) for dw in diamond_set(rho) for fac in d0_factors(rho, dw) if fac.weight == target]


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


def whole_family_induction(chi):
    """Ind_I^K chi built tuple by tuple, every P-tuple evaluated into a factor."""
    par = chi.params
    digits, t = char_normal_form(conjugate_char(chi))
    factors, dropped = [], []
    for lam in enumerate_P(par.f):
        vals = eval_tuple(lam, digits, par.p)
        if any(v < 0 for v in vals):
            dropped.append(lam)
            continue
        tw = e_of_lambda(lam, digits, par.p) + t
        factors.append(PSFactor(Weight(par, vals, tw), lam, J_of_lambda(lam)))
    return InducedJH(chi, digits, t, tuple(factors), tuple(dropped))


def scan_by_weight(jh, w):
    """The factor of an induction with weight w, by a linear scan."""
    hits = [fac for fac in jh.factors if fac.weight == w]
    if len(hits) != 1:
        raise DomainError(f"weight {w} occurs {len(hits)} times in the induction")
    return hits[0]


def reference_xi_and_J(rho, sigma, factor):
    """xi_and_J through the whole induction of the conjugate of chi_tau."""
    res = delta_data(rho, sigma, factor)
    ind = whole_family_induction(conjugate_char(chi_of_weight(factor.weight)))
    ps = scan_by_weight(ind, res.target.weight)
    theta = res.mirror.mu
    f = rho.params.f
    j_from_theta = frozenset(i for i in range(f) if theta[i] in (Y, YP1))
    s_theta = S_of_mu(theta)
    j_from_s = frozenset(i for i in range(f) if (i + 1) % f not in s_theta)
    return ps.lam, ps.J, ps.J == j_from_theta == j_from_s


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
    """A weight repeated across two blocks makes delta_data refuse, not pick
    one, on every call: a refusal is not stored in the record."""
    rho = GaloisParams(Params(7, 3), False, (2, 1, 3), 0)
    sigma = diamond_set(rho)[0]
    tau = lifting_factors(rho, sigma)[1]
    mirror = delta_data(rho, sigma, tau)
    other = next(dw for dw in diamond_set(rho) if dw != mirror.target)
    duplicate = D0Factor(other, mirror.mirror.mu, mirror.mirror.composed, mirror.mirror.weight)
    real = diamond._block

    def patched(rho_, sigma_):
        facs = real(rho_, sigma_)
        return facs + (duplicate,) if sigma_ == other else facs

    diamond._blocks.cache_clear()
    monkeypatch.setattr(diamond, "_block", patched)
    try:
        for _ in range(3):
            with pytest.raises(AssertionError, match="found 2 times"):
                delta_data(rho, sigma, tau)
            with pytest.raises(AssertionError, match="found 2 times"):
                xi_and_J(rho, sigma, tau)
        rec = diamond._blocks(rho)
        assert len(rec.by_weight[mirror.mirror.weight]) == 2
        assert not rec.delta and not rec.xi
    finally:
        diamond._blocks.cache_clear()


@st.composite
def small_generic_parameters(draw):
    p = draw(st.sampled_from([5, 7, 11]))
    f = draw(st.integers(1, 4))
    reducible = draw(st.booleans())
    twist = draw(st.integers(0, p ** f - 2))
    lo = 0 if reducible else 1
    hi = p - 3 if reducible or f == 1 else p - 2
    r = (draw(st.integers(lo, hi)), *(draw(st.integers(0, p - 3)) for _ in range(f - 1)))
    rho = GaloisParams(Params(p, f), reducible, r, twist)
    assume(is_generic(rho))
    return rho


@settings(max_examples=60, deadline=None)
@given(small_generic_parameters())
def test_blocks_from_the_skeleton_match_a_direct_build(rho):
    direct = [(dw, composed_block(rho, dw)) for dw in diamond._weight_set(rho)]
    assert list(d0_all(rho).items()) == direct


def lifted_pairs(rho):
    return [(dw, fac) for dw in diamond_set(rho) for fac in lifting_factors(rho, dw)]


REC_RHO = GaloisParams(Params(5, 4), True, (1, 2, 1, 2), 3)


def test_a_combination_sweep_finds_each_delta_and_xi_once(monkeypatch):
    searches, solves = Counter(), Counter()
    real_predict, real_factor = diamond.delta_subset_prediction, diamond.factor_of_weight

    def predict(rho, sigma, factor):
        searches[sigma, factor] += 1
        return real_predict(rho, sigma, factor)

    def factor(chi, w):
        solves[chi, w] += 1
        return real_factor(chi, w)

    diamond._blocks.cache_clear()
    monkeypatch.setattr(diamond, "delta_subset_prediction", predict)
    monkeypatch.setattr(diamond, "factor_of_weight", factor)
    try:
        couples = 0
        for sigma in diamond_set(REC_RHO):
            for j in range(REC_RHO.params.f):
                rep = verify_combination(REC_RHO, sigma, j)
                assert rep.passed
                couples += len(rep.couples)
        # the sweep meets a factor in several couples, yet searches once
        assert 2 * couples > len(searches) > 0
        assert set(searches.values()) == {1}
        assert set(solves.values()) == {1}
        rec = diamond._blocks(REC_RHO)
        assert set(rec.delta) == set(searches) == set(rec.xi)
        assert set(rec.delta) <= set(lifted_pairs(REC_RHO))
        # every lifted factor of the parameter, through the public entry points
        for sigma, fac in lifted_pairs(REC_RHO):
            delta_of_tau(REC_RHO, sigma, fac)
            xi_and_J(REC_RHO, sigma, fac)
        assert set(searches.values()) == {1} and set(solves.values()) == {1}
        assert len(searches) == len(lifted_pairs(REC_RHO))
    finally:
        diamond._blocks.cache_clear()


def test_the_stored_delta_and_xi_equal_a_fresh_computation():
    diamond._blocks.cache_clear()
    for sigma in diamond_set(REC_RHO):
        for j in range(REC_RHO.params.f):
            verify_combination(REC_RHO, sigma, j)
    rec = diamond._blocks(REC_RHO)
    stored_delta, stored_xi = dict(rec.delta), dict(rec.xi)
    assert stored_delta and stored_xi
    diamond._blocks.cache_clear()
    for (sigma, fac), res in stored_delta.items():
        fresh = delta_data(REC_RHO, sigma, fac)
        assert fresh is not res and fresh == res
        assert brute_force_delta(REC_RHO, fac) == [(res.target, res.mirror)]
    for (sigma, fac), out in stored_xi.items():
        assert xi_and_J(REC_RHO, sigma, fac) == out == reference_xi_and_J(REC_RHO, sigma, fac)
    diamond._blocks.cache_clear()


@st.composite
def characters(draw):
    p = draw(st.sampled_from([3, 5, 7, 11]))
    par = Params(p, draw(st.integers(1, 5)))
    a = draw(st.integers(0, par.q - 2))
    # a = b is the conjugation-fixed case, which a random pair almost never hits
    b = a if draw(st.integers(0, 3)) == 0 else draw(st.integers(0, par.q - 2))
    return ICharacter(par, a, b)


@settings(max_examples=200, deadline=None)
@given(characters())
def test_induction_matches_the_whole_family_build(chi):
    ref = whole_family_induction(chi)
    # the same factors in the same order, the same dropped tuples, digits and twist
    assert jh_of_induced(chi) == ref
    for fac in ref.factors:
        assert factor_of_weight(chi, fac.weight) == (fac.lam, fac.J)


@settings(max_examples=200, deadline=None)
@given(characters(), st.integers(1, 3))
def test_lookup_refuses_exactly_what_the_scan_refuses(chi, shift):
    # the weights of the induction of a shifted character are factors here
    # only where the scan finds them
    ref = whole_family_induction(chi)
    other = ICharacter(chi.params, chi.a + shift, chi.b + shift)
    for w in jh_of_induced(other).weights():
        try:
            want = scan_by_weight(ref, w)
        except DomainError:
            with pytest.raises(DomainError):
                factor_of_weight(chi, w)
        else:
            assert factor_of_weight(chi, w) == (want.lam, want.J)


@settings(max_examples=15, deadline=None)
@given(generic_parameters(min_f=2, max_f=5))
def test_xi_and_J_matches_the_whole_induction(rho):
    for dw in diamond_set(rho):
        for fac in lifting_factors(rho, dw):
            assert xi_and_J(rho, dw, fac) == reference_xi_and_J(rho, dw, fac)


def test_a_weight_outside_the_induction_is_refused():
    par = Params(7, 2)
    chi = chi_of_weight(Weight(par, (2, 1), 3))
    inside = jh_of_induced(chi).weights()
    outside = Weight(par, inside[0].r, inside[0].twist + 1)
    assert outside not in inside
    with pytest.raises(DomainError, match=re.escape(f"{outside} is not a factor of the induction of {chi}")):
        factor_of_weight(chi, outside)
    # the same digits and twist over another prime are not a factor either
    foreign = Weight(Params(11, 2), inside[0].r, inside[0].twist)
    with pytest.raises(DomainError):
        factor_of_weight(chi, foreign)


def test_a_repeated_weight_is_refused(monkeypatch):
    """A P-family that repeats a tuple makes the evaluation refuse, not pick one."""
    chi = chi_of_weight(Weight(Params(5, 2), (2, 1), 0))
    fam = enumerate_P(2)

    # _P_with_J also holds the family's compiled forms, so clearing it makes
    # the patched enumerate_P feed the evaluation
    def caches():
        for fn in (principal._P_with_J, principal._evaluate_P):
            fn.cache_clear()

    caches()
    monkeypatch.setattr(principal, "enumerate_P", lambda f: fam + fam[:1])
    try:
        with pytest.raises(AssertionError, match="not multiplicity free"):
            jh_of_induced(chi)
        with pytest.raises(AssertionError, match="not multiplicity free"):
            factor_of_weight(chi, Weight(Params(5, 2), (2, 1), 0))
    finally:
        monkeypatch.undo()
        caches()
