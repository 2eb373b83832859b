import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond.core import DomainError, Params, Weight, chi_of_weight, sigma_s
from gl2diamond.couples import CoupleType, couple_type, minus_one_partner, plus_one_partner
from gl2diamond.diamond import (
    LIFT_SYMBOLS,
    Y,
    GaloisParams,
    d0_factors,
    d0_is_multiplicity_free,
    delta_data,
    delta_of_tau,
    diamond_by_subset,
    diamond_set,
    ell_decomposition,
    find_special_sigma,
    is_generic,
    lifting_factors,
    plus_one_couples,
    tau_j_factor,
    verify_combination,
    weight_in_diamond,
    xi_and_J,
)
from gl2diamond.tuples import P1MX, P2MX, P3MX, Sym, XP1, delta_irr, delta_red
from gl2diamond.verify import generic_parameters


def test_is_generic():
    par = Params(7, 2)
    assert is_generic(GaloisParams(par, False, (2, 1), 0))
    assert not is_generic(GaloisParams(par, True, (0, 0), 0))
    assert not is_generic(GaloisParams(par, True, (4, 4), 0))
    par3 = Params(5, 3)
    assert is_generic(GaloisParams(par3, False, (1, 0, 0), 0))
    assert not is_generic(GaloisParams(par3, False, (0, 0, 0), 0))


def test_parameter_validation():
    par = Params(5, 2)
    with pytest.raises(DomainError):
        GaloisParams(par, True, (3, 3), 0)  # the excluded constant vector
    with pytest.raises(DomainError):
        GaloisParams(par, True, (4, 0), 0)
    GaloisParams(par, False, (4, 0), 0)  # allowed at index 0 in this case


def test_f1_diamond_sets(par51):
    rho = GaloisParams(par51, False, (2,), 0)
    ws = [dw.weight for dw in diamond_set(rho)]
    assert ws == [Weight(par51, (2,), 0), Weight(par51, (2,), 2)]
    rho = GaloisParams(par51, True, (1,), 0)
    ws = [dw.weight for dw in diamond_set(rho)]
    assert ws == [Weight(par51, (1,), 0), Weight(par51, (1,), 2)]


def test_table_weights(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    by = {tuple(sorted(dw.S)): dw.weight for dw in diamond_set(rho)}
    assert by[()] == Weight(par72, (2, 1), 0)
    assert by[(0,)] == Weight(par72, (1, 4), 14)
    assert by[(0, 1)] == Weight(par72, (4, 3), 16)
    assert by[(1,)] == Weight(par72, (3, 2), 44)


def test_counts_and_multiplicity():
    for p, f in [(5, 1), (5, 2), (5, 3), (7, 2)]:
        for rho in generic_parameters(Params(p, f)):
            dws = diamond_set(rho)
            assert len(dws) == 2 ** f
            assert d0_is_multiplicity_free(rho)


def test_non_generic_raises(par52):
    rho = GaloisParams(par52, True, (0, 0), 0)
    with pytest.raises(DomainError):
        diamond_set(rho)


def test_ell_decomposition(par52):
    rho = GaloisParams(par52, True, (1, 2), 0)
    dec = ell_decomposition(rho)
    assert [len(dec[i]) for i in range(3)] == [1, 2, 1]
    assert sum(len(v) for v in dec.values()) == 4
    with pytest.raises(DomainError):
        ell_decomposition(GaloisParams(par52, False, (2, 1), 0))


def test_d0_block_shape(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    sigma1 = diamond_by_subset(rho, ())
    facs = d0_factors(rho, sigma1)
    rvecs = sorted(fac.weight.r for fac in facs)
    assert rvecs == sorted([(2, 1), (3, 0), (3, 4), (2, 5)])
    socle = [fac for fac in facs if fac.is_socle]
    assert len(socle) == 1 and socle[0].weight == sigma1.weight


def test_delta_four_cycle(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    order = [(), (0,), (0, 1), (1,)]
    weights = [diamond_by_subset(rho, frozenset(s)) for s in order]
    for i, dw in enumerate(weights):
        socle = [fac for fac in d0_factors(rho, dw) if fac.is_socle][0]
        res = delta_data(rho, dw, socle)
        assert res.formula_agrees
        assert res.target.weight == weights[(i + 1) % 4].weight


def test_delta_ground_truth_everywhere():
    for p, f in [(5, 1), (5, 2), (7, 2), (5, 3)]:
        for rho in generic_parameters(Params(p, f)):
            for dw in diamond_set(rho):
                for fac in lifting_factors(rho, dw):
                    res = delta_data(rho, dw, fac)
                    assert res.formula_agrees, (str(rho), sorted(dw.S), fac.mu)
                    # the companion of the factor sits in the predicted block
                    assert res.mirror.weight == sigma_s(fac.weight)


def test_delta_on_socle_is_subset_shift():
    for p, f in [(5, 2), (5, 3)]:
        for rho in generic_parameters(Params(p, f)):
            shift = delta_red if rho.reducible else delta_irr
            for dw in diamond_set(rho):
                socle = [fac for fac in d0_factors(rho, dw) if fac.is_socle][0]
                assert delta_of_tau(rho, dw, socle).S == shift(dw.S, f)


def test_f1_delta_swaps(par51):
    rho = GaloisParams(par51, False, (2,), 0)
    dws = diamond_set(rho)
    for i, dw in enumerate(dws):
        socle = [fac for fac in d0_factors(rho, dw) if fac.is_socle][0]
        assert delta_of_tau(rho, dw, socle) == dws[1 - i]


def test_special_sigma_shapes():
    par = Params(5, 3)
    rho = GaloisParams(par, False, (2, 1, 1), 0)
    sp = find_special_sigma(rho)
    assert sp.lam == (P1MX, XP1, P2MX)
    par4 = Params(5, 4)
    rho4 = GaloisParams(par4, True, (1, 2, 1, 0), 0)
    sp4 = find_special_sigma(rho4)
    assert sp4.lam == (XP1, P2MX, XP1, P2MX)
    with pytest.raises(DomainError):
        find_special_sigma(GaloisParams(Params(5, 2), False, (2, 1), 0))


def test_special_sigma_couples_and_J():
    par = Params(5, 3)
    rho = GaloisParams(par, False, (1, 0, 2), 0)
    sp = find_special_sigma(rho)
    for j in range(1, 3):
        fac = tau_j_factor(rho, sp, j)
        assert couple_type(sp.weight, fac.weight) == CoupleType(+1, j)
        xi, J, consistent = xi_and_J(rho, sp, fac)
        assert consistent
        assert J == frozenset(range(3)) - {(j - 2) % 3}


def test_lift_marks(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    seen = set()
    for dw in diamond_set(rho):
        for fac in d0_factors(rho, dw):
            seen.add((fac.mu, fac.lifts))
    idt = (Sym(1, 0), Sym(1, 0))
    assert (idt, True) in seen
    for mu, lifted in seen:
        assert lifted == all(s in (Sym(1, 0), Sym(1, 1), P2MX, P1MX) for s in mu)
        if any(s == Sym(1, -1) for s in mu):
            assert not lifted


def test_S_plus_minus_containments():
    from gl2diamond.diamond import S_plus_minus

    for p, f in [(5, 2), (5, 3)]:
        for rho in generic_parameters(Params(p, f)):
            for dw in diamond_set(rho):
                for fac in lifting_factors(rho, dw):
                    s_minus, s_plus = S_plus_minus(rho, dw, fac)
                    assert s_minus <= dw.S
                    assert not (s_plus & dw.S)
                    if fac.is_socle:
                        assert s_minus == s_plus == frozenset()


def test_plus_one_couples_located(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    sigma1 = diamond_by_subset(rho, ())
    found = plus_one_couples(rho, sigma1, 0)
    assert len(found) == 1
    t1, t2 = found[0]
    assert t1.is_socle
    assert couple_type(t1.weight, t2.weight) == CoupleType(+1, 0)


def test_verify_combination_smoke(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    for dw in diamond_set(rho):
        for j in range(2):
            rep = verify_combination(rho, dw, j)
            assert rep.passed, [c for c in rep.clauses if not c.passed]


def test_xi_and_J_identity_factor(par72):
    rho = GaloisParams(par72, False, (2, 1), 0)
    for dw in diamond_set(rho):
        socle = [fac for fac in d0_factors(rho, dw) if fac.is_socle][0]
        xi, J, consistent = xi_and_J(rho, dw, socle)
        assert consistent
    # when the companion weight itself belongs to the weight set, the socle
    # factor realizes it as the cosocle of its induction: J is everything
    par = Params(5, 3)
    rho3 = GaloisParams(par, False, (2, 1, 1), 0)
    sp = find_special_sigma(rho3)
    assert weight_in_diamond(rho3, sigma_s(sp.weight)) is not None
    socle = [fac for fac in d0_factors(rho3, sp) if fac.is_socle][0]
    assert delta_of_tau(rho3, sp, socle).weight == sigma_s(sp.weight)
    xi, J, consistent = xi_and_J(rho3, sp, socle)
    assert consistent
    assert J == frozenset(range(3))


def test_block_objects_hash_once_as_generated():
    """DiamondWeight and D0Factor keep the generated hash of their compared
    fields, carry no __dict__, and compare as before; lifts and is_socle are
    plain attributes read off mu."""
    rho = GaloisParams(Params(5, 3), False, (2, 1, 1), 4)
    assert hash(rho) == hash((rho.params, rho.reducible, rho.r, rho.twist))
    for dw in diamond_set(rho):
        assert hash(dw) == hash((dw.weight, dw.lam, dw.S)) and not hasattr(dw, "__dict__")
        assert dw == type(dw)(dw.weight, dw.lam, dw.S)
        for fac in d0_factors(rho, dw):
            assert hash(fac) == hash((fac.base, fac.mu, fac.composed, fac.weight))
            assert not hasattr(fac, "__dict__")
            copy = type(fac)(fac.base, fac.mu, fac.composed, fac.weight)
            assert copy == fac and hash(copy) == hash(fac)
            assert fac.lifts == all(s in LIFT_SYMBOLS for s in fac.mu)
            assert fac.is_socle == all(s == Y for s in fac.mu)
            assert repr(fac).endswith(f"weight={fac.weight!r})")
    res = delta_data(rho, diamond_set(rho)[0], lifting_factors(rho, diamond_set(rho)[0])[0])
    assert not hasattr(res, "__dict__")
    assert not hasattr(verify_combination(rho, diamond_set(rho)[0], 0).clauses[0], "__dict__")


def _plus_one_reference(sigma, j):
    """The (+1, j) template written out: slots j-1, j become p-2-r_{j-1},
    r_j+1 and the twist gains p^{j-1}(r_{j-1}+1) - p^j; None out of range."""
    par = sigma.params
    jm1 = (j - 1) % par.f
    r = list(sigma.r)
    if r[jm1] > par.p - 2 or r[j] > par.p - 2:
        return None
    r[jm1], r[j] = par.p - 2 - r[jm1], r[j] + 1
    return Weight(par, tuple(r), sigma.twist + par.p ** jm1 * (sigma.r[jm1] + 1) - par.p ** j)


def _minus_one_reference(sigma, j):
    """The (-1, j) template: p-2-r_{j-1}, r_j-1 and the twist p^{j-1}(r_{j-1}+1)."""
    par = sigma.params
    jm1 = (j - 1) % par.f
    r = list(sigma.r)
    if r[jm1] > par.p - 2 or r[j] < 1:
        return None
    r[jm1], r[j] = par.p - 2 - r[jm1], r[j] - 1
    return Weight(par, tuple(r), sigma.twist + par.p ** jm1 * (sigma.r[jm1] + 1))


def reference_couple_type(sigma, tau):
    """couple_type through the reference partner weights, slot by slot."""
    for j in range(sigma.params.f):
        if _plus_one_reference(sigma, j) == tau:
            return CoupleType(+1, j)
        if _minus_one_reference(sigma, j) == tau:
            return CoupleType(-1, j)
    return None


@st.composite
def weight_pairs(draw):
    """(sigma, tau) with digits weighted towards 0 and p-1; tau is a random
    weight, a partner of sigma, or a partner with one digit or the twist moved."""
    par = Params(draw(st.sampled_from([3, 5, 7])), draw(st.integers(2, 4)))
    digit = st.one_of(st.sampled_from([0, par.p - 1]), st.integers(0, par.p - 1))
    twist = st.integers(0, par.q - 2)

    def weight():
        return Weight(par, tuple(draw(digit) for _ in range(par.f)), draw(twist))

    sigma = weight()
    partners = []
    for partner in (plus_one_partner, minus_one_partner):
        for j in range(par.f):
            try:
                partners.append(partner(sigma, j))
            except DomainError:  # the template leaves [0, p-1] at this slot
                pass
    kind = draw(st.sampled_from(["random", "partner", "moved"] if partners else ["random"]))
    if kind == "random":
        return sigma, weight()
    tau = draw(st.sampled_from(partners))
    if kind == "moved":
        i = draw(st.integers(0, par.f))
        if i == par.f:
            tau = Weight(par, tau.r, tau.twist + draw(st.integers(1, par.q - 2)))
        else:
            r = list(tau.r)
            r[i] = draw(digit)
            tau = Weight(par, tuple(r), tau.twist)
    return sigma, tau


@settings(max_examples=300, deadline=None)
@given(weight_pairs())
def test_couple_type_matches_the_partner_templates(pair):
    sigma, tau = pair
    assert couple_type(sigma, tau) == reference_couple_type(sigma, tau)
    for build, reference, sign in ((plus_one_partner, _plus_one_reference, "+"),
                                   (minus_one_partner, _minus_one_reference, "-")):
        for j in range(sigma.params.f):
            want = reference(sigma, j)
            if want is None:
                with pytest.raises(DomainError, match=re.escape(f"({sign}1,{j}) partner of {sigma} is out of range")):
                    build(sigma, j)
            else:
                assert build(sigma, j) == want


def test_couple_type_refusals():
    par = Params(5, 1)
    with pytest.raises(DomainError, match="f >= 2"):
        couple_type(Weight(par, (1,), 0), Weight(par, (2,), 0))
    with pytest.raises(DomainError, match="different parameters"):
        couple_type(Weight(Params(5, 2), (1, 1), 0), Weight(Params(7, 2), (1, 1), 0))
