import numpy as np
import pytest
from collections import Counter

from gl2diamond.core import (
    Params,
    Weight,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    sigma_s,
)
from gl2diamond.diamond import GaloisParams, diamond_set
from gl2diamond.filtration import f2_tables
from gl2diamond.principal import jh_of_induced
from gl2diamond.oracle.gf import spin
from gl2diamond.oracle.groups import get_context
from gl2diamond.oracle.modules import (
    h_eigen_split,
    jh_multiset,
    socle_series,
    sub_module,
)
from gl2diamond.oracle.vectors import (
    TwistedExtensionInduction,
    chain_induction,
    coset_sum_vector,
    e_two_char_module,
    ej_chain_module,
    quotient_by_non_diamond_socle,
    verify_S1_condition,
    verify_calcul_H,
    verify_e_two_char,
    verify_ej_chain,
    verify_ind_ej,
    verify_u_generators,
    verify_uplus,
    verify_w_omega,
    verify_witt,
)


@pytest.fixture(scope="module")
def ctx51():
    return get_context(Params(5, 1))


@pytest.fixture(scope="module")
def ctx52():
    return get_context(Params(5, 2))


def test_coset_sum_conventions(ctx51):
    q = ctx51.gf.q
    v = np.array([1])
    f0 = coset_sum_vector(ctx51, v, 0)
    assert f0[0] == 1  # the zero coset participates at k = 0
    fq = coset_sum_vector(ctx51, v, q - 1)
    assert fq[0] == 0  # and is dropped at k = q-1
    assert fq[1:q].all()


def test_witt_identities_f1(ctx51):
    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    rep = verify_witt(TwistedExtensionInduction(ctx51, chi, 0))
    assert rep.passed, rep.failures()[:3]


def test_witt_wraparound_branch(ctx51):
    # k = q-1 forces the wrapped index in the lower and diagonal identities
    chi = chi_of_weight(Weight(ctx51.params, (1,), 2))
    rep = verify_witt(TwistedExtensionInduction(ctx51, chi, 0))
    assert rep.passed


def test_calcul_H(ctx51):
    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    q = ctx51.gf.q
    bundle = TwistedExtensionInduction(ctx51, chi, 0)
    rep = verify_calcul_H(bundle, {0: 1, q - 1: 2}, {1: 1, 0: 3})
    assert rep.passed
    rep = verify_calcul_H(bundle, {}, {2: 1})
    assert rep.passed


def test_uplus_digits(ctx52):
    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    bundle = TwistedExtensionInduction(ctx52, chi, 0)
    for k in (0, 3, 7, ctx52.gf.q - 1):
        rep = verify_uplus(bundle, k)
        assert rep.passed, rep.failures()[:3]


def test_uplus_trivial_span(ctx51):
    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    rep = verify_uplus(TwistedExtensionInduction(ctx51, chi, 0), 0)
    assert rep.passed
    # k = 0 span is one-dimensional
    dims = [c for c in rep.checks if c["name"] == "span dimension"]
    assert dims[0]["got"] == "1"


def test_ej_chain(ctx51):
    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    base = chain_induction(ctx51, chi)
    for s in range(0, 5):
        rep = verify_ej_chain(base, chi, 0, s)
        assert rep.passed, (s, rep.failures()[:2])


def test_e_two_char_small(ctx52):
    rho = GaloisParams(ctx52.params, False, (2, 1), 0)
    tab = f2_tables(rho)
    chi2 = chi_of_weight(tab.sigmas[1])
    chi1s = conjugate_char(chi_of_weight(tab.sigmas[0]))
    rep = verify_e_two_char(e_two_char_module(ctx52, chi2, chi1s, 1, rho.r[0]), chi2, chi1s, 1, rho.r[0])
    assert rep.passed, rep.failures()[:3]


def test_S1_condition_character_fails(ctx51):
    from gl2diamond.oracle.modules import character_module

    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    C = character_module(ctx51, chi)
    v = np.array([1])
    assert verify_S1_condition(C, v) is False


def test_S1_condition_glued_module(ctx52):
    rho = GaloisParams(ctx52.params, False, (2, 1), 0)
    tab = f2_tables(rho)
    chi2 = chi_of_weight(tab.sigmas[1])
    chi1s = conjugate_char(chi_of_weight(tab.sigmas[0]))
    mod = e_two_char_module(ctx52, chi2, chi1s, 1, rho.r[0])
    chi3 = char_times_alpha_power(chi2, 0, -rho.r[0])
    assert chi3 == chi_of_weight(tab.sigmas[2])
    v = None
    for ch, rows in h_eigen_split(mod, np.eye(mod.dim, dtype=np.int64)):
        if ch == chi3:
            v = rows[0]
    assert v is not None
    assert verify_S1_condition(mod, v) is True


def test_ind_ej(ctx51):
    chi = chi_of_weight(Weight(ctx51.params, (3,), 0))
    rep = verify_ind_ej(ctx51, chi, 0)
    assert rep.passed, rep.failures()[:3]


def test_u_generators_f1(ctx51):
    for r in (1, 2, 0):
        chi = chi_of_weight(Weight(ctx51.params, (r,), 0))
        rep = verify_u_generators(ctx51, chi)
        assert rep.passed, rep.failures()[:3]


def test_w_omega_f1_full_containment(ctx51):
    for r0 in (1, 2, 3):
        chi = chi_of_weight(Weight(ctx51.params, (r0,), 0))
        rep = verify_w_omega(TwistedExtensionInduction(ctx51, chi, 0))
        assert rep.passed, rep.failures()[:3]
        memb = [c for c in rep.checks if c["name"].startswith("U(")]
        assert memb and all(c["expected"] == "True" for c in memb)


def test_w_omega_f2_one_slot(ctx52):
    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    rep = verify_w_omega(TwistedExtensionInduction(ctx52, chi, 0))
    assert rep.passed, rep.failures()[:3]


def test_w_omega_degenerate_branches(ctx52):
    from gl2diamond.filtration import J_prime

    # nonempty correction subset in the small-digit clause
    chi = chi_of_weight(Weight(ctx52.params, (1, 0), 0))
    assert J_prime(chi, 0) == frozenset({1})
    assert verify_w_omega(TwistedExtensionInduction(ctx52, chi, 0)).passed
    # conjugation-fixed character: the split-bottom criteria
    chi0 = chi_of_weight(Weight(ctx52.params, (0, 0), 0))
    assert verify_w_omega(TwistedExtensionInduction(ctx52, chi0, 0)).passed
    assert verify_u_generators(ctx52, chi0).passed


def test_extension_induction_multiplicity_two(ctx52):
    # the two layers can share a weight: for the digit vector (1, 0) at slot 0
    # the weight (p-2, p-1) x det shows up once in each layer
    par = ctx52.params
    chi = chi_of_weight(Weight(par, (1, 0), 0))
    bundle = TwistedExtensionInduction(ctx52, chi, 0)
    got = jh_multiset(bundle.W)
    expect = Counter(jh_of_induced(conjugate_char(chi)).weights())
    expect.update(jh_of_induced(conjugate_char(bundle.psi)).weights())
    assert got == expect
    assert got[Weight(par, (par.p - 2, par.p - 1), 1)] == 2


def test_upper_image_is_the_odd_coordinates(ctx52):
    # verify_w_omega reads a vector's image modulo the lower layer as its odd
    # coordinates, since the lower layer is spanned by the even unit vectors
    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    bundle = TwistedExtensionInduction(ctx52, chi, 0)
    rows = np.random.default_rng(0).integers(0, ctx52.gf.q, (6, bundle.W.dim))
    reduced = bundle.lower.reduce(rows)[:, bundle.lower.complement_coords()]
    assert (reduced == rows[:, 1::2]).all()


def test_three_layer_image(ctx52):
    # the unique three-step chain: top weight from the table, then the
    # companion of the third base weight, with the fourth base weight below
    par = ctx52.params
    p = par.p
    rho = GaloisParams(par, False, (2, 1), 0)
    tab = f2_tables(rho)
    s3w, s4w = tab.sigmas[2], tab.sigmas[3]
    r0, r1 = rho.r
    omega = Weight(par, (p - 2 - r0, r1 + 3), r0 + p * (p - 2))
    D = {dw.weight for dw in diamond_set(rho)}
    bundle = TwistedExtensionInduction(ctx52, chi_of_weight(s3w), 1)
    fac = next(fac for fac in bundle.jh_upper.factors if fac.weight == omega)
    wspan = spin(ctx52.gf, bundle.W.gen_mats("K"), bundle.w_generator(fac))
    smod = sub_module(bundle.W, wspan)
    img = quotient_by_non_diamond_socle(smod, D - {s3w})
    layers = socle_series(img)
    assert layers == [Counter([s4w]), Counter([sigma_s(s3w)]), Counter([omega])]
    # idempotent and identity on already-clean modules
    again = quotient_by_non_diamond_socle(img, D - {s3w})
    assert again.dim == img.dim
