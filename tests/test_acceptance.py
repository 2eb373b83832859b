"""Acceptance criteria, one test per criterion, each printing a status line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines and timings.  All tolerances are exact: every comparison is equality
of integers, weights, multisets or subsets.
"""

import itertools
import time
from collections import Counter

import numpy as np
import pytest

from gl2diamond.core import (
    Params,
    Weight,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    sigma_s,
)
from gl2diamond.couples import CoupleType, couple_type
from gl2diamond.diamond import (
    GaloisParams,
    d0_factors,
    d0_is_multiplicity_free,
    delta_of_tau,
    diamond_by_subset,
    diamond_set,
    find_special_sigma,
    tau_j_factor,
    verify_combination,
    weight_in_diamond,
    xi_and_J,
)
from gl2diamond.filtration import f2_tables
from gl2diamond.principal import jh_of_induced
from gl2diamond.tuples import S_of_mu
from gl2diamond.oracle.groups import get_context
from gl2diamond.oracle.modules import (
    character_module,
    h_eigen_split,
    induce,
    jh_multiset,
)
from gl2diamond.oracle.vectors import (
    TwistedExtensionInduction,
    e_two_char_module,
    verify_S1_condition,
    verify_e_two_char,
    verify_ej_chain,
    verify_u_generators,
    verify_uplus,
    verify_w_omega,
    verify_witt,
)
from gl2diamond.verify import generic_parameters


def report(num, ok, detail, t0):
    line = f"[criterion {num:>2}] {'PASS' if ok else 'FAIL'}  {detail}  ({time.time() - t0:.1f}s)"
    print(line)
    assert ok, line


def test_criterion_01_jh_crosscheck():
    t0 = time.time()
    total = 0
    ok = True
    for p, f, digit_list in [
        (5, 1, [(r,) for r in range(4)]),
        (5, 2, [(0, 0), (2, 1), (1, 3), (3, 3), (1, 0), (0, 2), (4, 2), (2, 4)]),
    ]:
        par = Params(p, f)
        ctx = get_context(par)
        for r in digit_list:
            for t in (0, 1):
                chi = chi_of_weight(Weight(par, r, t))
                mod = induce(character_module(ctx, conjugate_char(chi)))
                got = jh_multiset(mod)
                want = Counter(jh_of_induced(chi).weights())
                ok = ok and got == want
                total += 1
    fixed = sum(
        1
        for p, f, dl in [(5, 1, [(r,) for r in range(4)]),
                         (5, 2, [(0, 0), (2, 1), (1, 3), (3, 3), (1, 0), (0, 2), (4, 2), (2, 4)])]
        for r in dl
        if chi_of_weight(Weight(Params(p, f), r, 0)).is_conjugation_fixed()
    )
    report(1, ok and total >= 20 and fixed >= 1,
           f"oracle JH of {total} induced characters matches the tuple formula", t0)


def test_criterion_02_dimension_identity():
    t0 = time.time()
    count = 0
    ok = True
    for p in (5, 7):
        for f in (1, 2, 3):
            par = Params(p, f)
            for r in itertools.product(range(1, p - 1), repeat=f):
                jh = jh_of_induced(chi_of_weight(Weight(par, r, 0)))
                ok = ok and jh.total_dim == par.q + 1 and not jh.dropped
                count += 1
    report(2, ok, f"dimension sum q+1 for {count} inductions", t0)


def test_criterion_03_diamond_counts():
    t0 = time.time()
    count = 0
    ok = True
    for p in (5, 7):
        for f in (1, 2, 3):
            for rho in generic_parameters(Params(p, f)):
                ok = ok and len(diamond_set(rho)) == 2 ** f
                ok = ok and d0_is_multiplicity_free(rho)
                count += 1
    # twists shift every weight uniformly; spot-check a few nonzero twists
    for tw in (1, 7):
        rho = GaloisParams(Params(5, 2), False, (2, 1), tw)
        ok = ok and len(diamond_set(rho)) == 4 and d0_is_multiplicity_free(rho)
    report(3, ok, f"2^f weights and multiplicity-free blocks for {count} generic parameters", t0)


def test_criterion_04_f2_table_verbatim():
    t0 = time.time()
    par = Params(7, 2)
    rho = GaloisParams(par, False, (2, 1), 0)
    tab = f2_tables(rho)
    ok = tab.matches_d0
    ok = ok and tab.sigmas == [
        Weight(par, (2, 1), 0),
        Weight(par, (1, 4), 14),
        Weight(par, (4, 3), 16),
        Weight(par, (3, 2), 44),
    ]
    expected_rows = [
        (((3, 0), (3, 4)), (2, 5)),
        (((0, 1), (4, 5)), (5, 0)),
        (((1, 2), (5, 2)), (0, 3)),
        (((2, 3), (2, 3)), (3, 2)),
    ]
    # each base weight's block: the middle and tail digits by |S(mu)|, and delta sends it to the next base weight
    for idx, (mid, tail) in enumerate(expected_rows):
        dw = weight_in_diamond(rho, tab.sigmas[idx])
        facs = d0_factors(rho, dw)
        levels = [sorted(fac.weight.r for fac in facs if len(S_of_mu(fac.mu)) == n) for n in (1, 2)]
        ok = ok and levels == [sorted(mid), [tail]]
        socle = [fac for fac in facs if fac.is_socle]
        ok = ok and delta_of_tau(rho, dw, socle[0]).weight == tab.sigmas[(idx + 1) % 4]
    report(4, ok, "explicit f=2 table, block rows and 4-cycle reproduced", t0)


def test_criterion_05_witt_identities():
    t0 = time.time()
    par = Params(5, 2)
    ctx = get_context(par)
    ok = True
    pairs = 0
    for r in [(2, 1), (1, 3)]:
        chi = chi_of_weight(Weight(par, r, 0))
        for j in (0, 1):
            bundle = TwistedExtensionInduction(ctx, chi, j)
            ok = ok and bundle.W.dim == 52
            rep = verify_witt(bundle)
            ok = ok and rep.passed
            pairs += 1
    report(5, ok and pairs >= 4, f"matrix identities exact for all k in {pairs} inductions of dim 52", t0)


def test_criterion_06_uplus_action():
    t0 = time.time()
    par = Params(5, 2)
    ctx = get_context(par)
    chi = chi_of_weight(Weight(par, (2, 1), 0))
    ok = True
    for j in (0, 1):
        bundle = TwistedExtensionInduction(ctx, chi, j)
        for k in range(par.q):
            rep = verify_uplus(bundle, k)
            ok = ok and rep.passed
    report(6, ok, f"unipotent span basis and membership for all k in [0,{par.q - 1}], both slots", t0)


def test_criterion_07_combination_statements():
    t0 = time.time()
    ok = True
    ncouples = nclauses = 0
    for p in (5, 7):
        for f in (2, 3):
            for rho in generic_parameters(Params(p, f)):
                for dw in diamond_set(rho):
                    for j in range(f):
                        rep = verify_combination(rho, dw, j)
                        ncouples += len(rep.couples)
                        nclauses += len(rep.clauses)
                        ok = ok and rep.passed
    report(7, ok, f"{nclauses} clauses over {ncouples} couples, exhaustive sweep", t0)


def test_criterion_08_special_weight():
    t0 = time.time()
    ok = True
    from gl2diamond.tuples import P1MX, P2MX, XP1

    cases = [
        (Params(5, 3), False, [(2, 1, 1), (1, 0, 2), (3, 2, 0)], (P1MX, XP1, P2MX)),
        (Params(5, 4), True, [(1, 2, 1, 0), (2, 0, 1, 2)], (XP1, P2MX, XP1, P2MX)),
    ]
    for par, red, rs, lam in cases:
        for r in rs:
            rho = GaloisParams(par, red, r, 0)
            sp = find_special_sigma(rho)
            ok = ok and sp.lam == lam
            for j in range(1, par.f):
                fac = tau_j_factor(rho, sp, j)
                ok = ok and couple_type(sp.weight, fac.weight) == CoupleType(+1, j)
                _, J, consistent = xi_and_J(rho, sp, fac)
                ok = ok and consistent and J == frozenset(range(par.f)) - {(j - 2) % par.f}
    report(8, ok, "special weight found and J of its couples is the complement of {j-2}", t0)


def test_criterion_09_w_omega_agreement():
    t0 = time.time()
    par = Params(5, 2)
    ctx = get_context(par)
    chi = chi_of_weight(Weight(par, (2, 1), 0))
    ok = verify_u_generators(ctx, chi).passed
    for j in (0, 1):
        ok = ok and verify_w_omega(TwistedExtensionInduction(ctx, chi, j)).passed
    par1 = Params(5, 1)
    ctx1 = get_context(par1)
    for r0 in (1, 2, 3, 4):
        chi1 = chi_of_weight(Weight(par1, (r0,), 0))
        rep = verify_w_omega(TwistedExtensionInduction(ctx1, chi1, 0))
        memb = [c for c in rep.checks if c["name"].startswith("U(")]
        ok = ok and rep.passed and all(c["expected"] == "True" for c in memb)
    report(9, ok, "spun W_omega contents match the subset criteria; f=1 swallows everything", t0)


def test_criterion_10_structure_modules():
    t0 = time.time()
    ok = True
    # uniserial chains with their character ladder
    par1 = Params(5, 1)
    ctx1 = get_context(par1)
    chi1 = chi_of_weight(Weight(par1, (2,), 0))
    for s in range(par1.p):
        ok = ok and verify_ej_chain(ctx1, chi1, 0, s).passed
    par = Params(5, 2)
    ctx = get_context(par)
    chi = chi_of_weight(Weight(par, (2, 1), 0))
    for j in (0, 1):
        ok = ok and verify_ej_chain(ctx, chi, j, 2).passed

    # glued two-character modules: the f=2 instance
    rho = GaloisParams(par, False, (2, 1), 0)
    tab = f2_tables(rho)
    chi2 = chi_of_weight(tab.sigmas[1])
    chi1s = conjugate_char(chi_of_weight(tab.sigmas[0]))
    mod = e_two_char_module(ctx, chi2, chi1s, 1, rho.r[0])
    ok = ok and verify_e_two_char(mod, chi2, chi1s, 1, rho.r[0]).passed
    chi3 = char_times_alpha_power(chi2, 0, -rho.r[0])
    v = None
    for ch, rows in h_eigen_split(mod, np.eye(mod.dim, dtype=np.int64)):
        if ch == chi3:
            v = rows[0]
    ok = ok and v is not None and verify_S1_condition(mod, v)

    # the odd-f instance built on the special weight and its couple partner
    par3 = Params(5, 3)
    ctx3 = get_context(par3)
    rho3 = GaloisParams(par3, False, (2, 1, 1), 0)
    sp = find_special_sigma(rho3)
    j = 1
    fac = tau_j_factor(rho3, sp, j)
    chi_s = chi_of_weight(sp.weight)
    chi_t = chi_of_weight(fac.weight)
    spl1 = sp.weight.r[(j - 1) % 3] + 1
    mod3 = e_two_char_module(ctx3, chi_s, chi_t, j, spl1)
    ok = ok and verify_e_two_char(mod3, chi_s, chi_t, j, spl1).passed
    cos_char = char_times_alpha_power(chi_s, (j - 1) % 3, -spl1)
    v3 = None
    for ch, rows in h_eigen_split(mod3, np.eye(mod3.dim, dtype=np.int64)):
        if ch == cos_char:
            v3 = rows[0]
    ok = ok and v3 is not None and verify_S1_condition(mod3, v3)
    report(10, ok, "chain ladders, glued modules and the generator condition", t0)
