"""Submodule-content criteria and explicit socle-filtration displays.

Given a weight sigma with Iwahori character chi and a slot j, the induction
of the twisted two-dimensional Iwahori extension carries, for every factor
omega of its top induced layer, a unique subrepresentation with cosocle
omega.  Which factors of the bottom layer it swallows is decided purely by
the J-subsets; this module implements those criteria, the analogous
criteria for the longer chains attached to a (+1, j) couple, and the
explicit two-row filtration displays they produce, including the complete
description available when f = 2 and the parameter is irreducible.

Filtration displays are combinatorial data about weights, not theorems
about an ambient representation; the exact-arithmetic oracle is the place
where the module-theoretic statements are checked.
"""

from __future__ import annotations

from typing import NamedTuple

from .core import (
    DomainError,
    ICharacter,
    Weight,
    char_normal_form,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    require_slot,
    sigma_s,
    weight_dim,
)
from .couples import CoupleType, couple_type, plus_one_partner
from .diamond import GaloisParams, d0_factors, delta_of_tau, is_generic, weight_in_diamond
from .principal import jh_of_induced
from .tuples import J_of_lambda, S_of_mu

VANISHES = "vanishes-by-criteria"
NONVANISHING_ALLOWED = "nonvanishing-allowed"
UNKNOWN = "unknown"


class FiltrationLayers(NamedTuple):
    """Ordered socle-filtration display: one list of weights per layer."""

    layers: list

    def weights(self) -> list:
        return [w for layer in self.layers for w in layer]

    def render(self) -> str:
        parts = []
        for layer in self.layers:
            parts.append(" + ".join(str(w) for w in layer))
        return " -- ".join(parts)


def J_prime(chi: ICharacter, j: int) -> frozenset:
    """Slots where the alpha^(-p^j) twist turns a zero digit into p-1."""
    par = chi.params
    digits, _ = char_normal_form(chi)
    digits2, _ = char_normal_form(char_times_alpha_power(chi, j, -1))
    return frozenset(
        i for i in range(par.f) if digits2[i] == par.p - 1 and digits[i] == 0
    )


def epsilon_generator(psi: ICharacter, omega_weight: Weight) -> int:
    """Correction term marker for the canonical generator of W_omega."""
    return 1 if psi.is_conjugation_fixed() and weight_dim(omega_weight) == 1 else 0


def w_contains_U(theta: tuple, lam: tuple, chi: ICharacter, j: int) -> bool:
    """Does W_omega contain the unique sub with cosocle tau, by subsets only.

    theta indexes omega inside the induction of the conjugate of
    chi*alpha^(-p^j); lam indexes tau inside the induction of the conjugate
    of chi.  The applicable clause depends on f, on whether chi is fixed by
    conjugation, and on the digit of chi at slot j.
    """
    par = chi.params
    f = par.f
    if f == 1:
        return True
    digits, _ = char_normal_form(chi)
    jm1 = (j - 1) % f
    J_theta = J_of_lambda(theta)
    J_lam = J_of_lambda(lam)
    if chi.is_conjugation_fixed():
        # bottom layer splits into sigma (all-identity tuple) and its companion
        if len(J_lam) == f:
            return True
        if not J_lam:
            return J_theta | {jm1} == frozenset(range(f))
        raise DomainError("for a conjugation-fixed character tau must be one of the two factors")
    if digits[j] >= 2:
        return J_lam <= J_theta | {jm1}
    return J_lam <= J_theta | J_prime(chi, j) | {j, jm1}


def w_contents_two_char(
    J_omega: frozenset, J_factor: frozenset, side: str, j: int, f: int
) -> bool:
    """Containment criterion in the induced chain of a (+1, j) couple.

    side "sigma": factors of the induction attached to the couple's first
    weight, swallowed iff J(factor) is within J(omega) plus slots j-2, j-1;
    side "tau": factors of the second weight's induction, with only j-1 free.
    """
    jm1, jm2 = (j - 1) % f, (j - 2) % f
    if side == "sigma":
        return frozenset(J_factor) <= frozenset(J_omega) | {jm2, jm1}
    if side == "tau":
        return frozenset(J_factor) <= frozenset(J_omega) | {jm1}
    raise DomainError(f"side must be 'sigma' or 'tau', got {side!r}")


def ext_vanishing(sigma: Weight, tau: Weight) -> str:
    """Sufficient vanishing criteria for K-extensions between two weights."""
    par = sigma.params
    if par.f < 2:
        raise DomainError("the extension criteria are for f >= 2")
    p = par.p
    r = sigma.r
    if sigma == tau and all(ri <= p - 2 for ri in r):
        return VANISHES
    for j in range(par.f):
        jm1 = (j - 1) % par.f
        if r[jm1] > p - 2:
            continue
        if r[j] <= p - 3:
            up = list(r)
            up[j] += 2
            if tau == Weight(par, tuple(up), sigma.twist - p ** j):
                return VANISHES
        if r[j] >= 2:
            down = list(r)
            down[j] -= 2
            if tau == Weight(par, tuple(down), sigma.twist + p ** j):
                return VANISHES
    if couple_type(sigma, tau) is not None:
        return NONVANISHING_ALLOWED
    return UNKNOWN


class Example1Filtration(NamedTuple):
    sigma: Weight
    tau: Weight
    j: int
    t: int
    r_pivot: int                       # the digit of sigma at slot j-1
    blocks: list                       # per twist level i: dict subset -> Weight
    omega: Weight
    layers: FiltrationLayers           # r_pivot + 2 column blocks
    coincidences: list                 # (name, entry, partner) wrap-around identities


def _induction_levels(sigma: Weight, j: int, count: int) -> list:
    """The inductions of the conjugates of chi_sigma * alpha^(-p^(j-1) i)."""
    chi = chi_of_weight(sigma)
    jm1 = (j - 1) % sigma.params.f
    out = []
    for i in range(count):
        psi = char_times_alpha_power(chi, jm1, -i)
        out.append(jh_of_induced(conjugate_char(psi)))
    return out


def example1_filtration(sigma: Weight, j: int) -> Example1Filtration:
    """Socle filtration display of W_omega for the J-empty omega of the chain.

    Needs the slot j-2 digit of sigma below p-1 so every listed factor
    survives; the couple partner tau must exist.  Layers are column blocks:
    one per twist level i in [0, r], then the final column omega / sigma / tau.
    """
    par = sigma.params
    f = par.f
    if f < 2:
        raise DomainError("the display needs f >= 2")
    require_slot(par, j)
    jm1, jm2 = (j - 1) % f, (j - 2) % f
    r_pivot = sigma.r[jm1]
    if sigma.r[jm2] == par.p - 1:
        raise DomainError("slot j-2 digit equal to p-1 drops listed factors")
    tau = plus_one_partner(sigma, j)
    t = r_pivot // 2
    levels = _induction_levels(sigma, j, r_pivot + 2)
    SETS = [frozenset(), frozenset({jm2}), frozenset({jm1}), frozenset({jm1, jm2})]

    blocks = []
    for i in range(r_pivot + 1):
        wanted = SETS if i <= t else SETS[:2]
        blk = {}
        for J in wanted:
            if i == t and r_pivot % 2 == 0 and J == frozenset({jm2}):
                continue
            blk[J] = levels[i].by_subset(J).weight
        blocks.append(blk)
    omega = levels[r_pivot + 1].by_subset(frozenset()).weight

    layers = []
    for i, blk in enumerate(blocks):
        if i <= t:
            order = [SETS[2], SETS[3], SETS[0], SETS[1]]
        else:
            order = [SETS[0], SETS[1]]
        layers.append([blk[J] for J in order if J in blk])
    layers.append([omega, sigma, tau])

    # The two wrap-around identities: the partner of the slot-(j-1) entry at
    # level i sits at level r+1-i (forced by the closed forms: matching both
    # the digit and the twist needs k = r+1-i).
    coincidences = [("omega-at-start", blocks[0].get(frozenset({jm1})), omega)]
    for i in range(1, t + 1):
        coincidences.append(
            (f"wrap-{i}", blocks[i].get(frozenset({jm1})), blocks[r_pivot + 1 - i].get(frozenset()))
        )
        coincidences.append(
            (
                f"wrap-J-{i}",
                blocks[i - 1].get(frozenset({jm1, jm2})),
                blocks[r_pivot + 1 - i].get(frozenset({jm2})),
            )
        )
    return Example1Filtration(
        sigma, tau, j, t, r_pivot, blocks, omega, FiltrationLayers(layers), coincidences
    )


class F2Tables(NamedTuple):
    sigmas: list
    detail: str                # the mismatches with the blocks, "; "-joined

    @property
    def matches_d0(self) -> bool:
        return not self.detail


def f2_sigmas(rho: GaloisParams) -> list:
    """The four base weights of the f = 2 irreducible table, in closed form."""
    par = rho.params
    if par.f != 2 or rho.reducible:
        raise DomainError("the closed-form table is for f = 2 irreducible parameters")
    if not is_generic(rho):
        raise DomainError(f"{rho} is not generic")
    p = par.p
    r0, r1 = rho.r
    tw = rho.twist
    return [
        Weight(par, (r0, r1), tw),
        Weight(par, (r0 - 1, p - 2 - r1), p * (r1 + 1) + tw),
        Weight(par, (p - 1 - r0, p - 3 - r1), r0 + p * (r1 + 1) + tw),
        Weight(par, (p - 2 - r0, r1 + 1), r0 + p * (p - 1) + tw),
    ]


def f2_tables(rho: GaloisParams) -> F2Tables:
    """Closed-form weight table for f = 2 irreducible generic parameters."""
    sigmas = f2_sigmas(rho)
    p = rho.params.p
    r0, r1 = rho.r
    middles = [
        ((p - 2 - r0, r1 - 1), (r0 + 1, p - 2 - r1)),
        ((r0 - 2, r1), (p - 1 - r0, p - 1 - r1)),
        ((r0 - 1, p - 4 - r1), (p - r0, r1 + 1)),
        ((p - 3 - r0, p - 3 - r1), (r0, r1 + 2)),
    ]
    tails = [
        (p - 3 - r0, p - 1 - r1),
        (p - r0, r1 - 1),
        (r0 - 2, r1 + 2),
        (r0 + 1, p - 4 - r1),
    ]

    dws = [weight_in_diamond(rho, w) for w in sigmas]
    if any(dw is None for dw in dws):
        return F2Tables(sigmas, "a table weight is not in the weight set")

    detail = []
    for idx, dw in enumerate(dws):
        facs = d0_factors(rho, dw)
        in_range = lambda v: all(0 <= x <= p - 1 for x in v)
        expect = {
            0: [sigmas[idx].r],
            1: [v for v in middles[idx] if in_range(v)],
            2: [tails[idx]] if in_range(tails[idx]) else [],
        }
        got = {0: [], 1: [], 2: []}
        for fac in facs:
            got[len(S_of_mu(fac.mu))].append(fac.weight.r)
        for level in (0, 1, 2):
            if sorted(expect[level]) != sorted(got[level]):
                detail.append(f"row {idx+1} level {level}: expected {expect[level]}, got {got[level]}")
        socle = [fac for fac in facs if fac.is_socle]
        delta = delta_of_tau(rho, dw, socle[0])
        target = sigmas[(idx + 1) % 4]
        if delta.weight != target:
            detail.append(f"delta of base {idx+1} is {delta.weight}, expected {target}")
    return F2Tables(sigmas, "; ".join(detail))


class V1S1(NamedTuple):
    taus: list                 # tau_0 .. tau_{r0}
    v1: FiltrationLayers
    s1: FiltrationLayers
    taus_outside: list         # flags: tau_i not in the weight set, i >= 1
    couple_checks: list


def v1_s1_filtrations(rho: GaloisParams) -> V1S1:
    """The two explicit filtrations attached to the f = 2 irreducible table."""
    s1w, s2w, s3w, s4w = f2_sigmas(rho)
    r0 = rho.r[0]
    taus = [s3w]
    for _ in range(r0):
        taus.append(plus_one_partner(taus[-1], 0))
    if taus[1] != sigma_s(s2w):
        raise AssertionError("tau_1 is not the companion of the second base weight")
    chain = [[t] for t in taus] + [[taus[i]] for i in range(r0 - 1, -1, -1)]
    v1 = FiltrationLayers([list(l) for l in chain] + [[s4w], [s1w]])
    s1 = FiltrationLayers([list(l) for l in chain])
    outside = [weight_in_diamond(rho, t) is not None for t in taus]
    couple_checks = [("sigma1-sigma4", couple_type(s1w, s4w) == CoupleType(+1, 1))]
    for i in range(r0):
        couple_checks.append((f"tau{i}-tau{i+1}", couple_type(taus[i], taus[i + 1]) == CoupleType(+1, 0)))
    return V1S1(taus, v1, s1, outside, couple_checks)
