"""Ordered pairs of weights with a nonsplit K-extension of a prescribed shape.

A couple (sigma, tau) of type (+1, j) has tau obtained from sigma by replacing
the digits at slots j-1 and j by p-2-r_{j-1} and r_j+1 and twisting by
det^(p^{j-1}(r_{j-1}+1) - p^j); the type (-1, j) template replaces them by
p-2-r_{j-1} and r_j-1 with twist det^(p^{j-1}(r_{j-1}+1)).  The (-1, j) shape
is the one whose character is chi_tau * alpha^(-p^j) of a (+1, j) partner,
realized on the unique weight of dimension at most q-2 with that character.
Both templates are cyclic in j and require f >= 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from operator import ne

from .core import DomainError, Weight, require_slot


@dataclass(frozen=True)
class CoupleType:
    sign: int
    j: int

    def __str__(self):
        return f"({'+' if self.sign > 0 else '-'}1,{self.j})"


def plus_one_partner(sigma: Weight, j: int) -> Weight:
    """The type (+1, j) partner of sigma; requires r_{j-1} <= p-2 and r_j <= p-2."""
    par = sigma.params
    if par.f < 2:
        raise DomainError("couples need f >= 2")
    require_slot(par, j)
    jm1 = (j - 1) % par.f
    r = list(sigma.r)
    if r[jm1] > par.p - 2 or r[j] > par.p - 2:
        raise DomainError(f"(+1,{j}) partner of {sigma} is out of range")
    r[jm1], r[j] = par.p - 2 - r[jm1], r[j] + 1
    tw = sigma.twist + par.p ** jm1 * (sigma.r[jm1] + 1) - par.p ** j
    return Weight(par, tuple(r), tw)


def minus_one_partner(sigma: Weight, j: int) -> Weight:
    """The type (-1, j) partner; requires r_{j-1} <= p-2 and r_j >= 1."""
    par = sigma.params
    if par.f < 2:
        raise DomainError("couples need f >= 2")
    require_slot(par, j)
    jm1 = (j - 1) % par.f
    r = list(sigma.r)
    if r[jm1] > par.p - 2 or r[j] < 1:
        raise DomainError(f"(-1,{j}) partner of {sigma} is out of range")
    r[jm1], r[j] = par.p - 2 - r[jm1], r[j] - 1
    tw = sigma.twist + par.p ** jm1 * (sigma.r[jm1] + 1)
    return Weight(par, tuple(r), tw)


def couple_type(sigma: Weight, tau: Weight):
    """Match tau against both templates over all slots; None when nothing fits.

    The templates are compared digit by digit, without building the partner
    weights.  Both need r_{j-1} <= p-2 and put p-2-r_{j-1} at slot j-1, which
    differs from r_{j-1} as p is odd; both move r_j by one.  So a match moves
    exactly two slots.
    """
    par = sigma.params
    if par.f < 2:
        raise DomainError("couples need f >= 2")
    if par != tau.params:
        raise DomainError("weights live over different parameters")
    p, f, n = par.p, par.f, par.q - 1
    r, s = sigma.r, tau.r
    if sum(map(ne, r, s)) != 2:
        return None
    for j in range(f):
        jm1 = (j - 1) % f
        a = r[jm1]
        if a > p - 2 or s[jm1] != p - 2 - a:
            continue
        tw = sigma.twist + p ** jm1 * (a + 1)
        if r[j] <= p - 2 and s[j] == r[j] + 1 and tau.twist == (tw - p ** j) % n:
            return CoupleType(+1, j)
        if r[j] >= 1 and s[j] == r[j] - 1 and tau.twist == tw % n:
            return CoupleType(-1, j)
    return None
