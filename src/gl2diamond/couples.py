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

from operator import ne
from typing import NamedTuple

from .core import DomainError, Weight, require_slot


class CoupleType(NamedTuple):
    sign: int
    j: int

    def __str__(self):
        return f"({'+' if self.sign > 0 else '-'}1,{self.j})"


def _template(sigma: Weight, sign: int, j: int):
    """(digits, twist) of the type (sign, j) template applied to sigma, the
    twist not reduced; None when r_{j-1} > p-2 or r_j + sign leaves [0, p-1]."""
    p, r = sigma.params.p, sigma.r
    jm1 = (j - 1) % sigma.params.f
    if r[jm1] > p - 2 or not 0 <= r[j] + sign <= p - 1:
        return None
    s = list(r)
    s[jm1], s[j] = p - 2 - r[jm1], r[j] + sign
    return tuple(s), sigma.twist + p ** jm1 * (r[jm1] + 1) - (p ** j if sign > 0 else 0)


def _partner(sigma: Weight, sign: int, j: int) -> Weight:
    par = sigma.params
    if par.f < 2:
        raise DomainError("couples need f >= 2")
    require_slot(par, j)
    found = _template(sigma, sign, j)
    if found is None:
        raise DomainError(f"{CoupleType(sign, j)} partner of {sigma} is out of range")
    return Weight(par, *found)


def plus_one_partner(sigma: Weight, j: int) -> Weight:
    """The type (+1, j) partner of sigma; requires r_{j-1} <= p-2 and r_j <= p-2."""
    return _partner(sigma, +1, j)


def minus_one_partner(sigma: Weight, j: int) -> Weight:
    """The type (-1, j) partner; requires r_{j-1} <= p-2 and r_j >= 1."""
    return _partner(sigma, -1, j)


def couple_type(sigma: Weight, tau: Weight):
    """Match tau against both templates over all slots; None when nothing fits.

    The templates are compared as digit tuples, without building the partner
    weights.  Both need r_{j-1} <= p-2 and put p-2-r_{j-1} at slot j-1, which
    differs from r_{j-1} as p is odd; both move r_j by one.  So a match moves
    exactly slots j-1 and j, and only such a j is tried.
    """
    par = sigma.params
    if par.f < 2:
        raise DomainError("couples need f >= 2")
    if par != tau.params:
        raise DomainError("weights live over different parameters")
    r, s = sigma.r, tau.r
    if sum(map(ne, r, s)) != 2:
        return None
    for j in range(par.f):
        if r[j - 1] == s[j - 1] or r[j] == s[j]:
            continue
        for sign in (+1, -1):
            found = _template(sigma, sign, j)
            if found is not None and found[0] == s and tau.twist == found[1] % (par.q - 1):
                return CoupleType(sign, j)
    return None
