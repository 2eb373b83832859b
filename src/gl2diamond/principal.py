"""Jordan-Holder content of the induction of a smooth character from I to K.

The induced module is (q+1)-dimensional and multiplicity free; its factors
are the evaluations of the P-family tuples at the digit normal form, with a
normalizing determinant exponent, dropping any tuple that evaluates below 0.
The subset J attached to each factor controls which factors lie in the
unique subrepresentation with a prescribed cosocle.

Convention: ``jh_of_induced(chi)`` describes Ind_I^K chi, but the tuples and
J-subsets are computed at the normal form of the conjugate character, so
they match the usual bookkeeping for an induction written as Ind chi^s.  In
particular the factor with the all-identity tuple (J empty) is the socle.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .core import (
    DomainError,
    ICharacter,
    Weight,
    char_normal_form,
    conjugate_char,
    weight_dim,
)
from .tuples import J_of_lambda, e_of_lambda, enumerate_P, eval_tuple


@dataclass(frozen=True)
class PSFactor:
    weight: Weight
    lam: tuple
    J: frozenset

    @property
    def dim(self) -> int:
        return weight_dim(self.weight)


@dataclass(frozen=True)
class InducedJH:
    """Factors of one induced module, plus the tuples dropped as out of range."""

    chi: ICharacter
    digits: tuple
    eta_exp: int
    factors: tuple
    dropped: tuple = field(default_factory=tuple)

    def by_subset(self, J) -> PSFactor:
        J = frozenset(J)
        for fac in self.factors:
            if fac.J == J:
                return fac
        raise DomainError(f"no surviving factor with J = {set(J)}")

    def by_weight(self, w: Weight) -> PSFactor:
        hits = [fac for fac in self.factors if fac.weight == w]
        if len(hits) != 1:
            raise DomainError(f"weight {w} occurs {len(hits)} times in the induction")
        return hits[0]

    def weights(self) -> list:
        return [fac.weight for fac in self.factors]

    @property
    def total_dim(self) -> int:
        return sum(fac.dim for fac in self.factors)


# callers ask for the same few characters in a row (the couples of one block),
# so a short cache keeps nearly every hit of an unbounded one at a fraction
# of its memory
@lru_cache(maxsize=64)
def jh_of_induced(chi: ICharacter) -> InducedJH:
    """Irreducible constituents of Ind_I^K chi, indexed at the conjugate normal form.

    Cached per character: ICharacter is frozen and the result is immutable.
    """
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
    seen = [f.weight for f in factors]
    if len(set(seen)) != len(seen):
        raise AssertionError(f"induced module of {chi} is not multiplicity free")
    return InducedJH(chi, digits, t, tuple(factors), tuple(dropped))


def socle_of_induced(chi: ICharacter) -> tuple:
    """K-socle of Ind_I^K chi: one weight, or the split pair when chi = chi^s."""
    jh = jh_of_induced(chi)
    if chi.is_conjugation_fixed():
        return tuple(sorted(jh.weights()))
    return (jh.by_subset(frozenset()).weight,)


def U_contents(tau: PSFactor, chi: ICharacter) -> set:
    """Factors of the unique subrepresentation of the induction with cosocle tau."""
    jh = jh_of_induced(chi)
    if tau not in jh.factors:
        raise DomainError(f"{tau.weight} is not a surviving factor of Ind of {chi}")
    if chi.is_conjugation_fixed():
        # the induction splits into its two factors
        return {tau}
    return {f for f in jh.factors if f.J <= tau.J}
