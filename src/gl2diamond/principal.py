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

An induction depends on its character only through the digits s of that
normal form and its twist t, and t shifts the determinant exponent of every
factor by the same amount.  So the P-family is evaluated once per digit
vector (``_evaluate_P``), and an induction is that evaluation plus the shift
t; ``factor_of_weight`` reads one factor off the evaluation's index without
building the others.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

from .core import (
    DomainError,
    ICharacter,
    Params,
    Weight,
    char_normal_form,
    conjugate_char,
    weight_dim,
)
from .tuples import J_of_lambda, compile_tuple, enumerate_P, evaluate_forms


class PSFactor(NamedTuple):
    weight: Weight
    lam: tuple
    J: frozenset

    @property
    def dim(self) -> int:
        return weight_dim(self.weight)


class InducedJH(NamedTuple):
    """Factors of one induced module, plus the tuples dropped as out of range."""

    factors: tuple
    dropped: tuple

    def by_subset(self, J) -> PSFactor:
        J = frozenset(J)
        for fac in self.factors:
            if fac.J == J:
                return fac
        raise DomainError(f"no surviving factor with J = {set(J)}")

    def weights(self) -> list:
        return [fac.weight for fac in self.factors]

    @property
    def total_dim(self) -> int:
        return sum(fac.dim for fac in self.factors)


@lru_cache(maxsize=None)
def _P_with_J(p: int, f: int) -> tuple:
    """The P-family as pairs (lam, J) and, in the same order, the compiled
    forms at p, shared by every evaluation at this p and f."""
    fam = enumerate_P(f)
    return tuple((lam, J_of_lambda(lam)) for lam in fam), tuple(compile_tuple(lam, p) for lam in fam)


# an entry is about 4 KB at f = 4 and 8 KB at f = 5, so the cache stays a few
# MB; 1024 digit vectors hold every one at p = 5, f = 4
@lru_cache(maxsize=1024)
def _evaluate_P(params: Params, digits: tuple) -> tuple:
    """The P-family at one digit vector: (index, dropped).

    index maps (vals, e mod q-1) to (lam, J) for each tuple lam evaluating
    to vals in range, in enumeration order, e being the normalizing exponent
    before any twist; dropped are the tuples evaluating below 0.  A twist
    shifts every e by the same amount, so the induction is multiplicity free
    exactly when the keys are distinct.
    """
    pairs, forms = _P_with_J(params.p, params.f)
    n = params.q - 1
    index, dropped = {}, []
    # every P-symbol is at most p-1 on a digit, so only a negative value is out of range
    for pair, ev in zip(pairs, evaluate_forms(forms, digits, params.p)):
        if ev is None:
            dropped.append(pair[0])
            continue
        key = (ev[0], ev[1] % n)
        if key in index:
            raise AssertionError(f"induced module at digits {digits} (p={params.p}) is not multiplicity free")
        index[key] = pair
    return index, tuple(dropped)


def jh_of_induced(chi: ICharacter) -> InducedJH:
    """Irreducible constituents of Ind_I^K chi, indexed at the conjugate normal form."""
    par = chi.params
    digits, t = char_normal_form(conjugate_char(chi))
    index, dropped = _evaluate_P(par, digits)
    factors = tuple(PSFactor(Weight(par, vals, e + t), lam, J) for (vals, e), (lam, J) in index.items())
    return InducedJH(factors, dropped)


def factor_of_weight(chi: ICharacter, w: Weight) -> tuple:
    """(lam, J) of the factor of Ind_I^K chi with weight w, by one index lookup."""
    par = chi.params
    digits, t = char_normal_form(conjugate_char(chi))
    index, _ = _evaluate_P(par, digits)
    hit = index.get((w.r, par.mod_qm1(w.twist - t))) if w.params == par else None
    if hit is None:
        raise DomainError(f"{w} is not a factor of the induction of {chi}")
    return hit


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
