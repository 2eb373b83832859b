"""Serre weights and smooth Iwahori characters for GL2 over an unramified field.

Fix an odd prime p and f >= 1, and put q = p^f.  An irreducible
representation of GL2(F_q) in characteristic p (a *Serre weight*) is
determined by a digit vector (r_0, ..., r_{f-1}) with 0 <= r_i <= p-1,
twisted by a power of the determinant; we keep the twist as an exponent
mod q-1.  A smooth character of the Iwahori subgroup I is trivial on the
pro-p radical I_1 and factors through the diagonal torus over F_q, so it
is a pair of exponents (a, b) mod q-1: the matrix with diagonal reduction
(x, y) acts by x^a y^b.

This module is pure exponent arithmetic: extraction of the Iwahori
character of a weight, the Weyl-conjugate character (swap of the pair),
twists by powers of alpha = (1, -1), digit normal forms, and the
dimension of the space of Iwahori extensions between two characters.
All values are canonical representatives, so equality is literal.  The
records are named tuples of their fields, checked and normalised on
construction, so hash, equality and order are those of the field tuple.  It
also holds the check record that every verification routine fills.
"""

from __future__ import annotations

import math
from typing import NamedTuple


class DomainError(ValueError):
    """A precondition on the mathematical input is violated."""


class CheckReport:
    """The named checks of one instance: rows {name, status, expected, got}."""

    def __init__(self, anchor: str, instance: str):
        self.anchor = anchor
        self.instance = instance
        self.checks = []

    def add(self, name: str, passed, expected="", got=""):
        self.checks.append(
            {"name": name, "status": "pass" if passed else "FAIL",
             "expected": str(expected), "got": str(got)}
        )

    @property
    def passed(self) -> bool:
        return all(c["status"] == "pass" for c in self.checks)

    def failures(self) -> list:
        return [c for c in self.checks if c["status"] != "pass"]


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    d = 2
    while d * d <= n:
        if n % d == 0:
            return False
        d += 1
    return True


class Params(NamedTuple("Params", [("p", int), ("f", int)])):
    """Base parameters: an odd prime p and the residue degree f; q = p^f."""

    __slots__ = ()

    def __new__(cls, p: int, f: int):
        if not _is_prime(p) or p < 3:
            raise DomainError(f"p must be an odd prime, got {p}")
        if f < 1:
            raise DomainError(f"f must be >= 1, got {f}")
        return tuple.__new__(cls, (p, f))

    @property
    def q(self) -> int:
        return self.p ** self.f

    def mod_qm1(self, k: int) -> int:
        return k % (self.q - 1)


class Weight(NamedTuple("Weight", [("params", Params), ("r", tuple), ("twist", int)])):
    """Irreducible GL2(F_q)-weight (r_0,...,r_{f-1}) tensor det^twist."""

    __slots__ = ()

    def __new__(cls, params: Params, r: tuple, twist: int):
        p, f = params
        if len(r) != f:
            raise DomainError(f"digit vector has length {len(r)}, expected f={f}")
        # compared as given, so -0.5 is out of range and "1" a TypeError
        if min(r) < 0 or max(r) > p - 1:
            raise DomainError(f"digits out of range [0, p-1]: {r}")
        return tuple.__new__(cls, (params, tuple(map(int, r)), params.mod_qm1(twist)))

    def __str__(self):
        body = "(" + ",".join(str(ri) for ri in self.r) + ")"
        return body if self.twist == 0 else f"{body}*det^{self.twist}"


class ICharacter(NamedTuple("ICharacter", [("params", Params), ("a", int), ("b", int)])):
    """Smooth Iwahori character, as the exponent pair (a, b) mod q-1."""

    __slots__ = ()

    def __new__(cls, params: Params, a: int, b: int):
        n = params.q - 1
        return tuple.__new__(cls, (params, a % n, b % n))

    def __mul__(self, other: "ICharacter") -> "ICharacter":
        return ICharacter(self.params, self.a + other.a, self.b + other.b)

    def __pow__(self, k: int) -> "ICharacter":
        return ICharacter(self.params, self.a * k, self.b * k)

    def inverse(self) -> "ICharacter":
        return ICharacter(self.params, -self.a, -self.b)

    def is_conjugation_fixed(self) -> bool:
        return self.a == self.b

    def __str__(self):
        return f"chi({self.a},{self.b})"


def trivial_char(params: Params) -> ICharacter:
    return ICharacter(params, 0, 0)


def alpha(params: Params) -> ICharacter:
    """The character of I sending an Iwahori matrix to a*d^-1 over F_q."""
    return ICharacter(params, 1, -1)


def chi_of_weight(sigma: Weight) -> ICharacter:
    """Character of I acting on the (one-dimensional) I_1-invariants of sigma."""
    s = sum(sigma.params.p ** i * ri for i, ri in enumerate(sigma.r))
    return ICharacter(sigma.params, s + sigma.twist, sigma.twist)


def conjugate_char(chi: ICharacter) -> ICharacter:
    """Conjugation by the normalizer element (0,1;p,0): swaps the pair."""
    return ICharacter(chi.params, chi.b, chi.a)


def char_normal_form(chi: ICharacter) -> tuple:
    """Digits (s_0,...,s_{f-1}) and twist t with chi = chi of (s)⊗det^t.

    The digits are the base-p expansion of (a-b) mod q-1, so they are never
    all equal to p-1; if a = b the digit vector is zero.
    """
    par = chi.params
    d = par.mod_qm1(chi.a - chi.b)
    digits = []
    for _ in range(par.f):
        digits.append(d % par.p)
        d //= par.p
    return tuple(digits), chi.b


def weight_of_char(chi: ICharacter) -> Weight:
    """The normal-form weight with this Iwahori character."""
    digits, t = char_normal_form(chi)
    return Weight(chi.params, digits, t)


def weights_of_char(chi: ICharacter) -> set:
    """All weights sigma with chi_sigma = chi; two of them exactly when a = b.

    Callers iterate this set, so its order (set by Weight's hash) is the
    order of the socle Counters printed in the golden jh and womega reports.
    """
    par = chi.params
    out = {weight_of_char(chi)}
    if chi.a == chi.b:
        out.add(Weight(par, (par.p - 1,) * par.f, chi.b))
    return out


def require_slot(params: Params, j: int) -> None:
    """Refuse a slot index j outside [0, f-1]."""
    if not 0 <= j <= params.f - 1:
        raise DomainError(f"j={j} out of range [0, f-1] = [0, {params.f - 1}]")


def char_times_alpha_power(chi: ICharacter, j: int, k: int) -> ICharacter:
    """chi * alpha^(k p^j); cyclic in j."""
    par = chi.params
    require_slot(par, j)
    step = k * par.p ** j
    return ICharacter(par, chi.a + step, chi.b - step)


def sigma_s(sigma: Weight) -> Weight:
    """The companion weight whose Iwahori character is the conjugate one.

    For (r)⊗det^t this is (p-1-r_0,...,p-1-r_{f-1})⊗det^(t + sum p^i r_i).
    """
    par = sigma.params
    r2 = tuple(par.p - 1 - ri for ri in sigma.r)
    t2 = sigma.twist + sum(par.p ** i * ri for i, ri in enumerate(sigma.r))
    return Weight(par, r2, t2)


def weight_dim(sigma: Weight) -> int:
    return math.prod(ri + 1 for ri in sigma.r)


def weight_dual(sigma: Weight) -> Weight:
    """Contragredient weight: same digits, twist negated through the digit sum."""
    par = sigma.params
    s = sum(par.p ** i * ri for i, ri in enumerate(sigma.r))
    return Weight(par, sigma.r, -sigma.twist - s)


def ext1_dim_I(chi_prime: ICharacter, chi: ICharacter, level: str = "Z1") -> tuple:
    """Dimension of the Iwahori extensions of chi_prime by chi, with witness.

    level "Z1": nonzero iff chi_prime = chi * alpha^(±p^j); returns
    (1, sign, j) for the matching twist, preferring sign -1 when both match.
    level "K1": only the sign -1 twists count.
    Returns (0, None, None) otherwise.
    """
    if level not in ("Z1", "K1"):
        raise DomainError(f"level must be 'Z1' or 'K1', got {level!r}")
    par = chi.params
    target = (par.mod_qm1(chi_prime.a - chi.a), par.mod_qm1(chi_prime.b - chi.b))
    for sign in (-1, +1):
        if sign == +1 and level == "K1":
            continue
        for j in range(par.f):
            # alpha^(sign p^j) has the exponent pair (sign p^j, -sign p^j)
            step = sign * par.p ** j
            if (par.mod_qm1(step), par.mod_qm1(-step)) == target:
                return (1, sign, j)
    return (0, None, None)
