"""Symbolic tuple families indexing Jordan-Holder factors and Diamond weights.

Four families of f-tuples of affine symbols show up everywhere:

* P   : indexes the factors of a principal series induced from the Iwahori;
* RD  : indexes the weight set of a reducible split generic parameter;
* ID  : same for an irreducible parameter;
* IMU : the "mu" family indexing the factors of one block of the maximal
        multiplicity-free representation attached to the weight set.

A symbol is an expression  x + c  or  (p + c) - x  with a small constant c,
encoded p-independently as Sym(sign, c).  Tuples are stored symbolically and
evaluated later at a digit vector, so one enumeration serves all parameters.

Evaluation at a fixed p runs on compiled forms: ``compile_tuple`` turns a
tuple into integer vectors once, and ``evaluate_forms`` evaluates a batch of
them at a digit vector.  ``eval_tuple``, ``in_weight_range`` and
``e_of_lambda`` are the symbol-by-symbol definitions the forms reproduce.

A family is its per-slot alphabets (P_ALPHABET^f, RD_ALPHABET^f,
P_ALPHABET x RD_ALPHABET^(f-1), MU_ALPHABET^f) under one cyclic successor
rule: the symbol after one with positive x-coefficient lies in STAY = (x,
p-2-x), the symbol after a negative one lies outside it.  Slot f-1 is
followed by slot 0, so at f = 1 a symbol follows itself.  Enumeration order
is lexicographic in the per-slot alphabets and is part of the interface.
"""

from __future__ import annotations

from functools import lru_cache
from operator import add, mul
from typing import NamedTuple

from .core import DomainError


class Sym(NamedTuple):
    """Affine symbol: value(x) = x + c when sign > 0, else (p + c) - x."""

    sign: int
    c: int

    def value(self, x: int, p: int) -> int:
        return x + self.c if self.sign > 0 else p + self.c - x

    def compose(self, inner: "Sym") -> "Sym":
        """self applied after inner, as a function of the inner variable."""
        if self.sign > 0:
            return Sym(inner.sign, inner.c + self.c)
        return Sym(-inner.sign, self.c - inner.c)

    def label(self, var: str = "x") -> str:
        if self.sign > 0:
            return var if self.c == 0 else f"{var}{self.c:+d}"
        return f"p{self.c:+d}-{var}" if self.c else f"p-{var}"


X = Sym(1, 0)
XM1 = Sym(1, -1)
XP1 = Sym(1, 1)
P1MX = Sym(-1, -1)
P2MX = Sym(-1, -2)
P3MX = Sym(-1, -3)

# Alphabets, in enumeration order.
P_ALPHABET = (X, XM1, P2MX, P1MX)
RD_ALPHABET = (X, XP1, P2MX, P3MX)
MU_ALPHABET = (X, XM1, XP1, P2MX, P3MX, P1MX)

# The symbols that keep the variable's role; the successor rule and the
# subset of a tuple are both read off membership here.
STAY = (X, P2MX)

# family -> (alphabet of slot 0, alphabet of every other slot)
FAMILIES = {
    "P": (P_ALPHABET, P_ALPHABET),
    "RD": (RD_ALPHABET, RD_ALPHABET),
    "ID": (P_ALPHABET, RD_ALPHABET),
    "IMU": (MU_ALPHABET, MU_ALPHABET),
}


def follows(a: Sym, b: Sym) -> bool:
    """The successor rule of every family: b may sit in the slot after a."""
    return (b in STAY) == (a.sign > 0)


def family_alphabets(family: str, f: int) -> tuple:
    """The per-slot alphabets of a family's f-tuples."""
    if f < 1:
        raise DomainError("f must be >= 1")
    first, rest = FAMILIES[family]
    return (first,) + (rest,) * (f - 1)


def _enumerate(alphabets) -> tuple:
    """Depth-first enumeration with cyclic successor pruning."""
    f = len(alphabets)
    out = []

    def extend(prefix):
        i = len(prefix)
        if i == f:
            if follows(prefix[-1], prefix[0]):
                out.append(tuple(prefix))
            return
        for s in alphabets[i]:
            if i == 0 or follows(prefix[-1], s):
                prefix.append(s)
                extend(prefix)
                prefix.pop()

    extend([])
    return tuple(out)


@lru_cache(maxsize=None)
def enumerate_P(f: int) -> tuple:
    return _enumerate(family_alphabets("P", f))


@lru_cache(maxsize=None)
def enumerate_RD(f: int) -> tuple:
    return _enumerate(family_alphabets("RD", f))


@lru_cache(maxsize=None)
def enumerate_ID(f: int) -> tuple:
    return _enumerate(family_alphabets("ID", f))


@lru_cache(maxsize=None)
def enumerate_Imu(f: int) -> tuple:
    return _enumerate(family_alphabets("IMU", f))


def eval_tuple(tpl: tuple, r, p: int) -> tuple:
    """Substitute x_i := r_i.  Out-of-range entries are the caller's problem."""
    if len(tpl) != len(r):
        raise DomainError("tuple and digit vector have different lengths")
    return tuple(s.value(ri, p) for s, ri in zip(tpl, r))


def in_weight_range(values, p: int) -> bool:
    return all(0 <= v <= p - 1 for v in values)


def e_of_lambda(tpl: tuple, r, p: int) -> int:
    """Normalizing determinant exponent of an evaluated tuple.

    Half of sum p^i (r_i - tpl_i(r_i)), plus (q-1)/2 exactly when the last
    symbol has negative x-coefficient.  The bracket is always even; a parity
    failure means the tuple is not from one of the supported families.
    """
    f = len(tpl)
    if f != len(r):
        raise DomainError("tuple and digit vector have different lengths")
    total = sum(p ** i * (ri - s.value(ri, p)) for i, (s, ri) in enumerate(zip(tpl, r)))
    if tpl[f - 1].sign < 0:
        total += p ** f - 1
    if total % 2 != 0:
        raise AssertionError(f"odd normalizing bracket for tuple {tpl} at {tuple(r)}")
    return total // 2


def compile_tuple(tpl: tuple, p: int) -> tuple:
    """The integer form (consts, signs, weights, K) of tpl at the prime p.

    Slot i evaluates to consts[i] + signs[i] * r_i, and the normalizing
    exponent is sum(weights[i] * r_i) + K, where weights[i] is p^i on the
    slots of negative sign and 0 elsewhere.  Each such slot contributes
    2 p^i r_i to e_of_lambda's bracket, so the bracket's parity does not
    depend on r and an odd one is refused here, once per tuple.
    """
    consts = tuple(s.c if s.sign > 0 else p + s.c for s in tpl)
    signs, weights = _sign_vectors(tuple(1 if s.sign > 0 else -1 for s in tpl), p)
    bracket = (p ** len(tpl) - 1 if tpl[-1].sign < 0 else 0) - sum(p ** i * c for i, c in enumerate(consts))
    if bracket % 2 != 0:
        raise AssertionError(f"odd normalizing bracket for tuple {tpl} at p={p}")
    return consts, signs, weights, bracket // 2


# one copy per sign pattern: the skeletons at f = 6 compile 8192 tuples over 64 patterns
@lru_cache(maxsize=None)
def _sign_vectors(signs: tuple, p: int) -> tuple:
    return signs, tuple(p ** i if sign < 0 else 0 for i, sign in enumerate(signs))


def evaluate_forms(forms, r, p: int) -> list:
    """Each compiled form at the digit vector r, in order: (values, e), or
    None where a value leaves [0, p-1]."""
    in_range = frozenset(range(p)).issuperset
    out = []
    for consts, signs, weights, K in forms:
        vals = tuple(map(add, consts, map(mul, signs, r)))
        out.append((vals, sum(map(mul, weights, r)) + K) if in_range(vals) else None)
    return out


def compose_tuples(outer: tuple, inner: tuple) -> tuple:
    """Per-index composition (outer_i o inner_i)."""
    if len(outer) != len(inner):
        raise DomainError("tuple lengths differ")
    return tuple(o.compose(s) for o, s in zip(outer, inner))


def J_of_lambda(tpl: tuple) -> frozenset:
    """Indices where a P-tuple entry has negative x-coefficient."""
    return frozenset(i for i, s in enumerate(tpl) if s.sign < 0)


def mu_of_lambda(tpl: tuple, reducible: bool) -> tuple:
    """The distinguished mu-tuple attached to an RD/ID-tuple.

    Entries are always p-1-y or p-3-y; which one depends on the symbol, with
    the shifted rule at index 0 in the ID case.
    """
    out = []
    for i, s in enumerate(tpl):
        if i == 0 and not reducible:
            big = s in (P2MX, XM1)  # else s in (P1MX, X)
        else:
            big = s in (P3MX, X)
        out.append(P1MX if big else P3MX)
    return tuple(out)


CLASS_UP = (Sym(1, 0), P2MX, Sym(1, 1), P3MX)
CLASS_DOWN = (Sym(1, 0), P2MX, Sym(1, -1), P1MX)


def compatible(mu: tuple, mu2: tuple) -> bool:
    """Both entries in the 'up' class or both in the 'down' class, each index."""
    if len(mu) != len(mu2):
        raise DomainError("tuple lengths differ")
    for a, b in zip(mu, mu2):
        if not ((a in CLASS_UP and b in CLASS_UP) or (a in CLASS_DOWN and b in CLASS_DOWN)):
            return False
    return True


@lru_cache(maxsize=None)
def compatible_Imu(mu_base: tuple) -> tuple:
    """The mu-tuples of enumerate_Imu(len(mu_base)) compatible with mu_base, in order."""
    return tuple(mu for mu in enumerate_Imu(len(mu_base)) if compatible(mu, mu_base))


def S_of_mu(tpl: tuple) -> frozenset:
    """Slots outside STAY: the subset identifying an RD- or ID-tuple, and the
    slots where a mu-tuple moves the variable (y±1, p-1-y or p-3-y)."""
    return frozenset(i for i, s in enumerate(tpl) if s not in STAY)


def delta_red(S, f: int) -> frozenset:
    return frozenset(i for i in range(f) if (i + 1) % f in S)


def delta_irr(S, f: int) -> frozenset:
    out = set(i for i in range(1, f) if (i + 1) % f in S)
    if 1 % f not in S:
        out.add(0)
    return frozenset(out)
