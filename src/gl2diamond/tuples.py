"""Symbolic tuple families indexing Jordan-Holder factors and Diamond weights.

Four families of f-tuples of affine symbols show up everywhere:

* P   : indexes the factors of a principal series induced from the Iwahori;
* RD  : indexes the weight set of a reducible split generic parameter;
* ID  : same for an irreducible parameter (index 0 has its own alphabet);
* IMU : the "mu" family indexing the factors of one block of the maximal
        multiplicity-free representation attached to the weight set.

A symbol is an expression  x + c  or  (p + c) - x  with a small constant c,
encoded p-independently as Sym(sign, c).  Tuples are stored symbolically and
evaluated later at a digit vector, so one enumeration serves all parameters.
Each family carries cyclic adjacency rules; enumeration order is
lexicographic in the per-family alphabet and is part of the interface.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product

from .core import DomainError


@dataclass(frozen=True, order=True)
class Sym:
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
XP2 = Sym(1, 2)
P1MX = Sym(-1, -1)
P2MX = Sym(-1, -2)
P3MX = Sym(-1, -3)

# Alphabets, in enumeration order.
P_ALPHABET = (X, XM1, P2MX, P1MX)
RD_ALPHABET = (X, XP1, P2MX, P3MX)
ID0_ALPHABET = (X, XM1, P2MX, P1MX)
MU_ALPHABET = (Sym(1, 0), Sym(1, -1), Sym(1, 1), P2MX, P3MX, P1MX)

# For f = 1 the families are given by explicit short lists.
P_F1 = (X, P1MX)
RD_F1 = (X, P3MX)
ID_F1 = (X, P1MX)
MU_F1 = (Sym(1, 0), P1MX, P3MX)


def _pos(sym: Sym) -> bool:
    return sym.sign > 0


def _adjacent_P(a: Sym, b: Sym) -> bool:
    # a at index i, b at index i+1 (cyclically)
    return b in ((X, P2MX) if _pos(a) else (P1MX, XM1))


def _adjacent_RD(a: Sym, b: Sym) -> bool:
    return b in ((X, P2MX) if _pos(a) else (P3MX, XP1))


def _adjacent_ID(a: Sym, b: Sym, i: int, f: int) -> bool:
    # a at index i constrains b at index i+1; index 0 uses the shifted alphabet
    if i == f - 1:  # constrains index 0
        return b in ((X, P2MX) if _pos(a) else (P1MX, XM1))
    return b in ((X, P2MX) if _pos(a) else (P3MX, XP1))


def _adjacent_MU(a: Sym, b: Sym) -> bool:
    if _pos(a):
        return b in (Sym(1, 0), P2MX)
    return b in (Sym(1, -1), Sym(1, 1), P3MX, P1MX)


def is_valid_P(tpl: tuple) -> bool:
    f = len(tpl)
    if f == 1:
        return tpl[0] in P_F1
    return all(s in P_ALPHABET for s in tpl) and all(
        _adjacent_P(tpl[i], tpl[(i + 1) % f]) for i in range(f)
    )


def is_valid_RD(tpl: tuple) -> bool:
    f = len(tpl)
    if f == 1:
        return tpl[0] in RD_F1
    return all(s in RD_ALPHABET for s in tpl) and all(
        _adjacent_RD(tpl[i], tpl[(i + 1) % f]) for i in range(f)
    )


def is_valid_ID(tpl: tuple) -> bool:
    f = len(tpl)
    if f == 1:
        return tpl[0] in ID_F1
    if tpl[0] not in ID0_ALPHABET or any(s not in RD_ALPHABET for s in tpl[1:]):
        return False
    return all(_adjacent_ID(tpl[i], tpl[(i + 1) % f], i, f) for i in range(f))


def is_valid_MU(tpl: tuple) -> bool:
    f = len(tpl)
    if f == 1:
        return tpl[0] in MU_F1
    return all(s in MU_ALPHABET for s in tpl) and all(
        _adjacent_MU(tpl[i], tpl[(i + 1) % f]) for i in range(f)
    )


def _enumerate(alphabets, adjacent) -> list:
    """Depth-first enumeration with cyclic adjacency pruning."""
    f = len(alphabets)
    out = []

    def extend(prefix):
        i = len(prefix)
        if i == f:
            if adjacent(prefix[f - 1], prefix[0], f - 1):
                out.append(tuple(prefix))
            return
        for s in alphabets[i]:
            if i == 0 or adjacent(prefix[i - 1], s, i - 1):
                prefix.append(s)
                extend(prefix)
                prefix.pop()

    extend([])
    return out


@lru_cache(maxsize=None)
def enumerate_P(f: int) -> tuple:
    if f < 1:
        raise DomainError("f must be >= 1")
    if f == 1:
        return tuple((s,) for s in P_F1)
    return tuple(_enumerate([P_ALPHABET] * f, lambda a, b, i: _adjacent_P(a, b)))


@lru_cache(maxsize=None)
def enumerate_RD(f: int) -> tuple:
    if f < 1:
        raise DomainError("f must be >= 1")
    if f == 1:
        return tuple((s,) for s in RD_F1)
    return tuple(_enumerate([RD_ALPHABET] * f, lambda a, b, i: _adjacent_RD(a, b)))


@lru_cache(maxsize=None)
def enumerate_ID(f: int) -> tuple:
    if f < 1:
        raise DomainError("f must be >= 1")
    if f == 1:
        return tuple((s,) for s in ID_F1)
    alphabets = [ID0_ALPHABET] + [RD_ALPHABET] * (f - 1)
    return tuple(_enumerate(alphabets, lambda a, b, i: _adjacent_ID(a, b, i, f)))


@lru_cache(maxsize=None)
def enumerate_Imu(f: int) -> tuple:
    if f < 1:
        raise DomainError("f must be >= 1")
    if f == 1:
        return tuple((s,) for s in MU_F1)
    return tuple(_enumerate([MU_ALPHABET] * f, lambda a, b, i: _adjacent_MU(a, b)))


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


def compose_tuples(outer: tuple, inner: tuple) -> tuple:
    """Per-index composition (outer_i o inner_i)."""
    if len(outer) != len(inner):
        raise DomainError("tuple lengths differ")
    return tuple(o.compose(s) for o, s in zip(outer, inner))


def J_of_lambda(tpl: tuple) -> frozenset:
    """Indices where a P-tuple entry has negative x-coefficient."""
    return frozenset(i for i, s in enumerate(tpl) if s.sign < 0)


def S_of_lambda(tpl: tuple, reducible: bool) -> frozenset:
    """Subset of {0..f-1} identifying an RD- (resp. ID-) tuple."""
    out = set()
    for i, s in enumerate(tpl):
        if i == 0 and not reducible:
            hit = s in (P1MX, XM1)
        else:
            hit = s in (P3MX, XP1)
        if hit:
            out.add(i)
    return frozenset(out)


def lambda_of_S(S, f: int, reducible: bool) -> tuple:
    """Inverse of S_of_lambda (the identification is a bijection onto subsets)."""
    fam = enumerate_RD(f) if reducible else enumerate_ID(f)
    S = frozenset(S)
    for tpl in fam:
        if S_of_lambda(tpl, reducible) == S:
            return tpl
    raise DomainError(f"no tuple with subset {set(S)}")


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


def S_of_mu(mu: tuple) -> frozenset:
    """Indices where the entry moves the variable: y±1 or p-1-y or p-3-y."""
    return frozenset(i for i, s in enumerate(mu) if s not in (Sym(1, 0), P2MX))


def delta_red(S, f: int) -> frozenset:
    return frozenset(i for i in range(f) if (i + 1) % f in S)


def delta_irr(S, f: int) -> frozenset:
    out = set(i for i in range(1, f) if (i + 1) % f in S)
    if 1 % f not in S:
        out.add(0)
    return frozenset(out)


def all_candidate_tuples(f: int, alphabet) -> list:
    """Raw cartesian power, for brute-force cross-checks of the enumerations."""
    return list(product(alphabet, repeat=f))
