"""Weight sets of generic two-dimensional mod-p Galois parameters.

A semisimple generic parameter is recorded by its case (reducible split or
irreducible), a vector of f integers, and a determinant twist.  Its weight
set has exactly 2^f elements, indexed by the RD- resp. ID-tuples or,
equivalently, by subsets of {0..f-1}.  On top of each weight sits one block
of the maximal multiplicity-free representation with that socle; the block's
factors are indexed by the mu-tuples compatible with the distinguished
mu-tuple of the base weight.  The involution tau -> tau^[s] permutes the
factors across blocks; delta(tau) is the base weight of the block receiving
tau^[s], computed here both by direct search (multiplicity one makes the
match unique) and by the subset formula through the auxiliary sets S^-/S^+,
whose agreement is tracked on every call.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache

from .core import DomainError, Params, Weight, chi_of_weight, conjugate_char, sigma_s
from .couples import CoupleType, couple_type
from .principal import factor_of_weight
from .tuples import (
    P1MX,
    P2MX,
    P3MX,
    Sym,
    S_of_mu,
    compatible_Imu,
    compile_tuple,
    compose_tuples,
    delta_irr,
    delta_red,
    enumerate_ID,
    enumerate_RD,
    evaluate_forms,
    mu_of_lambda,
)

Y = Sym(1, 0)
YM1 = Sym(1, -1)
YP1 = Sym(1, 1)

LIFT_SYMBOLS = (P2MX, P1MX, Y, YP1)
_LIFT_SET = frozenset(LIFT_SYMBOLS)

# Membership sets for the S^-/S^+ rules, as composed expressions in the
# previous slot's variable.  Two constraints pin these sets: the socle
# factor (identity mu) must give empty S^- and S^+, so that delta restricts
# to the plain subset shift, and the two members of a (+1, j) couple must
# land in blocks whose subsets flip exactly at j-1 and j.  The irreducible
# case uses shifted sets at index 1, matching the shifted index-0 alphabet.
# Agreement with the direct search for the companion is tracked per call.
SMINUS_SET = (Sym(1, 0), Sym(1, 1), Sym(-1, -1))          # x, x+1, p-1-x
SPLUS_SET = (Sym(-1, -3), Sym(-1, -2), Sym(1, 2))         # p-3-x, p-2-x, x+2
SMINUS_SET_IRR1 = (Sym(1, -1), Sym(1, 0), Sym(-1, 0))     # x-1, x, p-x
SPLUS_SET_IRR1 = (Sym(-1, -2), Sym(-1, -1), Sym(1, 1))    # p-2-x, p-1-x, x+1


@dataclass(frozen=True, order=True, slots=True)
class GaloisParams:
    """Parameters of a semisimple two-dimensional mod-p Galois representation."""

    params: Params
    reducible: bool
    r: tuple
    twist: int = 0
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        par = self.params
        r = tuple(int(x) for x in self.r)
        object.__setattr__(self, "r", r)
        object.__setattr__(self, "twist", par.mod_qm1(self.twist))
        if len(r) != par.f:
            raise DomainError(f"parameter vector has length {len(r)}, expected {par.f}")
        if r == (par.p - 2,) * par.f:
            raise DomainError("parameter vector (p-2,...,p-2) is excluded")
        if self.reducible:
            if any(not (-1 <= x <= par.p - 2) for x in r):
                raise DomainError(f"reducible case needs -1 <= r_i <= p-2, got {r}")
        else:
            if not (0 <= r[0] <= par.p - 1):
                raise DomainError(f"irreducible case needs 0 <= r_0 <= p-1, got {r}")
            if any(not (-1 <= x <= par.p - 2) for x in r[1:]):
                raise DomainError(f"irreducible case needs -1 <= r_i <= p-2 for i>0, got {r}")
        object.__setattr__(self, "_hash", hash((par, self.reducible, r, self.twist)))

    # the generated hash, computed once: every read of the block cache hashes it
    def __hash__(self):
        return self._hash

    def __str__(self):
        kind = "red" if self.reducible else "irr"
        return f"rho[{kind}; p={self.params.p}, f={self.params.f}, r={self.r}, tw={self.twist}]"


def is_generic(rho: GaloisParams) -> bool:
    p = rho.params.p
    r = rho.r
    if rho.reducible:
        if any(not (0 <= x <= p - 3) for x in r):
            return False
        return r not in ((0,) * len(r), (p - 3,) * len(r))
    if not (1 <= r[0] <= p - 2):
        return False
    return all(0 <= x <= p - 3 for x in r[1:])


@dataclass(frozen=True, slots=True)
class DiamondWeight:
    weight: Weight
    lam: tuple
    S: frozenset
    _hash: int = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "_hash", hash((self.weight, self.lam, self.S)))

    # the generated hash, computed once: each block key and record key hashes it
    def __hash__(self):
        return self._hash

    @property
    def ell(self) -> int:
        return len(self.S)

    def __str__(self):
        return f"{self.weight} [S={sorted(self.S)}]"


@dataclass(frozen=True, slots=True)
class D0Factor:
    base: DiamondWeight
    mu: tuple
    composed: tuple
    weight: Weight
    lifts: bool = field(init=False, repr=False, compare=False)
    is_socle: bool = field(init=False, repr=False, compare=False)
    _hash: int = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "lifts", _LIFT_SET.issuperset(self.mu))
        object.__setattr__(self, "is_socle", self.mu.count(Y) == len(self.mu))

    # the generated hash, computed on first use: the record keys hash a
    # factor many times, a counts sweep never
    def __hash__(self):
        h = self._hash
        if h is None:
            h = hash((self.base, self.mu, self.composed, self.weight))
            object.__setattr__(self, "_hash", h)
        return h


def _require_generic(rho: GaloisParams):
    if not is_generic(rho):
        raise DomainError(f"{rho} is not generic")


@lru_cache(maxsize=None)
def _family_forms(reducible: bool, p: int, f: int) -> tuple:
    """The compiled forms at p of the RD- (resp. ID-) tuples, in family order."""
    return tuple(compile_tuple(lam, p) for lam in (enumerate_RD(f) if reducible else enumerate_ID(f)))


def _weight_set(rho: GaloisParams) -> tuple:
    """diamond_set's weights, built from the RD- or ID-tuples."""
    _require_generic(rho)
    par = rho.params
    fam = enumerate_RD(par.f) if rho.reducible else enumerate_ID(par.f)
    evs = evaluate_forms(_family_forms(rho.reducible, par.p, par.f), rho.r, par.p)
    out = []
    for lam, ev in zip(fam, evs):
        if ev is None:
            raise AssertionError(f"generic parameter dropped a tuple: {lam} at {rho.r}")
        out.append(DiamondWeight(Weight(par, ev[0], ev[1] + rho.twist), lam, S_of_mu(lam)))
    if len({dw.S for dw in out}) != len(out):
        raise AssertionError("subset identification failed to separate the weight set")
    out.sort(key=lambda dw: sum(1 << i for i in dw.S))
    return tuple(out)


@lru_cache(maxsize=None)
def _skeleton(lam: tuple, reducible: bool) -> tuple:
    """The pairs (mu, mu o lam) of the block over lam, in block order.

    They do not depend on the digits, so every parameter of the case shares
    them; at most 2^(f+1) tuples lam exist at each f.
    """
    pairs = [(mu, compose_tuples(mu, lam)) for mu in compatible_Imu(mu_of_lambda(lam, reducible))]
    pairs.sort(key=lambda pair: (len(S_of_mu(pair[0])), pair[0]))
    return tuple(pairs)


@lru_cache(maxsize=None)
def _skeleton_forms(lam: tuple, reducible: bool, p: int) -> tuple:
    """The compiled forms at p of the skeleton's composed tuples, in its order."""
    return tuple(compile_tuple(comp, p) for _, comp in _skeleton(lam, reducible))


def _block(rho: GaloisParams, sigma: DiamondWeight) -> tuple:
    """d0_factors' block of sigma: the skeleton's in-range evaluations."""
    par = rho.params
    skeleton = _skeleton(sigma.lam, rho.reducible)
    evs = evaluate_forms(_skeleton_forms(sigma.lam, rho.reducible, par.p), rho.r, par.p)
    return tuple(
        D0Factor(sigma, mu, comp, Weight(par, ev[0], ev[1] + rho.twist))
        for (mu, comp), ev in zip(skeleton, evs)
        if ev is not None
    )


def d0_all(rho: GaloisParams) -> dict:
    return {dw: _block(rho, dw) for dw in _weight_set(rho)}


class _Record:
    """The blocks of one parameter, with delta and xi filled in as asked.

    blocks is d0_all(rho); by_weight maps a factor's weight to its (block,
    factor) occurrences; delta and xi map (sigma, factor) to delta_data's
    and xi_and_J's answers.  A check that raises stores nothing.
    """

    __slots__ = ("blocks", "sigmas", "by_weight", "delta", "xi")

    def __init__(self, blocks: dict):
        self.blocks = blocks
        self.sigmas = tuple(blocks)
        self.by_weight = {}
        for dw, facs in blocks.items():
            for fac in facs:
                self.by_weight[fac.weight] = self.by_weight.get(fac.weight, ()) + ((dw, fac),)
        self.delta = {}
        self.xi = {}


# every caller finishes one parameter before it starts the next, so a record
# is never read again once a few others have been built
@lru_cache(maxsize=4)
def _blocks(rho: GaloisParams) -> _Record:
    """The blocks of rho, built once."""
    return _Record(d0_all(rho))


def diamond_set(rho: GaloisParams) -> tuple:
    """The 2^f weights of a generic parameter, ordered by their subset bitmask."""
    return _blocks(rho).sigmas


def diamond_by_subset(rho: GaloisParams, S) -> DiamondWeight:
    S = frozenset(S)
    for dw in diamond_set(rho):
        if dw.S == S:
            return dw
    raise DomainError(f"no weight with subset {set(S)}")


def weight_in_diamond(rho: GaloisParams, w: Weight):
    for dw in diamond_set(rho):
        if dw.weight == w:
            return dw
    return None


def d0_factors(rho: GaloisParams, sigma: DiamondWeight) -> tuple:
    """Factors of the block with socle sigma, ordered by level, then mu."""
    blocks = _blocks(rho).blocks
    if sigma not in blocks:
        raise DomainError(f"{sigma} is not in the weight set of {rho}")
    return blocks[sigma]


def d0_is_multiplicity_free(rho: GaloisParams) -> bool:
    return all(len(hits) == 1 for hits in _blocks(rho).by_weight.values())


def ell_decomposition(rho: GaloisParams) -> dict:
    """Partition of the weight set by ell; only meaningful in the reducible case."""
    if not rho.reducible:
        raise DomainError("the direct-sum decomposition by ell needs a reducible parameter")
    out = {ell: [] for ell in range(rho.params.f + 1)}
    for dw in diamond_set(rho):
        out[dw.ell].append(dw)
    return out


def S_plus_minus(rho: GaloisParams, sigma: DiamondWeight, factor: D0Factor) -> tuple:
    """The auxiliary subsets steering delta, from composed previous-slot symbols."""
    if not factor.lifts:
        raise DomainError("S^-/S^+ are defined for factors with lifted invariants")
    par = rho.params
    f = par.f
    s_minus, s_plus = set(), set()
    for i in range(f):
        prev = (i - 1) % f
        comp = factor.mu[prev].compose(sigma.lam[prev])
        if not rho.reducible and i == 1 % f:
            mset, pset = SMINUS_SET_IRR1, SPLUS_SET_IRR1
        else:
            mset, pset = SMINUS_SET, SPLUS_SET
        if i in sigma.S:
            if comp in mset:
                s_minus.add(i)
        else:
            if comp in pset:
                s_plus.add(i)
    return frozenset(s_minus), frozenset(s_plus)


def delta_subset_prediction(rho: GaloisParams, sigma: DiamondWeight, factor: D0Factor) -> frozenset:
    s_minus, s_plus = S_plus_minus(rho, sigma, factor)
    moved = (sigma.S - s_minus) | s_plus
    f = rho.params.f
    return delta_red(moved, f) if rho.reducible else delta_irr(moved, f)


@dataclass(frozen=True, slots=True)
class DeltaResult:
    target: DiamondWeight          # the block owning tau^[s]
    mirror: D0Factor               # tau^[s] as a factor of that block
    predicted_subset: frozenset    # from the S^-/S^+ formula
    formula_agrees: bool


def delta_data(rho: GaloisParams, sigma: DiamondWeight, factor: D0Factor) -> DeltaResult:
    """Locate tau^[s] across the blocks and compare with the subset formula."""
    rec = _blocks(rho)
    key = (sigma, factor)
    res = rec.delta.get(key)
    if res is None:
        if not factor.lifts:
            raise DomainError("delta is defined for factors with lifted invariants")
        target_w = sigma_s(factor.weight)
        hits = rec.by_weight.get(target_w, ())
        if len(hits) != 1:
            raise AssertionError(
                f"tau^[s] = {target_w} found {len(hits)} times across the blocks of {rho}"
            )
        dw, fac = hits[0]
        pred = delta_subset_prediction(rho, sigma, factor)
        res = rec.delta[key] = DeltaResult(dw, fac, pred, pred == dw.S)
    return res


def delta_of_tau(rho: GaloisParams, sigma: DiamondWeight, factor: D0Factor) -> DiamondWeight:
    return delta_data(rho, sigma, factor).target


def xi_and_J(rho: GaloisParams, sigma: DiamondWeight, factor: D0Factor) -> tuple:
    """Realize delta(tau) inside the induction from the conjugate of chi_tau.

    Returns (xi, J(xi), consistent) where xi is the P-tuple of delta(tau) in
    that induction and consistent records the agreement of J(xi) with the two
    equivalent descriptions through the mirror factor's mu-tuple.
    """
    rec = _blocks(rho)
    key = (sigma, factor)
    out = rec.xi.get(key)
    if out is None:
        res = rec.delta.get(key) or delta_data(rho, sigma, factor)
        xi, J = factor_of_weight(conjugate_char(chi_of_weight(factor.weight)), res.target.weight)
        theta = res.mirror.mu
        f = rho.params.f
        j_from_theta = frozenset(i for i in range(f) if theta[i] in (Y, YP1))
        s_theta = S_of_mu(theta)
        j_from_s = frozenset(i for i in range(f) if (i + 1) % f not in s_theta)
        out = rec.xi[key] = (xi, J, J == j_from_theta == j_from_s)
    return out


def lifting_factors(rho: GaloisParams, sigma: DiamondWeight) -> list:
    return [fac for fac in d0_factors(rho, sigma) if fac.lifts]


def plus_one_couples(rho: GaloisParams, sigma: DiamondWeight, j: int) -> list:
    """Pairs of lifted factors in the block of sigma forming a (+1, j) couple.

    The pair is located by its mu-shape at slots (j-1, j): depending on the
    base mu-tuple's entry at j, the shapes are (y, y) against (p-2-y, y+1),
    or (y, p-2-y) against (p-2-y, p-1-y), with equal entries elsewhere.
    """
    par = rho.params
    f = par.f
    if f < 2:
        return []
    jm1 = (j - 1) % f
    mu_base = mu_of_lambda(sigma.lam, rho.reducible)
    if mu_base[j] == P3MX:
        shape1, shape2 = (Y, Y), (P2MX, YP1)
    else:
        shape1, shape2 = (Y, P2MX), (P2MX, P1MX)
    facs = lifting_factors(rho, sigma)
    out = []
    for f1 in facs:
        if (f1.mu[jm1], f1.mu[j]) != shape1:
            continue
        for f2 in facs:
            if (f2.mu[jm1], f2.mu[j]) != shape2:
                continue
            if all(f1.mu[i] == f2.mu[i] for i in range(f) if i not in (jm1, j)):
                out.append((f1, f2))
    return out


@dataclass(slots=True)
class ClauseReport:
    name: str
    passed: bool
    detail: str = ""


@dataclass
class CombinationReport:
    rho: GaloisParams
    sigma: DiamondWeight
    j: int
    couples: list
    clauses: list

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.clauses)

    @property
    def has_couple(self) -> bool:
        return bool(self.couples)


def verify_combination(rho: GaloisParams, sigma: DiamondWeight, j: int) -> CombinationReport:
    """Check every clause of the couple-comparison statements for (rho, sigma, j)."""
    par = rho.params
    f = par.f
    couples = plus_one_couples(rho, sigma, j)
    clauses = []
    jm1, jm2 = (j - 1) % f, (j - 2) % f

    def add(name, ok, detail=""):
        clauses.append(ClauseReport(name, bool(ok), detail))

    for tau1, tau2 in couples:
        tag = f"{tau1.weight}|{tau2.weight}"
        ct = couple_type(tau1.weight, tau2.weight)
        add("couple-template", ct == CoupleType(+1, j), f"{tag}: got {ct}")

        d1 = delta_data(rho, sigma, tau1)
        d2 = delta_data(rho, sigma, tau2)
        add("delta-formula", d1.formula_agrees and d2.formula_agrees, tag)

        # theta value relations: the digits of the mirror factors in the delta blocks
        th1, th2 = d1.mirror.weight.r, d2.mirror.weight.r
        ok = all(th1[i] == th2[i] for i in range(f) if i not in (jm1, j))
        add("theta-off-slots", ok, tag)
        add("theta-at-j", th1[j] == th2[j] + 1, tag)
        add("theta-at-jm1", th1[jm1] + th2[jm1] == par.p, tag)

        S1, S2 = d1.target.S, d2.target.S
        ok = all((i in S1) == (i in S2) for i in range(f) if i not in (jm1, j))
        add("subsets-off-slots", ok, tag)
        add("subsets-flip", all((i in S1) != (i in S2) for i in (jm1, j)), tag)

        lam1, lam2 = d1.target.lam, d2.target.lam
        ok = all((lam1[i] == lam2[i]) == (i not in (jm2, jm1, j)) for i in range(f))
        add("delta-tuples", ok, tag)

        st1, st2 = S_of_mu(d1.mirror.mu), S_of_mu(d2.mirror.mu)
        ok = all((i in st1) == (i in st2) for i in range(f) if i != jm1)
        add("s-theta-off", ok, tag)
        add("s-theta-flip", (jm1 in st1) != (jm1 in st2), tag)

        xi1, J1, c1 = xi_and_J(rho, sigma, tau1)
        xi2, J2, c2 = xi_and_J(rho, sigma, tau2)
        add("xi-consistent", c1 and c2, tag)
        ok = all((i in J1) == (i in J2) for i in range(f) if i != jm2)
        add("J-xi-off", ok, tag)
        add("J-xi-flip", (jm2 in J1) != (jm2 in J2), tag)

    return CombinationReport(rho, sigma, j, couples, clauses)


def special_sigma_tuple(f: int, reducible: bool) -> tuple:
    """The explicit tuple whose distinguished mu-tuple is constant p-3-y."""
    if reducible:
        if f < 4 or f % 2:
            raise DomainError("the reducible construction needs even f >= 4")
        return tuple(Sym(1, 1) if i % 2 == 0 else P2MX for i in range(f))
    if f < 3 or f % 2 == 0:
        raise DomainError("the irreducible construction needs odd f >= 3")
    return (P1MX,) + tuple(Sym(1, 1) if i % 2 else P2MX for i in range(1, f))


def find_special_sigma(rho: GaloisParams) -> DiamondWeight:
    """The weight with companion also in the weight set and constant mu-tuple p-3-y."""
    _require_generic(rho)
    lam = special_sigma_tuple(rho.params.f, rho.reducible)
    hits = [dw for dw in diamond_set(rho) if dw.lam == lam]
    if len(hits) != 1:
        raise AssertionError("explicit tuple not found in the weight set")
    dw = hits[0]
    if mu_of_lambda(dw.lam, rho.reducible) != (P3MX,) * rho.params.f:
        raise AssertionError("distinguished mu-tuple is not constant p-3-y")
    if weight_in_diamond(rho, sigma_s(dw.weight)) is None:
        raise AssertionError("companion weight is not in the weight set")
    return dw


def tau_j_factor(rho: GaloisParams, sigma: DiamondWeight, j: int) -> D0Factor:
    """The factor with mu = (..., p-2-y at j-1, y+1 at j, ...) in sigma's block."""
    par = rho.params
    jm1 = (j - 1) % par.f
    want = [Y] * par.f
    want[jm1], want[j] = P2MX, YP1
    for fac in d0_factors(rho, sigma):
        if fac.mu == tuple(want):
            return fac
    raise DomainError(f"no factor with the (+1,{j}) mu-shape in this block")
