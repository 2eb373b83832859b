import hashlib
import itertools
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond.core import (
    DomainError,
    ICharacter,
    Params,
    Weight,
    alpha,
    char_normal_form,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    ext1_dim_I,
    sigma_s,
    trivial_char,
    weight_dim,
    weight_of_char,
    weights_of_char,
)
from gl2diamond.couples import CoupleType
from gl2diamond.diamond import (
    GaloisParams,
    d0_factors,
    delta_data,
    diamond_set,
    lifting_factors,
    verify_combination,
)
from gl2diamond.filtration import example1_filtration, f2_tables, v1_s1_filtrations
from gl2diamond.oracle.groups import GroupContext
from gl2diamond.principal import jh_of_induced
from gl2diamond.verify import SUITES, RunConfig, generic_parameters


def test_params_validation():
    Params(3, 1)
    Params(7, 3)
    with pytest.raises(DomainError):
        Params(4, 1)
    with pytest.raises(DomainError):
        Params(2, 2)
    with pytest.raises(DomainError):
        Params(5, 0)


def test_weight_validation():
    par = Params(5, 2)
    w = Weight(par, (4, 0), 30)
    assert w.twist == 30 % 24
    with pytest.raises(DomainError):
        Weight(par, (5, 0), 0)
    with pytest.raises(DomainError):
        Weight(par, (1,), 0)
    # the length is checked first, and a message shows the digits as given
    with pytest.raises(DomainError, match=r"^digit vector has length 1, expected f=2$"):
        Weight(par, [7], 0)
    with pytest.raises(DomainError, match=r"^digits out of range \[0, p-1\]: \[1, -1\]$"):
        Weight(par, [1, -1], 0)
    with pytest.raises(DomainError):
        Weight(par, (-0.5, 0), 0)
    with pytest.raises(TypeError):
        Weight(par, ("1", 0), 0)
    # digits in range are stored as ints
    w = Weight(par, [4.0, True], -1)
    assert w.r == (4, 1) and all(type(ri) is int for ri in w.r) and w.twist == 23


def test_chi_of_weight_examples():
    par = Params(7, 2)
    assert chi_of_weight(Weight(par, (2, 1), 0)) == ICharacter(par, 9, 0)
    assert chi_of_weight(Weight(par, (0, 0), 3)) == ICharacter(par, 3, 3)
    par = Params(5, 1)
    assert chi_of_weight(Weight(par, (2,), 2)) == ICharacter(par, 4, 2)


def test_conjugate_char():
    par = Params(7, 2)
    assert conjugate_char(ICharacter(par, 9, 0)) == ICharacter(par, 0, 9)
    assert conjugate_char(ICharacter(par, 3, 3)) == ICharacter(par, 3, 3)
    for a in range(0, 48, 7):
        for b in range(0, 48, 5):
            chi = ICharacter(par, a, b)
            assert conjugate_char(conjugate_char(chi)) == chi


def test_alpha():
    assert alpha(Params(5, 1)) == ICharacter(Params(5, 1), 1, 3)
    assert alpha(Params(7, 2)) == ICharacter(Params(7, 2), 1, 47)
    par = Params(5, 2)
    assert alpha(par) ** (par.q - 1) == trivial_char(par)


def test_char_normal_form_examples():
    par = Params(7, 2)
    assert char_normal_form(ICharacter(par, 9, 0)) == ((2, 1), 0)
    assert char_normal_form(ICharacter(par, 0, 9)) == ((4, 5), 9)
    assert char_normal_form(ICharacter(par, 3, 3)) == ((0, 0), 3)


def test_char_normal_form_bijection():
    par = Params(5, 2)
    seen = set()
    for a in range(par.q - 1):
        for b in range(par.q - 1):
            digits, t = char_normal_form(ICharacter(par, a, b))
            assert digits != (par.p - 1,) * par.f
            assert chi_of_weight(Weight(par, digits, t)) == ICharacter(par, a, b)
            seen.add((digits, t))
    assert len(seen) == (par.q - 1) ** 2


def test_char_times_alpha_power_cases():
    par = Params(7, 2)
    # slot digit at least 2 drops by two and the twist gains p^j
    chi = chi_of_weight(Weight(par, (3, 1), 0))
    assert (chi.a, chi.b) == (10, 0)
    res = char_times_alpha_power(chi, 0, -1)
    assert (res.a, res.b) == (9, 1)
    assert char_normal_form(res) == ((1, 1), 1)
    # slot digit one with all others zero lands on p-2 at the slot; here the
    # twisted character is the conjugate one, so the normal form is the
    # companion weight (5,6) twisted by det
    chi = chi_of_weight(Weight(par, (1, 0), 0))
    twisted = char_times_alpha_power(chi, 0, -1)
    assert twisted == conjugate_char(chi)
    digits, t = char_normal_form(twisted)
    assert digits[0] == par.p - 2
    assert (digits, t) == ((5, 6), 1)
    assert Weight(par, digits, t) == sigma_s(Weight(par, (1, 0), 0))
    # identity and inverse round trip
    for a in range(0, 48, 5):
        chi = ICharacter(par, a, 2 * a)
        assert char_times_alpha_power(chi, 1, 0) == chi
        down = char_times_alpha_power(chi, 1, -1)
        assert char_times_alpha_power(down, 1, +1) == chi


def test_rj_prime_case_pattern():
    # the three normal-form cases for the alpha-twist at one slot
    par = Params(5, 3)
    p = par.p
    for r in itertools.product(range(p), repeat=3):
        if r == (p - 1,) * 3:
            continue
        chi = chi_of_weight(Weight(par, r, 0))
        for j in range(3):
            digits, _ = char_normal_form(char_times_alpha_power(chi, j, -1))
            if r[j] >= 2:
                assert digits[j] == r[j] - 2
                assert all(digits[i] == r[i] for i in range(3) if i != j)
            elif r[j] == 1:
                assert digits[j] in (p - 2, p - 1)
                assert (digits[j] == p - 2) == all(r[i] == 0 for i in range(3) if i != j)
            else:
                assert digits[j] in (p - 2, p - 3)
                assert (digits[j] == p - 3) == all(r[i] == 0 for i in range(3) if i != j)


def test_weights_of_char():
    par = Params(5, 1)
    pair = weights_of_char(ICharacter(par, 3, 3))
    assert pair == {Weight(par, (0,), 3), Weight(par, (4,), 3)}
    par = Params(7, 2)
    assert weights_of_char(ICharacter(par, 9, 0)) == {Weight(par, (2, 1), 0)}
    for r in [(0, 0), (2, 1), (6, 6), (3, 0)]:
        for t in (0, 5):
            sigma = Weight(par, r, t)
            assert sigma in weights_of_char(chi_of_weight(sigma))


def test_weights_of_char_all_share_the_character():
    par = Params(5, 2)
    for a in range(0, 24, 3):
        for b in range(0, 24, 5):
            chi = ICharacter(par, a, b)
            for w in weights_of_char(chi):
                assert chi_of_weight(w) == chi


def test_sigma_s():
    par = Params(7, 2)
    assert sigma_s(Weight(par, (2, 1), 0)) == Weight(par, (4, 5), 9)
    t = 11
    assert sigma_s(Weight(par, (0, 0), t)) == Weight(par, (6, 6), t)
    for r in itertools.product(range(7), repeat=2):
        sigma = Weight(par, r, 3)
        assert sigma_s(sigma_s(sigma)) == sigma
        assert chi_of_weight(sigma_s(sigma)) == conjugate_char(chi_of_weight(sigma))


def test_weight_dim():
    par = Params(7, 2)
    assert weight_dim(Weight(par, (2, 1), 0)) == 6
    assert weight_dim(Weight(par, (0, 0), 5)) == 1
    assert weight_dim(Weight(par, (6, 6), 0)) == 49


def test_ext1_dim_I():
    par = Params(5, 2)
    chi = ICharacter(par, 7, 3)
    assert ext1_dim_I(chi, chi, "Z1")[0] == 0
    down = char_times_alpha_power(chi, 1, -1)
    assert ext1_dim_I(down, chi, "K1") == (1, -1, 1)
    up = char_times_alpha_power(chi, 0, +1)
    assert ext1_dim_I(up, chi, "K1")[0] == 0
    assert ext1_dim_I(up, chi, "Z1") == (1, +1, 0)
    # mod K1 never exceeds mod Z1, and negative-sign witnesses agree
    for a in range(0, 24, 5):
        other = ICharacter(par, a, a + 7)
        d_k1 = ext1_dim_I(other, chi, "K1")
        d_z1 = ext1_dim_I(other, chi, "Z1")
        assert d_k1[0] <= d_z1[0]
        if d_k1[0] == 1:
            assert d_z1 == d_k1


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_params_and_weight_hash_once_as_generated(data):
    """The hash is that of the field tuple, hash((fields compared)): the
    iteration order of weights_of_char, hence of the socles in the golden
    reports, depends on it."""
    par = Params(data.draw(st.sampled_from([3, 5, 7, 11, 13])), data.draw(st.integers(1, 3)))
    assert hash(par) == hash((par.p, par.f))
    assert repr(par) == f"Params(p={par.p}, f={par.f})" and par.q == par.p ** par.f
    digits = st.lists(st.integers(0, par.p - 1), min_size=par.f, max_size=par.f)
    r, twist = data.draw(digits), data.draw(st.integers(-3 * par.q, 3 * par.q))
    w = Weight(par, r, twist)
    assert hash(w) == hash((par, tuple(r), twist % (par.q - 1)))
    assert w == Weight(par, tuple(r), twist + par.q - 1) and hash(w) == hash(Weight(par, r, twist - par.q + 1))
    assert repr(w) == f"Weight(params={par!r}, r={tuple(r)!r}, twist={twist % (par.q - 1)})"
    assert not hasattr(par, "__dict__") and not hasattr(w, "__dict__")
    # eq and order are those of the compared fields
    w2 = Weight(par, data.draw(digits), data.draw(st.integers(0, par.q - 2)))
    key = lambda x: (x.params.p, x.params.f, x.r, x.twist)  # noqa: E731
    assert (w == w2) == (key(w) == key(w2)) and (w < w2) == (key(w) < key(w2))
    other = Params(data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 3)))
    assert (par < other) == ((par.p, par.f) < (other.p, other.f)) and (par == other) == ((par.p, par.f) == (other.p, other.f))


def record_instances() -> dict:
    """One instance of each record of the package, named by its class."""
    par = Params(5, 1)
    rho = GaloisParams(par, True, (1,), 3)
    dw = diamond_set(rho)[1]
    fac = lifting_factors(rho, dw)[0]
    rho2 = GaloisParams(Params(5, 2), False, (2, 1), 1)
    combination = next(
        rep for sigma in diamond_set(rho2) for j in range(2)
        if (rep := verify_combination(rho2, sigma, j)).has_couple
    )
    jh = jh_of_induced(ICharacter(Params(3, 1), 1, 0))
    recs = [
        par, Weight(Params(5, 2), (1, 3), 7), ICharacter(Params(5, 2), 30, -1), rho2, dw, fac,
        delta_data(rho, dw, fac), CoupleType(-1, 1), jh.factors[0], jh, GroupContext(par),
        combination.clauses[0], combination, v1_s1_filtrations(rho2).s1,
        example1_filtration(Weight(Params(5, 2), (1, 2), 0), 1), f2_tables(rho2),
        v1_s1_filtrations(GaloisParams(Params(5, 2), False, (1, 1), 0)),
        RunConfig(p=7, f=3, r=(1, 2, 3), suite="s1s2"), SUITES["indej"],
    ]
    return {type(rec).__name__: rec for rec in recs}


# (hash, sha256 prefix of repr, str when the record defines its own) of each
# instance above, recorded when the records were dataclasses.  Set and dict
# iteration orders, hence the golden reports, follow the hashes.  A record
# holding a str, list or dict has no hash to pin: it was unhashable, and a
# str hash changes from process to process.  D0Factor, DeltaResult, InducedJH,
# CombinationReport, F2Tables and V1S1 were re-recorded when they dropped the
# fields that restated another field or an argument: fewer fields give a new
# hash and repr, and no report order follows these records (only sets of
# Weights and PSFactors are iterated).
PINNED_RECORDS = {
    "Params": (3453031638033610253, "d7832f2ad6c1bcfd", None),
    "Weight": (7092935409119662222, "75b3edd9aa6346da", "(1,3)*det^7"),
    "ICharacter": (16386182138849970, "b5b3e6eb488eeecc", "chi(6,23)"),
    "GaloisParams": (-6698014863458684279, "7b11c0f50ea57906", "rho[irr; p=5, f=2, r=(2, 1), tw=1]"),
    "DiamondWeight": (-5389556360355300484, "0954e6588c7e86a1", "(1)*det^1 [S=[0]]"),
    "D0Factor": (6165490244779192293, "1e2fff05c906a9b8", None),
    "DeltaResult": (8981594972949512049, "83664fd662322240", None),
    "CoupleType": (9083154820904886697, "20bb4a5a79990946", "(-1,1)"),
    "PSFactor": (-5509014003742961359, "98e78507604f4670", None),
    "InducedJH": (4270781708425859755, "1df8dcb78e2e793d", None),
    "GroupContext": (-7384472671866874872, "7e91178c75e6a2bb", None),
    "ClauseReport": (None, "f6f2d31616395643", None),
    "CombinationReport": (None, "51f05d9a076582cd", None),
    "FiltrationLayers": (None, "f08e3c9855964bc1", None),
    "Example1Filtration": (None, "7bd7e845cd472892", None),
    "F2Tables": (None, "61af1ddd8201e965", None),
    "V1S1": (None, "801a29fbb8c769c9", None),
    "RunConfig": (None, "6c3afb61810d0c90", None),
    "Suite": (None, "77a20b0bb0d92211", None),
}


def test_records_keep_their_hash_repr_and_str():
    recs = record_instances()
    assert set(recs) == set(PINNED_RECORDS)
    for name, rec in recs.items():
        want_hash, want_repr, want_str = PINNED_RECORDS[name]
        if want_hash is not None:
            assert hash(rec) == want_hash, name
        # a Suite's repr names its function, whose address changes from run to run
        shown = re.sub(r" at 0x[0-9a-f]+", "", repr(rec))
        assert hashlib.sha256(shown.encode()).hexdigest()[:16] == want_repr, (name, shown)
        assert str(rec) == (want_str if want_str is not None else repr(rec)), name
        assert not hasattr(rec, "__dict__"), name


def test_records_keep_their_sort_order():
    par = Params(5, 3)
    weights = [Weight(par, r, t) for r, t in [((1, 2, 3), 7), ((0, 4, 4), 0), ((1, 2, 3), 2), ((1, 0, 0), 123)]]
    weights.append(Weight(Params(3, 3), (2, 2, 2), 1))
    assert [str(w) for w in sorted(weights)] == [
        "(2,2,2)*det^1", "(0,4,4)", "(1,0,0)*det^123", "(1,2,3)*det^2", "(1,2,3)*det^7",
    ]
    assert sorted([Params(5, 3), Params(3, 4), Params(5, 1), Params(7, 1)]) == [
        Params(3, 4), Params(5, 1), Params(5, 3), Params(7, 1),
    ]
    chars = [ICharacter(par, a, b) for a, b in [(5, 1), (3, 9), (5, 0), (123, 200)]]
    assert [str(c) for c in sorted(chars)] == ["chi(3,9)", "chi(5,0)", "chi(5,1)", "chi(123,76)"]
    rhos = [GaloisParams(par, red, r, t) for red, r, t in
            [(False, (2, 1, 1), 4), (True, (1, 1, 1), 0), (False, (1, 1, 1), 9), (True, (0, 2, 1), 3)]]
    assert [str(rho) for rho in sorted(rhos)] == [
        "rho[irr; p=5, f=3, r=(1, 1, 1), tw=9]", "rho[irr; p=5, f=3, r=(2, 1, 1), tw=4]",
        "rho[red; p=5, f=3, r=(0, 2, 1), tw=3]", "rho[red; p=5, f=3, r=(1, 1, 1), tw=0]",
    ]


@pytest.mark.parametrize("build,message", [
    (lambda: Params(9, 1), "p must be an odd prime, got 9"),
    (lambda: Params(2, 1), "p must be an odd prime, got 2"),
    (lambda: Params(5, 0), "f must be >= 1, got 0"),
    (lambda: Weight(Params(5, 3), (1, 2), 0), "digit vector has length 2, expected f=3"),
    (lambda: Weight(Params(5, 3), (1, 2, 5), 0), "digits out of range [0, p-1]: (1, 2, 5)"),
    (lambda: Weight(Params(5, 3), (1, -1, 0), 0), "digits out of range [0, p-1]: (1, -1, 0)"),
    (lambda: Weight(Params(5, 3), (1, 2, -0.5), 0), "digits out of range [0, p-1]: (1, 2, -0.5)"),
    (lambda: GaloisParams(Params(5, 3), True, (1, 1), 0), "parameter vector has length 2, expected 3"),
    (lambda: GaloisParams(Params(5, 3), True, (3, 3, 3), 0), "parameter vector (p-2,...,p-2) is excluded"),
    (lambda: GaloisParams(Params(5, 3), True, (1, 4, 1), 0), "reducible case needs -1 <= r_i <= p-2, got (1, 4, 1)"),
    (lambda: GaloisParams(Params(5, 3), False, (5, 1, 1), 0), "irreducible case needs 0 <= r_0 <= p-1, got (5, 1, 1)"),
    (lambda: GaloisParams(Params(5, 3), False, (1, 4, 1), 0),
     "irreducible case needs -1 <= r_i <= p-2 for i>0, got (1, 4, 1)"),
])
def test_records_refuse_with_the_same_message(build, message):
    with pytest.raises(DomainError) as err:
        build()
    assert str(err.value) == message


@settings(max_examples=40, deadline=None)
@given(st.data())
def test_block_records_hash_as_their_field_tuples(data):
    """GaloisParams, DiamondWeight and D0Factor hash as the tuple of their
    fields over random generic parameters, so weight sets and blocks iterate
    in the same order (Weight and Params: the test above)."""
    par = Params(*data.draw(st.sampled_from([(5, 1), (5, 2), (5, 3), (7, 1), (7, 2), (11, 1), (11, 2)])))
    rho = data.draw(st.sampled_from(generic_parameters(par)))
    assert hash(rho) == hash((rho.params, rho.reducible, rho.r, rho.twist))
    for dw in diamond_set(rho):
        assert hash(dw) == hash((dw.weight, dw.lam, dw.S))
        for fac in d0_factors(rho, dw):
            assert hash(fac) == hash((fac.mu, fac.weight))
