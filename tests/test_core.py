import itertools

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
    """The cached hash is the generated one, hash((fields compared)): the
    iteration order of weights_of_char, hence of the socles in the golden
    reports, depends on it."""
    par = Params(data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 3)))
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
