import hashlib
import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond.core import DomainError
from gl2diamond.tuples import (
    FAMILIES,
    MU_ALPHABET,
    RD_ALPHABET,
    P1MX,
    P2MX,
    P3MX,
    Sym,
    X,
    XM1,
    XP1,
    J_of_lambda,
    S_of_mu,
    all_candidate_tuples,
    compatible,
    compile_tuple,
    compose_tuples,
    delta_irr,
    delta_red,
    e_of_lambda,
    enumerate_ID,
    enumerate_Imu,
    enumerate_P,
    enumerate_RD,
    eval_tuple,
    evaluate_forms,
    family_alphabets,
    in_weight_range,
    is_valid,
    lambda_of_S,
    mu_of_lambda,
)


def test_symbol_evaluation_and_composition():
    p = 7
    assert X.value(3, p) == 3
    assert XM1.value(0, p) == -1
    assert P2MX.value(3, p) == 2
    assert P1MX.value(0, p) == 6
    for outer in MU_ALPHABET:
        for inner in RD_ALPHABET:
            comp = outer.compose(inner)
            for x in range(p):
                assert comp.value(x, p) == outer.value(inner.value(x, p), p)


@pytest.mark.parametrize("f", [1, 2, 3, 4, 5])
def test_enumeration_counts(f):
    assert len(enumerate_P(f)) == 2 ** f
    assert len(enumerate_RD(f)) == 2 ** f
    assert len(enumerate_ID(f)) == 2 ** f


ENUMERATE = {"P": enumerate_P, "RD": enumerate_RD, "ID": enumerate_ID, "IMU": enumerate_Imu}
UNION = tuple(sorted({s for first, rest in FAMILIES.values() for s in first + rest}))


@pytest.mark.parametrize("family,f", [(family, f) for family in FAMILIES for f in (1, 2, 3, 4)])
def test_enumeration_equals_rule_filter(family, f):
    alphabets = family_alphabets(family, f)
    got = ENUMERATE[family](f)
    brute = {t for t in all_candidate_tuples(f, UNION) if is_valid(t, alphabets)}
    assert set(got) == brute
    # lexicographic in the per-slot alphabets
    assert got == tuple(t for t in itertools.product(*alphabets) if is_valid(t, alphabets))
    # the identity tuple is always there
    assert (X,) * f in got


# sha256 of "FAMILYf:label,...,label\n" over every tuple of the four families,
# 2 <= f <= 6, in enumeration order: the order is part of the interface
ENUMERATION_SHA256 = "350db162d4eeb4bccee4cfd83f3002fd4695d77f200fca89849172243bb4c0e5"


def test_enumeration_order_is_pinned():
    h = hashlib.sha256()
    for family in FAMILIES:
        for f in range(2, 7):
            for t in ENUMERATE[family](f):
                h.update(f"{family}{f}:{','.join(s.label() for s in t)}\n".encode())
    assert h.hexdigest() == ENUMERATION_SHA256


@pytest.mark.parametrize("family", sorted(FAMILIES))
def test_enumeration_needs_positive_f(family):
    with pytest.raises(DomainError):
        ENUMERATE[family](0)


def test_family_f1_contents():
    assert enumerate_P(1) == ((X,), (P1MX,))
    assert enumerate_RD(1) == ((X,), (P3MX,))
    assert enumerate_ID(1) == ((X,), (P1MX,))
    assert enumerate_Imu(1) == ((X,), (P3MX,), (P1MX,))


def test_eval_tuple_and_filtering():
    p = 7
    tpl = (XM1, P2MX)
    assert eval_tuple(tpl, (0, 3), p) == (-1, 2)
    assert eval_tuple(tpl, (5, 0), p) == (4, 5)


@pytest.mark.parametrize("f", [1, 2, 3])
def test_e_of_lambda_parity_everywhere(f):
    p = 5
    for fam in (enumerate_P(f), enumerate_RD(f), enumerate_ID(f)):
        for tpl in fam:
            for r in itertools.product(range(p), repeat=f):
                e_of_lambda(tpl, r, p)  # raises on a parity failure


def test_e_of_lambda_values():
    p = 5
    assert e_of_lambda((X,), (2,), p) == 0
    assert e_of_lambda((P1MX,), (2,), p) == 2  # principal-series branch
    # the identity branch for moved tuples
    assert e_of_lambda((XM1, P2MX), (2, 1), 7) == ((1) + 7 * (2 * 1 + 2 - 7) + 48) // 2


def test_J_and_S_subsets():
    f = 3
    assert J_of_lambda((X, X, X)) == frozenset()
    assert J_of_lambda((P1MX, P1MX, P1MX)) == frozenset({0, 1, 2})
    assert J_of_lambda((X, P2MX, P1MX)) == frozenset({1, 2})
    for f in (1, 2, 3, 4):
        for reducible in (True, False):
            fam = enumerate_RD(f) if reducible else enumerate_ID(f)
            subsets = {S_of_mu(t) for t in fam}
            assert len(subsets) == 2 ** f
            for t in fam:
                assert lambda_of_S(S_of_mu(t), f, reducible) == t


def test_mu_of_lambda_rules():
    # constant rules on the reducible side
    assert mu_of_lambda((X, X), True) == (P1MX, P1MX)
    assert mu_of_lambda((XP1, P2MX), True) == (P3MX, P3MX)
    # the alternating tuple from the even-f construction
    f = 4
    lam = tuple(XP1 if i % 2 == 0 else P2MX for i in range(f))
    assert mu_of_lambda(lam, True) == (P3MX,) * f
    # shifted rule at index 0 on the irreducible side
    assert mu_of_lambda((X, X), False) == (P3MX, P1MX)
    assert mu_of_lambda((XM1, P2MX), False) == (P1MX, P3MX)


def test_compatibility():
    f = 2
    idt = (Sym(1, 0),) * f
    assert compatible(idt, idt)
    assert not compatible((Sym(1, 1), Sym(1, 0)), (Sym(1, -1), Sym(1, 0)))
    # p-2-y sits in both classes, so a constant p-2-y tuple never blocks
    for mu in enumerate_Imu(f):
        assert compatible((P2MX,) * f, mu)


def test_S_of_mu():
    f = 3
    assert S_of_mu((Sym(1, 0),) * f) == frozenset()
    assert S_of_mu((P1MX,) * f) == frozenset(range(f))
    # matching entries propagate membership of the next index
    for mu in enumerate_Imu(2):
        for mu2 in enumerate_Imu(2):
            for i in range(2):
                if mu[i] == mu2[i]:
                    nxt = (i + 1) % 2
                    assert (nxt in S_of_mu(mu)) == (nxt in S_of_mu(mu2))


def test_delta_maps():
    for f in (1, 2, 3, 4):
        subsets = [frozenset(s) for n in range(f + 1) for s in itertools.combinations(range(f), n)]
        assert len({delta_red(S, f) for S in subsets}) == 2 ** f
        assert len({delta_irr(S, f) for S in subsets}) == 2 ** f
    assert delta_red(frozenset(), 3) == frozenset()
    assert delta_red(frozenset({0}), 3) == frozenset({2})
    assert 0 in delta_irr(frozenset(), 3)


def test_compose_tuples():
    f = 2
    lam = (XM1, P2MX)
    mu = (P1MX, Sym(1, 1))
    comp = compose_tuples(mu, lam)
    p = 7
    for r in itertools.product(range(p), repeat=f):
        vals = eval_tuple(comp, r, p)
        direct = tuple(m.value(l.value(x, p), p) for m, l, x in zip(mu, lam, r))
        assert vals == direct


ENUMERATE = {"P": enumerate_P, "RD": enumerate_RD, "ID": enumerate_ID, "IMU": enumerate_Imu}


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_compiled_forms_match_the_symbolic_evaluation(data):
    """Every family tuple at p in {3, 5, 7} and f <= 4: the compiled form
    gives eval_tuple's values, in_weight_range's verdict and e_of_lambda's
    exponent, at digits one beyond [0, p-1] on each side too."""
    p, f = data.draw(st.sampled_from([3, 5, 7])), data.draw(st.integers(1, 4))
    family = data.draw(st.sampled_from(sorted(ENUMERATE)))
    r = tuple(data.draw(st.integers(-1, p)) for _ in range(f))
    fam = ENUMERATE[family](f)
    forms = [compile_tuple(tpl, p) for tpl in fam]
    n = p ** f - 1
    for tpl, (consts, signs, weights, K), ev in zip(fam, forms, evaluate_forms(forms, r, p)):
        vals = eval_tuple(tpl, r, p)
        e = e_of_lambda(tpl, r, p)
        assert tuple(c + s * x for c, s, x in zip(consts, signs, r)) == vals
        assert sum(w * x for w, x in zip(weights, r)) + K == e
        assert (ev is not None) == in_weight_range(vals, p)
        if ev is not None:
            assert ev[0] == vals and ev[1] % n == e % n


def test_compile_refuses_an_odd_bracket():
    """The bracket's parity does not depend on the digits, so a tuple outside
    the families is refused once, when compiled, as e_of_lambda refuses it."""
    with pytest.raises(AssertionError, match="odd normalizing bracket"):
        compile_tuple((XP1,), 5)
    for r in range(5):
        with pytest.raises(AssertionError, match="odd normalizing bracket"):
            e_of_lambda((XP1,), (r,), 5)
