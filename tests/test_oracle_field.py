import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond.core import DomainError, Params, Weight, chi_of_weight
from gl2diamond.oracle import gf as gf_module
from gl2diamond.oracle.gf import (
    GF, PANEL, TABLE_BYTES_LIMIT, Subspace, _defining_poly, _table_plan, get_gf, nullspace, reduced_powers, rref,
    spin,
)
from gl2diamond.oracle.gr import get_gr
from gl2diamond.oracle.groups import get_context
from gl2diamond.oracle.modules import character_module, induce


@pytest.mark.parametrize("p,f", [(3, 2), (5, 1), (5, 2), (7, 2), (5, 3)])
def test_field_axioms(p, f):
    F = get_gf(p, f)
    q = F.q
    a = np.arange(q)
    assert (F.add_t == F.add_t.T).all()
    assert (F.mul_t == F.mul_t.T).all()
    assert (F.mul_t[1, a] == a).all()
    assert (F.add_t[0, a] == a).all()
    assert (F.add_t[a, F.neg_t[a]] == 0).all()
    assert (F.mul_t[a[1:], F.inv_t[a[1:]]] == 1).all()
    rng = np.random.default_rng(0)
    x, y, z = rng.integers(0, q, (3, 300))
    assert (F.mul_t[x, F.add_t[y, z]] == F.add_t[F.mul_t[x, y], F.mul_t[x, z]]).all()
    assert (F.mul_t[F.mul_t[x, y], z] == F.mul_t[x, F.mul_t[y, z]]).all()


@pytest.mark.parametrize("p,f", [(3, 1), (3, 3), (5, 2), (7, 2), (5, 3)])
def test_reduced_powers_are_the_powers_of_x(p, f):
    F = get_gf(p, f)
    n = 2 * f + 1
    rows = reduced_powers(F.poly, p, n)
    x = int(F.encode(rows[1]))
    assert [int(F.encode(row)) for row in rows] == [F._pow_int(x, k) for k in range(n)]
    # the Galois-ring rows lift the field rows
    assert (np.array(reduced_powers(F.poly, p * p, n)) % p == np.array(rows)).all()


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]),
    st.lists(st.one_of(st.just(0), st.integers(0, 124)), min_size=1, max_size=4),
    st.lists(st.one_of(st.just(0), st.integers(-300, 300)), min_size=1, max_size=4),
)
def test_pow_vec_broadcasts_array_exponents(pf, elems, exps):
    F = get_gf(*pf)
    a, e = np.array(elems)[:, None] % F.q, np.array(exps)[None, :]
    if ((a == 0) & (e < 0)).any():
        with pytest.raises(ZeroDivisionError):
            F.pow_vec(a, e)
        return
    # 0^0 = 1 and 0^k = 0 for k > 0; a nonzero element has order dividing q - 1
    want = [[F._pow_int(int(x), int(k) if k >= 0 else int(k) % (F.q - 1)) for k in e[0]] for x in a[:, 0]]
    assert (F.pow_vec(a, e) == want).all()
    assert all((F.pow_vec(a[:, 0], int(k)) == F.pow_vec(a, e)[:, i]).all() for i, k in enumerate(e[0]))


def test_pow_vec_refuses_only_a_negative_power_of_zero():
    F = get_gf(5, 2)
    assert F.pow_vec([0, 2], [0, -1]).tolist() == [1, int(F.inv_t[2])]
    assert F.pow_vec(0, 0).shape == () and F.pow_vec(0, 0) == 1
    with pytest.raises(ZeroDivisionError):
        F.pow_vec([[0], [1]], [1, -1])


@pytest.mark.parametrize("p,f", [(5, 2), (7, 2), (5, 3)])
def test_frobenius(p, f):
    F = get_gf(p, f)
    a = np.arange(F.q)
    assert (F.frob_t[F.add_t[a[:, None], a[None, :]]] == F.add_t[F.frob_t[a][:, None], F.frob_t[a][None, :]]).all()
    b = a.copy()
    for _ in range(f):
        b = F.frob_t[b]
    assert (b == a).all()
    # fixed field is the prime field
    assert set(np.nonzero(F.frob_t == a)[0]) == set(range(p))


def test_matmul_and_nullspace():
    F = get_gf(5, 2)
    rng = np.random.default_rng(1)
    A = rng.integers(0, F.q, (7, 5))
    B = rng.integers(0, F.q, (5, 6))
    C = F.matmul(A, B)
    # associativity against a column vector
    v = rng.integers(0, F.q, (6, 1))
    assert (F.matmul(C, v) == F.matmul(A, F.matmul(B, v))).all()
    ns = nullspace(F, A)
    for row in ns:
        assert not F.matmul(A, row[:, None]).any()
    # rank-nullity on the columns
    assert Subspace(F, A).dim + ns.shape[0] == A.shape[1]


def _gather_matmul(gf, A, B):
    """Reference: every product gathered from the multiplication table, then
    summed digitwise mod p over the inner index."""
    m, k = A.shape
    n = B.shape[1]
    if 0 in (m, k, n):
        return np.zeros((m, n), dtype=np.int64)
    P = gf.mul_t[A[:, :, None], B[None, :, :]]
    return (gf.dig[P].sum(axis=1) % gf.p) @ gf.pows


MATMUL_FIELDS = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (5, 4)]


@settings(max_examples=60, deadline=None)
@given(
    st.sampled_from(MATMUL_FIELDS),
    st.integers(0, 6),
    st.one_of(st.integers(0, 12), st.integers(13, 500)),
    st.integers(1, 6),
    st.sampled_from(["random", "all q-1"]),
    st.integers(0, 2 ** 32 - 1),
)
def test_matmul_matches_gather_reference(pf, m, k, n, kind, seed):
    gf = get_gf(*pf)
    if kind == "random":
        rng = np.random.default_rng(seed)
        A, B = rng.integers(0, gf.q, (m, k)), rng.integers(0, gf.q, (k, n))
    else:
        # the largest digits in every entry: the largest sums the kernel sees
        A, B = np.full((m, k), gf.q - 1), np.full((k, n), gf.q - 1)
    C = gf.matmul(A, B)
    assert C.shape == (m, n) and C.dtype == np.int64
    assert (C == _gather_matmul(gf, A, B)).all()
    # a prepared right operand gives the same product, every time it is used
    prepared = gf.prepare(B)
    for _ in range(2):
        assert (gf.matmul(A, prepared) == C).all()


@pytest.mark.parametrize("pf", [(5, 2), (3, 3)])
@pytest.mark.parametrize("m,k,n", [(97, 10, 5), (40, 60, 3), (1, 10, 5), (0, 4, 2)])
def test_matmul_row_blocks_match_gather_reference(monkeypatch, pf, m, k, n):
    # a budget of 300 entries takes 1 to 6 rows per block; at k = 60 one row
    # alone passes it
    monkeypatch.setattr(gf_module, "MATMUL_BLOCK_ENTRIES", 300)
    gf = get_gf(*pf)
    rng = np.random.default_rng(1000 * m + k)
    A, B = rng.integers(0, gf.q, (m, k)), rng.integers(0, gf.q, (k, n))
    want = _gather_matmul(gf, A, B)
    calls = []
    matmul = GF.matmul
    monkeypatch.setattr(GF, "matmul", lambda self, *args: calls.append(1) or matmul(self, *args))
    for right in (B, gf.prepare(B)):
        C = gf.matmul(A, right)
        assert C.shape == (m, n) and C.dtype == np.int64
        assert (C == want).all()
    # the blocks do not go through the public method again
    assert len(calls) == 2


def test_matmul_of_a_tall_left_operand_stays_in_its_budget():
    import tracemalloc

    gf = get_gf(5, 2)
    rng = np.random.default_rng(0)
    A, B = rng.integers(0, gf.q, (20_000, 128)), rng.integers(0, gf.q, (128, 128))
    prepared = gf.prepare(B)
    tracemalloc.start()
    try:
        C = gf.matmul(A, prepared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # in one block, the f^2 gathered digit planes (82 MB) and the float output
    # (41 MB) peak at 117 MB; in row blocks, 52 MB with the 20 MB product
    assert peak < 64 * 2 ** 20
    assert (C[::997] == _gather_matmul(gf, A[::997], B)).all()


def test_matmul_reduces_its_product_in_place():
    # one block whose f m n digit product (1M entries, 8 MB) dominates: the
    # float64 product and its int64 copy are held at once, but the residues
    # mod p are taken in that copy, not in a third array
    gf = get_gf(5, 2)
    rng = np.random.default_rng(1)
    A, B = rng.integers(0, gf.q, (1000, 8)), rng.integers(0, gf.q, (8, 500))
    prepared = gf.prepare(B)
    tracemalloc.start()
    try:
        C = gf.matmul(A, prepared)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * 8 * gf.f * 1000 * 500
    assert (C[::37] == _gather_matmul(gf, A[::37], B)).all()


@pytest.mark.parametrize("p,f", [(3, 1), (7, 2), (5, 3)])
def test_matmul_refuses_an_inexact_inner_dimension(p, f):
    gf = get_gf(p, f)
    # the first inner dimension with f k (p-1)^2 >= 2^53; zero strides, so
    # nothing of that length is allocated
    k = -(-(2 ** 53) // (f * (p - 1) ** 2))
    A = np.broadcast_to(np.int64(1), (1, k))
    B = np.broadcast_to(np.int64(1), (k, 1))
    with pytest.raises(DomainError, match="inexact"):
        gf.matmul(A, B)


def test_subspace_membership_and_coordinates():
    F = get_gf(5, 2)
    rng = np.random.default_rng(2)
    rows = rng.integers(0, F.q, (3, 8))
    sub = Subspace(F, rows)
    combo = F.add(F.mul(7, rows[0]), F.mul(3, rows[2]))
    assert sub.contains(combo)
    coeffs = sub.express(combo)[0]
    back = np.zeros(8, dtype=np.int64)
    for c, b in zip(coeffs, sub.basis):
        back = F.add(back, F.mul(int(c), b))
    assert (back == combo).all()
    outside = rng.integers(0, F.q, 8)
    if not sub.contains(outside):
        with pytest.raises(ValueError):
            sub.express(outside)


@pytest.mark.parametrize("p,f", [(5, 1), (5, 2), (3, 3)])
def test_subspace_that_grew_reduces_like_a_fresh_one(p, f):
    # reduce keeps the basis prepared; an insert that grows the basis must drop it
    gf = get_gf(p, f)
    rng = np.random.default_rng(5)
    start, new = rng.integers(0, gf.q, (2, 7)), rng.integers(0, gf.q, (2, 7))
    probe = rng.integers(0, gf.q, (6, 7))
    sub = Subspace(gf, start)
    sub.reduce(probe)
    assert sub.insert(new) == [0, 1]
    fresh = Subspace(gf, np.vstack([start, new]))
    assert (sub.reduce(probe) == fresh.reduce(probe)).all()
    assert sub.contains(new) and fresh.contains(new)
    assert sub.contains(probe) == fresh.contains(probe)


def test_spin_closure():
    F = get_gf(5, 1)
    # cyclic permutation matrix: spinning one basis vector fills the space
    P = np.zeros((4, 4), dtype=np.int64)
    for i in range(4):
        P[(i + 1) % 4, i] = 1
    seed = np.array([1, 0, 0, 0])
    assert spin(F, [P], seed).dim == 4


def test_spin_without_generators_is_the_span_of_the_seeds():
    gf = get_gf(5, 2)
    seeds = np.random.default_rng(4).integers(0, gf.q, (3, 6))
    sub = spin(gf, [], seeds)
    span = Subspace(gf, seeds)
    assert (sub.basis == span.basis).all() and sub.pivots == span.pivots


@pytest.mark.parametrize("p,f", [(5, 1), (5, 2), (7, 2), (5, 3)])
def test_galois_ring(p, f):
    R = get_gr(p, f)
    F = R.gf
    for e in range(F.q):
        t = R.teichmuller(e)
        assert R.reduce_p(t) == e
        assert (R.pow(t, F.q) == t).all()
    rng = np.random.default_rng(3)
    for _ in range(40):
        x, y = rng.integers(0, F.q, 2)
        assert (
            R.mul(R.teichmuller(int(x)), R.teichmuller(int(y)))
            == R.teichmuller(int(F.mul_t[x, y]))
        ).all()
    # unit inverses and matrix identities
    count = 0
    while count < 30:
        A = rng.integers(0, R.p2, (2, 2, f))
        A[1, 0] = (A[1, 0] * p) % R.p2
        if not R.mat_is_unit(A):
            continue
        count += 1
        assert (R.mat_mul(A, R.mat_inv(A)) == R.mat_eye()).all()
        Pi = R.mat_scalar_p()
        assert (R.mat_mul(Pi, R.swap_conjugate(A)) == R.mat_mul(A, Pi)).all()


def _convolution_mul(R, a, b):
    """Reference: the scalar product as one convolution row per coefficient,
    then one reduction row per power x^(f+k) of the lifted polynomial."""
    f, p2 = R.f, R.p2
    top = [(-c) % p2 for c in R.gf.poly]
    red, row = [], list(top)
    for _ in range(f - 1):
        red.append(list(row))
        carry = row[f - 1]
        row = [0] + row[: f - 1]
        row = [(row[j] + carry * top[j]) % p2 for j in range(f)]
    conv = np.zeros(2 * f - 1, dtype=np.int64)
    for i in range(f):
        conv[i : i + f] += a[i] * b % p2
        conv %= p2
    out = conv[:f].copy()
    for k in range(f, 2 * f - 1):
        out = (out + conv[k] * np.array(red[k - f], dtype=np.int64)) % p2
    return out


GR_CASES = [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]


@pytest.mark.parametrize("p,f", GR_CASES)
def test_broadcast_mul_matches_convolution_reference(p, f):
    R = get_gr(p, f)
    rng = np.random.default_rng(10 * p + f)
    a = rng.integers(0, R.p2, (4, 6, f))
    a[0, 0] = R.p2 - 1  # the largest coefficients
    b = rng.integers(0, R.p2, (6, f))
    b[0] = R.p2 - 1
    prod = R.mul(a, b)
    assert prod.shape == (4, 6, f)
    for i, j in np.ndindex(4, 6):
        assert (prod[i, j] == _convolution_mul(R, a[i, j], b[j])).all()
    # a stack of matrix products is the product of each pair
    A = rng.integers(0, R.p2, (5, 2, 2, f))
    B = rng.integers(0, R.p2, (5, 2, 2, f))
    C = R.mat_mul(A, B)
    for k in range(5):
        for i, j in np.ndindex(2, 2):
            want = (_convolution_mul(R, A[k, i, 0], B[k, 0, j]) + _convolution_mul(R, A[k, i, 1], B[k, 1, j])) % R.p2
            assert (C[k, i, j] == want).all()
    # determinants and residues of the stack are those of each matrix
    dets = R.mat_det(A)
    assert all((dets[k] == R.mat_det(A[k])).all() for k in range(5))
    assert list(R.reduce_p(dets)) == [R.reduce_p(d) for d in dets]


def test_defining_polynomial_is_deterministic():
    a = get_gf(5, 2)
    b = GF(5, 2)
    assert a.poly == b.poly
    assert a.gen == b.gen


# the defining polynomial of every odd-prime field under TABLE_BYTES_LIMIT
# with p <= 47, as its f low coefficients, constant term first: any other
# choice moves every oracle table, so these must never change
DEFINING_POLYNOMIALS = {
    (3, 1): (0,), (3, 2): (1, 0), (3, 3): (1, 2, 0), (3, 4): (2, 1, 0, 0), (3, 5): (1, 2, 0, 0, 0),
    (3, 6): (2, 1, 0, 0, 0, 0), (3, 7): (2, 0, 1, 0, 0, 0, 0),
    (5, 1): (0,), (5, 2): (2, 0), (5, 3): (1, 1, 0), (5, 4): (2, 0, 0, 0), (5, 5): (1, 4, 0, 0, 0),
    (7, 1): (0,), (7, 2): (1, 0), (7, 3): (2, 0, 0), (7, 4): (1, 1, 0, 0),
    (11, 1): (0,), (11, 2): (1, 0), (11, 3): (4, 1, 0),
    (13, 1): (0,), (13, 2): (2, 0), (13, 3): (2, 0, 0),
    (17, 1): (0,), (17, 2): (3, 0), (17, 3): (3, 1, 0),
    (19, 1): (0,), (19, 2): (1, 0), (19, 3): (2, 0, 0),
    (23, 1): (0,), (23, 2): (1, 0),
    (29, 1): (0,), (29, 2): (2, 0),
    (31, 1): (0,), (31, 2): (1, 0),
    (37, 1): (0,), (37, 2): (2, 0),
    (41, 1): (0,), (41, 2): (3, 0),
    (43, 1): (0,), (43, 2): (1, 0),
    (47, 1): (0,), (47, 2): (1, 0),
}


def test_defining_polynomials_are_pinned():
    got = {(p, f): tuple(_defining_poly(p, f)) for p, f in DEFINING_POLYNOMIALS}
    assert got == DEFINING_POLYNOMIALS


@pytest.mark.parametrize("p,f", [(3, 1), (7, 2), (3, 5), (5, 3), (5, 4), (2003, 1)])
def test_field_build_peaks_within_the_checked_figure(p, f):
    # the size check refuses a field by the bytes its build holds at once,
    # not by the size of one finished table
    tracemalloc.start()
    try:
        GF(p, f)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _table_plan(p ** f, f)[1]


def test_oversized_field_tables_are_refused():
    # q = 31^3: the multiplication table alone would need about 33 GiB
    with pytest.raises(DomainError, match="29791"):
        get_gf(31, 3)
    # q = 16381: one 8 q^2 table fits in the limit, but the build holds two
    # tables and a row block at once (arithmetic only: nothing is built)
    assert 8 * 16381 ** 2 <= TABLE_BYTES_LIMIT < _table_plan(16381, 1)[1]


class _RowEchelon:
    """Reference: the row-at-a-time echelon form, one insertion per vector."""

    def __init__(self, gf, n):
        self.gf = gf
        self.basis = np.zeros((0, n), dtype=np.int64)
        self.pivots = []

    def reduce(self, v):
        gf = self.gf
        v = np.asarray(v, dtype=np.int64).copy()
        for i, c in enumerate(self.pivots):
            coeff = v[c]
            if coeff:
                v = gf.sub(v, gf.mul(coeff, self.basis[i]))
        return v

    def insert(self, v) -> bool:
        gf = self.gf
        v = self.reduce(v)
        nz = np.nonzero(v)[0]
        if nz.size == 0:
            return False
        c = int(nz[0])
        v = gf.mul(int(gf.inv_t[v[c]]), v)
        if self.basis.shape[0]:
            coeffs = self.basis[:, c].copy()
            hot = np.nonzero(coeffs)[0]
            if hot.size:
                upd = gf.mul_t[coeffs[hot][:, None], v[None, :]]
                self.basis[hot] = gf.sub(self.basis[hot], upd)
        pos = int(np.searchsorted(np.asarray(self.pivots, dtype=np.int64), c))
        self.basis = np.insert(self.basis, pos, v, axis=0)
        self.pivots.insert(pos, c)
        return True


FIELDS = [(3, 1), (3, 2), (5, 1), (5, 2), (7, 1), (3, 3)]


def _draw_matrix(draw, gf, m, n):
    """An m x n matrix over gf: random, rank-deficient (m x r)(r x n), or zero."""
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["random", "low rank", "zero"]))
    if kind == "random":
        A = rng.integers(0, gf.q, (m, n))
    elif kind == "low rank":
        r = draw(st.integers(0, n))
        A = gf.matmul(rng.integers(0, gf.q, (m, r)), rng.integers(0, gf.q, (r, n)))
    else:
        A = np.zeros((m, n), dtype=np.int64)
    return A.astype(np.int64)


@st.composite
def field_matrices(draw, square=False):
    """(gf, A) for A from ``_draw_matrix``, possibly with 0 rows."""
    gf = get_gf(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 7))
    m = n if square else draw(st.integers(0, 8))
    return gf, _draw_matrix(draw, gf, m, n)


def _reference(gf, rows, n, start=()):
    ref = _RowEchelon(gf, n)
    for row in start:
        ref.insert(row)
    grew = [i for i, row in enumerate(rows) if ref.insert(row)]
    return ref, grew


@settings(max_examples=80, deadline=None)
@given(field_matrices(), st.integers(0, 2 ** 32 - 1))
def test_rref_and_insert_match_row_at_a_time_reference(gf_A, seed):
    gf, A = gf_A
    n = A.shape[1]
    ref, kept = _reference(gf, A, n)
    R, pivots, rows = rref(gf, A)
    assert (R == ref.basis).all() and R.shape == ref.basis.shape
    assert pivots == ref.pivots
    assert sorted(rows) == kept
    sub = Subspace(gf, A)
    assert (sub.basis == ref.basis).all() and sub.pivots == ref.pivots
    # greedy insertion of a block into a nonempty subspace, rows repeated
    start = np.random.default_rng(seed).integers(0, gf.q, (2, n))
    block = np.vstack([A, A[:1], start[:1]])
    ref, grew = _reference(gf, block, n, start=start)
    sub = Subspace(gf, start)
    assert sub.insert(block) == grew
    assert (sub.basis == ref.basis).all() and sub.pivots == ref.pivots


def _per_column_rref(gf, A):
    """Reference: the unblocked Gauss-Jordan that ``rref`` replaced, one pivot
    column at a time over the whole matrix."""
    R = np.array(A, dtype=np.int64, ndmin=2)
    m, n = R.shape
    free = np.ones(m, dtype=bool)
    pivots, used = [], []
    for c in range(n):
        if len(used) == m:
            break
        hot = np.flatnonzero(R[:, c])
        lowest = hot[free[hot]]
        if lowest.size == 0:
            continue
        r = int(lowest[0])
        free[r] = False
        R[r, c:] = gf.mul_t[gf.inv_t[R[r, c]], R[r, c:]]
        hot = hot[hot != r]
        if hot.size:
            R[hot, c:] = gf.sub(R[hot, c:], gf.mul_t[R[hot, c, None], R[r, None, c:]])
        pivots.append(c)
        used.append(r)
    return R[used], pivots, used


@st.composite
def panel_matrices(draw):
    """(gf, A) for A from ``_draw_matrix`` with shapes on both sides of the
    panel threshold (m >= PANEL rows and 3 PANEL columns left)."""
    gf = get_gf(*draw(st.sampled_from(FIELDS)))
    return gf, _draw_matrix(draw, gf, draw(st.integers(0, 130)), draw(st.integers(1, 120)))


@settings(max_examples=60, deadline=None)
@given(panel_matrices())
def test_blocked_rref_matches_per_column_reference(gf_A):
    gf, A = gf_A
    R, pivots, used = rref(gf, A)
    want_R, want_pivots, want_used = _per_column_rref(gf, A)
    assert R.shape == want_R.shape and (R == want_R).all()
    assert pivots == want_pivots and all(type(c) is int for c in pivots)
    assert used == want_used


@pytest.mark.parametrize("size,products", [(100, (100 - 3 * PANEL) // PANEL + 1), (26, 0)])
def test_rref_takes_one_product_per_panel(monkeypatch, size, products):
    gf = get_gf(5, 2)
    A = np.random.default_rng(size).integers(0, gf.q, (size, size))
    want = _per_column_rref(gf, A)
    calls = []
    matmul = GF.matmul
    monkeypatch.setattr(GF, "matmul", lambda self, *args: calls.append(1) or matmul(self, *args))
    R, pivots, used = rref(gf, A)
    assert len(calls) == products
    assert (R == want[0]).all() and pivots == want[1] and used == want[2]


@st.composite
def insert_chains(draw):
    """(gf, blocks): successive blocks of rows of one length over one field."""
    gf = get_gf(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 7))
    sizes = draw(st.lists(st.integers(0, 4), min_size=2, max_size=6))
    return gf, [_draw_matrix(draw, gf, m, n) for m in sizes]


@settings(max_examples=60, deadline=None)
@given(insert_chains(), st.integers(0, 2 ** 32 - 1))
def test_a_chain_of_inserts_matches_row_at_a_time_reference(gf_blocks, seed):
    # each block grows the basis in place against the rows of the earlier
    # ones; members of the span so far are mixed into it
    gf, blocks = gf_blocks
    n = blocks[0].shape[1]
    rng = np.random.default_rng(seed)
    sub, ref = Subspace(gf, ambient=n), _RowEchelon(gf, n)
    for block in blocks:
        members = gf.matmul(rng.integers(0, gf.q, (2, sub.dim)), sub.basis) if sub.dim else block[:0]
        block = np.vstack([members[:1], block, members[1:]])
        grew = [i for i, row in enumerate(block) if ref.insert(row)]
        assert sub.insert(block) == grew
        assert (sub.basis == ref.basis).all() and sub.pivots == ref.pivots


@st.composite
def spin_cases(draw):
    """(gf, mats, seeds): up to three generators, each random, nilpotent, a
    permutation or zero; seeds random or zero, or a basis vector together
    with a cyclic shift among the generators, which fills the space."""
    gf = get_gf(*draw(st.sampled_from(FIELDS)))
    n = draw(st.integers(1, 7))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    mats = []
    for kind in draw(st.lists(st.sampled_from(["random", "nilpotent", "permutation", "zero"]), max_size=3)):
        if kind == "random":
            M = rng.integers(0, gf.q, (n, n))
        elif kind == "nilpotent":
            perm = rng.permutation(n)
            M = np.triu(rng.integers(0, gf.q, (n, n)), 1)[perm][:, perm]
        elif kind == "permutation":
            M = np.eye(n, dtype=np.int64)[rng.permutation(n)]
        else:
            M = np.zeros((n, n), dtype=np.int64)
        mats.append(M)
    kind = draw(st.sampled_from(["random", "zero", "cyclic"]))
    if kind == "random":
        seeds = rng.integers(0, gf.q, (draw(st.integers(1, 3)), n))
    elif kind == "zero":
        seeds = np.zeros((draw(st.integers(1, 2)), n), dtype=np.int64)
    else:
        mats.insert(draw(st.integers(0, len(mats))), np.roll(np.eye(n, dtype=np.int64), 1, axis=0))
        seeds = np.eye(n, dtype=np.int64)[:1]
    return gf, mats, seeds


def _reference_spin(gf, mats, seeds, n):
    """Reference: the closure grown one image vector at a time."""
    ref = _RowEchelon(gf, n)
    todo = [row for row in seeds if ref.insert(row)]
    while todo:
        v = todo.pop()
        for M in mats:
            w = gf.matmul(M, v[:, None])[:, 0]
            if ref.insert(w):
                todo.append(w)
    return ref


@settings(max_examples=80, deadline=None)
@given(spin_cases())
def test_spin_matches_one_vector_at_a_time_closure(case):
    gf, mats, seeds = case
    n = seeds.shape[1]
    sub = spin(gf, mats, seeds)
    ref = _reference_spin(gf, mats, seeds, n)
    assert sub.basis.shape == ref.basis.shape
    assert (sub.basis == ref.basis).all() and sub.pivots == ref.pivots
    assert all(type(c) is int for c in sub.pivots)


def test_spin_holds_at_most_n_residue_rows(monkeypatch):
    # the induced trivial character at p=5, f=2 (dim 26) under the 14
    # generators of K: one round's residues pass 26 rows in all
    ctx = get_context(Params(5, 2))
    mod = induce(character_module(ctx, chi_of_weight(Weight(ctx.params, (0, 0), 0))))
    seed = np.zeros(mod.dim, dtype=np.int64)
    seed[0] = 1
    seen = []

    def counting_rref(gf, A):
        seen.append(np.asarray(A).shape[0])
        return rref(gf, A)

    monkeypatch.setattr(gf_module, "rref", counting_rref)
    assert spin(ctx.gf, mod.gen_mats("K"), seed).dim == mod.dim
    assert seen and max(seen) <= mod.dim


def test_spin_reduces_a_one_row_frontier_once_per_round(monkeypatch):
    # each round's frontier is the one basis vector e_k: the shift sends it
    # to e_(k+1), the identity and zero to the span, so every round holds
    # all three generators' images in one reduce
    gf = get_gf(5, 1)
    n = 6
    mats = [np.roll(np.eye(n, dtype=np.int64), 1, axis=0), np.eye(n, dtype=np.int64), np.zeros((n, n), dtype=np.int64)]
    seen = []
    reduce = Subspace.reduce
    monkeypatch.setattr(Subspace, "reduce", lambda self, rows: seen.append(np.shape(rows)) or reduce(self, rows))
    assert spin(gf, mats, np.eye(n, dtype=np.int64)[:1]).dim == n
    assert seen == [(len(mats), n)] * (n - 1)


def test_growing_insert_runs_one_elimination(monkeypatch):
    gf = get_gf(5, 2)
    rng = np.random.default_rng(7)
    sub = Subspace(gf, rng.integers(0, gf.q, (2, 9)))
    block = np.vstack([rng.integers(0, gf.q, (3, 9)), sub.basis[:1]])
    seen = []

    def counting_rref(gf, A):
        seen.append(np.asarray(A).shape)
        return rref(gf, A)

    monkeypatch.setattr(gf_module, "rref", counting_rref)
    assert sub.insert(block) == [0, 1, 2]
    assert seen == [(4, 9)]


@settings(max_examples=80, deadline=None)
@given(field_matrices())
def test_nullspace_is_annihilated_with_rank_plus_nullity(gf_A):
    gf, A = gf_A
    ns = nullspace(gf, A)
    assert not gf.matmul(A, ns.T).any()
    assert len(rref(gf, A)[1]) + ns.shape[0] == A.shape[1]
    assert len(rref(gf, ns)[1]) == ns.shape[0]


@settings(max_examples=80, deadline=None)
@given(field_matrices(), st.integers(0, 2 ** 32 - 1))
def test_express_round_trips_and_refuses_outside(gf_A, seed):
    gf, A = gf_A
    n = A.shape[1]
    sub = Subspace(gf, A, ambient=n)
    rng = np.random.default_rng(seed)
    members = gf.matmul(rng.integers(0, gf.q, (3, sub.dim)), sub.basis)
    assert (gf.matmul(sub.express(members), sub.basis) == members).all()
    if sub.dim < n:
        outside = np.zeros(n, dtype=np.int64)
        outside[sub.complement_coords()[0]] = 1
        with pytest.raises(ValueError):
            sub.express(np.vstack([members, outside]))


@pytest.mark.parametrize("p,f", GR_CASES)
def test_matrix_inverse_conjugation_and_assembly_broadcast(p, f):
    R = get_gr(p, f)
    rng = np.random.default_rng(20 * p + f)
    # a (3, 4) stack of Iwahori matrices mod p^2
    A = rng.integers(0, R.p2, (3, 4, 2, 2, f))
    A[..., 1, 0, :] = (A[..., 1, 0, :] * p) % R.p2
    while not R.mat_in_I(A).all():
        bad = ~R.mat_in_I(A)
        A[bad] = rng.integers(0, R.p2, (int(bad.sum()), 2, 2, f))
        A[..., 1, 0, :] = (A[..., 1, 0, :] * p) % R.p2
    inv, conj = R.mat_inv(A), R.swap_conjugate(A)
    assert inv.shape == conj.shape == A.shape
    assert (R.mat_mul(A, inv) == R.mat_eye()).all()
    assert R.mat_in_I(conj).all()
    entries = [A[..., i, j, :] for i, j in np.ndindex(2, 2)]
    assert (R.mat(*entries) == A).all()
    # a scalar entry broadcasts against stacked ones
    assert (R.mat(R.one(), *entries[1:])[..., 0, 0, :] == R.one()).all()
    for k in np.ndindex(3, 4):
        assert (inv[k] == R.mat_inv(A[k])).all()
        assert (conj[k] == R.swap_conjugate(A[k])).all()
        assert (R.mat(*(e[k] for e in entries)) == A[k]).all()
    # unit inverses of a stack, and a stack holding one non-unit refuses
    dets = R.mat_det(A)
    assert (R.mul(dets, R.unit_inverse(dets)) == R.one()).all()
    dets[1, 2] = (p * dets[1, 2]) % R.p2
    with pytest.raises(ZeroDivisionError):
        R.unit_inverse(dets)
