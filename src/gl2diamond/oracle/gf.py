"""Exact arithmetic and dense linear algebra over F_q = F_p[x]/(m(x)).

Field elements are integers in [0, q) whose base-p digits are the polynomial
coefficients (constant term first).  Arithmetic goes through lookup tables,
so numpy gathers give exact vectorized operations.  A matrix product is one
float64 BLAS product: digit j of sum_l a_l b_l is sum_(l,i) digit_j(x^i a_l)
digit_i(b_l) mod p, so the left factor is gathered from the table ``xplanes``
of the digits of x^i a and the right factor is the stack of the digit planes
of B (``prepare``, which a caller may keep for a reused right operand).  Each
entry of the float product sums f k terms of at most (p-1)^2, so the product
is exact while f k (p-1)^2 < 2^53 (k the inner dimension); past that bound
it is refused before anything is gathered.  The defining polynomial is the
monic irreducible of degree f with the smallest encoded coefficient vector,
so every run is reproducible.
Echelon work (subspaces, nullspaces, spins) runs in one
Gauss-Jordan elimination, ``rref``, which also names the rows it pivots on.
It eliminates 16 columns at a time on the tables and updates the columns
right of them by one product.  A subspace grows in place: the new residues
are echeloned once, and its old rows are cleared at the new pivot columns by
one product.  A spin reduces several generators' images at once, grows its
subspace once per round and stops at the full space.
"""

from __future__ import annotations

from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..core import DomainError

# fields whose table build (``_table_plan``) would pass this many bytes are refused
TABLE_BYTES_LIMIT = 2 * 1024 ** 3
# a product whose gathered left digit planes plus float output would pass this
# many float64 entries (32 MiB) runs in row blocks, so a tall left operand's
# transient memory stays bounded
MATMUL_BLOCK_ENTRIES = 2 ** 22
# ``rref`` eliminates this many columns at a time before one product updates the rest
PANEL = 16


def _trim(a):
    a = list(a)
    while a and a[-1] == 0:
        a.pop()
    return a


def _poly_mod(a, b, p):
    a = _trim(a)
    b = _trim(b)
    inv_lead = pow(b[-1], p - 2, p)
    while len(a) >= len(b):
        c = (a[-1] * inv_lead) % p
        shift = len(a) - len(b)
        for j in range(len(b)):
            a[shift + j] = (a[shift + j] - c * b[j]) % p
        a = _trim(a)
        if not a:
            break
    return a


def _prime_divisors(n):
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return out


def _is_irreducible(coeffs, f, p):
    """coeffs: the f low coefficients of the monic polynomial x^f + sum c_i x^i,
    which is irreducible when no monic polynomial of degree 1..f//2 divides it."""
    m = list(coeffs) + [1]
    for d in range(1, f // 2 + 1):
        for e in range(p ** d):
            if not _poly_mod(m, [(e // p ** i) % p for i in range(d)] + [1], p):
                return False
    return True


def reduced_powers(poly, modulus: int, count: int) -> list:
    """x^0 .. x^(count-1) modulo the monic x^f + sum poly_i x^i, as rows of f
    coefficients mod ``modulus`` (p for F_q, p^2 for the Galois ring)."""
    f = len(poly)
    top = [(-c) % modulus for c in poly]
    rows = []
    row = [1] + [0] * (f - 1)
    for _ in range(count):
        rows.append(row)
        carry = row[f - 1]
        row = [0] + row[: f - 1]
        row = [(row[j] + carry * top[j]) % modulus for j in range(f)]
    return rows


def _defining_poly(p, f):
    for e in range(p ** f):
        coeffs = [(e // p ** i) % p for i in range(f)]
        if _is_irreducible(coeffs, f, p):
            return coeffs
    raise RuntimeError("no irreducible polynomial found")


def _table_plan(q: int, f: int) -> tuple:
    """(rows, bytes): ``GF`` builds its add and mul tables ``rows`` rows at
    a time and holds at most ``bytes`` at once: the two q x q int64 tables,
    one block's (rows, q, f) digits, their residues and its encoded rows,
    the q f^2 digit planes, the q-sized tables and 64 KiB of Python objects."""
    rows = max(1, q // (8 * f))
    return rows, 8 * (2 * q * q + rows * q * (2 * f + 1) + (4 * f * f + 16) * q) + 2 ** 16


class Prepared(NamedTuple):
    """A k x n right operand of ``GF.matmul`` in the kernel's layout: ``planes``
    is (k f, n) with row l f + i holding digit i of row l."""

    planes: np.ndarray
    shape: tuple


class GF:
    """Tables for F_q with elements encoded as integers in [0, q)."""

    def __init__(self, p: int, f: int):
        self.p, self.f = p, f
        self.q = q = p ** f
        rows, need = _table_plan(q, f)
        if need > TABLE_BYTES_LIMIT:
            raise DomainError(
                f"F_q tables for q = {p}^{f} = {q} need {need / 1024 ** 3:.1f} GiB, "
                f"over the {TABLE_BYTES_LIMIT / 1024 ** 3:.0f} GiB limit"
            )
        self.poly = _defining_poly(p, f)

        self.pows = p ** np.arange(f, dtype=np.int64)
        self.dig = np.zeros((q, f), dtype=np.int64)
        for i in range(f):
            self.dig[:, i] = (np.arange(q) // p ** i) % p
        self.fdig = self.dig.astype(np.float64)

        d = self.dig
        self.neg_t = self.encode(-d)
        # xd[i, e] = the digits of x^i e, so digit j of a e is sum_i a_i xd[i, e, j]
        xpow = np.array(reduced_powers(self.poly, p, 2 * f - 1), dtype=np.int64)
        xd = np.stack([(d @ xpow[i:i + f]) % p for i in range(f)])
        self.add_t = np.empty((q, q), dtype=np.int64)
        self.mul_t = np.empty((q, q), dtype=np.int64)
        for s in range(0, q, rows):
            a = d[s:s + rows]
            self.add_t[s:s + rows] = self.encode(a[:, None, :] + d)
            self.mul_t[s:s + rows] = self.encode(np.tensordot(a, xd, 1))
        # xplanes[j, e, i] = digit j of x^i e: gathered along e, the left factor of ``matmul``
        self.xplanes = np.ascontiguousarray(xd.transpose(2, 1, 0), dtype=np.float64)

        # multiplicative structure: discrete logs w.r.t. the smallest generator
        self.gen = self._find_generator()
        self.log_t = np.full(q, -1, dtype=np.int64)
        self.exp_t = np.zeros(q - 1, dtype=np.int64)
        x = 1
        for k in range(q - 1):
            self.exp_t[k] = x
            self.log_t[x] = k
            x = int(self.mul_t[x, self.gen])
        if x != 1:
            raise AssertionError("generator order is not q-1")
        self.inv_t = np.zeros(q, dtype=np.int64)
        self.inv_t[1:] = self.pow_vec(np.arange(1, q), -1)
        self.frob_t = self.pow_vec(np.arange(q), p)

    def encode(self, digarr) -> np.ndarray:
        return (np.asarray(digarr) % self.p) @ self.pows

    def _find_generator(self) -> int:
        target = self.q - 1
        if target == 1:
            return 1
        divisors = _prime_divisors(target)
        for g in range(2, self.q):
            if all(self._pow_int(g, target // ell) != 1 for ell in divisors):
                return g
        raise AssertionError("no multiplicative generator found")

    def _pow_int(self, a: int, e: int) -> int:
        result, base = 1, a
        while e:
            if e & 1:
                result = int(self.mul_t[result, base])
            base = int(self.mul_t[base, base])
            e >>= 1
        return result

    def pow_vec(self, a, e):
        """a^e over the broadcast of the elements a and the integer exponents
        e, with 0^0 = 1; a negative power of zero anywhere raises."""
        a, e = np.broadcast_arrays(np.asarray(a, dtype=np.int64), np.asarray(e, dtype=np.int64))
        zero = a == 0
        if (zero & (e < 0)).any():
            raise ZeroDivisionError("negative power of zero")
        # log_t[0] = -1 indexes harmlessly; zeros are overwritten
        return np.where(zero, e == 0, self.exp_t[(self.log_t[a] * e) % (self.q - 1)])

    # -- vectorized operations on arrays of encoded elements --

    def add(self, a, b):
        return self.add_t[a, b]

    def sub(self, a, b):
        return self.add_t[a, self.neg_t[b]]

    def mul(self, a, b):
        return self.mul_t[a, b]

    def prepare(self, B) -> Prepared:
        """The right factor of ``matmul`` for B (k x n), for a caller that
        multiplies by the same B more than once.  Refuses an inner dimension
        k past the exactness bound before gathering anything."""
        B = np.asarray(B, dtype=np.int64)
        k, n = B.shape
        p, f = self.p, self.f
        if f * k * (p - 1) ** 2 >= 2 ** 53:
            raise DomainError(f"an F_q product of inner dimension {k} over q = {p}^{f} is inexact in float64")
        # gathered as (n, k f) and read transposed, a layout BLAS takes as is
        return Prepared(self.fdig.take(B.T, axis=0).reshape(n, k * f).T, (k, n))

    def matmul(self, A, B):
        """A @ B for A (m x k) and B (k x n) or ``prepare(B)``: one float64 BLAS
        product (f m x k f) @ (k f x n) of the digits of x^i A against the digit
        planes of B.  Row (j, r) of the product is digit j of row r of A @ B,
        an integer in [0, f k (p-1)^2], reduced mod p once and encoded.  Rows
        of A are taken in blocks of at most ``MATMUL_BLOCK_ENTRIES`` gathered
        and output entries."""
        if not isinstance(B, Prepared):
            B = self.prepare(B)
        A = np.asarray(A, dtype=np.int64)
        m, k = A.shape
        if k != B.shape[0]:
            raise ValueError(f"shape mismatch {A.shape} @ {B.shape}")
        f, n = self.f, B.shape[1]
        step = max(1, MATMUL_BLOCK_ENTRIES // max(1, f * (f * k + n)))
        if step >= m:
            return self._matmul_rows(A, B)
        out = np.empty((m, n), dtype=np.int64)
        for s in range(0, m, step):
            out[s:s + step] = self._matmul_rows(A[s:s + step], B)
        return out

    def _matmul_rows(self, A, B: Prepared):
        m, k = A.shape
        f, n = self.f, B.shape[1]
        digits = (self.xplanes.take(A, axis=1).reshape(f * m, k * f) @ B.planes).astype(np.int64)
        digits %= self.p  # in place: no third f m n temporary
        return (self.pows @ digits.reshape(f, m * n)).reshape(m, n)

    def eye(self, n):
        return np.eye(n, dtype=np.int64)


@lru_cache(maxsize=None)
def get_gf(p: int, f: int) -> GF:
    return GF(p, f)


def rref(gf: GF, A):
    """Reduced row echelon form of A, its pivot columns and the rows of A used.

    Gauss-Jordan with no row swaps: at each pivot column, the lowest row not
    yet pivoted on that is nonzero there is scaled to 1, then one gather
    clears the column in every other row.  Returns the nonzero rows of the
    form (a new array), the pivot columns and the rows of A pivoted on, in
    pivot order.  Each of those rows is independent of the rows above it, so
    sorted they are what sequential insertion keeps.

    Columns go in panels of ``PANEL``.  A panel is eliminated alone, next to
    an m x ``PANEL`` block that gets a 1 at (r, j) when row r becomes the
    panel's j-th pivot, so it ends holding T, the panel's row operations as
    combinations of its k pivot rows U.  The trailing columns then take one
    product, M = T @ (the trailing columns of U): rows of U become M, the
    others gain it.  Once fewer than three panels' width of columns remain,
    or m < ``PANEL``, the rest is eliminated column by column in place.
    """
    R = np.array(A, dtype=np.int64, ndmin=2)
    m, n = R.shape
    free = np.ones(m, dtype=bool)
    pivots, used = [], []
    c0 = 0
    while m >= PANEL and n - c0 >= 3 * PANEL and len(used) < m:
        c1 = c0 + PANEL
        W = np.hstack([R[:, c0:c1], np.zeros((m, PANEL), dtype=np.int64)])
        k0 = len(used)
        _eliminate(gf, W, PANEL, free, pivots, used, c0, panel=True)
        R[:, c0:c1] = W[:, :PANEL]
        U = used[k0:]
        if U:
            M = gf.matmul(W[:, PANEL:PANEL + len(U)], R[U, c1:])
            R[U, c1:] = 0
            R[:, c1:] = gf.add_t[R[:, c1:], M]
        c0 = c1
    _eliminate(gf, R[:, c0:], n - c0, free, pivots, used, c0)
    return R[used], pivots, used


def _eliminate(gf: GF, W, width: int, free, pivots: list, used: list, offset: int, panel: bool = False):
    """The pivot steps of ``rref`` on the first ``width`` columns of W, in
    place; column c of W is column c + offset of the matrix.  For a panel,
    W[:, width:] is its transform block."""
    m = W.shape[0]
    k0 = len(used)
    for c in range(width):
        if len(used) == m:
            break
        hot = np.nonzero(W[:, c])[0]
        lowest = hot[free[hot]]
        if lowest.size == 0:
            continue
        r = int(lowest[0])
        free[r] = False
        if panel:
            W[r, width + len(used) - k0] = 1
        if W[r, c] != 1:
            W[r, c:] = gf.mul_t[gf.inv_t[W[r, c]], W[r, c:]]
        hot = hot[hot != r]
        if hot.size:
            W[hot, c:] = gf.add_t[W[hot, c:], gf.mul_t[gf.neg_t[W[hot, c, None]], W[r, None, c:]]]
        pivots.append(c + offset)
        used.append(r)


class Subspace:
    """Row space kept as its reduced echelon basis: the rows and pivots of ``rref``.

    ``rows`` may be one vector, a block of rows, or a stack of blocks; pass
    ``ambient`` when there may be no rows at all.  Because the basis is
    reduced, the coordinates of a member are its entries at the pivots.
    """

    def __init__(self, gf: GF, rows=(), ambient: int | None = None):
        rows = np.asarray(rows, dtype=np.int64)
        if ambient is None and rows.ndim == 1 and rows.size == 0:
            raise ValueError("need rows or ambient dimension")
        self.gf = gf
        self.n = rows.shape[-1] if ambient is None else ambient
        self.basis, self.pivots, _ = rref(gf, rows.reshape(-1, self.n))
        self._prepared = None  # the basis as a right operand, until the basis grows

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    def reduce(self, rows):
        """Residue of a vector, or of each row of a block, modulo the row space."""
        rows = np.asarray(rows, dtype=np.int64)
        flat = rows.reshape(-1, self.n)
        if self._prepared is None:
            self._prepared = self.gf.prepare(self.basis)
        res = self.gf.sub(flat, self.gf.matmul(flat[:, self.pivots], self._prepared))
        return res.reshape(rows.shape)

    def contains(self, rows) -> bool:
        """Whether a vector, or every row of a block, lies in the row space."""
        return not self.reduce(rows).any()

    def insert(self, rows) -> list:
        """Add a block of rows; returns the indices, in order, of the rows
        that enlarged the span (the greedy choice of sequential insertion)."""
        return sorted(self._grow(self.reduce(rows).reshape(-1, self.n)))

    def _grow(self, res):
        """Add residues (rows that vanish at the pivots) in place; returns the
        indices of the residues ``rref`` pivoted on.  Only the residues are
        echeloned: the old rows are cleared at the new pivot columns by one
        product, and the two sets of rows are merged in pivot order."""
        gf = self.gf
        new, pivots, used = rref(gf, res)
        if not used:
            return used
        old = self.basis
        if old.shape[0]:
            old = gf.sub(old, gf.matmul(old[:, pivots], new))
        pivots = self.pivots + pivots
        order = sorted(range(len(pivots)), key=pivots.__getitem__)
        self.basis = np.vstack([old, new])[order]
        self.pivots = [pivots[i] for i in order]
        self._prepared = None
        return used

    def express(self, rows):
        """Coordinates of each row in the echelon basis; raises ValueError
        when a row lies outside the subspace."""
        rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
        if not self.contains(rows):
            raise ValueError("vector outside subspace")
        return rows[:, self.pivots]

    def complement_coords(self) -> list:
        taken = set(self.pivots)
        return [c for c in range(self.n) if c not in taken]


def nullspace(gf: GF, A) -> np.ndarray:
    """Basis (rows) of the right kernel of A, one row per free column."""
    A = np.atleast_2d(np.asarray(A, dtype=np.int64))
    n = A.shape[1]
    R, pivots, _ = rref(gf, A)
    taken = set(pivots)
    free = [c for c in range(n) if c not in taken]
    out = np.zeros((len(free), n), dtype=np.int64)
    out[:, free] = gf.eye(len(free))
    out[:, pivots] = gf.neg_t[R[:, free]].T
    return out


def spin(gf: GF, mats, seeds) -> Subspace:
    """Closure of the span of the seed rows under left action by the matrices.

    One round reduces every generator's images of the frontier against the
    basis, n // |frontier| generators (at least one) in one ``reduce``, and
    grows the basis once by the nonzero residues; the residues it pivots on
    are the next frontier.  At most n residue rows (n the ambient dimension)
    are held: when the next group's residues would pass n, the held rows are
    merged first and the group is reduced again.  The spin stops at the full
    space, which is closed."""
    mats = [np.asarray(M, dtype=np.int64) for M in mats]
    sub = Subspace(gf, seeds)
    n = sub.n

    def residues(rows):
        res = sub.reduce(rows)
        return res[res.any(axis=1)]

    frontier = sub.basis
    while frontier.shape[0] and sub.dim < n:
        held, grown = [], []
        step = max(1, n // len(frontier))
        for s in range(0, len(mats), step):
            res = residues(np.vstack([gf.matmul(frontier, M.T) for M in mats[s:s + step]]))
            if sum(map(len, held)) + len(res) > n:
                grown.append((held := np.vstack(held))[sub._grow(held)])
                held = []
                if sub.dim == n:
                    break
                res = residues(res)
            if len(res):
                held.append(res)
        if held:
            grown.append((held := np.vstack(held))[sub._grow(held)])
        frontier = np.vstack([sub.basis[:0], *grown])
    return sub
