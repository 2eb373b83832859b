"""The degree-f Galois ring of characteristic p^2 and its 2x2 matrices.

Elements are coefficient vectors of length f with entries mod p^2, for the
monic lift of the same defining polynomial as the residue field; reduction
mod p recovers the F_q encoding of gf.py.  The Teichmueller section is one
q-th power of any lift.  Matrices are arrays of shape (2, 2, f).  Every
operation broadcasts over leading axes (products, powers, unit inverses,
matrix assembly, determinants, inverses, conjugation by the normalizer and
residues), so a stack of elements (..., f) or of matrices (..., 2, 2, f) is
one numpy call, and one element or matrix is a stack with no leading axes.
The only inverses ever needed are of matrices invertible mod p, obtained
from the adjugate and a Newton step for the determinant.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np

from .gf import GF, get_gf, reduced_powers


class GR:
    def __init__(self, gf: GF):
        self.gf = gf
        self.p, self.f = gf.p, gf.f
        self.p2 = gf.p ** 2
        self.q = gf.q

        # _prod[i*f + j] holds x^(i+j) reduced mod the lifted monic polynomial
        f = self.f
        xpow = reduced_powers(gf.poly, self.p2, 2 * f - 1)
        self._prod = np.array([xpow[i + j] for i in range(f) for j in range(f)], dtype=np.int64)

        # Teichmueller representatives for every residue-field element
        self.teich = self.pow(gf.dig, self.q)

    # -- element arithmetic; elements are int64 arrays (..., f) mod p^2 --

    def zero(self):
        return np.zeros(self.f, dtype=np.int64)

    def one(self):
        v = self.zero()
        v[0] = 1
        return v

    def from_int(self, n: int):
        v = self.zero()
        v[0] = n % self.p2
        return v

    def sub(self, a, b):
        return (a - b) % self.p2

    def mul(self, a, b):
        """Products over broadcast leading axes: the outer product of the
        coefficients, reduced mod p^2 (so the int64 contraction cannot
        overflow), contracted with the reduced powers x^(i+j)."""
        a, b = np.asarray(a), np.asarray(b)
        outer = (a[..., :, None] * b[..., None, :]) % self.p2
        return (outer.reshape(outer.shape[:-2] + (self.f * self.f,)) @ self._prod) % self.p2

    def pow(self, a, e: int):
        base = np.asarray(a) % self.p2
        result = np.zeros_like(base)
        result[..., 0] = 1
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def reduce_p(self, a):
        """Image in the residue field, in the gf.py integer encoding: an
        array over the leading axes of a stack (0-d for one element)."""
        return np.asarray((np.asarray(a) % self.p) @ self.gf.pows)

    def divide_p(self, a):
        """a/p for a in p*R, as the canonical lift with coefficients below p."""
        a = np.asarray(a)
        if (a % self.p).any():
            raise ValueError("element is not divisible by p")
        return (a // self.p) % self.p

    def unit_inverse(self, a):
        """Inverse of a unit (nonzero mod p), or of each element of a stack of
        units, by lifting the residue inverse."""
        r = self.reduce_p(a)
        if np.any(r == 0):
            raise ZeroDivisionError("not a unit")
        y = self.gf.dig[self.gf.inv_t[r]]
        # one Newton step: y <- y (2 - a y) mod p^2
        t = self.sub(self.from_int(2), self.mul(a, y))
        return self.mul(y, t)

    # -- 2x2 matrices: arrays of shape (..., 2, 2, f) --

    def mat(self, a, b, c, d):
        """The matrix (a, b; c, d), or the stack of them over the broadcast
        leading axes of the entries."""
        a, b, c, d = np.broadcast_arrays(a, b, c, d)
        return np.stack([np.stack([a, b], axis=-2), np.stack([c, d], axis=-2)], axis=-3)

    def mat_from_ints(self, a, b, c, d):
        return self.mat(self.from_int(a), self.from_int(b), self.from_int(c), self.from_int(d))

    def mat_eye(self):
        return self.mat(self.one(), self.zero(), self.zero(), self.one())

    def mat_mul(self, A, B):
        A, B = np.asarray(A), np.asarray(B)
        # terms[..., i, k, j] = A[..., i, k] * B[..., k, j]
        terms = self.mul(A[..., :, :, None, :], B[..., None, :, :, :])
        return terms.sum(axis=-3) % self.p2

    def mat_det(self, A):
        return self.sub(self.mul(A[..., 0, 0, :], A[..., 1, 1, :]), self.mul(A[..., 0, 1, :], A[..., 1, 0, :]))

    def mat_inv(self, A):
        dinv = self.unit_inverse(self.mat_det(A))
        adj = self.mat(A[..., 1, 1, :], -A[..., 0, 1, :], -A[..., 1, 0, :], A[..., 0, 0, :])
        return self.mul(dinv[..., None, None, :], adj % self.p2)

    def swap_conjugate(self, A):
        """(a, b; pc, d) -> (d, c; pb, a), conjugation by (0, 1; p, 0)."""
        c = self.divide_p(A[..., 1, 0, :])
        pb = (self.p * A[..., 0, 1, :]) % self.p2
        return self.mat(A[..., 1, 1, :], c, pb, A[..., 0, 0, :])

    def mat_is_unit(self, A):
        return self.reduce_p(self.mat_det(A)) != 0


@lru_cache(maxsize=None)
def get_gr(p: int, f: int) -> GR:
    return GR(get_gf(p, f))
