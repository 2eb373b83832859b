"""Concrete GL2 subgroups over the Galois ring: generators, cosets, characters.

The maximal compact K is GL2 of the ring; everything in scope is trivial on
the second congruence subgroup, so K is used through matrices mod p^2.  The
Iwahori subgroup I consists of the matrices that are upper triangular mod p.
K's generators are one tuple of elementary matrices over a Teichmueller
lift of a residue-field basis and p times that lift, plus diagonal units,
with I's generators first; every subgroup kind is a tuple of positions in
it.  For a local ring these generate the corresponding subgroups mod p^2.
The q+1 cosets of I in K are represented by ([lambda], 1; 1, 0) for lambda
in F_q together with the identity, in that order; a breadth-first tree of
words in the generators reaches each of them once from the identity coset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from ..core import ICharacter, Params
from .gf import get_gf
from .gr import get_gr


class CosetTree(NamedTuple):
    """Spanning tree of the cosets of I in K (``GroupContext.coset_tree``).

    Node 0 is the identity coset with the identity word; node i >= 1 has
    word_i = k_gens()[k] word_parent and lies in coset ``cosets[i]``.
    ``levels`` holds, level by level, one step (k, nodes, parents) per
    generator; the nodes of a level follow those of the levels before it,
    so a walk along it meets every parent before its children.
    ``det_logs[i]`` is the discrete log of det(word_i) mod p."""

    words: np.ndarray
    cosets: np.ndarray
    det_logs: np.ndarray
    levels: tuple


@dataclass(frozen=True)
class GroupContext:
    params: Params

    @property
    def gf(self):
        return get_gf(self.params.p, self.params.f)

    @property
    def gr(self):
        return get_gr(self.params.p, self.params.f)

    @lru_cache(maxsize=None)
    def _basis_teich(self):
        """Teichmueller lifts of the monomial basis x^i of the residue field."""
        p, f = self.params.p, self.params.f
        return [self.gr.teichmuller(p ** i) for i in range(f)]

    def _elem(self, pos: str, val):
        gr = self.gr
        m = gr.mat_eye()
        i, j = (0, 1) if pos == "upper" else (1, 0)
        m[i, j] = np.asarray(val) % gr.p2
        return m

    def _diag(self, a, d):
        gr = self.gr
        m = gr.mat_eye()
        m[0, 0] = np.asarray(a) % gr.p2
        m[1, 1] = np.asarray(d) % gr.p2
        return m

    @lru_cache(maxsize=None)
    def k_gens(self) -> tuple:
        """K's generators, I's first: the upper elementary matrices of the
        lifts and of p times them (U+), the lower ones of p times the lifts
        (U-), the two diagonal Teichmueller generators (H), the diagonal
        1 + p*lift units, and last the unit lower elementary matrices."""
        gr = self.gr
        one = gr.one()
        basis = self._basis_teich()
        plift = [(self.params.p * t) % gr.p2 for t in basis]
        g = gr.teichmuller(self.gf.gen)
        out = [self._elem("upper", t) for t in basis + plift]
        out += [self._elem("lower", t) for t in plift]
        out += [self._diag(g, one), self._diag(one, g)]
        for t in plift:
            u = (one + t) % gr.p2
            out += [self._diag(u, one), self._diag(one, u)]
        out += [self._elem("lower", t) for t in basis]
        return tuple(out)

    @lru_cache(maxsize=None)
    def kind_positions(self) -> dict:
        """Positions in k_gens() of the generators of each subgroup kind."""
        f = self.params.f
        i = tuple(range(5 * f + 2))
        return {
            "K": tuple(range(6 * f + 2)),
            "I": i,
            "I1": i[: 3 * f] + i[3 * f + 2 :],
            "U+": i[: 2 * f],
            "U-": i[2 * f : 3 * f],
            "H": i[3 * f : 3 * f + 2],
        }

    def gens(self, kind: str) -> tuple:
        k = self.k_gens()
        return tuple(k[i] for i in self.kind_positions()[kind])

    @lru_cache(maxsize=None)
    def transpose_positions(self) -> tuple:
        """For each position in k_gens(), the position of its transpose: upper
        and lower elementary matrices swap, diagonal ones stay."""
        gens = self.k_gens()
        hits = [[i for i, h in enumerate(gens) if (h == g.swapaxes(0, 1)).all()] for g in gens]
        if any(len(h) != 1 for h in hits):
            raise AssertionError("k_gens() is not closed under transposition, or repeats a generator")
        return tuple(h[0] for h in hits)

    # -- cosets of I in K --

    @lru_cache(maxsize=None)
    def coset_reps(self) -> tuple:
        """([lambda],1;1,0) for each encoded lambda, then the identity coset."""
        gr = self.gr
        reps = [
            gr.mat(gr.teichmuller(lam), gr.one(), gr.one(), gr.zero())
            for lam in range(self.gf.q)
        ]
        reps.append(gr.mat_eye())
        return tuple(reps)

    @lru_cache(maxsize=None)
    def coset_tree(self) -> CosetTree:
        """Breadth-first tree of the q+1 cosets from the identity coset.

        Each generator permutes the cosets, and those in K1 (the identity mod
        p) fix them all, so one table of the targets of the other generators
        on every coset drives the search: a level's candidates are taken in
        (parent, generator) order, and each coset no earlier node reached
        keeps its first candidate.  A level's words are one product."""
        gf, gr = self.gf, self.gr
        q = gf.q
        gens = np.stack(self.k_gens())
        moving = np.flatnonzero((gr.reduce_p(gens) != gr.reduce_p(gr.mat_eye())).any(axis=(1, 2)))
        targets, _ = self.coset_decompose(gr.mat_mul(gens[moving, None], np.stack(self.coset_reps())[None]))
        cosets = np.full(q + 1, q)
        words = np.empty((q + 1,) + gens.shape[1:], dtype=np.int64)
        words[0] = gr.mat_eye()
        seen = np.arange(q + 1) == q
        levels, frontier, size = [], np.array([0]), 1
        while True:
            cands = targets[:, cosets[frontier]].T.ravel()
            first = np.full(q + 1, len(cands))
            np.minimum.at(first, cands, np.arange(len(cands)))
            first = np.sort(first[(first < len(cands)) & ~seen])
            if not len(first):
                break
            parents, ks = frontier[first // len(moving)], moving[first % len(moving)]
            frontier, size = np.arange(size, size + len(first)), size + len(first)
            seen[cands[first]] = True
            cosets[frontier], words[frontier] = cands[first], gr.mat_mul(gens[ks], words[parents])
            levels.append(tuple((k, frontier[ks == k], parents[ks == k]) for k in sorted(set(ks.tolist()))))
        if size != q + 1:
            raise AssertionError(f"the generators reach {size} of the {q + 1} cosets")
        return CosetTree(words, cosets, gf.log_t[gr.reduce_p(gr.mat_det(words))], tuple(levels))

    def coset_decompose(self, g) -> tuple:
        """g = rep * i with i in I, for one matrix or a stack of them; returns
        (rep index, i): an int and a matrix, or arrays over the stack."""
        gf, gr = self.gf, self.gr
        g = np.asarray(g) % gr.p2
        if not np.all(gr.mat_is_unit(g)):
            raise ValueError("matrix is not invertible mod p")
        c_red = gr.reduce_p(g[..., 1, 0, :])
        lam = gf.mul_t[gr.reduce_p(g[..., 0, 0, :]), gf.inv_t[c_red]]
        # ([lam],1;1,0)^-1 g = (0,1;1,-[lam]) g: the second row, then the first minus [lam] times it
        t = gr.teich[lam][..., None, :]
        moved = np.stack([g[..., 1, :, :], gr.sub(g[..., 0, :, :], gr.mul(t, g[..., 1, :, :]))], axis=-3)
        ident = np.asarray(c_red == 0)
        targets = np.where(ident, gf.q, lam)
        parts = np.where(ident[..., None, None, None], g, moved)
        if g.ndim == 3:
            return int(targets), parts
        return targets, parts

    # -- characters of I through the diagonal reduction --

    def char_value(self, chi: ICharacter, g):
        """chi at one matrix (an int) or at each matrix of a stack (an array)."""
        gf, gr = self.gf, self.gr
        g = np.asarray(g)
        a = gr.reduce_p(g[..., 0, 0, :])
        d = gr.reduce_p(g[..., 1, 1, :])
        v = gf.mul_t[gf.pow_vec(a, chi.a), gf.pow_vec(d, chi.b)]
        return int(v) if g.ndim == 3 else v

    def random_k_element(self, rng) -> np.ndarray:
        gr = self.gr
        while True:
            m = rng.integers(0, gr.p2, (2, 2, self.params.f))
            if gr.mat_is_unit(m):
                return m

    def random_i_element(self, rng) -> np.ndarray:
        gr = self.gr
        while True:
            m = rng.integers(0, gr.p2, (2, 2, self.params.f))
            m[1, 0] = (m[1, 0] * self.params.p) % gr.p2
            if gr.mat_is_unit(m):
                return m

    def random_element(self, kind: str, rng) -> np.ndarray:
        return self.random_i_element(rng) if kind == "I" else self.random_k_element(rng)


@lru_cache(maxsize=None)
def get_context(params: Params) -> GroupContext:
    return GroupContext(params)
