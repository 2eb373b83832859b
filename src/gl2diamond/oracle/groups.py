"""Concrete GL2 subgroups over the Galois ring: generators, cosets, characters.

The maximal compact K is GL2 of the ring; everything in scope is trivial on
the second congruence subgroup, so K is used through matrices mod p^2.  The
Iwahori subgroup I consists of the matrices that are upper triangular mod p.
K's generators are one stack of elementary matrices over a Teichmueller
lift of a residue-field basis and p times that lift, plus diagonal units,
with I's generators first; every subgroup kind is a tuple of positions in
it.  For a local ring these generate the corresponding subgroups mod p^2.
The q+1 cosets of I in K are represented by ([lambda], 1; 1, 0) for lambda
in F_q together with the identity, in that order; a breadth-first tree of
words in the generators reaches each of them once from the identity coset.
Everything takes and returns stacks: matrices (..., 2, 2, f) in, arrays
over the leading axes out, one matrix being a stack with no leading axes.
The generator and representative stacks are cached and read-only.
"""

from __future__ import annotations

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


class GroupContext(NamedTuple):
    params: Params

    @property
    def gf(self):
        return get_gf(self.params.p, self.params.f)

    @property
    def gr(self):
        return get_gr(self.params.p, self.params.f)

    @lru_cache(maxsize=None)
    def k_gens(self) -> np.ndarray:
        """K's generators as one read-only stack (6f+2, 2, 2, f), I's first:
        the upper elementary matrices of the Teichmueller lifts of the basis
        x^i of the residue field and of p times them (U+), the lower ones of
        p times the lifts (U-), the two diagonal Teichmueller generators (H),
        the diagonal 1 + p*lift units, and last the unit lower elementary
        matrices."""
        gr, p, f = self.gr, self.params.p, self.params.f
        lift = gr.teich[p ** np.arange(f)]
        plift = (p * lift) % gr.p2
        a, b = np.tile(gr.one(), (6 * f + 2, 1)), np.zeros((6 * f + 2, f), dtype=np.int64)
        c, d = b.copy(), a.copy()
        b[: 2 * f] = np.concatenate([lift, plift])
        c[2 * f : 3 * f] = plift
        units = np.concatenate([gr.teich[[self.gf.gen]], (gr.one() + plift) % gr.p2])
        a[3 * f : 5 * f + 2 : 2] = d[3 * f + 1 : 5 * f + 2 : 2] = units
        c[5 * f + 2 :] = lift
        return _read_only(gr.mat(a, b, c, d))

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

    def gens(self, kind: str) -> np.ndarray:
        """The stack of the generators of a subgroup kind (a new array)."""
        return self.k_gens()[list(self.kind_positions()[kind])]

    @lru_cache(maxsize=None)
    def transpose_positions(self) -> tuple:
        """For each position in k_gens(), the position of its transpose: upper
        and lower elementary matrices swap, diagonal ones stay."""
        gens = self.k_gens()
        # hits[i, j]: generator i is the transpose of generator j
        hits = (gens[:, None] == gens[None].swapaxes(2, 3)).all(axis=(2, 3, 4))
        if (hits.sum(axis=0) != 1).any():
            raise AssertionError("k_gens() is not closed under transposition, or repeats a generator")
        return tuple(hits.argmax(axis=0).tolist())

    # -- cosets of I in K --

    @lru_cache(maxsize=None)
    def coset_reps(self) -> np.ndarray:
        """One read-only stack (q+1, 2, 2, f): ([lambda],1;1,0) for each
        encoded lambda, then the identity coset."""
        gr = self.gr
        return _read_only(np.concatenate([gr.mat(gr.teich, gr.one(), gr.one(), gr.zero()), gr.mat_eye()[None]]))

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
        gens = self.k_gens()
        moving = np.flatnonzero((gr.reduce_p(gens) != gr.reduce_p(gr.mat_eye())).any(axis=(1, 2)))
        targets, _ = self.coset_decompose(gr.mat_mul(gens[moving, None], self.coset_reps()[None]))
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
        """g = rep * i with i in I for each matrix of a stack (..., 2, 2, f);
        returns (rep index, i) as arrays over the stack's leading axes, 0-d
        and one matrix for a single matrix."""
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
        return targets, np.where(ident[..., None, None, None], g, moved)

    # -- characters of I through the diagonal reduction --

    def char_value(self, chi: ICharacter, g):
        """chi at each matrix of a stack, as an array over its leading axes
        (0-d for a single matrix)."""
        gf, gr = self.gf, self.gr
        g = np.asarray(g)
        a = gr.reduce_p(g[..., 0, 0, :])
        d = gr.reduce_p(g[..., 1, 1, :])
        return np.asarray(gf.mul_t[gf.pow_vec(a, chi.a), gf.pow_vec(d, chi.b)])


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@lru_cache(maxsize=None)
def get_context(params: Params) -> GroupContext:
    return GroupContext(params)
