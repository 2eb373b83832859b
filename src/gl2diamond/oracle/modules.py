"""Explicit finite modules: weights, Iwahori extensions, induction, socles.

A module is read through the exact F_q matrices (acting on column
coordinates) of its group's generators, built once per module.  Base
modules build them from an evaluator on 2x2 matrices over the Galois ring:
symmetric-power weights of GL2(F_q), one-dimensional Iwahori characters,
the two-dimensional nonsplit Iwahori extensions, twisting by the
normalizer, and induction from I to K over the fixed coset representatives.
Every evaluator broadcasts: a stack of matrices (..., 2, 2, f) gives the
stack of their images (..., d, d), so a module's generator matrices are
one call and an induced module evaluates all q+1 cosets of a whole stack
in one call of its base.  Submodules, quotients and direct sums transform
the matrices of their parts once.  A module notes which generators act as
the identity (read from the matrices); spins,
invariants, radicals and derived modules skip them.  Only the walk of
``hom_from_weight`` along the coset tree, whose words are fixed, multiplies
by every generator.

Socles are computed from first principles: any irreducible subobject is
generated by a pro-p-fixed eigenvector w.  For an Iwahori module that is
all: I1 is pro-p, so its irreducibles are characters, and the socle is the
invariants split into eigenlines.  For a K-module, by Frobenius reciprocity a
weight sigma embeds through w exactly when w, walked along the words of a
spanning tree of the cosets of I in K, satisfies the relations among the
same words applied to sigma's fixed vector.  Those relations come from a
closed form of that walk, once per digit vector; a determinant twist only
scales them.  One socle record per module, iterated over quotients, gives
socle series of both kinds, Jordan-Hoelder multisets and, as the socle of
the transposed action, cosocles.  Everything is exact; any mismatch raises.
"""

from __future__ import annotations

from collections import Counter, OrderedDict
from math import comb

import numpy as np

from ..core import (
    DomainError,
    ICharacter,
    Weight,
    char_times_alpha_power,
    weight_dim,
    weights_of_char,
)
from .gf import TABLE_BYTES_LIMIT, Subspace, nullspace, rref
from .groups import GroupContext


class ExplicitModule:
    """One list of matrices: the images of the generators of its group
    (``ctx.gens(group)``), built once, on first use, together with the set
    of positions whose image is the identity; likewise the record of its
    socle (``socle_data``) and its socle series (``socle_series``).

    A module has either an evaluator (base modules and inductions, whose
    list is one ``evaluate`` of the stacked generators) or ``derive()``
    (submodules, quotients, sums), which builds the list from its parts'
    lists and is then dropped, so that a socle series does not hold every
    quotient before it.  ``gen_mats(kind)`` selects the
    positions of a subgroup kind, which serve I- and K-modules alike, and
    ``moving_mats(kind)`` only those whose image is not the identity.
    """

    def __init__(self, ctx: GroupContext, dim: int, group: str, evaluate=None, derive=None):
        if group not in ("K", "I"):
            raise DomainError(f"unknown group tag {group!r}")
        self.ctx = ctx
        self.dim = dim
        if evaluate is not None:
            self.evaluate = evaluate
        self._derive = derive
        self.group = group
        self._mats = None
        self._identities = None
        self._socle = None
        self._layers = None

    def _positions(self, kind: str) -> tuple:
        """The positions of a subgroup kind, with the generator images built."""
        positions = self.ctx.kind_positions()
        if kind not in positions or not set(positions[kind]) <= set(positions[self.group]):
            raise DomainError(f"{kind!r} is not a subgroup kind of {self.group}")
        if self._mats is None:
            if self._derive is not None:
                self._mats, self._derive = self._derive(), None
            else:
                self._mats = self.evaluate(self.ctx.gens(self.group))
            self._identities = frozenset(i for i, M in enumerate(self._mats) if _is_identity(M))
        return positions[kind]

    def gen_mats(self, kind: str) -> list:
        return [self._mats[i] for i in self._positions(kind)]

    def moving_mats(self, kind: str) -> list:
        """The images of the kind's generators that are not the identity."""
        return [self._mats[i] for i in self._positions(kind) if i not in self._identities]

    def identity_positions(self) -> frozenset:
        """Positions of the group's generators whose image is the identity."""
        self._positions(self.group)
        return self._identities

    def derived_mats(self, group: str, dim: int, transform) -> list:
        """``transform`` of each image of the group's generators, except that
        the identity goes to the identity of size ``dim`` (one shared array)."""
        eye = self.gf.eye(dim)
        ident = self.identity_positions()
        return [eye if i in ident else transform(self._mats[i]) for i in self._positions(group)]

    @property
    def gf(self):
        return self.ctx.gf

    def __repr__(self):
        return f"<module: dim {self.dim} over {self.group}>"


def _is_identity(M) -> bool:
    """Whether a square matrix is the identity, without an n x n temporary."""
    return np.count_nonzero(M) == len(M) and bool((M.diagonal() == 1).all())


def gf_kron(gf, A, B):
    """Kronecker product over F_q of two matrices, or of two broadcast stacks."""
    out = gf.mul_t[A[..., :, None, :, None], B[..., None, :, None, :]]
    return out.reshape(out.shape[:-4] + (A.shape[-2] * B.shape[-2], A.shape[-1] * B.shape[-1]))


def _sym_power(gf, a, b, c, d, r):
    """Matrices of (a,b;c,d) on Sym^r, basis x^(r-k) y^k with x,y the standard
    frame, for arrays a, b, c, d of one shape: column k is the product of
    (a x + c y)^(r-k) and (b x + d y)^k, summed over t1 + t2 = t in digits."""
    n = np.arange(r + 1)
    binom = np.array([[comb(i, j) % gf.p for j in n] for i in n])
    k, t = n[:, None], n[None, :]
    # x^0 .. x^r of a, b, c, d
    pa, pb, pc, pd = gf.pow_vec(np.stack([a, b, c, d])[..., None], n)

    # u[..., k, t1] = C(r-k,t1) a^(r-k-t1) c^t1 and v[..., k, t2] = C(k,t2) b^(k-t2) d^t2;
    # exponents past the degree meet a zero binomial and are clipped to 0
    u = gf.mul_t[binom[r - k, t], gf.mul_t[pa[..., np.maximum(r - k - t, 0)], pc[..., t]]]
    v = gf.mul_t[binom[k, t], gf.mul_t[pb[..., np.maximum(k - t, 0)], pd[..., t]]]
    digits = gf.dig[gf.mul_t[u[..., :, :, None], v[..., :, None, :]]]  # (..., k, t1, t2, f)
    onto = (n[:, None, None] + n[None, :, None] == n[None, None, :]).astype(np.int64)  # t1 + t2 = t
    sums = np.einsum("...kabf,abt->...tkf", digits, onto)
    return gf.encode(sums)


def weight_module(ctx: GroupContext, sigma: Weight) -> ExplicitModule:
    """Frobenius-twisted tensor of symmetric powers, with a determinant twist."""
    gf, gr = ctx.gf, ctx.gr

    def evaluate(g):
        res = gr.reduce_p(g)
        a, b, c, d = res[..., 0, 0], res[..., 0, 1], res[..., 1, 0], res[..., 1, 1]
        det = gf.sub(gf.mul_t[a, d], gf.mul_t[b, c])
        M = np.ones(a.shape + (1, 1), dtype=np.int64)
        for ri in sigma.r:
            M = gf_kron(gf, M, _sym_power(gf, a, b, c, d, ri))
            a, b, c, d = gf.frob_t[a], gf.frob_t[b], gf.frob_t[c], gf.frob_t[d]
        return gf.mul_t[gf.pow_vec(det, sigma.twist)[..., None, None], M]

    return ExplicitModule(ctx, weight_dim(sigma), "K", evaluate=evaluate)


def character_module(ctx: GroupContext, chi: ICharacter) -> ExplicitModule:
    def evaluate(g):
        return ctx.char_value(chi, g)[..., None, None]

    return ExplicitModule(ctx, 1, "I", evaluate=evaluate)


def ej_module(ctx: GroupContext, chi: ICharacter, j: int) -> ExplicitModule:
    """Nonsplit extension of chi*alpha^(-p^j) by chi on the frame {v, w}."""
    gf = ctx.gf
    par = ctx.params
    chi2 = char_times_alpha_power(chi, j, -1)
    pj = par.p ** j

    def evaluate(g):
        res = ctx.gr.reduce_p(g)
        v1, v2 = ctx.char_value(chi, g), ctx.char_value(chi2, g)
        s = gf.pow_vec(gf.mul_t[res[..., 0, 1], gf.inv_t[res[..., 1, 1]]], pj)
        out = np.zeros(res.shape, dtype=np.int64)
        out[..., 0, 0], out[..., 0, 1], out[..., 1, 1] = v1, gf.mul_t[v2, s], v2
        return out

    return ExplicitModule(ctx, 2, "I", evaluate=evaluate)


def pi_twist(mod: ExplicitModule) -> ExplicitModule:
    """Precompose the action with conjugation by the normalizer element."""
    if mod.group != "I":
        raise DomainError("only Iwahori modules can be twisted")
    ctx = mod.ctx

    def evaluate(g):
        return mod.evaluate(ctx.gr.swap_conjugate(g))

    return ExplicitModule(ctx, mod.dim, "I", evaluate=evaluate)


def _induced_bytes(q: int, f: int, d: int) -> int:
    """Bytes that building the generator images of the induction of a
    d-dimensional I-module holds at most: the 6f+2 images of size
    n = (q+1) d as one int64 stack, the blocks scattered into it, the
    Galois-ring outer product of the generators with the q+1 coset
    representatives (2 x 2 x 2 x f x f per pair), and 64 KiB of Python
    objects."""
    n = (q + 1) * d
    return 8 * (6 * f + 2) * (n * n + (q + 1) * (d * d + 8 * f * f)) + 2 ** 16


def induce(mod: ExplicitModule) -> ExplicitModule:
    """Induction from I to K over the fixed coset representatives; refused
    when building its generator images would pass the F_q table limit."""
    if mod.group != "I":
        raise DomainError("induction starts from an Iwahori module")
    if not hasattr(mod, "evaluate"):
        raise DomainError(f"induction needs an evaluator; {mod} has none")
    ctx = mod.ctx
    p, f, q = ctx.params.p, ctx.params.f, ctx.params.q
    d = mod.dim
    n = (q + 1) * d
    need = _induced_bytes(q, f, d)
    if need > TABLE_BYTES_LIMIT:
        raise DomainError(
            f"the induced module of dimension {n} over q = {p}^{f} = {q} needs "
            f"{need / 1024 ** 3:.1f} GiB for its generator images, over the "
            f"{TABLE_BYTES_LIMIT / 1024 ** 3:.0f} GiB limit"
        )
    reps = ctx.coset_reps()

    def evaluate(g):
        # g . rep_ell = rep_targets[ell] . parts[ell], for every g and all q+1 cosets at once
        g = np.asarray(g)
        targets, parts = ctx.coset_decompose(ctx.gr.mat_mul(g[..., None, :, :, :], reps))
        blocks = mod.evaluate(parts).reshape(-1, q + 1, d, d)
        # block (targets[ell], ell) of each image is the base image of parts[ell]
        out = np.zeros((len(blocks), q + 1, d, q + 1, d), dtype=np.int64)
        out[np.arange(len(blocks))[:, None], targets.reshape(-1, q + 1), :, np.arange(q + 1), :] = blocks
        return out.reshape(g.shape[:-3] + (n, n))

    return ExplicitModule(ctx, n, "K", evaluate=evaluate)


def sub_module(mod: ExplicitModule, sub: Subspace, group: str | None = None) -> ExplicitModule:
    """Restriction of the action to an invariant row subspace, optionally to
    a smaller ``group``; a generator image outside it raises ValueError."""
    gf = mod.gf
    B = sub.basis
    group = group or mod.group

    def derive():
        return mod.derived_mats(group, sub.dim, lambda M: sub.express(gf.matmul(B, M.T)).T)

    return ExplicitModule(mod.ctx, sub.dim, group, derive=derive)


def quotient_module(mod: ExplicitModule, sub: Subspace) -> ExplicitModule:
    """Action on the complement coordinates of the residues modulo an
    invariant row subspace: v reduces to v[comp] + E v[pivots] with
    E = -basis[:, comp]^T, so M goes to Mc[comp] + E Mc[pivots], Mc = M[:, comp]."""
    gf = mod.gf
    comp, pivots = np.array(sub.complement_coords(), dtype=np.intp), np.array(sub.pivots, dtype=np.intp)
    E = gf.neg_t[sub.basis[:, comp]].T

    def image(M):
        Mc = M[:, comp]
        return gf.add(Mc[comp], gf.matmul(E, Mc[pivots]))

    def derive():
        return mod.derived_mats(mod.group, len(comp), image)

    return ExplicitModule(mod.ctx, len(comp), mod.group, derive=derive)


def direct_sum(A: ExplicitModule, B: ExplicitModule) -> ExplicitModule:
    """Block-diagonal action over the smaller group."""
    if A.ctx is not B.ctx:
        raise DomainError("modules live over different contexts")
    zero = np.zeros((A.dim, B.dim), dtype=np.int64)
    group = "I" if "I" in (A.group, B.group) else "K"

    def derive():
        return [np.block([[MA, zero], [zero.T, MB]]) for MA, MB in zip(A.gen_mats(group), B.gen_mats(group))]

    return ExplicitModule(A.ctx, A.dim + B.dim, group, derive=derive)


def invariants(mod: ExplicitModule) -> np.ndarray:
    """Rows spanning the pro-p (I1) fixed space, narrowed one generator at a
    time: the rows fixed so far are cut down to the kernel of (g - 1) on
    them, a generator that fixes them all costs no echelon, and one that
    acts as the identity is not multiplied at all."""
    gf = mod.gf
    basis = None  # the whole space, until a generator moves a row
    for M in mod.moving_mats("I1"):
        if basis is None:
            moved = gf.sub(M, gf.eye(mod.dim))
        else:
            moved = gf.sub(gf.matmul(basis, M.T), basis).T
        if not moved.any():
            continue
        ker = nullspace(gf, moved)
        basis = ker if basis is None else gf.matmul(ker, basis)
        if not len(basis):
            break
    return gf.eye(mod.dim) if basis is None else basis


def _projector_sums(gf, A) -> np.ndarray:
    """The q-1 sums S_e = sum_t g^(-et) A^t of a k x k matrix, stacked (q-1, k, k).

    When A^(q-1) = I, as for a torus generator, -S_e is the projector onto
    the g^e-eigenspace of A acting on rows (1/(q-1) = -1 in F_q), so S_e has
    that eigenspace as its image.  The powers are built by doubling and the
    sums are one product with the table g^(-et).
    """
    n, k = gf.q - 1, A.shape[0]
    powers, step = gf.eye(k)[None], A
    while len(powers) < n:
        # [A^0 .. A^(L-1); A^L] A^L = [A^L .. A^(2L-1); A^(2L)]
        both = gf.matmul(np.concatenate([powers, step[None]]).reshape(-1, k), step).reshape(-1, k, k)
        powers, step = np.concatenate([powers, both[:-1]]), both[-1]
    t = np.arange(n)
    return gf.matmul(gf.exp_t[-np.outer(t, t) % n], powers[:n].reshape(n, k * k)).reshape(n, k, k)


def h_eigen_split(mod: ExplicitModule, rows) -> list:
    """Split an H-stable subspace into joint eigenspaces; returns (char, rows)
    in exponent order.  A row set that is not H-stable raises ValueError, one
    that is not H-semisimple with eigenvalues in F_q AssertionError."""
    gf = mod.gf
    n = gf.q - 1
    sub = Subspace(gf, np.atleast_2d(np.asarray(rows, dtype=np.int64)))
    if sub.dim == 0:
        return []
    B, k = sub.basis, sub.dim
    # row-convention action on coordinates
    A = np.hstack([sub.express(gf.matmul(B, M.T)) for M in mod.gen_mats("H")])
    # both generators' sums from one chain on diag(A1, A2), whose sums are block diagonal
    zero = np.zeros((k, k), dtype=np.int64)
    S = _projector_sums(gf, np.block([[A[:, :k], zero], [zero, A[:, k:]]]))
    S1, S2 = S[:, :k, :k], S[:, k:, k:]
    out = []
    S2_all = gf.prepare(np.hstack(S2))
    for e1 in np.flatnonzero(S1.reshape(n, -1).any(axis=1)):
        # the two projectors commute, so S1[e1] S2[e2] has the joint eigenspace as its image
        joint = gf.matmul(S1[e1], S2_all).reshape(k, n, k).transpose(1, 0, 2)
        for e2 in np.flatnonzero(joint.reshape(n, -1).any(axis=1)):
            V = Subspace(gf, joint[e2]).basis
            if not (gf.matmul(V, A) == np.hstack([gf.mul(gf.exp_t[e], V) for e in (e1, e2)])).all():
                raise AssertionError("subspace is not H-semisimple with eigenvalues in F_q")
            out.append((ICharacter(mod.ctx.params, int(e1), int(e2)), gf.matmul(V, B)))
    if sum(v.shape[0] for _, v in out) != k:
        raise AssertionError("subspace is not H-semisimple with eigenvalues in F_q")
    return out


def _weight_walk(ctx: GroupContext, r: tuple) -> np.ndarray:
    """sigma(word_i) v0 for the words of the coset tree, as rows (q+1, d), for
    the untwisted weight sigma with digits r and its fixed vector v0: the
    tensor product over the digits of the Frobenius twists of the first
    column of ``_sym_power``, the image (C(r, t) a^(r-t) c^t)_t of x^r.  No
    weight module is built."""
    gf = ctx.gf
    ac = ctx.gr.reduce_p(ctx.coset_tree().words[:, :, 0])[..., None]
    walk = np.ones((len(ac), 1), dtype=np.int64)
    for ri in r:
        n = np.arange(ri + 1)
        pa, pc = gf.pow_vec(ac, n).transpose(1, 0, 2)
        col = gf.mul_t[[comb(ri, t) % gf.p for t in n], gf.mul_t[pa[:, ri - n], pc]]
        walk = gf.mul_t[walk[:, :, None], col[:, None, :]].reshape(len(walk), -1)
        ac = gf.frob_t[ac]
    return walk


# bytes of relations ``_weight_relations`` keeps: every digit vector up to q = 125,
# and at q = 625 at least the 20 largest (at most (q+1)^2 / 4 entries of 2 bytes)
RELATIONS_BYTES = 2 ** 22
_RELATIONS: OrderedDict = OrderedDict()


def _weight_relations(ctx: GroupContext, r: tuple) -> tuple:
    """(E, free, nodes, cuts) for the untwisted weight with digits r, from one
    ``rref`` of the transpose of its walk S (``_weight_walk``): nodes are the
    d tree nodes whose rows of S are independent, node 0 (the identity word)
    first, free the other q+1-d, and S[free] = E S[nodes].  So the rows of
    C = [I | -E] (columns free, then nodes) span the left kernel of S.  After
    tree level l, the first cuts[l] = (f, k) free nodes and nodes are walked.
    E is kept as int16 (entries are below q < 2^15), and the least recently
    used digit vectors are dropped past ``RELATIONS_BYTES``."""
    key = (ctx.params, r)
    if key in _RELATIONS:
        _RELATIONS.move_to_end(key)
        return _RELATIONS[key]
    S = _weight_walk(ctx, r)
    R, nodes, _ = rref(ctx.gf, S.T)
    if len(nodes) != S.shape[1]:
        raise AssertionError(f"the walk of the weight with digits {r} spans {len(nodes)} of {S.shape[1]} dimensions")
    free = np.delete(np.arange(len(S)), nodes)
    ends = 1 + np.cumsum([sum(len(kids) for _, kids, _ in level) for level in ctx.coset_tree().levels])
    cuts = list(zip(np.searchsorted(free, ends).tolist(), np.searchsorted(nodes, ends).tolist()))
    _RELATIONS[key] = R[:, free].T.astype(np.int16), free, np.array(nodes), cuts
    while sum(rel[0].nbytes for rel in _RELATIONS.values()) > RELATIONS_BYTES and len(_RELATIONS) > 1:
        _RELATIONS.popitem(last=False)
    return _RELATIONS[key]


def hom_from_weight(mod: ExplicitModule, sigma: Weight, rows) -> list:
    """Basis of equivariant maps from the weight into a K-module.

    ``rows`` span the chi_sigma-eigenspace of the module's pro-p invariants
    (an entry of ``h_eigen_split``), where the weight's fixed vector v0 must
    go.  By Frobenius reciprocity, w there gives the map Ind chi_sigma -> M
    sending word . e to word . w, and sigma is the quotient of Ind chi_sigma
    by the kernel of e -> v0.  So w is the image of v0 under a map from sigma
    exactly when sum_i c_i word_i . w = 0 for each relation c among the
    sigma(word_i) v0 over the coset tree's words (``_weight_relations``).
    The twist t scales the relations, C_t = C_0 diag(det(word_i)^(-t)); with
    its rows rescaled to keep the identity block, E_t[i, j] is E_0[i, j]
    times det(word_free[i])^t det(word_nodes[j])^(-t).

    The candidates are walked along the tree, one product per level and
    generator.  The relation of a free node involves only earlier nodes, so
    after each level the candidates are cut down to the kernel of the
    relations it completed, and an empty kernel returns at once.  Returns a
    list of image bases (rows), one per independent map, in the basis the
    echelon form of the kernel read from its last coordinate gives; a map's
    rows are its images of the words at the independent nodes, the first
    being w.
    """
    ctx, gf = mod.ctx, mod.gf
    tree = ctx.coset_tree()
    E, free, nodes, cuts = _weight_relations(ctx, sigma.r)
    t = sigma.twist % (gf.q - 1)
    if t:
        logs = tree.det_logs
        E = gf.mul_t[E, gf.exp_t[(t * (logs[free, None] - logs[nodes])) % (gf.q - 1)]]
    m, n = rows.shape
    gmats = mod.gen_mats("K")
    walk = np.zeros((m, len(tree.words), n), dtype=np.int64)
    walk[:, 0] = rows
    coeffs = None  # the candidates left, in those given; None while all are
    checked = 0  # free nodes whose relations hold
    for level, (done, known) in zip(tree.levels, cuts):
        for k, kids, parents in level:
            walk[:, kids] = gf.matmul(walk[:, parents].reshape(-1, n), gmats[k].T).reshape(m, len(kids), n)
        if done == checked:
            continue
        # C . walk on the new relations: one row per (relation, coordinate), one column per candidate
        at_nodes = walk[:, nodes[:known]].transpose(1, 0, 2).reshape(known, m * n)
        at_free = walk[:, free[checked:done]].transpose(1, 0, 2).reshape(-1, m * n)
        rel = gf.sub(at_free, gf.matmul(E[checked:done, :known], at_nodes))
        checked = done
        if not rel.any():
            continue
        ker = nullspace(gf, rel.reshape(-1, m, n).transpose(0, 2, 1).reshape(-1, m))
        if not len(ker):
            return []
        coeffs = ker if coeffs is None else gf.matmul(ker, coeffs)
        walk, m = gf.matmul(ker, walk.reshape(m, -1)).reshape(len(ker), -1, n), len(ker)
    if coeffs is not None:
        # T coeffs is the echelon basis read from the last coordinate: rref([coeffs reversed | I]) = [T0 coeffs reversed | T0]
        T = rref(gf, np.hstack([coeffs[:, ::-1], gf.eye(m)]))[0][::-1, -m:]
        walk = gf.matmul(T, walk.reshape(m, -1)).reshape(m, -1, n)
    return list(walk[:, nodes])


def socle_components(mod: ExplicitModule) -> list:
    """Irreducible subobjects as (irreducible, image rows), one entry per
    embedding: (Weight, rows) for a K-module, (ICharacter, one row) for an
    I-module, whose irreducibles are the eigenlines of its invariants."""
    out = []
    for chi, rows in h_eigen_split(mod, invariants(mod)):
        if mod.group == "I":
            out.extend((chi, row[None]) for row in rows)
            continue
        for w in weights_of_char(chi):
            if weight_dim(w) > mod.dim:
                continue
            for img in hom_from_weight(mod, w, rows):
                out.append((w, img))
    return out


def socle_data(mod: ExplicitModule):
    """(multiset of the socle's irreducibles, subspace spanned by it), searched
    once per module.  Each call gets its own copy of the multiset; the
    subspace is the module's record and is not to be grown."""
    if mod._socle is None:
        found, rows = Counter(), []
        for w, img in socle_components(mod):
            found[w] += 1
            rows.extend(img)
        mod._socle = found, Subspace(mod.gf, rows, ambient=mod.dim)
    found, soc = mod._socle
    return Counter(found), soc


def socle_series(mod: ExplicitModule) -> list:
    """Socle filtration as a list of Counters of irreducibles (``socle_data``),
    bottom first, computed once per module.  Each call gets its own copies."""
    if mod._layers is None:
        layers = []
        cur = mod
        while cur.dim > 0:
            found, soc = socle_data(cur)
            if soc.dim == 0:
                raise AssertionError("nonzero module with zero socle")
            layers.append(found)
            cur = quotient_module(cur, soc)
            if len(layers) > mod.dim:
                raise AssertionError("socle series did not terminate")
        mod._layers = layers
    return [Counter(layer) for layer in mod._layers]


def jh_multiset(mod: ExplicitModule) -> Counter:
    """Jordan-Hoelder multiset of a K-module: the sum of its socle layers,
    checked against its dimension."""
    if mod.group != "K":
        raise DomainError(f"Jordan-Hoelder weights need a K-module, not {mod}")
    total = Counter()
    for layer in socle_series(mod):
        total.update(layer)
    dims = sum(weight_dim(w) * k for w, k in total.items())
    if dims != mod.dim:
        raise AssertionError(f"JH dimensions {dims} do not add up to {mod.dim}")
    return total


def socle_weights(mod: ExplicitModule) -> Counter:
    found, _ = socle_data(mod)
    return found


def cosocle_weights(mod: ExplicitModule) -> Counter:
    """Cosocle of a K-module, as the socle of g -> M(g^T)^T: the contragredient
    composed with g -> (g^T)^(-1) = det(g)^(-1) J g J^(-1), J = (0,1;-1,0),
    which sends each weight's dual back to the weight.  K's generators are
    closed under transposition, so nothing is inverted."""
    mats, perm = mod.gen_mats("K"), mod.ctx.transpose_positions()
    return socle_weights(ExplicitModule(mod.ctx, mod.dim, "K", derive=lambda: [mats[i].T for i in perm]))


def radical_subspace(mod: ExplicitModule, kind: str, rows=None) -> Subspace:
    """Span of (g - 1) applied to the rows, over the kind's generators
    that do not act as the identity (the others add nothing)."""
    gf = mod.gf
    if rows is None:
        rows = gf.eye(mod.dim)
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    images = [gf.sub(gf.matmul(rows, M.T), rows) for M in mod.moving_mats(kind)]
    return Subspace(gf, images, ambient=mod.dim)


def restricted_loewy(mod: ExplicitModule, kind: str) -> int:
    """Loewy length of the restriction to the unipotent subgroup of that kind."""
    gf = mod.gf
    cur = Subspace(gf, gf.eye(mod.dim))
    length = 0
    while cur.dim > 0:
        cur = radical_subspace(mod, kind, cur.basis)
        length += 1
        if length > mod.dim + 1:
            raise AssertionError("radical series did not terminate")
    return length
