"""Explicit vectors in induced modules and the identities they satisfy.

Everything here happens inside inductions of small Iwahori modules.  The
distinguished vectors are twisted coset sums: for a member vector m and an
exponent k, the sum over lambda in F_q of lambda^k [g_lambda, m], with the
conventions 0^0 = 1 and 0^(q-1) = 0.  These give the standard spanning
vectors of the two layers of the induction of a twisted two-dimensional
extension, the canonical generators of the unique subrepresentations with
prescribed cosocle, and the uniserial chain submodules.  Each verification
routine recomputes a stated identity or structure exactly and reports any
offending instance.
"""

from __future__ import annotations

from collections import Counter

import numpy as np

from ..core import (
    CheckReport,
    DomainError,
    ICharacter,
    char_normal_form,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    sigma_s,
    weight_dim,
    weight_of_char,
)
from ..filtration import epsilon_generator, w_contains_U
from ..principal import U_contents, jh_of_induced
from .gf import Subspace, spin
from .groups import GroupContext
from .modules import (
    ExplicitModule,
    character_module,
    cosocle_weights,
    direct_sum,
    ej_module,
    h_eigen_split,
    induce,
    invariants,
    jh_multiset,
    pi_twist,
    quotient_module,
    radical_subspace,
    restricted_loewy,
    socle_components,
    socle_series,
    sub_module,
)


def coset_sum_vector(ctx: GroupContext, member, k: int) -> np.ndarray:
    """sum over lambda of lambda^k [g_lambda, member] in induced coordinates."""
    gf = ctx.gf
    coeffs = gf.pow_vec(np.arange(gf.q), k)  # 0^0 = 1, 0^k = 0 for k > 0
    out = np.zeros((gf.q + 1, len(member)), dtype=np.int64)
    out[: gf.q] = gf.mul_t[coeffs[:, None], np.asarray(member, dtype=np.int64)[None, :]]
    return out.ravel()


def identity_coset_vector(ctx: GroupContext, member) -> np.ndarray:
    gf = ctx.gf
    out = np.zeros((gf.q + 1) * len(member), dtype=np.int64)
    out[gf.q * len(member) :] = np.asarray(member, dtype=np.int64)
    return out


def minus_one_to(t: int, gf) -> int:
    return gf.neg_t[1] if t % 2 else 1


def canonical_generator(ctx: GroupContext, char: ICharacter, member, factor) -> np.ndarray:
    """The twisted coset sum of ``member`` whose exponent k is read off the
    factor's tuple at the normal form of char, corrected by epsilon_generator."""
    par, gf = ctx.params, ctx.gf
    digits, t = char_normal_form(char)
    k = sum(
        par.p ** i * (par.p - 1 - factor.lam[i].value(digits[i], par.p))
        for i in factor.J
    )
    vec = coset_sum_vector(ctx, member, k)
    if epsilon_generator(char, factor.weight):
        vec = gf.add(vec, identity_coset_vector(ctx, member * minus_one_to(t, gf)))
    return vec


class TwistedExtensionInduction:
    """The induction W of the normalizer twist of a two-dimensional extension.

    Carries the lower layer (the induction of the twisted character), the
    vectors f_k and F_k, and the canonical generators of the unique
    subrepresentations with prescribed cosocle in both layers.
    """

    def __init__(self, ctx: GroupContext, chi: ICharacter, j: int):
        self.ctx = ctx
        self.chi = chi
        self.j = j
        self.psi = char_times_alpha_power(chi, j, -1)
        self.W = induce(pi_twist(ej_module(ctx, chi, j)))
        q = ctx.gf.q
        rows = np.zeros((q + 1, self.W.dim), dtype=np.int64)
        rows[np.arange(q + 1), 2 * np.arange(q + 1)] = 1
        self.lower = Subspace(ctx.gf, rows)  # Ind of the twisted character line
        self.jh_lower = jh_of_induced(conjugate_char(chi))
        self.jh_upper = jh_of_induced(conjugate_char(self.psi))

    def f_vec(self, k: int) -> np.ndarray:
        return coset_sum_vector(self.ctx, np.array([1, 0]), k)

    def F_vec(self, k: int) -> np.ndarray:
        return coset_sum_vector(self.ctx, np.array([0, 1]), k)

    def u_generator_lower(self, factor) -> np.ndarray:
        """Canonical generator of the unique sub with cosocle ``factor`` below."""
        return canonical_generator(self.ctx, self.chi, np.array([1, 0]), factor)

    def w_generator(self, factor) -> np.ndarray:
        """Canonical generator of W_omega for a factor of the upper layer."""
        return canonical_generator(self.ctx, self.psi, np.array([0, 1]), factor)


def verify_witt(bundle: TwistedExtensionInduction) -> CheckReport:
    """The three one-parameter matrix identities on the F_k, plus eigencharacters."""
    ctx, chi, j, W = bundle.ctx, bundle.chi, bundle.j, bundle.W
    par = ctx.params
    gf, gr = ctx.gf, ctx.gr
    q = gf.q
    pj = par.p ** j
    rep = CheckReport("witt", f"p={par.p},f={par.f},chi=({chi.a},{chi.b}),j={j}")

    upper, lower_m, diag = W.evaluate(np.stack([
        gr.mat_from_ints(1, par.p, 0, 1),
        gr.mat_from_ints(1, 0, par.p, 1),
        gr.mat_from_ints(1 + par.p, 0, 0, 1),
    ]))

    def wrap(k):
        return k if k <= q - 1 else k - (q - 1)

    # every F_k and every f_k as the rows of one block, so each matrix acts
    # on all q vectors in one product (M v is row v of V M^T); only the
    # verdict of each row is kept
    ks = range(q)
    F = np.stack([bundle.F_vec(k) for k in ks])
    f = np.stack([bundle.f_vec(k) for k in ks])

    def acts_as(M, X, want):
        return (gf.matmul(X, M.T) == want).all(axis=1)

    def eigen(X, chars):
        ok = np.ones(q, dtype=bool)
        for hm, g in zip(W.gen_mats("H"), ctx.gens("H")):
            values = np.array([ctx.char_value(ch, g) for ch in chars])
            ok &= acts_as(hm, X, gf.mul(values[:, None], X))
        return ok

    upper_ok = acts_as(upper, F, gf.add(F, f))
    lower_ok = acts_as(lower_m, F, gf.sub(F, f[[wrap(k + 2 * pj) for k in ks]]))
    diag_ok = acts_as(diag, F, gf.add(F, f[[wrap(k + pj) for k in ks]]))
    eigen_F = eigen(F, [char_times_alpha_power(char_times_alpha_power(chi, 0, -k), j, -1) for k in ks])
    eigen_f = eigen(f, [char_times_alpha_power(chi, 0, -k) for k in ks])
    for k in ks:
        rep.add(f"upper-shift k={k}", upper_ok[k])
        rep.add(f"lower-shift k={k}", lower_ok[k])
        rep.add(f"diag-shift k={k}", diag_ok[k])
        rep.add(f"eigenchar-F k={k}", eigen_F[k])
        rep.add(f"eigenchar-f k={k}", eigen_f[k])
    return rep


def verify_calcul_H(bundle: TwistedExtensionInduction, a_coeffs: dict, b_coeffs: dict) -> CheckReport:
    """Spin an H-mixed combination under I and test the asserted memberships."""
    gf, chi = bundle.ctx.gf, bundle.chi
    rep = CheckReport("calcul-H", f"chi=({chi.a},{chi.b}),j={bundle.j},a={a_coeffs},b={b_coeffs}")
    vec = np.zeros(bundle.W.dim, dtype=np.int64)
    for k, c in a_coeffs.items():
        vec = gf.add(vec, gf.mul(c % gf.p, bundle.F_vec(k)))
    for k, c in b_coeffs.items():
        vec = gf.add(vec, gf.mul(c % gf.p, bundle.f_vec(k)))
    span = spin(gf, bundle.W.moving_mats("I"), vec)
    for k, c in a_coeffs.items():
        if c % gf.p:
            rep.add(f"F_{k} recovered", span.contains(bundle.F_vec(k)))
    for k, c in b_coeffs.items():
        if c % gf.p:
            rep.add(f"f_{k} recovered", span.contains(bundle.f_vec(k)))
    return rep


def verify_uplus(bundle: TwistedExtensionInduction, k: int) -> CheckReport:
    """Basis of the unipotent span of f_k; membership bound for F_k."""
    ctx, chi, j = bundle.ctx, bundle.chi, bundle.j
    gf = ctx.gf
    rep = CheckReport("uplus", f"chi=({chi.a},{chi.b}),j={j},k={k}")
    dig = gf.dig  # base-p digits of 0 .. q-1

    span_f = spin(gf, bundle.W.moving_mats("U+"), bundle.f_vec(k))
    expected = np.flatnonzero((dig <= dig[k]).all(axis=1)).tolist()
    rep.add("span dimension", span_f.dim == len(expected), len(expected), span_f.dim)
    rep.add("stated basis inside", span_f.contains([bundle.f_vec(kp) for kp in expected]))
    stable = all(span_f.contains(gf.matmul(span_f.basis, M.T)) for M in bundle.W.moving_mats("I"))
    rep.add("Iwahori stable", stable)

    span_F = spin(gf, bundle.W.moving_mats("U+"), bundle.F_vec(k))
    f = ctx.params.f
    others = np.arange(f) != (j - 1) % f  # every slot but j-1
    want = np.flatnonzero((dig[:, others] <= dig[k, others]).all(axis=1)).tolist()
    rep.add(
        "F-span membership",
        span_F.contains([bundle.f_vec(kp) for kp in want]),
        f"{len(want)} vectors",
    )
    return rep


def chain_induction(ctx: GroupContext, chi: ICharacter) -> ExplicitModule:
    """The induction of the twist of chi, in which every chain of chi sits."""
    return induce(pi_twist(character_module(ctx, chi)))


def ej_chain_module(base: ExplicitModule, j: int, s: int) -> ExplicitModule:
    """The uniserial (s+1)-dimensional chain below Ind of the twisted character:
    the span of f_(p^j s) under the Iwahori inside ``base``, which is
    ``chain_induction(ctx, chi)`` for the chain's character chi."""
    ctx = base.ctx
    if not 0 <= s <= ctx.params.p - 1:
        raise DomainError("chain length out of range")
    k = ctx.params.p ** j * s
    seed = coset_sum_vector(ctx, np.array([1]), k)
    sub = spin(ctx.gf, base.moving_mats("I"), seed)
    return sub_module(base, sub, group="I")


def verify_ej_chain(base: ExplicitModule, chi: ICharacter, j: int, s: int) -> CheckReport:
    """Checks of the chain of chi in ``base = chain_induction(ctx, chi)``."""
    rep = CheckReport("chain", f"chi=({chi.a},{chi.b}),j={j},s={s}")
    mod = ej_chain_module(base, j, s)
    rep.add("dimension", mod.dim == s + 1, s + 1, mod.dim)
    layers = [sorted(layer.elements()) for layer in socle_series(mod)]
    expected = [[char_times_alpha_power(chi, j, -i)] for i in range(s + 1)]
    rep.add("uniserial ladder", layers == expected,
            [str(c[0]) for c in expected], [[str(x) for x in l] for l in layers])
    rep.add("unipotent Loewy length", restricted_loewy(mod, "U+") == s + 1, s + 1)
    return rep


def _cosocle_functional_kernel(mod: ExplicitModule) -> tuple:
    """(kernel rows of a cosocle coordinate, complement index) for 1-dim cosocle."""
    rad = radical_subspace(mod, "I1")
    if rad.dim != mod.dim - 1:
        raise DomainError("module does not have a one-dimensional cosocle")
    comp = rad.complement_coords()[0]
    return rad, comp


def e_two_char_module(ctx: GroupContext, chi: ICharacter, chi2: ICharacter, j: int, s_plus_1: int):
    """Fiber product gluing the chain of chi with the extension of chi2.

    The unique module fitting in the exact sequence whose two projections to
    the common cosocle character agree; dimension s+3 for s+1 = s_plus_1.
    """
    par = ctx.params
    f = par.f
    jm1 = (j - 1) % f
    s = s_plus_1 - 1
    if not 0 <= s <= par.p - 2:
        raise DomainError("chain parameter out of range")
    lhs = char_times_alpha_power(chi, jm1, -s_plus_1)
    rhs = char_times_alpha_power(chi2, j, -1)
    if lhs != rhs:
        raise DomainError("characters are incompatible with the gluing")
    A = ej_chain_module(chain_induction(ctx, chi), jm1, s_plus_1)
    B = ej_module(ctx, chi2, j)
    gf = ctx.gf
    dA, dB = A.dim, B.dim
    D = direct_sum(A, B)
    radA, cA = _cosocle_functional_kernel(A)
    radB, cB = _cosocle_functional_kernel(B)
    # kernel of (x, y) -> phiA(x) - phiB(y)
    rows = []
    for v in radA.basis:
        rows.append(np.concatenate([v, np.zeros(dB, dtype=np.int64)]))
    for v in radB.basis:
        rows.append(np.concatenate([np.zeros(dA, dtype=np.int64), v]))
    diag = np.zeros(dA + dB, dtype=np.int64)
    diag[cA] = 1
    diag[dA + cB] = 1
    rows.append(diag)
    sub = Subspace(gf, np.stack(rows))
    return sub_module(D, sub, group="I")


def verify_e_two_char(mod: ExplicitModule, chi: ICharacter, chi2: ICharacter, j: int, s_plus_1: int) -> CheckReport:
    """Checks of ``e_two_char_module(ctx, chi, chi2, j, s_plus_1)``, built by the caller."""
    par = mod.ctx.params
    s = s_plus_1 - 1
    rep = CheckReport("two-char", f"chi=({chi.a},{chi.b}),chi2=({chi2.a},{chi2.b}),j={j},s+1={s_plus_1}")
    rep.add("dimension", mod.dim == s + 3, s + 3, mod.dim)
    got = [sorted(layer.elements()) for layer in socle_series(mod)]
    jm1 = (j - 1) % par.f
    want = [sorted([chi, chi2])]
    want += [[char_times_alpha_power(chi, jm1, -i)] for i in range(1, s + 2)]
    rep.add("socle ladder", got == want)
    chars = [c for l in got for c in l]
    rep.add("multiplicity one", len(set(chars)) == len(chars))
    rep.add("unipotent Loewy length", restricted_loewy(mod, "U+") == s + 2, s + 2)
    return rep


def verify_S1_condition(mod: ExplicitModule, v) -> bool:
    """Loewy-length inequality guaranteeing the generator avoids the obstruction.

    v must be a torus eigenvector outside the Iwahori radical of the module;
    the test compares the unipotent Loewy length of the span of v against
    the opposite-unipotent length of the module and the length of the kernel
    of the cosocle coordinate along v.
    """
    ctx = mod.ctx
    gf = mod.gf
    rad = radical_subspace(mod, "I1")
    if rad.contains(v):
        raise DomainError("vector lies in the radical")
    [(chi_v, _)] = h_eigen_split(mod, v)
    span_v = spin(gf, mod.moving_mats("I"), v)
    r_plus_v = restricted_loewy(sub_module(mod, span_v), "U+")
    r_minus = restricted_loewy(mod, "U-")
    # kernel of the cosocle projection along the class of v: the radical plus
    # the other eigencomponents of the cosocle, plus a complement of the class
    # of v inside its own eigenspace (scalar action makes any choice stable)
    comp = rad.complement_coords()
    cosoc = quotient_module(mod, rad)
    vbar = rad.reduce(np.asarray(v, dtype=np.int64))[comp]
    ker_rows = [rad.basis]
    for ch, rows in h_eigen_split(cosoc, gf.eye(cosoc.dim)):
        keep = rows if ch != chi_v else rows[Subspace(gf, vbar).insert(rows)]
        lift = np.zeros((keep.shape[0], mod.dim), dtype=np.int64)
        lift[:, comp] = keep
        ker_rows.append(lift)
    ker = Subspace(gf, np.vstack(ker_rows))
    if ker.dim != mod.dim - 1 or ker.contains(v):
        raise AssertionError("cosocle coordinate kernel has the wrong size")
    r_plus_ker = restricted_loewy(sub_module(mod, ker), "U+") if ker.dim else 0
    return r_plus_v > max(r_minus, r_plus_ker)


def verify_ind_ej(ctx: GroupContext, chi: ICharacter, j: int) -> CheckReport:
    """Fixed vector, its irreducible span, and the cyclic vector of Ind E_j.

    When the twisted character is the conjugate of chi the plain coset sum
    picks up the identity coset through reciprocity, and the vector
    generating the predicted weight is R0 - eta'(-1) [1, v]; otherwise it is
    R0 itself.
    """
    par = ctx.params
    gf = ctx.gf
    psi = char_times_alpha_power(chi, j, -1)
    base = weight_of_char(psi)
    rep = CheckReport("ind-ej", f"chi=({chi.a},{chi.b}),j={j}")
    if base.r[j] > par.p - 2:
        raise DomainError("slot-j digit of the twisted character must be at most p-2")
    mod = induce(ej_module(ctx, chi, j))
    R0 = coset_sum_vector(ctx, np.array([0, 1]), 0)
    Rq = coset_sum_vector(ctx, np.array([0, 1]), gf.q - 1)
    fixed = all((gf.matmul(R0[None], M.T) == R0).all() for M in mod.moving_mats("I1"))
    rep.add("bottom sum is pro-p fixed", fixed)
    gen0 = R0
    if psi == conjugate_char(chi):
        corr = identity_coset_vector(ctx, np.array([1, 0]))
        gen0 = gf.add(R0, gf.mul(int(gf.neg_t[minus_one_to(base.twist, gf)]), corr))
    span0 = spin(gf, mod.moving_mats("K"), gen0)
    target = sigma_s(base)
    rep.add("span dimension", span0.dim == weight_dim(target), weight_dim(target), span0.dim)
    sm = sub_module(mod, span0)
    inv = invariants(sm)
    ok = inv.shape[0] == 1 and h_eigen_split(sm, inv)[0][0] == chi_of_weight(target)
    rep.add("span is the predicted weight", ok, str(target))
    spanq = spin(gf, mod.moving_mats("K"), Rq)
    rep.add("top sum generates everything", spanq.dim == mod.dim, mod.dim, spanq.dim)
    w_vec = identity_coset_vector(ctx, np.array([0, 1]))
    g0 = ctx.coset_reps()[0]  # ([0],1;1,0) = the antidiagonal involution lift
    lhs = gf.matmul(w_vec[None], mod.evaluate(g0).T)
    rep.add("reflection identity", (lhs == gf.sub(R0, Rq)).all())
    return rep


def verify_u_generators(ctx: GroupContext, chi: ICharacter) -> CheckReport:
    """Each canonical generator spans exactly the predicted sub of the induction."""
    gf = ctx.gf
    rep = CheckReport("u-generator", f"chi=({chi.a},{chi.b})")
    base = chain_induction(ctx, chi)
    for factor in jh_of_induced(conjugate_char(chi)).factors:
        vec = canonical_generator(ctx, chi, np.array([1]), factor)
        span = spin(gf, base.moving_mats("K"), vec)
        sub = sub_module(base, span)
        got = jh_multiset(sub)
        want = Counter(fac.weight for fac in U_contents(factor, conjugate_char(chi)))
        rep.add(f"contents of U({factor.weight})", got == want, dict(want), dict(got))
        cos = cosocle_weights(sub)
        rep.add(f"cosocle of U({factor.weight})", cos == Counter([factor.weight]))
    return rep


def verify_w_omega(bundle: TwistedExtensionInduction) -> CheckReport:
    """Spin every W_omega and compare against the subset criteria and U-contents."""
    gf, chi, j = bundle.ctx.gf, bundle.chi, bundle.j
    rep = CheckReport("w-omega", f"chi=({chi.a},{chi.b}),j={j}")
    quotient = quotient_module(bundle.W, bundle.lower)
    for omega in bundle.jh_upper.factors:
        wgen = bundle.w_generator(omega)
        wspan = spin(gf, bundle.W.moving_mats("K"), wgen)
        smod = sub_module(bundle.W, wspan)
        cos = cosocle_weights(smod)
        rep.add(f"cosocle W_({omega.weight})", cos == Counter([omega.weight]),
                str(omega.weight), dict(cos))
        # image modulo the lower layer (the even unit vectors), read off the
        # odd coordinates: the unique sub with cosocle omega
        img = Subspace(gf, wspan.basis[:, 1::2])
        got = jh_multiset(sub_module(quotient, img))
        want = Counter(fac.weight for fac in U_contents(omega, conjugate_char(bundle.psi)))
        rep.add(f"upper image of W_({omega.weight})", got == want, dict(want), dict(got))
        for tau in bundle.jh_lower.factors:
            member = wspan.contains(bundle.u_generator_lower(tau))
            predicted = w_contains_U(omega.lam, tau.lam, chi, j)
            rep.add(
                f"U({tau.weight}) in W_({omega.weight})",
                member == predicted,
                predicted,
                member,
            )
    return rep


def quotient_by_non_diamond_socle(mod: ExplicitModule, allowed) -> ExplicitModule:
    """Iteratively remove socle components whose weights are outside the set."""
    allowed = set(allowed)
    cur = mod
    while True:
        rows = [v for w, img in socle_components(cur) if w not in allowed for v in img]
        bad = Subspace(cur.gf, rows, ambient=cur.dim)
        if bad.dim == 0:
            return cur
        cur = quotient_module(cur, bad)
