import numpy as np
import pytest
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from gl2diamond.core import (
    DomainError,
    Params,
    Weight,
    chi_of_weight,
    conjugate_char,
    sigma_s,
    weight_dim,
    weight_dual,
)
from gl2diamond.principal import jh_of_induced, socle_of_induced
from gl2diamond.oracle.gf import Subspace, nullspace, rref, spin
from gl2diamond.oracle.groups import get_context
from gl2diamond.oracle.modules import (
    character_module,
    check_module,
    cosocle_weights,
    direct_sum,
    ej_module,
    h_eigen_split,
    hom_from_weight,
    induce,
    invariants,
    jh_multiset,
    pi_twist,
    quotient_module,
    restricted_loewy,
    socle_components,
    socle_series,
    socle_weights,
    sub_module,
    weight_module,
)


@pytest.fixture(scope="module")
def ctx52():
    return get_context(Params(5, 2))


@pytest.fixture(scope="module")
def ctx51():
    return get_context(Params(5, 1))


def test_coset_decompose_round_trip(ctx52):
    ctx = ctx52
    gr = ctx.gr
    rng = np.random.default_rng(7)
    reps = ctx.coset_reps()
    for _ in range(200):
        g = ctx.random_element("K", rng)
        idx, i = ctx.coset_decompose(g)
        assert gr.mat_in_I(i)
        assert (gr.mat_mul(reps[idx], i) == g % gr.p2).all()
    # Iwahori elements decompose over the identity coset
    g = ctx.random_element("I", rng)
    idx, i = ctx.coset_decompose(g)
    assert idx == ctx.gf.q and (i == g % gr.p2).all()
    # the antidiagonal lift lands in the zero coset
    w = gr.mat_from_ints(0, 1, 1, 0)
    assert ctx.coset_decompose(w)[0] == 0
    with pytest.raises(ValueError):
        ctx.coset_decompose(gr.mat_from_ints(1, 0, 0, 0))


@pytest.mark.parametrize("p,f", [(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)])
def test_stacked_coset_decompose(p, f):
    # every K-generator times every coset representative, decomposed as one stack
    ctx = get_context(Params(p, f))
    gr = ctx.gr
    reps = ctx.coset_reps()
    gens = ctx.k_gens()
    prods = gr.mat_mul(gens[:, None], reps[None])
    targets, parts = ctx.coset_decompose(prods)
    assert targets.shape == (len(gens), ctx.gf.q + 1) and parts.shape == prods.shape
    assert (gr.mat_mul(reps[targets], parts) == prods).all()
    assert gr.mat_in_I(parts).all()
    for k, ell in np.ndindex(targets.shape):
        g = gr.mat_mul(gens[k], reps[ell])
        idx, i = ctx.coset_decompose(g)
        assert idx.shape == () and idx == targets[k, ell]
        assert (i == parts[k, ell]).all() and gr.mat_in_I(i)
        assert (gr.mat_mul(reps[idx], i) == g).all()
    # each generator permutes the cosets
    assert (np.sort(targets, axis=1) == np.arange(ctx.gf.q + 1)).all()
    # one singular matrix in a stack refuses the whole stack
    bad = prods.copy()
    bad[0, 0] = gr.mat_from_ints(1, 0, 0, 0)
    with pytest.raises(ValueError):
        ctx.coset_decompose(bad)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 2), (3, 3)])
def test_group_stacks_are_cached_read_only_arrays(p, f):
    ctx = get_context(Params(p, f))
    gr, q = ctx.gr, ctx.gf.q
    gens, reps = ctx.k_gens(), ctx.coset_reps()
    assert gens.shape == (6 * f + 2, 2, 2, f) and reps.shape == (q + 1, 2, 2, f)
    assert ctx.k_gens() is gens and ctx.coset_reps() is reps
    # the representatives are the per-lambda construction, then the identity
    one_by_one = [gr.mat(gr.teichmuller(lam), gr.one(), gr.one(), gr.zero()) for lam in range(q)]
    assert (reps == np.stack(one_by_one + [gr.mat_eye()])).all()
    for cached in (gens, reps):
        with pytest.raises(ValueError, match="read-only"):
            cached[0, 0, 0, 0] = 0
        with pytest.raises(ValueError, match="read-only"):
            cached[-1] += 1
    for kind, positions in ctx.kind_positions().items():
        assert (ctx.gens(kind) == gens[list(positions)]).all() and len(ctx.gens(kind)) == len(positions)


@pytest.mark.parametrize("p,f", [(3, 1), (5, 2), (3, 3)])
def test_one_matrix_is_a_stack_with_no_leading_axes(p, f):
    # single-matrix calls return 0-d arrays equal to the stacked results
    ctx = get_context(Params(p, f))
    gr = ctx.gr
    chi = chi_of_weight(Weight(ctx.params, (1,) * f, 1))
    prods = gr.mat_mul(ctx.k_gens()[:, None], ctx.coset_reps()[None])
    targets, parts = ctx.coset_decompose(prods)
    values, residues = ctx.char_value(chi, prods), gr.reduce_p(prods)
    for k, ell in np.ndindex(targets.shape):
        g = prods[k, ell]
        idx, i = ctx.coset_decompose(g)
        assert (i == parts[k, ell]).all()
        pairs = [
            (idx, targets[k, ell]),
            (ctx.char_value(chi, g), values[k, ell]),
            (gr.reduce_p(g[0, 1]), residues[k, ell, 0, 1]),
        ]
        for one, stacked in pairs:
            assert isinstance(one, np.ndarray) and one.shape == () and one == stacked
        assert (gr.reduce_p(g) == residues[k, ell]).all()


def test_induced_matrices_agree_with_evaluator_at_q27():
    ctx = get_context(Params(3, 3))
    chi = chi_of_weight(Weight(ctx.params, (1, 1, 1), 0))
    mod = induce(ej_module(ctx, chi, 1))
    check_module(mod, np.random.default_rng(4), samples=6)


def test_induce_needs_an_evaluator(ctx51):
    # derived modules carry only generator matrices, so they cannot be induced
    ctx = ctx51
    gf = ctx.gf
    E = ej_module(ctx, chi_of_weight(Weight(ctx.params, (2,), 0)), 0)
    line = Subspace(gf, invariants(E))
    S = sub_module(E, line)
    for mod in (S, quotient_module(E, line), direct_sum(E, E)):
        assert mod.group == "I" and not hasattr(mod, "evaluate")
        with pytest.raises(DomainError, match="evaluator"):
            induce(mod)


def test_evaluator_multiplicativity_100_samples(ctx52):
    rng = np.random.default_rng(11)
    ctx = ctx52
    sigma = Weight(ctx.params, (1, 2), 5)
    chi = chi_of_weight(sigma)
    for mod in (weight_module(ctx, sigma), ej_module(ctx, chi, 0)):
        check_module(mod, rng, samples=100)


def test_generators_generate(ctx52):
    # spinning one coset line of the induced trivial character fills it
    ctx = ctx52
    mod = induce(character_module(ctx, chi_of_weight(Weight(ctx.params, (0, 0), 0))))
    seed = np.zeros(mod.dim, dtype=np.int64)
    seed[0] = 1
    assert spin(ctx.gf, mod.gen_mats("K"), seed).dim == mod.dim


@pytest.mark.parametrize("p,f", [(3, 1), (5, 2), (3, 3)])
def test_kind_positions(p, f):
    ctx = get_context(Params(p, f))
    gr = ctx.gr
    pos = ctx.kind_positions()
    assert pos["I"] == pos["K"][: len(pos["I"])]
    assert len(set(pos["K"])) == len(pos["K"]) == len(ctx.k_gens())

    def red(x):
        return gr.reduce_p(x)

    for g in ctx.gens("I"):
        assert gr.mat_in_I(g)
    for g in ctx.gens("I1"):
        assert gr.mat_in_I(g) and red(g[0, 0]) == red(g[1, 1]) == 1
    for g in ctx.gens("U+"):
        assert (g[0, 0] == gr.one()).all() and (g[1, 1] == gr.one()).all() and not g[1, 0].any()
    for g in ctx.gens("U-"):
        assert (g[0, 0] == gr.one()).all() and (g[1, 1] == gr.one()).all() and not g[0, 1].any()
        assert red(g[1, 0]) == 0
    for g in ctx.gens("H"):
        assert not g[0, 1].any() and not g[1, 0].any()
    # an Iwahori module has no matrices for K
    chi = chi_of_weight(Weight(ctx.params, (0,) * f, 0))
    for mod in (character_module(ctx, chi), pi_twist(character_module(ctx, chi))):
        with pytest.raises(DomainError):
            mod.gen_mats("K")


def test_pi_normalizes_iwahori(ctx52):
    gr = ctx52.gr
    for g in ctx52.gens("I"):
        assert gr.mat_in_I(gr.swap_conjugate(g))


def test_module_multiplicativity(ctx52):
    rng = np.random.default_rng(0)
    ctx = ctx52
    sigma = Weight(ctx.params, (2, 1), 3)
    chi = chi_of_weight(sigma)
    for mod in (
        weight_module(ctx, sigma),
        character_module(ctx, chi),
        ej_module(ctx, chi, 1),
        pi_twist(ej_module(ctx, chi, 0)),
        induce(pi_twist(character_module(ctx, chi))),
    ):
        check_module(mod, rng, samples=12)


def test_weight_invariants_char(ctx52):
    ctx = ctx52
    for r, t in [((2, 1), 0), ((0, 0), 5), ((4, 4), 1), ((3, 0), 7)]:
        sigma = Weight(ctx.params, r, t)
        W = weight_module(ctx, sigma)
        inv = invariants(W)
        assert inv.shape[0] == 1
        [(chi, _)] = h_eigen_split(W, inv[0])
        assert chi == chi_of_weight(sigma)


def _i_socle_series_chars_reference(mod):
    """The Iwahori socle filtration as a loop of its own: the pro-p
    invariants split into characters, layer by layer, each layer sorted."""
    layers = []
    cur = mod
    while cur.dim > 0:
        inv = invariants(cur)
        if inv.shape[0] == 0:
            raise AssertionError("nonzero module with no pro-p invariants")
        chars = []
        for chi, rows in h_eigen_split(cur, inv):
            chars.extend([chi] * rows.shape[0])
        layers.append(sorted(chars, key=lambda c: (c.a, c.b)))
        cur = quotient_module(cur, Subspace(cur.gf, inv))
    return layers


def _char_ladder(mod):
    """socle_series of an I-module as sorted character lists."""
    return [sorted(layer.elements(), key=lambda c: (c.a, c.b)) for layer in socle_series(mod)]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]), st.data())
def test_i_socle_series_matches_the_invariants_loop(pf, data):
    from gl2diamond.core import char_times_alpha_power
    from gl2diamond.oracle.vectors import e_two_char_module, ej_chain_module

    p, f = pf
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    r = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    chi = chi_of_weight(Weight(ctx.params, r, data.draw(st.integers(0, gf.q - 2))))
    j = data.draw(st.integers(0, f - 1))
    mods = [ej_module(ctx, chi, j)]
    mods += [ej_chain_module(ctx, chi, j, s) for s in range(min(3, p - 1) + 1)]
    if f == 2:
        s = data.draw(st.integers(0, p - 2))
        # chi2 * alpha_j^(-1) = chi * alpha_(j-1)^(-(s+1)), the gluing condition
        chi2 = char_times_alpha_power(char_times_alpha_power(chi, (j - 1) % 2, -(s + 1)), j, 1)
        mods.append(e_two_char_module(ctx, chi, chi2, j, s + 1))
    for base in (character_module(ctx, chi), ej_module(ctx, chi, j)):
        ind = induce(base)
        mods.append(sub_module(ind, Subspace(gf, gf.eye(ind.dim)), group="I"))
    for mod in mods:
        assert _char_ladder(mod) == _i_socle_series_chars_reference(mod), mod


def test_ej_module_structure(ctx52):
    ctx = ctx52
    chi = chi_of_weight(Weight(ctx.params, (2, 1), 0))
    for j in (0, 1):
        E = ej_module(ctx, chi, j)
        layers = _char_ladder(E)
        from gl2diamond.core import char_times_alpha_power

        assert layers == [[chi], [char_times_alpha_power(chi, j, -1)]]
        # nonsplit: the invariants are one-dimensional
        assert invariants(E).shape[0] == 1


def _eigen_rows(mod, sigma):
    """The chi_sigma-eigenrows of the module's pro-p invariants, or None."""
    return dict(h_eigen_split(mod, invariants(mod))).get(chi_of_weight(sigma))


def test_hom_and_socle_of_weight(ctx52):
    ctx = ctx52
    sigma = Weight(ctx.params, (2, 1), 0)
    W = weight_module(ctx, sigma)
    assert socle_weights(W) == Counter([sigma])
    assert cosocle_weights(W) == Counter([sigma])
    maps = hom_from_weight(W, sigma, _eigen_rows(W, sigma))
    assert len(maps) == 1  # endomorphisms are scalars
    other = weight_module(ctx, Weight(ctx.params, (1, 2), 0))
    # no fixed vector of sigma's character, so no map from sigma
    assert _eigen_rows(other, sigma) is None


def test_induced_socle_and_jh(ctx51):
    ctx = ctx51
    par = ctx.params
    for r, t in [((2,), 0), ((1,), 1), ((0,), 0)]:
        chi = chi_of_weight(Weight(par, r, t))
        mod = induce(character_module(ctx, chi))
        assert jh_multiset(mod) == Counter(jh_of_induced(chi).weights())
        assert socle_weights(mod) == Counter(socle_of_induced(chi))


@settings(max_examples=12, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]), st.data())
def test_socle_components_of_a_principal_series(pf, data):
    # every embedding found through hom_from_weight is a K-stable copy of its weight
    p, f = pf
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    r = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    chi = chi_of_weight(Weight(ctx.params, r, data.draw(st.integers(0, gf.q - 2))))
    mod = induce(character_module(ctx, chi))
    for w, img in socle_components(mod):
        span = Subspace(gf, img)
        assert span.dim == weight_dim(w)
        assert all(span.contains(gf.matmul(img, M.T)) for M in mod.gen_mats("K"))
    assert socle_weights(mod) == Counter(socle_of_induced(chi))


@pytest.mark.parametrize("p, f", [(5, 1), (3, 2), (3, 3)])
def test_transpose_positions(p, f):
    ctx = get_context(Params(p, f))
    gens = ctx.k_gens()
    perm = ctx.transpose_positions()
    assert sorted(perm) == list(range(len(gens)))
    for g, i in zip(gens, perm):
        assert (gens[i] == g.swapaxes(0, 1)).all()


def test_cosocle_of_a_twisted_weight(ctx51):
    ctx = ctx51
    sigma = Weight(ctx.params, (2,), 1)
    assert cosocle_weights(weight_module(ctx, sigma)) == Counter([sigma])


def test_cosocle_needs_a_k_module(ctx51):
    ctx = ctx51
    C = character_module(ctx, chi_of_weight(Weight(ctx.params, (2,), 1)))
    with pytest.raises(DomainError):
        cosocle_weights(C)


@settings(max_examples=60, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]), st.data())
def test_cosocle_of_a_principal_series(pf, data):
    # the cosocle of Ind(chi) is the dual of the socle of Ind(chi^-1), read
    # off the combinatorial layer
    p, f = pf
    ctx = get_context(Params(p, f))
    r = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    chi = chi_of_weight(Weight(ctx.params, r, data.draw(st.integers(0, ctx.gf.q - 2))))
    mod = induce(character_module(ctx, chi))
    assert cosocle_weights(mod) == Counter(weight_dual(w) for w in socle_of_induced(chi.inverse()))


def test_restricted_loewy(ctx52):
    ctx = ctx52
    chi = chi_of_weight(Weight(ctx.params, (2, 1), 0))
    C = character_module(ctx, chi)
    assert restricted_loewy(C, "U+") == 1
    assert restricted_loewy(C, "U-") == 1
    E = ej_module(ctx, chi, 0)
    assert restricted_loewy(E, "U+") == 2
    assert restricted_loewy(E, "U-") == 1


def test_direct_sum_hom_additive(ctx51):
    ctx = ctx51
    sigma = Weight(ctx.params, (2,), 0)
    W = weight_module(ctx, sigma)
    DS = direct_sum(W, W)
    assert len(hom_from_weight(DS, sigma, _eigen_rows(DS, sigma))) == 2
    assert socle_weights(DS) == Counter({sigma: 2})


def _direct_weight_words(ctx, sigma):
    """Reference: a spanning tree of translates of the weight's fixed vector
    and its structure constants, twist included, built from the weight itself
    with every K-generator; V^(-1) is read off rref([V | I])."""
    gf = ctx.gf
    W = weight_module(ctx, sigma)
    gmats = W.gen_mats("K")
    V = np.eye(1, W.dim, dtype=np.int64)
    sub = Subspace(gf, V)
    tree, frontier = [], [0]
    while frontier:
        cands = np.stack([gf.matmul(V[frontier], gm.T) for gm in gmats], axis=1).reshape(-1, W.dim)
        grew = sub.insert(cands)
        tree += [(frontier[i // len(gmats)], i % len(gmats)) for i in grew]
        frontier = list(range(len(V), len(V) + len(grew)))
        V = np.vstack([V, cands[grew]])
    R, pivots, _ = rref(gf, np.hstack([V, gf.eye(len(V))]))
    assert pivots == list(range(len(V)))
    V_inv = R[:, len(V):]
    return tuple(tree), [gf.matmul(gf.matmul(V, gm.T), V_inv) for gm in gmats]


def _hom_from_weight_per_translate(mod, sigma, rows):
    """Reference: the Hom solver by structure constants.  The translates of
    the candidates along the weight's spanning tree (``_direct_weight_words``)
    must satisfy h . trans_i = sum_j c_h[i][j] trans_j for every generator h
    and translate i: one stacked system, one nullspace.  Each map's rows are
    its images of the translates, the first being its image of the fixed
    vector."""
    gf = mod.gf
    m, n = rows.shape
    tree, struct = _direct_weight_words(mod.ctx, sigma)
    gmats = mod.gen_mats("K")
    dimw = len(tree) + 1
    trans = np.zeros((dimw, m, n), dtype=np.int64)
    trans[0] = rows
    for i, (parent, k) in enumerate(tree, 1):
        trans[i] = gf.matmul(trans[parent], gmats[k].T)
    by_slot = gf.prepare(trans.reshape(dimw, m * n))
    constraints = []
    for gm, c_h in zip(gmats, struct):
        lhs = gf.matmul(trans.reshape(-1, n), gm.T).reshape(dimw, m * n)
        block = gf.sub(lhs, gf.matmul(c_h, by_slot)).reshape(dimw, m, n)
        constraints.append(block.transpose(0, 2, 1).reshape(-1, m))
    ker = nullspace(gf, np.vstack(constraints))
    return list(gf.matmul(ker, trans.transpose(1, 0, 2).reshape(m, dimw * n)).reshape(-1, dimw, n))


def _assert_same_maps(gf, got, want, n):
    """The same number of maps, the same image of the fixed vector under
    each, and the same image of each map."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert (g[0] == w[0]).all()
        assert (_span_basis(gf, g, n) == _span_basis(gf, w, n)).all()


@pytest.mark.parametrize("p,f,r", [(5, 1, (2,)), (3, 2, (1, 0)), (5, 2, (2, 1))])
def test_blocked_hom_from_weight_matches_per_translate_loop(p, f, r):
    from gl2diamond.core import weights_of_char

    ctx = get_context(Params(p, f))
    mod = induce(character_module(ctx, chi_of_weight(Weight(ctx.params, r, 0))))
    found = 0
    # the direct sum gives two eigenvectors per character, so m = 2 as well
    for M in (mod, direct_sum(mod, mod)):
        for ch, rows in h_eigen_split(M, invariants(M)):
            for sigma in sorted(weights_of_char(ch), key=str):
                got = hom_from_weight(M, sigma, rows)
                _assert_same_maps(ctx.gf, got, _hom_from_weight_per_translate(M, sigma, rows), M.dim)
                assert all(len(img) == weight_dim(sigma) for img in got)
                found += len(got)
    assert found  # the socle weights embed


@pytest.mark.parametrize("p,f", [(5, 1), (3, 2)])
def test_hom_from_weight_narrows_mixed_candidates(p, f):
    # Sym^0 and the Steinberg weight share the trivial character, so in their
    # direct sum each candidate row mixes the two fixed vectors; each weight
    # keeps one combination, and the maps come in the reference's basis
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    one, st = Weight(ctx.params, (0,) * f, 0), Weight(ctx.params, (p - 1,) * f, 0)
    M = direct_sum(weight_module(ctx, st), weight_module(ctx, one))
    v_st, v_one = gf.eye(M.dim)[0], gf.eye(M.dim)[-1]
    rows = np.stack([gf.add(v_st, v_one), gf.add(v_st, gf.mul(2, v_one))])
    for sigma, fixed in ((one, v_one), (st, v_st)):
        got = hom_from_weight(M, sigma, rows)
        _assert_same_maps(gf, got, _hom_from_weight_per_translate(M, sigma, rows), M.dim)
        assert len(got) == 1 and (_span_basis(gf, got[0][:1], M.dim) == _span_basis(gf, fixed, M.dim)).all()


def _span_basis(gf, rows, n):
    return Subspace(gf, np.reshape(rows, (-1, n)), ambient=n).basis


@settings(max_examples=10, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)]), st.data())
def test_hom_from_weight_matches_the_words_reference(pf, data):
    # inductions of a character and of an extension E_j, their quotients by
    # their socles, and a direct sum (two candidates per character) of the
    # first (for a character) or the second (for E_j) up to dimension 700,
    # where the reference takes about a second per weight
    from gl2diamond.core import weights_of_char
    from gl2diamond.oracle.modules import socle_data

    p, f = pf
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    r = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    chi = chi_of_weight(Weight(ctx.params, r, data.draw(st.integers(0, gf.q - 2))))
    base = data.draw(st.sampled_from(["char", "ej"]))
    mod = induce(character_module(ctx, chi) if base == "char" else ej_module(ctx, chi, data.draw(st.integers(0, f - 1))))
    top = quotient_module(mod, socle_data(mod)[1])
    summand = mod if base == "char" else top
    mods = [mod, top] + ([direct_sum(summand, summand)] if 0 < summand.dim <= 350 else [])
    for M in filter(lambda M: M.dim, mods):
        for ch, rows in h_eigen_split(M, invariants(M)):
            for w in weights_of_char(ch):
                if weight_dim(w) <= M.dim:
                    want = _hom_from_weight_per_translate(M, w, rows)
                    _assert_same_maps(gf, hom_from_weight(M, w, rows), want, M.dim)


@settings(max_examples=15, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2)]), st.data())
def test_narrowed_kernels_match_the_stacked_systems(pf, data):
    # invariants narrow their kernel one generator at a time, and
    # hom_from_weight walks the coset tree; the stacked systems of all
    # generators must give the same spaces
    from gl2diamond.core import weights_of_char
    from gl2diamond.oracle.modules import socle_data

    p, f = pf
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    r = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    sigma = Weight(ctx.params, r, data.draw(st.integers(0, gf.q - 2)))
    mods = []
    for mod in (induce(character_module(ctx, chi_of_weight(sigma))), weight_module(ctx, sigma)):
        top = quotient_module(mod, socle_data(mod)[1])
        mods += [mod] + ([top] if top.dim else [])
    for mod in mods:
        inv = invariants(mod)
        stacked = nullspace(gf, np.vstack([gf.sub(M, gf.eye(mod.dim)) for M in mod.gen_mats("I1")]))
        assert (_span_basis(gf, inv, mod.dim) == _span_basis(gf, stacked, mod.dim)).all(), mod
        for ch, rows in h_eigen_split(mod, inv):
            for w in weights_of_char(ch):
                if weight_dim(w) > mod.dim:
                    continue
                got, want = hom_from_weight(mod, w, rows), _hom_from_weight_per_translate(mod, w, rows)
                assert (got == []) == (want == []), (mod, w)
                if want:
                    assert (_span_basis(gf, got, mod.dim) == _span_basis(gf, want, mod.dim)).all(), (mod, w)


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)]))
def test_coset_tree_reaches_each_coset_once(pf):
    p, f = pf
    ctx = get_context(Params(p, f))
    gf, gr = ctx.gf, ctx.gr
    tree = ctx.coset_tree()
    q = gf.q
    assert sorted(tree.cosets.tolist()) == list(range(q + 1)) and tree.cosets[0] == q
    assert (tree.words[0] == gr.mat_eye()).all()
    # a level's nodes follow those before it and its parents lie on the level
    # before; each node is made once, with word_i = g_k word_parent
    gens = ctx.k_gens()
    previous, end = [0], 1
    for level in tree.levels:
        made = sorted(np.concatenate([kids for _, kids, _ in level]).tolist())
        assert made == list(range(end, end + len(made)))
        for k, kids, parents in level:
            assert set(parents.tolist()) <= set(previous)
            assert (tree.words[kids] == gr.mat_mul(gens[k], tree.words[parents])).all()
        previous, end = made, end + len(made)
    assert end == q + 1
    assert (ctx.coset_decompose(tree.words)[0] == tree.cosets).all()
    assert (gf.exp_t[tree.det_logs] == gr.reduce_p(gr.mat_det(tree.words))).all()


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (7, 2), (3, 3), (5, 3), (7, 3)]), st.data())
def test_weight_walk_is_the_first_column_of_the_weight(pf, data):
    # sigma(word_i) v0 in closed form, against the weight module's evaluator
    from gl2diamond.oracle.modules import _weight_walk

    p, f = pf
    ctx = get_context(Params(p, f))
    words = ctx.coset_tree().words
    drawn = tuple(data.draw(st.lists(st.integers(0, p - 1), min_size=f, max_size=f)))
    for r in ((0,) * f, (p - 1,) * f, drawn):
        for t in {0, 1, data.draw(st.integers(0, ctx.gf.q - 2))}:
            W = weight_module(ctx, Weight(ctx.params, r, t))
            want = np.vstack([W.evaluate(words[s:s + 16])[:, :, 0] for s in range(0, len(words), 16)])
            assert (_weight_walk(ctx, r, t) == want).all(), (r, t)


def test_relations_are_kept_per_digit_vector_within_their_byte_bound(monkeypatch):
    from collections import OrderedDict

    from gl2diamond.oracle import modules

    ctx = get_context(Params(5, 2))
    sigmas = [Weight(ctx.params, r, t) for r in [(2, 1), (1, 3), (4, 0), (0, 0)] for t in (0, 1)]
    mods = [induce(character_module(ctx, chi_of_weight(s))) for s in sigmas]
    rows = [_eigen_rows(mod, s) for mod, s in zip(mods, sigmas)]
    monkeypatch.setattr(modules, "_RELATIONS", OrderedDict())
    want = [hom_from_weight(mod, s, v) for mod, s, v in zip(mods, sigmas, rows)]
    # one entry per digit vector, whatever the twist
    assert list(modules._RELATIONS) == [(ctx.params, r) for r in [(2, 1), (1, 3), (4, 0), (0, 0)]]
    sizes = [rel[0].nbytes for rel in modules._RELATIONS.values()]
    monkeypatch.setattr(modules, "RELATIONS_BYTES", max(sizes))
    modules._RELATIONS.clear()
    for mod, s, v, w in zip(mods, sigmas, rows, want):
        got = hom_from_weight(mod, s, v)
        assert len(got) == len(w) and all((g == x).all() for g, x in zip(got, w))
        held = [rel[0].nbytes for rel in modules._RELATIONS.values()]
        assert sum(held) <= max(sizes) or len(held) == 1


@pytest.mark.parametrize("p,f", [(3, 1), (5, 2), (3, 3)])
def test_words_of_a_weight_no_generator_moves(p, f):
    # Sym^0 x ... x Sym^0 twisted by det^t: every word's image of v0 is
    # det(word)^t, and the Hom from it counts the candidate rows
    from gl2diamond.oracle.modules import _weight_walk

    ctx = get_context(Params(p, f))
    tree = ctx.coset_tree()
    for t in range(ctx.gf.q - 1):
        sigma = Weight(ctx.params, (0,) * f, t)
        assert (_weight_walk(ctx, sigma.r, t)[:, 0] == ctx.gf.exp_t[(t * tree.det_logs) % (ctx.gf.q - 1)]).all()
        W = weight_module(ctx, sigma)
        for mod, count in ((W, 1), (direct_sum(W, W), 2)):
            maps = hom_from_weight(mod, sigma, _eigen_rows(mod, sigma))
            assert len(maps) == count and all(m.shape == (1, mod.dim) for m in maps)


def _oracle_answers(ctx, chi):
    """socle_series, hom_from_weight images, spins and invariants of the
    inductions of chi, E_0(chi) and its normalizer twist."""
    from gl2diamond.core import weights_of_char

    gf = ctx.gf
    mods = [induce(character_module(ctx, chi)), induce(ej_module(ctx, chi, 0)),
            induce(pi_twist(ej_module(ctx, chi, 0)))]
    out = []
    for mod in mods:
        inv = invariants(mod)
        homs = [hom_from_weight(mod, w, rows)
                for ch, rows in h_eigen_split(mod, inv)
                for w in sorted(weights_of_char(ch), key=str) if weight_dim(w) <= mod.dim]
        spins = [spin(gf, mod.moving_mats(kind), seed).basis
                 for kind, seed in (("K", inv[:1]), ("I", np.eye(1, mod.dim, dtype=np.int64)))]
        out.append((mod.identity_positions(), socle_series(mod), inv, homs, spins))
    return out


def test_skipping_identity_generators_matches_multiplying_by_all(ctx52, monkeypatch):
    from gl2diamond.oracle import modules

    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    got = _oracle_answers(ctx52, chi)
    # positions 2-5 and 8-11 lie in K1, which Ind chi and Ind E_0 do not see;
    # every generator moves the induction of the twisted extension
    assert [ident for ident, *_ in got] == [frozenset({2, 3, 4, 5, 8, 9, 10, 11})] * 2 + [frozenset()]
    # reference: no image is taken for the identity, so every generator is multiplied
    monkeypatch.setattr(modules, "_is_identity", lambda M: False)
    want = _oracle_answers(ctx52, chi)
    for (_, *a), (ident, *b) in zip(got, want, strict=True):
        assert ident == frozenset()
        layers, inv, homs, spins = a
        assert layers == b[0]
        assert (inv == b[1]).all()
        assert len(homs) == len(b[2]) and all(
            len(g) == len(w) and all((x == y).all() for x, y in zip(g, w)) for g, w in zip(homs, b[2]))
        assert all((x == y).all() for x, y in zip(spins, b[3], strict=True))


@pytest.mark.parametrize("p,f,kind", [(5, 2, "char"), (7, 2, "pi-ej"), (3, 4, "ej"), (13, 2, "ej")])
def test_induced_build_peaks_within_the_checked_figure(p, f, kind):
    import tracemalloc

    from gl2diamond.oracle.modules import _induced_bytes

    ctx = get_context(Params(p, f))
    ctx.gf, ctx.coset_reps(), ctx.k_gens()  # built outside the traced span
    chi = chi_of_weight(Weight(ctx.params, (1,) * f, 0))
    base = character_module(ctx, chi) if kind == "char" else ej_module(ctx, chi, 0)
    mod = induce(pi_twist(base) if kind == "pi-ej" else base)
    tracemalloc.start()
    try:
        mod.gen_mats("K")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= _induced_bytes(p ** f, f, base.dim)


def test_induction_past_the_table_limit_is_refused(ctx51, monkeypatch):
    from gl2diamond.oracle import modules

    chi = chi_of_weight(Weight(ctx51.params, (2,), 0))
    need = modules._induced_bytes(5, 1, 1)
    monkeypatch.setattr(modules, "TABLE_BYTES_LIMIT", need - 1)
    with pytest.raises(DomainError, match="dimension 6 over q = 5"):
        induce(character_module(ctx51, chi))
    monkeypatch.setattr(modules, "TABLE_BYTES_LIMIT", need)
    assert induce(character_module(ctx51, chi)).dim == 6
    # q = 3^8 passes the table check but not this one (arithmetic only)
    monkeypatch.undo()
    assert modules._induced_bytes(3 ** 8, 8, 1) > modules.TABLE_BYTES_LIMIT


def test_socle_is_searched_once_per_module(ctx52, monkeypatch):
    from gl2diamond.oracle import modules

    calls = []
    hom = modules.hom_from_weight
    monkeypatch.setattr(modules, "hom_from_weight", lambda *args: calls.append(1) or hom(*args))
    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    mod = induce(character_module(ctx52, chi))
    want = Counter(socle_of_induced(chi))
    layers = socle_series(mod)
    searched = len(calls)
    assert searched and layers[0] == want
    # the series is kept: neither the JH multiset nor the socle searches again
    assert jh_multiset(mod) == Counter(jh_of_induced(chi).weights())
    assert len(calls) == searched
    soc = socle_weights(mod)
    assert soc == want and len(calls) == searched
    # the caller's Counters are its own
    soc[next(iter(want))] += 3
    kept = [Counter(layer) for layer in layers]
    layers[0][next(iter(want))] += 3
    layers.append(Counter())
    assert socle_weights(mod) == want and socle_series(mod) == kept and len(calls) == searched


def test_jh_multiset_of_an_iwahori_module_is_refused(ctx52):
    chi = chi_of_weight(Weight(ctx52.params, (2, 1), 0))
    for mod in (character_module(ctx52, chi), ej_module(ctx52, chi, 1)):
        with pytest.raises(DomainError, match="K-module"):
            jh_multiset(mod)


def test_chain_of_length_two_is_the_extension(ctx51):
    # equal two-step ladders and a one-dimensional Ext^1 between the two
    # characters: both are the unique nonsplit extension, so chain(s=1) ~ E_0
    from gl2diamond.core import ext1_dim_I
    from gl2diamond.oracle.vectors import ej_chain_module

    ctx = ctx51
    chi = chi_of_weight(Weight(ctx.params, (2,), 0))
    E = ej_module(ctx, chi, 0)
    ladder = _char_ladder(E)
    assert _char_ladder(ej_chain_module(ctx, chi, 0, 1)) == ladder
    [[bottom], [top]] = ladder
    assert ext1_dim_I(top, bottom) == (1, -1, 0)


def test_pi_twist_involution_and_character(ctx52):
    rng = np.random.default_rng(5)
    ctx = ctx52
    chi = chi_of_weight(Weight(ctx.params, (2, 1), 3))
    E = ej_module(ctx, chi, 0)
    EE = pi_twist(pi_twist(E))
    for _ in range(10):
        g = ctx.random_element("I", rng)
        assert (EE.evaluate(g) == E.evaluate(g)).all()
    # the twist of a character is its conjugate
    C = pi_twist(character_module(ctx, chi))
    assert [chi for chi, _ in h_eigen_split(C, np.array([1]))] == [conjugate_char(chi)]


def test_twisted_induction_socle(ctx52):
    # socle of the twisted induction is the conjugate normal form weight
    ctx = ctx52
    sigma = Weight(ctx.params, (2, 1), 0)
    chi = chi_of_weight(sigma)
    mod = induce(pi_twist(character_module(ctx, chi)))
    assert socle_weights(mod) == Counter([sigma])
    assert cosocle_weights(mod) == Counter([sigma_s(sigma)])


def test_derived_matrices_intertwine(ctx51):
    # the inclusion of a submodule, the projection onto a quotient and the
    # block inclusions of a direct sum are equivariant; an Iwahori-stable
    # subspace restricted to I is included equivariantly
    ctx = ctx51
    gf = ctx.gf
    mod = induce(character_module(ctx, chi_of_weight(Weight(ctx.params, (2,), 0))))
    sub = Subspace(gf, socle_components(mod)[0][1])
    assert 0 < sub.dim < mod.dim
    S, Q = sub_module(mod, sub), quotient_module(mod, sub)
    D = direct_sum(S, Q)
    assert not hasattr(S, "evaluate")
    B = sub.basis
    P = np.stack([sub.reduce(v)[sub.complement_coords()] for v in gf.eye(mod.dim)]).T
    k = S.dim
    for kind in ctx.kind_positions():
        mats = zip(mod.gen_mats(kind), S.gen_mats(kind), Q.gen_mats(kind), D.gen_mats(kind))
        for M, MS, MQ, MD in mats:
            assert (gf.matmul(B, M.T) == gf.matmul(MS.T, B)).all()
            assert (gf.matmul(P, M) == gf.matmul(MQ, P)).all()
            assert (MD[:k, :k] == MS).all() and (MD[k:, k:] == MQ).all()
            assert not MD[:k, k:].any() and not MD[k:, :k].any()
    seed = np.zeros(mod.dim, dtype=np.int64)
    seed[0] = 1
    span = spin(gf, mod.gen_mats("I"), seed)
    assert 0 < span.dim < mod.dim
    R = sub_module(mod, span, group="I")
    C = span.basis
    for kind in set(ctx.kind_positions()) - {"K"}:
        for M, MR in zip(mod.gen_mats(kind), R.gen_mats(kind), strict=True):
            assert (gf.matmul(C, M.T) == gf.matmul(MR.T, C)).all()
    with pytest.raises(DomainError):
        R.gen_mats("K")


# -- stacked evaluators ------------------------------------------------------


def _sym_power_matrix_reference(gf, a, b, c, d, r):
    """The scalar Sym^r loop the stacked evaluator replaced: matrix of
    (a,b;c,d) on the basis x^(r-k) y^k, one entry at a time."""
    from math import comb

    def pw(x, e):
        return int(gf.pow_vec(x, e))

    M = np.zeros((r + 1, r + 1), dtype=np.int64)
    for k in range(r + 1):
        u = [gf.mul_t[comb(r - k, t) % gf.p, gf.mul_t[pw(a, r - k - t), pw(c, t)]] for t in range(r - k + 1)]
        v = [gf.mul_t[comb(k, t) % gf.p, gf.mul_t[pw(b, k - t), pw(d, t)]] for t in range(k + 1)]
        for t1, ut in enumerate(u):
            for t2, vt in enumerate(v):
                M[t1 + t2, k] = gf.add(M[t1 + t2, k], gf.mul_t[ut, vt])
    return M


def _weight_matrix_reference(ctx, sigma, g):
    gf, gr = ctx.gf, ctx.gr
    a, b, c, d = (gr.reduce_p(g[i, j]) for i, j in ((0, 0), (0, 1), (1, 0), (1, 1)))
    det = gf.sub(gf.mul_t[a, d], gf.mul_t[b, c])
    M = np.ones((1, 1), dtype=np.int64)
    for ri in sigma.r:
        S = _sym_power_matrix_reference(gf, a, b, c, d, ri)
        M = gf.mul_t[M[:, None, :, None], S[None, :, None, :]].reshape(M.shape[0] * S.shape[0], -1)
        a, b, c, d = (int(gf.frob_t[x]) for x in (a, b, c, d))
    return gf.mul_t[int(gf.pow_vec(det, sigma.twist)), M]


STACK_CASES = [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)]


@settings(max_examples=25, deadline=None)
@given(st.sampled_from(STACK_CASES), st.integers(0, 2 ** 32 - 1))
def test_stacked_evaluators_match_single_calls(pf, seed):
    p, f = pf
    ctx = get_context(Params(p, f))
    rng = np.random.default_rng(seed)
    sigma = Weight(ctx.params, tuple(int(x) for x in rng.integers(0, p, f)), int(rng.integers(0, ctx.gf.q - 1)))
    chi = chi_of_weight(sigma)
    j = int(rng.integers(0, f))
    W, C, E = weight_module(ctx, sigma), character_module(ctx, chi), ej_module(ctx, chi, j)
    P = pi_twist(E)
    mods = [W, C, E, P, induce(C), induce(E), induce(P)]
    for mod in mods:
        stack = np.stack([ctx.random_element(mod.group, rng) for _ in range(6)]).reshape(2, 3, 2, 2, f)
        images = mod.evaluate(stack)
        assert images.shape == (2, 3, mod.dim, mod.dim), mod
        for i, k in np.ndindex(2, 3):
            assert (images[i, k] == mod.evaluate(stack[i, k])).all(), mod
    # the weight evaluator agrees with the scalar Sym^r loop
    for g in stack.reshape(-1, 2, 2, f):
        assert (W.evaluate(g) == _weight_matrix_reference(ctx, sigma, g)).all()


def test_check_module_catches_a_stack_that_disagrees(ctx51):
    # an evaluator that goes wrong only on a stack of the 2 * 4 random
    # elements (the I generators are 7) is refused
    ctx = ctx51
    C = character_module(ctx, chi_of_weight(Weight(ctx.params, (2,), 1)))
    single = C.evaluate

    def evaluate(g):
        out = single(g)
        return ctx.gf.mul_t[2, out] if np.shape(g)[:-3] == (8,) else out

    bad = character_module(ctx, chi_of_weight(Weight(ctx.params, (2,), 1)))
    bad.evaluate = evaluate
    check_module(C, np.random.default_rng(2), samples=4)
    with pytest.raises(AssertionError, match="stacked"):
        check_module(bad, np.random.default_rng(2), samples=4)


# -- torus eigenspaces ---------------------------------------------------------


def _h_eigen_split_by_nullspaces(mod, rows):
    """The per-eigenvalue scan the projector split replaced: one nullspace of
    A1 - g^e1 for every e1, then of A2 - g^e2 inside each eigenspace found."""
    from gl2diamond.core import ICharacter
    from gl2diamond.oracle.gf import nullspace

    gf = mod.gf
    rows = np.atleast_2d(np.asarray(rows, dtype=np.int64))
    if rows.shape[0] == 0:
        return []
    sub = Subspace(gf, rows)
    B = sub.basis
    mats = [sub.express(gf.matmul(B, M.T)) for M in mod.gen_mats("H")]
    out = []
    for e1 in range(gf.q - 1):
        ker1 = nullspace(gf, gf.sub(mats[0], gf.mul(int(gf.exp_t[e1]), gf.eye(sub.dim))).T)
        if ker1.shape[0] == 0:
            continue
        inner = Subspace(gf, ker1)
        C = inner.basis
        m2 = inner.express(gf.matmul(C, mats[1]))
        for e2 in range(gf.q - 1):
            ker2 = nullspace(gf, gf.sub(m2, gf.mul(int(gf.exp_t[e2]), gf.eye(inner.dim))).T)
            if ker2.shape[0]:
                out.append((ICharacter(mod.ctx.params, e1, e2), gf.matmul(gf.matmul(ker2, C), B)))
    if sum(v.shape[0] for _, v in out) != sub.dim:
        raise AssertionError("subspace is not H-semisimple with eigenvalues in F_q")
    return out


def _split_inputs(ctx, chi, j, s):
    """(module, rows): the I1-invariants of two inductions and of their
    quotients by the socle, and the whole space of the Iwahori modules."""
    from gl2diamond.core import char_times_alpha_power
    from gl2diamond.oracle.modules import socle_data
    from gl2diamond.oracle.vectors import e_two_char_module, ej_chain_module

    out = []
    for mod in (induce(character_module(ctx, chi)), induce(ej_module(ctx, chi, j))):
        out.append((mod, invariants(mod)))
        top = quotient_module(mod, socle_data(mod)[1])
        if top.dim:
            out.append((top, invariants(top)))
    whole = [ej_module(ctx, chi, j), ej_chain_module(ctx, chi, j, s)]
    if ctx.params.f == 2:
        # chi2 * alpha_j^(-1) = chi * alpha_(j-1)^(-(s+1)), the gluing condition
        chi2 = char_times_alpha_power(char_times_alpha_power(chi, (j - 1) % 2, -(s + 1)), j, 1)
        whole.append(e_two_char_module(ctx, chi, chi2, j, s + 1))
    return out + [(mod, ctx.gf.eye(mod.dim)) for mod in whole]


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (3, 2), (5, 2), (7, 2), (3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_h_eigen_split_matches_nullspace_scan(pf, seed):
    p, f = pf
    ctx = get_context(Params(p, f))
    rng = np.random.default_rng(seed)
    chi = chi_of_weight(Weight(ctx.params, tuple(int(x) for x in rng.integers(0, p, f)), int(rng.integers(0, ctx.gf.q - 1))))
    j, s = int(rng.integers(0, f)), int(rng.integers(0, p - 1))
    for mod, rows in _split_inputs(ctx, chi, j, s):
        got, want = h_eigen_split(mod, rows), _h_eigen_split_by_nullspaces(mod, rows)
        assert [ch for ch, _ in got] == [ch for ch, _ in want], mod
        for (_, g), (_, w) in zip(got, want):
            assert (Subspace(ctx.gf, g).basis == Subspace(ctx.gf, w).basis).all(), mod


def test_h_eigen_split_of_a_non_eigenvector_raises(ctx52):
    E = ej_module(ctx52, chi_of_weight(Weight(ctx52.params, (2, 1), 0)), 0)
    assert len(h_eigen_split(E, np.array([1, 0]))) == 1
    with pytest.raises(ValueError):
        h_eigen_split(E, np.array([1, 1]))


def test_h_eigen_split_of_a_unipotent_torus_raises(ctx52):
    from gl2diamond.oracle.modules import ExplicitModule

    unipotent = np.array([[1, 1], [0, 1]], dtype=np.int64)
    mod = ExplicitModule(ctx52, 2, "I", "K1", "unipotent", derive=lambda: [unipotent] * len(ctx52.gens("I")))
    with pytest.raises(AssertionError, match="H-semisimple"):
        h_eigen_split(mod, np.eye(2, dtype=np.int64))


def _h_eigen_split_two_chains(mod, rows):
    """The split before the two torus generators shared one projector chain:
    ``_projector_sums`` of each generator's matrix alone."""
    from gl2diamond.core import ICharacter
    from gl2diamond.oracle.modules import _projector_sums

    gf = mod.gf
    n = gf.q - 1
    sub = Subspace(gf, np.atleast_2d(np.asarray(rows, dtype=np.int64)))
    if sub.dim == 0:
        return []
    B, k = sub.basis, sub.dim
    A = np.hstack([sub.express(gf.matmul(B, M.T)) for M in mod.gen_mats("H")])
    S1, S2 = _projector_sums(gf, A[:, :k]), _projector_sums(gf, A[:, k:])
    out = []
    S2_all = gf.prepare(np.hstack(S2))
    for e1 in np.flatnonzero(S1.reshape(n, -1).any(axis=1)):
        joint = gf.matmul(S1[e1], S2_all).reshape(k, n, k).transpose(1, 0, 2)
        for e2 in np.flatnonzero(joint.reshape(n, -1).any(axis=1)):
            V = Subspace(gf, joint[e2]).basis
            if not (gf.matmul(V, A) == np.hstack([gf.mul(gf.exp_t[e], V) for e in (e1, e2)])).all():
                raise AssertionError("subspace is not H-semisimple with eigenvalues in F_q")
            out.append((ICharacter(mod.ctx.params, int(e1), int(e2)), gf.matmul(V, B)))
    if sum(v.shape[0] for _, v in out) != k:
        raise AssertionError("subspace is not H-semisimple with eigenvalues in F_q")
    return out


@settings(max_examples=20, deadline=None)
@given(st.sampled_from([(3, 1), (5, 1), (7, 1), (3, 2), (5, 2), (3, 3)]), st.integers(0, 2 ** 32 - 1))
def test_h_eigen_split_matches_two_projector_chains(pf, seed):
    # random H-stable subspaces of inductions: the H-spans of random rows
    p, f = pf
    ctx = get_context(Params(p, f))
    gf = ctx.gf
    rng = np.random.default_rng(seed)
    r = tuple(int(x) for x in rng.integers(0, p, f))
    chi = chi_of_weight(Weight(ctx.params, r, int(rng.integers(0, gf.q - 1))))
    for mod in (induce(character_module(ctx, chi)), induce(ej_module(ctx, chi, int(rng.integers(0, f))))):
        seeds = rng.integers(0, gf.q, (int(rng.integers(1, 4)), mod.dim))
        rows = spin(gf, mod.gen_mats("H"), seeds).basis
        got, want = h_eigen_split(mod, rows), _h_eigen_split_two_chains(mod, rows)
        assert [ch for ch, _ in got] == [ch for ch, _ in want]
        assert all((g == w).all() for (_, g), (_, w) in zip(got, want))


@pytest.mark.parametrize("split", [h_eigen_split, _h_eigen_split_two_chains])
def test_h_eigen_split_refusals_match_two_projector_chains(ctx52, split):
    from gl2diamond.oracle.modules import ExplicitModule

    unipotent = np.array([[1, 1], [0, 1]], dtype=np.int64)
    mod = ExplicitModule(ctx52, 2, "I", "K1", "unipotent", derive=lambda: [unipotent] * len(ctx52.gens("I")))
    with pytest.raises(AssertionError, match="H-semisimple"):
        split(mod, np.eye(2, dtype=np.int64))
    E = ej_module(ctx52, chi_of_weight(Weight(ctx52.params, (2, 1), 0)), 0)
    with pytest.raises(ValueError):
        split(E, np.array([1, 1]))
