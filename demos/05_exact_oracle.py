"""The exact linear-algebra oracle: every statement recomputed from matrices.

The oracle builds all the modules explicitly over F_q and the degree-f
Galois ring of characteristic p^2: symmetric-power weights, Iwahori
extensions, inductions over the q+1 fixed coset representatives.  Socles
and constituents come from exact spins and intertwiner solves, so the
combinatorial layer can be checked wholesale.
"""

import numpy as np
from collections import Counter

from gl2diamond import (
    GaloisParams,
    Params,
    Weight,
    chi_of_weight,
    conjugate_char,
    diamond_set,
    f2_tables,
    jh_of_induced,
    sigma_s,
)
from gl2diamond.oracle.gf import spin
from gl2diamond.oracle.groups import get_context
from gl2diamond.oracle.modules import (
    character_module,
    induce,
    jh_multiset,
    socle_series,
    socle_weights,
    sub_module,
    weight_module,
)
from gl2diamond.oracle.vectors import (
    TwistedExtensionInduction,
    quotient_by_non_diamond_socle,
    verify_uplus,
    verify_w_omega,
    verify_witt,
)

par = Params(5, 2)
ctx = get_context(par)
print(f"arithmetic: F_{par.q} with defining polynomial {ctx.gf.poly}, "
      f"ring of characteristic {par.p ** 2} on top\n")

# a weight as an honest matrix representation
sigma = Weight(par, (2, 1), 0)
W = weight_module(ctx, sigma)
print(f"weight module {sigma}: dim {W.dim}")

# induce a character and recompute its constituents from scratch
chi = chi_of_weight(sigma)
ind = induce(character_module(ctx, conjugate_char(chi)))
got = jh_multiset(ind)
want = Counter(jh_of_induced(chi).weights())
print(f"induced module dim {ind.dim}; constituents match the tuple formula: {got == want}")
print(f"socle from intertwiners: {[str(w) for w in socle_weights(ind)]}")

# the distinguished vectors in the induction of a twisted extension
bundle = TwistedExtensionInduction(ctx, chi, j=0)
print(f"\ntwisted-extension induction: dim {bundle.W.dim}")
rep = verify_witt(bundle)
print(f"one-parameter matrix identities, all k: {rep.passed} ({len(rep.checks)} checks)")
rep = verify_uplus(bundle, k=7)
print(f"unipotent span of f_7 has the digit-product basis: {rep.passed}")
rep = verify_w_omega(bundle)
print(f"every W_omega matches the subset criteria: {rep.passed}")

# the three-step chain inside the image of one W_omega
rho = GaloisParams(par, False, (2, 1), 0)
tab = f2_tables(rho)
s3w, s4w = tab.sigmas[2], tab.sigmas[3]
omega = Weight(par, (par.p - 2 - rho.r[0], rho.r[1] + 3), rho.r[0] + par.p * (par.p - 2))
bundle3 = TwistedExtensionInduction(ctx, chi_of_weight(s3w), 1)
fac = next(fac for fac in bundle3.jh_upper.factors if fac.weight == omega)
span = spin(ctx.gf, bundle3.W.gen_mats("K"), bundle3.w_generator(fac))
smod = sub_module(bundle3.W, span)
allowed = {dw.weight for dw in diamond_set(rho)} - {s3w}
img = quotient_by_non_diamond_socle(smod, allowed)
layers = socle_series(img)
print(f"\nimage of W_omega after removing stray socle parts ({span.dim} -> {img.dim} dims):")
print("  " + " -- ".join(str(list(c)[0]) for c in layers))
print(f"expected chain: {s4w} -- {sigma_s(s3w)} -- {omega}")
