"""Weight combinatorics for GL2 of an unramified p-adic field, with an exact oracle.

The combinatorial layer (characters, weights, tuple families, weight sets of
generic parameters, filtration displays) is pure integer arithmetic; the
oracle subpackage builds every module involved explicitly over F_q and the
degree-f Galois ring of characteristic p^2 and re-derives the same answers
by exact linear algebra.
"""

from .core import (
    DomainError,
    ICharacter,
    Params,
    Weight,
    alpha,
    char_normal_form,
    char_times_alpha_power,
    chi_of_weight,
    conjugate_char,
    ext1_dim_I,
    sigma_s,
    trivial_char,
    weight_dim,
    weight_dual,
    weight_of_char,
    weights_of_char,
)
from .couples import CoupleType, couple_type, minus_one_partner, plus_one_partner
from .diamond import (
    D0Factor,
    DiamondWeight,
    GaloisParams,
    d0_all,
    d0_factors,
    d0_is_multiplicity_free,
    delta_data,
    delta_of_tau,
    diamond_by_subset,
    diamond_set,
    ell_decomposition,
    find_special_sigma,
    is_generic,
    lifting_factors,
    plus_one_couples,
    S_plus_minus,
    tau_j_factor,
    verify_combination,
    xi_and_J,
)
from .filtration import (
    NONVANISHING_ALLOWED,
    UNKNOWN,
    VANISHES,
    FiltrationLayers,
    J_prime,
    epsilon_generator,
    example1_filtration,
    ext_vanishing,
    f2_tables,
    v1_s1_filtrations,
    w_contains_U,
    w_contents_two_char,
)
from .principal import InducedJH, PSFactor, U_contents, factor_of_weight, jh_of_induced, socle_of_induced

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
