"""Named verification suites over parameter sweeps, with uniform reports.

Each suite re-derives one family of statements and yields one CheckReport
per instance it checks, as soon as that instance is checked.  run_suite
turns their rows into the check dictionaries {anchor, instance, expected,
got, status}, the anchor being the report's anchor and the row's name
joined by a dot; a sweep passes when every check passes.  Instances are
enumerated deterministically from the run configuration and checks are
reported in sorted instance order, so identical configurations produce
identical reports.
"""

from __future__ import annotations

import itertools
from typing import Callable, Iterator, NamedTuple

from .core import (
    CheckReport,
    DomainError,
    Params,
    Weight,
    char_times_alpha_power,
    char_normal_form,
    chi_of_weight,
    conjugate_char,
)
from .diamond import (
    GaloisParams,
    d0_is_multiplicity_free,
    diamond_set,
    find_special_sigma,
    is_generic,
    tau_j_factor,
    verify_combination,
    xi_and_J,
)
from .filtration import f2_sigmas, f2_tables, v1_s1_filtrations
from .principal import jh_of_induced

# "all-generic" sweeps the parameters of both cases, so it names no single parameter
CASES = ("reducible", "irreducible", "all-generic")

# characters the default jh sweep samples
JH_CHARACTERS = 24


class RunConfig(NamedTuple):
    p: int = 5
    f: int = 2
    case: str = "irreducible"  # one of CASES
    r: tuple | None = None
    twist: int = 0
    suite: str = "jh"
    seed: int = 0

    @property
    def params(self) -> Params:
        return Params(self.p, self.f)

    @property
    def reducible(self) -> bool:
        return self.case.startswith("red")

    def set_fields(self) -> list:
        """The optional fields (case, r, twist, seed) that differ from their defaults."""
        return [name for name in ("case", "r", "twist", "seed") if getattr(self, name) != RunConfig._field_defaults[name]]


def generic_parameters(params: Params, case: str = "all-generic", twist: int = 0) -> list:
    """All generic parameter records with the given twist, subset-ordered."""
    out = []
    cases = []
    if case in ("all-generic", "reducible"):
        cases.append(True)
    if case in ("all-generic", "irreducible"):
        cases.append(False)
    p, f = params.p, params.f
    for red in cases:
        for r in itertools.product(range(p), repeat=f):
            try:
                rho = GaloisParams(params, red, r, twist)
            except DomainError:
                continue
            if is_generic(rho):
                out.append(rho)
    return out


def sweep_characters(params: Params, limit: int | None = None) -> list:
    """Deterministic character sweep: every digit vector, twists 0 and 1."""
    out = []
    p, f = params.p, params.f
    for twist in (0, 1):
        for r in itertools.product(range(p), repeat=f):
            if r == (p - 1,) * f:
                continue
            out.append(chi_of_weight(Weight(params, r, twist)))
    if limit is not None and len(out) > limit:
        step = len(out) / limit
        out = [out[int(i * step)] for i in range(limit)]
    return out


# -- suite bodies ------------------------------------------------------------


def _interior_r(params: Params) -> tuple:
    """The default digit vector of the uplus, calculH, indej, womega and s1s2 suites."""
    return tuple(min(i + 2, params.p - 2) for i in range(params.f))


def _weights(config: RunConfig, defaults: list) -> list:
    """The weight that --r and --twist name, else the suite's default weights."""
    if config.r is not None:
        return [Weight(config.params, config.r, config.twist)]
    return defaults


def suite_jh(config: RunConfig) -> Iterator[CheckReport]:
    from collections import Counter

    from .oracle.groups import get_context
    from .oracle.modules import character_module, induce, jh_multiset, socle_weights

    from .principal import socle_of_induced

    params = config.params
    ctx = get_context(params)
    if config.r is not None:
        chars = [chi_of_weight(Weight(params, config.r, config.twist))]
    else:
        chars = sweep_characters(params, limit=JH_CHARACTERS)
    for chi in chars:
        rep = CheckReport("jh", f"p={params.p},f={params.f},chi=({chi.a},{chi.b})")
        mod = induce(character_module(ctx, conjugate_char(chi)))
        got = jh_multiset(mod)
        want = Counter(jh_of_induced(conjugate_char(chi)).weights())
        rep.add("multiset", got == want, dict(want), dict(got))
        soc = socle_weights(mod)
        want_soc = Counter(socle_of_induced(conjugate_char(chi)))
        rep.add("socle", soc == want_soc, dict(want_soc), dict(soc))
        yield rep


def suite_dimension(config: RunConfig) -> Iterator[CheckReport]:
    """Dimension identity for inductions with interior normal-form digits."""
    params = config.params
    for r in itertools.product(range(1, params.p - 1), repeat=params.f):
        jh = jh_of_induced(chi_of_weight(Weight(params, r, 0)))
        rep = CheckReport("jh", f"r={r}")
        rep.add("dimension", jh.total_dim == params.q + 1 and not jh.dropped, params.q + 1, jh.total_dim)
        yield rep


def suite_witt(config: RunConfig) -> Iterator[CheckReport]:
    from .oracle.groups import get_context
    from .oracle.vectors import TwistedExtensionInduction, verify_witt

    params = config.params
    ctx = get_context(params)
    mid = tuple(min(i + 1, params.p - 2) for i in range(params.f))
    weights = _weights(config, [
        Weight(params, mid, 0),
        Weight(params, tuple(params.p - 2 - m for m in reversed(mid)), 1),
    ])
    yield from (verify_witt(TwistedExtensionInduction(ctx, chi_of_weight(w), j)) for w in weights for j in range(params.f))


def suite_uplus(config: RunConfig) -> Iterator[CheckReport]:
    from .oracle.groups import get_context
    from .oracle.vectors import TwistedExtensionInduction, verify_uplus

    params = config.params
    ctx = get_context(params)
    [w] = _weights(config, [Weight(params, _interior_r(params), config.twist)])
    chi = chi_of_weight(w)
    bundles = (TwistedExtensionInduction(ctx, chi, j) for j in range(params.f))
    yield from (verify_uplus(bundle, k) for bundle in bundles for k in range(params.q))


def suite_calculH(config: RunConfig) -> Iterator[CheckReport]:
    import numpy as np

    from .oracle.groups import get_context
    from .oracle.vectors import TwistedExtensionInduction, verify_calcul_H

    params = config.params
    ctx = get_context(params)
    [w] = _weights(config, [Weight(params, _interior_r(params), config.twist)])
    chi = chi_of_weight(w)
    rng = np.random.default_rng(config.seed)
    combos = [({0: 1}, {}), ({}, {params.q - 1: 1}), ({params.q - 1: 1, 0: 2}, {1: 1})]
    for _ in range(5):
        ks = rng.integers(0, params.q, 3)
        combos.append(({int(ks[0]): 1, int(ks[1]): 2}, {int(ks[2]): 3}))
    bundles = (TwistedExtensionInduction(ctx, chi, j) for j in range(params.f))
    yield from (verify_calcul_H(bundle, a_c, b_c) for bundle in bundles for a_c, b_c in combos)


def suite_indej(config: RunConfig) -> Iterator[CheckReport]:
    from .oracle.groups import get_context
    from .oracle.vectors import verify_ind_ej

    params = config.params
    ctx = get_context(params)
    weights = _weights(config, [Weight(params, _interior_r(params), 0), Weight(params, (1,) * params.f, 0)])
    for w in weights:
        chi = chi_of_weight(w)
        for j in range(params.f):
            digits, _ = char_normal_form(char_times_alpha_power(chi, j, -1))
            if digits[j] <= params.p - 2:
                yield verify_ind_ej(ctx, chi, j)


def suite_womega(config: RunConfig) -> Iterator[CheckReport]:
    from .oracle.groups import get_context
    from .oracle.vectors import TwistedExtensionInduction, verify_u_generators, verify_w_omega

    params = config.params
    ctx = get_context(params)
    if params.f == 1:
        defaults = [Weight(params, (r0,), 0) for r0 in range(1, params.p)]
    else:
        defaults = [Weight(params, _interior_r(params), 0)]
    for w in _weights(config, defaults):
        chi = chi_of_weight(w)
        yield verify_u_generators(ctx, chi)
        yield from (verify_w_omega(TwistedExtensionInduction(ctx, chi, j)) for j in range(params.f))


def suite_combination(config: RunConfig) -> Iterator[CheckReport]:
    params = config.params
    if config.r is not None:
        rhos = [GaloisParams(params, config.reducible, config.r, config.twist)]
    else:
        rhos = generic_parameters(params, config.case, config.twist)
    for rho in rhos:
        for dw in diamond_set(rho):
            for j in range(params.f):
                res = verify_combination(rho, dw, j)
                rep = CheckReport("combination", f"{rho},S={sorted(dw.S)},j={j}")
                if not res.has_couple:
                    rep.add("no-couple", True, "", "no couple")
                for cl in res.clauses:
                    rep.add(cl.name, cl.passed, "", cl.detail)
                yield rep


def suite_counts(config: RunConfig) -> Iterator[CheckReport]:
    """Size of the weight set and multiplicity freeness of its blocks."""
    params = config.params
    for rho in generic_parameters(params, config.case, config.twist):
        n = len(diamond_set(rho))
        rep = CheckReport("diamond", str(rho))
        rep.add("count", n == 2 ** params.f, 2 ** params.f, n)
        rep.add("mult-free", d0_is_multiplicity_free(rho))
        yield rep


def suite_f2(config: RunConfig) -> Iterator[CheckReport]:
    params = config.params
    if params.f != 2:
        raise DomainError("the f2 suite needs f = 2")
    for rho in generic_parameters(params, "irreducible", config.twist):
        rep = CheckReport("f2", str(rho))
        tab = f2_tables(rho)
        rep.add("table", tab.matches_d0, "", tab.detail)
        vs = v1_s1_filtrations(rho)
        rep.add("s1-is-v1-head", vs.s1.layers == vs.v1.layers[:-2])
        rep.add("taus-outside", vs.taus_outside[0] and not any(vs.taus_outside[1:]))
        rep.add("couples", all(ok for _, ok in vs.couple_checks))
        yield rep


def suite_special(config: RunConfig) -> Iterator[CheckReport]:
    params = config.params
    red = params.f % 2 == 0
    if config.r is not None:
        rhos = [GaloisParams(params, red, config.r, config.twist)]
    else:
        rhos = generic_parameters(params, "reducible" if red else "irreducible", config.twist)
    for rho in rhos:
        sp = find_special_sigma(rho)
        rep = CheckReport("special", str(rho))
        rep.add("exists", True, "", str(sp.weight))
        for j in range(1, params.f):
            fac = tau_j_factor(rho, sp, j)
            _, J, consistent = xi_and_J(rho, sp, fac)
            want = frozenset(range(params.f)) - {(j - 2) % params.f}
            rep.add(f"J-xi j={j}", J == want and consistent, sorted(want), sorted(J))
        yield rep


def suite_s1s2(config: RunConfig) -> Iterator[CheckReport]:
    import numpy as np

    from .oracle.groups import get_context
    from .oracle.modules import h_eigen_split
    from .oracle.vectors import chain_induction, e_two_char_module, verify_S1_condition, verify_e_two_char, verify_ej_chain

    # chain modules and glued modules at the configured parameters
    params = config.params
    ctx = get_context(params)
    [w] = _weights(config, [Weight(params, _interior_r(params), config.twist)])
    chi = chi_of_weight(w)
    # every chain of chi sits in the one induction of its twist
    base = chain_induction(ctx, chi)
    yield from (
        verify_ej_chain(base, chi, j, s)
        for j in range(params.f)
        for s in range(1, min(3, params.p - 1) + 1)
    )

    if params.f == 2:
        try:
            rho = GaloisParams(params, False, w.r, config.twist)
            ok_gen = is_generic(rho)
        except DomainError:
            ok_gen = False
        if ok_gen:
            s1w, s2w = f2_sigmas(rho)[:2]
            chi2 = chi_of_weight(s2w)
            chi1s = conjugate_char(chi_of_weight(s1w))
            r0 = rho.r[0]
            mod = e_two_char_module(ctx, chi2, chi1s, 1, r0)
            yield verify_e_two_char(mod, chi2, chi1s, 1, r0)
            chi3 = char_times_alpha_power(chi2, 0, -r0)
            rows = dict(h_eigen_split(mod, np.eye(mod.dim, dtype=np.int64))).get(chi3)
            rep = CheckReport("s1", str(rho))
            rep.add("generator-condition", rows is not None and verify_S1_condition(mod, rows[0]))
            yield rep


class Suite(NamedTuple):
    # yields the CheckReports of the suite's instances at a run configuration
    run: Callable[[RunConfig], Iterator[CheckReport]]
    # each optional RunConfig field the suite reads, mapped to the field it is
    # read only together with (None when it is read alone)
    reads: dict


# the one suite registry: run_suite and the CLI's --suite choices read it
SUITES = {
    "jh": Suite(suite_jh, {"r": None, "twist": "r"}),
    "witt": Suite(suite_witt, {"r": None, "twist": "r"}),
    "uplus": Suite(suite_uplus, {"r": None, "twist": None}),
    "calculH": Suite(suite_calculH, {"r": None, "twist": None, "seed": None}),
    "indej": Suite(suite_indej, {"r": None, "twist": "r"}),
    "womega": Suite(suite_womega, {"r": None, "twist": "r"}),
    "combination": Suite(suite_combination, {"case": None, "r": None, "twist": None}),
    "f2": Suite(suite_f2, {"twist": None}),
    "special": Suite(suite_special, {"r": None, "twist": None}),
    "s1s2": Suite(suite_s1s2, {"r": None, "twist": None}),
    "counts": Suite(suite_counts, {"case": None, "twist": None}),
    "dimension": Suite(suite_dimension, {}),
}


def run_suite(config: RunConfig) -> list:
    """Checks of one suite, sorted by instance; a field set away from its
    default that the suite would ignore, a case the suite cannot take, a
    negative seed, or a configuration with nothing to check raises DomainError."""
    if config.suite not in SUITES:
        raise DomainError(f"unknown suite {config.suite!r}; choose from {sorted(SUITES)}")
    if config.case not in CASES:
        raise DomainError(f"unknown case {config.case!r}; choose from {list(CASES)}")
    suite = SUITES[config.suite]
    given = config.set_fields()
    for name in given:
        if name not in suite.reads:
            value = getattr(config, name)
            shown = ",".join(map(str, value)) if isinstance(value, tuple) else value
            raise DomainError(f"suite {config.suite} does not read --{name} (given {shown})")
        need = suite.reads[name]
        if need is not None and need not in given:
            raise DomainError(f"suite {config.suite} reads --{name} only together with --{need}")
    if config.case == "all-generic" and config.r is not None:
        raise DomainError("--case all-generic names no single parameter, so it takes no --r")
    if config.seed < 0:
        raise DomainError(f"--seed must be a non-negative integer, got {config.seed}")
    checks = [
        {"anchor": f"{rep.anchor}.{c['name']}", "instance": rep.instance,
         "expected": c["expected"], "got": c["got"], "status": c["status"]}
        for rep in suite.run(config)
        for c in rep.checks
    ]
    if not checks:
        # a sweep over no instances would pass without checking anything
        raise DomainError(f"suite {config.suite} has nothing to check at p={config.p}, f={config.f}")
    return sorted(checks, key=lambda c: (c["instance"], c["anchor"]))
