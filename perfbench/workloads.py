"""The benchmark's workloads: instance pools, running one instance, its verdict.

A workload is a list of parts.  A part names an instance kind at fixed
(p, f) and how many of its instances one sample process runs.  The pool of
a part is enumerated with the package's own sweep functions; the workload
seed only permutes the pool, and a sample receives explicit instance keys.

Every instance returns a record holding the oracle answer next to the
combinatorial one (or, for the purely combinatorial kinds, the outcome of
each stated check).  `verdict` decides pass or fail from the record alone,
and `digest` fingerprints it, so a run can be compared with the recorded
answers in expected.json.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Part:
    kind: str  # "jh", "indej", "combination" or "f2"
    p: int
    f: int
    per_sample: int


@dataclass(frozen=True)
class Workload:
    name: str
    parts: tuple  # the first part is the one instance_p50_s is taken over
    oracle: bool  # whether set-up builds the group context of the first part


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "jh-q25",
            (Part("jh", 5, 2, 2),),
            True,
        ),
        Workload(
            "indej-q49",
            (Part("indej", 7, 2, 1),),
            True,
        ),
        Workload(
            "combinatorics-f4",
            (Part("combination", 5, 4, 16), Part("f2", 23, 2, 44)),
            False,
        ),
    )
}


def part_id(part: Part) -> str:
    return f"{part.kind}:{part.p}:{part.f}"


def key_str(key) -> str:
    return json.dumps(list(key), separators=(",", ":"))


def digest(obj) -> str:
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


# -- pools -------------------------------------------------------------------


def pool(part: Part) -> list:
    """Instance keys of a part, in the package's own enumeration order."""
    from gl2diamond.core import Params, Weight, char_normal_form, char_times_alpha_power, chi_of_weight
    from gl2diamond.verify import generic_parameters, sweep_characters

    params = Params(part.p, part.f)
    head = (part.kind, part.p, part.f)
    if part.kind == "jh":
        # the jh suite's default sweep; a run covers all of it, so seeds differ only in order
        return [head + (chi.a, chi.b) for chi in sweep_characters(params, limit=24)]
    if part.kind == "indej":
        # the default weights and admissible slots of the indej suite
        p, f = part.p, part.f
        out = []
        for r in (tuple(min(i + 2, p - 2) for i in range(f)), (1,) * f):
            chi = chi_of_weight(Weight(params, r, 0))
            for j in range(f):
                digits, _ = char_normal_form(char_times_alpha_power(chi, j, -1))
                key = head + (list(r), 0, j)
                if digits[j] <= p - 2 and key not in out:
                    out.append(key)
        return out
    if part.kind == "combination":
        return [head + (rho.reducible, list(rho.r), rho.twist) for rho in generic_parameters(params)]
    if part.kind == "f2":
        return [head + (list(rho.r), rho.twist) for rho in generic_parameters(params, "irreducible")]
    raise ValueError(f"unknown instance kind {part.kind!r}")


def order(keys: list, seed: int, part: Part) -> list:
    """The seed's permutation of a pool; samples take consecutive slices of it."""
    out = list(keys)
    random.Random(f"{seed}/{part.kind}/{part.p}/{part.f}").shuffle(out)
    return out


def chunk(ordered: list, index: int, size: int) -> list:
    """The index-th slice of `size` keys, wrapping around the permutation."""
    n = len(ordered)
    return [ordered[(index * size + k) % n] for k in range(min(size, n))]


# -- one instance ------------------------------------------------------------


def _counter_record(counter) -> list:
    return sorted([list(w.r), w.twist, k] for w, k in counter.items())


def _run_jh(key):
    from collections import Counter

    from gl2diamond.core import ICharacter, Params, conjugate_char
    from gl2diamond.oracle.groups import get_context
    from gl2diamond.oracle.modules import character_module, induce, jh_multiset, socle_weights
    from gl2diamond.principal import jh_of_induced, socle_of_induced

    _, p, f, a, b = key
    params = Params(p, f)
    chi = conjugate_char(ICharacter(params, a, b))
    mod = induce(character_module(get_context(params), chi))
    return {
        "oracle": {"jh": _counter_record(jh_multiset(mod)), "socle": _counter_record(socle_weights(mod))},
        "combinatorial": {
            "jh": _counter_record(Counter(jh_of_induced(chi).weights())),
            "socle": _counter_record(Counter(socle_of_induced(chi))),
        },
    }


def _run_indej(key):
    from gl2diamond.core import Params, Weight, chi_of_weight
    from gl2diamond.oracle.groups import get_context
    from gl2diamond.oracle.vectors import verify_ind_ej

    _, p, f, r, twist, j = key
    params = Params(p, f)
    rep = verify_ind_ej(get_context(params), chi_of_weight(Weight(params, tuple(r), twist)), j)
    return {"checks": [[c["name"], c["status"] == "pass", c["expected"], c["got"]] for c in rep.checks]}


def _run_combination(key):
    from gl2diamond.core import Params
    from gl2diamond.diamond import GaloisParams, diamond_set, verify_combination

    _, p, f, reducible, r, twist = key
    rho = GaloisParams(Params(p, f), reducible, tuple(r), twist)
    checks = []
    for dw in diamond_set(rho):
        for j in range(f):
            rep = verify_combination(rho, dw, j)
            for cl in rep.clauses:
                checks.append([f"{sorted(dw.S)}/{j}/{cl.name}", cl.passed, "", cl.detail])
    return {"checks": checks}


def _run_f2(key):
    from gl2diamond.core import Params
    from gl2diamond.diamond import GaloisParams
    from gl2diamond.filtration import f2_tables, v1_s1_filtrations

    _, p, f, r, twist = key
    rho = GaloisParams(Params(p, f), False, tuple(r), twist)
    tab = f2_tables(rho)
    vs = v1_s1_filtrations(rho)
    layers = [[str(w) for w in layer] for layer in vs.v1.layers]
    return {
        "checks": [
            ["table", tab.matches_d0, "", tab.detail],
            ["s1-is-v1-head", vs.s1.layers == vs.v1.layers[:-2], "", ""],
            ["taus-outside", vs.taus_outside[0] and not any(vs.taus_outside[1:]), "", ""],
            ["couples", all(ok for _, ok in vs.couple_checks), "", ""],
        ],
        "sigmas": [str(w) for w in tab.sigmas],
        "v1": layers,
    }


_RUNNERS = {"jh": _run_jh, "indej": _run_indej, "combination": _run_combination, "f2": _run_f2}


def run_instance(key) -> dict:
    return _RUNNERS[key[0]](key)


def verdict(record: dict) -> bool:
    """True when the oracle agrees with the combinatorial layer, or every check passed."""
    if "oracle" in record:
        return record["oracle"] == record["combinatorial"]
    return all(check[1] for check in record["checks"])


def setup(workload: Workload) -> float:
    """What a user pays before the first instance: tables, cosets, generators.

    Returns the time spent building the F_q and Galois-ring tables.
    """
    if not workload.oracle:
        return 0.0
    from time import perf_counter

    from gl2diamond.core import Params
    from gl2diamond.oracle import modules, vectors  # noqa: F401
    from gl2diamond.oracle.gf import get_gf
    from gl2diamond.oracle.gr import get_gr
    from gl2diamond.oracle.groups import get_context

    part = workload.parts[0]
    t0 = perf_counter()
    get_gf(part.p, part.f)
    get_gr(part.p, part.f)
    table_build_s = perf_counter() - t0
    ctx = get_context(Params(part.p, part.f))
    ctx.coset_reps()
    for kind in ("K", "I", "I1", "H"):
        ctx.gens(kind)
    return table_build_s
