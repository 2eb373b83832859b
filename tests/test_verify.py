from pathlib import Path

import pytest

from gl2diamond import filtration, verify
from gl2diamond.cli import main
from gl2diamond.core import DomainError, Params, Weight, chi_of_weight
from gl2diamond.diamond import GaloisParams
from gl2diamond.oracle import vectors
from gl2diamond.verify import RunConfig, generic_parameters, run_suite, sweep_characters


def all_pass(checks):
    return checks and all(c["status"] == "pass" for c in checks)


def test_generic_parameter_enumeration():
    # f = 1, p = 5: one reducible vector and two irreducible ones (the
    # constant vector p-2 is excluded by the parameterization)
    assert len(generic_parameters(Params(5, 1))) == 3
    assert len(generic_parameters(Params(5, 2), "irreducible")) == 9
    assert len(generic_parameters(Params(5, 2), "reducible")) == 7


def test_character_sweep_limit():
    chars = sweep_characters(Params(5, 2), limit=10)
    assert len(chars) == 10
    assert chars == sweep_characters(Params(5, 2), limit=10)


@pytest.mark.parametrize(
    "suite,kwargs",
    [
        ("counts", dict(p=5, f=1)),
        ("dimension", dict(p=5, f=2)),
        ("combination", dict(p=5, f=2, r=(2, 1), case="irreducible")),
        ("f2", dict(p=5, f=2)),
        ("special", dict(p=5, f=3, r=(2, 1, 1), case="irreducible")),
        ("witt", dict(p=5, f=1)),
        ("calculH", dict(p=5, f=1, seed=3)),
        ("indej", dict(p=5, f=1)),
        ("womega", dict(p=5, f=1)),
        ("s1s2", dict(p=5, f=2, r=(2, 1), case="irreducible")),
    ],
)
def test_suites_pass(suite, kwargs):
    cfg = RunConfig(suite=suite, **kwargs)
    checks = run_suite(cfg)
    bad = [c for c in checks if c["status"] != "pass"]
    assert all_pass(checks), bad[:3]


def test_jh_suite_small():
    cfg = RunConfig(p=5, f=1, suite="jh")
    checks = run_suite(cfg)
    assert all_pass(checks)


def test_unknown_suite():
    with pytest.raises(DomainError):
        run_suite(RunConfig(suite="nope"))


def test_report_schema_and_determinism():
    cfg = RunConfig(p=5, f=2, suite="dimension")
    a = run_suite(cfg)
    b = run_suite(cfg)
    assert a == b
    required = {"anchor", "instance", "expected", "got", "status"}
    assert all(required == set(c) for c in a)


def test_s1s2_runs_each_chain_length_once_at_p3():
    # at p = 3 the chain lengths are 1 and p-1 = 2, so no (instance, anchor) repeats
    checks = run_suite(RunConfig(p=3, f=1, suite="s1s2"))
    assert all_pass(checks)
    rows = {(c["instance"], c["anchor"]) for c in checks}
    assert len(checks) == 6 and len(rows) == 6


@pytest.mark.parametrize("suite", ["uplus", "calculH"])
def test_vector_suites_build_one_induction_per_slot(suite, monkeypatch):
    # every k and every combination of a slot share that slot's induction
    built = []
    real = vectors.TwistedExtensionInduction

    def counting(ctx, chi, j):
        built.append(j)
        return real(ctx, chi, j)

    monkeypatch.setattr(vectors, "TwistedExtensionInduction", counting)
    checks = run_suite(RunConfig(p=5, f=2, suite=suite))
    assert all_pass(checks)
    assert built == [0, 1]


def test_f2_filtrations_do_not_check_the_table_again(monkeypatch, capsys):
    # the filtrations and the glued modules read the four base weights only
    rhos = generic_parameters(Params(7, 2), "irreducible")
    before = [filtration.v1_s1_filtrations(rho) for rho in rhos]

    def refuse(rho):
        raise AssertionError("the table is checked again")

    monkeypatch.setattr(filtration, "f2_tables", refuse)
    monkeypatch.setattr(verify, "f2_tables", refuse)
    assert [filtration.v1_s1_filtrations(rho) for rho in rhos] == before
    argv = ["verify", "--suite", "s1s2", "--p", "5", "--f", "2", "--r", "2,1", "--format", "json"]
    assert main(argv) == 0
    golden = Path(__file__).parent / "golden" / "verify-s1s2-p5-f2-r2-1.json"
    assert capsys.readouterr().out == golden.read_text()


def test_f2_sigmas_are_the_table_weights_and_refuse_alike():
    par = Params(5, 2)
    for rho in generic_parameters(par, "irreducible"):
        assert filtration.f2_sigmas(rho) == filtration.f2_tables(rho).sigmas
    for rho in (GaloisParams(par, True, (2, 1), 0), GaloisParams(par, False, (0, 0), 0)):
        with pytest.raises(DomainError) as table:
            filtration.f2_tables(rho)
        with pytest.raises(DomainError) as sigmas:
            filtration.f2_sigmas(rho)
        assert str(sigmas.value) == str(table.value)
