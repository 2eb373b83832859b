import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import gl2diamond
from gl2diamond.cli import main


def run_cli(capsys, *args):
    code = main(list(args))
    out = capsys.readouterr().out
    return code, out


def test_diamond_text(capsys):
    code, out = run_cli(capsys, "diamond", "--p", "7", "--f", "2", "--case", "irreducible", "--r", "2,1")
    assert code == 0
    assert "(1,4)*det^14" in out
    assert "(4,3)*det^16" in out
    assert "(3,2)*det^44" in out


def test_diamond_json_roundtrip(capsys):
    code, out = run_cli(
        capsys, "diamond", "--p", "7", "--f", "2", "--case", "irreducible",
        "--r", "2,1", "--format", "json",
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload["weights"]) == 4
    assert payload["weights"][1]["weight"] == "(1,4)*det^14"
    assert payload["weights"][1]["delta"] == "(4,3)*det^16"


def test_determinism(capsys):
    args = ["d0", "--p", "5", "--f", "2", "--case", "irreducible", "--r", "2,1", "--format", "json"]
    _, out1 = run_cli(capsys, *args)
    _, out2 = run_cli(capsys, *args)
    assert out1 == out2


def test_non_generic_exit_code(capsys):
    code, _ = run_cli(capsys, "diamond", "--p", "5", "--f", "2", "--case", "reducible", "--r", "0,0")
    assert code == 2


def test_missing_r_exit_code(capsys):
    code, _ = run_cli(capsys, "diamond", "--p", "5", "--f", "2")
    assert code == 2


@pytest.mark.parametrize("cmd", [["diamond"], ["verify", "--suite", "jh"]])
def test_non_integer_r_exit_code(cmd, capsys):
    code = main([*cmd, "--p", "5", "--f", "2", "--r", "2,x"])
    assert code == 2
    assert "--r" in capsys.readouterr().err


def test_verify_jh_reads_r_and_twist(capsys):
    from gl2diamond.core import Params, Weight, chi_of_weight

    def instances(*extra):
        code, out = run_cli(capsys, "verify", "--suite", "jh", "--p", "5", "--f", "1", "--format", "json", *extra)
        assert code == 0
        payload = json.loads(out)
        assert payload["passed"] is True
        return {c["instance"] for c in payload["checks"]}

    assert len(instances()) > 2
    for twist in (0, 1):
        chi = chi_of_weight(Weight(Params(5, 1), (2,), twist))
        assert instances("--r", "2", "--twist", str(twist)) == {f"p=5,f=1,chi=({chi.a},{chi.b})"}


@pytest.mark.parametrize("suite,f", [("jh", "1"), ("indej", "2"), ("womega", "1"), ("witt", "1")])
def test_verify_twist_without_r_is_refused(suite, f, capsys):
    # these suites read --twist only as the twist of the weight --r names
    assert main(["verify", "--suite", suite, "--p", "5", "--f", f, "--twist", "3"]) == 2
    err = capsys.readouterr().err
    assert "--twist" in err and "--r" in err


IGNORED_FLAGS = (
    [(suite, "--seed", "1") for suite in (
        "jh", "witt", "uplus", "indej", "womega", "combination", "f2", "special", "s1s2", "counts", "dimension",
    )]
    + [(suite, "--case", "reducible") for suite in (
        "jh", "indej", "womega", "witt", "uplus", "calculH", "f2", "special", "s1s2", "dimension",
    )]
    + [("s1s2", "--case", "all-generic")]
    + [(suite, "--r", "2,1") for suite in ("f2", "counts", "dimension")]
    + [("dimension", "--twist", "1")]
)


@pytest.mark.parametrize("suite,flag,value", IGNORED_FLAGS)
def test_verify_refuses_a_flag_the_suite_ignores(suite, flag, value, capsys):
    assert main(["verify", "--suite", suite, "--p", "5", "--f", "2", flag, value]) == 2
    err = capsys.readouterr().err
    assert f"suite {suite} does not read {flag}" in err


@pytest.mark.parametrize("argv", [
    ["diamond", "--p", "5", "--f", "2", "--r", "2,1", "--seed", "7"],
    ["d0", "--p", "5", "--f", "2", "--r", "2,1", "--seed", "7"],
    ["filtration", "example1", "--p", "7", "--f", "3", "--r", "2,2,2", "--seed", "3"],
])
def test_seed_is_a_verify_flag_only(argv, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_verify_refuses_a_negative_seed(capsys):
    # the seed used to reach numpy's generator and die with a traceback, exit 1
    assert main(["verify", "--suite", "calculH", "--p", "5", "--f", "1", "--seed", "-1"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "--seed must be a non-negative integer, got -1" in captured.err


@pytest.mark.parametrize("argv,flag", [
    (["filtration", "v1", "--p", "7", "--f", "2", "--r", "2,1", "--j", "1"], "--j"),
    (["filtration", "s1", "--p", "7", "--f", "2", "--r", "2,1", "--j", "1"], "--j"),
    (["filtration", "example1", "--p", "7", "--f", "3", "--r", "2,2,2", "--case", "reducible"], "--case"),
])
def test_filtration_refuses_a_flag_it_ignores(argv, flag, capsys):
    assert main(argv) == 2
    assert f"does not read {flag}" in capsys.readouterr().err


@pytest.mark.parametrize("j", ["5", "-1"])
def test_example1_refuses_a_slot_out_of_range(j, capsys):
    # j = 5 used to index past the digits, j = -1 to print a float twist
    assert main(["filtration", "example1", "--p", "7", "--f", "3", "--r", "2,2,2", "--j", j]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"j={j} out of range" in captured.err


def test_verify_counts_suite(capsys):
    code, out = run_cli(capsys, "verify", "--suite", "counts", "--p", "5", "--f", "1")
    assert code == 0
    assert "checks passed" in out


@pytest.mark.parametrize("suite", ["counts", "combination"])
@pytest.mark.parametrize(
    "case,kinds",
    [(None, {"irr"}), ("irreducible", {"irr"}), ("reducible", {"red"}), ("all-generic", {"red", "irr"})],
)
def test_verify_sweeps_the_parameters_of_each_case(suite, case, kinds, capsys):
    extra = [] if case is None else ["--case", case]
    code, out = run_cli(capsys, "verify", "--suite", suite, "--p", "5", "--f", "2", "--format", "json", *extra)
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    assert {c["instance"][len("rho["):][:3] for c in payload["checks"]} == kinds


@pytest.mark.parametrize(
    "args",
    [
        ["--suite", "combination", "--r", "2,1"],
        ["--suite", "s1s2"],
        ["--suite", "s1s2", "--r", "2,1"],
    ],
)
def test_verify_all_generic_names_no_single_parameter(args, capsys):
    assert main(["verify", "--p", "5", "--f", "2", "--case", "all-generic", *args]) == 2
    assert "all-generic" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["diamond", "d0", "filtration"])
def test_all_generic_is_a_verify_case_only(cmd, capsys):
    argv = [cmd, "--p", "5", "--f", "2", "--case", "all-generic", "--r", "2,1"]
    if cmd == "filtration":
        argv.insert(1, "v1")
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


def test_verify_dimension_json(capsys):
    code, out = run_cli(
        capsys, "verify", "--suite", "dimension", "--p", "5", "--f", "2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["passed"] is True
    required = {"anchor", "instance", "expected", "got", "status"}
    assert all(required <= set(c) for c in payload["checks"])


def test_verify_reports_a_failing_check(monkeypatch, capsys):
    from types import SimpleNamespace

    from gl2diamond import verify
    from gl2diamond.core import Params, Weight, chi_of_weight

    broken = chi_of_weight(Weight(Params(5, 2), (1, 1), 0))
    real = verify.jh_of_induced

    def short_by_one(chi):
        jh = real(chi)
        return SimpleNamespace(total_dim=jh.total_dim - (chi == broken), dropped=jh.dropped)

    monkeypatch.setattr(verify, "jh_of_induced", short_by_one)
    args = ("verify", "--suite", "dimension", "--p", "5", "--f", "2")
    code, out = run_cli(capsys, *args)
    assert code == 1
    assert "suite dimension: 8/9 checks passed" in out
    assert "  FAIL jh.dimension [r=(1, 1)] expected=26 got=25" in out.splitlines()
    code, out = run_cli(capsys, *args, "--format", "json")
    assert code == 1
    payload = json.loads(out)
    assert payload["passed"] is False
    failed = [c for c in payload["checks"] if c["status"] == "FAIL"]
    assert failed == [
        {"anchor": "jh.dimension", "instance": "r=(1, 1)", "expected": "26", "got": "25", "status": "FAIL"}
    ]


def test_filtration_renderings(capsys):
    code, out = run_cli(capsys, "filtration", "v1", "--p", "7", "--f", "2", "--case", "irreducible", "--r", "2,1")
    assert code == 0
    assert out.count("--") >= 6
    code, out = run_cli(capsys, "filtration", "s1", "--p", "7", "--f", "2", "--case", "irreducible", "--r", "2,1")
    assert code == 0
    code, out = run_cli(capsys, "filtration", "example1", "--p", "7", "--f", "3", "--r", "2,2,2", "--j", "0")
    assert code == 0
    assert "coincidences" in out


def test_out_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, _ = run_cli(
        capsys, "diamond", "--p", "5", "--f", "1", "--case", "irreducible",
        "--r", "2", "--format", "json", "--out", str(target),
    )
    assert code == 0
    payload = json.loads(target.read_text())
    assert len(payload["weights"]) == 2


def test_out_file_in_a_missing_directory(tmp_path, capsys):
    target = tmp_path / "missing" / "report.json"
    code = main(["diamond", "--p", "5", "--f", "2", "--r", "2,1", "--format", "json", "--out", str(target)])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"cannot write --out {target}" in captured.err
    assert not target.exists()


@pytest.mark.parametrize("suite,f", [("counts", "1"), ("combination", "1"), ("special", "1"), ("special", "2")])
def test_verify_refuses_a_sweep_with_nothing_to_check(suite, f, capsys):
    # p = 3 has no generic parameter at these f, so the sweep would pass vacuously
    assert main(["verify", "--suite", suite, "--p", "3", "--f", f]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"suite {suite} has nothing to check at p=3, f={f}" in captured.err


def test_jobs_flag_is_rejected(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--suite", "counts", "--p", "5", "--f", "1", "--jobs", "2"])
    assert exc.value.code == 2


def test_verify_refuses_oversized_field(capsys):
    # the field tables at q = 31^3 would need tens of GB; refused before allocation
    assert main(["verify", "--suite", "jh", "--p", "31", "--f", "3"]) == 2
    assert "29791" in capsys.readouterr().err


# bound on the peak RSS of a combination sweep at p = 5, f = 4 written with
# --out, which reads about 60 MB on a 2-vCPU x86-64 host; blocks kept for
# every parameter of the sweep, or the report encoded as one string, exceed it
SWEEP_PEAK_MB = 100
# bound on the peak RSS of the default jh sweep at p = 5, f = 3, which reads
# about 40 MB on the same host, and 47 MB when the Hom search built and cached
# each weight's words and structure constants
JH_PEAK_MB = 64
# bound on the peak RSS of one jh character at p = 5, f = 4 (the trivial one,
# whose socle holds the Steinberg weight of dimension 625): about 185 MB on
# the same host, and 307 MB when the Hom search built the Steinberg weight's
# words and structure constants
JH_P5_F4_PEAK_MB = 250


def _child_exit_and_peak_mb(argv) -> tuple:
    """Run the CLI in a child that reads its own VmHWM; ru_maxrss would carry
    over the RSS of the process that started it."""
    script = (
        "import sys\n"
        "from gl2diamond.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "hwm = next(line for line in open('/proc/self/status') if line.startswith('VmHWM:'))\n"
        "print(code, int(hwm.split()[1]) / 1024)\n"
    )
    src = str(Path(gl2diamond.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    proc = subprocess.run([sys.executable, "-c", script, *argv], capture_output=True, text=True, env=env, check=True)
    code, peak_mb = proc.stdout.split()
    return code, float(peak_mb)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_a_sweep_stays_under_its_peak_memory_bound(tmp_path):
    argv = ["verify", "--suite", "combination", "--p", "5", "--f", "4", "--format", "json",
            "--out", str(tmp_path / "combination.json")]
    code, peak_mb = _child_exit_and_peak_mb(argv)
    assert code == "0"
    assert peak_mb <= SWEEP_PEAK_MB, f"peak RSS {peak_mb} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_the_jh_sweep_at_f3_stays_under_its_peak_memory_bound(tmp_path):
    argv = ["verify", "--suite", "jh", "--p", "5", "--f", "3", "--format", "json",
            "--out", str(tmp_path / "jh.json")]
    code, peak_mb = _child_exit_and_peak_mb(argv)
    assert code == "0"
    assert peak_mb <= JH_PEAK_MB, f"peak RSS {peak_mb} MB"


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc/self/status")
def test_one_jh_character_at_f4_stays_under_its_peak_memory_bound(tmp_path):
    argv = ["verify", "--suite", "jh", "--p", "5", "--f", "4", "--r", "0,0,0,0", "--format", "json",
            "--out", str(tmp_path / "jh.json")]
    code, peak_mb = _child_exit_and_peak_mb(argv)
    assert code == "0"
    assert peak_mb <= JH_P5_F4_PEAK_MB, f"peak RSS {peak_mb} MB"
