"""`gl2diamond ... --format json` output on fixed configurations, compared
byte for byte with recorded reports.

A golden file is regenerated with
    PYTHONPATH=src python -m gl2diamond.cli ARGV > tests/golden/NAME.json
and should change only when a check itself is meant to change.  The
slowest entry of ``COMMANDS`` is verify-jh-p5-f4-r2-2-0-0 (about 5 s),
whose socle series takes four quotients of dimension up to 626.  The
reports in ``PINNED`` are kept by their sha256 only: the combination sweep
at p = 5, f = 3 (1.4 MB, checked here too), the counts sweep at p = 5,
f = 5 (about 2 s), the combination sweep at p = 5, f = 4 (34.7 MB, about
2.5 s), and the uplus and calculH sweeps at p = 5, f = 3 (about 32 s and
3 s).  tests/golden/verify-womega-p5-f3.json takes about 8 s.  CI
(.github/workflows/tier1.yml) checks every pin and that golden file.
Times are on a 2-vCPU Xeon.
"""

import hashlib
from pathlib import Path

import pytest

from gl2diamond.cli import main

GOLDEN = Path(__file__).parent / "golden"

# name -> the whole argv, subcommand first
COMMANDS = {
    "verify-jh-p5-f1": ["verify", "--suite", "jh", "--p", "5", "--f", "1", "--format", "json"],
    "verify-jh-p5-f2": ["verify", "--suite", "jh", "--p", "5", "--f", "2", "--format", "json"],
    "verify-jh-p5-f3": ["verify", "--suite", "jh", "--p", "5", "--f", "3", "--format", "json"],
    "verify-womega-p5-f1": ["verify", "--suite", "womega", "--p", "5", "--f", "1", "--format", "json"],
    "verify-womega-p7-f2": ["verify", "--suite", "womega", "--p", "7", "--f", "2", "--format", "json"],
    # at f = 1 the default weight has psi = conj(chi), the one default run of
    # verify_ind_ej's conjugate-fixed correction
    "verify-indej-p5-f1": ["verify", "--suite", "indej", "--p", "5", "--f", "1", "--format", "json"],
    "verify-indej-p5-f2": ["verify", "--suite", "indej", "--p", "5", "--f", "2", "--format", "json"],
    "verify-indej-p7-f2": ["verify", "--suite", "indej", "--p", "7", "--f", "2", "--format", "json"],
    "verify-s1s2-p5-f2-r2-1": ["verify", "--suite", "s1s2", "--p", "5", "--f", "2", "--r", "2,1", "--format", "json"],
    "verify-s1s2-p7-f2-r3-2": ["verify", "--suite", "s1s2", "--p", "7", "--f", "2", "--r", "3,2", "--format", "json"],
    "verify-special-p5-f3": ["verify", "--suite", "special", "--p", "5", "--f", "3", "--format", "json"],
    "verify-f2-p7-f2": ["verify", "--suite", "f2", "--p", "7", "--f", "2", "--format", "json"],
    "verify-witt-p5-f1": ["verify", "--suite", "witt", "--p", "5", "--f", "1", "--format", "json"],
    "verify-uplus-p5-f1": ["verify", "--suite", "uplus", "--p", "5", "--f", "1", "--format", "json"],
    "verify-uplus-p5-f2": ["verify", "--suite", "uplus", "--p", "5", "--f", "2", "--format", "json"],
    "verify-calculH-p5-f1-seed3": ["verify", "--suite", "calculH", "--p", "5", "--f", "1", "--seed", "3", "--format", "json"],
    "verify-calculH-p7-f2": ["verify", "--suite", "calculH", "--p", "7", "--f", "2", "--format", "json"],
    "verify-counts-p5-f2-all-generic": ["verify", "--suite", "counts", "--p", "5", "--f", "2", "--case", "all-generic", "--format", "json"],
    "verify-counts-p5-f4-all-generic": ["verify", "--suite", "counts", "--p", "5", "--f", "4", "--case", "all-generic", "--format", "json"],
    "verify-combination-p5-f4-r1-2-1-2": ["verify", "--suite", "combination", "--p", "5", "--f", "4", "--r", "1,2,1,2", "--format", "json"],
    "verify-dimension-p5-f2": ["verify", "--suite", "dimension", "--p", "5", "--f", "2", "--format", "json"],
    "verify-witt-p5-f3": ["verify", "--suite", "witt", "--p", "5", "--f", "3", "--format", "json"],
    "verify-indej-p5-f3": ["verify", "--suite", "indej", "--p", "5", "--f", "3", "--format", "json"],
    "verify-jh-p7-f3-r2-3-4": ["verify", "--suite", "jh", "--p", "7", "--f", "3", "--r", "2,3,4", "--format", "json"],
    "verify-jh-p5-f4-r0-0-0-0": ["verify", "--suite", "jh", "--p", "5", "--f", "4", "--r", "0,0,0,0", "--format", "json"],
    "verify-jh-p5-f4-r2-2-0-0": ["verify", "--suite", "jh", "--p", "5", "--f", "4", "--r", "2,2,0,0", "--format", "json"],
    "d0-p7-f3-r2-1-3": ["d0", "--p", "7", "--f", "3", "--r", "2,1,3", "--format", "json"],
    "d0-p5-f1-r1": ["d0", "--p", "5", "--f", "1", "--r", "1", "--format", "json"],
    "d0-p7-f1-reducible-r2": ["d0", "--p", "7", "--f", "1", "--case", "reducible", "--r", "2", "--format", "json"],
    "diamond-p7-f2-r2-1": ["diamond", "--p", "7", "--f", "2", "--r", "2,1", "--format", "json"],
    "filtration-v1-p7-f2-r2-1": ["filtration", "v1", "--p", "7", "--f", "2", "--r", "2,1", "--format", "json"],
    "filtration-example1-p7-f3-r2-2-2-j0": [
        "filtration", "example1", "--p", "7", "--f", "3", "--r", "2,2,2", "--j", "0", "--format", "json",
    ],
}

# name -> (the whole argv, sha256 of its output); the combination sweep at
# p = 5, f = 4 is the one whose parameters the combinatorics-f4 benchmark samples
PINNED = {
    "verify-combination-p5-f3": (
        ["verify", "--suite", "combination", "--p", "5", "--f", "3", "--format", "json"],
        "523c6a3557b19f6b044568f5d0a128d6db342dde93a9759343fe0b12232d702b",
    ),
    "verify-counts-p5-f5-all-generic": (
        ["verify", "--suite", "counts", "--p", "5", "--f", "5", "--case", "all-generic", "--format", "json"],
        "e3a0a59cab62f73f38b02adbe771e9d8fdb414b67660ebce3f375886f87b473f",
    ),
    "verify-combination-p5-f4-all-generic": (
        ["verify", "--suite", "combination", "--p", "5", "--f", "4", "--case", "all-generic", "--format", "json"],
        "1581e82cec70cd51adef9a03c0dcd25bb94e506bf1547e007a63544234dec868",
    ),
    "verify-uplus-p5-f3": (
        ["verify", "--suite", "uplus", "--p", "5", "--f", "3", "--format", "json"],
        "193493e0fed0b48e9a6711e6f37f11ac97f0952fa60a9e3f3d8c0ae2451a84fe",
    ),
    "verify-calculH-p5-f3": (
        ["verify", "--suite", "calculH", "--p", "5", "--f", "3", "--format", "json"],
        "87a6158e14dec34f7bc7d7a64307322d0c3263ee73a28ca3f767f3085cb7b217",
    ),
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_verify_json_matches_golden(name, capsys):
    code = main(COMMANDS[name])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()


def test_combination_sweep_matches_recorded_sha256(capsys):
    argv, sha256 = PINNED["verify-combination-p5-f3"]
    code = main(argv)
    assert code == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == sha256
