"""`gl2diamond verify --format json` output on fixed oracle configurations,
compared byte for byte with recorded reports.

A golden file is regenerated with
    PYTHONPATH=src python -m gl2diamond.cli verify --format json ARGS > tests/golden/NAME.json
and should change only when a check itself is meant to change.
"""

from pathlib import Path

import pytest

from gl2diamond.cli import main

GOLDEN = Path(__file__).parent / "golden"

COMMANDS = {
    "verify-jh-p5-f1": ["--suite", "jh", "--p", "5", "--f", "1"],
    "verify-womega-p5-f1": ["--suite", "womega", "--p", "5", "--f", "1"],
    "verify-indej-p5-f2": ["--suite", "indej", "--p", "5", "--f", "2"],
    "verify-indej-p7-f2": ["--suite", "indej", "--p", "7", "--f", "2"],
    "verify-s1s2-p5-f2-r2-1": ["--suite", "s1s2", "--p", "5", "--f", "2", "--r", "2,1"],
}


@pytest.mark.parametrize("name", sorted(COMMANDS))
def test_verify_json_matches_golden(name, capsys):
    code = main(["verify", "--format", "json", *COMMANDS[name]])
    assert code == 0
    assert capsys.readouterr().out == (GOLDEN / f"{name}.json").read_text()
