"""Tests of the benchmark harness itself, on a smoke configuration that runs in seconds.

The oracle workloads run at p=3, f=1.  The combinatorial one runs at
p=5, f=1 and f=2, the smallest parameters with generic representations.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run  # noqa: E402
import workloads  # noqa: E402
from workloads import Part, Workload  # noqa: E402

SMOKE = (
    Workload("smoke-jh", (Part("jh", 3, 1, 2),), True),
    Workload("smoke-indej", (Part("indej", 3, 1, 1),), True),
    Workload("smoke-combinatorics", (Part("combination", 5, 1, 2), Part("f2", 5, 2, 4)), False),
)


@pytest.fixture(scope="module")
def smoke_runs():
    return {
        (w.name, trace): run.run(w, seed=7, seconds=0.5, trace=trace, expected=None)
        for w in SMOKE
        for trace in (False, True)
    }


def _declared():
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return (
        {m["name"]: m["unit"] for m in bench["end_to_end"]},
        {m["name"]: m["unit"] for m in bench["per_layer"]},
    )


def test_smoke_runs_pass(smoke_runs):
    for (name, trace), result in smoke_runs.items():
        assert result["correct"], (name, trace, result["details"]["problems"])
        assert result["failed"] == 0 and result["attempted"] >= 1


def test_printed_metrics_match_benchmark_json(smoke_runs):
    e2e, layers = _declared()
    for (name, trace), result in smoke_runs.items():
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == (layers if trace else e2e), name
        assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def test_combinatorial_workload_never_enters_the_oracle(smoke_runs):
    metrics = smoke_runs[("smoke-combinatorics", True)]["metrics"]
    assert metrics["diamond.d0_all.calls"]["value"] > 0
    oracle = {k: v["value"] for k, v in metrics.items() if k.startswith("oracle.") and k.endswith(".calls")}
    assert oracle and not any(oracle.values())


def test_traced_self_times_fit_in_the_instances_time(smoke_runs):
    spans = smoke_runs[("smoke-jh", True)]["details"]["spans"]
    assert spans["missing"] == []
    assert sum(spans["self_s"].values()) <= sum(spans["traced_verify_s"]) + 1e-6
    assert spans["calls"]["oracle.modules.evaluate"] > 0


def test_tampered_multiplicity_is_a_failure():
    key = workloads.pool(SMOKE[0].parts[0])[0]
    record = workloads.run_instance(key)
    assert workloads.verdict(record)
    record["oracle"]["jh"][0][2] += 1
    assert not workloads.verdict(record)


def _expected(workload, answers):
    part = workload.parts[0]
    digest = workloads.digest(sorted(answers.items()))
    return {workload.name: {workloads.part_id(part): {"count": len(answers), "digest": digest, "answers": answers}}}


def test_changed_recorded_answer_is_a_failure(smoke_runs):
    w = SMOKE[0]
    part = w.parts[0]
    instances = smoke_runs[(w.name, False)]["details"]["instances"]
    answers = {workloads.key_str(k): "0" * 16 for k in workloads.pool(part)}
    answers.update({workloads.key_str(i["key"]): i["digest"] for i in instances})
    answers[workloads.key_str(instances[0]["key"])] = "f" * 16
    result = run.run(w, seed=7, seconds=0.5, trace=False, expected=_expected(w, answers))
    assert not result["correct"]
    assert result["failed"] >= 1
    assert any("differs from recorded" in p for p in result["details"]["problems"])


def test_changed_pool_is_a_failure(smoke_runs):
    w = SMOKE[0]
    instances = smoke_runs[(w.name, False)]["details"]["instances"]
    answers = {workloads.key_str(i["key"]): i["digest"] for i in instances}
    answers['["jh",3,1,99,99]'] = "0" * 16  # an instance the pool no longer has
    result = run.run(w, seed=7, seconds=0.5, trace=False, expected=_expected(w, answers))
    assert not result["correct"]
    assert any("differs from the recorded pool" in p for p in result["details"]["problems"])


def test_fails_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "jh-q25", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout


def test_recorded_pools_match_the_package():
    expected = json.loads((HERE / "expected.json").read_text())
    assert set(expected) == set(workloads.WORKLOADS)
    for name, workload in workloads.WORKLOADS.items():
        for part in workload.parts:
            rec = expected[name][workloads.part_id(part)]
            keys = [workloads.key_str(k) for k in workloads.pool(part)]
            assert len(keys) == rec["count"] and set(keys) == set(rec["answers"])
            assert workloads.digest(sorted(rec["answers"].items())) == rec["digest"]
