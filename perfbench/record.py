"""Record the reference files the benchmark compares against.

    python3 perfbench/record.py expected   # answer digests of every pool instance
    python3 perfbench/record.py baseline   # medians of the runs in .perfbench/

`expected` runs every instance of every workload's pool once, in fresh
sample processes, and refuses to record when any instance fails its own
check.  It writes, per pool, the instance count, each instance's answer
digest and one digest over the sorted (instance, answer) pairs.

`baseline` folds the result files that run.py left in .perfbench/ into
baseline.json: per workload, the median and quartiles over seeds of every
end-to-end metric, and the median of every per-layer metric.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

import run

BASELINE = run.HERE / "baseline.json"


def record_expected() -> int:
    sys.path.insert(0, str(run.ROOT / "src"))
    import workloads

    out = {}
    for workload in workloads.WORKLOADS.values():
        out[workload.name] = {}
        for part in workload.parts:
            keys = workloads.pool(part)
            answers = {}
            step = max(part.per_sample, 8) if part.kind != "indej" else 1
            for lo in range(0, len(keys), step):
                sample = run.run_sample(workload, keys[lo : lo + step], False, timeout=600)
                for inst in sample["instances"]:
                    if not inst["ok"]:
                        print(f"{inst['key']} fails: {inst['error']}", file=sys.stderr)
                        return 1
                    answers[workloads.key_str(inst["key"])] = inst["digest"]
            out[workload.name][workloads.part_id(part)] = {
                "count": len(keys),
                "digest": workloads.digest(sorted(answers.items())),
                "answers": answers,
            }
            print(f"{workload.name} {workloads.part_id(part)}: {len(keys)} instances recorded")
    run.EXPECTED.write_text(json.dumps(out, indent=1, sort_keys=True) + "\n")
    return 0


def _quartiles(values: list) -> list:
    if len(values) < 2:
        return [values[0]] * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return [q1, q2, q3]


def record_baseline() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    out = {}
    for w in bench["workloads"]:
        name = w["name"]
        timed = [json.loads(p.read_text()) for p in sorted(run.OUT_DIR.glob(f"{name}.seed*.metrics.json"))]
        traced = [json.loads(p.read_text()) for p in sorted(run.OUT_DIR.glob(f"{name}.seed*.spans.json"))]
        entry = {"why": w["why"], "runs": len(timed), "seeds": sorted(r["seed"] for r in timed)}
        if timed:
            entry["environment"] = timed[0]["environment"]
            entry["fail_ratio"] = sum(r["failed"] for r in timed) / sum(r["attempted"] for r in timed)
            entry["end_to_end"] = {}
            for m in bench["end_to_end"]:
                values = [r["metrics"][m["name"]]["value"] for r in timed]
                q1, q2, q3 = _quartiles(values)
                entry["end_to_end"][m["name"]] = {
                    "unit": m["unit"], "median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2,
                }
        if traced:
            entry["traced_runs"] = len(traced)
            entry["per_layer"] = {
                m["name"]: {
                    "unit": m["unit"],
                    "median": statistics.median(r["metrics"][m["name"]]["value"] for r in traced),
                }
                for m in bench["per_layer"]
            }
        out[name] = entry
    BASELINE.write_text(json.dumps(out, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    commands = {"expected": record_expected, "baseline": record_baseline}
    if len(sys.argv) != 2 or sys.argv[1] not in commands:
        print(__doc__, file=sys.stderr)
        sys.exit(2)
    sys.exit(commands[sys.argv[1]]())
