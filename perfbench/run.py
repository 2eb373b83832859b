"""Benchmark of gl2diamond: three workloads, each sample in a fresh interpreter.

    python3 perfbench/run.py --workload jh-q25 --seed 1 --seconds 36 --trace 0

Every sample is a new process (sample.py), because the package keeps
process-wide caches that a `gl2diamond verify` user rebuilds on every run.
A run first starts a few set-up-only processes, then starts samples until
the next one would end past --seconds (at least two samples, and none that
could end past HARD_LIMIT_S).  Sample i of an untraced run takes the i-th
slice of the seed's permutation of each pool.

--trace 0 reports the end-to-end metrics of BENCHMARK.json: medians of
set-up time, of the instances' wall time per sample, of one instance's time
and of peak memory.  The host's speed drifts within minutes, so every time
is scaled by a host-speed reading (calibrate.py) taken right before and
after its process; the unscaled medians are printed next to them.  --trace 1 repeats (untraced, traced) pairs of samples
on the first slice and reports the per-layer metrics: call counts, self-time
shares and the tracing overhead.  Each answer is checked against the
combinatorial layer and against the answers recorded in expected.json; the
last line of standard output is one JSON object
{"correct", "attempted", "failed", "metrics"}.  Detailed results, with the
environment, go to .perfbench/ in the checkout.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
EXPECTED = HERE / "expected.json"

SETUP_PROBES = 3  # set-up-only processes per run, on top of each sample's own set-up
# Every reported time is scaled by CAL_NOMINAL_S / (the calibrate.py readings around
# its process): seconds on a host whose reading is CAL_NOMINAL_S, the median reading
# on the 2-vCPU Intel Xeon host the benchmark was defined on.
CAL_NOMINAL_S = 0.075
MIN_UNTRACED_SAMPLES = 2
HARD_LIMIT_S = 150.0  # the run must exit well within 180 s

END_TO_END = {
    "setup_s": "s",
    "verify_s": "s",
    "instance_p50_s": "s",
    "peak_rss_mb": "MB",
}

# per-layer counts, read from the first traced sample (a fixed instance set per seed)
CALLS = (
    "oracle.gr.mat_mul", "oracle.gr.mul",
    "oracle.groups.coset_decompose", "oracle.groups.char_value",
    "oracle.modules.evaluate", "oracle.modules.gen_mats", "oracle.modules.hom_from_weight",
    "oracle.modules.socle_data", "oracle.modules.quotient_module",
    "oracle.gf.matmul", "oracle.gf.subspace_insert", "oracle.gf.spin", "oracle.gf.nullspace",
    "oracle.vectors.coset_sum_vector",
    "diamond.d0_all", "diamond.delta_data", "principal.jh_of_induced",
    "tuples.eval_tuple", "tuples.compatible", "couples.couple_type", "core.char_normal_form",
)
# spans whose self time is reported as a share of the traced instances' wall time
SELF_SHARES = (
    "oracle.gr.mat_mul", "oracle.groups.coset_decompose",
    "oracle.modules.evaluate", "oracle.modules.hom_from_weight", "oracle.modules.socle_data",
    "oracle.gf.matmul", "oracle.gf.subspace_insert", "oracle.gf.spin", "oracle.gf.nullspace",
    "oracle.vectors.verify_ind_ej",
    "diamond.verify_combination", "diamond.d0_all", "diamond.delta_data",
    "principal.jh_of_induced", "filtration.f2_tables", "filtration.v1_s1_filtrations",
)


def per_layer_units() -> dict:
    from tracer import LAYERS

    units = {f"{name}.calls": "count" for name in CALLS}
    units["oracle.gf.matmul.ops"] = "op"
    units["oracle.gf.matmul.bytes"] = "B"
    units["oracle.gf.subspace_insert.useful_ratio"] = "ratio"
    units.update({f"{name}.self_share": "%" for name in SELF_SHARES})
    units.update({f"layer.{layer}.self_share": "%" for layer in LAYERS})
    units["layer.unattributed.self_share"] = "%"
    units["oracle.gf.table_build.setup_share"] = "%"
    units["trace.overhead_share"] = "%"
    return units


# -- environment -------------------------------------------------------------


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def sample_env() -> dict:
    """Environment of every sample process: BLAS/OpenMP threads capped at nproc."""
    env = dict(os.environ)
    threads = str(nproc())
    env.update(
        OPENBLAS_NUM_THREADS=threads,
        OMP_NUM_THREADS=threads,
        MKL_NUM_THREADS=threads,
        PYTHONHASHSEED="0",
    )
    return env


def environment() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    env = sample_env()
    return {
        "nproc": nproc(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "OPENBLAS_NUM_THREADS": env["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": env["OMP_NUM_THREADS"],
    }


# -- samples -----------------------------------------------------------------


def run_sample(workload, keys: list, trace: bool, timeout: float) -> dict:
    """Run one fresh sample process; a crash or timeout fails all its instances."""
    spec = {
        "root": str(ROOT),
        "workload": {
            "name": workload.name,
            "parts": [dataclasses.asdict(part) for part in workload.parts],
            "oracle": workload.oracle,
        },
        "keys": keys,
        "trace": trace,
    }
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "sample.py")],
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            timeout=timeout,
            env=sample_env(),
            cwd=ROOT,
        )
        if proc.returncode == 0:
            return json.loads(proc.stdout.strip().splitlines()[-1])
        error = f"sample exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}"
    except subprocess.TimeoutExpired:
        error = f"sample did not finish within {timeout:.0f} s"
    return {
        "error": error,
        "instances": [{"key": k, "seconds": None, "ok": False, "digest": None, "error": error} for k in keys],
    }


def calibration_reading(timeout: float) -> float:
    """One host-speed reading from calibrate.py, in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, str(HERE / "calibrate.py")],
        capture_output=True, text=True, timeout=timeout, env=sample_env(), cwd=ROOT, check=True,
    )
    return float(proc.stdout.strip().splitlines()[-1])


def collect(workload, seed: int, seconds: float, trace: bool) -> dict:
    """Start processes until the time budget is spent; returns the raw samples.

    A calibration reading is taken before the first process and after each
    one; every process records the mean of the readings around it.
    """
    start = time.monotonic()
    import gl2diamond.oracle.vectors  # noqa: F401  (compiles the package before any sample is timed)
    import tracer  # noqa: F401
    import workloads

    pools = [workloads.pool(part) for part in workload.parts]
    orders = [workloads.order(keys, seed, part) for keys, part in zip(pools, workload.parts)]

    def slice_keys(index):
        return [
            key
            for part, ordered in zip(workload.parts, orders)
            for key in workloads.chunk(ordered, index, part.per_sample)
        ]

    def remaining():
        return max(1.0, HARD_LIMIT_S + 25.0 - (time.monotonic() - start))

    readings = [calibration_reading(remaining())]

    def sample(keys, traced):
        out = run_sample(workload, keys, traced, remaining())
        readings.append(calibration_reading(remaining()))
        out["calibration_s"] = (readings[-2] + readings[-1]) / 2
        return out

    probes = [sample([], False) for _ in range(SETUP_PROBES)]
    untraced, traced, rounds = [], [], []
    while True:
        t0 = time.monotonic()
        if trace:
            untraced.append(sample(slice_keys(0), False))
            traced.append(sample(slice_keys(0), True))
        else:
            untraced.append(sample(slice_keys(len(untraced)), False))
        rounds.append(time.monotonic() - t0)
        elapsed = time.monotonic() - start
        est = statistics.median(rounds)
        if elapsed + est > HARD_LIMIT_S:
            break
        if elapsed + est > seconds and (trace or len(untraced) >= MIN_UNTRACED_SAMPLES):
            break
    return {"pools": pools, "probes": probes, "untraced": untraced, "traced": traced, "readings": readings}


# -- checks ------------------------------------------------------------------


def check_answers(workload, raw: dict, expected: dict | None) -> list:
    """Problems with the run's answers; marks instances whose digest differs as failed."""
    import workloads

    problems = [s["error"] for s in raw["probes"] + raw["untraced"] + raw["traced"] if "error" in s]
    if expected is None:
        return problems
    recorded = expected.get(workload.name)
    if recorded is None:
        return problems + [f"no recorded answers for {workload.name} in {EXPECTED.name}"]
    answers = {}
    for part, keys in zip(workload.parts, raw["pools"]):
        rec = recorded.get(workloads.part_id(part))
        if rec is None:
            problems.append(f"no recorded answers for {workloads.part_id(part)}")
            continue
        key_strs = [workloads.key_str(k) for k in keys]
        if len(key_strs) != rec["count"] or set(key_strs) != set(rec["answers"]):
            problems.append(f"pool {workloads.part_id(part)} differs from the recorded pool")
        if workloads.digest(sorted(rec["answers"].items())) != rec["digest"]:
            problems.append(f"recorded answers of {workloads.part_id(part)} do not match their digest")
        answers.update(rec["answers"])
    for sample in raw["untraced"] + raw["traced"]:
        for inst in sample["instances"]:
            want = answers.get(workloads.key_str(inst["key"]))
            if inst["ok"] and inst["digest"] != want:
                inst["ok"] = False
                inst["error"] = f"answer digest {inst['digest']} differs from recorded {want}"
                problems.append(f"{inst['key']}: {inst['error']}")
    return problems


def check_self_times(raw: dict) -> list:
    """The spans' self times are disjoint parts of the instances' wall time."""
    problems = []
    for sample in raw["traced"]:
        if "error" in sample:
            continue
        total = sum(sample["trace"]["self_s"].values())
        if total > sample["verify_s"] * (1 + 1e-9) + 1e-6:
            problems.append(f"span self times add up to {total:.6f} s > verify_s {sample['verify_s']:.6f} s")
    return problems


# -- metrics -----------------------------------------------------------------


def _good(samples: list) -> list:
    return [s for s in samples if "error" not in s]


def tail(values: list) -> tuple:
    """The highest of p99/p95/p90/p75/p50 with at least ten samples beyond it."""
    n = len(values)
    for pct in (99, 95, 90, 75):
        if n * (100 - pct) / 100 >= 10:
            return pct, statistics.quantiles(values, n=100, method="inclusive")[pct - 1]
    return 50, statistics.median(values)


def scale(sample: dict) -> float:
    """Factor that converts a sample's seconds to seconds at the nominal host speed."""
    return CAL_NOMINAL_S / sample["calibration_s"]


def end_to_end(workload, raw: dict) -> tuple:
    samples = _good(raw["untraced"])
    processes = _good(raw["probes"]) + samples
    primary = workload.parts[0].kind
    inst = [(i["seconds"], s) for s in samples for i in s["instances"] if i["key"][0] == primary]
    if not samples or not inst:
        return None, {}
    metrics = {
        "setup_s": statistics.median(s["setup_s"] * scale(s) for s in processes),
        "verify_s": statistics.median(s["verify_s"] * scale(s) for s in samples),
        "instance_p50_s": statistics.median(t * scale(s) for t, s in inst),
        "peak_rss_mb": statistics.median(s["peak_rss_mb"] for s in samples),
    }
    pct, value = tail([t * scale(s) for t, s in inst])
    raw_median = {
        "setup_s": statistics.median(s["setup_s"] for s in processes),
        "verify_s": statistics.median(s["verify_s"] for s in samples),
        "instance_p50_s": statistics.median(t for t, _ in inst),
    }
    notes = {
        "setup_s": f"n={len(processes)} processes, unscaled {raw_median['setup_s']:.4f} s",
        "verify_s": f"n={len(samples)} samples, unscaled {raw_median['verify_s']:.4f} s",
        "instance_p50_s": f"n={len(inst)} instances, p{pct}={value:.4f} s, unscaled p50 {raw_median['instance_p50_s']:.4f} s",
        "peak_rss_mb": f"n={len(samples)} samples",
    }
    return metrics, notes


def per_layer(raw: dict) -> dict | None:
    from tracer import LAYERS, ROOT as ROOT_SPAN, layer_of

    traced, untraced = _good(raw["traced"]), _good(raw["untraced"])
    if not traced or not untraced:
        return None
    first = traced[0]["trace"]
    metrics = {f"{name}.calls": first["calls"].get(name, 0) for name in CALLS}
    metrics["oracle.gf.matmul.ops"] = first["matmul_ops"]
    metrics["oracle.gf.matmul.bytes"] = first["matmul_bytes"]
    inserts = first["calls"].get("oracle.gf.subspace_insert", 0)
    metrics["oracle.gf.subspace_insert.useful_ratio"] = first["useful_inserts"] / inserts if inserts else 0.0

    def share(seconds, sample):
        return 100.0 * seconds / sample["verify_s"] if sample["verify_s"] > 0 else 0.0

    for name in SELF_SHARES:
        metrics[f"{name}.self_share"] = statistics.median(
            share(s["trace"]["self_s"].get(name, 0.0), s) for s in traced
        )
    for layer in LAYERS:
        metrics[f"layer.{layer}.self_share"] = statistics.median(
            share(sum(v for k, v in s["trace"]["self_s"].items() if layer_of(k) == layer), s) for s in traced
        )
    metrics["layer.unattributed.self_share"] = statistics.median(
        share(s["trace"]["self_s"].get(ROOT_SPAN, 0.0), s) for s in traced
    )
    metrics["oracle.gf.table_build.setup_share"] = statistics.median(
        100.0 * s["table_build_s"] / s["setup_s"] for s in untraced
    )
    plain = statistics.median(s["verify_s"] * scale(s) for s in untraced)
    with_spans = statistics.median(s["verify_s"] * scale(s) for s in traced)
    metrics["trace.overhead_share"] = 100.0 * (with_spans - plain) / plain
    return metrics


def spans_report(raw: dict) -> dict:
    """Calls and self seconds of every span and counter, summed over traced samples."""
    calls, self_s = {}, {}
    for s in _good(raw["traced"]):
        for k, v in s["trace"]["calls"].items():
            calls[k] = calls.get(k, 0) + v
        for k, v in s["trace"]["self_s"].items():
            self_s[k] = self_s.get(k, 0.0) + v
    return {
        "traced_samples": len(_good(raw["traced"])),
        "traced_verify_s": [s["verify_s"] for s in _good(raw["traced"])],
        "untraced_verify_s": [s["verify_s"] for s in _good(raw["untraced"])],
        "table_build_s": [s["table_build_s"] for s in _good(raw["untraced"])],
        "calls": dict(sorted(calls.items())),
        "self_s": dict(sorted(self_s.items())),
        "missing": sorted({m for s in _good(raw["traced"]) for m in s["trace"]["missing"]}),
    }


# -- entry point -------------------------------------------------------------


def declared_metrics() -> tuple:
    with open(ROOT / "BENCHMARK.json") as fh:
        bench = json.load(fh)
    return [m["name"] for m in bench["end_to_end"]], [m["name"] for m in bench["per_layer"]]


def run(workload, seed: int, seconds: float, trace: bool, expected: dict | None) -> dict:
    """Measure one workload; returns the result object and writes the details."""
    e2e_names, layer_names = declared_metrics()
    units = per_layer_units() if trace else END_TO_END
    if sorted(units) != sorted(layer_names if trace else e2e_names):
        raise SystemExit("the metrics this harness computes differ from those declared in BENCHMARK.json")

    raw = collect(workload, seed, seconds, trace)
    problems = check_answers(workload, raw, expected)
    instances = [i for s in raw["untraced"] + raw["traced"] for i in s["instances"]]
    failed = sum(not i["ok"] for i in instances)
    details = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
               "environment": environment()}
    if trace:
        problems += check_self_times(raw)
        values = per_layer(raw)
        details["spans"] = spans_report(raw)
    else:
        values, details["notes"] = end_to_end(workload, raw)
        details["calibration_readings"] = raw["readings"]
        details["processes"] = [
            {k: s.get(k) for k in ("setup_s", "verify_s", "peak_rss_mb", "calibration_s")}
            for s in _good(raw["probes"]) + _good(raw["untraced"])
        ]
        details["instances"] = [
            {k: i[k] for k in ("key", "seconds", "ok", "digest", "error")} for i in instances
        ]
    if not instances:
        problems.append("no instance ran")
    if values is None:
        problems.append("no sample finished")
        values = {name: 0.0 for name in units}
    details.update(attempted=len(instances), failed=failed, problems=problems)
    details["fail_ratio"] = failed / len(instances) if instances else 1.0
    details["metrics"] = {name: {"value": values[name], "unit": unit} for name, unit in units.items()}

    OUT_DIR.mkdir(exist_ok=True)
    kind = "spans" if trace else "metrics"
    out_path = OUT_DIR / f"{workload.name}.seed{seed}.{kind}.json"
    out_path.write_text(json.dumps(details, indent=1))
    return {
        "correct": not problems and failed == 0,
        "attempted": max(len(instances), 1),
        "failed": failed if instances else 1,
        "metrics": details["metrics"],
        "details": details,
        "path": out_path,
    }


def print_summary(result: dict) -> None:
    d = result["details"]
    env = d["environment"]
    print(f"workload {d['workload']}  seed {d['seed']}  trace {int(d['trace'])}  -> {result['path']}")
    print("environment " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, metric in d["metrics"].items():
        note = d.get("notes", {}).get(name, "")
        print(f"  {name:44s} {metric['value']:14.6g} {metric['unit']:6s} {note}")
    print(f"  {'fail_ratio':44s} {d['fail_ratio']:14.6g} {'ratio':6s} ({d['failed']}/{d['attempted']} instances)")
    for problem in d["problems"][:20]:
        print(f"  problem: {problem}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "gl2diamond" / "__init__.py").is_file():
        print(f"error: no package source at {ROOT / 'src' / 'gl2diamond'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    with open(EXPECTED) as fh:
        expected = json.load(fh)
    result = run(workloads.WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace), expected)
    print_summary(result)
    print(json.dumps({k: result[k] for k in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
