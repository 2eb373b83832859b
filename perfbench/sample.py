"""One benchmark sample: a fresh interpreter that sets up, runs instances, reports.

Reads a JSON spec on standard input:
  {"root": checkout, "workload": {...}, "keys": [...], "trace": bool}
and prints one JSON line with its set-up time, the wall time of its
instances, each instance's time, verdict and digest, its peak resident
memory and, when traced, the aggregated spans and counters.  Run by run.py;
the package is imported from <root>/src and nowhere else.
"""

from time import perf_counter

START = perf_counter()

import json  # noqa: E402
import resource  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402


def main() -> int:
    spec = json.load(sys.stdin)
    src = Path(spec["root"]) / "src"
    sys.path.insert(0, str(src))
    import gl2diamond

    if Path(gl2diamond.__file__).resolve().parent != (src / "gl2diamond").resolve():
        raise SystemExit(f"imported gl2diamond from {gl2diamond.__file__}, not from {src}")

    import workloads

    tracer = None
    if spec["trace"]:
        from tracer import ROOT, Tracer

        tracer = Tracer()
        tracer.install()
    workload = workloads.Workload(
        spec["workload"]["name"],
        tuple(workloads.Part(**part) for part in spec["workload"]["parts"]),
        spec["workload"]["oracle"],
    )
    table_build_s = workloads.setup(workload)
    setup_s = perf_counter() - START

    run_one = workloads.run_instance if tracer is None else tracer.span(ROOT, workloads.run_instance)
    results = []
    t_verify = perf_counter()
    for key in spec["keys"]:
        t0 = perf_counter()
        try:
            record = run_one(key)
            error = ""
        except Exception:
            record, error = None, traceback.format_exc(limit=3)
        dt = perf_counter() - t0
        results.append((key, dt, record, error))
    verify_s = perf_counter() - t_verify

    instances = []
    for key, dt, record, error in results:
        ok = record is not None and workloads.verdict(record)
        instances.append({
            "key": key,
            "seconds": dt,
            "ok": ok,
            "digest": workloads.digest(record) if record is not None else None,
            "error": error,
        })
    out = {
        "setup_s": setup_s,
        "table_build_s": table_build_s,
        "verify_s": verify_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "instances": instances,
        "trace": tracer.summary() if tracer is not None else None,
    }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
