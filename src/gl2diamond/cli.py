"""Command-line driver: weight tables, block displays, verification sweeps.

Subcommands:
  diamond     the 2^f weights of a generic parameter with subsets and delta orbit
  d0          the blocks of the maximal multiplicity-free representation
  verify      run one verification suite; exit 0 on pass, 1 on any failure
  filtration  render one of the explicit socle-filtration displays

Exit codes: 0 success, 1 verification failure, 2 usage or domain error
(an unwritable --out path included).
Output is deterministic for a fixed argument list.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .core import DomainError, Params, Weight
from .diamond import GaloisParams, d0_factors, delta_of_tau, diamond_set
from .filtration import example1_filtration, v1_s1_filtrations
from .tuples import S_of_mu
from .verify import CASES, SUITES, RunConfig, run_suite


def _parse_r(text: str, f: int) -> tuple:
    parts = [p for p in text.replace(",", " ").split() if p]
    if len(parts) != f:
        raise DomainError(f"expected {f} components in --r, got {len(parts)}")
    try:
        return tuple(int(x) for x in parts)
    except ValueError as exc:
        raise DomainError(f"--r takes integer components ({exc})") from None


def _rho_from_args(args) -> GaloisParams:
    params = Params(args.p, args.f)
    if args.r is None:
        raise DomainError("--r is required for this command")
    r = _parse_r(args.r, args.f)
    return GaloisParams(params, args.case.startswith("red"), r, args.twist)


def _emit(args, payload_text: str, payload_json):
    if args.format == "json":
        # encoded piecewise, so a large report never exists as one string
        chunks = json.JSONEncoder(indent=2, sort_keys=True).iterencode(payload_json)
    else:
        chunks = iter((payload_text,))
    if not args.out:
        _write(sys.stdout, chunks)
        return
    try:
        with open(args.out, "w") as fh:
            _write(fh, chunks)
    except OSError as exc:
        raise DomainError(f"cannot write --out {args.out}: {exc.strerror}") from None


def _write(fh, chunks) -> None:
    # one write per batch of chunks: under python -u or PYTHONUNBUFFERED,
    # stdout makes a system call per write
    while batch := "".join(itertools.islice(chunks, 8192)):
        fh.write(batch)
    fh.write("\n")


def cmd_diamond(args) -> int:
    rho = _rho_from_args(args)
    rows = []
    for dw in diamond_set(rho):
        socle = [fac for fac in d0_factors(rho, dw) if fac.is_socle][0]
        delta = delta_of_tau(rho, dw, socle)
        rows.append(
            {
                "weight": str(dw.weight),
                "subset": sorted(dw.S),
                "ell": dw.ell,
                "delta": str(delta.weight),
            }
        )
    text = [f"weight set of {rho}  (|set| = {len(rows)})"]
    for row in rows:
        text.append(
            f"  {row['weight']:<24} S={str(row['subset']):<12} ell={row['ell']}  delta -> {row['delta']}"
        )
    _emit(args, "\n".join(text), {"rho": str(rho), "weights": rows})
    return 0


def cmd_d0(args) -> int:
    rho = _rho_from_args(args)
    blocks = []
    for dw in diamond_set(rho):
        entries = []
        for fac in d0_factors(rho, dw):
            ent = {
                "weight": str(fac.weight),
                "mu": [s.label("y") for s in fac.mu],
                "level": len(S_of_mu(fac.mu)),
                "lifts": fac.lifts,
            }
            if fac.lifts:
                ent["delta"] = str(delta_of_tau(rho, dw, fac).weight)
            entries.append(ent)
        blocks.append({"socle": str(dw.weight), "subset": sorted(dw.S), "factors": entries})
    text = [f"blocks of the maximal multiplicity-free representation over {rho}"]
    for blk in blocks:
        text.append(f"  socle {blk['socle']}  S={blk['subset']}")
        by_level: dict = {}
        for ent in blk["factors"]:
            by_level.setdefault(ent["level"], []).append(ent)
        for level in sorted(by_level):
            cells = []
            for ent in by_level[level]:
                mark = "*" if ent["lifts"] else " "
                cell = f"{ent['weight']}{mark}"
                if "delta" in ent:
                    cell += f" (delta -> {ent['delta']})"
                cells.append(cell)
            text.append(f"    layer {level}: " + "  |  ".join(cells))
    text.append("  (* = invariants lift to the block)")
    _emit(args, "\n".join(text), {"rho": str(rho), "blocks": blocks})
    return 0


def cmd_verify(args) -> int:
    config = RunConfig(
        p=args.p,
        f=args.f,
        case=args.case,
        r=_parse_r(args.r, args.f) if args.r else None,
        twist=args.twist,
        suite=args.suite,
        seed=args.seed,
    )
    checks = run_suite(config)
    failures = [c for c in checks if c["status"] != "pass"]
    summary = f"suite {args.suite}: {len(checks) - len(failures)}/{len(checks)} checks passed"
    lines = [summary]
    for c in failures:
        lines.append(f"  FAIL {c['anchor']} [{c['instance']}] expected={c['expected']} got={c['got']}")
    _emit(args, "\n".join(lines), {"suite": args.suite, "checks": checks, "passed": not failures})
    return 1 if failures else 0


def cmd_filtration(args) -> int:
    params = Params(args.p, args.f)
    if args.which == "example1":
        if args.case == "reducible":
            raise DomainError("example1 takes a weight, not a parameter, so it does not read --case")
        if args.r is None:
            raise DomainError("--r gives the base weight digits for example1")
        sigma = Weight(params, _parse_r(args.r, args.f), args.twist)
        ex = example1_filtration(sigma, args.j)
        text = [
            f"two-row display for {sigma}, slot {args.j} "
            f"(pivot digit {ex.r_pivot}, t={ex.t})",
            ex.layers.render(),
            "coincidences: " + "; ".join(f"{n}: {a} ~ {b}" for n, a, b in ex.coincidences),
        ]
        payload = {
            "sigma": str(sigma),
            "layers": [[str(w) for w in layer] for layer in ex.layers.layers],
        }
    else:
        if args.j != 0:
            raise DomainError(f"{args.which} has no slot, so it does not read --j")
        rho = _rho_from_args(args)
        vs = v1_s1_filtrations(rho)
        fl = vs.v1 if args.which == "v1" else vs.s1
        text = [f"{args.which} filtration over {rho}", fl.render()]
        payload = {
            "rho": str(rho),
            "layers": [[str(w) for w in layer] for layer in fl.layers],
        }
    _emit(args, "\n".join(text), payload)
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="gl2diamond", description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def common(sp, cases=("reducible", "irreducible")):
        sp.add_argument("--p", type=int, default=5)
        sp.add_argument("--f", type=int, default=2)
        sp.add_argument("--case", choices=cases, default="irreducible")
        sp.add_argument("--r", type=str, default=None, help="comma-separated digit vector")
        sp.add_argument("--twist", type=int, default=0)
        sp.add_argument("--format", choices=["text", "json"], default="text")
        sp.add_argument("--out", type=str, default=None)

    sp = sub.add_parser("diamond", help="weight set with subsets and delta orbit")
    common(sp)
    sp.set_defaults(func=cmd_diamond)

    sp = sub.add_parser("d0", help="blocks of the maximal multiplicity-free representation")
    common(sp)
    sp.set_defaults(func=cmd_d0)

    sp = sub.add_parser("verify", help="run a verification suite")
    common(sp, CASES)
    sp.add_argument("--suite", choices=sorted(SUITES), default="jh")
    sp.add_argument("--seed", type=int, default=0)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("filtration", help="render an explicit filtration display")
    common(sp)
    sp.add_argument("which", choices=["example1", "v1", "s1"])
    sp.add_argument("--j", type=int, default=0)
    sp.set_defaults(func=cmd_filtration)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.func(args)
    except DomainError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
