"""Spans and counters wrapped around the package's public functions.

Spans are kept in memory, aggregated per name: calls and self time, which
is a span's duration minus the time covered by the spans it called.
Counters only count calls, for functions called too often to time.  A
wrapper replaces a function wherever a module of the package holds a
reference to it, so callers that imported the name by value see it too.
Names that no longer exist are reported as missing rather than failing.
"""

from __future__ import annotations

import sys
from collections import defaultdict
from time import perf_counter

ROOT = "instance"  # the harness's own span around one instance; its self time is unattributed

# metric name -> (module, attribute); "Class.method" patches the class.  More
# functions are wrapped than run.py reports, so that time spent in one layer
# is not counted as self time of a caller in another.
SPANS = {
    "oracle.gf.matmul": ("gl2diamond.oracle.gf", "GF.matmul"),
    "oracle.gf.subspace_insert": ("gl2diamond.oracle.gf", "Subspace.insert"),
    "oracle.gf.subspace_reduce": ("gl2diamond.oracle.gf", "Subspace.reduce"),
    "oracle.gf.subspace_express": ("gl2diamond.oracle.gf", "Subspace.express"),
    "oracle.gf.spin": ("gl2diamond.oracle.gf", "spin"),
    "oracle.gf.nullspace": ("gl2diamond.oracle.gf", "nullspace"),
    "oracle.gr.mat_mul": ("gl2diamond.oracle.gr", "GR.mat_mul"),
    "oracle.gr.mat_inv": ("gl2diamond.oracle.gr", "GR.mat_inv"),
    "oracle.groups.coset_decompose": ("gl2diamond.oracle.groups", "GroupContext.coset_decompose"),
    "oracle.modules.gen_mats": ("gl2diamond.oracle.modules", "ExplicitModule.gen_mats"),
    "oracle.modules.induce": ("gl2diamond.oracle.modules", "induce"),
    "oracle.modules.character_module": ("gl2diamond.oracle.modules", "character_module"),
    "oracle.modules.ej_module": ("gl2diamond.oracle.modules", "ej_module"),
    "oracle.modules.sub_module": ("gl2diamond.oracle.modules", "sub_module"),
    "oracle.modules.quotient_module": ("gl2diamond.oracle.modules", "quotient_module"),
    "oracle.modules.invariants": ("gl2diamond.oracle.modules", "invariants"),
    "oracle.modules.h_eigen_split": ("gl2diamond.oracle.modules", "h_eigen_split"),
    "oracle.modules.hom_from_weight": ("gl2diamond.oracle.modules", "hom_from_weight"),
    "oracle.modules.socle_data": ("gl2diamond.oracle.modules", "socle_data"),
    "oracle.modules.jh_multiset": ("gl2diamond.oracle.modules", "jh_multiset"),
    "oracle.modules.socle_weights": ("gl2diamond.oracle.modules", "socle_weights"),
    "oracle.vectors.verify_ind_ej": ("gl2diamond.oracle.vectors", "verify_ind_ej"),
    "oracle.vectors.coset_sum_vector": ("gl2diamond.oracle.vectors", "coset_sum_vector"),
    "diamond.verify_combination": ("gl2diamond.diamond", "verify_combination"),
    "diamond.diamond_set": ("gl2diamond.diamond", "diamond_set"),
    "diamond.d0_all": ("gl2diamond.diamond", "d0_all"),
    "diamond.d0_factors": ("gl2diamond.diamond", "d0_factors"),
    "diamond.delta_data": ("gl2diamond.diamond", "delta_data"),
    "principal.jh_of_induced": ("gl2diamond.principal", "jh_of_induced"),
    "principal.socle_of_induced": ("gl2diamond.principal", "socle_of_induced"),
    "filtration.f2_tables": ("gl2diamond.filtration", "f2_tables"),
    "filtration.v1_s1_filtrations": ("gl2diamond.filtration", "v1_s1_filtrations"),
}

# called ~10^5 times or more per sample: counted, not timed
COUNTERS = {
    "oracle.gr.mul": ("gl2diamond.oracle.gr", "GR.mul"),
    "oracle.groups.char_value": ("gl2diamond.oracle.groups", "GroupContext.char_value"),
    "tuples.eval_tuple": ("gl2diamond.tuples", "eval_tuple"),
    "tuples.compatible": ("gl2diamond.tuples", "compatible"),
    "couples.couple_type": ("gl2diamond.couples", "couple_type"),
    "core.char_normal_form": ("gl2diamond.core", "char_normal_form"),
}

# ExplicitModule.evaluate is an instance attribute, wrapped as each module is built
EVALUATE = "oracle.modules.evaluate"

LAYERS = (
    "core", "tuples", "principal", "couples", "diamond", "filtration",
    "oracle.gf", "oracle.gr", "oracle.groups", "oracle.modules", "oracle.vectors",
)


def layer_of(name: str) -> str:
    return name.rsplit(".", 1)[0]


class Tracer:
    def __init__(self):
        self.calls = defaultdict(int)
        self.self_s = defaultdict(float)
        self.matmul_ops = 0
        self.matmul_bytes = 0
        self.useful_inserts = 0
        self.missing: list = []
        self._stack: list = []  # one [time covered by child spans] cell per open span

    def span(self, name: str, fn, after=None):
        calls, self_s, stack = self.calls, self.self_s, self._stack

        def wrapper(*args, **kwargs):
            calls[name] += 1
            cell = [0.0]
            stack.append(cell)
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                dur = perf_counter() - t0
                stack.pop()
                self_s[name] += dur - cell[0]
                if stack:
                    stack[-1][0] += dur
            if after is not None:
                after(args, out)
            return out

        return wrapper

    def counter(self, name: str, fn):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _after_matmul(self, args, out):
        m, n = out.shape
        k = len(args[1][0]) if m else 0
        self.matmul_ops += m * k * n
        self.matmul_bytes += 8 * (m * k + k * n + m * n)

    def _after_insert(self, args, grew):
        self.useful_inserts += bool(grew)

    def install(self) -> None:
        """Wrap every listed function in the imported package."""
        import importlib

        for mod_name, _ in {**SPANS, **COUNTERS}.values():
            importlib.import_module(mod_name)
        after = {"oracle.gf.matmul": self._after_matmul, "oracle.gf.subspace_insert": self._after_insert}
        for name, (mod_name, attr) in SPANS.items():
            self._replace(name, mod_name, attr, lambda n, fn: self.span(n, fn, after.get(n)))
        for name, (mod_name, attr) in COUNTERS.items():
            self._replace(name, mod_name, attr, self.counter)
        self._wrap_evaluate()

    def _replace(self, name, mod_name, attr, make) -> None:
        module = sys.modules[mod_name]
        if "." in attr:
            cls_name, meth = attr.split(".")
            cls = getattr(module, cls_name, None)
            if cls is None or meth not in vars(cls):
                self.missing.append(name)
                return
            setattr(cls, meth, make(name, vars(cls)[meth]))
            return
        orig = getattr(module, attr, None)
        if orig is None:
            self.missing.append(name)
            return
        wrapped = make(name, orig)
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("gl2diamond"):
                for key, val in list(vars(other).items()):
                    if val is orig:
                        setattr(other, key, wrapped)

    def _wrap_evaluate(self) -> None:
        modules = sys.modules["gl2diamond.oracle.modules"]
        cls = getattr(modules, "ExplicitModule", None)
        if cls is None:
            self.missing.append(EVALUATE)
            return
        init = cls.__init__
        span = self.span

        def traced_init(obj, *args, **kwargs):
            init(obj, *args, **kwargs)
            if "evaluate" in vars(obj):
                obj.evaluate = span(EVALUATE, obj.evaluate)

        cls.__init__ = traced_init

    def summary(self) -> dict:
        return {
            "calls": dict(self.calls),
            "self_s": dict(self.self_s),
            "matmul_ops": self.matmul_ops,
            "matmul_bytes": self.matmul_bytes,
            "useful_inserts": self.useful_inserts,
            "missing": self.missing,
        }
