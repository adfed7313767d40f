"""Spans and counters around starkit's public functions, from outside.

install() replaces each traced function or method with a wrapper that
records its calls, its inclusive time and its self time (the span
minus the time its traced children cover), plus per-layer counts read
from the arguments and results.  Nothing in starkit changes: module
attributes and class attributes are rebound, including every copy a
starkit module imported by name.  Call sites that must be traced have
to look the function up through its module or class after install().
"""

from __future__ import annotations

import sys
import time
from math import comb

from run import load_spec

# span name -> (module, attribute path); several targets may share a name
TARGETS = [
    ("kernel.mmul", "starkit._kernel", "mmul"),
    ("kernel.maddmul", "starkit._kernel", "maddmul"),
    ("kernel.madd", "starkit._kernel", "madd"),
    ("kernel.mdiff", "starkit._kernel", "mdiff"),
    ("poly.subst", "starkit.poly", "SparsePoly.subst"),
    ("poly.affine_subst", "starkit.poly", "SparsePoly.affine_subst"),
    ("linalg.mat_inv", "starkit.linalg", "mat_inv"),
    ("linalg.mat_vec", "starkit.linalg", "mat_vec"),
    ("poisson.bivector_from_form", "starkit.poisson", "bivector_from_form"),
    ("poisson.bracket", "starkit.poisson", "PoissonBivector.bracket"),
    ("moyal.star", "starkit.moyal", "StarProduct.star"),
    ("moyal.star_series", "starkit.moyal", "StarProduct.star_series"),
    ("moyal.bidiff", "starkit.moyal", "StarProduct._bidiff"),
    ("atlas.ingest_polygon", "starkit.atlas", "ingest_polygon"),
    ("atlas.chartmap_inverse", "starkit.atlas", "ChartMap.inverse"),
    ("atlas.overlap_agreement_check", "starkit.atlas",
     "overlap_agreement_check"),
    ("atlas.cocycle_check", "starkit.atlas", "cocycle_check"),
    ("atlas.liouville_pullback_check", "starkit.atlas",
     "liouville_pullback_check"),
    ("multi.product_space", "starkit.multi", "ProductSpace.__init__"),
    ("multi.permute_poly", "starkit.multi", "permute_poly"),
    ("multi.symmetrize", "starkit.multi", "symmetrize"),
    ("multi.is_symmetric", "starkit.multi", "is_symmetric"),
    ("multi.equivariance_check", "starkit.multi", "equivariance_check"),
    ("multi.hitchin_commutation_check", "starkit.multi",
     "hitchin_commutation_check"),
    ("transport.check_symplecto", "starkit.transport", "check_symplecto"),
    ("transport.psi_map", "starkit.transport", "psi_map"),
    ("transport.psi_inverse", "starkit.transport", "psi_inverse"),
    ("transport.pullback_bracket", "starkit.transport", "pullback_bracket"),
    ("transport.verify_transported_dq", "starkit.transport",
     "verify_transported_dq"),
    ("cli.main", "starkit.cli", "main"),
    ("parsing.parse", "starkit.parsing", "_Parser.parse"),
    ("parsing.format", "starkit.parsing", "poly_to_str"),
    ("parsing.format", "starkit.parsing", "series_to_str"),
]

# the per-layer metrics, in report order: (metric name, unit)
METRICS = [(m["name"], m["unit"]) for m in load_spec()["per_layer"]]


class Tracer:
    """Aggregates spans per name; one instance per traced process."""

    def __init__(self):
        self.calls: dict = {}
        self.incl: dict = {}
        self.self_time: dict = {}
        self.depth: dict = {}
        self.counts: dict = {}
        self.peak_terms = 0
        self._children: list = []  # child time of each open span

    def count(self, key: str, amount) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def inside(self, name: str) -> bool:
        return self.depth.get(name, 0) > 0

    def wrap(self, name: str, fn, after=None):
        """A traced stand-in for fn; after(tracer, args, result) counts."""
        clock = time.perf_counter
        children = self._children

        def traced(*args, **kwargs):
            self.calls[name] = self.calls.get(name, 0) + 1
            outer = self.depth.get(name, 0) == 0
            self.depth[name] = self.depth.get(name, 0) + 1
            children.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span = clock() - start
                covered = children.pop()
                self.depth[name] -= 1
                if outer:
                    self.incl[name] = self.incl.get(name, 0.0) + span
                self.self_time[name] = (self.self_time.get(name, 0.0)
                                        + span - covered)
                if children:
                    children[-1] += span
            if after is not None:
                after(self, args, result)
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def metrics(self, output_bytes: int, overhead: float) -> dict:
        """Every per-layer metric by name, zero where a layer never ran."""
        values = {}
        for key, unit in METRICS:
            base, _, field = key.rpartition(".")
            if field == "calls":
                value = self.calls.get(base, 0)
            elif field == "s":
                value = self.incl.get(base, 0.0)
            elif field == "self_s":
                value = self.self_time.get(base, 0.0)
            else:
                value = self.counts.get(key, 0)
            values[key] = value
        values["kernel.peak_terms"] = self.peak_terms
        out_terms = self.counts.get("poly.subst.terms_out", 0)
        values["poly.subst.swell"] = (
            self.counts.get("poly.subst.kernel_terms", 0) / out_terms
            if out_terms else 0.0)
        multisets = self.counts.get("moyal.bidiff.multisets", 0)
        values["moyal.bidiff.useful_ratio"] = (
            self.counts.get("moyal.bidiff.useful", 0) / multisets
            if multisets else 0.0)
        values["cli.output_bytes"] = output_bytes
        values["trace.overhead"] = overhead
        return {key: {"value": values[key], "unit": unit}
                for key, unit in METRICS}


def _kernel_out(tracer: Tracer, size: int) -> None:
    tracer.peak_terms = max(tracer.peak_terms, size)
    if tracer.inside("poly.subst"):
        tracer.count("poly.subst.kernel_terms", size)


def _after_mmul(tracer, args, result):
    tracer.count("kernel.mmul.term_products", len(args[0]) * len(args[1]))
    tracer.count("kernel.mmul.terms_out", len(result))
    _kernel_out(tracer, len(result))


def _after_maddmul(tracer, args, result):
    tracer.count("kernel.maddmul.term_products", len(args[1]) * len(args[2]))
    if tracer.inside("moyal.bidiff"):
        tracer.count("moyal.bidiff.useful", 1)
    _kernel_out(tracer, len(result))


def _after_madd(tracer, args, result):
    tracer.count("kernel.madd.terms_in", len(args[0]) + len(args[1]))
    _kernel_out(tracer, len(result))


def _after_subst(tracer, args, result):
    tracer.count("poly.subst.terms_out", len(result))


def _after_bidiff(tracer, args, result):
    star, k = args[0], args[1]
    tracer.count("moyal.bidiff.multisets", comb(len(star._pairs) + k - 1, k))


AFTER = {
    "kernel.mmul": _after_mmul,
    "kernel.maddmul": _after_maddmul,
    "kernel.madd": _after_madd,
    "poly.subst": _after_subst,
    "moyal.bidiff": _after_bidiff,
}


def install() -> Tracer:
    """Rebind every target to a traced wrapper; starkit must be imported."""
    tracer = Tracer()
    modules = [m for key, m in list(sys.modules.items())
               if m is not None and (key == "starkit"
                                     or key.startswith("starkit."))]
    for name, module_name, path in TARGETS:
        owner = sys.modules[module_name]
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part)
        original = owner.__dict__[attr]
        wrapper = tracer.wrap(name, original, AFTER.get(name))
        setattr(owner, attr, wrapper)
        if not outer:
            # the same function imported by name into other modules
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)
    return tracer
