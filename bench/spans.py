"""Spans and counters recorded from outside ``snckit``.

``Tracer.install()`` wraps the public functions of each ``snckit``
module and a few class methods; ``uninstall()`` puts the originals
back.  Modules import each other's functions by name (``from .matrices
import snf``), so every module attribute that is the original function
is replaced, not only the defining one; methods are patched on their
class.

Spans are kept in memory as ``(name, start, end, parent, job)`` and
written out as JSON lines at the end.  Counters are derived from the
arguments and results the wrappers see, so they repeat exactly for the
same inputs.
"""

from __future__ import annotations

import importlib
import json
import sys
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = ("matrices", "groups", "complexes", "homology", "snc", "galois",
          "reciprocity", "config_io", "cli")
HOOK = "trace.hook"

FUNCTIONS = {
    "matrices": ("snf", "solve", "solve_matrix", "kernel_basis",
                 "preimage_generators", "in_column_span"),
    "groups": ("cokernel", "image_subgroup", "torsion_and_primary", "coinvariants"),
    "complexes": ("suspend",),
    "homology": ("homology_group", "induced_map"),
    "snc": ("validate_config", "ensure_valid", "build_dual_complex", "resolved_facets"),
    "galois": ("extension_complex", "check_admissible", "connecting_map", "norm_map",
               "frobenius_chain_map", "frobenius_on_homology"),
    "reciprocity": ("validate_pi1", "validate_labels", "compute_theta", "alpha_map",
                    "rational_point_flags", "predict_kernel", "sweep_extensions"),
    "config_io": ("parse_config", "serialize_bundle"),
    "cli": ("main",),
}
METHODS = {
    "groups": (("FgAbelianGroup", "in_relation_lattice"), ("FgAbelianGroup", "element_order"),
               ("FgAbelianGroup", "smith"), ("ModuleMap", "__init__"),
               ("ModuleMap", "is_injective"), ("ModuleMap", "is_surjective"),
               ("GaloisModule", "__init__"), ("GaloisModule", "localized"),
               ("GaloisModule", "torsion_submodule"), ("GaloisModule", "acts_trivially"),
               ("GaloisModule", "power")),
    "complexes": (("DeltaComplex", "__init__"), ("DeltaComplex", "boundary_matrix"),
                  ("ChainMap", "__init__"), ("ChainMap", "matrix")),
}
SOLVE = ("matrices.solve", "matrices.solve_matrix", "matrices.kernel_basis",
         "matrices.preimage_generators")


# Stages whose repeat within one job, on the same arguments, is work that
# "compute each stage once" removes: arguments at these positions form the
# key; objects compare by identity and integers (ell, f) by value.
STAGE_KEYS = {
    "snc.validate_config": (0,),
    "snc.ensure_valid": (0,),
    "snc.build_dual_complex": (0,),
    "snc.resolved_facets": (0,),
    "galois.frobenius_chain_map": (0,),
    "galois.check_admissible": (0, 1),
    "galois.extension_complex": (0, 1),
    "reciprocity.validate_pi1": (0, 1),
    "reciprocity.validate_labels": (0, 1, 2),
    "reciprocity.compute_theta": (0, 1),
    "reciprocity.alpha_map": (0, 1, 2, 3),
}


def _arg(args, kwargs, index, name, default=None):
    return args[index] if len(args) > index else kwargs.get(name, default)


def _homology_name(args, kwargs):
    modulus = _arg(args, kwargs, 2, "modulus")
    return "homology.homology_group." + ("z" if modulus is None else "zn")


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.job: int | None = None
        self.counts: Counter = Counter()
        self.repeats: set[int] = set()
        self._seen: dict[tuple, tuple] = {}
        self._plan = self._plan_patches()

    def start_job(self, job: int | None) -> None:
        self.job = job
        # holding the arguments keeps their ids from being reused in the job
        self._seen = {}

    # -- recording --------------------------------------------------------

    def _wrap(self, name, fn, namer=None, hook=None):
        spans, stack = self.spans, self.stack
        key_positions = STAGE_KEYS.get(name)

        def wrapper(*args, **kwargs):
            span_name = namer(args, kwargs) if namer else name
            index = len(spans)
            spans.append([span_name, 0.0, 0.0, stack[-1] if stack else -1, self.job])
            if key_positions is not None:
                key = (name,) + tuple(
                    a if isinstance(a, int) else id(a)
                    for a in (args[i] for i in key_positions if i < len(args)))
                if key in self._seen:
                    self.repeats.add(index)
                else:
                    self._seen[key] = args
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index][1] = start
                spans[index][2] = end
            if hook is not None:
                # hook work is a child span, so it is not charged to the caller
                spans.append([HOOK, end, 0.0, stack[-1] if stack else -1, self.job])
                hook(args, kwargs, result)
                spans[-1][2] = perf_counter()
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _snf_hook(self, args, kwargs, result):
        a = args[0] if args else kwargs["a"]
        c = self.counts
        cells = a.rows * a.cols
        c["snf_cells"] += cells
        if cells > c["snf_max_cells"]:
            c["snf_max_cells"] = cells
            c["snf_max_rows"] = a.rows
            c["snf_max_cols"] = a.cols
        peak = c["snf_peak_bits"]
        for m in (result.u, result.d, result.v, result.u_inv, result.v_inv):
            entries = m._entries
            if entries:
                peak = max(peak, max(entries).bit_length(), (-min(entries)).bit_length())
        c["snf_peak_bits"] = peak

    def _module_hook(self, args, kwargs, result):
        if _arg(args, kwargs, 4, "check", True):
            self.counts["module_checks"] += 1

    def _parse_hook(self, args, kwargs, result):
        text = args[0] if args else kwargs["text"]
        self.counts["input_bytes"] += len(text.encode("utf-8"))

    # -- installation -----------------------------------------------------

    def _plan_patches(self) -> list[tuple[object, str, object, object]]:
        """(owner, attribute, original, wrapper) for every binding site."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "snckit" or n.startswith("snckit."))]
        special = {
            "matrices.snf": (None, self._snf_hook),
            "homology.homology_group": (_homology_name, None),
            "config_io.parse_config": (None, self._parse_hook),
        }
        plan = []
        for layer, names in FUNCTIONS.items():
            module = importlib.import_module(f"snckit.{layer}")
            for fname in names:
                original = getattr(module, fname)
                namer, hook = special.get(f"{layer}.{fname}", (None, None))
                wrapper = self._wrap(f"{layer}.{fname}", original, namer, hook)
                for mod in modules:
                    for attr, value in vars(mod).items():
                        if value is original:
                            plan.append((mod, attr, original, wrapper))
        for layer, methods in METHODS.items():
            module = importlib.import_module(f"snckit.{layer}")
            for cls_name, meth in methods:
                cls = getattr(module, cls_name)
                original = vars(cls)[meth]
                hook = self._module_hook if (cls_name, meth) == ("GaloisModule", "__init__") else None
                plan.append((cls, meth, original,
                             self._wrap(f"{layer}.{cls_name}.{meth}", original, None, hook)))
        return plan

    def install(self) -> None:
        for owner, attr, _, wrapper in self._plan:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._plan:
            setattr(owner, attr, original)

    # -- analysis ---------------------------------------------------------

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as out:
            for name, start, end, parent, job in self.spans:
                out.write(json.dumps({"name": name, "start": start, "end": end,
                                      "parent": parent, "job": job}) + "\n")

    def summary(self) -> dict:
        """Per span name: calls, self seconds, and the inclusive seconds of
        the outermost spans of that name (nested repeats are not counted
        twice)."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        calls: Counter = Counter()
        self_s: defaultdict = defaultdict(float)
        inclusive: defaultdict = defaultdict(float)
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - child[i]
            ancestor = parent
            while ancestor >= 0 and spans[ancestor][0] != name:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                inclusive[name] += end - start
        repeated = 0.0
        for i in self.repeats:
            ancestor = spans[i][3]
            while ancestor >= 0 and ancestor not in self.repeats:
                ancestor = spans[ancestor][3]
            if ancestor < 0:
                repeated += spans[i][2] - spans[i][1]
        return {"calls": calls, "self": self_s, "inclusive": inclusive, "repeated": repeated}


def layer_metrics(tracer: Tracer, jobs, report_bytes: int, import_s: float,
                  untraced_s: float) -> dict[str, tuple[float, str]]:
    """The per-layer metrics of one traced pass over ``jobs``."""
    s = tracer.summary()
    calls, self_s, incl = s["calls"], s["self"], s["inclusive"]
    c = tracer.counts
    total = incl["cli.main"]
    layer_self = defaultdict(float)
    for name, secs in self_s.items():
        layer_self[name.split(".")[0]] += secs
    ell_requests = sum(job.options.count("--ell") for job in jobs
                       if job.command in ("kernel", "alpha"))
    m = {
        "matrices.snf_s": (self_s["matrices.snf"], "s"),
        "matrices.snf_calls": (calls["matrices.snf"], "count"),
        "matrices.snf_cells": (c["snf_cells"], "count"),
        "matrices.snf_peak_bits": (c["snf_peak_bits"], "bits"),
        "matrices.snf_max_shape.rows": (c["snf_max_rows"], "count"),
        "matrices.snf_max_shape.cols": (c["snf_max_cols"], "count"),
        "matrices.solve_s": (sum(self_s[n] for n in SOLVE), "s"),
        "groups.module_checks": (c["module_checks"], "count"),
        "groups.lattice_tests": (calls["groups.FgAbelianGroup.in_relation_lattice"], "count"),
        "groups.self_s": (layer_self["groups"], "s"),
        "homology.z_calls": (calls["homology.homology_group.z"], "count"),
        "homology.z_s": (incl["homology.homology_group.z"], "s"),
        "homology.zn_calls": (calls["homology.homology_group.zn"], "count"),
        "homology.zn_s": (incl["homology.homology_group.zn"], "s"),
        "homology.induced_s": (incl["homology.induced_map"], "s"),
        "galois.extension_calls": (calls["galois.extension_complex"], "count"),
        "galois.extension_s": (incl["galois.extension_complex"], "s"),
        "galois.frobenius_chain_calls": (calls["galois.frobenius_chain_map"], "count"),
        "galois.norm_s": (incl["galois.norm_map"], "s"),
        "reciprocity.theta_calls": (calls["reciprocity.compute_theta"], "count"),
        "reciprocity.alpha_calls": (calls["reciprocity.alpha_map"], "count"),
        "reciprocity.alpha_per_ell": (
            calls["reciprocity.alpha_map"] / ell_requests if ell_requests else 0.0, "count/doc/ell"),
        "reciprocity.validate_labels_calls": (calls["reciprocity.validate_labels"], "count"),
        "reciprocity.self_s": (layer_self["reciprocity"], "s"),
        "snc.validate_calls": (calls["snc.validate_config"], "count"),
        "snc.validate_s": (incl["snc.validate_config"], "s"),
        "snc.dual_complex_calls": (calls["snc.build_dual_complex"], "count"),
        "snc.dual_complex_s": (incl["snc.build_dual_complex"], "s"),
        "snc.dual_complex_per_doc": (calls["snc.build_dual_complex"] / len(jobs), "count/doc"),
        "complexes.builds": (calls["complexes.DeltaComplex.__init__"], "count"),
        "complexes.build_s": (incl["complexes.DeltaComplex.__init__"], "s"),
        "complexes.boundary_s": (incl["complexes.DeltaComplex.boundary_matrix"], "s"),
        "config_io.parse_s": (self_s["config_io.parse_config"], "s"),
        "config_io.input_bytes": (c["input_bytes"], "bytes"),
        "cli.self_s": (self_s["cli.main"], "s"),
        "cli.report_bytes": (report_bytes, "bytes"),
        "cli.import_s": (import_s, "s"),
    }
    for layer in LAYERS:
        m[f"share.{layer}"] = (layer_self[layer] / total if total else 0.0, "fraction")
    m["share.snf"] = (self_s["matrices.snf"] / total if total else 0.0, "fraction")
    m["share.repeated"] = (s["repeated"] / total if total else 0.0, "fraction")
    m["trace.spans"] = (len(tracer.spans), "count")
    m["trace.overhead"] = (total / untraced_s - 1.0 if untraced_s else 0.0, "fraction")
    return m
