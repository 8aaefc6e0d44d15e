"""Span recording for traced runs, from outside the program.

``Tracer`` wraps every public function and class member of each greenlab
module (the layers) in a recorder call, and patches the wrapper into every
namespace that holds the original: the modules import helpers by name
(``from .extreal import weighted_sum``), so replacing the defining module's
attribute alone would miss most calls.  Class members (``Kernel.gram``,
``Problem.__post_init__``, properties) are wrapped on the class.
``uninstall`` restores every original, so traced and untraced repetitions
run in one process.

``serialize.jsonable`` and ``serialize.from_jsonable`` are left unwrapped:
``jsonable`` recurses through its own module global, so a wrapper would
record one span per JSON node.  Their time is inside ``serialize.dumps``.

Spans (name, start, end, parent, request id) go into flat arrays in
memory and are written out once, at the end of the run.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from array import array
from collections import defaultdict
from time import perf_counter

import numpy as np

LAYERS = ("cli", "solver", "potentials", "kernels", "measures", "energy",
          "verify", "extreal", "serialize")
UNWRAPPED = {"serialize.jsonable", "serialize.from_jsonable", "cli.entrypoint"}


class SpanRecorder:
    """Flat, append-only span store; parents are span indices."""

    def __init__(self):
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.start = array("d")
        self.end = array("d")
        self.name = array("i")
        self.parent = array("q")
        self.request = array("q")
        self.request_id = -1
        self.counters: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def name_id(self, name: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
        return self._ids[name]

    def open(self, nid: int) -> int:
        idx = len(self.name)
        self.name.append(nid)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.request.append(self.request_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self._stack.pop()

    def __len__(self) -> int:
        return len(self.name)

    def save(self, path) -> None:
        np.savez(path, names=np.array(self.names), name=np.asarray(self.name),
                 start=np.asarray(self.start), end=np.asarray(self.end),
                 parent=np.asarray(self.parent), request=np.asarray(self.request))


def _nbytes(x) -> int:
    return int(getattr(x, "nbytes", None) or np.asarray(x, dtype=float).nbytes)


def _weighted_sum_bytes(args, kwargs) -> int:
    gram = args[0] if args else kwargs["gram"]
    weights = args[1] if len(args) > 1 else kwargs["weights"]
    return _nbytes(gram) + _nbytes(weights)


def _solve_counts(out) -> dict:
    return {"sweeps": out.iterations, "solves": 1, "converged": int(bool(out.converged))}


# counters taken at the layer boundary: span name -> fn(args, kwargs, result)
# returning the increments
HOOKS = {
    "potentials.quadrature_gram": lambda a, k, out: {"gram_bytes": out.nbytes},
    "extreal.weighted_sum": lambda a, k, out: {"weighted_sum_bytes": _weighted_sum_bytes(a, k)},
    "serialize.dumps": lambda a, k, out: {"report_chars": len(out)},
    "solver.solve_homogeneous": lambda a, k, out: _solve_counts(out),
    "solver.solve_inhomogeneous": lambda a, k, out: _solve_counts(out),
    "solver.minimality_probe": lambda a, k, out: {"sweeps": out["iterations"]},
}


class Tracer:
    def __init__(self, package, recorder: SpanRecorder):
        self.rec = recorder
        modules = [importlib.import_module(f"{package.__name__}.{m}") for m in LAYERS]
        self._namespaces = modules + [package]
        self._patches = []  # (owner, attribute, original, wrapper)
        for layer, mod in zip(LAYERS, modules):
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isclass(obj) and not issubclass(obj, BaseException):
                    self._plan_class(f"{layer}.{attr}", obj)
                elif inspect.isfunction(obj) and f"{layer}.{attr}" not in UNWRAPPED:
                    wrapper = self._wrap(f"{layer}.{attr}", obj)
                    for ns in self._namespaces:
                        for name, val in vars(ns).items():
                            if val is obj:
                                self._patches.append((ns, name, obj, wrapper))

    def _plan_class(self, prefix: str, cls) -> None:
        for attr, raw in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__post_init__":
                continue
            name = f"{prefix}.{attr}"
            if isinstance(raw, classmethod):
                wrapper = classmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, staticmethod):
                wrapper = staticmethod(self._wrap(name, raw.__func__))
            elif isinstance(raw, property):
                wrapper = property(self._wrap(name, raw.fget), raw.fset, raw.fdel, raw.__doc__)
            elif inspect.isfunction(raw):
                wrapper = self._wrap(name, raw)
            else:
                continue
            self._patches.append((cls, attr, raw, wrapper))

    def _wrap(self, name: str, fn):
        rec = self.rec
        nid = rec.name_id(name)
        hook = HOOKS.get(name)
        counters = rec.counters

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = rec.open(nid)
            try:
                out = fn(*args, **kwargs)
            finally:
                rec.close(idx)
            if hook is not None:
                for key, amount in hook(args, kwargs, out).items():
                    counters[key] += amount
            return out

        return wrapper

    def install(self) -> None:
        for owner, attr, _, wrapper in self._patches:
            setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original, _ in self._patches:
            setattr(owner, attr, original)


# -- per-layer metrics ------------------------------------------------------

SWEEP_SPANS = ("solver.solve_homogeneous", "solver.solve_inhomogeneous",
               "solver.minimality_probe")
SWEEP_SETUP_SPANS = ("potentials.quadrature_gram", "solver.check_conditions",
                     "verify.estimate_norm_constant", "solver.a_priori_check")
PROBLEM_INIT_SPANS = ("solver.Problem.from_dict", "solver.Problem.__post_init__")


class SpanTable:
    """Spans [lo, hi) of one repetition as numpy arrays, with helpers for
    inclusive, outermost and self time."""

    def __init__(self, rec: SpanRecorder, lo: int, hi: int):
        self.names = rec.names
        self.name = np.asarray(rec.name[lo:hi])
        par = np.asarray(rec.parent[lo:hi]) - lo
        self.parent = np.where(par >= 0, par, -1)
        self.dur = np.asarray(rec.end[lo:hi]) - np.asarray(rec.start[lo:hi])
        children = np.bincount(self.parent[self.parent >= 0],
                               weights=self.dur[self.parent >= 0], minlength=len(self.dur))
        self.self_time = self.dur - children

    def is_named(self, names) -> np.ndarray:
        ids = [i for i, n in enumerate(self.names) if n in names]
        return np.isin(self.name, ids)

    def has_ancestor(self, mask: np.ndarray) -> np.ndarray:
        found = np.zeros(len(mask), dtype=bool)
        p = self.parent.copy()
        while np.any(p >= 0):
            live = p >= 0
            found[live] |= mask[p[live]]
            p[live] = self.parent[p[live]]
        return found

    def outermost(self, names) -> np.ndarray:
        mask = self.is_named(names)
        return mask & ~self.has_ancestor(mask)

    def time(self, *names) -> float:
        """Inclusive time of the named spans, counting nested ones once."""
        return float(self.dur[self.outermost(names)].sum())

    def calls(self, *names) -> int:
        return int(self.is_named(names).sum())

    def layer_self(self, layer: str) -> float:
        ids = [i for i, n in enumerate(self.names) if n.split(".", 1)[0] == layer]
        return float(self.self_time[np.isin(self.name, ids)].sum())

    def sweep_time(self) -> float:
        """Time in the iterating spans not covered by their set-up children."""
        in_sweep = self.is_named(SWEEP_SPANS)
        setup = self.outermost(SWEEP_SETUP_SPANS) & self.has_ancestor(in_sweep)
        return self.time(*SWEEP_SPANS) - float(self.dur[setup].sum())


def layer_metrics(table: SpanTable, counters: dict, input_bytes: int) -> dict:
    """Every per-layer metric of one traced repetition, as (value, unit)."""
    t = table
    sweeps = int(counters.get("sweeps", 0))
    solves = counters.get("solves", 0)
    ws_s = t.time("extreal.weighted_sum")
    ws_gb = counters.get("weighted_sum_bytes", 0) / 1e9
    out = {f"{layer}.self_s": (t.layer_self(layer), "s") for layer in LAYERS}
    out.update({
        "cli.input_mb": (input_bytes / 1e6, "MB"),
        "solver.problem_init_s": (t.time(*PROBLEM_INIT_SPANS), "s"),
        "solver.sweeps": (sweeps, "count"),
        "solver.sweep_ms": (1e3 * t.sweep_time() / sweeps if sweeps else 0.0, "ms"),
        "solver.check_conditions_s": (t.time("solver.check_conditions"), "s"),
        "solver.a_priori_s": (t.time("solver.a_priori_check"), "s"),
        "solver.probe_s": (t.time("solver.minimality_probe"), "s"),
        "solver.converged_frac": (counters.get("converged", 0) / solves if solves else 0.0,
                                  "fraction"),
        "potentials.quadrature_gram_s": (t.time("potentials.quadrature_gram"), "s"),
        "potentials.gram_builds": (t.calls("potentials.quadrature_gram"), "count"),
        "potentials.gram_mb": (counters.get("gram_bytes", 0) / 1e6, "MB"),
        "potentials.potential_values_s": (t.time("potentials.potential_values"), "s"),
        "kernels.resolve_h_s": (t.time("kernels.resolve_h"), "s"),
        "kernels.resolve_h_calls": (t.calls("kernels.resolve_h"), "count"),
        "kernels.gram_s": (t.time("kernels.Kernel.gram"), "s"),
        "energy.cross_energy_s": (t.time("energy.cross_energy"), "s"),
        "energy.cross_energy_calls": (t.calls("energy.cross_energy"), "count"),
        "energy.ibp_check_s": (t.time("energy.ibp_check"), "s"),
        "verify.estimate_norm_constant_s": (t.time("verify.estimate_norm_constant"), "s"),
        "verify.estimate_norm_constant_calls": (t.calls("verify.estimate_norm_constant"),
                                                "count"),
        "verify.check_s": (t.time(*[n for n in t.names if n.startswith("verify.check_")]),
                           "s"),
        "extreal.weighted_sum_s": (ws_s, "s"),
        "extreal.weighted_sum_calls": (t.calls("extreal.weighted_sum"), "count"),
        "extreal.weighted_sum_gb": (ws_gb, "GB"),
        "extreal.weighted_sum_gbps": (ws_gb / ws_s if ws_s > 0 else 0.0, "GB/s"),
        "serialize.dumps_s": (t.time("serialize.dumps"), "s"),
        "serialize.report_mb": (counters.get("report_chars", 0) / 1e6, "MB"),
        "serialize.write_field_csv_s": (t.time("serialize.write_field_csv"), "s"),
    })
    return out
