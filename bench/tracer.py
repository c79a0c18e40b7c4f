"""Outside-in tracer: spans and counts at the public boundary of each layer.

The tracer never edits deltalim.  While installed it replaces every module
binding of a layer's public functions (``deltalim.resonance.solve_psi`` is a
binding of an ``ode`` function, so calls through it are ``ode`` spans), the
``__call__`` methods of ``Potential``, ``Trajectory`` and ``KernelEval``, and
``scipy.integrate.solve_ivp`` (resonance imports it inside functions), with
wrappers that record a span (name, start, end, parent span, task id).  Spans
live in flat arrays and are written out once, at the end.

A layer's self time is the time its spans cover minus the time their direct
child spans cover.
"""
from __future__ import annotations

import importlib
import time
import types
from array import array
from collections import Counter

import numpy as np

LAYERS = ("potential", "ode", "quadrature", "resonance", "resolvent", "airy",
          "radial3d")
FAILURE_CLASSES = ("BracketScanTooCoarse", "DegenerateProfile", "NonConvergence")
_X_SWITCH = 9.0          # airy_quad sums the Maclaurin series for |x| <= 9

_METHODS = (("potential", "Potential"), ("ode", "Trajectory"),
            ("resolvent", "KernelEval"))


def _count_solve_ivp(c, args, kwargs, out):
    c["ode.rhs_evals"] += int(out.nfev)
    if kwargs.get("dense_output"):
        c["ode.dense_solves"] += 1


def _count_panel_nodes(c, args, kwargs, out):
    c["quadrature.nodes"] += int(out[0].size)


def _count_apply(c, args, kwargs, out):
    c["resolvent.apply_points"] += int(np.size(args[2]))


def _count_kernel_points(c, args, kwargs, out):
    c["resolvent.kernel_points"] += int(np.size(out))


def _count_certified_list(c, args, kwargs, out):
    c["resonance.certified"] += len(out)


def _count_certified_one(c, args, kwargs, out):
    c["resonance.certified"] += out is not None


def _count_maclaurin(c, args, kwargs, out):
    c["airy.maclaurin_calls"] += abs(float(args[0])) <= _X_SWITCH


# counts that need a call's arguments or result, keyed by the qualified name
# of the wrapped function; plain call counts come from the spans themselves
_HOOKS = {
    "scipy.integrate.solve_ivp": _count_solve_ivp,
    "deltalim.quadrature.panel_nodes": _count_panel_nodes,
    "deltalim.resolvent.apply_resolvent": _count_apply,
    "deltalim.resolvent.KernelEval.__call__": _count_kernel_points,
    "deltalim.resonance.find_resonances": _count_certified_list,
    "deltalim.resonance.resonance_membership": _count_certified_one,
    "deltalim.airy.airy_quad": _count_maclaurin,
}

# call counts: metric name -> qualified names of the functions counted
_CALLS = {
    "potential.calls": ("deltalim.potential.Potential.__call__",),
    "ode.solves": ("scipy.integrate.solve_ivp",),
    "quadrature.calls": ("deltalim.quadrature.panel_nodes",),
    "resolvent.kernels": ("deltalim.resolvent.kernel_scaled",
                          "deltalim.resolvent.kernel_reference"),
    "airy.quad_calls": ("deltalim.airy.airy_quad",),
    "radial3d.calls": ("deltalim.radial3d.classify_3d",
                       "deltalim.radial3d.resonance_profile",
                       "deltalim.radial3d.tail_mass"),
}


class Tracer:
    """Records spans and counts while installed."""

    def __init__(self):
        self.names: list[str] = []       # span name: the patched binding
        self.quals: list[str] = []       # qualified name of the wrapped function
        self.layers: list[str] = []
        self.span_name = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        self.span_parent = array("i")
        self.span_task = array("i")
        self.counts: Counter = Counter()
        self.task = -1
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, layer: str, qual: str | None = None):
        """Wrapper of ``fn`` that records a span named ``name``."""
        nid = len(self.names)
        self.names.append(name)
        self.quals.append(qual or name)
        self.layers.append(layer)
        hook = _HOOKS.get(qual)
        counts, stack = self.counts, self._stack
        s_name, s_start, s_end = self.span_name, self.span_start, self.span_end
        s_parent, s_task = self.span_parent, self.span_task
        clock = time.perf_counter_ns
        tracer = self

        def traced(*args, **kwargs):
            idx = len(s_start)
            s_name.append(nid)
            s_parent.append(stack[-1])
            s_task.append(tracer.task)
            s_end.append(0)
            stack.append(idx)
            s_start.append(clock())
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                tracer._count_failure(layer, exc)
                raise
            finally:
                s_end[idx] = clock()
                stack.pop()
            if hook is not None:
                hook(counts, args, kwargs, out)
            return out

        traced.__wrapped__ = fn
        return traced

    def _count_failure(self, layer: str, exc: Exception) -> None:
        """Count an error once per layer it leaves, by error class."""
        seen = exc.__dict__.setdefault("_traced_layers", set())
        if layer not in seen:
            seen.add(layer)
            self.counts[f"{layer}.failures"] += 1
            self.counts[f"{layer}.failures.{type(exc).__name__}"] += 1

    def install(self) -> None:
        """Patch every binding; ``uninstall`` restores them."""
        import deltalim
        import scipy.integrate

        layer_mods = {layer: importlib.import_module(f"deltalim.{layer}")
                      for layer in LAYERS}
        targets = {scipy.integrate.solve_ivp: ("ode", "scipy.integrate.solve_ivp")}
        for layer, mod in layer_mods.items():
            for attr, fn in vars(mod).items():
                if (isinstance(fn, types.FunctionType) and not attr.startswith("_")
                        and fn.__module__ == mod.__name__):
                    targets[fn] = (layer, f"{mod.__name__}.{fn.__qualname__}")
        modules = [deltalim, scipy.integrate, *layer_mods.values(),
                   importlib.import_module("deltalim.cli")]
        for mod in modules:
            for attr, fn in list(vars(mod).items()):
                if isinstance(fn, types.FunctionType) and fn in targets:
                    layer, qual = targets[fn]
                    self._patch(mod, attr, self.wrap(
                        fn, f"{mod.__name__}.{attr}", layer, qual))
        for layer, cls_name in _METHODS:
            cls = getattr(layer_mods[layer], cls_name)
            qual = f"deltalim.{layer}.{cls_name}.__call__"
            self._patch(cls, "__call__", self.wrap(cls.__call__, qual, layer, qual))

    def _patch(self, owner, attr: str, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results -----------------------------------------------------------

    def _arrays(self):
        return (np.array(self.span_name, dtype=np.int32),
                np.array(self.span_start, dtype=np.int64),
                np.array(self.span_end, dtype=np.int64),
                np.array(self.span_parent, dtype=np.int32),
                np.array(self.span_task, dtype=np.int32))

    def self_times(self) -> dict[str, float]:
        """Seconds of self time per layer, and for the root "task" spans."""
        names, start, end, parent, _ = self._arrays()
        dur = (end - start).astype(float)
        has = parent >= 0
        child = np.bincount(parent[has], weights=dur[has], minlength=dur.size)
        own = dur - child
        layer_of_span = np.array(self.layers)[names]
        return {layer: float(own[layer_of_span == layer].sum()) * 1e-9
                for layer in set(self.layers)}

    def calls(self) -> tuple[Counter, Counter]:
        """Span counts by binding name and by wrapped function."""
        per_name = np.bincount(np.array(self.span_name, dtype=np.int32),
                               minlength=len(self.names))
        by_name, by_qual = Counter(), Counter()
        for name, qual, n in zip(self.names, self.quals, per_name):
            by_name[name] += int(n)
            by_qual[qual] += int(n)
        return by_name, by_qual

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of BENCHMARK.json; 0 where a layer is unused."""
        c = self.counts
        by_name, by_qual = self.calls()
        m = {metric: sum(by_qual[q] for q in quals) for metric, quals in _CALLS.items()}
        # the shooting solves the resonance layer asks for itself
        m["resonance.shoots"] = by_name["deltalim.resonance.solve_psi"]
        for key in ("ode.rhs_evals", "ode.dense_solves", "ode.failures",
                    "resonance.certified", "resonance.failures",
                    "quadrature.nodes", "resolvent.apply_points",
                    "resolvent.kernel_points", "airy.maclaurin_calls"):
            m[key] = c[key]
        for cls in FAILURE_CLASSES:
            m[f"resonance.failures.{cls}"] = c[f"resonance.failures.{cls}"]
        m["ode.rhs_evals_per_solve"] = _ratio(m["ode.rhs_evals"], m["ode.solves"])
        m["resonance.shoots_per_root"] = _ratio(m["resonance.shoots"],
                                                m["resonance.certified"])
        m["resolvent.kernel_points_per_apply_point"] = _ratio(
            m["resolvent.kernel_points"], m["resolvent.apply_points"])
        own = self.self_times()
        for layer in LAYERS:
            m[f"{layer}.self_s"] = own.get(layer, 0.0)
        return m

    def dump(self, path) -> None:
        """Write every span and count to a compressed .npz file."""
        names, start, end, parent, task = self._arrays()
        keys = sorted(self.counts)
        np.savez_compressed(
            path, names=np.array(self.names), quals=np.array(self.quals),
            layers=np.array(self.layers), span_name=names, span_start_ns=start,
            span_end_ns=end, span_parent=parent, span_task=task,
            count_names=np.array(keys),
            count_values=np.array([self.counts[k] for k in keys], dtype=np.int64))


def _ratio(num, den) -> float:
    return num / den if den else 0.0
