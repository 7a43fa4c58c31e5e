"""Per-layer spans for the traced benchmark run, installed from outside.

A layer is a ``qcorr`` module.  ``Tracer.install`` rebinds every public
function of every module, wherever a ``qcorr`` module binds it, to a
wrapper that records a span; ``Tracer.uninstall`` puts the originals
back.  ``scipy.optimize.minimize`` as bound in ``qcorr.search`` is wrapped
too, so the refine stage of a search is timed apart from its grid stage.
Spans stay in memory; ``Tracer.metrics`` turns them into per-item numbers.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import time
from collections import defaultdict

LAYERS = ("linalg", "states", "measurement", "correlations", "ncm", "search", "decoherence", "cli")

# Closed forms summed into correlations.closed_s, besides discord(..., "closed_bd").
CLOSED_FORMS = frozenset({
    "report_bd", "classical_correlations_bd", "mutual_information_bd", "binary_entropy",
})


def _bound_arg(fn, name, args, kwargs, default=None):
    """Value of parameter `name` in a call of fn, or default if fn has none."""
    try:
        bound = inspect.signature(fn).bind(*args, **kwargs)
    except TypeError:
        return default
    return bound.arguments.get(name, default)


class Tracer:
    def __init__(self):
        # Open spans, innermost last; each holds the time its child spans took.
        self.stack = []
        # Per key: calls and inclusive time of the outermost spans with that key,
        # so a function or layer that calls itself is not counted twice.
        self.depth = defaultdict(int)
        self.calls = defaultdict(int)
        self.time = defaultdict(float)
        # Per layer: span time not covered by child spans.
        self.self_time = defaultdict(float)
        self.counts = defaultdict(float)
        self._patches = []

    # --- recording -----------------------------------------------------

    def _span(self, fn, layer, keys_of, after=None):
        depth, calls, total, stack = self.depth, self.calls, self.time, self.stack
        self_time, perf = self.self_time, time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            keys = keys_of(args, kwargs)
            for key in keys:
                depth[key] += 1
            frame = [0.0]
            stack.append(frame)
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = perf() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_time[layer] += elapsed - frame[0]
                for key in keys:
                    depth[key] -= 1
                    if depth[key] == 0:
                        calls[key] += 1
                        total[key] += elapsed
            if after is not None:
                after(args, kwargs, result)
            return result

        return wrapper

    def _wrap_function(self, fn, layer, name):
        base = (f"layer:{layer}", f"{layer}.{name}")
        if name in CLOSED_FORMS:
            base += ("closed",)
        after = None
        if layer == "correlations" and name == "discord":
            def keys_of(args, kwargs):
                method = _bound_arg(fn, "method", args, kwargs, "closed_bd")
                extra = ("closed",) if method == "closed_bd" else ()
                return base + (f"correlations.discord[{method}]",) + extra
            return self._span(fn, layer, keys_of)
        if layer == "search" and name == "maximize_on_sphere":
            from qcorr import search

            def after(args, kwargs, result):
                config = _bound_arg(fn, "config", args, kwargs) or getattr(search, "DEFAULT_SEARCH", None)
                self.counts["grid_points"] += getattr(config, "grid_points", 0)
        elif layer == "decoherence" and name == "trajectory":
            def after(args, kwargs, result):
                self.counts["points"] += len(result)
        return self._span(fn, layer, lambda args, kwargs: base, after)

    def _wrap_minimize(self, minimize):
        counts, perf = self.counts, time.perf_counter

        def refine(fun, x0, *args, **kwargs):
            def objective(x, *extra):
                start = perf()
                try:
                    return fun(x, *extra)
                finally:
                    counts["objective_s"] += perf() - start
                    counts["objective_evals"] += 1

            res = minimize(objective, x0, *args, **kwargs)
            counts["refine_nfev"] += res.nfev
            counts["refine_calls"] += 1
            counts["refine_converged"] += bool(res.success)
            return res

        return self._span(functools.wraps(minimize)(refine), "search", lambda args, kwargs: ("search.refine",))

    # --- installing ----------------------------------------------------

    def install(self):
        """Rebind the public functions of every layer to span wrappers."""
        package = importlib.import_module("qcorr")
        modules = {layer: importlib.import_module(f"qcorr.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for name, obj in vars(mod).items():
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__ and not name.startswith("_"):
                    wrappers[obj] = self._wrap_function(obj, layer, name)
        minimize = getattr(modules["search"], "minimize", None)
        if minimize is not None:
            wrappers[minimize] = self._wrap_minimize(minimize)
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                if callable(obj) and obj in wrappers:
                    self._patches.append((mod, name, obj))
                    setattr(mod, name, wrappers[obj])

    def uninstall(self):
        while self._patches:
            mod, name, original = self._patches.pop()
            setattr(mod, name, original)

    # --- reporting -----------------------------------------------------

    def metrics(self, items: int) -> dict:
        """Per-layer metrics, as totals divided by the number of traced items."""
        per = 1.0 / items
        t, n, c = self.time, self.calls, self.counts
        search_s = t["search.maximize_on_sphere"]
        refine_s = t["search.refine"]
        refine_calls = c["refine_calls"]
        evals = c["objective_evals"]
        return {
            "search.calls": (n["search.maximize_on_sphere"] * per, "count/item"),
            "search.grid_s": ((search_s - refine_s) * per, "s/item"),
            "search.grid_points": (c["grid_points"] * per, "count/item"),
            "search.refine_s": (refine_s * per, "s/item"),
            "search.refine_nfev": (c["refine_nfev"] * per, "count/item"),
            "search.refine_converged_frac": (c["refine_converged"] / refine_calls if refine_calls else 0.0, "frac"),
            "search.objective_us": (c["objective_s"] / evals * 1e6 if evals else 0.0, "us"),
            "linalg.eig_calls": (n["linalg.hermitian_eigenvalues"] * per, "count/item"),
            "linalg.eig_s": (t["linalg.hermitian_eigenvalues"] * per, "s/item"),
            "correlations.j_numeric_s": (t["correlations.classical_correlations_numeric"] * per, "s/item"),
            "correlations.via_mi_s": (t["correlations.discord[via_mi]"] * per, "s/item"),
            "correlations.closed_s": (t["closed"] * per, "s/item"),
            "ncm.da_numeric_s": (t["ncm.d_a_numeric"] * per, "s/item"),
            "ncm.da_basis_calls": (n["ncm.d_a_basis"] * per, "count/item"),
            "ncm.da_basis_s": (t["ncm.d_a_basis"] * per, "s/item"),
            "ncm.da_optimized_s": (t["ncm.d_a_optimized"] * per, "s/item"),
            "measurement.calls": (n["layer:measurement"] * per, "count/item"),
            "measurement.s": (t["layer:measurement"] * per, "s/item"),
            "states.s": (t["layer:states"] * per, "s/item"),
            "decoherence.trajectory_s": (t["decoherence.trajectory"] * per, "s/item"),
            "decoherence.points": (c["points"] * per, "count/item"),
            "cli.self_s": (self.self_time["cli"] * per, "s/item"),
        }
