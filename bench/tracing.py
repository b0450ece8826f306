"""Layer spans recorded from outside the package.

A `Tracer` wraps the public module-level functions of each layer
(`rootdata`, `cover`, `characters`, `weights`, `hecke`, `oracle`,
`classify`, `cli`) and installs the wrappers wherever another module, or
the benchmark, reaches them: names imported with `from .x import f` are
replaced in the importing module, and module objects imported with
`from . import x` are replaced by proxy modules.  A call opens a span only
when it crosses into a different layer, so calls inside a layer cost
nothing extra.  Methods, operators and constructors of a layer's classes
are attributed to their caller.

Four functions carry work counters and are also wrapped inside their own
module, so that every call is counted: `oracle.count_cosets` (coset boxes),
`rootdata.antidominant_above` (Cartan-inverse search boxes),
`hecke.enumerate_A` (A-set boxes) and `cli.main` (requests).  Box sizes
are computed from public data after the call returns, with the unwrapped
functions, and cached; that time is booked to the benchmark, not to the
layer.

Spans are aggregated as they close (calls, busy and self time per layer)
and the first MAX_SPANS are also kept as records
(id, parent id, request id, layer, start, end) for writing out at the end.
"""

from __future__ import annotations

import inspect
import sys
import time
import types

LAYERS = (
    "rootdata",
    "cover",
    "characters",
    "weights",
    "hecke",
    "oracle",
    "classify",
    "cli",
)
BENCH = "bench"
MAX_SPANS = 200_000  # span records kept for writing out; aggregates count every span


class Tracer:
    def __init__(self, modules: dict):
        self.modules = modules
        self.stack = []  # frames: [layer, start, child_time, span_id]
        self.reset()
        self._patches = []  # (namespace, name, original)
        self.proxies = None

    # -- aggregation --------------------------------------------------
    def reset(self):
        self.stack[:] = [[BENCH, time.perf_counter(), 0.0, 0]]
        self.calls = {layer: 0 for layer in LAYERS}
        self.busy = {layer: 0.0 for layer in LAYERS}
        self.self_time = {layer: 0.0 for layer in LAYERS + (BENCH,)}
        self._open = {layer: 0 for layer in LAYERS}
        self.counts = {
            "oracle.cells": 0,
            "oracle.tuples": 0,
            "oracle.hits": 0,
            "rootdata.box_points": 0,
            "rootdata.results": 0,
            "hecke.aset_box_points": 0,
            "hecke.aset_results": 0,
            "cli.requests": 0,
        }
        self.schema_s = 0.0
        self.request_id = 0
        self.spans = []
        self.spans_dropped = 0
        self._next_id = 1

    def finish(self) -> float:
        """Close the root frame; returns the traced wall time."""
        root = self.stack[0]
        wall = time.perf_counter() - root[1]
        self.self_time[BENCH] += wall - root[2]
        return wall

    def _span(self, layer, fn, args, kwargs):
        stack = self.stack
        span_id = self._next_id
        self._next_id += 1
        frame = [layer, time.perf_counter(), 0.0, span_id]
        stack.append(frame)
        self._open[layer] += 1
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            stack.pop()
            self._open[layer] -= 1
            duration = end - frame[1]
            self.calls[layer] += 1
            self.self_time[layer] += duration - frame[2]
            if self._open[layer] == 0:
                self.busy[layer] += duration
            parent = stack[-1]
            parent[2] += duration
            if len(self.spans) < MAX_SPANS:
                self.spans.append(
                    (span_id, parent[3], self.request_id, layer, frame[1], end)
                )
            else:
                self.spans_dropped += 1

    def _observe(self, observe, result, args, kwargs):
        """Run a work counter; its time is the benchmark's own, not the
        enclosing layer's."""
        start = time.perf_counter()
        observe(result, *args, **kwargs)
        elapsed = time.perf_counter() - start
        self.stack[-1][2] += elapsed
        self.self_time[BENCH] += elapsed

    def _wrap(self, fn, layer, observe=None):
        stack = self.stack
        span = self._span
        if observe is None:

            def wrapper(*args, **kwargs):
                if stack[-1][0] == layer:
                    return fn(*args, **kwargs)
                return span(layer, fn, args, kwargs)

        else:
            counted = self._observe

            def wrapper(*args, **kwargs):
                result = None
                try:
                    if stack[-1][0] == layer:
                        result = fn(*args, **kwargs)
                    else:
                        result = span(layer, fn, args, kwargs)
                    return result
                finally:
                    counted(observe, result, args, kwargs)

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        return wrapper

    # -- work counters ------------------------------------------------
    def _observers(self) -> dict:
        """Counters keyed by (layer, function name); each runs after the
        call with its result (None if it raised) and its arguments."""
        rootdata = self.modules["rootdata"]
        oracle = self.modules["oracle"]
        tracer = self
        box_cache = {}

        def search_box(lam, J, scale):
            """Points of the box a <= C_J^{-1} b, b_j = scale <alpha_j, -lam>."""
            n = lam.rank
            idx = tuple(
                sorted(range(1, n + 1) if J is None else getattr(J, "roots", J))
            )
            key = (lam.coords, idx, scale)
            if key not in box_cache:
                points = 1
                if idx:
                    b = [
                        scale * rootdata.pairing(rootdata.simple_root(j, n), -1 * lam)
                        for j in idx
                    ]
                    for row in rootdata.cartan_inverse(n, idx):
                        v = sum(f * bb for f, bb in zip(row, b))
                        bound = int(v) if v.denominator == 1 else int(v) + 1
                        points *= bound + 1
                box_cache[key] = points
            return box_cache[key]

        coset_cache = {}

        def coset_box(mu, lam, depth, group, p, check_stabilization):
            """p^(sum of windows), plus the depth + 1 box when the
            stabilization re-run happens."""
            key = (mu.coords, lam.coords, depth, group, p, check_stabilization)
            if key not in coset_cache:
                realization = oracle.ChevalleyRealization(group)
                exps = realization.torus_exponents(mu)
                floor = min(lam.coords)

                def windows(d):
                    return tuple(
                        max(0, min(d, exps[gen.window_col] - floor))
                        for gen in realization.neg
                    )

                tuples = p ** sum(windows(depth))
                if check_stabilization and windows(depth) != windows(depth + 1):
                    tuples += p ** sum(windows(depth + 1))
                coset_cache[key] = tuples
            return coset_cache[key]

        def count_cosets(
            result, mu, lam, depth, group, p, rel=None, check_stabilization=True
        ):
            if result is None:
                return
            tracer.counts["oracle.cells"] += 1
            tracer.counts["oracle.tuples"] += coset_box(
                mu, lam, depth, group, p, check_stabilization
            )
            tracer.counts["oracle.hits"] += result.raw_count

        def antidominant_above(result, lam, J=None):
            if result is None:
                return
            tracer.counts["rootdata.box_points"] += search_box(lam, J, 1)
            tracer.counts["rootdata.results"] += len(result)

        def enumerate_A(result, lam):
            if result is None:
                return
            tracer.counts["hecke.aset_box_points"] += search_box(lam, None, 2)
            tracer.counts["hecke.aset_results"] += len(result.elements)

        def main(result, argv=None):
            tracer.counts["cli.requests"] += 1

        return {
            ("oracle", "count_cosets"): count_cosets,
            ("rootdata", "antidominant_above"): antidominant_above,
            ("hecke", "enumerate_A"): enumerate_A,
            ("cli", "main"): main,
        }

    # -- installation -------------------------------------------------
    def install(self) -> types.SimpleNamespace:
        """Patch the package; returns the proxy layers the benchmark calls."""
        if self.proxies is not None:
            raise RuntimeError("tracer already installed")
        observers = self._observers()
        module_layer = {id(m): layer for layer, m in self.modules.items()}
        wrappers = {}  # id(original function) -> (layer, wrapper)
        for layer, module in self.modules.items():
            for name, obj in list(vars(module).items()):
                if name.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != module.__name__:
                    continue
                observe = observers.get((layer, name))
                wrapper = self._wrap(obj, layer, observe)
                if observe is not None:
                    # counted on every call, also from inside the layer
                    self._patch(module, name, wrapper)
                wrappers[id(obj)] = (layer, wrapper)

        proxies = {}
        for layer, module in self.modules.items():
            proxy = types.ModuleType(module.__name__)
            for name, obj in vars(module).items():
                hit = wrappers.get(id(obj))
                setattr(proxy, name, hit[1] if hit else obj)
            proxies[layer] = proxy

        package = self.modules["rootdata"].__name__.rpartition(".")[0]
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == package or mod_name.startswith(package + ".")
            ):
                continue
            own = module_layer.get(id(module))
            for name, obj in list(vars(module).items()):
                if id(obj) in module_layer and module_layer[id(obj)] != own:
                    self._patch(module, name, proxies[module_layer[id(obj)]])
                    continue
                hit = wrappers.get(id(obj))
                if hit and hit[0] != own:
                    self._patch(module, name, hit[1])

        cli = self.modules["cli"]
        self._patch(cli, "jsonschema", self._timed_jsonschema(cli.jsonschema))
        self.proxies = types.SimpleNamespace(**proxies)
        return self.proxies

    def _timed_jsonschema(self, real):
        proxy = types.ModuleType(real.__name__)
        for name in dir(real):
            if not name.startswith("__"):
                setattr(proxy, name, getattr(real, name))
        tracer = self

        def validate(*args, **kwargs):
            start = time.perf_counter()
            try:
                return real.validate(*args, **kwargs)
            finally:
                tracer.schema_s += time.perf_counter() - start

        proxy.validate = validate
        return proxy

    def _patch(self, namespace, name, value):
        self._patches.append((namespace, name, getattr(namespace, name)))
        setattr(namespace, name, value)

    def uninstall(self):
        for namespace, name, original in reversed(self._patches):
            setattr(namespace, name, original)
        self._patches = []
        self.proxies = None

    # -- report -------------------------------------------------------
    def layer_metrics(self) -> dict:
        out = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = (self.calls[layer], "count")
            out[f"{layer}.busy_s"] = (self.busy[layer], "s")
            out[f"{layer}.self_s"] = (self.self_time[layer], "s")
        c = self.counts
        oracle_busy = self.busy["oracle"]
        out["oracle.cells"] = (c["oracle.cells"], "count")
        out["oracle.tuples"] = (c["oracle.tuples"], "count")
        out["oracle.us_per_tuple"] = (
            _ratio(oracle_busy * 1e6, c["oracle.tuples"]),
            "us",
        )
        out["oracle.hit_ratio"] = (_ratio(c["oracle.hits"], c["oracle.tuples"]), "ratio")
        out["rootdata.box_points"] = (c["rootdata.box_points"], "count")
        out["rootdata.yield_ratio"] = (
            _ratio(c["rootdata.results"], c["rootdata.box_points"]),
            "ratio",
        )
        out["hecke.aset_box_points"] = (c["hecke.aset_box_points"], "count")
        out["hecke.aset_yield_ratio"] = (
            _ratio(c["hecke.aset_results"], c["hecke.aset_box_points"]),
            "ratio",
        )
        out["cli.requests"] = (c["cli.requests"], "count")
        out["cli.schema_s"] = (self.schema_s, "s")
        out["bench.self_s"] = (self.self_time[BENCH], "s")
        return out

    def exact_counts(self) -> dict:
        """The counters that must repeat exactly for a fixed request list."""
        out = dict(self.counts)
        out.update({f"{layer}.calls": self.calls[layer] for layer in LAYERS})
        return out


def _ratio(num, den) -> float:
    return num / den if den else 0.0
