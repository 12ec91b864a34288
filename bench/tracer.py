"""Spans and work counters recorded around lipgrowth's public functions.

The tracer patches, from outside the package, every public module-level
function of the layers below, plus the methods where the work happens: the
transfer operators' ``apply`` and ``apply_exact`` (span named by operator
kind) and ``Graph.from_edges``.  A patched name is replaced in every
lipgrowth module that imported it, so calls between modules are seen too.
The ``apply_fn`` handed to ``power_iteration`` by a continuum solver is
wrapped as its own span, so no private name is touched.

A span's self time is its duration minus the durations of its direct
children.  Self times telescope: summed over every span they equal the
summed durations of the outermost spans (the ``cli.main`` calls).  The rest
of a traced pass, which no span covers, is the benchmark's own loop: output
capture, JSON parsing and checking.
"""
from __future__ import annotations

import importlib
import inspect
import time
from collections import Counter, defaultdict

LAYERS = ("cli", "graphs", "counting", "strips", "iterate", "continuum",
          "randomlab")

# power_iteration's apply_fn, named after the continuum solver that passes it
APPLY_FN_SPANS = {
    "continuum.nystrom_top": "continuum.nystrom.apply",
    "continuum.solve_zeta": "continuum.zeta.apply",
    "continuum.solve_psi": "continuum.psi.apply",
}

# per-layer metric -> span whose summed self time it reports
SELF_TIME_METRICS = {
    "strips.free-strip.apply_s": "strips.free-strip.apply",
    "strips.free-strip.apply_exact_s": "strips.free-strip.apply_exact",
    "strips.pinned-strip.apply_s": "strips.pinned-strip.apply",
    "strips.band.apply_s": "strips.band.apply",
    "strips.tent.apply_s": "strips.tent.apply",
    "iterate.power_iteration_s": "iterate.power_iteration",
    "continuum.kernel_matrix_s": "continuum.kernel_matrix",
    "continuum.nystrom.apply_s": "continuum.nystrom.apply",
    "continuum.zeta.apply_s": "continuum.zeta.apply",
    "continuum.psi.apply_s": "continuum.psi.apply",
    "counting.count_with_stats_s": "counting.count_with_stats",
    "counting.ehrhart_fit_s": "counting.ehrhart_fit",
    "graphs.sample_er_s": "graphs.sample_er",
    "graphs.from_edges_s": "graphs.from_edges",
    "graphs.components_s": "graphs.components",
    "graphs.read_edgelist_s": "graphs.read_edgelist",
    "randomlab.lll_sampler_s": "randomlab.lll_sampler",
    "randomlab.pair_search_s": "randomlab.independent_pair_search",
    "randomlab.bound_report_s": "randomlab.bound_report",
}

# per-layer metric -> span whose number of calls it reports
CALL_COUNT_METRICS = {
    "strips.free-strip.applies": "strips.free-strip.apply",
    "strips.free-strip.apply_exact_calls": "strips.free-strip.apply_exact",
    "iterate.solves": "iterate.power_iteration",
    "counting.calls": "counting.count_with_stats",
}

_INT64_SAFE = 1 << 62


def _apply_hook(tr, args, kwargs, result):
    op, x = args[0], args[1]
    tr.maximum("strips.state_dim_max", int(x.size))
    if op.kind == "free-strip":
        tr.add("strips.free-strip.pair_evals", op.dim * op.dim)


def _apply_exact_hook(tr, args, kwargs, result):
    op, xs = args[0], args[1]
    tr.maximum("strips.state_dim_max", len(xs))
    if op.m > 1 and (2 * op.h + 1) * sum(xs) >= _INT64_SAFE:
        tr.add(f"strips.{op.kind}.apply_exact_bigint_calls", 1)


def _power_iteration_hook(tr, args, kwargs, result):
    tr.add("iterate.iterations", result[3])


def _count_hook(tr, args, kwargs, result):
    tr.add("counting.expansions", result[1])
    tr.add("counting.counted", result[0])


def _sample_er_hook(tr, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    tr.add("graphs.sample_er.pairs_drawn", n * (n - 1) // 2)
    tr.add("graphs.sample_er.edges", len(result.edges))


def _lll_hook(tr, args, kwargs, result):
    tr.add("randomlab.lll_sampler.trials", result.trials)


HOOKS = {
    "iterate.power_iteration": _power_iteration_hook,
    "counting.count_with_stats": _count_hook,
    "graphs.sample_er": _sample_er_hook,
    "randomlab.lll_sampler": _lll_hook,
}


class Tracer:
    """In-memory spans ``[name, parent, start, end]`` and exact counters."""

    def __init__(self):
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counters: Counter = Counter()
        self._undo: list[tuple[object, str, object]] = []

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()

    def add(self, key: str, amount) -> None:
        self.counters[key] += amount

    def maximum(self, key: str, value) -> None:
        self.counters[key] = max(self.counters[key], value)

    def current(self) -> str | None:
        return self.spans[self.stack[-1]][0] if self.stack else None

    def call(self, name, fn, args, kwargs, hook=None):
        rec = [name, self.stack[-1] if self.stack else -1,
               time.perf_counter(), 0.0]
        self.stack.append(len(self.spans))
        self.spans.append(rec)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            rec[3] = time.perf_counter()
            self.stack.pop()
            self.counters[name.split(".")[0] + ".errors"] += 1
            raise
        rec[3] = time.perf_counter()
        self.stack.pop()
        if hook is not None:
            hook(self, args, kwargs, result)
        return result

    # -- patching -----------------------------------------------------------

    def _wrap_function(self, name, fn):
        hook = HOOKS.get(name)

        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def _wrap_power_iteration(self, fn):
        def traced(apply_fn, x0, *args, **kwargs):
            label = APPLY_FN_SPANS.get(self.current())
            if label is not None:
                inner = apply_fn
                apply_fn = lambda x: self.call(label, inner, (x,), {})  # noqa: E731
                self.maximum("continuum.mesh_nodes_max", int(x0.size))
            return self.call("iterate.power_iteration", fn,
                             (apply_fn, x0) + args, kwargs,
                             _power_iteration_hook)
        traced.__wrapped__ = fn
        return traced

    def _wrap_method(self, method, fn, hook):
        def traced(op, *args, **kwargs):
            return self.call(f"strips.{op.kind}.{method}", fn, (op,) + args,
                             kwargs, hook)
        traced.__wrapped__ = fn
        return traced

    def _set(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Patch the public functions of every layer; undo with uninstall()."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        pkg = importlib.import_module("lipgrowth")
        mods = {layer: importlib.import_module(f"lipgrowth.{layer}")
                for layer in LAYERS}
        holders = [pkg, *mods.values()]
        for layer, mod in mods.items():
            for attr, fn in list(vars(mod).items()):
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__):
                    continue
                name = f"{layer}.{attr}"
                wrapped = (self._wrap_power_iteration(fn)
                           if name == "iterate.power_iteration"
                           else self._wrap_function(name, fn))
                for holder in holders:
                    for key, value in list(vars(holder).items()):
                        if value is fn:
                            self._set(holder, key, wrapped)
        strips = mods["strips"]
        for cls in (strips.BandOperator, strips.FreeStripOperator,
                    strips.PinnedStripOperator):
            for method, hook in (("apply", _apply_hook),
                                 ("apply_exact", _apply_exact_hook)):
                if method in vars(cls):
                    self._set(cls, method,
                              self._wrap_method(method, vars(cls)[method], hook))
        graph_cls = mods["graphs"].Graph
        from_edges = vars(graph_cls)["from_edges"].__func__
        self._set(graph_cls, "from_edges", classmethod(
            self._wrap_function("graphs.from_edges", from_edges)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # -- reduction ----------------------------------------------------------

    def summary(self) -> dict:
        """Self time per span name and per layer, call counts, counters."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        self_by_name: dict[str, float] = defaultdict(float)
        calls: Counter = Counter()
        root_total = 0.0
        for (name, parent, start, end), inner in zip(self.spans, child):
            self_by_name[name] += end - start - inner
            calls[name] += 1
            if parent < 0:
                root_total += end - start
        self_by_layer: dict[str, float] = defaultdict(float)
        for name, value in self_by_name.items():
            self_by_layer[name.split(".")[0]] += value
        return {"self_by_name": dict(self_by_name),
                "self_by_layer": dict(self_by_layer),
                "calls": dict(calls), "counters": dict(self.counters),
                "root_total_s": root_total, "spans": len(self.spans)}


def layer_metrics(summary: dict) -> dict:
    """Per-layer metrics of one traced pass, zero where a layer did no work."""
    counters = summary["counters"]
    out = {}
    for layer in LAYERS:
        out[f"{layer}.self_s"] = summary["self_by_layer"].get(layer, 0.0)
        out[f"{layer}.errors"] = counters.get(f"{layer}.errors", 0)
    for metric, span in SELF_TIME_METRICS.items():
        out[metric] = summary["self_by_name"].get(span, 0.0)
    for metric, span in CALL_COUNT_METRICS.items():
        out[metric] = summary["calls"].get(span, 0)
    for key in ("strips.free-strip.pair_evals",
                "strips.free-strip.apply_exact_bigint_calls",
                "strips.state_dim_max", "iterate.iterations",
                "continuum.mesh_nodes_max", "counting.expansions",
                "graphs.sample_er.pairs_drawn", "graphs.sample_er.edges",
                "randomlab.lll_sampler.trials"):
        out[key] = counters.get(key, 0)
    expansions = counters.get("counting.expansions", 0)
    out["counting.counted_per_expansion"] = (
        counters.get("counting.counted", 0) / expansions if expansions else 0.0)
    pairs = counters.get("graphs.sample_er.pairs_drawn", 0)
    out["graphs.sample_er.edges_per_draw"] = (
        counters.get("graphs.sample_er.edges", 0) / pairs if pairs else 0.0)
    return out
