"""Span tracing of ncfem from outside the package.

`install` wraps every public function of every loaded `ncfem` module, the
public methods of `assembly.Assembler`, and the SuperLU entry points that
`ncfem.solve` calls.  A function bound into other modules by `from ... import`
is re-bound in each of them, so a call goes through the wrapper whatever
namespace it is made from.  Spans (name, start, end, parent) stay in memory;
`layer_metrics` turns them into per-layer durations, self times and counts.
"""
from __future__ import annotations

import functools
import inspect
import sys
from collections import defaultdict
from time import perf_counter

PACKAGE = "ncfem"


class Tracer:
    def __init__(self):
        self.spans = []          # [name, start, end, parent index or -1]
        self.stack = []
        self.counts = defaultdict(float)

    def wrap(self, name, fn, after=None):
        spans, stack = self.spans, self.stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, perf_counter(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()
            if after is not None:
                after(self.counts, args, result)
            return result
        return traced


# Counters taken from a traced call's arguments and result.

def _count_splu(counts, args, lu):
    counts["solve.splu.nnz_lu"] += lu.nnz
    counts["solve.splu.nnz_a"] += args[0].nnz


def _count_newton(counts, args, result):
    trace = result[1]
    counts["solve.newton.iters"] += trace.iterations
    counts["solve.newton.converged"] += bool(trace.converged)


def _count_marked(counts, args, marked):
    counts["afem.marked"] += len(marked)
    counts["afem.marked_of"] += args[0].n_triangles


def _count_levels(counts, args, result):
    counts["afem.levels"] += len(result.records)


HOOKS = {
    "solve.newton_solve": _count_newton,
    "afem.dorfler_mark": _count_marked,
    "afem.afem_loop": _count_levels,
}

# lru_cache'd functions whose hit ratio is reported
CACHED = ("assembly.assembler", "spaces.basis_tables")


class _ModuleProxy:
    """Stands in for a module; the given attributes override it."""

    def __init__(self, module, **overrides):
        self.__dict__.update(overrides)
        self._module = module

    def __getattr__(self, name):
        return getattr(self._module, name)


def _traceable(obj):
    return (inspect.isfunction(obj) or hasattr(obj, "cache_info")) \
        and not inspect.isgeneratorfunction(obj)


def install(tracer: Tracer):
    """Wraps the loaded ncfem modules in place; returns the original cached
    functions by span name, for their cache statistics."""
    modules = {name: mod for name, mod in list(sys.modules.items())
               if name == PACKAGE or name.startswith(PACKAGE + ".")}
    wrapped = {}      # id(original) -> (original, wrapper)
    cached = {}
    for modname, mod in modules.items():
        if modname == PACKAGE:
            continue
        layer = modname.split(".", 1)[1]
        for attr, obj in vars(mod).items():
            if attr.startswith("_") or not _traceable(obj) \
                    or getattr(obj, "__module__", None) != modname:
                continue
            name = f"{layer}.{attr}"
            wrapped[id(obj)] = (obj, tracer.wrap(name, obj, HOOKS.get(name)))
            if name in CACHED:
                cached[name] = obj
    for mod in modules.values():
        for attr, obj in list(vars(mod).items()):
            hit = wrapped.get(id(obj))
            if hit is not None and hit[0] is obj:
                setattr(mod, attr, hit[1])

    assembly, solve = modules[f"{PACKAGE}.assembly"], modules[f"{PACKAGE}.solve"]
    for attr, fn in list(vars(assembly.Assembler).items()):
        if not attr.startswith("_") and inspect.isfunction(fn):
            setattr(assembly.Assembler, attr, tracer.wrap(f"assembly.{attr}", fn))
    spla = solve.spla
    solve.spla = _ModuleProxy(
        spla,
        splu=tracer.wrap("solve.splu", spla.splu, _count_splu),
        spsolve=tracer.wrap("solve.spsolve", spla.spsolve))
    return cached


def _span_totals(spans, t0, t1):
    """Per name: outermost duration, self time and call count of the spans
    that start inside [t0, t1]; also the time no span covers."""
    total, self_t, calls = defaultdict(float), defaultdict(float), defaultdict(int)
    child = [0.0] * len(spans)
    covered = 0.0
    for name, start, end, parent in spans:
        if start < t0 or start > t1:
            continue
        dur = end - start
        calls[name] += 1
        if parent >= 0:
            child[parent] += dur
        else:
            covered += dur
        p, recursive = parent, False
        while p >= 0:
            if spans[p][0] == name:
                recursive = True
                break
            p = spans[p][3]
        if not recursive:
            total[name] += dur
    for i, (name, start, end, _) in enumerate(spans):
        if t0 <= start <= t1:
            self_t[name] += (end - start) - child[i]
    return total, self_t, calls, (t1 - t0) - covered


def layer_metrics(tracer: Tracer, cached: dict, window, setup_window):
    """Flat {metric: value} for one traced rep.  `window` is the span of the
    CLI commands (first start, last end), `setup_window` that of set-up."""
    total, self_t, calls, untraced = _span_totals(tracer.spans, *window)
    s_total, _, s_calls, _ = _span_totals(tracer.spans, *setup_window)
    counts = tracer.counts
    out = {}
    for name in set(total) | set(s_total):
        out[f"{name}.s"] = total.get(name, 0.0) + s_total.get(name, 0.0)
        out[f"{name}.calls"] = calls.get(name, 0) + s_calls.get(name, 0)
        out[f"{name}.self_s"] = self_t.get(name, 0.0)
    modules = defaultdict(float)
    for name, t in self_t.items():
        modules[name.split(".", 1)[0]] += t
    for module, t in modules.items():
        out[f"{module}.self_s"] = t
    out["untraced.s"] = untraced
    out["trace.wall_s"] = window[1] - window[0]

    # retries: spsolve calls beyond the first inside one sparse_solve
    spans = tracer.spans
    per_solve = defaultdict(int)
    for name, start, _, parent in spans:
        if name == "solve.spsolve" and parent >= 0 and spans[parent][0] == "solve.sparse_solve" \
                and window[0] <= start <= window[1]:
            per_solve[parent] += 1
    out["solve.sparse_solve.retries"] = sum(max(0, k - 1) for k in per_solve.values())
    out["solve.splu.fill"] = (counts["solve.splu.nnz_lu"] / counts["solve.splu.nnz_a"]
                              if counts["solve.splu.nnz_a"] else 0.0)
    out["solve.newton.iters"] = counts["solve.newton.iters"]
    n_newton = out.get("solve.newton_solve.calls", 0)
    out["solve.newton.converged_frac"] = (counts["solve.newton.converged"] / n_newton
                                          if n_newton else 0.0)
    out["afem.marked_frac"] = (counts["afem.marked"] / counts["afem.marked_of"]
                               if counts["afem.marked_of"] else 0.0)
    out["afem.levels"] = counts["afem.levels"]
    out["assembly.gamma_value.calls"] = (out.get("assembly.gamma_ns_value.calls", 0)
                                         + out.get("assembly.gamma_vk_value.calls", 0))
    for name, fn in cached.items():
        info = fn.cache_info()
        lookups = info.hits + info.misses
        out[f"{name}.hit_ratio"] = info.hits / lookups if lookups else 0.0
    return out
