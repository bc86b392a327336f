"""Span tracer for the traced benchmark run.

The traced run wraps public functions of each exactcat module from here,
so the program itself carries no instrumentation.  Every wrapped call
records one span (name, start, end, parent) in memory; per-layer metrics
are derived from the spans when the run ends, and the spans are written
out then.  Untraced runs never import this module, so they install no
wrappers.

A wrapped function is rebound in every ``exactcat`` module that holds it
by name (``from .intlinalg import column_hnf_transform`` makes a second
reference that would otherwise bypass the wrapper).  Modules are looked
up through ``sys.modules``: the package attribute ``exactcat.kernel`` is
the re-exported function ``kernel``, not the module.
"""

from __future__ import annotations

import functools
import gc
import gzip
import importlib
import json
import sys
import time

# (module, function or Class.method); the metric prefix is module.name.
# Model methods are wrapped on every model class that defines them and
# reported as models.<method>, whichever file defines them.
FUNCTIONS = [
    ("intlinalg", "column_hnf_transform"),
    ("intlinalg", "MatrixEquationSystem.solve"),
    ("intlinalg", "MatrixEquationSystem._assemble"),
    ("intlinalg", "smith_normal_form"),
    ("intlinalg", "kernel_basis"),
    ("intlinalg", "_solver"),
    ("intlinalg", "IntMatrix.__matmul__"),
    ("intlinalg", "reduce_columns_mod_lattice"),
    ("kernel", "MorphismSystem.solve"),
    ("kernel", "pushout_along_monic"),
    ("kernel", "pullback_along_epic"),
    ("diagrams", "snake"),
    ("diagrams", "check_snake_naturality"),
    ("diagrams", "five_lemma_verify"),
    ("complexes", "find_null_homotopy"),
    ("complexes", "is_acyclic"),
    ("complexes", "homology"),
    ("resolutions", "projective_resolution"),
    ("resolutions", "compare_lift"),
    ("resolutions", "lift_homotopy"),
    ("resolutions", "horseshoe"),
    ("resolutions", "projective_replacement"),
    ("resolutions", "derived"),
    ("completion", "split_idempotent"),
    ("documents", "load_document"),
    ("cli", "main"),
]

MODEL_METHODS = ["morphism", "kernel", "cokernel", "analyze", "is_short_exact",
                 "is_admissible_monic", "is_admissible_epic"]

# lru-cached functions whose hit ratio is reported.
CACHED = ["intlinalg.column_hnf_transform", "intlinalg.smith_normal_form",
          "intlinalg.kernel_basis", "intlinalg._solver"]

# Modules whose lru caches are summed into caches.lru.entries.
CACHE_MODULES = ["intlinalg", "models", "resolutions"]

LAW_SPANS = {"generate": "laws.generate", "check": "laws.check",
             "shrink": "laws.shrink"}

# Each per-layer metric: (name, unit, better, end-to-end metrics it should
# move, workloads on which it should move them).
_WALL = ("wall_s",)


def _fn_metrics(prefix, moves, workloads, cached=False):
    out = [(f"{prefix}.calls", "count", "lower", moves, workloads),
           (f"{prefix}.self_s", "s", "lower", moves, workloads)]
    if cached:
        out.append((f"{prefix}.hit_ratio", "fraction", "higher", moves, workloads))
    return out


def _layer_table():
    t = []
    lin_big = ("laws_fgab", "constructions")
    t += _fn_metrics("intlinalg.column_hnf_transform", _WALL, lin_big, cached=True)
    t.append(("intlinalg.column_hnf_transform.max_bits", "bits", "lower", _WALL, lin_big))
    split = ("wall_s", "ops_per_s")
    split_on = ("laws_split", "laws_fgab")
    t += _fn_metrics("intlinalg.MatrixEquationSystem.solve", split, split_on)
    t += _fn_metrics("intlinalg.MatrixEquationSystem._assemble", split, split_on)
    t += [("intlinalg.system.cells_max", "count", "lower", split, split_on),
          ("intlinalg.system.cells_sum", "count", "lower", split, split_on),
          ("intlinalg.system.density", "fraction", "higher", split, split_on),
          ("intlinalg.system.max_bits", "bits", "lower", split, split_on)]
    mem = ("peak_rss_mb", "call_p50_ms")
    every = ("laws_fgab", "laws_split", "constructions")
    for name in ("smith_normal_form", "kernel_basis", "_solver"):
        t += _fn_metrics(f"intlinalg.{name}", mem, every, cached=True)
    t += _fn_metrics("intlinalg.IntMatrix.__matmul__", mem, every)
    t += _fn_metrics("intlinalg.reduce_columns_mod_lattice", mem, every)
    t.append(("caches.lru.entries", "count", "lower", ("peak_rss_mb",), every))
    model_on = ("constructions", "laws_fgab")
    for name in MODEL_METHODS:
        t += _fn_metrics(f"models.{name}", ("call_p50_ms", "ops_per_s"), model_on)
    for name in ("MorphismSystem.solve", "pushout_along_monic", "pullback_along_epic"):
        t += _fn_metrics(f"kernel.{name}", ("call_p50_ms", "ops_per_s"), model_on)
    for name in ("snake", "check_snake_naturality", "five_lemma_verify"):
        t += _fn_metrics(f"diagrams.{name}", ("call_p99_ms",), ("constructions",))
    for name in ("find_null_homotopy", "is_acyclic", "homology"):
        t += _fn_metrics(f"complexes.{name}", ("call_p99_ms", "wall_s"),
                         ("constructions", "laws_split"))
    for name in ("projective_resolution", "compare_lift", "lift_homotopy",
                 "horseshoe", "projective_replacement", "derived"):
        t += _fn_metrics(f"resolutions.{name}", ("call_p50_ms", "call_p99_ms"),
                         ("constructions",))
    t += _fn_metrics("completion.split_idempotent", ("peak_rss_mb", "wall_s"),
                     ("laws_split",))
    t.append(("completion.splits_cached", "count", "lower",
              ("peak_rss_mb", "wall_s"), ("laws_split",)))
    laws_on = ("laws_fgab", "laws_split")
    t += [("laws.generate_s", "s", "lower", _WALL, laws_on),
          ("laws.check_s", "s", "lower", _WALL, laws_on),
          ("laws.shrink_s", "s", "lower", _WALL, laws_on),
          ("laws.instances", "count", "higher", _WALL, laws_on),
          ("laws.failures", "count", "lower", _WALL, laws_on)]
    for name in ("documents.load_document", "cli.main"):
        t += _fn_metrics(name, ("setup_s", "call_p50_ms"), ("constructions",))
    t.append(("trace.overhead_s", "s", "lower", (), every))
    return t


LAYERS = _layer_table()


def self_times(names, starts, ends, parents):
    """Per span name: (calls, summed self time).  A span's self time is its
    duration minus the durations of its direct children, which nest inside
    it and do not overlap one another."""
    child = [0.0] * len(starts)
    for i, p in enumerate(parents):
        if p >= 0:
            child[p] += ends[i] - starts[i]
    out = {}
    for i, name in enumerate(names):
        calls, total = out.get(name, (0, 0.0))
        out[name] = (calls + 1, total + ends[i] - starts[i] - child[i])
    return out


def inclusive_time(names, starts, ends, parents, name, outside=None):
    """Summed duration of the spans called ``name`` that have no ancestor
    called ``name`` (so recursion is not counted twice) and, if given, no
    ancestor called ``outside``."""
    total = 0.0
    for i, n in enumerate(names):
        if n != name:
            continue
        p = parents[i]
        while p >= 0 and names[p] != name and names[p] != outside:
            p = parents[p]
        if p < 0:
            total += ends[i] - starts[i]
    return total


def _max_bits(m):
    return max((abs(x) for row in m.entries for x in row), default=0).bit_length()


class Tracer:
    """Records spans around wrapped calls; one instance per traced run."""

    def __init__(self):
        self.names: list[str] = []
        self.starts: list[float] = []
        self.ends: list[float] = []
        self.parents: list[int] = []
        self._stack = [-1]
        self.counters = {"hnf_max_bits": 0, "cells_max": 0, "cells_sum": 0,
                         "nonzeros_sum": 0, "system_max_bits": 0,
                         "law_instances": 0, "law_failures": 0}
        self._cached: dict[str, object] = {}
        self._seen_hnf: set[int] = set()

    def wrap(self, name, fn, after=None):
        """``fn`` with a span named ``name`` around each call; ``after``
        sees the result once the span has closed."""
        names, starts, ends, parents, stack = (
            self.names, self.starts, self.ends, self.parents, self._stack)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(name)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if after is not None:
                after(result)
            return result

        traced.bench_span = name
        return traced

    # -- result hooks ------------------------------------------------------

    def _after_hnf(self, result):
        # a cache hit returns the same tuple; the cache never evicts, so an
        # id is not reused while the run lasts
        if id(result) in self._seen_hnf:
            return
        self._seen_hnf.add(id(result))
        h, v = result
        c = self.counters
        c["hnf_max_bits"] = max(c["hnf_max_bits"], _max_bits(h), _max_bits(v))

    def _after_assemble(self, result):
        big = result[0]
        cells = big.rows * big.cols
        c = self.counters
        c["cells_max"] = max(c["cells_max"], cells)
        c["cells_sum"] += cells
        c["nonzeros_sum"] += sum(1 for row in big.entries for x in row if x)
        c["system_max_bits"] = max(c["system_max_bits"], _max_bits(big))

    def _wrap_run_law(self, run_law):
        gen_span = functools.partial(self.wrap, LAW_SPANS["generate"])
        check_span = functools.partial(self.wrap, LAW_SPANS["check"])
        counters = self.counters

        @functools.wraps(run_law)
        def traced_run_law(law_id, model, cfg, generate, predicate, edges=()):
            rep = run_law(law_id, model, cfg, gen_span(generate),
                          check_span(predicate), edges)
            counters["law_instances"] += rep.instances_run
            counters["law_failures"] += len(rep.failures)
            return rep

        return traced_run_law

    # -- installation ------------------------------------------------------

    def install(self):
        """Wrap every target in the imported exactcat modules."""
        mods = {name: importlib.import_module(f"exactcat.{name}")
                for name in {m for m, _ in FUNCTIONS} | {"laws"}}
        after = {"intlinalg.column_hnf_transform": self._after_hnf,
                 "intlinalg.MatrixEquationSystem._assemble": self._after_assemble}
        for mod, attr in FUNCTIONS:
            metric = f"{mod}.{attr}"
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(mods[mod], cls_name)
                setattr(cls, meth, self.wrap(metric, cls.__dict__[meth],
                                             after.get(metric)))
            else:
                orig = getattr(mods[mod], attr)
                wrapper = self.wrap(metric, orig, after.get(metric))
                if metric in CACHED:
                    self._cached[metric] = wrapper
                _rebind(orig, wrapper)
        base = mods["kernel"].ExactStructureModel
        for cls in _model_classes(base):
            for meth in MODEL_METHODS:
                if meth in cls.__dict__:
                    setattr(cls, meth, self.wrap(f"models.{meth}", cls.__dict__[meth]))
        laws = mods["laws"]
        _rebind(laws._shrink, self.wrap(LAW_SPANS["shrink"], laws._shrink))
        _rebind(laws.run_law, self._wrap_run_law(laws.run_law))

    # -- results -----------------------------------------------------------

    def metrics(self):
        """Every per-layer metric of LAYERS but trace.overhead_s, which needs
        an untraced run of the same chunk."""
        spans = (self.names, self.starts, self.ends, self.parents)
        st = self_times(*spans)
        out = {}
        for name, *_ in LAYERS:
            prefix, _, qty = name.rpartition(".")
            if qty in ("calls", "self_s"):
                calls, selft = st.get(prefix, (0, 0.0))
                out[name] = calls if qty == "calls" else selft
        for metric, wrapper in self._cached.items():
            info = wrapper.__wrapped__.cache_info()
            looked = info.hits + info.misses
            out[f"{metric}.hit_ratio"] = info.hits / looked if looked else 0.0
        c = self.counters
        out["intlinalg.column_hnf_transform.max_bits"] = c["hnf_max_bits"]
        out["intlinalg.system.cells_max"] = c["cells_max"]
        out["intlinalg.system.cells_sum"] = c["cells_sum"]
        out["intlinalg.system.density"] = (
            c["nonzeros_sum"] / c["cells_sum"] if c["cells_sum"] else 0.0)
        out["intlinalg.system.max_bits"] = c["system_max_bits"]
        out["caches.lru.entries"] = sum(
            f.cache_info().currsize for f in _lru_caches(CACHE_MODULES))
        completion = sys.modules["exactcat.completion"]
        out["completion.splits_cached"] = sum(
            len(o._splits) for o in gc.get_objects()
            if isinstance(o, completion.CompletedModel))
        out["laws.generate_s"] = inclusive_time(*spans, LAW_SPANS["generate"])
        out["laws.check_s"] = inclusive_time(*spans, LAW_SPANS["check"],
                                             outside=LAW_SPANS["shrink"])
        out["laws.shrink_s"] = inclusive_time(*spans, LAW_SPANS["shrink"])
        out["laws.instances"] = c["law_instances"]
        out["laws.failures"] = c["law_failures"]
        return {name: out[name] for name, *_ in LAYERS if name != "trace.overhead_s"}

    def write_spans(self, path):
        """Spans as gzipped JSON: a name table and [name, start, end, parent]
        rows, with times relative to the first span."""
        table = sorted(set(self.names))
        index = {n: i for i, n in enumerate(table)}
        t0 = self.starts[0] if self.starts else 0.0
        rows = [[index[n], round(s - t0, 7), round(e - t0, 7), p]
                for n, s, e, p in zip(self.names, self.starts, self.ends, self.parents)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": table, "spans": rows}, fh, separators=(",", ":"))


def _exactcat_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "exactcat" or name.startswith("exactcat."))]


def _rebind(orig, wrapper):
    """Point every module-level name bound to ``orig`` at ``wrapper``."""
    for mod in _exactcat_modules():
        for attr, val in list(vars(mod).items()):
            if val is orig:
                setattr(mod, attr, wrapper)


def _model_classes(base):
    seen, todo = [], [base]
    while todo:
        cls = todo.pop()
        if cls not in seen:
            seen.append(cls)
            todo.extend(cls.__subclasses__())
    return seen


def _lru_caches(module_names):
    """Every lru_cache object defined at module or class level, unwrapped
    through ``__wrapped__`` where the tracer has replaced it."""
    found = {}
    for name in module_names:
        mod = sys.modules[f"exactcat.{name}"]
        values = list(vars(mod).values())
        for v in list(values):
            if isinstance(v, type) and v.__module__ == mod.__name__:
                values.extend(vars(v).values())
        for v in values:
            while hasattr(v, "bench_span"):
                v = v.__wrapped__
            if hasattr(v, "cache_info"):
                found[id(v)] = v
    return list(found.values())
