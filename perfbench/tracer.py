"""Per-layer tracing of the uhsl2 package from outside it.

The tracer replaces public functions and a few hot methods of each module
with timing wrappers, so the package itself stays untouched.  A layer is a
module of the package.  Calls outside the scalar layer (suites, oracles,
rewriting, matrix products, dfunctions) are also kept as individual spans
with their parent span; hot scalar operations are only aggregated in
memory, because they run up to millions of times and a span list would
swamp the run.  Everything is written out once, at the end.
"""

import functools
import inspect
import json
import time
from collections import Counter, defaultdict

MODULES = ("scalar", "su2data", "weyl", "symplecton", "reps", "slh2", "cli")

# (module, class, method names) -> span name; aliases such as __radd__ share
# the span of the method they alias.
METHOD_SPANS = (
    ("scalar", "HSeries", ("__add__", "__radd__"), "scalar.series_add"),
    ("scalar", "HSeries", ("__sub__",), "scalar.series_sub"),
    ("scalar", "HSeries", ("__rsub__",), "scalar.series_rsub"),
    ("scalar", "HSeries", ("__neg__",), "scalar.series_neg"),
    ("scalar", "HSeries", ("__mul__", "__rmul__"), "scalar.series_mul"),
    ("scalar", "HSeries", ("scale",), "scalar.series_scale"),
    ("scalar", "HSeries", ("__eq__",), "scalar.series_eq"),
    ("scalar", "HSeries", ("divide_exact",), "scalar.series_divide_exact"),
    ("scalar", "HSeries", ("invert_unit",), "scalar.series_invert_unit"),
    ("weyl", "_NormalPoly", ("__mul__",), "weyl.mul"),
    ("reps", "Matrix", ("__mul__",), "reps.matmul"),
    ("reps", "Matrix", ("exp_nilpotent",), "reps.exp_nilpotent"),
    ("reps", "Matrix", ("log_unipotent",), "reps.log_unipotent"),
    ("reps", "Matrix", ("inverse_unipotent",), "reps.inverse_unipotent"),
    ("slh2", "Presentation", ("normal_form",), "slh2.normal_form"),
    ("slh2", "Presentation", ("__init__",), "slh2.presentations_built"),
)

# Counted, never timed: these run far too often for a timer around each.
METHOD_COUNTS = (
    ("scalar", "RadicalSum", ("__mul__", "__rmul__"), "scalar.radical_mul"),
    ("scalar", "RadicalSum", ("__add__", "__radd__"), "scalar.radical_add"),
)

# Not wrapped: index and factorial helpers that cost more to time than they
# do work; their time counts to the caller, which sits in the same module.
LEAVES = ("reps.widx", "reps.twist_index", "su2data.fact", "su2data.triangle_ok")

# Hot scalar operations are only aggregated; every other name also keeps its
# first SPAN_CAP calls as individual spans, which bounds the trace's size.
HOT_LAYERS = ("scalar",)
SPAN_CAP = 20000

# Spans whose distinct argument tuples are counted, to expose repeated work.
DISTINCT = ("symplecton.product_oracle", "weyl.h_symplecton")


class Tracer:
    """Timing wrappers plus the in-memory record they fill."""

    def __init__(self):
        self.clock = time.perf_counter
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # calls, incl s, self s
        self.counts = Counter()
        self.distinct = defaultdict(set)
        self.spans = []          # [name, start, end, parent index]
        self.open_spans = []     # indices of individual spans still running
        self.child_time = []     # per open wrapped call, time of its children
        self.depth = Counter()   # open calls per name, so recursion counts once
        self.caches = {}
        self.started = self.clock()

    def _wrap(self, name, fn):
        layer = name.split(".", 1)[0]
        individual = layer not in HOT_LAYERS
        distinct = self.distinct[name] if name in DISTINCT else None
        stats, child_time, depth = self.stats[name], self.child_time, self.depth
        spans, open_spans, clock = self.spans, self.open_spans, self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if distinct is not None:
                distinct.add((args, tuple(sorted(kwargs.items()))))
            kept = individual and stats[0] < SPAN_CAP
            if kept:
                open_spans.append(len(spans))
                spans.append([name, 0.0, 0.0,
                              open_spans[-2] if len(open_spans) > 1 else -1])
            depth[name] += 1
            child_time.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                inner = child_time.pop()
                depth[name] -= 1
                duration = end - start
                if child_time:
                    child_time[-1] += duration
                stats[0] += 1
                stats[2] += duration - inner
                if not depth[name]:
                    stats[1] += duration
                if kept:
                    span = spans[open_spans.pop()]
                    span[1], span[2] = start - self.started, end - self.started

        return traced

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    def install(self, package):
        """Wrap the package's modules; returns the tracer for chaining."""
        mods = {name: getattr(package, name) for name in MODULES}
        for name, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                if hasattr(obj, "cache_info"):
                    self.caches[f"{name}.{attr}"] = obj
        replaced = {}
        for name, mod in mods.items():
            if name == "cli":
                continue
            for attr, obj in list(vars(mod).items()):
                fn = getattr(obj, "__wrapped__", obj)
                if (attr.startswith("_") or not inspect.isfunction(fn)
                        or fn.__module__ != mod.__name__
                        or f"{name}.{attr}" in LEAVES):
                    continue
                replaced[id(obj)] = self._wrap(f"{name}.{attr}", obj)
        # `from .x import f` copies the reference, so patch every module.
        for mod in mods.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced:
                    setattr(mod, attr, replaced[id(obj)])
        suites = mods["cli"].SUITES
        for key, (desc, fn) in list(suites.items()):
            suites[key] = (desc, self._wrap(f"cli.suite.{key}", fn))
        for specs, make in ((METHOD_SPANS, self._wrap), (METHOD_COUNTS, self._count)):
            for mod, cls_name, methods, name in specs:
                cls = getattr(mods[mod], cls_name)
                for method in methods:
                    setattr(cls, method, make(name, vars(cls)[method]))
        return self

    def cache_snapshot(self):
        return {name: fn.cache_info()._asdict() for name, fn in self.caches.items()}

    def layer_metrics(self):
        """Per-layer numbers named as in the benchmark definition."""
        def calls(name):
            return self.stats[name][0]

        def incl(name):
            return self.stats[name][1]

        out = {f"{name}.s": total for name, (_, total, _) in self.stats.items()
               if name.startswith("cli.suite.")}
        for name in ("symplecton.product_oracle", "symplecton.decompose_twisted",
                     "weyl.mul", "slh2.normal_form", "reps.matmul"):
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.s"] = incl(name)
        for name in DISTINCT:
            out[f"{name}.calls"] = calls(name)
            out[f"{name}.distinct"] = len(self.distinct[name])
        for name in ("scalar.series_mul", "scalar.series_add",
                     "reps.exp_nilpotent", "reps.inverse_unipotent", "su2data.cgc"):
            out[f"{name}.calls"] = calls(name)
        out["scalar.radical_mul.calls"] = self.counts["scalar.radical_mul"]
        out["scalar.radical_add.calls"] = self.counts["scalar.radical_add"]
        out["slh2.presentations_built"] = calls("slh2.presentations_built")
        out["slh2.dfunction.s"] = incl("slh2.dfunction")
        self_s = Counter()
        for name, (_, _, own) in self.stats.items():
            self_s[name.split(".", 1)[0]] += own
        for layer in MODULES:
            if layer != "cli":
                out[f"{layer}.self_s"] = self_s[layer]
        hits, misses = Counter(), Counter()
        for name, info in self.cache_snapshot().items():
            layer = name.split(".", 1)[0]
            hits[layer] += info["hits"]
            misses[layer] += info["misses"]
        for layer in ("weyl", "su2data", "slh2", "reps"):
            total = hits[layer] + misses[layer]
            out[f"{layer}.cache_hit_ratio"] = hits[layer] / total if total else 0.0
            out[f"{layer}.cache_misses"] = misses[layer]
        return out

    def dump(self, path):
        """Write metrics, cache snapshot, aggregates and spans as JSON."""
        record = {
            "traced_s": self.clock() - self.started,
            "layers": self.layer_metrics(),
            "caches": self.cache_snapshot(),
            "aggregates": {name: {"calls": n, "inclusive_s": total, "self_s": own}
                           for name, (n, total, own) in sorted(self.stats.items())},
            "counts": dict(self.counts),
            "spans": self.spans,
        }
        with open(path, "w") as fh:
            json.dump(record, fh)

