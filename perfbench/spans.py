"""Per-layer tracing for one benchmark child process.

`install()` wraps public functions of the `unirack` modules in place.  A
span wrapper records calls, inclusive time and self time (its duration
minus the time its child spans cover); a count wrapper only counts calls,
for the hot kernels whose per-call cost a span would swamp.  Each wrapper
replaces every binding of its function across the `unirack` modules,
because `detect`, `catalog` and `cli` import names directly.  Aggregates
stay in memory; `snapshot()` returns them for the child to write out at
exit.  `layer_metrics()` turns the summed aggregates of a round into the
per-layer metrics named in `LAYER_METRICS`.
"""

from __future__ import annotations

import importlib
import itertools
import time

MODULES = ("ffield", "matgroup", "chevalley", "rack", "detect", "catalog",
           "cli", "cache")

# (module, function) pairs that get a span
SPAN_FUNCS = (
    ("matgroup", "class_orbit"), ("matgroup", "orbit_under"),
    ("matgroup", "subgroup_closure"),
    ("chevalley", "torus_witness"), ("chevalley", "torus_family"),
    ("chevalley", "ab_property"),
    ("catalog", "group_catalog"), ("catalog", "label_of"),
    ("catalog", "class_context"),
    ("detect", "classify"), ("detect", "find_d_torus"),
    ("detect", "find_f_torus"), ("detect", "find_d_product"),
    ("detect", "find_d_block"), ("detect", "find_d_sampled"),
    ("detect", "d_pair"), ("detect", "refute_d"), ("detect", "refute_f"),
    ("detect", "check_f_family"),
    ("rack", "conj_rack"), ("rack", "inn_order"),
    ("rack", "perm_group_order"), ("rack", "sober_check"),
    ("cli", "main"),
)
# (module, class, method) triples that get a span
SPAN_METHODS = (
    ("chevalley", "SymplecticModel", "x"),
    ("chevalley", "SymplecticModel", "coroot"),
    ("chevalley", "SymplecticModel", "torus"),
    ("chevalley", "SymplecticModel", "weyl_rep"),
    ("chevalley", "SymplecticModel", "group_generators"),
    ("chevalley", "SymplecticModel", "evaluate"),
    ("chevalley", "SymplecticModel", "factorize"),
    ("chevalley", "SymplecticModel", "reorder"),
    ("cache", "Cache", "get"),
    ("cache", "Cache", "put"),
)
COUNT_FUNCS = (
    ("matgroup", "mul_flat"), ("matgroup", "inv_flat"),
    ("detect", "collapse_eq_holds"),
)
CHEVALLEY_SPANS = ("chevalley.torus_witness", "chevalley.torus_family",
                   "chevalley.ab_property") + tuple(
    f"chevalley.SymplecticModel.{m}" for mod, cls, m in SPAN_METHODS
    if cls == "SymplecticModel")


class _Agg:
    __slots__ = ("calls", "incl", "self", "depth", "extra")

    def __init__(self):
        self.calls = 0
        self.incl = 0.0
        self.self = 0.0
        self.depth = 0
        self.extra: dict = {}

    def add(self, key, value):
        self.extra[key] = self.extra.get(key, 0) + value


class Tracer:
    "Span and count wrappers for one process, with their aggregates."

    def __init__(self):
        self.aggs: dict[str, _Agg] = {}
        self.counters: dict[str, itertools.count] = {}
        self.stack: list = []       # [name, time covered by child spans]
        self._seen_catalogs: set = set()

    def _agg(self, name):
        agg = self.aggs.get(name)
        if agg is None:
            agg = self.aggs[name] = _Agg()
        return agg

    def span(self, name, fn):
        agg = self._agg(name)
        stack = self.stack
        on_result = _ON_RESULT.get(name)
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            agg.depth += 1
            t = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t
                stack.pop()
                agg.depth -= 1
                agg.calls += 1
                agg.self += dt - frame[1]
                if agg.depth == 0:      # recursion: count the outer level
                    agg.incl += dt
                if stack:
                    stack[-1][1] += dt
            if on_result is not None:
                on_result(self, agg, parent, args, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def count(self, name, fn):
        counter = self.counters[name] = itertools.count()
        tick = counter.__next__

        def wrapper(*args):
            tick()
            return fn(*args)

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self):
        mods = [importlib.import_module(f"unirack.{m}") for m in MODULES]
        for mod_name, fn_name in SPAN_FUNCS:
            _rebind(mods, mod_name, fn_name,
                    lambda fn, n=f"{mod_name}.{fn_name}": self.span(n, fn))
        for mod_name, fn_name in COUNT_FUNCS:
            _rebind(mods, mod_name, fn_name,
                    lambda fn, n=f"{mod_name}.{fn_name}": self.count(n, fn))
        for mod_name, cls_name, meth in SPAN_METHODS:
            cls = getattr(importlib.import_module(f"unirack.{mod_name}"),
                          cls_name)
            setattr(cls, meth, self.span(f"{mod_name}.{cls_name}.{meth}",
                                         getattr(cls, meth)))
        return self

    def snapshot(self) -> dict:
        out = {name: {"calls": a.calls, "incl": a.incl, "self": a.self,
                      **a.extra}
               for name, a in self.aggs.items()}
        for name, counter in self.counters.items():
            out[name] = {"calls": next(counter)}   # ticks so far
        return out


def _rebind(mods, mod_name, fn_name, make):
    home = next(m for m in mods if m.__name__ == f"unirack.{mod_name}")
    orig = getattr(home, fn_name)
    wrapped = make(orig)
    for m in mods:
        for key, val in list(vars(m).items()):
            if val is orig:
                setattr(m, key, wrapped)


# -- result hooks: work counts taken where the work happens


def _elements(tracer, agg, parent, args, result):
    agg.add("elements", result.size)


def _catalog(tracer, agg, parent, args, result):
    if id(result) not in tracer._seen_catalogs:   # lru hits are not new work
        tracer._seen_catalogs.add(id(result))
        agg.add("classes", len(result.entries))
        agg.add("unipotents", 1 + sum(e.size for e in result.entries))


def _d_pair(tracer, agg, parent, args, result):
    if result.kind == "witness":
        agg.add("witnesses", 1)
    if parent == "detect.refute_d":
        tracer._agg("detect.refute_d").add("pairs", 1)


def _refute_f(tracer, agg, parent, args, result):
    stats = result["stats"] if isinstance(result, dict) else result.stats
    agg.add("pair_tests", stats.get("pair_tests", 0))
    agg.add("joint_tests", stats.get("joint_tests", 0))


def _gens(tracer, agg, parent, args, result):
    agg.add("gens", len(args[0]))


def _subracks(tracer, agg, parent, args, result):
    agg.add("subracks", result.subracks_scanned)


def _cache_get(tracer, agg, parent, args, result):
    agg.add("hits" if result is not None else "misses", 1)


_ON_RESULT = {
    "matgroup.class_orbit": _elements,
    "matgroup.orbit_under": _elements,
    "matgroup.subgroup_closure": _elements,
    "catalog.group_catalog": _catalog,
    "detect.d_pair": _d_pair,
    "detect.refute_f": _refute_f,
    "rack.conj_rack": _elements,
    "rack.perm_group_order": _gens,
    "rack.sober_check": _subracks,
    "cache.Cache.get": _cache_get,
}


# -- per-layer metrics of one round


def _f(name, field):
    return lambda a: a.get(name, {}).get(field, 0)


def _ratio(num, den, scale=1.0):
    def fn(a):
        d = den(a)
        return scale * num(a) / d if d else 0.0
    return fn


def _chevalley_self(a):
    return sum(a.get(n, {}).get("self", 0.0) for n in CHEVALLEY_SPANS)


# metric name -> (unit, function of the summed aggregates of a round)
LAYER_METRICS = {
    "matgroup.mul_flat.calls": ("count", _f("matgroup.mul_flat", "calls")),
    "matgroup.inv_flat.calls": ("count", _f("matgroup.inv_flat", "calls")),
    "matgroup.class_orbit.calls": ("count", _f("matgroup.class_orbit", "calls")),
    "matgroup.class_orbit.elements": ("count", _f("matgroup.class_orbit", "elements")),
    "matgroup.class_orbit.self_s": ("s", _f("matgroup.class_orbit", "self")),
    "matgroup.class_orbit.elements_per_s": ("1/s", _ratio(
        _f("matgroup.class_orbit", "elements"), _f("matgroup.class_orbit", "incl"))),
    "matgroup.orbit_under.calls": ("count", _f("matgroup.orbit_under", "calls")),
    "matgroup.orbit_under.elements": ("count", _f("matgroup.orbit_under", "elements")),
    "matgroup.orbit_under.self_s": ("s", _f("matgroup.orbit_under", "self")),
    "matgroup.subgroup_closure.calls": ("count", _f("matgroup.subgroup_closure", "calls")),
    "matgroup.subgroup_closure.elements": ("count", _f("matgroup.subgroup_closure", "elements")),
    "matgroup.subgroup_closure.self_s": ("s", _f("matgroup.subgroup_closure", "self")),
    "chevalley.factorize.calls": ("count", _f("chevalley.SymplecticModel.factorize", "calls")),
    "chevalley.torus_witness.calls": ("count", _f("chevalley.torus_witness", "calls")),
    "chevalley.self_s": ("s", _chevalley_self),
    "catalog.group_catalog.incl_s": ("s", _f("catalog.group_catalog", "incl")),
    "catalog.group_catalog.self_s": ("s", _f("catalog.group_catalog", "self")),
    "catalog.label_of.calls": ("count", _f("catalog.label_of", "calls")),
    "catalog.label_of.self_s": ("s", _f("catalog.label_of", "self")),
    "catalog.class_context.incl_s": ("s", _f("catalog.class_context", "incl")),
    "catalog.classes": ("count", _f("catalog.group_catalog", "classes")),
    "catalog.unipotents": ("count", _f("catalog.group_catalog", "unipotents")),
    "detect.classify.calls": ("count", _f("detect.classify", "calls")),
    "detect.classify.incl_s": ("s", _f("detect.classify", "incl")),
    "detect.find_d_torus.incl_s": ("s", _f("detect.find_d_torus", "incl")),
    "detect.find_f_torus.incl_s": ("s", _f("detect.find_f_torus", "incl")),
    "detect.find_d_product.incl_s": ("s", _f("detect.find_d_product", "incl")),
    "detect.find_d_block.incl_s": ("s", _f("detect.find_d_block", "incl")),
    "detect.find_d_sampled.incl_s": ("s", _f("detect.find_d_sampled", "incl")),
    "detect.d_pair.calls": ("count", _f("detect.d_pair", "calls")),
    "detect.d_pair.ms_per_pair": ("ms", _ratio(
        _f("detect.d_pair", "incl"), _f("detect.d_pair", "calls"), 1000.0)),
    "detect.d_pair.witness_ratio": ("ratio", _ratio(
        _f("detect.d_pair", "witnesses"), _f("detect.d_pair", "calls"))),
    "detect.refute_d.incl_s": ("s", _f("detect.refute_d", "incl")),
    "detect.refute_d.pairs": ("count", _f("detect.refute_d", "pairs")),
    "detect.refute_d.pairs_per_s": ("1/s", _ratio(
        _f("detect.refute_d", "pairs"), _f("detect.refute_d", "incl"))),
    "detect.refute_f.incl_s": ("s", _f("detect.refute_f", "incl")),
    "detect.refute_f.self_s": ("s", _f("detect.refute_f", "self")),
    "detect.refute_f.pair_tests": ("count", _f("detect.refute_f", "pair_tests")),
    "detect.refute_f.joint_tests": ("count", _f("detect.refute_f", "joint_tests")),
    "detect.refute_f.joint_tests_per_s": ("1/s", _ratio(
        _f("detect.refute_f", "joint_tests"), _f("detect.refute_f", "incl"))),
    "detect.check_f_family.calls": ("count", _f("detect.check_f_family", "calls")),
    "detect.check_f_family.incl_s": ("s", _f("detect.check_f_family", "incl")),
    "detect.collapse_eq_holds.calls": ("count", _f("detect.collapse_eq_holds", "calls")),
    "rack.conj_rack.incl_s": ("s", _f("rack.conj_rack", "incl")),
    "rack.conj_rack.elements": ("count", _f("rack.conj_rack", "elements")),
    "rack.inn_order.incl_s": ("s", _f("rack.inn_order", "incl")),
    "rack.perm_group_order.calls": ("count", _f("rack.perm_group_order", "calls")),
    "rack.perm_group_order.gens": ("count", _f("rack.perm_group_order", "gens")),
    "rack.sober_check.incl_s": ("s", _f("rack.sober_check", "incl")),
    "rack.sober_check.subracks": ("count", _f("rack.sober_check", "subracks")),
    "cli.main.calls": ("count", _f("cli.main", "calls")),
    "cache.Cache.get.calls": ("count", _f("cache.Cache.get", "calls")),
    "cache.Cache.get.incl_s": ("s", _f("cache.Cache.get", "incl")),
    "cache.hits": ("count", _f("cache.Cache.get", "hits")),
    "cache.misses": ("count", _f("cache.Cache.get", "misses")),
    "cache.Cache.put.calls": ("count", _f("cache.Cache.put", "calls")),
    "cache.Cache.put.incl_s": ("s", _f("cache.Cache.put", "incl")),
}


def merge(snapshots) -> dict:
    "Sum per-process aggregates into one round aggregate."
    total: dict = {}
    for snap in snapshots:
        for name, fields in snap.items():
            dst = total.setdefault(name, {})
            for key, val in fields.items():
                dst[key] = dst.get(key, 0) + val
    return total


def layer_metrics(agg: dict) -> dict:
    return {name: fn(agg) for name, (unit, fn) in LAYER_METRICS.items()}
