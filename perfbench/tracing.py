"""Span tracer for the traced benchmark run.

The tracer wraps slnlab's public functions and public methods from outside the
program: each wrapper is set on the module or class that defines the function and
on every slnlab module that imported the name (``from .orbits import ...``), so the
program's own calls go through it. The program's calls into ``mpmath`` (``svd_r``,
``eig``) and ``scipy.optimize.minimize`` are caught by proxies set on the ``mp`` and
``scipy`` names of ``slnlab.lie`` and ``slnlab.symshadow``; those spans belong to
the ``lie`` and ``symshadow`` layers.

A span is (name, start, end, parent). Spans stay in flat arrays in memory and are
written out once, by ``Tracer.save``. Nothing is patched while the tracer is not
installed, so untraced rounds run the unmodified program.
"""

from array import array
import functools
import importlib
import inspect
import time

import numpy as np

LAYERS = (
    "cli",
    "pipeline",
    "orbits",
    "contraction",
    "sampling",
    "flags",
    "symshadow",
    "growth",
    "lie",
    "exact",
)

# Functions timed on their own. A time ('.s') is the summed duration of the
# outermost spans, so nested calls count once.
_TIMED = (
    "orbits.enumerate_ball",
    "orbits.filter_gamma_set",
    "orbits.greedy_disjoint_pack",
    "symshadow.shadows_certified_disjoint",
    "contraction.pingpong_certificate",
    "contraction.check_contracting",
    "contraction.exact_freeness_crosscheck",
    "growth.estimate_delta",
    "growth.growth_indicator_estimate",
    "growth.limit_cone_sample",
    "lie.jordan_projection",
    "symshadow.sym_shadow_membership",
)

# Per-layer metric names, in the order BENCHMARK.json lists them.
PER_LAYER_METRICS = (
    [(f"{layer}.self_s", "s") for layer in LAYERS]
    + [(f"{layer}.calls", "count") for layer in LAYERS]
    + [
        ("orbits.enumerate_ball.s", "s"),
        ("orbits.enumerate_ball.words", "count"),
        ("exact.s", "s"),
        ("exact.mat_mul.calls", "count"),
        ("exact.mat_inv.calls", "count"),
        ("orbits.filter_gamma_set.s", "s"),
        ("orbits.filter_gamma_set.kept", "count"),
        ("orbits.filter_gamma_set.repeat_rounds", "count"),
        ("orbits.greedy_disjoint_pack.s", "s"),
        ("orbits.greedy_disjoint_pack.packed", "count"),
        ("symshadow.shadows_certified_disjoint.calls", "count"),
        ("symshadow.shadows_certified_disjoint.s", "s"),
        ("lie.cartan_projection.calls", "count"),
        ("contraction.pingpong_certificate.calls", "count"),
        ("contraction.pingpong_certificate.s", "s"),
        ("contraction.check_contracting.calls", "count"),
        ("contraction.check_contracting.s", "s"),
        ("sampling.s", "s"),
        ("sampling.frames_drawn", "count"),
        ("sampling.acceptance", "ratio"),
        ("flags.batch.s", "s"),
        ("flags.fixed_data.calls", "count"),
        ("contraction.exact_freeness_crosscheck.s", "s"),
        ("contraction.exact_freeness_crosscheck.words", "count"),
        ("growth.estimate_delta.s", "s"),
        ("growth.growth_indicator_estimate.s", "s"),
        ("growth.limit_cone_sample.s", "s"),
        ("lie.jordan_projection.calls", "count"),
        ("lie.jordan_projection.s", "s"),
        ("lie.is_loxodromic.calls", "count"),
        ("lie.mp_fallback.calls", "count"),
        ("symshadow.sym_shadow_membership.calls", "count"),
        ("symshadow.sym_shadow_membership.s", "s"),
        ("symshadow.nelder_mead.calls", "count"),
        ("symshadow.nelder_mead.nfev", "count"),
        ("pipeline.rounds", "count"),
        ("trace.overhead_s", "s"),
    ]
)


class _Proxy:
    """Attribute proxy: listed names are replaced, everything else is the target's."""

    def __init__(self, target, replaced):
        object.__setattr__(self, "_target", target)
        object.__setattr__(self, "_replaced", replaced)

    def __getattr__(self, name):
        replaced = object.__getattribute__(self, "_replaced")
        if name in replaced:
            return replaced[name]
        return getattr(object.__getattribute__(self, "_target"), name)

    def __setattr__(self, name, value):
        # lie sets mp.dps through this name; the setting must reach mpmath itself
        setattr(object.__getattribute__(self, "_target"), name, value)


class Tracer:
    def __init__(self):
        self.name_table = []
        self._name_ids = {}
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._patches = []
        self.counters = {}
        self._last_filter_words = None

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.name_table)
            self.name_table.append(name)
        return self._name_ids[name]

    def _count(self, key, amount):
        self.counters[key] = self.counters.get(key, 0) + amount

    def wrap(self, fn, name, hook=None):
        nid = self._name_id(name)
        names, parents, starts, ends = self.span_name, self.span_parent, self.span_start, self.span_end
        stack = self._stack
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(names)
            names.append(nid)
            parents.append(stack[-1])
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()
            if hook is not None:
                hook(result)
            return result

        return traced

    # -- payload counters, read from return values ---------------------------

    def _hooks(self):
        def words(key):
            return lambda result: self._count(key, len(result))

        def filter_kept(result):
            self._count("orbits.filter_gamma_set.kept", len(result))
            out = [r.word for r in result]
            if out == self._last_filter_words:
                self._count("orbits.filter_gamma_set.repeat_rounds", 1)
            self._last_filter_words = out

        def haar(result):
            # only Haar frames drawn by the rejection samplers count toward acceptance
            parent = self._stack[-1]
            if parent >= 0 and self.name_table[self.span_name[parent]] == "sampling.sample_flags_outside":
                self._count("sampling.frames_drawn", result.shape[0])

        return {
            "orbits.enumerate_ball": words("orbits.enumerate_ball.words"),
            "orbits.filter_gamma_set": filter_kept,
            "orbits.greedy_disjoint_pack": words("orbits.greedy_disjoint_pack.packed"),
            "contraction.exact_freeness_crosscheck": lambda r: self._count(
                "contraction.exact_freeness_crosscheck.words", r.words_checked
            ),
            "sampling.sample_flags_outside": lambda r: self._count("sampling.frames_kept", r.shape[0]),
            "sampling.haar_frames": haar,
            "symshadow.nelder_mead": lambda r: self._count("symshadow.nelder_mead.nfev", int(r.nfev)),
        }

    # -- installing and removing the wrappers --------------------------------

    def _set(self, owner, attr, value):
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        """Patch every public function of every layer where the program looks it up."""
        hooks = self._hooks()
        modules = {layer: importlib.import_module(f"slnlab.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    name = f"{layer}.{attr}"
                    wrappers[obj] = self.wrap(obj, name, hooks.get(name))
                    self._set(mod, attr, wrappers[obj])
                elif inspect.isclass(obj):
                    self._wrap_methods(layer, obj)
        # names imported into other modules, the package namespace included
        for mod in (importlib.import_module("slnlab"), *modules.values()):
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    self._set(mod, attr, wrappers[obj])

        lie, symshadow = modules["lie"], modules["symshadow"]
        mp = lie.mp
        self._set(lie, "mp", _Proxy(mp, {
            "svd_r": self.wrap(mp.svd_r, "lie.mp_fallback.svd_r"),
            "eig": self.wrap(mp.eig, "lie.mp_fallback.eig"),
        }))
        scipy = symshadow.scipy
        minimize = self.wrap(scipy.optimize.minimize, "symshadow.nelder_mead", hooks["symshadow.nelder_mead"])
        self._set(symshadow, "scipy", _Proxy(scipy, {"optimize": _Proxy(scipy.optimize, {"minimize": minimize})}))

    def _wrap_methods(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(member):
                self._set(cls, attr, self.wrap(member, name))
            elif isinstance(member, (classmethod, staticmethod)):
                self._set(cls, attr, type(member)(self.wrap(member.__func__, name)))

    def uninstall(self):
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- results --------------------------------------------------------------

    def start_round(self):
        """Reset the counters for a new round; returns the index of its first span."""
        self.counters = {}
        self._last_filter_words = None
        return len(self.span_name)

    def metrics(self, lo):
        """Per-layer metrics of the round whose spans start at index lo."""
        counters = self.counters
        # copies: a view would keep the span arrays from growing in later rounds
        name = np.array(self.span_name[lo:], dtype=np.int32)
        parent = np.array(self.span_parent[lo:], dtype=np.int32) - lo
        dur = np.array(self.span_end[lo:]) - np.array(self.span_start[lo:])
        has_parent = parent >= 0
        child_time = np.bincount(parent[has_parent], weights=dur[has_parent], minlength=len(name))
        self_time = dur - child_time
        # roots get an id no name has
        parent_name_id = np.where(has_parent, name[np.maximum(parent, 0)], len(self.name_table))

        def ids(pred):
            return np.array([i for i, n in enumerate(self.name_table) if pred(n)], dtype=np.int32)

        def group_time(member_ids):
            inside = np.isin(name, member_ids)
            outermost = inside & ~np.isin(parent_name_id, member_ids)
            return float(dur[outermost].sum())

        def calls(member_ids):
            return int(np.isin(name, member_ids).sum())

        out = {}
        for layer in LAYERS:
            lid = ids(lambda n, p=layer + ".": n.startswith(p))
            mask = np.isin(name, lid)
            out[f"{layer}.self_s"] = float(self_time[mask].sum())
            out[f"{layer}.calls"] = int(mask.sum())
        for fn in _TIMED:
            fid = ids(lambda n, f=fn: n == f)
            out[f"{fn}.s"] = group_time(fid)
            out[f"{fn}.calls"] = calls(fid)
        out["exact.s"] = group_time(ids(lambda n: n.startswith("exact.")))
        out["exact.mat_mul.calls"] = calls(ids(lambda n: n == "exact.mat_mul"))
        out["exact.mat_inv.calls"] = calls(ids(lambda n: n == "exact.mat_inv"))
        out["lie.cartan_projection.calls"] = calls(ids(lambda n: n == "lie.cartan_projection"))
        out["lie.is_loxodromic.calls"] = calls(ids(lambda n: n == "lie.is_loxodromic"))
        out["lie.mp_fallback.calls"] = calls(ids(lambda n: n.startswith("lie.mp_fallback.")))
        out["sampling.s"] = group_time(ids(lambda n: n.startswith("sampling.")))
        out["flags.batch.s"] = group_time(ids(lambda n: n.startswith("flags.batch_")))
        out["flags.fixed_data.calls"] = calls(
            ids(lambda n: n in ("flags.attracting_flag", "flags.repelling_flag"))
        )
        out["symshadow.nelder_mead.calls"] = calls(ids(lambda n: n == "symshadow.nelder_mead"))
        filt = ids(lambda n: n == "orbits.filter_gamma_set")
        build = ids(lambda n: n == "pipeline.cmd_build_semigroup")
        out["pipeline.rounds"] = int((np.isin(name, filt) & np.isin(parent_name_id, build)).sum())
        for key in (
            "orbits.enumerate_ball.words",
            "orbits.filter_gamma_set.kept",
            "orbits.filter_gamma_set.repeat_rounds",
            "orbits.greedy_disjoint_pack.packed",
            "contraction.exact_freeness_crosscheck.words",
            "symshadow.nelder_mead.nfev",
            "sampling.frames_drawn",
        ):
            out[key] = int(counters.get(key, 0))
        drawn = counters.get("sampling.frames_drawn", 0)
        out["sampling.acceptance"] = counters.get("sampling.frames_kept", 0) / drawn if drawn else 0.0
        return out

    def save(self, path):
        """Write every span: the name table plus name, parent, start and end arrays."""
        np.savez_compressed(
            path,
            names=np.array(self.name_table),
            name=np.array(self.span_name, dtype=np.int32),
            parent=np.array(self.span_parent, dtype=np.int32),
            start=np.array(self.span_start),
            end=np.array(self.span_end),
        )
