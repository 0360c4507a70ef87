"""Per-layer spans recorded by wrapping the ``lelong`` modules from outside.

``Tracer.install`` replaces every public function, and every public
method, ``__init__`` and public cached property of every class (value dataclasses and
exceptions aside) of each layer module with a wrapper, under every name
a ``lelong`` module binds it to, so ``lelong.newton.hyperplane_normal``
is wrapped as well as ``lelong.geometry.hyperplane_normal``. The stage
methods of ``NewtonPolyhedron`` are wrapped too, although private, so
facet search, vertex reduction and the cone volumes each get a span.
``uninstall`` restores the originals; ``src/`` is never touched.

A wrapper records a span (name, parent, start, end) only while a root
span opened by the benchmark is active, so the benchmark's own checks
are not recorded. Spans are kept in memory in flat arrays and written
out by ``write``; figures are read per root, so the spans of one root
never count toward another.
"""

from __future__ import annotations

import dataclasses
import functools
import gzip
import importlib
import inspect
import json
import math
import statistics
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

LAYERS = ("rationals", "linprog", "geometry", "newton", "weights", "ideals", "oracles", "render", "cli")

# Span names that differ from "<layer>.<function>" or "<layer>.<Class>.<method>".
SPAN_NAMES = {
    "newton.NewtonPolyhedron.__init__": "newton.build",
    "newton.NewtonPolyhedron._minimal_vertices": "newton.vertex_reduction",
    "newton.NewtonPolyhedron._enumerate_facets": "newton.facet_search",
    "newton.NewtonPolyhedron.axis_intercepts": "newton.axis_intercepts",
    "newton.NewtonPolyhedron._facet_cone_volumes": "newton.cone_volumes",
}

MC = "oracles.covolume_monte_carlo"


def _after_build(tracer, args, kwargs):
    poly = args[0]
    n, v = poly.dimension, len(poly.vertices)
    tracer.count("newton.generators", len(poly.generators))
    tracer.count("newton.vertices", v)
    tracer.count("newton.compact_facets", len(poly.compact_facets))
    tracer.count("newton.candidate_subsets", math.comb(v, n))


def _after_mc(tracer, args, kwargs):
    tracer.count("oracles.mc_samples", kwargs.get("samples", args[1] if len(args) > 1 else 0))


AFTER = {"newton.build": _after_build, MC: _after_mc}


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("l")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.child = array("d")
        self.counts: dict[str, dict[str, int]] = {}
        self._stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []

    # -- recording -----------------------------------------------------------

    def _name_id(self, name):
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def _open(self, name_id):
        idx = len(self.name)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self.child.append(0.0)
        self._stack.append(idx)
        self.start.append(perf_counter())
        return idx

    def _close(self, idx):
        t = perf_counter()
        self._stack.pop()
        self.end[idx] = t
        if self._stack:
            self.child[self._stack[-1]] += t - self.start[idx]

    @contextmanager
    def root(self, label):
        idx = self._open(self._name_id(f"root.{label}"))
        try:
            yield
        finally:
            self._close(idx)

    def count(self, name, k):
        """Add ``k`` to the count ``name`` of the active root."""
        counts = self.counts.setdefault(self.names[self.name[self._stack[0]]], {})
        counts[name] = counts.get(name, 0) + k

    def _wrap(self, name, fn):
        name_id = self._name_id(name)
        after = AFTER.get(name)
        stack, open_, close = self._stack, self._open, self._close

        def wrapper(*args, **kwargs):
            if not stack:
                return fn(*args, **kwargs)
            idx = open_(name_id)
            try:
                result = fn(*args, **kwargs)
            finally:
                close(idx)
            if after is not None:
                after(self, args, kwargs)
            return result

        return functools.update_wrapper(wrapper, fn)

    # -- installing ----------------------------------------------------------

    def _set(self, owner, attr, value):
        self._restore.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def _wrap_class(self, layer, cls):
        for attr, member in list(vars(cls).items()):
            key = f"{layer}.{cls.__name__}.{attr}"
            if attr.startswith("_") and attr != "__init__" and key not in SPAN_NAMES:
                continue
            name = SPAN_NAMES.get(key, key)
            if inspect.isfunction(member):
                self._set(cls, attr, self._wrap(name, member))
            elif isinstance(member, functools.cached_property):
                prop = functools.cached_property(self._wrap(name, member.func))
                prop.__set_name__(cls, attr)
                self._set(cls, attr, prop)

    def install(self):
        """Wrap every layer; returns self. Call ``uninstall`` to undo."""
        modules = {layer: importlib.import_module(f"lelong.{layer}") for layer in LAYERS}
        wrapped = {}
        for layer, mod in modules.items():
            for attr, obj in vars(mod).items():
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if inspect.isfunction(obj):
                    wrapped[id(obj)] = (obj, self._wrap(f"{layer}.{attr}", obj))
                elif (
                    inspect.isclass(obj)
                    and not dataclasses.is_dataclass(obj)
                    and not issubclass(obj, BaseException)
                ):
                    self._wrap_class(layer, obj)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "lelong" or mod_name.startswith("lelong.")):
                continue
            for attr, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._set(mod, attr, hit[1])
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()

    # -- reading -------------------------------------------------------------

    def _roots(self):
        """The index of each span's root span."""
        roots = array("l", bytes(8 * len(self.name)))
        for i, p in enumerate(self.parent):
            roots[i] = i if p < 0 else roots[p]
        return roots

    def summary(self, root):
        """Per span name under the root span ``root``: calls, inclusive
        seconds and self seconds; plus feasibility LPs under Monte Carlo."""
        stats = {}
        root_id = self._name_ids.get(root)
        roots = self._roots()
        mc_id = self._name_ids.get(MC)
        feasible_id = self._name_ids.get("linprog.feasible")
        under_mc = bytearray(len(self.name))
        mc_lps = 0
        for i, nid in enumerate(self.name):
            if self.name[roots[i]] != root_id or roots[i] == i:
                continue
            p = self.parent[i]
            if under_mc[p] or self.name[p] == mc_id:
                under_mc[i] = 1
                if nid == feasible_id:
                    mc_lps += 1
            dur = self.end[i] - self.start[i]
            s = stats.setdefault(self.names[nid], [0, 0.0, 0.0])
            s[0] += 1
            s[1] += dur
            s[2] += dur - self.child[i]
        return stats, mc_lps

    def durations(self, name, root):
        nid, root_id = self._name_ids.get(name), self._name_ids.get(root)
        roots = self._roots()
        return [self.end[i] - self.start[i] for i, n in enumerate(self.name)
                if n == nid and self.name[roots[i]] == root_id]

    def write(self, path):
        """Write every span, times in microseconds from the first span."""
        t0 = self.start[0] if self.start else 0.0
        spans = [
            [self.names[self.name[i]], self.parent[i],
             round((self.start[i] - t0) * 1e6, 1), round((self.end[i] - t0) * 1e6, 1)]
            for i in range(len(self.name))
        ]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "parent", "start_us", "end_us"],
                       "spans": spans, "counts": self.counts}, fh)


def layer_metrics(tracer: Tracer, own: str, probe: str | None = None):
    """The per-layer metrics, by name, as (value, unit), of the spans under
    ``root.<own>``. A layer those spans never enter reports the spans
    under ``root.<probe>`` instead, so that no layer reads a constant zero."""
    stats, _ = tracer.summary(f"root.{own}")
    probe_stats = tracer.summary(f"root.{probe}")[0] if probe else {}
    sources = {}

    def calls(name):
        return stats.get(name, [0])[0]

    def incl(name):
        return stats[name][1] if name in stats else 0.0

    out = {}
    for layer in LAYERS:
        sources[layer] = own
        rows = [s for name, s in stats.items() if name.split(".", 1)[0] == layer]
        if not rows and probe:
            sources[layer] = probe
            rows = [s for name, s in probe_stats.items() if name.split(".", 1)[0] == layer]
        out[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
        out[f"{layer}.self_s"] = (sum(r[2] for r in rows), "s")
    c = tracer.counts.get(f"root.{own}", {})
    gens, verts = c.get("newton.generators", 0), c.get("newton.vertices", 0)
    facets, subsets = c.get("newton.compact_facets", 0), c.get("newton.candidate_subsets", 0)
    main = tracer.durations("cli.main", f"root.{sources['cli']}")
    out.update({
        "newton.build.calls": (calls("newton.build"), "count"),
        "newton.facet_search_s": (incl("newton.facet_search"), "s"),
        "newton.vertex_reduction_s": (incl("newton.vertex_reduction"), "s"),
        "newton.axis_intercepts_s": (incl("newton.axis_intercepts"), "s"),
        "newton.cone_volumes_s": (incl("newton.cone_volumes"), "s"),
        "newton.generators": (gens, "count"),
        "newton.vertices": (verts, "count"),
        "newton.compact_facets": (facets, "count"),
        "newton.candidate_subsets": (subsets, "count"),
        "newton.vertex_yield": (verts / gens if gens else 0.0, "ratio"),
        "newton.facet_yield": (facets / subsets if subsets else 0.0, "ratio"),
        "geometry.hyperplane_normal.calls": (calls("geometry.hyperplane_normal"), "count"),
        "geometry.det.calls": (calls("geometry.det"), "count"),
        "geometry.polytope_volume.calls": (calls("geometry.polytope_volume"), "count"),
        "geometry.polytope_volume.s": (incl("geometry.polytope_volume"), "s"),
        "geometry.cone_point_member.calls": (calls("geometry.cone_point_member"), "count"),
        "geometry.cone_point_member.s": (incl("geometry.cone_point_member"), "s"),
        "linprog.minimize.calls": (calls("linprog.minimize"), "count"),
        "linprog.feasible.calls": (calls("linprog.feasible"), "count"),
        "cli.main.calls": (len(main), "count"),
        "cli.main_ms": (statistics.median(main) * 1e3 if main else 0.0, "ms"),
    })
    return out, sources


def monte_carlo(tracer: Tracer, own: str):
    """Samples drawn by ``covolume_monte_carlo`` under ``root.<own>``, and
    the share of them that reached an exact feasibility LP."""
    samples = tracer.counts.get(f"root.{own}", {}).get("oracles.mc_samples", 0)
    lps = tracer.summary(f"root.{own}")[1]
    return {"samples": samples, "lp_ratio": lps / samples if samples else None}
