"""Span and field-operation instrumentation, installed from outside `src/`.

`Tracer` wraps the public functions of the seven veryfree modules and
records one span per call: name, start, end, parent span and instance id.
Modules import many of these functions by name (`from .sheafp1 import
splitting_type`), so a wrapper replaces the original in every veryfree
module namespace that binds it, not only in the defining module.

`OpCounter` counts calls of the raw field-arithmetic methods per backend.
It runs in a pass of its own, because a Python-level counter on every
field operation costs more than the operations themselves.
"""
from __future__ import annotations

import functools
import sys
import time

# layer -> names wrapped in that layer's module; "Class.method" wraps a
# method on the class, "Class" wraps its constructor
TRACED = {
    "fields": ["make_field", "find_roots", "embed"],
    "poly": ["is_unit_ideal", "groebner_basis", "resultant_bin",
             "binary_roots", "compose_with_curve", "linear_substitute",
             "parse_poly"],
    "linalg": ["rref", "kernel", "rank", "det", "Solver",
               "Solver.express"],
    "sheafp1": ["splitting_type", "h0_twist", "validate_monad"],
    "hypersurface": ["lines_on_cubic_surface", "is_smooth",
                     "singular_points_scan", "classify_plane_cubic",
                     "eckardt_points", "plane_section", "tangent_hyperplane"],
    "constructions": ["find_nodal_section", "nodal_section_curve",
                      "pullback_tangent", "build_very_free_curve",
                      "fermat_char2_report", "verify_xi_eta",
                      "verify_cuspidal_delta", "six_point_diagonal"],
    "cli": ["main", "run_verify_paper"],
}

# generators are counted by items yielded; a span around a generator
# would time its consumer too
COUNTED_GENERATORS = {"hypersurface": ["surface_points"]}

LAYERS = list(TRACED)

FIELD_OPS = ("radd", "rsub", "rmul", "rneg", "rinv", "rpow")
BACKENDS = ("q", "prime", "zech", "vector")


def _veryfree_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "veryfree"
                                  or name.startswith("veryfree."))]


def _rebind(original, replacement):
    """Point every veryfree module attribute bound to `original` at
    `replacement`; returns the (module, attribute) pairs changed."""
    changed = []
    for mod in _veryfree_modules():
        for attr, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, attr, replacement)
                changed.append((mod, attr))
    return changed


class Tracer:
    """In-memory span recorder over the veryfree public functions."""

    def __init__(self):
        self.names = []          # span-name id -> "layer.function"
        self.spans = []  # (name id, start, end, parent, instance, outermost)
        self.instance = "setup"
        self.enabled = False
        self.extra = dict.fromkeys(_EXTRA_METRICS, 0)   # counted at spans
        self._stack = []
        self._active = {}        # span name -> open spans of that name
        self._undo = []

    # -- installation ---------------------------------------------------

    def install(self):
        import veryfree.cli  # noqa: F401  (cli is not imported by veryfree)
        for layer, names in TRACED.items():
            mod = sys.modules[f"veryfree.{layer}"]
            for name in names:
                span = f"{layer}.{name}"
                cls_name, _, meth = name.partition(".")
                if meth or isinstance(getattr(mod, cls_name), type):
                    cls = getattr(mod, cls_name)
                    meth = meth or "__init__"
                    original = cls.__dict__[meth]
                    setattr(cls, meth, self._wrap(span, original))
                    self._undo.append((cls, meth, original))
                else:
                    original = getattr(mod, name)
                    wrapper = self._wrap(span, original)
                    for m, attr in _rebind(original, wrapper):
                        self._undo.append((m, attr, original))
        for layer, names in COUNTED_GENERATORS.items():
            mod = sys.modules[f"veryfree.{layer}"]
            for name in names:
                original = getattr(mod, name)
                wrapper = self._wrap_generator(f"{layer}.{name}", original)
                for m, attr in _rebind(original, wrapper):
                    self._undo.append((m, attr, original))
        self.enabled = True

    def uninstall(self):
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()
        self.enabled = False

    def _wrap(self, span, original):
        nid = len(self.names)
        self.names.append(span)
        spans, stack, active = self.spans, self._stack, self._active
        active[span] = 0
        note = _NOTES.get(span)
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return original(*args, **kwargs)
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            active[span] += 1
            outermost = active[span] == 1
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                end = clock()
                active[span] -= 1
                stack.pop()
                spans[idx] = (nid, start, end, parent, self.instance,
                              outermost)
            if note is not None:
                note(self, args, result)
            return result
        return wrapper

    def _wrap_generator(self, span, original):
        key = f"{span}.yielded"
        self.extra[key] = 0

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            for item in original(*args, **kwargs):
                if self.enabled:
                    self.extra[key] += 1
                yield item
        return wrapper

    def _bump(self, key, amount=1):
        self.extra[key] = self.extra.get(key, 0) + amount

    # -- reduction --------------------------------------------------------

    def metrics(self):
        """Per-layer metrics: calls, outermost inclusive seconds, layer
        self time (span time not covered by child spans) and the counters
        taken at span boundaries."""
        calls = {n: 0 for n in self.names}
        incl = {n: 0.0 for n in self.names}
        child = [0.0] * len(self.spans)
        for nid, start, end, parent, _inst, outermost in self.spans:
            name = self.names[nid]
            calls[name] += 1
            if outermost:
                incl[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_s = {layer: 0.0 for layer in LAYERS}
        for i, (nid, start, end, _p, _inst, _o) in enumerate(self.spans):
            layer = self.names[nid].split(".", 1)[0]
            self_s[layer] += (end - start) - child[i]
        out = {}
        for name in self.names:
            out[f"{name}.calls"] = calls[name]
            out[f"{name}.s"] = incl[name]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        out.update(self.extra)
        found = self.extra.get("constructions.find_nodal_section.found", 0)
        planes = self.extra.get("constructions.walk.tangent_planes", 0)
        out["constructions.walk.tangent_planes_per_section"] = (
            planes / found if found else 0.0)
        splits = calls["sheafp1.splitting_type"]
        inner = self.extra.get("sheafp1.h0_in_splitting", 0)
        out["sheafp1.h0_per_splitting"] = inner / splits if splits else 0.0
        return out

    def span_records(self):
        return [{"name": self.names[nid], "start": start, "end": end,
                 "parent": parent, "instance": inst}
                for nid, start, end, parent, inst, _o in self.spans]


# -- counters taken where the work happens --------------------------------


def _note_rref(tracer, args, result):
    rows = args[1]
    ncols = len(rows[0]) if rows else 0
    tracer._bump("linalg.rref.cells", len(rows) * ncols)
    if ncols > tracer.extra["linalg.rref.max_cols"]:
        tracer.extra["linalg.rref.max_cols"] = ncols


def _note_lines(tracer, args, result):
    key = "hypersurface.lines_on_cubic_surface.ext_degree"
    tracer.extra[key] = max(tracer.extra[key], result[2])


def _note_nodal_section(tracer, args, result):
    tracer._bump("constructions.find_nodal_section.found")
    key = "constructions.find_nodal_section.work_ext"
    tracer.extra[key] = max(tracer.extra[key], result.work_ext)


def _note_tangent(tracer, args, result):
    if tracer._active["constructions.find_nodal_section"]:
        tracer._bump("constructions.walk.tangent_planes")


def _note_h0(tracer, args, result):
    if tracer._active["sheafp1.splitting_type"]:
        tracer._bump("sheafp1.h0_in_splitting")


_EXTRA_METRICS = ("linalg.rref.cells", "linalg.rref.max_cols",
                  "hypersurface.lines_on_cubic_surface.ext_degree",
                  "constructions.find_nodal_section.work_ext")

_NOTES = {
    "linalg.rref": _note_rref,
    "hypersurface.lines_on_cubic_surface": _note_lines,
    "constructions.find_nodal_section": _note_nodal_section,
    "hypersurface.tangent_hyperplane": _note_tangent,
    "sheafp1.h0_twist": _note_h0,
}


class OpCounter:
    """Exact call counts of the raw field-arithmetic methods by backend.

    Every call is counted, nested ones included: `rsub` counts once for
    itself and once each for the `radd` and `rneg` it makes.
    """

    def __init__(self):
        self.counts = dict.fromkeys(BACKENDS, 0)
        self._undo = []

    def install(self):
        from veryfree import fields
        cap = fields._TABLE_CAP
        backend_of = {}
        counts = self.counts

        def backend(spec):
            if spec.p == 0:
                return "q"
            if spec.k == 1:
                return "prime"
            return "zech" if spec.size <= cap else "vector"

        for op in FIELD_OPS:
            original = getattr(fields.FieldSpec, op)

            def wrapper(spec, *args, _original=original):
                kind = backend_of.get(spec)
                if kind is None:
                    kind = backend_of[spec] = backend(spec)
                counts[kind] += 1
                return _original(spec, *args)
            setattr(fields.FieldSpec, op, wrapper)
            self._undo.append((op, original))

    def uninstall(self):
        from veryfree import fields
        for op, original in self._undo:
            setattr(fields.FieldSpec, op, original)
        self._undo.clear()

    def metrics(self):
        return {f"fields.ops.{b}": self.counts[b] for b in BACKENDS}
