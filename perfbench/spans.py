"""Spans around the public functions of each layer, installed from outside.

The tracer replaces every module-level public function of the layer
modules (and ``IdealHandle.groebner_basis``) by a wrapper that records one
span per call: name, start, end, parent span and item index.  Spans live in
flat arrays in memory and are written once, when the traced pass ends.
Every module attribute that refers to a wrapped function is replaced, so
calls through ``from .x import f`` bindings are seen as well; ``uninstall``
puts the original objects back.

The arithmetic kernel (``rings``, ``fields``, ``orders``) is not wrapped: it
runs millions of times per pass and its cost shows as its callers' self time.
"""

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

PACKAGE = "arithdeg"
LAYERS = ("adeg", "constructions", "groebner", "hilbert", "modules",
          "monomials", "numerical", "runner", "session")
# Methods that the per-layer metrics name; module-level functions are found.
METHODS = (("groebner", "IdealHandle", "groebner_basis"),)
# Public helpers called tens of thousands of times per corpus pass for a
# microsecond or two each (binom about 220 k, count_monomials about 54 k).
# Wrapping them would cost more than they do; their time counts as their
# callers' self time.
UNWRAPPED = {"numerical.binom", "hilbert.count_monomials"}
# Spans whose result's truth value is recorded (useful-outcome ratios).
OUTCOME = {"modules.module_normal_form"}

OUTERMOST = 1   # flag bit: no enclosing span of the same name
TRUTHY = 2      # flag bit: the call returned a true value


def targets():
    """(span name, owner object, attribute, original) for every target."""
    out = []
    for layer in LAYERS:
        mod = importlib.import_module("%s.%s" % (PACKAGE, layer))
        for attr, obj in sorted(vars(mod).items()):
            name = "%s.%s" % (layer, attr)
            if (attr.startswith("_") or not inspect.isfunction(obj)
                    or obj.__module__ != mod.__name__ or name in UNWRAPPED):
                continue
            out.append((name, mod, attr, obj))
    for layer, cls_name, attr in METHODS:
        cls = getattr(importlib.import_module("%s.%s" % (PACKAGE, layer)),
                      cls_name)
        out.append(("%s.%s.%s" % (layer, cls_name, attr), cls, attr,
                    vars(cls)[attr]))
    return out


class Tracer:
    """In-memory span recorder; one per traced process."""

    def __init__(self):
        self.names = []
        self.name_id = array("i")
        self.parent = array("i")
        self.item = array("i")
        self.flags = array("b")
        self.start = array("d")
        self.end = array("d")
        self.current_item = -1
        self._stack = [-1]
        self._active = []
        self._patches = []

    def _wrap(self, fn, nid, record_outcome):
        name_id, parent, item = self.name_id, self.parent, self.item
        flags, start, end = self.flags, self.start, self.end
        stack, active = self._stack, self._active
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(name_id)
            name_id.append(nid)
            parent.append(stack[-1])
            item.append(tracer.current_item)
            flags.append(0 if active[nid] else OUTERMOST)
            end.append(0.0)
            stack.append(idx)
            active[nid] += 1
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = clock()
                active[nid] -= 1
                stack.pop()
            if record_outcome and result:
                flags[idx] |= TRUTHY
            return result
        return traced

    def install(self):
        """Replace every target, and every module alias of it, by a wrapper."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]
        for name, owner, attr, original in targets():
            nid = len(self.names)
            self.names.append(name)
            self._active.append(0)
            wrapper = self._wrap(original, nid, name in OUTCOME)
            if inspect.isclass(owner):
                self._patches.append((owner, attr, original))
                setattr(owner, attr, wrapper)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patches.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def dump(self, path):
        """Write the spans: a JSON header line, then the raw arrays."""
        with open(path, "wb") as fh:
            header = {"names": self.names, "count": len(self.name_id)}
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.name_id, self.parent, self.item, self.flags,
                        self.start, self.end):
                arr.tofile(fh)


def load(path):
    """Read a dump back: (names, name_id, parent, item, flags, start, end)."""
    with open(path, "rb") as fh:
        header = json.loads(fh.readline())
        n = header["count"]
        arrays = []
        for code in ("i", "i", "i", "b", "d", "d"):
            arr = array(code)
            arr.fromfile(fh, n)
            arrays.append(arr)
    return (header["names"],) + tuple(arrays)


# ---------------------------------------------------------------------------
# per-layer metrics derived from the spans

# (metric, unit).  ``<layer>.self_s`` sums the self time of a layer's spans;
# ``<span>.calls`` counts spans, ``<span>.self_s`` is span time minus child
# spans, ``<span>.incl_s`` sums the outermost spans of that name.
PER_LAYER = (
    ("modules.self_s", "s"),
    ("modules.module_normal_form.calls", "count"),
    ("modules.module_normal_form.self_s", "s"),
    ("modules.module_normal_form.nonzero_frac", "ratio"),
    ("modules.module_buchberger.calls", "count"),
    ("modules.module_buchberger.self_s", "s"),
    ("modules.schreyer_syzygies.calls", "count"),
    ("modules.schreyer_syzygies.self_s", "s"),
    ("modules.syzygies_of.calls", "count"),
    ("modules.syzygies_of.incl_s", "s"),
    ("modules.free_resolution.calls", "count"),
    ("modules.ext_presentation.calls", "count"),
    ("modules.ext_presentation.incl_s", "s"),
    ("constructions.self_s", "s"),
    ("constructions.gg_presentation.calls", "count"),
    ("constructions.gg_presentation.incl_s", "s"),
    ("constructions.assoc_graded.incl_s", "s"),
    ("constructions.rees_kernel.incl_s", "s"),
    ("constructions.initial_forms_ideal.incl_s", "s"),
    ("constructions.relative_length.calls", "count"),
    ("constructions.relative_length.incl_s", "s"),
    ("constructions.gate_s", "s"),
    ("groebner.self_s", "s"),
    ("groebner.buchberger.calls", "count"),
    ("groebner.buchberger.self_s", "s"),
    ("groebner.normal_form.calls", "count"),
    ("groebner.normal_form.self_s", "s"),
    ("groebner.ideal_product.calls", "count"),
    ("groebner.ideal_product.self_s", "s"),
    ("groebner.ideal_power.calls", "count"),
    ("groebner.IdealHandle.groebner_basis.calls", "count"),
    ("groebner.IdealHandle.groebner_basis.hit_frac", "ratio"),
    ("hilbert.self_s", "s"),
    ("hilbert.hilbert_value.calls", "count"),
    ("hilbert.hilbert_value.self_s", "s"),
    ("hilbert.dimension.calls", "count"),
    ("hilbert.dimension.incl_s", "s"),
    ("hilbert.h11_polynomial.calls", "count"),
    ("hilbert.cumulative_polynomial.calls", "count"),
    ("hilbert.artinian_length.calls", "count"),
    ("adeg.verify.calls", "count"),
    ("adeg.verify.incl_s", "s"),
    ("adeg.ladeg.calls", "count"),
    ("adeg.adeg_report_ext.calls", "count"),
    ("adeg.adeg_report_ext.incl_s", "s"),
    ("adeg.cached_gg.calls", "count"),
    ("adeg.cached_gg.hit_frac", "ratio"),
    ("monomials.self_s", "s"),
    ("monomials.standard_pairs.calls", "count"),
    ("monomials.decompose.calls", "count"),
    ("numerical.self_s", "s"),
    ("session.parse_session.self_s", "s"),
    ("runner.execute_script.calls", "count"),
    ("runner.execute_script.incl_s", "s"),
    ("trace_overhead_s", "s"),
)

# A call "hits" when it returns without a direct child span of this name.
HIT_MISS_CHILD = {
    "groebner.IdealHandle.groebner_basis": "groebner.buchberger",
    "adeg.cached_gg": "constructions.gg_presentation",
}
GATE_PARENT = "constructions.gg_presentation"
GATE_EXCLUDED = ("constructions.assoc_graded", "constructions.initial_forms_ideal")


def span_totals(spans):
    """Per span name: calls, self time, outermost time, truthy results and
    calls without a direct child named in HIT_MISS_CHILD; plus the gate."""
    names, name_id, parent, _item, flags, start, end = spans
    n = len(name_id)
    dur = [end[i] - start[i] for i in range(n)]
    child = [0.0] * n
    gate_child = [0.0] * n
    missed = [False] * n
    miss_ids = {names.index(c): names.index(p) for p, c in HIT_MISS_CHILD.items()
                if p in names and c in names}
    gate_parent = names.index(GATE_PARENT) if GATE_PARENT in names else -1
    gate_ids = {names.index(c) for c in GATE_EXCLUDED if c in names}
    for i in range(n):
        p = parent[i]
        if p < 0:
            continue
        child[p] += dur[i]
        nid = name_id[i]
        if miss_ids.get(nid) == name_id[p]:
            missed[p] = True
        if nid in gate_ids and name_id[p] == gate_parent:
            gate_child[p] += dur[i]
    totals = {name: {"calls": 0, "self_s": 0.0, "incl_s": 0.0, "truthy": 0,
                     "hits": 0} for name in names}
    gate = 0.0
    for i in range(n):
        t = totals[names[name_id[i]]]
        t["calls"] += 1
        t["self_s"] += dur[i] - child[i]
        if flags[i] & OUTERMOST:
            t["incl_s"] += dur[i]
        if flags[i] & TRUTHY:
            t["truthy"] += 1
        if not missed[i]:
            t["hits"] += 1
        if name_id[i] == gate_parent and flags[i] & OUTERMOST:
            gate += dur[i] - gate_child[i]
    return totals, gate


def layer_metrics(spans, trace_overhead_s):
    """Every PER_LAYER metric as {name: value}."""
    totals, gate = span_totals(spans)
    out = {}
    for metric, _unit in PER_LAYER:
        head, _, field = metric.rpartition(".")
        if metric == "trace_overhead_s":
            value = trace_overhead_s
        elif metric == "constructions.gate_s":
            value = gate
        elif head in LAYERS:
            value = sum(t["self_s"] for name, t in totals.items()
                        if name.startswith(head + "."))
        else:
            t = totals[head]
            if field == "nonzero_frac":
                value = t["truthy"] / t["calls"] if t["calls"] else 0.0
            elif field == "hit_frac":
                value = t["hits"] / t["calls"] if t["calls"] else 0.0
            else:
                value = t[field]
        out[metric] = value
    return out
