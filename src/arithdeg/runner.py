"""Execute parsed session scripts and shape JSON-safe results.

Outputs are deterministic: fixed key order, canonical generator sorting,
and integers rendered as decimal strings once they leave the float-safe
range (exact arithmetic can exceed 2^53).
"""

import time

from .adeg import (_adeg_of_ring_quotient, cached_gg, gmult_report, ladeg,
                   verify)
from .errors import AlgebraError
from .groebner import (DEFAULT_MAX_BASIS, DEFAULT_MAX_DEGREE, IdealHandle,
                       _poly_sort_key)
from .hilbert import dimension, hilbert_polynomial
from .monomials import standard_pairs
from .orders import order_from_name
from .rings import poly_text

FLOAT_SAFE = 2 ** 53


def json_int(v):
    return str(v) if abs(v) > FLOAT_SAFE else v


def _script_caps(options):
    """The IdealHandle cap keywords from a script's options."""
    return {"max_degree": int(options.get("max_degree", DEFAULT_MAX_DEGREE)),
            "max_basis": int(options.get("max_basis", DEFAULT_MAX_BASIS))}


def ideal_handles(script):
    """One IdealHandle per declared ideal, under the script's caps."""
    caps = _script_caps(script.options)
    return {name: IdealHandle(script.ring, script.ideals[name], **caps)
            for name in script.ideal_order}


def execute_script(script, order_name=None, collect_timings=False,
                   handles=None):
    """Run every task of a session script, in order; returns the stable
    result dict.  handles, when given, is ideal_handles(script): the tasks
    then reuse the bases already cached in it."""
    opts = dict(script.options)
    if order_name:
        opts["order"] = order_name
    order = order_from_name(opts.get("order", "degrevlex"))
    if handles is None:
        handles = ideal_handles(script)

    results = []
    timings = {}
    for index, task in enumerate(script.tasks):
        started = time.monotonic()
        payload = _run_task(task[0], task[1:], handles, script, order)
        elapsed = time.monotonic() - started
        results.append({"task": " ".join(task), "index": index, "result": payload})
        if collect_timings:
            timings["%d:%s" % (index, " ".join(task))] = round(elapsed, 6)
    return {
        "ring": repr(script.ring),
        "tasks": [" ".join(t) for t in script.tasks],
        "results": results,
        "timings": timings,
        "provenance": dict(order=opts.get("order", "degrevlex"),
                           **_script_caps(opts)),
    }


def _meta_for(script, name):
    return {flag: True for flag in script.metas.get(name, ())}


def _run_task(kind, names, handles, script, order):
    if kind == "gb":
        I = handles[names[0]]
        basis = I.groebner_basis(order)
        return {"basis": [poly_text(g) for g in basis]}
    if kind == "hilbert":
        I = handles[names[0]]
        poly, cert = hilbert_polynomial(I, bigraded=False)
        return {
            "dimension": dimension(I),
            "binomial_coefficients": [json_int(c) for c in poly.coeffs],
            "threshold": cert.thresholds[0],
            "window": cert.window,
        }
    if kind == "stdpairs":
        I = handles[names[0]]
        ring = script.ring
        pairs = standard_pairs(I)
        out = []
        for p in pairs:
            mono = ring.monomial(p.monomial)
            out.append({
                "monomial": poly_text(mono),
                "variables": [ring.names[i] for i in p.variables],
            })
        return {"pairs": out}
    if kind == "adeg":
        I = handles[names[0]]
        table, provenance = _adeg_of_ring_quotient(I, _meta_for(script, names[0]))
        values = {str(i): json_int(v) for i, v in sorted(table.items()) if v}
        return {"adeg": values, "provenance": provenance}
    if kind == "gg":
        J, I = handles[names[0]], handles[names[1]]
        gg = cached_gg(J, I)
        grid = {}
        for i in range(4):
            for j in range(4):
                grid["%d,%d" % (i, j)] = json_int(gg.hilbert(i, j))
        return {
            "ring": repr(gg.ring),
            "generators": [poly_text(g) for g in sorted(
                gg.ideal.groebner_basis(), key=_poly_sort_key)],
            "hilbert": grid,
        }
    if kind == "gmult":
        J, I = handles[names[0]], handles[names[1]]
        rep = gmult_report(J, I)
        return {"gmult": {str(i): [json_int(c) for c in v.components]
                          for i, v in sorted(rep.table().items())}}
    if kind == "ladeg":
        J, I = handles[names[0]], handles[names[1]]
        meta = _meta_for(script, names[0])
        d = max(dimension(J), 0)
        out = {}
        for i in range(d + 1):
            vec = ladeg(J, I, i, meta=meta)
            out[str(i)] = [json_int(c) for c in vec.components]
        return {"ladeg": out}
    if kind == "verify":
        J, I = handles[names[0]], handles[names[1]]
        meta = _meta_for(script, names[0])
        record = verify(J, I, meta=meta,
                        label="%s,%s" % (names[0], names[1]))
        data = record.as_dict()
        for key in ("theorem_lhs", "theorem_rhs", "corollary1_gr", "corollary1_a"):
            data[key] = {k: json_int(v) for k, v in data[key].items()}
        return data
    raise AlgebraError("unknown task kind %r" % kind)
