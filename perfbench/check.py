"""Correctness checks on the output JSON of one item.

Two digests per item: ``raw`` is the SHA-256 of the output file's bytes and
holds for the default seed only; ``canonical`` undoes the seed's variable
scaling first (``x_i -> x_i / c_i`` on every Groebner basis element, then a
fixed normalisation and sort), so it holds for every seed.  Corpus items
are also checked against their ``CorpusEntry.expected`` values.
"""

import hashlib
import json
import re
from fractions import Fraction

from workloads import poly_text

_TERM = re.compile(r"([+-]?)([^+-]+)")


def parse_poly(text, names):
    """Parse the program's printed polynomial form into {exponents: Fraction}."""
    index = {n: k for k, n in enumerate(names)}
    poly = {}
    for sign, body in _TERM.findall(text):
        coeff = Fraction(1)
        mono = [0] * len(names)
        for factor in body.split("*"):
            name, _, exp = factor.partition("^")
            if name in index:
                mono[index[name]] += int(exp or 1)
            else:
                coeff *= Fraction(factor)
        poly[tuple(mono)] = -coeff if sign == "-" else coeff
    return poly


def _unscale(poly, scales):
    out = {}
    for mono, c in poly.items():
        for s, e in zip(scales, mono):
            c /= Fraction(s) ** e
        out[mono] = c
    top = out[max(out)]
    return {m: c / top for m, c in out.items()}


def canonical(output, scales):
    """The output with the scaling undone, as canonical JSON text."""
    if scales:
        names = output["ring"].split("[", 1)[1].rstrip("]").split(",")
        for res in output["results"]:
            basis = res["result"].get("basis")
            if basis is not None:
                res["result"]["basis"] = sorted(
                    poly_text(_unscale(parse_poly(g, names), scales), names)
                    for g in basis)
    return json.dumps(output, sort_keys=True)


def digests(raw, scales):
    """(raw digest, canonical digest) of one output file's bytes."""
    canon = canonical(json.loads(raw), scales)
    return (hashlib.sha256(raw).hexdigest(),
            hashlib.sha256(canon.encode()).hexdigest())


def corpus_problems(output, entry):
    """Mismatches against a corpus entry's expected values, and failed verifies."""
    problems = []
    by_task = {r["task"]: r["result"] for r in output["results"]}
    for exp in entry.expected:
        node = by_task.get(exp["task"])
        for key in exp["path"]:
            node = node.get(key) if isinstance(node, dict) else None
        if node != exp["value"]:
            problems.append("%s %s: expected %r, got %r" % (
                exp["task"], "/".join(exp["path"]), exp["value"], node))
    for task, res in by_task.items():
        if task.startswith("verify") and res.get("passed") is not True:
            problems.append("%s did not pass" % task)
    return problems
