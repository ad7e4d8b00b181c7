"""Seeded workload generation: session scripts for each benchmark item.

Stdlib only.  The parent process, the child process and the tests all build
byte-identical scripts from one seed; the ``corpus`` texts come from the
package's own ``arithdeg.corpus``.

Each workload does the same algebra for every seed:

* ``corpus`` runs the bundled corpus entries, whose texts are fixed; the
  seed only picks where in the cycle of orders (``pass_order``) a run
  starts.
* ``ext`` and ``gb`` change variable signs, ``x_i -> c_i * x_i`` with
  ``c_i = +-1``.  That keeps every leading monomial and every coefficient's
  size, so the inputs and outputs change while the cost does not; factors
  up to 7 made one item's cost vary twofold between seeds.  The expected
  output is the reference output with the same substitution applied.
"""

import random
from fractions import Fraction

WORKLOADS = ("corpus", "ext", "gb")
DEFAULT_SEED = 0
ORDERS = 4

# Entries of the bundled corpus left out of the ``corpus`` workload, with
# their single-run time at the commit that defined the benchmark.
CORPUS_EXCLUDED = {
    "eqg-3var-m2": "about 145 s alone; its module-layer cost is what ext measures",
    "rnd-03": "9.5 s alone; a pass must fit several times into one run",
    "rnd-16": "7.6 s alone; a pass must fit several times into one run",
}

SCALES = (-1, 1)


class Item:
    """One benchmark item: a session script plus what checking it needs."""

    def __init__(self, ident, text, scales=None, corpus_id=None):
        self.ident = ident
        self.text = text
        self.scales = scales          # per-variable factors c_i, or None
        self.corpus_id = corpus_id    # bundled corpus identifier, or None


# ---------------------------------------------------------------------------
# polynomials as {exponent tuple: Fraction}

def poly_text(poly, names):
    """Session-script text of a polynomial, terms in a fixed order."""
    if not poly:
        return "0"
    out = []
    for mono in sorted(poly, reverse=True):
        c = poly[mono]
        factors = []
        for name, e in zip(names, mono):
            if e == 1:
                factors.append(name)
            elif e > 1:
                factors.append("%s^%d" % (name, e))
        mag = abs(c)
        coeff = str(mag)
        if not factors:
            body = coeff
        elif mag == 1:
            body = "*".join(factors)
        else:
            body = coeff + "*" + "*".join(factors)
        sign = "-" if c < 0 else "+"
        out.append((sign if out or c < 0 else "") + body)
    return "".join(out)


def _add(poly, mono, c):
    c = poly.get(mono, 0) + c
    if c:
        poly[mono] = Fraction(c)
    else:
        poly.pop(mono, None)


def _mul(p, q):
    out = {}
    for m1, c1 in p.items():
        for m2, c2 in q.items():
            _add(out, tuple(a + b for a, b in zip(m1, m2)), c1 * c2)
    return out


def _var(n, i):
    return {tuple(int(k == i) for k in range(n)): Fraction(1)}


def scale_poly(poly, scales):
    """Substitute x_i -> c_i * x_i."""
    out = {}
    for mono, c in poly.items():
        f = Fraction(c)
        for s, e in zip(scales, mono):
            f *= Fraction(s) ** e
        out[mono] = f
    return out


def homogenize(poly):
    """Homogenize with one extra trailing variable."""
    top = max(sum(m) for m in poly)
    return {m + (top - sum(m),): c for m, c in poly.items()}


# ---------------------------------------------------------------------------
# the standard Groebner test systems

def katsura(n):
    """Katsura-n in n + 1 variables u_0..u_n."""
    nv = n + 1

    def u(i):
        i = abs(i)
        return _var(nv, i) if i <= n else {}

    polys = []
    for m in range(n):
        p = {}
        for l in range(-n, n + 1):
            for mono, c in _mul(u(l), u(m - l)).items():
                _add(p, mono, c)
        for mono, c in u(m).items():
            _add(p, mono, -c)
        polys.append(p)
    p = {}
    for i in range(nv):
        for mono, c in u(i).items():
            _add(p, mono, c if i == 0 else 2 * c)
    _add(p, (0,) * nv, -1)
    polys.append(p)
    return polys


def cyclic(n):
    """Cyclic-n in n variables."""
    polys = []
    for k in range(1, n):
        p = {}
        for start in range(n):
            mono = [0] * n
            for j in range(k):
                mono[(start + j) % n] += 1
            _add(p, tuple(mono), 1)
        polys.append(p)
    p = {tuple([1] * n): Fraction(1)}
    _add(p, (0,) * n, -1)
    polys.append(p)
    return polys


# ---------------------------------------------------------------------------
# workload items

def _script(names, ideals, tasks):
    lines = ["ring S = Q[%s];" % ",".join(names)]
    for label, gens in ideals:
        lines.append("ideal %s = %s;" % (label, ", ".join(gens)))
    lines.extend("task %s;" % t for t in tasks)
    return "\n".join(lines) + "\n"


def _scaled_item(ident, polys, names, tasks, rng):
    scales = [rng.choice(SCALES) for _ in names]
    gens = [poly_text(scale_poly(p, scales), names) for p in polys]
    return Item(ident, _script(names, [("J", gens)], tasks), scales=scales)


# Shape 1 of ``ext``: ``verify J I`` with J monomial and I four or five
# degree-2 monomials in Q[x,y,z], the shape of corpus entry eqg-3var-m2.
# Cost in this family is very uneven, so the items come from a pool vetted
# once; EXT_POOL.md records every candidate, its time and why it is in or out.
EXT_PAIR_CANDIDATES = (
    ("x^2", "x^2, x*y, y^2, x*z"),
    ("x*y", "x^2, y^2, x*z, z^2"),
    ("x*z^2", "x^2, x*y, y*z, z^2"),
    ("x", "x^2, x*y, y^2, x*z"),
    ("x^2", "x^2, x*y, x*z, y*z"),
    ("x*y", "x^2, x*y, y^2, x*z"),
    ("x^2", "x^2, x*y, y^2, x*z, y*z"),
    ("x*y", "x^2, x*y, y^2, z^2"),
    ("y^2", "x^2, x*y, y^2, x*z"),
    ("z", "x^2, x*y, y^2, x*z"),
    ("x*y", "x^2, x*y, x*z, y*z"),
    ("x*z", "x^2, x*y, y^2, x*z"),
)
EXT_PAIRS = (EXT_PAIR_CANDIDATES[0], EXT_PAIR_CANDIDATES[8])
# Shape 2 of ``ext``: ``gb; hilbert; adeg`` on a complete intersection of
# three dense quadrics in Q[x,y,z,w], where the Ext is of S/J with rational
# coefficient growth.  Base coefficients come from a fixed generator, so
# every seed rescales the same systems.
EXT_CIS = (0, 1)


def dense_quadrics(k):
    """Three quadrics in four variables with every monomial present."""
    rng = random.Random("ext-ci:%d" % k)
    monos = [m for m in ((a, b, c, 2 - a - b - c) for a in range(3)
                         for b in range(3) for c in range(3)) if min(m) >= 0]
    return [{m: Fraction(rng.choice((-4, -3, -2, -1, 1, 2, 3, 4)))
             for m in monos} for _ in range(3)]


def pair_item(j, i):
    ident = "pair:%s|%s" % (j.replace("*", ""), i.replace("*", "").replace(" ", ""))
    return Item(ident, _script(("x", "y", "z"), [("J", [j]), ("I", i.split(", "))],
                               ["verify J I"]))


def ci_item(k, rng):
    return _scaled_item("ci%d" % k, dense_quadrics(k), ("x", "y", "z", "w"),
                        ["gb J", "hilbert J", "adeg J"], rng)


GB_SYSTEMS = (("katsura4", katsura, 4), ("katsura5", katsura, 5),
              ("cyclic5", cyclic, 5))


def _gb_items(rng):
    items = []
    for ident, family, n in GB_SYSTEMS:
        polys = family(n)
        names = ["u%d" % i for i in range(len(next(iter(polys[0]))))]
        items.append(_scaled_item(ident, polys, names, ["gb J"], rng))
        homog = [homogenize(p) for p in polys]
        items.append(_scaled_item(ident + "-h", homog, names + ["h"],
                                  ["gb J", "hilbert J"], rng))
    return items


def pass_order(seed, index):
    """Order number of a run's ``index``-th pass.

    A run's passes cycle through ORDERS fixed shuffles of the items, entered
    at a point the seed picks.  Item costs move with the warmth of the
    package's process-global caches, so an item's median latency over the
    cycle does not depend on which orders a seed happens to draw; it did by
    a quarter of ``item_p50_s`` when every seed drew its own orders.
    """
    return (seed + index) % ORDERS


def build(workload, seed, order=0):
    """The workload's items for this seed, in the order numbered ``order``.

    The seed fixes the scripts and ``order`` only shuffles them, so the
    passes of one run see the same inputs in different orders.
    """
    rng = random.Random("%s:%d" % (workload, seed))
    if workload == "corpus":
        from arithdeg.corpus import build_corpus
        items = [Item(e.identifier, e.script_text, corpus_id=e.identifier)
                 for e in build_corpus() if e.identifier not in CORPUS_EXCLUDED]
    elif workload == "ext":
        items = [pair_item(j, i) for j, i in EXT_PAIRS]
        items += [ci_item(k, rng) for k in EXT_CIS]
    elif workload == "gb":
        items = _gb_items(rng)
    else:
        raise ValueError("unknown workload %r" % workload)
    random.Random("%s:order:%d" % (workload, order)).shuffle(items)
    return items
