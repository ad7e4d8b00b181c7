"""Buchberger engine: reduced Groebner bases, normal forms, ideal arithmetic.

Pair selection follows the normal strategy (minimal lcm in the term order)
with Gebauer-Moeller pair elimination.  Output bases are reduced (monic,
minimal, tail-reduced) and canonically sorted, so every computation is
reproducible byte for byte.
"""

from .errors import (AlgebraError, InvalidDivisorError, ResourceLimitError,
                     RingMismatchError)
from .orders import BlockOrder, DegRevLex
from .rings import (Polynomial, RingDescriptor, minimal_monomials, mono_div,
                    mono_divides, mono_lcm, mono_mul)

DEFAULT_MAX_BASIS = 2000
DEFAULT_MAX_DEGREE = 40


def s_polynomial(f, g, order):
    mf, cf = f.leading_term(order)
    mg, cg = g.leading_term(order)
    lcm = mono_lcm(mf, mg)
    one = f.ring.field.one
    tf = Polynomial(f.ring, {mono_div(lcm, mf): one / cf}, _clean=False)
    tg = Polynomial(g.ring, {mono_div(lcm, mg): one / cg}, _clean=False)
    return tf * f - tg * g


def normal_form(f, basis, order):
    """Remainder of f on division by basis; no term of it is divisible
    by a basis leading monomial."""
    ring = f.ring
    if not basis:
        return f
    leads = [g.leading_term(order) for g in basis]
    remainder = {}
    work = dict(f.terms)
    while work:
        m = max(work, key=order.key)
        c = work.pop(m)
        hit = None
        for (mg, cg), g in zip(leads, basis):
            q = mono_div(m, mg)
            if q is not None:
                hit = (q, c / cg, g, mg)
                break
        if hit is None:
            remainder[m] = c
            continue
        q, ratio, g, mg = hit
        for mg2, cg2 in g.terms.items():
            if mg2 == mg:
                continue  # lead cancels against the popped term
            mm = mono_mul(q, mg2)
            s = work.get(mm, 0) - ratio * cg2
            if s:
                work[mm] = s
            elif mm in work:
                del work[mm]
    return Polynomial(ring, remainder, _clean=False)


def _update_pairs(G, P, h, order, lm):
    """Gebauer-Moeller update when appending h to the basis list G."""
    mh = h.leading_monomial(order)
    t = len(G)

    lcm_h = {i: mono_lcm(lm[i], mh) for i in range(t)}
    # drop old pairs strictly dominated by the new element
    P = {(i, j) for (i, j) in P
         if not mono_divides(mh, mono_lcm(lm[i], lm[j]))
         or mono_lcm(lm[i], lm[j]) in (lcm_h[i], lcm_h[j])}
    # group new pairs by lcm, keep one representative per minimal lcm
    groups = {}
    for i in range(t):
        groups.setdefault(lcm_h[i], []).append(i)
    minimal = []
    for L in sorted(groups, key=order.key):
        if all(not mono_divides(L2, L) for L2 in minimal):
            minimal.append(L)
    for L in minimal:
        members = groups[L]
        # product criterion: skip when some member has disjoint lead
        if any(mono_mul(lm[i], mh) == lcm_h[i] for i in members):
            continue
        P.add((min(members), t))
    return P


def interreduce(basis, order):
    """Make a Groebner basis reduced: minimal, monic, tails reduced."""
    basis = [g for g in basis if g]
    basis.sort(key=lambda g: order.key(g.leading_monomial(order)))
    minimal = []
    for g in basis:
        mg = g.leading_monomial(order)
        if all(not mono_divides(h.leading_monomial(order), mg) for h in minimal):
            minimal.append(g)
    reduced = []
    for i, g in enumerate(minimal):
        others = minimal[:i] + minimal[i + 1:]
        r = normal_form(g, others, order) if others else g
        if r:
            reduced.append(r.monic(order))
    reduced.sort(key=lambda g: order.key(g.leading_monomial(order)))
    return reduced


def buchberger(gens, order, max_basis=DEFAULT_MAX_BASIS,
               max_degree=DEFAULT_MAX_DEGREE):
    """Reduced Groebner basis of the ideal generated by gens."""
    gens = list(gens)
    if any(f.ring != gens[0].ring for f in gens):
        raise RingMismatchError("generators over different rings")
    gens = [f for f in gens if f]
    if all(f.is_monomial() for f in gens):
        # the minimal monomials are the reduced Groebner basis
        monos = minimal_monomials(next(iter(f.terms)) for f in gens)
        return [gens[0].ring.monomial(m) for m in sorted(monos, key=order.key)]
    G = []
    lm = []
    P = set()
    for f in gens:
        P = _update_pairs(G, P, f, order, lm)
        G.append(f.monic(order))
        lm.append(f.leading_monomial(order))
    pair_key = {}
    while P:
        for ij in P:
            if ij not in pair_key:
                pair_key[ij] = order.key(mono_lcm(lm[ij[0]], lm[ij[1]]))
        pair = min(P, key=pair_key.__getitem__)
        P.remove(pair)
        s = s_polynomial(G[pair[0]], G[pair[1]], order)
        r = normal_form(s, G, order)
        if r:
            if r.degree() > max_degree:
                raise ResourceLimitError(
                    "Groebner degree cap %d exceeded" % max_degree,
                    basis_size=len(G), degree=r.degree())
            P = _update_pairs(G, P, r, order, lm)
            G.append(r.monic(order))
            lm.append(r.leading_monomial(order))
            if len(G) > max_basis:
                raise ResourceLimitError(
                    "Groebner basis size cap %d exceeded" % max_basis,
                    basis_size=len(G))
    return interreduce(G, order)


def _poly_sort_key(f, order=DegRevLex()):
    if not f:
        return ((0,), ())
    shape = tuple(sorted(((m, str(c)) for m, c in f.terms.items())))
    return (order.key(f.leading_monomial(order)), shape)


class IdealHandle:
    """An ideal given by generators, with a cache of reduced Groebner bases.

    The cache is the one owner of the ideal's bases: the cyclic module S/I
    (``hilbert.as_presentation``) takes its basis from here too.
    """

    __slots__ = ("ring", "gens", "max_basis", "max_degree", "_cache")

    def __init__(self, ring, gens=(), max_basis=DEFAULT_MAX_BASIS,
                 max_degree=DEFAULT_MAX_DEGREE):
        self.ring = ring
        cleaned = []
        for g in gens:
            if isinstance(g, str):
                from .rings import parse_polynomial
                g = parse_polynomial(ring, g)
            if g.ring != ring:
                raise RingMismatchError("generator over %r, ideal over %r"
                                        % (g.ring, ring))
            if g:
                cleaned.append(g)
        # canonicalize: drop duplicates and monomial generators made
        # redundant by another monomial generator (same ideal, smaller list)
        keep = [ring.monomial(m) for m in minimal_monomials(
            {next(iter(g.terms)) for g in cleaned if g.is_monomial()})]
        seen = set()
        for g in cleaned:
            if g.is_monomial():
                continue
            sig = tuple(sorted((m, str(c)) for m, c in g.terms.items()))
            if sig not in seen:
                seen.add(sig)
                keep.append(g)
        keep.sort(key=_poly_sort_key)
        self.gens = tuple(keep)
        self.max_basis = max_basis
        self.max_degree = max_degree
        self._cache = {}

    def groebner_basis(self, order=None):
        order = order or DegRevLex()
        sig = order.signature()
        gb = self._cache.get(sig)
        if gb is None:
            gb = self._cache[sig] = tuple(
                buchberger(self.gens, order, self.max_basis, self.max_degree))
        return gb

    def normal_form(self, f, order=None):
        order = order or DegRevLex()
        return normal_form(f, list(self.groebner_basis(order)), order)

    def contains(self, f):
        return not self.normal_form(f)

    def contains_ideal(self, other):
        return all(self.contains(g) for g in other.gens)

    def equals(self, other):
        return self.contains_ideal(other) and other.contains_ideal(self)

    def is_zero(self):
        return not self.gens

    def is_unit(self):
        gb = self.groebner_basis()
        return len(gb) == 1 and gb[0].is_constant()

    def is_monomial(self):
        return all(g.is_monomial() for g in self.gens)

    def is_homogeneous(self):
        return all(g.is_homogeneous() for g in self.gens)

    def is_bihomogeneous(self):
        return all(g.is_bihomogeneous() for g in self.gens)

    def leading_monomials(self, order=None):
        order = order or DegRevLex()
        return tuple(g.leading_monomial(order) for g in self.groebner_basis(order))

    def __repr__(self):
        return "(%s)" % ", ".join(repr(g) for g in self.gens) if self.gens else "(0)"


def ideal(ring, *gens, **kw):
    return IdealHandle(ring, gens, **kw)


def maximal_ideal(ring):
    """The ideal of all variables (the origin)."""
    return IdealHandle(ring, ring.gens())


def ideal_sum(*ideals):
    ring = ideals[0].ring
    gens = []
    for I in ideals:
        if I.ring != ring:
            raise RingMismatchError("summing ideals over different rings")
        gens.extend(I.gens)
    return IdealHandle(ring, gens)


def ideal_product(I, J):
    gens = [f * g for f in I.gens for g in J.gens]
    return IdealHandle(I.ring, gens)


def ideal_power(I, k):
    if k < 0:
        raise AlgebraError("negative ideal power")
    if k == 0:
        return IdealHandle(I.ring, [I.ring.one()])
    result = I
    for _ in range(k - 1):
        result = ideal_product(result, I)
    return result


# ---------------------------------------------------------------------------
# ring extension plumbing for elimination-based operations

def extended_ring(ring, extra_names):
    """Same variables plus fresh trailing ones; grading data is dropped
    (only term orders matter during elimination)."""
    names = ring.names + tuple(extra_names)
    return RingDescriptor(names, field=ring.field)


def inject(f, big_ring):
    """View a polynomial inside a ring with extra trailing variables."""
    pad = big_ring.nvars - f.ring.nvars
    terms = {m + (0,) * pad: c for m, c in f.terms.items()}
    return Polynomial(big_ring, terms, _clean=False)


def project(f, small_ring):
    """Drop trailing variables; terms involving them must be absent."""
    n = small_ring.nvars
    terms = {}
    for m, c in f.terms.items():
        if any(e != 0 for e in m[n:]):
            raise AlgebraError("cannot project %r: trailing variables present" % (f,))
        terms[m[:n]] = c
    return Polynomial(small_ring, terms, _clean=False)


def fresh_names(ring, base, count):
    names = []
    used = set(ring.names)
    i = 0
    while len(names) < count:
        i += 1
        cand = "%s%d" % (base, i)
        if cand not in used:
            names.append(cand)
            used.add(cand)
    return names


def eliminate(I, var_indices):
    """I intersected with the subring avoiding the given variables."""
    var_indices = sorted(set(var_indices))
    if not var_indices:
        return I
    ring = I.ring
    order = BlockOrder(var_indices, ring.nvars)
    gb = buchberger(list(I.gens), order, I.max_basis, I.max_degree)
    kept = [g for g in gb
            if all(all(m[i] == 0 for i in var_indices) for m in g.terms)]
    return IdealHandle(ring, kept, max_basis=I.max_basis, max_degree=I.max_degree)


def intersect(I, J):
    """I cap J via the t*I + (1-t)*J elimination construction.

    Monomial inputs take the pairwise-lcm shortcut, and containment is
    checked first (both keep the elimination off the hot paths).
    """
    if I.ring != J.ring:
        raise RingMismatchError("intersecting ideals over different rings")
    ring = I.ring
    if I.is_monomial() and J.is_monomial():
        lcms = {mono_lcm(next(iter(f.terms)), next(iter(g.terms)))
                for f in I.gens for g in J.gens}
        return IdealHandle(ring, [ring.monomial(m) for m in lcms],
                           max_basis=I.max_basis, max_degree=I.max_degree)
    if I.contains_ideal(J):
        return J
    if J.contains_ideal(I):
        return I
    big = extended_ring(ring, fresh_names(ring, "t_", 1))
    t = big.gen(big.nvars - 1)
    one = big.one()
    gens = [t * inject(f, big) for f in I.gens]
    gens += [(one - t) * inject(g, big) for g in J.gens]
    H = IdealHandle(big, gens, max_basis=I.max_basis, max_degree=max(I.max_degree, J.max_degree))
    E = eliminate(H, [big.nvars - 1])
    return IdealHandle(ring, [project(g, ring) for g in E.gens],
                       max_basis=I.max_basis, max_degree=I.max_degree)


def exact_divide(h, f, order=None):
    """h / f when f divides h exactly; raises otherwise."""
    order = order or DegRevLex()
    ring = h.ring
    quotient = ring.zero()
    rest = h
    while rest:
        mr, cr = rest.leading_term(order)
        mf, cf = f.leading_term(order)
        q = mono_div(mr, mf)
        if q is None:
            raise AlgebraError("%r does not divide %r" % (f, h))
        t = Polynomial(ring, {q: cr / cf}, _clean=False)
        quotient = quotient + t
        rest = rest - t * f
    return quotient


def ideal_quotient(I, f):
    """(I : f) through intersection with the principal ideal (f)."""
    if isinstance(f, IdealHandle):
        result = None
        for g in f.gens:
            Q = ideal_quotient(I, g)
            result = Q if result is None else intersect(result, Q)
        return result if result is not None else IdealHandle(I.ring, [I.ring.one()])
    if not f:
        raise InvalidDivisorError("quotient by zero")
    if f.is_constant():
        return I
    H = intersect(I, IdealHandle(I.ring, [f]))
    gens = [exact_divide(g, f) for g in H.gens]
    return IdealHandle(I.ring, gens, max_basis=I.max_basis, max_degree=I.max_degree)


def saturate(I, f):
    """(I : f^infinity) by the Rabinowitsch trick."""
    if not f:
        raise InvalidDivisorError("saturation by zero")
    if f.is_constant():
        return I
    ring = I.ring
    big = extended_ring(ring, fresh_names(ring, "u_", 1))
    u = big.gen(big.nvars - 1)
    gens = [inject(g, big) for g in I.gens]
    gens.append(big.one() - u * inject(f, big))
    H = IdealHandle(big, gens, max_basis=I.max_basis, max_degree=I.max_degree)
    E = eliminate(H, [big.nvars - 1])
    return IdealHandle(ring, [project(g, ring) for g in E.gens],
                       max_basis=I.max_basis, max_degree=I.max_degree)


def saturate_by_ideal(I, J):
    """(I : J^infinity) as the intersection of single-generator saturations."""
    result = None
    for f in J.gens:
        S = saturate(I, f)
        result = S if result is None else intersect(result, S)
    if result is None:
        # J = (0): (I : 0^infinity) is the whole ring
        return IdealHandle(I.ring, [I.ring.one()])
    return result
