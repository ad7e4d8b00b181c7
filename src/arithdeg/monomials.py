"""Combinatorial oracle for monomial ideals: standard pairs, irreducible
decomposition, associated/embedded primes, and the dimension filtration.

Everything here works on raw exponent vectors, independent of the Groebner
pipeline, so it can serve as ground truth for the Ext-route arithmetic
degrees.
"""

import itertools
from functools import reduce

from .errors import AlgebraError, InternalConsistencyError, WrongOracleError
from .groebner import IdealHandle, _caps
from .rings import minimal_monomials, mono_lcm


def _require_monomial(I):
    if not isinstance(I, IdealHandle):
        raise AlgebraError("expected an ideal handle")
    if not I.is_monomial():
        raise WrongOracleError("the combinatorial oracle needs a monomial ideal")


def minimal_generators(I):
    """Exponent vectors of the minimal monomial generators."""
    _require_monomial(I)
    return minimal_monomials(next(iter(g.terms)) for g in I.gens)


def monomial_intersection(gens_a, gens_b):
    """Minimal generators of the intersection of two monomial ideals."""
    return minimal_monomials({mono_lcm(a, b) for a in gens_a for b in gens_b})


# ---------------------------------------------------------------------------
# standard pairs

class StandardPair:
    """A monomial u and variable set Z with u*k[Z] inside the standard
    monomials, maximal among such cells."""

    __slots__ = ("monomial", "variables")

    def __init__(self, monomial, variables):
        self.monomial = tuple(monomial)
        self.variables = tuple(sorted(variables))

    def covers(self, m):
        """Is the exponent vector m inside u*k[Z]?"""
        zs = set(self.variables)
        for i, (u, e) in enumerate(zip(self.monomial, m)):
            if i in zs:
                if e < u:
                    return False
            elif e != u:
                return False
        return True

    def contained_in(self, other):
        """Cell containment: u*k[Z] inside u'*k[Z']."""
        if not set(self.variables) <= set(other.variables):
            return False
        zs = set(other.variables)
        for i, (u, v) in enumerate(zip(self.monomial, other.monomial)):
            if i in zs:
                if u < v:
                    return False
            elif u != v:
                return False
        return True

    def key(self):
        return (-len(self.variables), self.monomial, self.variables)

    def __eq__(self, other):
        return (isinstance(other, StandardPair)
                and self.monomial == other.monomial
                and self.variables == other.variables)

    def __hash__(self):
        return hash((self.monomial, self.variables))

    def __repr__(self):
        return "(%r, {%s})" % (self.monomial, ",".join(map(str, self.variables)))


def _admissible(u, Z, gens):
    """u*k[Z] misses the ideal iff no generator divides u once its
    Z-exponents are discounted."""
    zs = set(Z)
    for g in gens:
        if all(i in zs or e <= u[i] for i, e in enumerate(g)):
            return False
    return True


def standard_pairs(I):
    """The standard-pair set of a proper monomial ideal, deterministically
    ordered by (|Z| descending, monomial, Z).

    Candidate monomials range over the box bounded by the maximal generator
    exponents: a pair with a larger exponent in some free variable is never
    maximal.  Maximality is then enforced by pairwise cell comparison.  The
    set is computed once per handle and kept in its cache; each call
    returns a fresh list.
    """
    _require_monomial(I)
    return list(I._cached("standard_pairs", lambda: _standard_pairs(I)))


def _standard_pairs(I):
    gens = minimal_generators(I)
    n = I.ring.nvars
    if any(not any(g) for g in gens):
        raise WrongOracleError("standard pairs of the unit ideal are undefined")
    bounds = [0] * n
    for g in gens:
        for i, e in enumerate(g):
            bounds[i] = max(bounds[i], e)
    candidates = []
    for size in range(n, -1, -1):
        for Z in itertools.combinations(range(n), size):
            zs = set(Z)
            ranges = [range(bounds[i] + 1) if i not in zs else range(1)
                      for i in range(n)]
            for u in itertools.product(*ranges):
                if any(u[i] for i in zs):
                    continue
                if _admissible(u, Z, gens):
                    candidates.append(StandardPair(u, Z))
    pairs = []
    for p in candidates:
        if any(p != q and p.contained_in(q) for q in candidates):
            continue
        pairs.append(p)
    pairs.sort(key=StandardPair.key)
    return tuple(pairs)


def adeg_monomial(I):
    """Arithmetic degrees of S/I by standard-pair counts: adeg_i is the
    number of pairs with |Z| = i."""
    pairs = standard_pairs(I)
    n = I.ring.nvars
    out = [0] * (n + 1)
    for p in pairs:
        out[len(p.variables)] += 1
    return out


# ---------------------------------------------------------------------------
# irreducible decomposition and primes

class IrreducibleComponent:
    """Component generated by pure powers x_i^{b_i} over its bounded set."""

    __slots__ = ("bounds", "nvars")

    def __init__(self, bounds, nvars):
        self.bounds = dict(bounds)
        self.nvars = nvars

    def generators(self):
        out = []
        for i, b in sorted(self.bounds.items()):
            m = [0] * self.nvars
            m[i] = b
            out.append(tuple(m))
        return tuple(out)

    def radical_support(self):
        return frozenset(self.bounds)

    def contains(self, m):
        return any(m[i] >= b for i, b in self.bounds.items())

    def key(self):
        return tuple(sorted(self.bounds.items()))

    def __eq__(self, other):
        return isinstance(other, IrreducibleComponent) and self.bounds == other.bounds

    def __hash__(self):
        return hash(self.key())

    def __repr__(self):
        body = ", ".join("x%d^%d" % (i, b) for i, b in sorted(self.bounds.items()))
        return "Irr(%s)" % body


def _split_once(gens):
    """Find a mixed generator and return the two split ideals, or None."""
    for g in gens:
        support = [i for i, e in enumerate(g) if e]
        if len(support) > 1:
            i = support[0]
            left = tuple(1 if k == i else 0 for k in range(len(g)))
            a = tuple(e if k == i else 0 for k, e in enumerate(g))
            b = tuple(0 if k == i else e for k, e in enumerate(g))
            return g, a, b
    return None


def irreducible_decomposition(gens, nvars):
    """Irredundant irreducible components by the splitting recursion:
    a generator m1*m2 with coprime parts splits I into (I+m1) cap (I+m2)."""
    gens = minimal_monomials(gens)
    split = _split_once(gens)
    if split is None:
        # every generator is a pure power, one per variable after minimalizing
        bounds = {}
        for g in gens:
            i = next(k for k, e in enumerate(g) if e)
            bounds[i] = g[i]
        return [IrreducibleComponent(bounds, nvars)]
    g, a, b = split
    rest = tuple(h for h in gens if h != g)
    comps = set()
    comps.update(irreducible_decomposition(rest + (a,), nvars))
    comps.update(irreducible_decomposition(rest + (b,), nvars))
    return _irredundant(sorted(comps, key=IrreducibleComponent.key))


def _intersection(gen_lists):
    """Generators of the intersection of one or more monomial ideals, each
    given by its generators."""
    return reduce(monomial_intersection, gen_lists)


def _irredundant(components):
    kept = list(components)
    changed = True
    while changed:
        changed = False
        for k in range(len(kept)):
            others = kept[:k] + kept[k + 1:]
            if not others:
                continue
            inter = _intersection(c.generators() for c in others)
            if all(kept[k].contains(m) for m in inter):
                kept.pop(k)
                changed = True
                break
    return kept


class MonomialDecomposition:
    """Irreducible components, the primary grouping, and the prime data."""

    def __init__(self, ring, components, primary, associated, minimal_primes):
        self.ring = ring
        self.components = tuple(components)
        self.primary = tuple((supp, tuple(gens)) for supp, gens in primary)
        self.associated_primes = tuple(associated)      # frozensets
        self.minimal_primes = tuple(minimal_primes)
        self.embedded_primes = tuple(p for p in associated
                                     if p not in minimal_primes)

    def __repr__(self):
        return ("MonomialDecomposition(%d components, primes=%r)"
                % (len(self.components), sorted(map(sorted, self.associated_primes))))


def decompose(I):
    """Irreducible and primary decomposition of a proper monomial ideal,
    with associated and embedded primes, computed once per handle and kept
    in its cache."""
    _require_monomial(I)
    return I._cached("decompose", lambda: _decompose(I))


def _decompose(I):
    gens = minimal_generators(I)
    n = I.ring.nvars
    if any(not any(g) for g in gens):
        raise WrongOracleError("cannot decompose the unit ideal")
    if not gens:
        # the zero ideal is prime with empty support
        comp = IrreducibleComponent({}, n)
        return MonomialDecomposition(I.ring, [comp], [(frozenset(), ())],
                                     [frozenset()], [frozenset()])
    comps = irreducible_decomposition(gens, n)
    # exactness gate
    inter = _intersection(c.generators() for c in comps)
    if set(inter) != set(gens):
        raise InternalConsistencyError(
            "irreducible decomposition does not intersect back to the input")
    # the components are irredundant, so is their grouping by radical: were
    # one group redundant, each of its components would be
    groups = {}
    for c in comps:
        groups.setdefault(c.radical_support(), []).append(c)
    primary = []
    for supp in sorted(groups, key=sorted):
        gens_p = _intersection(c.generators() for c in groups[supp])
        primary.append((supp, gens_p))
    associated = [supp for supp, _ in primary]
    minimal = [p for p in associated
               if not any(q < p for q in associated)]
    return MonomialDecomposition(I.ring, comps, primary, associated, minimal)


def associated_primes(I):
    return list(decompose(I).associated_primes)


def embedded_primes(I):
    return list(decompose(I).embedded_primes)


def m_leq_monomial(I, i):
    """The ideal J_i with (S/I)_{<=i} = J_i/I: intersection of the primary
    components of dimension > i (the whole ring when there are none)."""
    _require_monomial(I)
    ring = I.ring
    n = ring.nvars
    dec = decompose(I)
    keep = [(supp, gens) for supp, gens in dec.primary if n - len(supp) > i]
    if not keep:
        return IdealHandle(ring, [ring.one()], **_caps(I))
    inter = _intersection(g for _, g in keep)
    return IdealHandle(ring, [ring.monomial(m) for m in inter], **_caps(I))


def local_length_by_pairs(I, support):
    """Length of H^0_p((S/I)_p) for the monomial prime on the given support:
    the number of standard pairs whose free variables are the complement."""
    pairs = standard_pairs(I)
    free = frozenset(range(I.ring.nvars)) - frozenset(support)
    return sum(1 for p in pairs if frozenset(p.variables) == free)
