"""Combinatorial oracle for monomial ideals: standard pairs, and off them
the arithmetic degrees, the local lengths and the associated primes.

The pairs (u, Z) of a proper monomial ideal I hold everything here: adeg_i
of S/I counts the pairs with |Z| = i, the associated primes are the
P_Z = (x_k : k not in Z), and the length of H^0 at P_Z counts the pairs on
Z (Sturmfels, Trung and Vogel, Math. Ann. 301 (1995), section 3).  Everything
works on raw exponent vectors, independent of the Groebner pipeline, so it
can serve as ground truth for the Ext-route arithmetic degrees.
"""

import itertools

from .errors import AlgebraError, WrongOracleError
from .groebner import IdealHandle
from .rings import minimal_monomials


def _require_monomial(I):
    if not isinstance(I, IdealHandle):
        raise AlgebraError("expected an ideal handle")
    if not I.is_monomial():
        raise WrongOracleError("the combinatorial oracle needs a monomial ideal")


def minimal_generators(I):
    """Exponent vectors of the minimal monomial generators."""
    _require_monomial(I)
    return minimal_monomials(next(iter(g.terms)) for g in I.gens)


# ---------------------------------------------------------------------------
# standard pairs

class StandardPair:
    """A monomial u and variable set Z with u*k[Z] inside the standard
    monomials, maximal among such cells."""

    __slots__ = ("monomial", "variables")

    def __init__(self, monomial, variables):
        self.monomial = tuple(monomial)
        self.variables = tuple(sorted(variables))

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
    return list(_pairs(I))


def _pairs(I):
    """The pair tuple kept on the handle, read without a copy."""
    _require_monomial(I)
    return I._cached("standard_pairs", lambda: _standard_pairs(I))


def _standard_pairs(I):
    gens = minimal_generators(I)
    n = I.ring.nvars
    if any(not any(g) for g in gens):
        raise WrongOracleError("standard pairs of the unit ideal are undefined")
    bounds = [max((g[i] for g in gens), default=0) for i in range(n)]
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
# associated primes

class MonomialDecomposition:
    """The associated primes of S/I, each the frozenset of the indices of
    its variables, split into the minimal and the embedded ones."""

    def __init__(self, associated):
        self.associated_primes = tuple(associated)
        self.minimal_primes = tuple(p for p in associated
                                    if not any(q < p for q in associated))
        self.embedded_primes = tuple(p for p in associated
                                     if p not in self.minimal_primes)

    def __repr__(self):
        return ("MonomialDecomposition(primes=%r)"
                % sorted(map(sorted, self.associated_primes)))


def decompose(I):
    """The associated primes of S/I for a proper monomial ideal I, read off
    its standard pairs: P_Z = (x_k : k not in Z) over the pairs (u, Z).
    Computed once per handle and kept in its cache."""
    _require_monomial(I)
    return I._cached("decompose", lambda: _decompose(I))


def _decompose(I):
    everything = frozenset(range(I.ring.nvars))
    return MonomialDecomposition(sorted(
        {everything - set(p.variables) for p in _pairs(I)}, key=sorted))


def local_length_by_pairs(I, support):
    """Length of H^0_p((S/I)_p) for the monomial prime on the given support:
    the number of standard pairs whose free variables are the complement."""
    pairs = standard_pairs(I)
    free = frozenset(range(I.ring.nvars)) - frozenset(support)
    return sum(1 for p in pairs if frozenset(p.variables) == free)
