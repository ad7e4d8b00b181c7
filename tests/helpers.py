"""Test-only helpers shared by several test modules."""

import itertools
from functools import reduce

from arithdeg.adeg import gmult
from arithdeg.errors import InternalConsistencyError, WrongOracleError
from arithdeg.groebner import IdealHandle
from arithdeg.hilbert import as_presentation, hilbert_value
from arithdeg.monomials import minimal_generators
from arithdeg.rings import minimal_monomials, mono_lcm


def h11_table(M, hi1, hi2):
    """Double cumulative sums of the bigraded Hilbert function up to (hi1, hi2).

    Sums start at the lowest possible support, so shifted modules (Ext
    duals) are handled; for modules supported in non-negative bidegrees
    this is the double sum transform from the origin.
    """
    pres = as_presentation(M)
    lo1 = min([0] + [s[0] for s in pres.shifts])
    lo2 = min([0] + [s[1] for s in pres.shifts])
    table = {}
    for i in range(lo1, hi1 + 1):
        for j in range(lo2, hi2 + 1):
            table[(i, j)] = (hilbert_value(pres, (i, j)) + table.get((i - 1, j), 0)
                             + table.get((i, j - 1), 0) - table.get((i - 1, j - 1), 0))
    return table


def monomial_dimension(leads, nvars):
    """dim S/(leads) for exponent tuples leads, by walking every variable
    subset: the largest Z that contains no generator's support, and -1 for
    the unit ideal."""
    if any(not any(m) for m in leads):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    # the empty set contains no support once the unit ideal is ruled out,
    # so size 0 always returns
    for size in range(nvars, -1, -1):
        for Z in itertools.combinations(range(nvars), size):
            if not any(s <= set(Z) for s in supports):
                return size


def reference_dimension(M):
    """Krull dimension of coker(M), the largest monomial_dimension over the
    components' initial leads: the reference for hilbert.dimension, which
    reads it off the Hilbert numerator.  The zero module reports -1."""
    pres = as_presentation(M)
    return max((monomial_dimension(mons, pres.ring.nvars)
                for mons in pres.initial_leads()), default=-1)


def is_zero_module(pres):
    """True when the relations span every generator (cokernel = 0)."""
    if pres.rank == 0:
        return True
    return all(any(not any(m) for m in comp) for comp in pres.initial_leads())


def full_ring_prime_gmult(J, I, supp, i):
    """ee_i of GG(S/p) w.r.t. I for p = (x_k : k in supp), built in J's own
    ring S: the reference for ladeg's build over the coordinate ring."""
    ring = J.ring
    return gmult(IdealHandle(ring, [ring.gen(k) for k in sorted(supp)]), I, i)


def update_pairs_reference(P, members, leads, sugar, n, order, ops, deg):
    """Gebauer-Moeller update on term tuples: the reference for
    groebner._update_pairs, which runs it on packed exponent fields.  The
    pairs of P are records (sugar, lcm key, i, j, lcm, ...); new pairs get
    the first five, and only entry 4 of an old record is read.  Divisibility
    is ops.div, and the candidate lcms are sorted by their key in the
    order."""
    t = leads[n][0]
    comp = ops.comp(t)
    same = members.setdefault(comp, [])
    lcm_t = {i: ops.lcm(leads[i][0], t) for i in same}
    pairs = {ij: rec for ij, rec in P.get(comp, {}).items()
             if ops.div(rec[4], t) is None
             or rec[4] in (lcm_t[ij[0]], lcm_t[ij[1]])}
    groups = {}
    for i, lcm in lcm_t.items():
        groups.setdefault(lcm, []).append(i)
    minimal = []
    for key, lcm in sorted((order.key(lcm), lcm) for lcm in groups):
        if any(ops.div(lcm, m) is not None for m in minimal):
            continue
        minimal.append(lcm)
        group = groups[lcm]
        if ops.product_criterion and any(
                ops.mul(leads[i][0], t) == lcm for i in group):
            continue
        i = group[0]
        pairs[(i, n)] = (max(sugar[i] + deg(ops.div(lcm, leads[i][0])),
                             sugar[n] + deg(ops.div(lcm, t))), key, i, n, lcm)
    same.append(n)
    if pairs:
        P[comp] = pairs
    else:
        P.pop(comp, None)


# ---------------------------------------------------------------------------
# irreducible decomposition: the reference for monomials.decompose and
# monomials.m_leq_monomial, which read the same facts off standard pairs

def monomial_intersection(gens_a, gens_b):
    """Minimal generators of the intersection of two monomial ideals."""
    return minimal_monomials({mono_lcm(a, b) for a in gens_a for b in gens_b})


def intersection(gen_lists):
    """Generators of the intersection of one or more monomial ideals, each
    given by its generators."""
    return reduce(monomial_intersection, gen_lists)


class IrreducibleComponent:
    """Component generated by pure powers x_i^{b_i} over its bounded set."""

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

    def contains(self, m):
        return any(m[i] >= b for i, b in self.bounds.items())

    def key(self):
        return tuple(sorted(self.bounds.items()))

    def __eq__(self, other):
        return isinstance(other, IrreducibleComponent) and self.bounds == other.bounds

    def __hash__(self):
        return hash(self.key())


def irreducible_decomposition(gens, nvars):
    """Irredundant irreducible components by the splitting recursion:
    a generator m1*m2 with coprime parts splits I into (I+m1) cap (I+m2)."""
    gens = minimal_monomials(gens)
    mixed = next((g for g in gens if sum(1 for e in g if e) > 1), None)
    if mixed is None:
        # every generator is a pure power, one per variable after minimalizing
        return [IrreducibleComponent(
            {next(k for k, e in enumerate(g) if e): max(g) for g in gens},
            nvars)]
    i = next(k for k, e in enumerate(mixed) if e)
    a = tuple(e if k == i else 0 for k, e in enumerate(mixed))
    b = tuple(0 if k == i else e for k, e in enumerate(mixed))
    rest = tuple(h for h in gens if h != mixed)
    comps = set(irreducible_decomposition(rest + (a,), nvars))
    comps.update(irreducible_decomposition(rest + (b,), nvars))
    return _irredundant(sorted(comps, key=IrreducibleComponent.key))


def _irredundant(components):
    kept = list(components)
    changed = True
    while changed:
        changed = False
        for k in range(len(kept)):
            others = kept[:k] + kept[k + 1:]
            if not others:
                continue
            inter = intersection(c.generators() for c in others)
            if all(kept[k].contains(m) for m in inter):
                kept.pop(k)
                changed = True
                break
    return kept


class ReferenceDecomposition:
    """Irreducible components of a proper monomial ideal, their grouping
    by radical into primary components, and the prime data.  The
    components must intersect back to the ideal."""

    def __init__(self, I):
        gens = minimal_generators(I)
        n = self.nvars = I.ring.nvars
        if any(not any(g) for g in gens):
            raise WrongOracleError("cannot decompose the unit ideal")
        if not gens:
            # the zero ideal is prime with empty support
            self.components = [IrreducibleComponent({}, n)]
            self.primary = [(frozenset(), ())]
        else:
            self.components = irreducible_decomposition(gens, n)
            inter = intersection(c.generators() for c in self.components)
            if set(inter) != set(gens):
                raise InternalConsistencyError(
                    "irreducible decomposition does not intersect back to "
                    "the input")
            # the components are irredundant, so is their grouping by
            # radical: were one group redundant, each of its components
            # would be
            groups = {}
            for c in self.components:
                groups.setdefault(frozenset(c.bounds), []).append(c)
            self.primary = [
                (supp, intersection(c.generators() for c in groups[supp]))
                for supp in sorted(groups, key=sorted)]
        self.associated_primes = tuple(supp for supp, _ in self.primary)
        self.minimal_primes = tuple(
            p for p in self.associated_primes
            if not any(q < p for q in self.associated_primes))
        self.embedded_primes = tuple(p for p in self.associated_primes
                                     if p not in self.minimal_primes)

    def m_leq(self, i):
        """Minimal generators of J_i, the intersection of the primary
        components of dimension > i: the unit ideal when there are none."""
        n = self.nvars
        keep = [gens for supp, gens in self.primary if n - len(supp) > i]
        return set(intersection(keep)) if keep else {(0,) * n}
