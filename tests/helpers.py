"""Test-only helpers shared by several test modules."""

import itertools
from functools import reduce
from operator import mul, neg

from arithdeg.adeg import gmult
from arithdeg.constructions import relative_length
from arithdeg.errors import (AlgebraError, InternalConsistencyError,
                             ResourceLimitError, RingMismatchError,
                             WrongOracleError)
from arithdeg.groebner import (IdealHandle, _caps, eliminate, extended_ring,
                               fresh_names, ideal_power, ideal_product,
                               ideal_sum, inject, maximal_ideal, project)
from arithdeg.hilbert import (WINDOW, _rank, artinian_length, as_presentation,
                              hilbert_value, monomial_numerator,
                              monomials_of_degree, series_length)
from arithdeg.monomials import minimal_generators
from arithdeg.numerical import NumericalPoly1, StabilizationCertificate, binom
from arithdeg.orders import TermOrder
from arithdeg.rings import (minimal_monomials, mono_divides, mono_lcm,
                            mono_mul)


class WeightedDegRevLex(TermOrder):
    """Degrevlex refined from a positive integer weight vector: a matrix
    order the engine tests run on beside the product's own orders."""

    def __init__(self, weights):
        weights = tuple(int(w) for w in weights)
        if not weights or any(w <= 0 for w in weights):
            raise ValueError("weights must be positive integers")
        self.weights = weights

    def key(self, m):
        w = sum(map(mul, self.weights, m))
        return (w, sum(m), tuple(map(neg, reversed(m))))

    def signature(self):
        return ("wdegrevlex", self.weights)


# ---------------------------------------------------------------------------
# ideal operations by elimination: intersection and saturation

def intersect(I, J):
    """I cap J via the t*I + (1-t)*J elimination construction.

    Monomial inputs take the pairwise-lcm shortcut, and containment is
    checked first (both keep the elimination off the hot paths).
    """
    if I.ring != J.ring:
        raise RingMismatchError("intersecting ideals over different rings")
    ring, caps = I.ring, _caps(I, J)
    if I.is_monomial() and J.is_monomial():
        lcms = {mono_lcm(next(iter(f.terms)), next(iter(g.terms)))
                for f in I.gens for g in J.gens}
        return IdealHandle(ring, [ring.monomial(m) for m in lcms], **caps)
    for big, small in ((I, J), (J, I)):
        if big.contains_ideal(small):
            if _caps(small) == caps:
                return small
            return IdealHandle(ring, small.gens, **caps)
    big = extended_ring(ring, fresh_names(ring, "t_", 1))
    t = big.gen(big.nvars - 1)
    one = big.one()
    gens = [t * inject(f, big) for f in I.gens]
    gens += [(one - t) * inject(g, big) for g in J.gens]
    H = IdealHandle(big, gens, **caps)
    E = eliminate(H, [big.nvars - 1])
    return IdealHandle(ring, [project(g, ring) for g in E.gens], **caps)


def saturate(I, f):
    """(I : f^infinity) by the Rabinowitsch trick."""
    if not f:
        raise AlgebraError("saturation by zero")
    if f.is_constant():
        return I
    ring = I.ring
    big = extended_ring(ring, fresh_names(ring, "u_", 1))
    u = big.gen(big.nvars - 1)
    gens = [inject(g, big) for g in I.gens]
    gens.append(big.one() - u * inject(f, big))
    H = IdealHandle(big, gens, **_caps(I))
    E = eliminate(H, [big.nvars - 1])
    return IdealHandle(ring, [project(g, ring) for g in E.gens], **_caps(I))


# ---------------------------------------------------------------------------
# the GG double sum by direct lengths: the reference for criterion 8

def bifiltration_length(J, I, i, j):
    """Length of S/(J + m^(i+1) + I^(j+1)): the first summand of the double
    sum transform of GG."""
    mring = maximal_ideal(J.ring, J, I)
    total = ideal_sum(J, ideal_power(mring, i + 1), ideal_power(I, j + 1))
    return artinian_length(total)


def h11_direct(J, I, i, j):
    """The double sum transform of the GG Hilbert function, evaluated by
    direct length computations:
    l(M/(m^(i+1)+I^(j+1))M) plus, for k <= j, the correction
    l((I^k cap (m^(i+1)+I^(k+1)))/(m^(i+1) I^k + I^(k+1))) around J."""
    ring, caps = J.ring, _caps(J, I)
    mring = maximal_ideal(ring, J, I)
    total = bifiltration_length(J, I, i, j)
    mi1 = ideal_power(mring, i + 1)
    ik = IdealHandle(ring, [ring.one()], **caps)    # I^k
    for k in range(j + 1):
        ik1 = ideal_product(ik, I)
        upper = intersect(ideal_sum(ik, J), ideal_sum(mi1, ik1, J))
        lower = ideal_sum(ideal_product(mi1, ik), ik1, J)
        total += relative_length(upper, lower)
        ik = ik1
    return total


# ---------------------------------------------------------------------------
# Hilbert-Samuel by truncated linear algebra (no Groebner bases): the
# reference for adeg's tangent-cone route on inhomogeneous primes

SAMUEL_MAX_K = 24


def interpolate_poly1(values, base):
    """Numerical polynomial through values given at base, base+1, ...

    Newton forward differences at the base point, converted back to the
    centered binomial basis; exact over the integers.
    """
    diffs = list(values)
    newton = [diffs[0]]
    for _ in range(len(values) - 1):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        newton.append(diffs[0])
    out = {}
    for i, c in enumerate(newton):
        if c == 0:
            continue
        # C(m - base, i) = sum_l C(-base, i - l) C(m, l)
        for l in range(i + 1):
            w = binom(-base, i - l)
            if w:
                out[l] = out.get(l, 0) + c * w
    size = max(out) + 1 if out else 0
    return NumericalPoly1([out.get(i, 0) for i in range(size)])


def hilbert_samuel(M, k):
    """Length of coker(M)/m^{k+1} coker(M) by exact rank computation.

    Works for inhomogeneous relations, such as the plane-curve germs of
    the corpus.
    """
    pres = as_presentation(M)
    ring = pres.ring
    basis = []
    for c in range(pres.rank):
        for d in range(k + 1):
            for m in monomials_of_degree(ring.nvars, d):
                basis.append((c, m))
    index = {t: i for i, t in enumerate(basis)}
    rows = []
    for col in pres.columns:
        low = min(sum(m) for (_, m) in col.terms)    # m-adic order
        for d in range(k + 1 - low):
            for alpha in monomials_of_degree(ring.nvars, d):
                row = [ring.field.zero] * len(basis)
                nonzero = False
                for (c, m), v in col.terms.items():
                    mm = tuple(a + b for a, b in zip(alpha, m))
                    t = (c, mm)
                    if t in index:
                        row[index[t]] = row[index[t]] + v
                        nonzero = True
                if nonzero and any(row):
                    rows.append(row)
    return len(basis) - _rank(rows, ring.field)


def samuel_multiplicity(M):
    """Samuel multiplicity at the origin: stabilized top coefficient of
    k -> length(M/m^{k+1}M), with an interpolation certificate."""
    pres = as_presentation(M)
    n = pres.ring.nvars
    values = {}

    def val(k):
        if k not in values:
            values[k] = hilbert_samuel(pres, k)
        return values[k]

    for start in range(0, SAMUEL_MAX_K):
        width = n + 1 + WINDOW
        if start + width > SAMUEL_MAX_K + 1:
            break
        pts = list(range(start, start + width))
        poly = interpolate_poly1([val(p) for p in pts[:n + 1]], start)
        if all(poly(p) == val(p) for p in pts):
            cert = StabilizationCertificate((start,), WINDOW, pts)
            return poly.coefficient(poly.degree), poly.degree, cert
    raise ResourceLimitError("Hilbert-Samuel function did not stabilize by k=%d"
                             % SAMUEL_MAX_K)


# ---------------------------------------------------------------------------
# tables, dimensions and engine references


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


def reference_monomial_cell_lengths(J, I, rect):
    """The GG gate's cell lengths for monomial J and I, each read off the
    staircase numerators of the cell's upper and lower ideals: the
    reference for constructions.monomial_cell_lengths, which counts them.

    Each row j walks the chain m^i*I^j on top of base = J + I^(j+1), on
    sorted minimal tuples of exponent tuples; the chain keeps only the
    generators of the lower ideal that are not base's, since m times the
    others lies in base.  Each lower ideal is checked to lie inside its
    upper one by divisibility, which for monomial ideals is membership.
    """
    ring = J.ring

    def tuples(H):
        return tuple(next(iter(g.terms)) for g in H.gens)

    def times(A, B):
        return minimal_monomials([mono_mul(a, b) for a in A for b in B])

    def plus(A, B):
        return minimal_monomials(A + B)

    def trim(lower, base):
        kept = set(base)
        return tuple(g for g in lower if g not in kept)

    n = ring.nvars
    units = tuple(tuple(int(k == v) for k in range(n)) for v in range(n))
    power = (ring.zero_mono(),)                     # I^j
    for j in range(rect[1] + 1):
        next_power = times(power, tuples(I))        # I^(j+1)
        base = plus(tuples(J), next_power)
        chain = power                               # m^i * I^j
        upper = plus(chain, base)
        for i in range(rect[0] + 1):
            chain = times(units, chain)
            lower = plus(chain, base)
            chain = trim(lower, base)
            kept = set(upper)
            if not all(g in kept or any(mono_divides(u, g) for u in upper)
                       for g in lower):
                raise AlgebraError("relative length needs V inside U")
            num = dict(monomial_numerator(ring, lower))
            for d, c in monomial_numerator(ring, upper).items():
                num[d] = num.get(d, 0) - c
            yield (i, j), series_length(num, ring.nvars)
            upper = lower
        power = next_power


# ---------------------------------------------------------------------------
# standard pairs and irreducible decomposition: the references for
# monomials.standard_pairs and monomials.decompose

def covers(pair, m):
    """Is the exponent vector m inside the standard pair's cell u*k[Z]?"""
    zs = set(pair.variables)
    for i, (u, e) in enumerate(zip(pair.monomial, m)):
        if i in zs:
            if e < u:
                return False
        elif e != u:
            return False
    return True


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
        n = I.ring.nvars
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
