"""Test-only helpers shared by several test modules."""

import itertools

from arithdeg.adeg import gmult
from arithdeg.groebner import IdealHandle
from arithdeg.hilbert import as_presentation, hilbert_value


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
