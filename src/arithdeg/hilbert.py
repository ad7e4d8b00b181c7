"""Graded and bigraded Hilbert functions, dimensions, and multiplicities.

The staircase route: reduce to the initial module (per-component monomial
ideals), compute the Hilbert-series numerator by the pivot recursion
0 -> S/(I:p) -> S/I -> S/(I+p) -> 0, and convolve against the count of all
monomials.  The brute-force oracle (exact linear algebra over the
coefficient field, never touching initial terms) lives here too, so the two
routes can be compared: on acceptance criterion 2's thirty ideals and in
the series step of ``arithdeg check``.

Numerators are memoised on the ring that grades them (``ring.memo``), since
the grading fixes the degree of every generator, and per presentation; the
module keeps no tables of its own, so a count never depends on what ran
before it.  Dimensions, lengths and multiplicities are read off the
numerators: the dimension is the order of the series' pole at t = 1 and
the h-vector is what is left once that power of 1 - t is divided out, a
finite length is the value at t = 1 of the series, and each eventual
polynomial is the binomial expansion of the numerator's terms.
"""

import itertools

from .errors import (AlgebraError, InternalConsistencyError, NotBigradedError,
                     ResourceLimitError)
from .groebner import IdealHandle
from .modules import ModulePresentation
from .numerical import (MultiplicityVector, NumericalPoly1, NumericalPoly2,
                        StabilizationCertificate, binom)
from .rings import deg_add, minimal_monomials, mono_divides

DEGREE_CAP = 60
WINDOW = 3


def as_presentation(obj):
    """View an ideal as the cyclic module S/I; presentations pass through."""
    if isinstance(obj, ModulePresentation):
        return obj
    if isinstance(obj, IdealHandle):
        return obj._cached("pres", lambda: ModulePresentation.from_ideal(obj))
    raise AlgebraError("expected an ideal or module presentation, got %r" % (obj,))


# ---------------------------------------------------------------------------
# counting all monomials

def count_monomials(nvars, d):
    """Number of exponent vectors in nvars variables of total degree d."""
    if d < 0:
        return 0
    return binom(d + nvars - 1, nvars - 1)


def monomials_of_degree(nvars, d):
    """All exponent tuples of total degree d, lex order."""
    if nvars == 0:
        if d == 0:
            yield ()
        return
    for e in range(d + 1):
        for rest in monomials_of_degree(nvars - 1, d - e):
            yield (e,) + rest


def monomials_of_bidegree(ring, i, j):
    """All exponent tuples of bidegree (i, j) in a bigraded ring."""
    if i < 0 or j < 0:
        return
    nx, ny = len(ring.x_block), len(ring.y_block)
    for ex in monomials_of_degree(nx, i):
        for ey in monomials_of_degree(ny, j):
            m = [0] * ring.nvars
            for idx, e in zip(ring.x_block, ex):
                m[idx] = e
            for idx, e in zip(ring.y_block, ey):
                m[idx] = e
            yield tuple(m)


# ---------------------------------------------------------------------------
# Hilbert numerators for monomial ideals

def _supports_coprime(gens):
    seen = set()
    for g in gens:
        supp = {i for i, e in enumerate(g) if e}
        if supp & seen:
            return False
        seen |= supp
    return True


def _numerator(gens, degfun, zero_deg, memo):
    """Hilbert-series numerator of S/(gens) as a map degree -> coefficient,
    for a sorted minimal antichain gens.

    memo maps such antichains to numerators under this degfun.
    """
    got = memo.get(gens)
    if got is not None:
        return got
    if any(not any(m) for m in gens):
        result = {}
    elif _supports_coprime(gens):
        result = {zero_deg: 1}
        for g in gens:
            dg = degfun(g)
            nxt = {}
            for d, c in result.items():
                nxt[d] = nxt.get(d, 0) + c
                shifted = deg_add(d, dg)
                nxt[shifted] = nxt.get(shifted, 0) - c
            result = {d: c for d, c in nxt.items() if c}
    else:
        counts = {}
        for g in gens:
            for i, e in enumerate(g):
                if e:
                    counts[i] = counts.get(i, 0) + 1
        pivot = max(counts, key=lambda i: (counts[i], -i))
        xv = tuple(1 if i == pivot else 0 for i in range(len(gens[0])))
        # the generators free of the pivot and x_pivot: still an antichain
        plus = tuple(sorted([g for g in gens if g[pivot] == 0] + [xv]))
        colon = minimal_monomials(
            [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(g))
             for g in gens])
        na = _numerator(plus, degfun, zero_deg, memo)
        nb = _numerator(colon, degfun, zero_deg, memo)
        dx = degfun(xv)
        result = dict(na)
        for d, c in nb.items():
            shifted = deg_add(d, dx)
            result[shifted] = result.get(shifted, 0) + c
        result = {d: c for d, c in result.items() if c}
    memo[gens] = result
    return result


def monomial_numerator(ring, monos, bigraded=False):
    """Numerator of the Hilbert series of S/(monos) over prod(1 - t^deg x),
    for exponent tuples monos over ring, as a map degree -> coefficient; the
    map is the memo's own, so callers must not change it.  The generators
    are minimised once, here.  The ring fixes the degree of every generator,
    so its memo is shared by every ideal and module over it."""
    degfun, zero = (ring.bidegree, (0, 0)) if bigraded else (ring.degree, 0)
    memo = ring.memo.setdefault(("numerators", bigraded), {})
    return _numerator(minimal_monomials(monos), degfun, zero, memo)


def hilbert_numerator(M, bigraded=False):
    """Numerator of the Hilbert series of coker(M) over prod(1 - t^deg x),
    as a map degree -> coefficient: each component's staircase numerator
    (monomial_numerator of its initial leads) moved by its shift.  Over a
    bigraded ring the total degree of a bidegree (a, b) is a + b, so the
    total numerator collapses the bigraded one and shares its memo.
    Inhomogeneous relations give the series of the initial module, which
    has the same length (Macaulay)."""
    pres = as_presentation(M)
    ring = pres.ring

    def build():
        out = {}
        over = bigraded or ring.is_bigraded
        for shift, mons in zip(pres.shifts, pres.initial_leads()):
            if isinstance(shift, tuple) and not bigraded:
                shift = sum(shift)      # total degree over a bigraded ring
            for d, c in monomial_numerator(ring, mons, over).items():
                d = deg_add(sum(d) if over and not bigraded else d, shift)
                out[d] = out.get(d, 0) + c
        return {d: c for d, c in out.items() if c}
    return pres._cached(("numerator", bigraded), build)


def _divide_out(q):
    """q / (1 - t) for a polynomial q (degree -> coefficient), or None
    when the division leaves a remainder."""
    out = {}
    if q:
        top = max(q)
        for d in range(min(q), top + 1):
            c = q.get(d, 0) + out.get(d - 1, 0)
            if c:
                if d == top:
                    return None
                out[d] = c
    return out


def series_length(num, nvars):
    """Value at t = 1 of num / (1 - t)^nvars: the length of a module with
    that Hilbert series.  AlgebraError when the series is not a polynomial,
    that is when the length is infinite."""
    for _ in range(nvars):
        num = _divide_out(num)
        if num is None:
            raise AlgebraError("module has positive dimension, length is infinite")
    return sum(num.values())


def _check_grading(pres, bigraded):
    key = ("homog", bigraded)

    def build():
        if bigraded and not pres.ring.is_bigraded:
            raise NotBigradedError("bigraded Hilbert data over a graded ring")
        pres.column_degrees()   # HomogeneityError on failure
        return True
    return pres._cached(key, build)


def hilbert_value(M, at):
    """Exact dimension of the graded piece (integer at) or bigraded piece
    (pair at) of coker(M), by standard-monomial counting."""
    pres = as_presentation(M)
    bigraded = isinstance(at, tuple)
    _check_grading(pres, bigraded)
    num = hilbert_numerator(pres, bigraded)
    ring = pres.ring
    if bigraded:
        i, j = at
        nx, ny = len(ring.x_block), len(ring.y_block)
        return sum(c * binom(i - a + nx - 1, nx - 1) * binom(j - b + ny - 1, ny - 1)
                   for (a, b), c in num.items() if a <= i and b <= j)
    return sum(c * count_monomials(ring.nvars, at - a) for a, c in num.items())


def hilbert_value_bruteforce(M, at):
    """Same number by direct enumeration, never via initial terms.

    Monomial relations: enumerate the degree piece and test divisibility
    against the raw generators.  Polynomial relations: span the degree
    piece of the relation submodule by exact linear algebra.
    """
    pres = as_presentation(M)
    bigraded = isinstance(at, tuple)
    _check_grading(pres, bigraded)
    ring = pres.ring
    cols = pres.columns
    if all(len(c.terms) == 1 for c in cols):
        per_comp = [[] for _ in range(pres.rank)]
        for c in cols:
            ((comp, mono),) = c.terms.keys()
            per_comp[comp].append(mono)
        total = 0
        for comp in range(pres.rank):
            shift = pres.shifts[comp]
            if bigraded:
                it = monomials_of_bidegree(ring, at[0] - shift[0], at[1] - shift[1])
            else:
                d = at - shift
                if d < 0:
                    continue
                it = monomials_of_degree(ring.nvars, d)
            for m in it:
                if not any(mono_divides(g, m) for g in per_comp[comp]):
                    total += 1
        return total
    basis = []
    for c in range(pres.rank):
        shift = pres.shifts[c]
        if bigraded:
            i, j = at[0] - shift[0], at[1] - shift[1]
            for m in monomials_of_bidegree(ring, i, j):
                basis.append((c, m))
        else:
            d = at - shift
            if d >= 0:
                for m in monomials_of_degree(ring.nvars, d):
                    basis.append((c, m))
    index = {t: k for k, t in enumerate(basis)}
    rows = []
    col_degs = pres.column_degrees()
    for col, dg in zip(pres.columns, col_degs):
        if bigraded:
            i, j = at[0] - dg[0], at[1] - dg[1]
            mults = monomials_of_bidegree(ring, i, j)
        else:
            d = at - dg
            if d < 0:
                continue
            mults = monomials_of_degree(ring.nvars, d)
        for alpha in mults:
            row = [ring.field.zero] * len(basis)
            ok = True
            for (c, m), v in col.terms.items():
                t = (c, tuple(a + b for a, b in zip(alpha, m)))
                if t not in index:
                    ok = False
                    break
                row[index[t]] = row[index[t]] + v
            if ok and any(row):
                rows.append(row)
    return len(basis) - _rank(rows, ring.field)


def _rank(rows, field):
    if not rows:
        return 0
    rows = [list(r) for r in rows]
    ncols = len(rows[0])
    rank = 0
    pivot_row = 0
    for col in range(ncols):
        found = None
        for r in range(pivot_row, len(rows)):
            if rows[r][col]:
                found = r
                break
        if found is None:
            continue
        rows[pivot_row], rows[found] = rows[found], rows[pivot_row]
        pv = rows[pivot_row][col]
        for r in range(len(rows)):
            if r != pivot_row and rows[r][col]:
                factor = rows[r][col] / pv
                rows[r] = [a - factor * b for a, b in zip(rows[r], rows[pivot_row])]
        pivot_row += 1
        rank += 1
        if pivot_row == len(rows):
            break
    return rank


# ---------------------------------------------------------------------------
# dimension

def _pole(pres):
    """(k, h) with hilbert_numerator(pres) = (1 - t)^k * h and h(1) != 0;
    h is empty for the zero module.  Each component's series has a positive
    leading coefficient at its own pole at t = 1, so the pole order n - k
    is the largest component dimension: the Krull dimension
    (Hilbert-Serre; Bruns and Herzog, Cohen-Macaulay Rings, 4.1)."""
    def build():
        k, h = 0, hilbert_numerator(pres)
        while h:
            q = _divide_out(h)
            if q is None:
                break
            k, h = k + 1, q
        return k, h
    return pres._cached(("pole",), build)


def dimension(M):
    """Krull dimension of coker(M) (of S/I for an ideal), read off the pole
    of its Hilbert series at t = 1.

    The zero module reports -1.
    """
    pres = as_presentation(M)
    k, h = _pole(pres)
    return pres.ring.nvars - k if h else -1


# ---------------------------------------------------------------------------
# eventual polynomials, read off the numerators

def _eventual(pres, bigraded, sums):
    """Polynomial that the Hilbert function, summed `sums` times along each
    axis, equals in high degrees.

    Over (1 - t)^n a term c*t^a contributes c*C(k - a + n - 1, n - 1), and
    Vandermonde expands that as sum_l c*C(n - 1 - a, n - 1 - l)*C(k, l); a
    bigraded term is the product of one such factor per axis.
    """
    _check_grading(pres, bigraded)
    num = hilbert_numerator(pres, bigraded)
    ring = pres.ring
    if bigraded:
        nx = len(ring.x_block) - 1 + sums
        ny = len(ring.y_block) - 1 + sums
        out = {}
        for (a, b), c in num.items():
            col = [binom(ny - b, ny - r) for r in range(ny + 1)]
            for l in range(nx + 1):
                cl = c * binom(nx - a, nx - l)
                for r, cr in enumerate(col):
                    out[(l, r)] = out.get((l, r), 0) + cl * cr
        return NumericalPoly2(out)
    n = ring.nvars - 1 + sums
    return NumericalPoly1([sum(c * binom(n - a, n - l) for a, c in num.items())
                           for l in range(n + 1)])


def _start_threshold(pres):
    degs = [0]
    for col in pres.columns:
        for (_, m) in col.terms:
            degs.append(pres.ring.degree(m))
    return max(degs) + pres.ring.nvars + 2


def hilbert_polynomial(M, bigraded=False):
    """Eventual polynomial of the Hilbert function, with the window where
    the counted values are checked against it: the window starts at the
    first doubling of a start degree where they all agree."""
    pres = as_presentation(M)
    poly = _eventual(pres, bigraded, 0)
    d = dimension(pres)
    size = (max(d, 1) if bigraded else max(d - 1, 0)) + 1 + WINDOW
    D = _start_threshold(pres)
    while D <= DEGREE_CAP:
        line = [D + u for u in range(size)]
        if bigraded:
            points = list(itertools.product(line, line))
            ok = all(poly(i, j) == hilbert_value(pres, (i, j)) for i, j in points)
        else:
            points = line
            ok = all(poly(k) == hilbert_value(pres, k) for k in points)
        if ok:
            thresholds = (D, D) if bigraded else (D,)
            return poly, StabilizationCertificate(thresholds, WINDOW, points)
        D *= 2
    raise ResourceLimitError("Hilbert function did not stabilize below degree %d"
                             % DEGREE_CAP)


def h11_polynomial(M):
    """Eventual polynomial of the double sum transform."""
    return _eventual(as_presentation(M), True, 1)


def cumulative_polynomial(M):
    """Eventual polynomial of k -> sum_{u<=k} h(u): the graded Hilbert-Samuel
    transform.  Its top coefficient at index dim is the multiplicity."""
    return _eventual(as_presentation(M), False, 1)


# ---------------------------------------------------------------------------
# multiplicities

def ee_vector(M, q):
    """Multiplicity vector at level q: top binomial coefficients of the
    double sum transform when dim M = q, the zero vector otherwise.  The
    dimension, the pole order of the numerator with (a, b) collapsed to
    a + b, must be the total degree that _eventual expands from it."""
    pres = as_presentation(M)
    d = dimension(pres)
    if d != q:
        return MultiplicityVector.zero(q)
    poly = h11_polynomial(pres)
    if poly.total_degree != d:
        raise InternalConsistencyError(
            "pole order gives dimension %d but sum-transform degree %d"
            % (d, poly.total_degree))
    return MultiplicityVector(q, poly.top_coefficients(q))


def classical_multiplicity(M, i):
    """e_i: the multiplicity when i = dim M, else 0.  Realized as the top
    coefficient of the Hilbert-Samuel transform, which also covers finite
    length (where it degenerates to the length).  The dimension, the pole
    order of the numerator, must be the degree that _eventual expands from
    the same numerator."""
    pres = as_presentation(M)
    d = dimension(pres)
    if i != d or d < 0:
        return 0
    poly = cumulative_polynomial(pres)
    if poly.degree != d:
        raise InternalConsistencyError(
            "pole order gives dimension %d but Samuel-transform degree %d"
            % (d, poly.degree))
    return poly.coefficient(d)


def h_vector(M):
    """Numerator of the Hilbert series of coker(M) over (1 - t)^dim, as a
    map degree -> coefficient.  It is the Hilbert series of M/zM for a
    linear regular sequence z, so no entry is negative when M is
    Cohen-Macaulay."""
    return _pole(as_presentation(M))[1]


def artinian_length(M):
    """Total length of a finite-length module: the number of standard
    monomials of the initial module, the value of its series at t = 1.
    Valid for inhomogeneous relations too (Macaulay's basis theorem needs
    no grading)."""
    pres = as_presentation(M)
    return series_length(hilbert_numerator(pres), pres.ring.nvars)
