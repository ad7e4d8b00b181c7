"""Graded and bigraded Hilbert functions, dimensions, and multiplicities.

The staircase route: reduce to the initial module (per-component monomial
ideals), compute the Hilbert-series numerator by the pivot recursion
0 -> S/(I:p) -> S/I -> S/(I+p) -> 0, and convolve against the count of all
monomials.  The brute-force oracle (exact linear algebra over the
coefficient field, never touching initial terms) lives here too so the two
routes can be compared on every corpus module.

Numerators are memoised on the ring that grades them (``ring.memo``), since
the grading fixes the degree of every generator, and per presentation; the
module keeps no tables of its own, so a count never depends on what ran
before it.  Each eventual polynomial comes from one stabilisation loop per
grading (``_interpolate_1d``/``_interpolate_2d``), fed by memoised values.
"""

import itertools

from .errors import (AlgebraError, InternalConsistencyError, NotBigradedError,
                     ResourceLimitError)
from .groebner import IdealHandle, saturate_by_ideal
from .modules import ModulePresentation
from .numerical import (MultiplicityVector, NumericalPoly1, NumericalPoly2,
                        StabilizationCertificate, binom, interpolate_poly1,
                        interpolate_poly2)
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

def count_monomials(weights, d):
    """Number of exponent vectors with given weighted total degree."""
    if d < 0:
        return 0
    if all(w == 1 for w in weights):
        return binom(d + len(weights) - 1, len(weights) - 1)
    counts = [1] + [0] * d   # counts[k]: monomials of degree k in the variables so far
    for w in weights:
        for k in range(w, d + 1):
            counts[k] += counts[k - w]
    return counts[d]


def monomials_of_degree(nvars, d, weights=None):
    """All exponent tuples of the given weighted degree, lex order."""
    if weights is None:
        weights = (1,) * nvars
    if nvars == 0:
        if d == 0:
            yield ()
        return
    w = weights[0]
    for e in range(d // w + 1):
        for rest in monomials_of_degree(nvars - 1, d - e * w, weights[1:]):
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
    """Hilbert-series numerator of S/(gens) as a map degree -> coefficient.

    memo maps minimal generators to numerators under this degfun.
    """
    gens = minimal_monomials(gens)
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
        plus = [g for g in gens if g[pivot] == 0] + [xv]
        colon = [tuple(e - 1 if i == pivot and e else e for i, e in enumerate(g))
                 for g in gens]
        na = _numerator(tuple(plus), degfun, zero_deg, memo)
        nb = _numerator(tuple(colon), degfun, zero_deg, memo)
        dx = degfun(xv)
        result = dict(na)
        for d, c in nb.items():
            shifted = deg_add(d, dx)
            result[shifted] = result.get(shifted, 0) + c
        result = {d: c for d, c in result.items() if c}
    memo[gens] = result
    return result


def _component_numerators(pres, bigraded):
    ring = pres.ring
    if bigraded:
        degfun = ring.bidegree
        zero = (0, 0)
    else:
        degfun = ring.degree
        zero = 0
    key = ("numerators", bigraded)
    # the ring fixes degfun, so its memo is shared by every module over it
    memo = ring.memo.setdefault(key, {})

    def build():
        leads = pres.initial_leads()
        return tuple(_numerator(tuple(mons), degfun, zero, memo) for mons in leads)
    return pres._cached(key, build)


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
    numerators = _component_numerators(pres, bigraded)
    ring = pres.ring
    total = 0
    for c, num in enumerate(numerators):
        shift = pres.shifts[c]
        if bigraded:
            i = at[0] - shift[0]
            j = at[1] - shift[1]
            nx, ny = len(ring.x_block), len(ring.y_block)
            for (a, b), coef in num.items():
                if i - a < 0 or j - b < 0:
                    continue
                total += coef * binom(i - a + nx - 1, nx - 1) * binom(j - b + ny - 1, ny - 1)
        else:
            d = at - shift
            for a, coef in num.items():
                total += coef * count_monomials(ring.weights, d - a)
    return total


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
                it = monomials_of_degree(ring.nvars, d, ring.weights)
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
                for m in monomials_of_degree(ring.nvars, d, ring.weights):
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
            mults = monomials_of_degree(ring.nvars, d, ring.weights)
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

def _monomial_ideal_dimension(leads, nvars):
    """max |Z| over variable subsets Z touching no generator's support."""
    if any(not any(m) for m in leads):
        return -1
    supports = [frozenset(i for i, e in enumerate(m) if e) for m in leads]
    # the empty set contains no support once the unit ideal is ruled out,
    # so size 0 always returns
    for size in range(nvars, -1, -1):
        for Z in itertools.combinations(range(nvars), size):
            zs = set(Z)
            if all(not s <= zs for s in supports):
                return size


def dimension(M):
    """Krull dimension of coker(M) (of S/I for an ideal), from the staircase.

    The zero module reports -1.
    """
    pres = as_presentation(M)
    key = ("dimension",)

    def build():
        if pres.rank == 0:
            return -1
        leads = pres.initial_leads()
        dims = [_monomial_ideal_dimension(mons, pres.ring.nvars) for mons in leads]
        return max(dims)
    return pres._cached(key, build)


def relevant_dimension(I):
    """dim of the quotient by (0 : A_+^infinity); -1 when a power of A_+
    kills everything."""
    ring = I.ring
    if not ring.is_bigraded:
        raise NotBigradedError("relevant dimension needs a bigraded ring")
    gens = []
    for ix in ring.x_block:
        for iy in ring.y_block:
            gens.append(ring.gen(ix) * ring.gen(iy))
    aplus = IdealHandle(ring, gens)
    sat = saturate_by_ideal(I, aplus)
    if sat.is_unit():
        return -1
    return dimension(sat)


# ---------------------------------------------------------------------------
# polynomials with stabilization certificates

def _start_threshold(pres):
    degs = [0]
    for col in pres.columns:
        for (_, m) in col.terms:
            degs.append(pres.ring.degree(m))
    return max(degs) + pres.ring.nvars + 2


def _interpolate_1d(value_fn, deg_bound, start, what):
    K = max(deg_bound, 0)
    D = start
    while D <= DEGREE_CAP:
        points = [D + u for u in range(K + 1 + WINDOW)]
        values = [value_fn(p) for p in points]
        poly = interpolate_poly1(values[:K + 1], D)
        if all(poly(p) == v for p, v in zip(points, values)):
            cert = StabilizationCertificate((D,), WINDOW, points)
            return poly, cert
        D *= 2
    raise ResourceLimitError("%s did not stabilize below degree %d" % (what, DEGREE_CAP))


def _interpolate_2d(value_fn, deg_bound, start, what):
    K = max(deg_bound, 0)
    D = start
    while D <= DEGREE_CAP:
        size = K + 1 + WINDOW
        grid = [[value_fn(D + u, D + v) for v in range(size)] for u in range(size)]
        poly = interpolate_poly2([row[:K + 1] for row in grid[:K + 1]], (D, D))
        ok = all(poly(D + u, D + v) == grid[u][v]
                 for u in range(size) for v in range(size))
        if ok:
            pts = [(D + u, D + v) for u in range(size) for v in range(size)]
            cert = StabilizationCertificate((D, D), WINDOW, pts)
            return poly, cert
        D *= 2
    raise ResourceLimitError("%s did not stabilize below degree %d" % (what, DEGREE_CAP))


def hilbert_polynomial(M, bigraded=False):
    """Eventual polynomial of the Hilbert function, with the verified window."""
    pres = as_presentation(M)
    _check_grading(pres, bigraded)
    d = dimension(pres)
    start = _start_threshold(pres)
    if bigraded:
        return _interpolate_2d(lambda i, j: hilbert_value(pres, (i, j)),
                               max(d, 1), start, "bigraded Hilbert function")
    return _interpolate_1d(lambda k: hilbert_value(pres, k),
                           max(d - 1, 0), start, "Hilbert function")


def _support_floor(pres, bigraded):
    if bigraded:
        lo1 = min((s[0] for s in pres.shifts), default=0)
        lo2 = min((s[1] for s in pres.shifts), default=0)
        return min(lo1, 0), min(lo2, 0)
    return (min((s for s in pres.shifts), default=0),)


def _double_sum(pres):
    """(i, j) -> sum of h(a, b) over lo1 <= a <= i, lo2 <= b <= j, memoised,
    so each bidegree costs one hilbert_value."""
    lo1, lo2 = _support_floor(pres, True)
    table = {}

    def value(i, j):
        if i < lo1 or j < lo2:
            return 0
        got = table.get((i, j))
        if got is None:
            got = table[(i, j)] = (hilbert_value(pres, (i, j))
                                   + value(i - 1, j) + value(i, j - 1)
                                   - value(i - 1, j - 1))
        return got
    return value


def h11_table(M, hi1, hi2):
    """Double cumulative sums of the bigraded Hilbert function up to (hi1, hi2).

    Sums start at the lowest possible support, so shifted modules (Ext
    duals) are handled; for modules supported in non-negative bidegrees
    this is the double sum transform from the origin.
    """
    pres = as_presentation(M)
    lo1, lo2 = _support_floor(pres, True)
    value = _double_sum(pres)
    return {(i, j): value(i, j)
            for i in range(lo1, hi1 + 1) for j in range(lo2, hi2 + 1)}


def h11_polynomial(M):
    """Eventual polynomial of the double sum transform, with certificate."""
    pres = as_presentation(M)
    _check_grading(pres, True)
    d = dimension(pres)
    if d < 0:
        return NumericalPoly2({}), StabilizationCertificate((0, 0), WINDOW, ())
    return _interpolate_2d(_double_sum(pres), d, _start_threshold(pres),
                           "double sum transform")


def cumulative_polynomial(M):
    """Eventual polynomial of k -> sum_{u<=k} h(u): the graded Hilbert-Samuel
    transform.  Its top coefficient at index dim is the multiplicity."""
    pres = as_presentation(M)
    _check_grading(pres, False)
    d = dimension(pres)
    if d < 0:
        return NumericalPoly1([]), StabilizationCertificate((0,), WINDOW, ())
    (lo,) = _support_floor(pres, False)
    start = _start_threshold(pres)
    sums = [0]   # sums[t] = h(lo) + ... + h(lo + t - 1)

    def cum(k):
        while len(sums) <= k - lo + 1:
            sums.append(sums[-1] + hilbert_value(pres, lo + len(sums) - 1))
        return sums[max(k - lo + 1, 0)]

    return _interpolate_1d(cum, d, start, "Hilbert-Samuel transform")


# ---------------------------------------------------------------------------
# multiplicities

def ee_vector(M, q):
    """Multiplicity vector at level q: top binomial coefficients of the
    double sum transform when dim M = q, the zero vector otherwise."""
    pres = as_presentation(M)
    d = dimension(pres)
    if d != q:
        return MultiplicityVector.zero(q)
    poly, _ = h11_polynomial(pres)
    if poly.total_degree != d:
        raise InternalConsistencyError(
            "staircase dimension %d but sum-transform degree %d"
            % (d, poly.total_degree))
    return MultiplicityVector(q, poly.top_coefficients(q))


def classical_multiplicity(M, i):
    """e_i: the multiplicity when i = dim M, else 0.  Realized as the top
    coefficient of the Hilbert-Samuel transform, which also covers finite
    length (where it degenerates to the length)."""
    pres = as_presentation(M)
    d = dimension(pres)
    if i != d or d < 0:
        return 0
    poly, _ = cumulative_polynomial(pres)
    if poly.degree != d:
        raise InternalConsistencyError(
            "staircase dimension %d but Samuel-transform degree %d"
            % (d, poly.degree))
    return poly.coefficient(d)


def artinian_length(M):
    """Total length of a finite-length module: the number of standard
    monomials of the initial module.  Valid for inhomogeneous relations
    too (Macaulay's basis theorem needs no grading)."""
    pres = as_presentation(M)
    if dimension(pres) > 0:
        raise AlgebraError("module has positive dimension, length is infinite")
    ring = pres.ring
    total = 0
    for mons, num in zip(pres.initial_leads(), _component_numerators(pres, False)):
        if any(not any(m) for m in mons):
            continue  # component killed entirely
        d = 0
        top = max((ring.degree(m) for m in mons), default=0)
        while True:
            h = sum(coef * count_monomials(ring.weights, d - a)
                    for a, coef in num.items())
            if h == 0 and d >= top:
                break
            total += h
            d += 1
            if d > DEGREE_CAP * 4:
                raise ResourceLimitError("length summation ran away")
    return total


# ---------------------------------------------------------------------------
# Hilbert-Samuel by truncated linear algebra (no Groebner bases)

def hilbert_samuel(M, k):
    """Length of coker(M)/m^{k+1} coker(M) by exact rank computation.

    Works for inhomogeneous relations; used for local multiplicities of
    corpus items like plane-curve germs.
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
        low = min(ring.degree(m) for (_, m) in col.terms)
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


def samuel_multiplicity(M, max_k=24):
    """Samuel multiplicity at the origin: stabilized top coefficient of
    k -> length(M/m^{k+1}M), with an interpolation certificate."""
    pres = as_presentation(M)
    n = pres.ring.nvars
    values = {}

    def val(k):
        if k not in values:
            values[k] = hilbert_samuel(pres, k)
        return values[k]

    for start in range(0, max_k):
        width = n + 1 + WINDOW
        if start + width > max_k + 1:
            break
        pts = list(range(start, start + width))
        poly = interpolate_poly1([val(p) for p in pts[:n + 1]], start)
        if all(poly(p) == val(p) for p in pts):
            cert = StabilizationCertificate((start,), WINDOW, pts)
            return poly.top_coefficient(), poly.degree, cert
    raise ResourceLimitError("Hilbert-Samuel function did not stabilize by k=%d"
                             % max_k)
