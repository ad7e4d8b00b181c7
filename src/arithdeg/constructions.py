"""Initial-form ideals, Rees kernels, associated graded rings, and the
double construction GG = gr_m(gr_I).

Initial forms are computed by homogenization: balance the block degree of
each generator with a fresh variable t, take one Groebner basis for an order
in which the t-degree dominates, and keep the terms of top t-degree.  No
saturation by t is needed: some t-power times the homogenization of any
element of the ideal lies in the homogenized generators' ideal, and the lead
of a homogeneous element is a t-power times the lead of its lowest block
form (Lazard's argument; Greuel and Pfister, A Singular Introduction to
Commutative Algebra, 1.7).  gr_I is gated by the dimension it must keep
and GG by the direct length of every cell of its Hilbert function; a
mismatch raises rather than returning silently wrong output.
"""

from .errors import (AlgebraError, InternalConsistencyError,
                     UnsupportedInputError)
from .groebner import (IdealHandle, _caps, eliminate, extended_ring,
                       fresh_names, ideal_product, ideal_sum, inject,
                       maximal_ideal, project)
from .hilbert import (dimension, hilbert_numerator, hilbert_value,
                      series_length)
from .orders import BlockOrder
from .rings import (Polynomial, RingDescriptor, minimal_monomials,
                    mono_divides, mono_mul)


# ---------------------------------------------------------------------------
# initial forms by homogenization

def _block_degree(m, block):
    return sum(m[i] for i in block)


def initial_forms_ideal(I, block):
    """Ideal of lowest block-degree forms of all elements of I.

    Homogenize each generator in the block grading with a trailing t and
    take one Groebner basis G of these forms H for the order in which the
    t-degree dominates and degrevlex breaks ties.  No saturation by t is
    needed (Lazard; Greuel and Pfister, A Singular Introduction to
    Commutative Algebra, 1.7): for f in I some t^r*f^h lies in H, and the
    lead of a (block + t)-homogeneous polynomial is a power of t times the
    degrevlex lead of its lowest block form.  So the terms of top t-degree
    of each element of G, with t dropped, are a degrevlex Groebner basis of
    the initial-form ideal.
    """
    ring = I.ring
    if I.is_zero():
        return IdealHandle(ring, [], **_caps(I))
    block = tuple(sorted(block))
    big = extended_ring(ring, fresh_names(ring, "t_", 1))
    t_index = ring.nvars
    homogenized = []
    for g in I.gens:
        top = max(_block_degree(m, block) for m in g.terms)
        homogenized.append(Polynomial(
            big, {m + (top - _block_degree(m, block),): c
                  for m, c in g.terms.items()}, _clean=False))
    # the homogenized generators run at twice the degree cap
    H = IdealHandle(big, homogenized, max_basis=I.max_basis,
                    max_degree=2 * I.max_degree)
    out = []
    for g in H.groebner_basis(BlockOrder([t_index], big.nvars)):
        top = max(m[t_index] for m in g.terms)
        out.append(Polynomial(ring, {m[:t_index]: c for m, c in g.terms.items()
                                     if m[t_index] == top}, _clean=False))
    return IdealHandle(ring, out, **_caps(I))


# ---------------------------------------------------------------------------
# Rees kernel and associated graded presentation

class ReesPresentation:
    """Kernel data of S[y] -> (S/J)[t], y_j -> t*f_j."""

    __slots__ = ("J", "extended", "kernel", "maps", "y_indices")

    def __init__(self, J, extended, kernel, maps, y_indices):
        self.J = J
        self.extended = extended        # bigraded ring k[x-block; y-block]
        self.kernel = kernel            # IdealHandle in extended
        self.maps = tuple(maps)         # f_j as polynomials in S = J.ring
        self.y_indices = tuple(y_indices)

    def substitution_check(self):
        """Every kernel generator must vanish under y_j -> t*f_j modulo J.

        The y-variables come after the x-variables, so a term c*x^a*y^b
        maps to c*x^a*prod f_j^(b_j)*t^|b|.  Gathering the terms by
        y-degree k writes the image as sum F_k*t^k with each F_k in S, and
        the image vanishes in (S/J)[t] exactly when every F_k lies in J,
        which J's own cached basis decides.  So this is K inside
        ker(S[y] -> (S/J)[t]), tested against J itself.
        """
        J = self.J
        nx = J.ring.nvars
        for g in self.kernel.gens:
            parts = {}
            for m, c in g.terms.items():
                term = Polynomial(J.ring, {m[:nx]: c}, _clean=False)
                for f, e in zip(self.maps, m[nx:]):
                    if e:
                        term = term * f ** e
                k = sum(m[nx:])
                parts[k] = parts[k] + term if k in parts else term
            if not all(J.contains(F) for F in parts.values()):
                raise InternalConsistencyError(
                    "Rees kernel generator %r fails the substitution check" % (g,))
        return True


def _gg_ring(base_ring, count):
    y_names = fresh_names(base_ring, "q", count)
    return RingDescriptor.bigraded(list(base_ring.names), y_names,
                                   field=base_ring.field)


def rees_kernel(J, I):
    """Presentation kernel of the Rees construction for I over S/J,
    by eliminating t from (y_j - t f_j) + J."""
    ring = J.ring
    fs = list(I.gens)
    if not fs:
        raise AlgebraError("Rees construction needs at least one ideal generator")
    m = len(fs)
    gg = _gg_ring(ring, m)
    y_indices = tuple(gg.y_block)
    work = extended_ring(gg, fresh_names(gg, "t_", 1))
    t_index = work.nvars - 1
    t = work.gen(t_index)
    # the variables of S sit first in gg and in work
    gens = []
    for j, f in enumerate(fs):
        yj = work.gen(y_indices[j])
        gens.append(yj - t * inject(f, work))
    for g in J.gens:
        gens.append(inject(g, work))
    # the elimination ring with t runs at twice the degree cap
    caps = _caps(J, I)
    H = IdealHandle(work, gens, max_basis=caps["max_basis"],
                    max_degree=2 * caps["max_degree"])
    E = eliminate(H, [t_index])
    K = IdealHandle(gg, [project(g, gg) for g in E.gens], **caps)
    rees = ReesPresentation(J, gg, K, fs, y_indices)
    rees.substitution_check()
    return rees


class GradedConstruction:
    """Presentation of gr_I(S/J) (and optionally GG) as a bigraded quotient."""

    __slots__ = ("ring", "ideal", "rees", "J", "I")

    def __init__(self, ring, ideal_handle, rees, J, I):
        self.ring = ring
        self.ideal = ideal_handle
        self.rees = rees
        self.J = J
        self.I = I

    def __repr__(self):
        return "GradedConstruction(%r over %r)" % (self.ideal, self.ring)


def assoc_graded(J, I):
    """gr_I(S/J) = k[x; y]/L with L = rees kernel + I + J, y-degree grading.

    L is bigraded exactly when its reduced degrevlex basis is bihomogeneous.
    Its generators need not be (an inhomogeneous J with I = m gives such
    L), so a bigraded L is handed out on that basis, and the handle's own
    is_bihomogeneous tells whether L is bigraded.
    """
    rees = rees_kernel(J, I)
    gg = rees.extended
    gens = list(rees.kernel.gens)
    for f in I.gens:
        gens.append(inject(f, gg))
    for g in J.gens:
        gens.append(inject(g, gg))
    L = IdealHandle(gg, gens, **_caps(J, I))
    # dimension transfer gate: dim gr_I(S/J) = dim S/J, except that
    # gr_I(S/J) = 0 when J + I = (1), which is an input outside the theory
    dim_L, dim_J = dimension(L), dimension(J)
    if dim_L < 0 <= dim_J:
        raise UnsupportedInputError(
            "J + I is the unit ideal, so gr_I(S/J) is zero")
    if dim_L != dim_J:
        raise InternalConsistencyError(
            "dimension changed across the associated graded construction")
    # the gate cached L's reduced degrevlex basis
    basis = L.groebner_basis()
    if not L.is_bihomogeneous() and all(g.is_bihomogeneous() for g in basis):
        L = IdealHandle(gg, basis, **_caps(L))
    return GradedConstruction(gg, L, rees, J, I)


class BigradedPresentation:
    """GG(S/J) as a bigraded quotient k[x; y]/L'."""

    __slots__ = ("ring", "ideal", "gr", "J", "I")

    def __init__(self, ring, ideal_handle, gr, J, I):
        self.ring = ring
        self.ideal = ideal_handle
        self.gr = gr
        self.J = J
        self.I = I

    def hilbert(self, i, j):
        return hilbert_value(self.ideal, (i, j))

    def __repr__(self):
        return "GG(%r)" % (self.ideal,)


def gg_presentation(J, I):
    """gr_m(gr_I(S/J)) as a bigraded quotient, validated against the direct
    bifiltration lengths on the certificate rectangle.

    gr_m of a standard bigraded ring is the ring itself, so when gr_I's
    ideal L is bigraded, GG's ideal is gr_I's own handle.  Otherwise GG's
    ideal is the ideal of x-block initial forms of L.
    """
    gr = assoc_graded(J, I)
    Lp = gr.ideal
    if not Lp.is_bihomogeneous():
        Lp = initial_forms_ideal(Lp, gr.ring.x_block)
        if not Lp.is_bihomogeneous():
            raise InternalConsistencyError(
                "GG presentation ideal is not bihomogeneous")
    out = BigradedPresentation(gr.ring, Lp, gr, J, I)
    _gate_gg_hilbert(out, gate_rectangle(J))
    return out


def gate_rectangle(J):
    """The GG Hilbert gate's default rectangle, (d + 2, d + 2) for
    d = dim S/J (0 when S/J is zero)."""
    d = max(dimension(J), 0)
    return (d + 2, d + 2)


def _gate_gg_hilbert(gg, rect):
    """hilbert_value of the presentation == direct bifiltration derivative,
    the length of (J + m^i*I^j + I^(j+1)) / (J + m^(i+1)*I^j + I^(j+1)), at
    every cell (i, j) of the rectangle.

    Monomial J and I count each length on antichains of exponent tuples
    (monomial_cell_lengths); any other input walks IdealHandles
    (cell_lengths), which checks that each lower ideal it builds lies
    inside its upper one and ends a row, with zeros, once the cells are
    0.  Every cell of the rectangle is compared, built or not.
    """
    J, I = gg.J, gg.I
    walk = (monomial_cell_lengths if J.is_monomial() and I.is_monomial()
            else cell_lengths)
    for (i, j), direct in walk(J, I, rect):
        predicted = gg.hilbert(i, j)
        if predicted != direct:
            raise InternalConsistencyError(
                "GG Hilbert gate fails at (%d,%d): presentation %d, direct %d"
                % (i, j, predicted, direct))
    return True


def cell_lengths(J, I, rect):
    """Yield ((i, j), length of upper/lower) for the gate's cells, on
    IdealHandles: any J and I.

    The upper ideal of cell (i, j) is J + m^i*I^j + I^(j+1) and its lower
    ideal J + m^(i+1)*I^j + I^(j+1).  Each row j walks the chain m^i*I^j,
    m^(i+1)*I^j = m*(m^i*I^j), ... on top of base = J + I^(j+1), built
    once per row, so the lower ideal of cell (i, j) is the upper ideal of
    cell (i+1, j), and every power and product is built once.  The upper
    ideal of cell (0, j) is J + I^j, the previous row's base (the unit
    ideal for row 0), whose basis and numerator are cached already.  Once
    m^(i+1)*I^j lies in base, the lower ideal of cell (i, j) is base, and
    so are both ideals of every later cell of the row: those cells have
    length 0 and build nothing.  For I = m that happens at i = 0.
    """
    ring, caps = J.ring, _caps(J, I)
    m = maximal_ideal(ring, J, I)
    power = top = IdealHandle(ring, [ring.one()], **caps)  # I^j, J + I^j
    for j in range(rect[1] + 1):
        next_power = ideal_product(power, I)            # I^(j+1)
        base = ideal_sum(J, next_power)
        chain, upper = power, top                       # m^i * I^j
        for i in range(rect[0] + 1):
            chain = ideal_product(m, chain)
            lower = (base if base.contains_ideal(chain)
                     else ideal_sum(chain, base))
            yield (i, j), relative_length(upper, lower)
            if lower is base:
                yield from (((k, j), 0) for k in range(i + 1, rect[0] + 1))
                break
            upper = lower
        top, power = base, next_power


def monomial_cell_lengths(J, I, rect):
    """cell_lengths for monomial J and I, counted on sorted minimal tuples
    of exponent tuples.

    For a monomial ideal K the monomials of K outside m*K are its minimal
    generators, and m^(i+1)*I^j = m*(m^i*I^j).  So the quotient of cell
    (i, j) has a basis of the minimal generators of m^i*I^j outside
    B = J + I^(j+1) (Macaulay), and its length is their number.  Each row
    keeps that chain: the next one is the minimal products of m with the
    chain that lie outside B, since m times a generator inside B stays
    there.  The chain of cell (0, j) is I^j's generators outside B.
    """
    ring = J.ring

    def tuples(H):
        return tuple(next(iter(g.terms)) for g in H.gens)

    def times(A, B):
        return minimal_monomials([mono_mul(a, b) for a in A for b in B])

    n = ring.nvars
    units = tuple(tuple(int(k == v) for k in range(n)) for v in range(n))
    gens_J, gens_I = tuples(J), tuples(I)
    power = (ring.zero_mono(),)                     # I^j
    for j in range(rect[1] + 1):
        next_power = times(power, gens_I)           # I^(j+1)
        base = minimal_monomials(gens_J + next_power)
        kept, levels = set(base), {}
        for b in base:
            levels.setdefault(sum(b), []).append(b)
        levels = sorted(levels.items())

        def outside(monos):
            return tuple(g for g in monos
                         if g not in kept and not _divided_below(g, levels))
        chain = outside(power)                      # m^i * I^j outside B
        for i in range(rect[0] + 1):
            yield (i, j), len(chain)
            if i < rect[0]:
                chain = outside(times(units, chain))
        power = next_power


def _divided_below(g, levels):
    """True when a generator of strictly lower total degree than g divides
    it, for levels the (degree, generators) of an antichain in ascending
    degree: a proper divisor has strictly lower total degree, so the
    levels from g's own degree up need no test."""
    d = sum(g)
    for e, gens in levels:
        if e >= d:
            return False
        if any(mono_divides(b, g) for b in gens):
            return True
    return False


# ---------------------------------------------------------------------------
# direct length oracles

def relative_length(U, V):
    """Length of U/V for nested ideals V <= U, read off the Hilbert-series
    numerators of S/U and S/V for any term order: the monomials in in(U)
    but not in in(V) index a basis of U/V (Macaulay's theorem, graded or
    not), so the difference of the numerators is their series, and its
    value at t = 1 is the length.  AlgebraError when it is infinite."""
    if not all(U.contains(g) for g in V.gens):
        raise AlgebraError("relative length needs V inside U")
    num = dict(hilbert_numerator(V))
    for d, c in hilbert_numerator(U).items():
        num[d] = num.get(d, 0) - c
    return series_length(num, U.ring.nvars)

