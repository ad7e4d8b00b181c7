"""Hilbert functions, polynomials, dimensions, and multiplicities."""

import random

import pytest

import arithdeg.hilbert as hilbert_mod
from arithdeg.constructions import initial_forms_ideal
from arithdeg.errors import HomogeneityError, InternalConsistencyError
from arithdeg.groebner import IdealHandle
from arithdeg.hilbert import (_eventual, artinian_length, as_presentation,
                              classical_multiplicity, count_monomials,
                              cumulative_polynomial, dimension, ee_vector,
                              h11_polynomial, hilbert_polynomial,
                              hilbert_value, hilbert_value_bruteforce,
                              monomials_of_degree)
from arithdeg.modules import ModulePresentation, Vec, ext_presentation
from arithdeg.numerical import MultiplicityVector, NumericalPoly1
from arithdeg.rings import Polynomial, RingDescriptor
from arithdeg.session import MAX_VARIABLES

from helpers import (evaluate2, h11_table, hilbert_samuel,
                     reference_dimension, samuel_multiplicity)


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


@pytest.fixture
def B():
    return RingDescriptor.bigraded("x", "y")


def test_hilbert_value_free():
    R3 = RingDescriptor.graded("x,y,z")
    assert hilbert_value(IdealHandle(R3, []), 3) == 10


def test_hilbert_value_staircase(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    assert [hilbert_value(I, d) for d in range(6)] == [1, 2, 1, 1, 1, 1]


@pytest.mark.parametrize("make_rings, at", [
    (lambda: (RingDescriptor.bigraded("x", "y,z"),
              RingDescriptor.bigraded("x,y", "z")), (1, 0)),
])
@pytest.mark.parametrize("first", [0, 1])
def test_hilbert_value_same_generators_other_grading(make_rings, at, first):
    """(y) has the same generators in both rings but not the same Hilbert
    numerator; neither ring may see the other's, whichever runs first."""
    rings = make_rings()
    for ring in (rings[first], rings[1 - first]):
        I = IdealHandle(ring, ["y"])
        assert hilbert_value(I, at) == hilbert_value_bruteforce(I, at) == 1


def test_count_monomials():
    for n in range(1, 5):
        for d in range(-1, 12):
            assert count_monomials(n, d) == len(list(monomials_of_degree(n, d)))


@pytest.mark.parametrize("weights", [(1, 2), (2, 3, 1), (3, 1, 1, 2), (2, 2)])
def test_count_monomials_weighted(weights):
    """Weights are refused, not silently dropped: every ring is standard
    graded, so the free module in len(weights) variables counts all
    monomials of each total degree."""
    names = ["x%d" % i for i in range(len(weights))]
    with pytest.raises(TypeError):
        RingDescriptor.graded(names, weights=weights)
    with pytest.raises(TypeError):
        RingDescriptor(names, weights=weights)
    free = IdealHandle(RingDescriptor.graded(names), [])
    n = len(weights)
    for d in range(-1, 12):
        assert hilbert_value(free, d) == count_monomials(n, d) == len(
            list(monomials_of_degree(n, d)))


def test_hilbert_value_bigraded_free(B):
    free = IdealHandle(B, [])
    assert all(hilbert_value(free, (i, j)) == 1 for i in range(4) for j in range(4))


def test_homogeneity_error(R):
    x, y = R.gens()
    with pytest.raises(HomogeneityError):
        hilbert_value(IdealHandle(R, [y ** 2 - x ** 3]), 2)


def test_bruteforce_equivalence(R):
    x, y = R.gens()
    for gens in ([x ** 2, x * y], [x * y], [x ** 2 - y ** 2, x * y + y ** 2],
                 [x ** 3 - y ** 3], []):
        I = IdealHandle(R, gens)
        for d in range(7):
            assert hilbert_value(I, d) == hilbert_value_bruteforce(I, d)


def test_bruteforce_equivalence_bigraded(B):
    xb, yb = B.gens()
    I = IdealHandle(B, [xb * yb])
    for i in range(4):
        for j in range(4):
            assert hilbert_value(I, (i, j)) == hilbert_value_bruteforce(I, (i, j))


def test_hilbert_polynomial_free(R):
    P, threshold = hilbert_polynomial(IdealHandle(R, []))
    assert [P(d) for d in range(3)] == [1, 2, 3]
    assert P.coeffs == (1, 1)   # C(d,1) + 1 = d + 1
    assert threshold == 4       # the start degree, 0 + 2 + 2


def test_hilbert_polynomial_artinian_direction(R):
    x, y = R.gens()
    P, threshold = hilbert_polynomial(IdealHandle(R, [x ** 2, x * y]))
    assert P.coeffs == (1,)
    assert threshold == 6


def test_hilbert_polynomial_bigraded(B):
    xb, _ = B.gens()
    P = _eventual(as_presentation(IdealHandle(B, [xb])), True, 0)
    # on the stable rectangle h = 0 for i >= 1
    assert not P.coeffs


def test_hilbert_threshold_search_ends_at_the_regularity_index(
        R, monkeypatch):
    """S/(x^40, y^40) has the Hilbert polynomial 0 from its regularity
    index deg h - d + 1 = 79 on.  Against a polynomial the function never
    agrees with, the doubling from the start degree 40 + 2 + 2 = 44 stops
    at 88, the first window past that index, and raises: a bug."""
    x, y = R.gens()
    I = IdealHandle(R, [x ** 40, y ** 40])
    assert hilbert_value(I, 78) == 1 and hilbert_value(I, 79) == 0
    monkeypatch.setattr(hilbert_mod, "_eventual",
                        lambda *args: NumericalPoly1([1]))
    with pytest.raises(InternalConsistencyError, match="degree 88"):
        hilbert_polynomial(I)


def test_dimension_examples(R):
    x, y = R.gens()
    assert dimension(IdealHandle(R, [x ** 2, x * y])) == 1
    assert dimension(IdealHandle(R, [])) == 2
    assert dimension(IdealHandle(R, [x, y])) == 0
    assert dimension(IdealHandle(R, [R.one()])) == -1


def _monomials(rng, n, count):
    """count random exponent tuples over n variables, each with a support
    of one to three variables."""
    out = []
    for _ in range(count):
        m = [0] * n
        for k in rng.sample(range(n), rng.randint(1, min(n, 3))):
            m[k] = rng.randint(1, 3)
        out.append(tuple(m))
    return out


def _sweep_rings(rng, n):
    """A graded and (from two variables on) a bigraded ring in n
    variables."""
    names = ["x%d" % k for k in range(n)]
    rings = [RingDescriptor.graded(names)]
    if n > 1:
        cut = rng.randint(1, n - 1)
        rings.append(RingDescriptor.bigraded(names[:cut], names[cut:]))
    return rings


def test_dimension_matches_the_subset_walk_on_monomial_ideals():
    """The pole order of the Hilbert series equals the subset walk on random
    monomial ideals up to the variable cap, over graded and bigraded
    rings, with (0) and (1) in every ring."""
    rng = random.Random(27)
    seen = set()
    for n in range(1, MAX_VARIABLES + 1):
        for ring in _sweep_rings(rng, n):
            ideals = [[], [ring.one()]] + [
                [ring.monomial(m) for m in _monomials(rng, n, rng.randint(1, 6))]
                for _ in range(4)]
            for gens in ideals:
                I = IdealHandle(ring, gens)
                assert dimension(I) == reference_dimension(I), (ring, gens)
                seen.add(dimension(I))
    assert seen == set(range(-1, MAX_VARIABLES + 1))


def test_dimension_matches_the_subset_walk_on_modules():
    """Shifted presentations of rank two and more, and the Ext modules of
    random monomial quotients, over graded and bigraded rings:
    each component's pole sits at t = 1 whatever its shift, so the largest
    one wins."""
    rng = random.Random(7)
    ranks = []
    for n in (2, 3, 4):
        for ring in _sweep_rings(rng, n):
            for _ in range(3):
                rank = rng.randint(2, 4)
                cols = [Vec(ring, rank, {(rng.randrange(rank), m): 1})
                        for m in _monomials(rng, n, rng.randint(0, 5))]
                if ring.is_bigraded:
                    shifts = [(rng.randint(-2, 2), rng.randint(-2, 2))
                              for _ in range(rank)]
                else:
                    shifts = [rng.randint(-3, 3) for _ in range(rank)]
                M = ModulePresentation(ring, rank, cols, shifts=shifts)
                assert dimension(M) == reference_dimension(M)
            gens = [ring.monomial(m) for m in _monomials(rng, n, 3)]
            pres = ModulePresentation.from_ideal(IdealHandle(ring, gens))
            for j in range(n + 1):
                E = ext_presentation(pres, j)
                assert dimension(E) == reference_dimension(E), (gens, j)
                ranks.append(E.rank)
    assert max(ranks) >= 2 and 0 in ranks


def test_ee_vectors(B):
    xb, yb = B.gens()
    free = IdealHandle(B, [])
    assert ee_vector(free, 2) == MultiplicityVector(2, (0, 1, 0))
    assert ee_vector(free, 1) == MultiplicityVector.zero(1)
    quotient = IdealHandle(B, [xb])
    assert ee_vector(quotient, 1) == MultiplicityVector(1, (1, 0))
    zero_mod = IdealHandle(B, [B.one()])
    for q in range(3):
        assert ee_vector(zero_mod, q) == MultiplicityVector.zero(q)


def test_ee_additive_on_direct_sums(B):
    xb, yb = B.gens()
    # S/(x) (+) S/(x): block-diagonal presentation
    two = ModulePresentation(B, 2, [Vec.from_polys(B, (xb, B.zero())),
                                    Vec.from_polys(B, (B.zero(), xb))])
    one = IdealHandle(B, [xb])
    v2 = ee_vector(two, 1)
    v1 = ee_vector(one, 1)
    assert v2 == v1 + v1
    # mixed dimensions: S/(x) (+) S/(x,y) at the level of the larger part
    mixed = ModulePresentation(B, 2, [Vec.from_polys(B, (xb, B.zero())),
                                      Vec.from_polys(B, (B.zero(), xb)),
                                      Vec.from_polys(B, (B.zero(), yb))])
    assert ee_vector(mixed, 1) == v1 + ee_vector(IdealHandle(B, [xb, yb]), 1)


def test_prop_hilb_degree(B):
    """deg P_M = rd M - 2 for relevant cyclic modules, with their relevant
    dimensions rd (dim of M over (0 : A_+^infinity)) worked by hand;
    deg P^(1,1) = dim."""
    B4 = RingDescriptor.bigraded("x1,x2", "y1,y2")
    x1, x2, y1, y2 = B4.gens()
    for gens, rd in (([], 4), ([x1, y1], 2), ([x1 * y1], 3)):
        I = IdealHandle(B4, gens)
        P = _eventual(as_presentation(I), True, 0)
        assert P.total_degree == rd - 2
    # irrelevant quotients still satisfy deg P^(1,1) = dim
    xb, yb = B.gens()
    for gens in ([], [xb ** 2], [xb * yb ** 2]):
        I = IdealHandle(B, gens)
        P11 = h11_polynomial(I)
        assert P11.total_degree == dimension(I)


def test_two_new_variables_identity(B):
    """h^(1,1) of M equals the plain Hilbert function of M with one extra
    variable of each bidegree adjoined."""
    xb, yb = B.gens()
    I = IdealHandle(B, [xb ** 2])
    big = RingDescriptor.bigraded("x,u", "y,v")
    lift = {}
    # x -> index 0, y -> index 2 in the big ring
    gens = []
    for g in I.gens:
        terms = {}
        for (a, b), c in g.terms.items():
            terms[(a, 0, b, 0)] = c
        gens.append(Polynomial(big, terms))
    Ibig = IdealHandle(big, gens)
    table = h11_table(I, 5, 5)
    for i in range(6):
        for j in range(6):
            assert table[(i, j)] == hilbert_value(Ibig, (i, j))


def test_prop_add_over_associated_primes():
    """ee_q(M) = sum of local lengths times ee_q(A/p) over top-dimensional
    associated primes, on bigraded monomial quotients where both sides come
    from the combinatorial oracle."""
    from arithdeg.monomials import decompose, local_length_by_pairs
    B4 = RingDescriptor.bigraded("x1,x2", "y1,y2")
    x1, x2, y1, y2 = B4.gens()
    cases = [
        [x1 * y1],
        [x1 ** 2, x1 * x2],
        [x1 * y1, x1 * y2],
        [x1 ** 2 * y1],
    ]
    for gens in cases:
        J = IdealHandle(B4, gens)
        d = dimension(J)
        lhs = ee_vector(J, d)
        dec = decompose(J)
        total = MultiplicityVector.zero(d)
        n = B4.nvars
        for supp in dec.associated_primes:
            if n - len(supp) != d:
                continue
            length = local_length_by_pairs(J, supp)
            p = IdealHandle(B4, [B4.gen(k) for k in sorted(supp)])
            total = total + ee_vector(p, d).scale(length)
        assert lhs == total


def test_classical_multiplicity(R):
    x, y = R.gens()
    assert classical_multiplicity(IdealHandle(R, [x * y]), 1) == 2
    assert classical_multiplicity(IdealHandle(R, [x * y]), 2) == 0
    assert classical_multiplicity(IdealHandle(R, []), 2) == 1
    # finite length: e_0 is the length
    assert classical_multiplicity(IdealHandle(R, [x ** 2, y ** 2]), 0) == 4


def test_cumulative_polynomial(R):
    x, y = R.gens()
    P = cumulative_polynomial(IdealHandle(R, [x * y]))
    # h = 1, 2, 2, ... so the sums are 2k + 1 eventually
    for k in range(4, 8):
        assert P(k) == 2 * k + 1
    assert P.coeffs[-1] == 2


def test_hilbert_samuel_cusp(R):
    x, y = R.gens()
    cusp = IdealHandle(R, [y ** 2 - x ** 3])
    values = [hilbert_samuel(cusp, k) for k in range(7)]
    assert values == [1, 3, 5, 7, 9, 11, 13]
    e, d, cert = samuel_multiplicity(cusp)
    assert (e, d) == (2, 1)


def _tangent_cone_multiplicity(J):
    """(e, d) of the tangent cone gr_m(S/J): adeg's "samuel" route."""
    tc = initial_forms_ideal(J, range(J.ring.nvars))
    d = dimension(tc)
    return classical_multiplicity(tc, d), d


@pytest.mark.parametrize("gens, values, samuel", [
    (lambda x, y: [y], [1, 2, 3, 4, 5, 6, 7], (1, 1)),
    (lambda x, y: [y ** 2 - x ** 3], [1, 3, 5, 7, 9, 11, 13], (2, 1)),
], ids=["line", "cusp"])
def test_hilbert_samuel_of_a_line_and_a_cusp(R, gens, values, samuel):
    """The reference's lengths and (e, d), and the tangent cone's (e, d)."""
    M = IdealHandle(R, gens(*R.gens()))
    assert [hilbert_samuel(M, k) for k in range(7)] == values
    assert samuel_multiplicity(M)[:2] == samuel
    assert _tangent_cone_multiplicity(M) == samuel


def _random_poly(rng, ring, low, high, constant=0):
    """A polynomial with the given constant term and one to three further
    terms of total degree low..high, coefficients in -3..3 but 0."""
    f = ring.constant(constant)
    for _ in range(rng.randint(1, 3)):
        m = rng.choice(list(monomials_of_degree(ring.nvars,
                                                rng.randint(low, high))))
        f = f + ring.monomial(m, rng.choice([-3, -2, -1, 1, 2, 3]))
    return f


def _samuel_sweep(rng):
    """Seeded inhomogeneous ideals in two and three variables, as
    (kind, generators): primes through the origin and away from it, and
    non-primes with components at the origin, away from it, or both."""
    R2 = RingDescriptor.graded("x,y")
    R3 = RingDescriptor.graded("x,y,z")
    x, y = R2.gens()
    u, v, w = R3.gens()
    out = []
    for _ in range(4):
        a = rng.choice([2, 3])
        b = rng.choice([k for k in range(a + 1, 8) if k % a])
        c = rng.choice([0, 0, 1, -2])
        # y^a - x^b is irreducible for coprime a, b; the graphs are
        # coordinate rings of a line (of a plane) over k
        out.append(("prime", [(y + c) ** a - x ** b]))
        out.append(("prime", [y - _random_poly(rng, R2, 1, 3, c)]))
        curve = [R3.constant(c) + sum((rng.choice([-2, -1, 1, 2]) * u ** k
                                       for k in range(1, rng.randint(2, 4))),
                                      R3.zero()) for _ in range(2)]
        out.append(("prime", [v - curve[0], w - curve[1]]))
        out.append(("prime", [w - _random_poly(rng, R3, 1, 3, c)]))
        # non-primes: a germ times a unit at the origin, two branches, a
        # fat point, and a curve with a point away from the origin
        f = y ** a - x ** b + _random_poly(rng, R2, b + 1, b + 2)
        away = _random_poly(rng, R2, 1, 2, rng.choice([1, -1, 2]))
        g = y - _random_poly(rng, R2, 1, 2)
        out.append(("germ and a component away", [f * away]))
        out.append(("two branches", [f * g]))
        out.append(("no component at the origin", [away * (away - 3)]))
        out.append(("fat point", [f, g ** 2 - _random_poly(rng, R2, 3, 4)]))
        h = w - _random_poly(rng, R3, 2, 3)
        out.append(("surface germ and a line away", [h * (u - 1), h * v]))
    return out


def test_samuel_vs_tangent_cone():
    """e(m, S/J) = e(gr_m(S/J)): the tangent cone's (e, d) equals the
    reference's interpolated Hilbert-Samuel top coefficient, on seeded
    inhomogeneous ideals, prime or not, through the origin or not."""
    seen = set()
    for kind, gens in _samuel_sweep(random.Random(32)):
        J = IdealHandle(gens[0].ring, gens)
        e, d = samuel_multiplicity(J)[:2]
        assert _tangent_cone_multiplicity(J) == (e, d), (kind, gens)
        seen.add(d)
    assert seen == {-1, 0, 1, 2}


def test_artinian_length(R):
    x, y = R.gens()
    assert artinian_length(IdealHandle(R, [x ** 2, x * y, y ** 2])) == 3
    assert artinian_length(IdealHandle(R, [x, y])) == 1
    with pytest.raises(Exception):
        artinian_length(IdealHandle(R, [x]))


def test_artinian_length_over_bigraded_ring(B):
    xb, yb = B.gens()
    assert artinian_length(IdealHandle(B, [xb ** 2, yb])) == 2


def test_hilbert_shifted_module(R):
    x, y = R.gens()
    # S(-2) (+) S via shifts: generators in degrees 2 and 0
    M = ModulePresentation(R, 2, [], shifts=(2, 0))
    assert hilbert_value(M, 0) == 1
    assert hilbert_value(M, 2) == 4   # 1 (degree-0 piece of S(-2)) + 3
    assert hilbert_value_bruteforce(M, 2) == 4


def test_cumulative_polynomial_of_shifted_ext():
    """The expansion of the numerator matches the counted sums from the
    lowest shift on, for Ext modules whose generators sit in negative
    degrees."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    pres = ModulePresentation.from_ideal(IdealHandle(R3, [x ** 2, x * y, x * z]))
    for j, shift in ((1, -1), (3, -4)):
        E = ext_presentation(pres, j)
        assert min(E.shifts) == shift
        P = cumulative_polynomial(E)
        for k in (10, 20):
            assert P(k) == sum(hilbert_value(E, u) for u in range(shift, k + 1))


def test_h11_polynomial_matches_table():
    B4 = RingDescriptor.bigraded("x,y", "z,w")
    x, y, z, w = B4.gens()
    J = IdealHandle(B4, [x * z, y ** 2 * w, x ** 2])
    P = h11_polynomial(J)
    table = h11_table(J, 15, 15)
    for at in ((14, 15), (15, 15)):
        assert evaluate2(P, *at) == table[at]
