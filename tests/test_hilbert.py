"""Hilbert functions, polynomials, dimensions, and multiplicities."""

import random

import pytest

from arithdeg.errors import HomogeneityError, UnsupportedInputError
from arithdeg.groebner import IdealHandle
from arithdeg.hilbert import (artinian_length, classical_multiplicity,
                              count_monomials, cumulative_polynomial, dimension,
                              ee_vector, h11_polynomial, hilbert_polynomial,
                              hilbert_samuel, hilbert_value,
                              hilbert_value_bruteforce, monomials_of_degree,
                              samuel_multiplicity)
from arithdeg.modules import ModulePresentation, Vec, ext_presentation
from arithdeg.numerical import MultiplicityVector
from arithdeg.rings import MAX_VARIABLES, Polynomial, RingDescriptor

from helpers import h11_table, reference_dimension


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
    (lambda: (RingDescriptor.graded("x,y"),
              RingDescriptor.graded("x,y", weights=(1, 2))), 3),
])
@pytest.mark.parametrize("first", [0, 1])
def test_hilbert_value_same_generators_other_grading(make_rings, at, first):
    """(y) has the same generators in both rings but not the same Hilbert
    numerator; neither ring may see the other's, whichever runs first."""
    rings = make_rings()
    for ring in (rings[first], rings[1 - first]):
        I = IdealHandle(ring, ["y"])
        assert hilbert_value(I, at) == hilbert_value_bruteforce(I, at) == 1


@pytest.mark.parametrize("weights", [(1, 2), (2, 3, 1), (3, 1, 1, 2), (2, 2)])
def test_count_monomials_weighted(weights):
    for d in range(-1, 12):
        assert count_monomials(weights, d) == len(
            list(monomials_of_degree(len(weights), d, weights)))


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
    P, cert = hilbert_polynomial(IdealHandle(R, []))
    assert [P(d) for d in range(3)] == [1, 2, 3]
    assert P.coeffs == (1, 1)   # C(d,1) + 1 = d + 1


def test_hilbert_polynomial_artinian_direction(R):
    x, y = R.gens()
    P, cert = hilbert_polynomial(IdealHandle(R, [x ** 2, x * y]))
    assert P.coeffs == (1,)
    assert cert.window == 3


def test_hilbert_polynomial_bigraded(B):
    xb, _ = B.gens()
    P, cert = hilbert_polynomial(IdealHandle(B, [xb]), bigraded=True)
    # on the stable rectangle h = 0 for i >= 1
    assert P.is_zero()


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
    """A graded, a weighted and (from two variables on) a bigraded ring
    in n variables."""
    names = ["x%d" % k for k in range(n)]
    rings = [RingDescriptor.graded(names),
             RingDescriptor.graded(names, weights=[rng.randint(1, 3)
                                                   for _ in names])]
    if n > 1:
        cut = rng.randint(1, n - 1)
        rings.append(RingDescriptor.bigraded(names[:cut], names[cut:]))
    return rings


def test_dimension_matches_the_subset_walk_on_monomial_ideals():
    """The pole order of the Hilbert series equals the subset walk on random
    monomial ideals up to the variable cap, over graded, weighted and
    bigraded rings, with (0) and (1) in every ring."""
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
    random monomial quotients, over graded, weighted and bigraded rings:
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
    assert ee_vector(free, 1).is_zero()
    quotient = IdealHandle(B, [xb])
    assert ee_vector(quotient, 1) == MultiplicityVector(1, (1, 0))
    zero_mod = IdealHandle(B, [B.one()])
    for q in range(3):
        assert ee_vector(zero_mod, q).is_zero()


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
        P, _ = hilbert_polynomial(I, bigraded=True)
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


@pytest.mark.parametrize("weights, gens, values, samuel", [
    ((1, 2), lambda x, y: [y], [1, 2, 3, 4, 5, 6, 7], (1, 1)),
    ((2, 3), lambda x, y: [y ** 2 - x ** 3], [1, 3, 5, 7, 9, 11, 13], (2, 1)),
], ids=["line", "cusp"])
def test_hilbert_samuel_ignores_weights(weights, gens, values, samuel):
    """Hilbert-Samuel lengths are m-adic, so the grading does not enter:
    weighted and unweighted rings give the same lengths and (e, d)."""
    for w in (None, weights):
        ring = RingDescriptor.graded("x,y", weights=w)
        M = IdealHandle(ring, gens(*ring.gens()))
        assert [hilbert_samuel(M, k) for k in range(7)] == values
        assert samuel_multiplicity(M)[:2] == samuel


def test_samuel_vs_tangent_cone(R):
    from arithdeg.constructions import initial_forms_ideal
    x, y = R.gens()
    cusp = IdealHandle(R, [y ** 2 - x ** 3])
    tc = initial_forms_ideal(cusp, range(R.nvars))
    assert classical_multiplicity(tc, 1) == 2


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
        assert P(*at) == table[at]


def test_weighted_ring_polynomials():
    W = RingDescriptor.graded("x,y,z", weights=(1, 2, 3))
    x, y, z = W.gens()
    M = IdealHandle(W, [x ** 2, y ** 2, z])
    assert artinian_length(M) == 4
    assert classical_multiplicity(M, 0) == 4
    P, cert = hilbert_polynomial(M)
    assert P.is_zero() and cert.thresholds == (9,)
    P, cert = hilbert_polynomial(IdealHandle(W, [y ** 3 - z ** 2]))
    assert P.coeffs == (0, 1) and cert.thresholds == (11,)
    # k[y, z] with weights 2 and 3: a quasi-polynomial
    with pytest.raises(UnsupportedInputError):
        hilbert_polynomial(IdealHandle(W, [x]))
