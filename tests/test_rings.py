"""Core polynomial arithmetic, term orders, and grading operations."""

import pytest
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from arithdeg.errors import (AlgebraError, NotBigradedError, RingMismatchError,
                             ZeroPolynomialError)
from arithdeg.fields import GF
from arithdeg.orders import BlockOrder, DegRevLex, Lex
from arithdeg.rings import (MAX_VARIABLES, Polynomial, RingDescriptor,
                            minimal_monomials, mono_div, mono_divides,
                            mono_lcm, mono_mul, parse_polynomial)

from helpers import WeightedDegRevLex


def initial_block_form(f, block):
    """Sum of the terms of f of minimal total exponent over the variable
    block."""
    if not f.terms:
        raise ZeroPolynomialError("initial form of the zero polynomial")
    low = min(sum(m[i] for i in block) for m in f.terms)
    return Polynomial(f.ring, {m: c for m, c in f.terms.items()
                               if sum(m[i] for i in block) == low})


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


def test_add_cancellation(R):
    x, y = R.gens()
    assert (x + y) + (-y) == x


def test_difference_of_squares(R):
    x, y = R.gens()
    assert (x + 1) * (x - 1) == x ** 2 - 1


def test_prime_field_mul():
    R5 = RingDescriptor.graded("x", field=GF(5))
    x, = R5.gens()
    assert 3 * x * (4 * x) == 2 * x ** 2


def test_ring_mismatch(R):
    other = RingDescriptor.graded("x,y,z")
    with pytest.raises(RingMismatchError):
        R.gens()[0] + other.gens()[0]


def test_leading_term_examples(R):
    x, y = R.gens()
    f = x ** 2 + x * y + y ** 2
    assert f.leading_term(DegRevLex()) == ((2, 0), Fraction(1))
    g = y ** 3 + x
    assert g.leading_term(Lex()) == ((1, 0), Fraction(1))
    h = x ** 2 * y + x * y ** 2
    assert h.leading_term(DegRevLex()) == ((2, 1), Fraction(1))


def test_leading_term_of_zero(R):
    with pytest.raises(ZeroPolynomialError):
        R.zero().leading_term(DegRevLex())


def test_bidegree():
    B = RingDescriptor.bigraded("x", "y")
    assert B.bidegree((2, 1)) == (2, 1)
    assert B.bidegree((0, 0)) == (0, 0)
    assert B.bidegree((0, 3)) == (0, 3)


def test_bidegree_needs_bigraded(R):
    with pytest.raises(NotBigradedError):
        R.bidegree((1, 0))


def test_initial_block_form(R):
    x, y = R.gens()
    f = y ** 2 - x ** 3
    assert initial_block_form(f, (0, 1)) == y ** 2
    hom = x ** 2 + x * y
    assert initial_block_form(hom, (0, 1)) == hom
    g = x * y + x ** 2
    assert initial_block_form(g, (0,)) == x * y


def test_initial_block_form_zero(R):
    with pytest.raises(ZeroPolynomialError):
        initial_block_form(R.zero(), (0,))


def test_parse_polynomial(R):
    x, y = R.gens()
    assert parse_polynomial(R, "x^2 - 2*x*y + 1/2") == x ** 2 - 2 * x * y + Fraction(1, 2)
    assert parse_polynomial(R, "(x+y)^2") == x ** 2 + 2 * x * y + y ** 2
    with pytest.raises(AlgebraError):
        parse_polynomial(R, "x + q")


def test_variable_cap():
    with pytest.raises(AlgebraError):
        RingDescriptor.graded(",".join("v%d" % i for i in range(13)))


# -- randomized algebra laws -------------------------------------------------

def _polys(ring, max_terms=4, max_exp=3, coeff_range=6):
    mono = st.tuples(*[st.integers(0, max_exp)] * ring.nvars)
    coeff = st.integers(-coeff_range, coeff_range)
    term = st.tuples(mono, coeff)
    return st.lists(term, max_size=max_terms).map(
        lambda terms: sum((ring.monomial(m, c) for m, c in terms), ring.zero()))


RING3 = RingDescriptor.graded("x,y,z")


@settings(max_examples=60, deadline=None)
@given(_polys(RING3), _polys(RING3), _polys(RING3))
def test_ring_axioms(f, g, h):
    assert (f + g) + h == f + (g + h)
    assert f + g == g + f
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h


MONO3 = st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(0, 4))


@settings(max_examples=80, deadline=None)
@given(MONO3, MONO3, MONO3)
def test_orders_multiplicative_and_global(u, v, w):
    for order in (DegRevLex(), Lex(), WeightedDegRevLex((2, 1, 3)),
                  BlockOrder([0], 3)):
        if order.key(u) < order.key(v):
            uw = tuple(a + b for a, b in zip(u, w))
            vw = tuple(a + b for a, b in zip(v, w))
            assert order.key(uw) < order.key(vw)
        assert order.key((0, 0, 0)) <= order.key(u)


@settings(max_examples=40, deadline=None)
@given(st.tuples(st.integers(0, 4), st.integers(0, 4)),
       st.tuples(st.integers(0, 4), st.integers(0, 4)))
def test_bidegree_additive(u, v):
    B = RingDescriptor.bigraded("x", "y")
    uv = tuple(a + b for a, b in zip(u, v))
    bu, bv, buv = B.bidegree(u), B.bidegree(v), B.bidegree(uv)
    assert buv == (bu[0] + bv[0], bu[1] + bv[1])


@settings(max_examples=40, deadline=None)
@given(_polys(RING3), _polys(RING3))
def test_initial_form_idempotent_multiplicative(f, g):
    block = (0, 2)
    if f:
        inf = initial_block_form(f, block)
        assert initial_block_form(inf, block) == inf
    if f and g:
        lhs = initial_block_form(f * g, block)
        rhs = initial_block_form(f, block) * initial_block_form(g, block)
        # multiplicativity holds whenever the product of initial forms
        # does not cancel (exact coefficients make this the generic case)
        if rhs:
            assert lhs == rhs


def _minimal_monomials_reference(monos):
    """The quadratic lex scan that minimal_monomials replaced: a divisor
    sorts before its multiples in ascending lex order."""
    out = []
    for m in sorted(monos):
        if all(not mono_divides(p, m) for p in out):
            out.append(m)
    return tuple(out)


def test_minimal_monomials_matches_quadratic_scan():
    """Same tuples in the same order as the lex scan, on seeded random
    inputs with duplicates, the unit monomial, mixed degrees and equal
    degrees, from 1 to 12 variables."""
    import random
    rng = random.Random(707)
    assert minimal_monomials([]) == _minimal_monomials_reference([]) == ()
    for trial in range(400):
        n = rng.randint(1, MAX_VARIABLES)
        top = rng.choice((1, 2, 4))
        monos = [tuple(rng.randint(0, top) for _ in range(n))
                 for _ in range(rng.randint(0, 30))]
        monos += rng.sample(monos, len(monos) // 3)            # duplicates
        if trial % 5 == 0:
            monos.append((0,) * n)                             # the unit
        if trial % 3 == 0:
            # an equigenerated block and its multiples
            base = [m for m in monos if sum(m) == 2] or [(2,) + (0,) * (n - 1)]
            monos += [tuple(a + b for a, b in zip(m, rng.choice(base)))
                      for m in base]
        rng.shuffle(monos)
        assert minimal_monomials(monos) == _minimal_monomials_reference(monos)
        assert minimal_monomials(iter(monos)) == minimal_monomials(set(monos))


def test_monomial_helpers_match_definitions():
    """mono_mul, mono_div, mono_lcm and mono_divides agree with their
    exponent-by-exponent definitions on seeded random tuples with zero
    exponents, equal tuples and non-divisors (mono_div is None there)."""
    import random
    rng = random.Random(1515)
    none_seen = divides_seen = 0
    for trial in range(2000):
        n = rng.randint(1, MAX_VARIABLES)
        a = tuple(rng.choice((0, 0, 1, 2, 5)) for _ in range(n))
        b = a if trial % 7 == 0 else tuple(rng.choice((0, 0, 1, 2, 5))
                                           for _ in range(n))
        assert mono_mul(a, b) == tuple(a[i] + b[i] for i in range(n))
        assert mono_lcm(a, b) == tuple(max(a[i], b[i]) for i in range(n))
        divides = all(b[i] <= a[i] for i in range(n))
        assert mono_divides(b, a) is divides
        if divides:
            divides_seen += 1
            assert mono_div(a, b) == tuple(a[i] - b[i] for i in range(n))
            assert mono_mul(mono_div(a, b), b) == a
        else:
            none_seen += 1
            assert mono_div(a, b) is None
    assert none_seen > 100 and divides_seen > 100
    zero = (0,) * 4
    assert mono_div(zero, zero) == zero and mono_divides(zero, zero) is True
    assert mono_div(zero, (0, 0, 0, 1)) is None
