"""Binomial-basis numerical polynomials and the difference calculus."""

import pytest
from hypothesis import given, settings, strategies as st

from arithdeg.errors import AlgebraError
from arithdeg.numerical import (MultiplicityVector, NumericalPoly1,
                                NumericalPoly2, binom)

from helpers import evaluate2, interpolate_poly1


def test_binom_generalized():
    assert binom(5, 2) == 10
    assert binom(3, 5) == 0
    assert binom(-1, 2) == 1
    assert binom(-2, 3) == -4
    assert binom(7, 0) == 1
    assert binom(-3, 0) == 1


def test_difference_examples():
    P = NumericalPoly2({(1, 1): 1})
    assert P.difference(1, 1) == NumericalPoly2({(0, 0): 1})
    Q = NumericalPoly2({(2, 0): 1})
    assert Q.difference(2, 0) == NumericalPoly2({(0, 0): 1})
    assert Q.difference(0, 1) == NumericalPoly2({})
    with pytest.raises(AlgebraError):
        Q.difference(-1, 0)


COEFFS = st.dictionaries(
    st.tuples(st.integers(0, 4), st.integers(0, 4)),
    st.integers(-6, 6), max_size=8)


@settings(max_examples=100, deadline=None)
@given(COEFFS, st.integers(0, 2), st.integers(0, 2),
       st.integers(0, 2), st.integers(0, 2))
def test_difference_composition(coeffs, r, s, m, n):
    P = NumericalPoly2(coeffs)
    assert P.difference(m, n).difference(r, s) == P.difference(r + m, s + n)


@settings(max_examples=50, deadline=None)
@given(COEFFS)
def test_difference_matches_pointwise(coeffs):
    P = NumericalPoly2(coeffs)
    D10 = P.difference(1, 0)
    D01 = P.difference(0, 1)
    for mm in range(-2, 4):
        for nn in range(-2, 4):
            at = evaluate2(P, mm, nn)
            assert evaluate2(D10, mm, nn) == at - evaluate2(P, mm - 1, nn)
            assert evaluate2(D01, mm, nn) == at - evaluate2(P, mm, nn - 1)


def test_interpolation_round_trip():
    P1 = NumericalPoly1([3, -2, 5])
    values = [P1(m) for m in range(4, 12)]
    assert interpolate_poly1(values[:5], 4).coeffs == P1.coeffs


def test_multiplicity_vector():
    v = MultiplicityVector(2, (1, 2, 3))
    w = MultiplicityVector(2, (0, 1, -1))
    assert (v + w).components == (1, 3, 2)
    assert v.scale(2).components == (2, 4, 6)
    assert v.total() == 6
    assert MultiplicityVector.zero(3).components == (0, 0, 0, 0)
    with pytest.raises(AlgebraError):
        MultiplicityVector(1, (1, 2, 3))
    with pytest.raises(AlgebraError):
        v + MultiplicityVector(1, (1, 1))


def test_top_coefficients():
    P = NumericalPoly2({(0, 2): 4, (1, 1): 5, (2, 0): 6, (0, 0): 9})
    assert P.top_coefficients(2) == (4, 5, 6)
    assert P.total_degree == 2
