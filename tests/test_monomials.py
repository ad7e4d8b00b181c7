"""Standard pairs, the primes read off them, and the irreducible
decomposition that serves as their reference."""

import itertools
import random
from functools import reduce

import pytest

from arithdeg.errors import InternalConsistencyError, WrongOracleError
from arithdeg.groebner import IdealHandle
from arithdeg.monomials import (StandardPair, adeg_monomial, decompose,
                                local_length_by_pairs, minimal_generators,
                                standard_pairs)
from arithdeg.rings import RingDescriptor, mono_divides

from helpers import ReferenceDecomposition, covers, monomial_intersection


def check_standard_cover(I, box=6):
    """Brute-force gate: on the exponent box the standard-pair cells cover
    exactly the standard monomials.  Raises on any mismatch."""
    gens = minimal_generators(I)
    pairs = standard_pairs(I)
    for m in itertools.product(range(box + 1), repeat=I.ring.nvars):
        standard = not any(mono_divides(g, m) for g in gens)
        covered = any(covers(p, m) for p in pairs)
        if standard != covered:
            raise InternalConsistencyError(
                "standard-pair cover fails at %r (standard=%s covered=%s)"
                % (m, standard, covered))


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


def test_standard_pairs_x2_xy(R):
    x, y = R.gens()
    pairs = standard_pairs(IdealHandle(R, [x ** 2, x * y]))
    assert pairs == [StandardPair((0, 0), (1,)), StandardPair((1, 0), ())]


def test_standard_pairs_xy(R):
    x, y = R.gens()
    pairs = standard_pairs(IdealHandle(R, [x * y]))
    assert pairs == [StandardPair((0, 0), (0,)), StandardPair((0, 0), (1,))]


def test_standard_pairs_univariate():
    R1 = RingDescriptor.graded("x")
    x, = R1.gens()
    pairs = standard_pairs(IdealHandle(R1, [x]))
    assert pairs == [StandardPair((0,), ())]


def test_standard_pairs_need_monomial(R):
    x, y = R.gens()
    with pytest.raises(WrongOracleError):
        standard_pairs(IdealHandle(R, [x + y]))


def test_adeg_examples(R):
    x, y = R.gens()
    assert adeg_monomial(IdealHandle(R, [x ** 2, x * y])) == [1, 1, 0]
    assert adeg_monomial(IdealHandle(R, [x * y])) == [0, 2, 0]
    assert adeg_monomial(IdealHandle(R, [])) == [0, 0, 1]


def test_cover_brute_force(R):
    x, y = R.gens()
    for gens in ([x ** 2, x * y], [x * y], [], [x ** 3, x * y ** 2, y ** 4]):
        check_standard_cover(IdealHandle(R, gens), box=6)
    R3 = RingDescriptor.graded("x,y,z")
    x3, y3, z3 = R3.gens()
    for gens in ([x3 * y3, y3 ** 2 * z3], [x3 * y3 * z3],
                 [x3 ** 2, y3 ** 3, x3 * z3]):
        check_standard_cover(IdealHandle(R3, gens), box=5)


def test_pair_maximality(R):
    """No returned cell is contained in another admissible cell."""
    x, y = R.gens()
    I = IdealHandle(R, [x ** 3, x * y ** 2])
    pairs = standard_pairs(I)
    for p, q in itertools.permutations(pairs, 2):
        assert not p.contained_in(q)


def test_decompose_x2_xy(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    dec = decompose(I)
    ref = ReferenceDecomposition(I)
    supports = sorted(sorted(c.bounds.items()) for c in ref.components)
    assert supports == [[(0, 1)], [(0, 2), (1, 1)]]   # (x) and (x^2, y)
    assert sorted(map(sorted, dec.associated_primes)) == [[0], [0, 1]]
    assert [sorted(p) for p in dec.embedded_primes] == [[0, 1]]


def test_decompose_radical(R):
    x, y = R.gens()
    dec = decompose(IdealHandle(R, [x * y]))
    assert sorted(map(sorted, dec.associated_primes)) == [[0], [1]]
    assert dec.embedded_primes == ()


def test_decompose_irreducible(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2])
    ref = ReferenceDecomposition(I)
    assert len(ref.components) == 1
    assert ref.components[0].bounds == {0: 2}
    assert decompose(I).associated_primes == (frozenset({0}),)


def test_decomposition_and_pairs_live_on_the_handle(R):
    """One decomposition and one standard-pair set per handle, and no
    caller can change what the handle keeps."""
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    assert decompose(I) is decompose(I)
    assert decompose(IdealHandle(R, I.gens)) is not decompose(I)
    pairs = standard_pairs(I)
    pairs.clear()
    assert standard_pairs(I) and standard_pairs(I) is not standard_pairs(I)


def test_cached_decomposition_is_immutable(R):
    """The decomposition kept on the handle holds tuples, so no caller can
    empty what later callers read."""
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    dec = decompose(I)
    before = dec.associated_primes
    for primes in (dec.associated_primes, dec.minimal_primes,
                   dec.embedded_primes):
        assert isinstance(primes, tuple) and primes
        with pytest.raises(AttributeError):
            primes.clear()
    assert decompose(I).associated_primes == before
    assert sorted(map(sorted, before)) == [[0], [0, 1]]


def test_decompose_intersection_exact():
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    I = IdealHandle(R3, [x * y ** 2, y * z ** 3, x ** 2 * z])
    ref = ReferenceDecomposition(I)
    gens = minimal_generators(I)
    inter = ref.components[0].generators()
    for c in ref.components[1:]:
        inter = monomial_intersection(inter, c.generators())
    assert set(inter) == set(gens)


def test_local_lengths(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    assert local_length_by_pairs(I, (0, 1)) == 1   # at (x, y)
    assert local_length_by_pairs(I, (0,)) == 1     # at (x)
    assert local_length_by_pairs(I, (1,)) == 0     # (y) not associated


def test_adeg_counts_vs_primes():
    """sum_i adeg_i >= #associated primes, equality iff all local lengths 1."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    for gens in ([x * y, y ** 2 * z], [x ** 2, x * y], [x * y],
                 [x ** 3, x ** 2 * y]):
        I = IdealHandle(R3, gens)
        dec = decompose(I)
        total = sum(adeg_monomial(I))
        assert total >= len(dec.associated_primes)
        lengths = [local_length_by_pairs(I, supp)
                   for supp in dec.associated_primes]
        if all(L == 1 for L in lengths):
            assert total == len(dec.associated_primes)
        else:
            assert total > len(dec.associated_primes)


def test_decomposition_components_are_irredundant():
    """Seeded random monomial ideals: the reference's components intersect
    back to the ideal, and leaving out any one irreducible or primary
    component leaves a strictly larger intersection."""
    rng = random.Random(2004)
    R4 = RingDescriptor.graded("x,y,z,w")
    for _ in range(60):
        gens = [R4.monomial(tuple(rng.randint(0, 3) for _ in range(4)))
                for _ in range(rng.randint(1, 5))]
        I = IdealHandle(R4, [g for g in gens if not g.is_constant()])
        if I.is_zero():
            continue
        ref = ReferenceDecomposition(I)
        minimal = set(minimal_generators(I))
        for parts in ([c.generators() for c in ref.components],
                      [g for _, g in ref.primary]):
            assert set(reduce(monomial_intersection, parts)) == minimal
            for k in range(len(parts)):
                others = parts[:k] + parts[k + 1:]
                if others:
                    assert set(reduce(monomial_intersection, others)) != minimal


def test_primes_and_filtration_off_the_pairs_match_the_decomposition():
    """Seeded sweep over 2-5 variables, with the zero ideal, pure powers and
    random ideals: decompose's prime tuples, in order, equal the
    irreducible decomposition's.  The unit ideal has none."""
    rng = random.Random(1995)
    for n in range(2, 6):
        ring = RingDescriptor.graded(",".join("x%d" % k for k in range(n)))
        ideals = [[], [ring.gen(0) ** 3], [g ** 2 for g in ring.gens()]]
        for _ in range(40 if n < 5 else 15):
            top = 3 if n < 5 else 2
            ideals.append([
                ring.monomial(tuple(rng.randint(0, top) for _ in range(n)))
                for _ in range(rng.randint(1, 5))])
        for gens in ideals:
            I = IdealHandle(ring, [g for g in gens if not g.is_constant()])
            dec, ref = decompose(I), ReferenceDecomposition(I)
            assert dec.associated_primes == ref.associated_primes, gens
            assert dec.minimal_primes == ref.minimal_primes, gens
            assert dec.embedded_primes == ref.embedded_primes, gens
        unit = IdealHandle(ring, [ring.one()])
        for oracle in (decompose, ReferenceDecomposition):
            with pytest.raises(WrongOracleError):
                oracle(unit)
