"""Initial forms and tangent cones, Rees kernels, associated graded rings,
GG, and the bifiltration length oracles."""

import random
import re
from functools import reduce

import pytest

import arithdeg.constructions as constructions_mod
import arithdeg.groebner as groebner_mod
from arithdeg.constructions import (BigradedPresentation, ReesPresentation,
                                    assoc_graded, gg_presentation,
                                    initial_forms_ideal,
                                    monomial_cell_lengths, rees_kernel,
                                    relative_length)
from arithdeg.errors import (AlgebraError, InternalConsistencyError,
                             UnsupportedInputError)
from arithdeg.fields import GF, QQ
from arithdeg.groebner import (IdealHandle, extended_ring, fresh_names,
                               ideal_power, ideal_product, inject,
                               ideal_sum, maximal_ideal)
from arithdeg.hilbert import artinian_length, dimension, hilbert_value
from arithdeg.orders import BlockOrder
from arithdeg.rings import (Polynomial, RingDescriptor, mono_divides,
                            mono_mul)

from helpers import (bifiltration_length, h11_direct, h11_table,
                     hilbert_samuel, reference_monomial_cell_lengths,
                     saturate)


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


@pytest.fixture
def R1():
    return RingDescriptor.graded("x")


def test_tangent_cone_cusp(R):
    x, y = R.gens()
    tc = initial_forms_ideal(IdealHandle(R, [y ** 2 - x ** 3]), range(2))
    assert tc.equals(IdealHandle(R, [y ** 2]))


def test_tangent_cone_homogeneous_identity(R):
    x, y = R.gens()
    J = IdealHandle(R, [x ** 2 - y ** 2, x * y])
    assert initial_forms_ideal(J, range(2)).equals(J)


def test_tangent_cone_linear_case(R):
    x, y = R.gens()
    tc = initial_forms_ideal(IdealHandle(R, [x - x ** 2, y]), range(2))
    assert tc.equals(IdealHandle(R, [x, y]))


def test_tangent_cone_needs_spolys(R):
    """(x^2 + y^3, xy): generator lowest forms alone miss y^4."""
    x, y = R.gens()
    J = IdealHandle(R, [x ** 2 + y ** 3, x * y])
    tc = initial_forms_ideal(J, range(2))
    assert tc.equals(IdealHandle(R, [x ** 2, x * y, y ** 4]))
    naive = IdealHandle(R, [x ** 2, x * y])
    assert not tc.equals(naive)


def test_tangent_cone_same_samuel_function(R):
    x, y = R.gens()
    J = IdealHandle(R, [y ** 2 - x ** 5])
    tc = initial_forms_ideal(J, range(2))
    m = maximal_ideal(R)
    for k in range(6):
        mk = ideal_power(m, k + 1)
        assert (artinian_length(ideal_sum(J, mk))
                == artinian_length(ideal_sum(tc, mk)))


def test_rees_kernel_principal(R1):
    x, = R1.gens()
    rk = rees_kernel(IdealHandle(R1, []), IdealHandle(R1, [x ** 2]))
    assert rk.kernel.is_zero()
    assert rk.substitution_check()


def test_rees_kernel_koszul(R):
    x, y = R.gens()
    rk = rees_kernel(IdealHandle(R, []), maximal_ideal(R))
    gg = rk.extended
    basis = rk.kernel.groebner_basis()
    assert len(basis) == 1
    # the single relation is the Koszul one between the two generators
    g = basis[0]
    assert len(g.terms) == 2
    assert all(sum(m) == 2 for m in g.terms)


def test_rees_kernel_nilpotent_collapse(R1):
    x, = R1.gens()
    rk = rees_kernel(IdealHandle(R1, [x]), IdealHandle(R1, [x]))
    # both x and the Rees variable collapse
    q = rk.extended.gen(rk.y_indices[0])
    xg = rk.extended.gen(0)
    assert rk.kernel.contains(q)
    assert rk.kernel.contains(xg)


def test_assoc_graded_worked(R1):
    x, = R1.gens()
    gr = assoc_graded(IdealHandle(R1, []), IdealHandle(R1, [x ** 2]))
    # gr_(x^2)(k[x]) = k[x, q]/(x^2): lengths l(I^j/I^(j+1)) = 2
    for j in range(3):
        assert sum(hilbert_value(gr.ideal, (i, j)) for i in range(5)) == 2


def test_assoc_graded_maximal_is_identity(R):
    x, y = R.gens()
    J = IdealHandle(R, [x ** 2, x * y])      # already graded
    gr = gg_presentation(J, maximal_ideal(R))
    # GG = gr_m(S/J) re-bigraded: per j-slice lengths match h_{S/J}(j)
    for j in range(5):
        slice_len = sum(hilbert_value(gr.ideal, (i, j)) for i in range(4))
        assert slice_len == hilbert_value(J, j)


def test_gg_worked_example(R1):
    x, = R1.gens()
    gg = gg_presentation(IdealHandle(R1, []), IdealHandle(R1, [x ** 2]))
    for i in range(4):
        for j in range(4):
            assert gg.hilbert(i, j) == (1 if i <= 1 else 0)


def test_gg_cusp(R):
    x, y = R.gens()
    gg = gg_presentation(IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R))
    # GG for I = m: concentrated at i = 0 with the tangent-cone Hilbert row
    assert [gg.hilbert(0, j) for j in range(4)] == [1, 2, 2, 2]
    assert all(gg.hilbert(i, j) == 0 for i in (1, 2) for j in range(4))


GATE_RECT = (2, 3)

# each walk of the gate, by the name of its function, with a pair (J, I) in
# Q[x,y] that takes it: the cusp is not monomial, so it walks IdealHandles
GATE_WALKS = {
    "cell_lengths": lambda x, y: ([y ** 2 - x ** 3], [x ** 2, y]),
    "monomial_cell_lengths": lambda x, y: ([x ** 2, x * y], [x ** 2, y]),
}


def _gate_pair(R, walk):
    return (IdealHandle(R, gens) for gens in GATE_WALKS[walk](*R.gens()))


@pytest.mark.parametrize("cell", [(0, 0), (GATE_RECT[0], 0), (0, GATE_RECT[1]),
                                  GATE_RECT])
def test_gg_gate_catches_a_wrong_cell(R, monkeypatch, cell):
    """A presentation off by one at a single corner of the gate rectangle
    fails the Hilbert gate: each of the two walks reaches every corner."""
    right = BigradedPresentation.hilbert
    monkeypatch.setattr(BigradedPresentation, "hilbert",
                        lambda gg, i, j: right(gg, i, j) + ((i, j) == cell))
    for walk in GATE_WALKS:
        J, I = _gate_pair(R, walk)
        with monkeypatch.context() as patch:
            for other in set(GATE_WALKS) - {walk}:
                patch.setattr(constructions_mod, other,
                              lambda *args: pytest.fail("took the other walk"))
            patch.setattr(constructions_mod, "gate_rectangle",
                          lambda J: GATE_RECT)
            with pytest.raises(InternalConsistencyError,
                               match=re.escape("gate fails at (%d,%d)" % cell)):
                gg_presentation(J, I)


@pytest.mark.parametrize("walk", ["cell_lengths"])
def test_gg_gate_checks_lower_inside_upper(R, monkeypatch, walk):
    """The walk on IdealHandles raises AlgebraError, as relative_length
    does, when a cell's lower ideal is not inside its upper one: here
    relative_length gets each cell's upper and lower swapped.  The counting
    walk forms no upper or lower ideal (see the test below)."""
    J, I = _gate_pair(R, walk)
    right = constructions_mod.relative_length
    monkeypatch.setattr(constructions_mod, "relative_length",
                        lambda upper, lower: right(lower, upper))
    with pytest.raises(AlgebraError, match="V inside U"):
        list(getattr(constructions_mod, walk)(J, I, GATE_RECT))


def test_gg_gate_catches_a_miscounted_chain(R, monkeypatch):
    """A counting walk that keeps chain generators inside J + I^(j+1)
    (here: no generator of J + I^(j+1) ever divides one properly) fails the
    GG gate with InternalConsistencyError at its first wrong cell."""
    J, I = _gate_pair(R, "monomial_cell_lengths")
    right = dict(reference_monomial_cell_lengths(J, I, GATE_RECT))
    monkeypatch.setattr(constructions_mod, "mono_divides", lambda a, b: False)
    monkeypatch.setattr(constructions_mod, "gate_rectangle",
                        lambda J: GATE_RECT)
    wrong = [cell for cell, length in monomial_cell_lengths(J, I, GATE_RECT)
             if length != right[cell]]
    assert wrong
    with pytest.raises(InternalConsistencyError,
                       match=re.escape("gate fails at (%d,%d)" % wrong[0])):
        gg_presentation(J, I)


def _random_monomial_pairs(rng):
    """Monomial pairs (J, I) over 2-4 variables: J = (0), pure powers,
    equigenerated and mixed-degree I, and J holding a generator of I^j."""
    for _ in range(40):
        n = rng.randint(2, 4)
        ring = RingDescriptor.graded(",".join("xyzw"[:n]))

        def mono(degree):
            e = [0] * n
            for _ in range(degree):
                e[rng.randrange(n)] += 1
            return tuple(e)
        kind = rng.choice(["powers", "equigenerated", "mixed"])
        if kind == "powers":
            I = [tuple(rng.randint(1, 3) * (k == v) for k in range(n))
                 for v in rng.sample(range(n), rng.randint(1, n))]
        elif kind == "equigenerated":
            d = rng.randint(1, 2)
            I = [mono(d) for _ in range(rng.randint(1, 4))]
        else:
            I = [mono(rng.randint(1, 3)) for _ in range(rng.randint(2, 4))]
        J = rng.choice([
            [],
            [mono(rng.randint(2, 4)) for _ in range(rng.randint(1, 3))],
            # a product of j generators of I: a generator of I^j, or a
            # multiple of one, lies in J
            [reduce(mono_mul, rng.choices(I, k=rng.randint(1, 2)))]])
        yield tuple(IdealHandle(ring, [ring.monomial(e) for e in gens])
                    for gens in (J, I))


def test_counting_walk_matches_the_numerator_walk():
    """On seeded monomial pairs in 2-4 variables, every cell of the
    counting walk equals the numerator walk's, on rectangles up to (3, 3);
    some pairs have a generator of I^j in J, where the chain of cell (0, j)
    must drop it."""
    rng = random.Random(30)
    dropped = 0
    for J, I in _random_monomial_pairs(rng):
        rect = (rng.randint(0, 3), rng.randint(0, 3))
        counted = list(monomial_cell_lengths(J, I, rect))
        assert counted == list(reference_monomial_cell_lengths(J, I, rect)), \
            (J, I, rect)
        gens_J = [next(iter(g.terms)) for g in J.gens]
        dropped += any(mono_divides(a, next(iter(g.terms)))
                       for j in range(1, rect[1] + 1)
                       for g in ideal_power(I, j).gens for a in gens_J)
    assert dropped >= 10


def test_counting_walk_tests_only_lower_degree_divisors(monkeypatch):
    """A proper divisor has strictly lower total degree, so the counting
    walk tests a chain generator only against generators of J + I^(j+1) of
    lower degree: equal ones are caught by membership."""
    rng = random.Random(31)
    divides = constructions_mod.mono_divides
    calls = []

    def checked(a, b):
        assert sum(a) < sum(b), (a, b)
        calls.append(1)
        return divides(a, b)
    monkeypatch.setattr(constructions_mod, "mono_divides", checked)
    for J, I in _random_monomial_pairs(rng):
        list(monomial_cell_lengths(J, I, (3, 3)))
    assert calls


def test_antichain_walk_matches_relative_length():
    """On random monomial pairs in Q[x,y,z], every cell length of the
    antichain walk equals relative_length on IdealHandles of the cell's
    upper and lower ideals, each built from scratch."""
    import random
    R3 = RingDescriptor.graded("x,y,z")
    m = maximal_ideal(R3)
    rng = random.Random(5)

    def monomials(low, high):
        out, count = [], rng.randint(low, high)
        while len(out) < count:
            e = tuple(rng.randint(0, 2) for _ in range(3))
            if any(e):
                out.append(R3.monomial(e))
        return out
    rect = (2, 2)
    for _ in range(20):
        J = IdealHandle(R3, monomials(0, 3))
        I = IdealHandle(R3, monomials(1, 3))
        walked = dict(monomial_cell_lengths(J, I, rect))
        assert list(walked) == [(i, j) for j in range(rect[1] + 1)
                                for i in range(rect[0] + 1)]
        for (i, j), length in walked.items():
            base = ideal_sum(J, ideal_power(I, j + 1))
            chain = ideal_product(ideal_power(m, i), ideal_power(I, j))
            upper = ideal_sum(base, chain)
            lower = ideal_sum(base, ideal_product(m, chain))
            assert length == relative_length(upper, lower), (J, I, i, j)


def test_gg_gate_builds_each_product_once(R, monkeypatch):
    """The gate walks m^i*I^j along chains: one product per cell and one
    power per row, (a+2)(b+1) products for the rectangle (a, b).  The cusp
    J is not monomial, so this is the walk on IdealHandles."""
    x, y = R.gens()
    J = IdealHandle(R, [y ** 2 - x ** 3])
    I = IdealHandle(R, [x ** 2, y])
    calls = []
    product = groebner_mod.ideal_product

    def counted(A, B):
        calls.append(1)
        return product(A, B)
    monkeypatch.setattr(groebner_mod, "ideal_product", counted)
    monkeypatch.setattr(constructions_mod, "ideal_product", counted)
    monkeypatch.setattr(constructions_mod, "gate_rectangle",
                        lambda J: GATE_RECT)
    a, b = GATE_RECT
    gg_presentation(J, I)
    assert 0 < len(calls) <= (a + 2) * (b + 1)


def test_gg_dimension_transfer(R):
    x, y = R.gens()
    for gens, I in (([y ** 2 - x ** 3], maximal_ideal(R)),
                    ([x ** 2, x * y], maximal_ideal(R)),
                    ([], IdealHandle(R, [x ** 2, x * y]))):
        J = IdealHandle(R, gens)
        gr = assoc_graded(J, I)
        assert dimension(gr.ideal) == dimension(J)


# the benchmark's ext verify pairs: J in Q[x,y,z] with I = (x^2, xy, y^2, xz)
EXT_PAIRS = (("x^2", "x^2, x*y, y^2, x*z"), ("y^2", "x^2, x*y, y^2, x*z"))


def test_gg_is_gr_when_gr_is_bigraded(R):
    """GG hands out gr_I's own handle when gr_I's ideal L is bigraded: on
    the ext pairs, on the curve germs, whose L has inhomogeneous generators
    but a bihomogeneous reduced basis, and on J = 0 with I = (x^2, y^3).
    For I = (x + y^2) or (x^2, xy, y^3), L is not bigraded, and GG is the
    ideal of x-block initial forms."""
    x, y = R.gens()
    R3 = RingDescriptor.graded("x,y,z")
    bigraded = [(IdealHandle(R3, [j]), IdealHandle(R3, i.split(", ")))
                for j, i in EXT_PAIRS]
    bigraded += [(IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R)),
                 (IdealHandle(R, [y - x ** 2]), maximal_ideal(R)),
                 (IdealHandle(R, []), IdealHandle(R, [x ** 2, y ** 3]))]
    for J, I in bigraded:
        gg = gg_presentation(J, I)
        assert gg.ideal is gg.gr.ideal, (J, I)
        assert gg.ideal.is_bihomogeneous()
    for J, I in ((IdealHandle(R, [y ** 2 - x ** 3]), IdealHandle(R, [x + y ** 2])),
                 (IdealHandle(R, []), IdealHandle(R, [x ** 2, x * y, y ** 3]))):
        gg = gg_presentation(J, I)
        assert gg.ideal is not gg.gr.ideal
        assert not gg.gr.ideal.is_bihomogeneous()
        assert gg.ideal.gens == initial_forms_ideal(gg.gr.ideal,
                                                    gg.ring.x_block).gens


def _random_exponents(rng, nvars, degree):
    exps = [0] * nvars
    for _ in range(degree):
        exps[rng.randrange(nvars)] += 1
    return exps


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Zp7"])
def test_gg_collapse_against_initial_forms(field):
    """On seeded pairs of a homogeneous J and a monomial I in Q[x,y,z] or
    Zp(7)[x,y,z], I equigenerated or a staircase x^a_k*y^b_k of three
    generators: when GG is gr_I's own handle, the x-block initial forms of
    gr_I's ideal have its reduced degrevlex basis; otherwise GG's ideal is
    those initial forms, generator for generator."""
    rng = random.Random(37)
    ring = RingDescriptor.graded("x,y,z", field=field)
    collapsed = formed = 0
    for _ in range(16):
        degree = rng.randint(2, 3)
        J = [_random_polynomial(rng, ring, degree, min_deg=degree)
             for _ in range(rng.randint(0, 1))]
        if rng.random() < 0.5:
            degree = rng.randint(1, 2)
            I = [ring.monomial(_random_exponents(rng, 3, degree))
                 for _ in range(rng.randint(1, 3))]
        else:
            a = sorted(rng.sample(range(1, 4), 2), reverse=True) + [0]
            b = [0] + sorted(rng.sample(range(1, 4), 2))
            I = [ring.monomial([p, q, 0]) for p, q in zip(a, b)]
        gg = gg_presentation(IdealHandle(ring, J), IdealHandle(ring, I))
        forms = initial_forms_ideal(gg.gr.ideal, gg.ring.x_block)
        if gg.ideal is gg.gr.ideal:
            assert forms.groebner_basis() == gg.ideal.groebner_basis()
            collapsed += 1
        else:
            assert gg.ideal.gens == forms.gens
            formed += 1
    assert collapsed >= 5 and formed >= 3


def test_bifiltration_univariate(R1):
    x, = R1.gens()
    J = IdealHandle(R1, [])
    I = IdealHandle(R1, [x ** 2])
    for i in range(6):
        for j in range(4):
            assert bifiltration_length(J, I, i, j) == min(i + 1, 2 * j + 2)


def test_bifiltration_stabilizes_to_length(R):
    x, y = R.gens()
    J = IdealHandle(R, [x ** 2, x * y, y ** 2])   # Artinian, length 3
    I = maximal_ideal(R)
    assert bifiltration_length(J, I, 8, 8) == 3


def test_bifiltration_hilbert_samuel_consistency(R):
    x, y = R.gens()
    J = IdealHandle(R, [y ** 2 - x ** 3])
    I = maximal_ideal(R)
    for i in range(5):
        # j = 0 with I = m: l(S/(J + m^(i+1) + m)) degenerates to l(S/(J+m))
        assert bifiltration_length(J, I, i, 0) == hilbert_samuel(J, 0)


def test_h11_direct_univariate(R1):
    x, = R1.gens()
    J = IdealHandle(R1, [])
    I = IdealHandle(R1, [x ** 2])
    for j in range(3):
        assert h11_direct(J, I, 7, j) == 2 * (j + 1)


def test_h11_direct_matches_gg(R):
    x, y = R.gens()
    cases = [
        (IdealHandle(R, []), IdealHandle(R, [x ** 2, x * y])),
        (IdealHandle(R, [x ** 2, x * y]), maximal_ideal(R)),
        (IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R)),
    ]
    for J, I in cases:
        gg = gg_presentation(J, I)
        table = h11_table(gg.ideal, 3, 3)
        for i in range(4):
            for j in range(4):
                assert h11_direct(J, I, i, j) == table[(i, j)]


def test_h11_diagonal_comparison(R):
    """H^(1,1)_{I,M}(i,i) >= H^(1,1)_{m,M}(i,i): the diagonal step of the
    corollary, checked as a theorem."""
    x, y = R.gens()
    J = IdealHandle(R, [])
    I = IdealHandle(R, [x ** 2, x * y])
    m = maximal_ideal(R)
    for i in range(4):
        assert h11_direct(J, I, i, i) >= h11_direct(J, m, i, i)


def test_relative_length(R):
    x, y = R.gens()
    U = IdealHandle(R, [x])
    V = IdealHandle(R, [x ** 2, x * y])
    # (x)/(x^2, xy) has length 1
    assert relative_length(U, V) == 1


def test_relative_length_inhomogeneous(R):
    """One path for every input: (x)/(x^2 - x, xy) is spanned by x, while
    (x)/(x^2 - x) has infinite length."""
    x, y = R.gens()
    U = IdealHandle(R, [x])
    assert relative_length(U, IdealHandle(R, [x ** 2 - x, x * y])) == 1
    with pytest.raises(AlgebraError):
        relative_length(U, IdealHandle(R, [x ** 2 - x]))


def test_initial_forms_block(R):
    x, y = R.gens()
    # x-block lowest forms of (x + y^2): block {x}
    I = IdealHandle(R, [x + y ** 2])
    forms = initial_forms_ideal(I, [0])
    assert forms.equals(IdealHandle(R, [y ** 2]))


def _saturated_initial_forms(I, block):
    """Reference route for initial_forms_ideal: homogenize in the block
    grading with a trailing t, saturate by t, take the t-first basis,
    dehomogenize at t = 1 and keep the lowest block forms."""
    ring, n = I.ring, I.ring.nvars
    big = extended_ring(ring, fresh_names(ring, "t_", 1))
    homogenized = []
    for g in I.gens:
        top = max(sum(m[i] for i in block) for m in g.terms)
        homogenized.append(Polynomial(big, {
            m + (top - sum(m[i] for i in block),): c
            for m, c in g.terms.items()}))
    Hs = saturate(IdealHandle(big, homogenized), big.gen(n))
    forms = []
    for g in Hs.groebner_basis(BlockOrder([n], big.nvars)):
        dehomogenized = sum((ring.monomial(m[:n], c) for m, c in g.terms.items()),
                            ring.zero())
        if dehomogenized:
            low = min(sum(m[i] for i in block) for m in dehomogenized.terms)
            forms.append(Polynomial(ring, {
                m: c for m, c in dehomogenized.terms.items()
                if sum(m[i] for i in block) == low}))
    return IdealHandle(ring, forms)


def _random_polynomial(rng, ring, max_deg=3, max_terms=3, min_deg=0):
    poly = ring.zero()
    for _ in range(rng.randint(1, max_terms)):
        exps = [0] * ring.nvars
        for _ in range(rng.randint(min_deg, max_deg)):
            exps[rng.randrange(ring.nvars)] += 1
        poly = poly + ring.monomial(exps, rng.randint(-3, 3))
    return poly


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Zp7"])
def test_initial_forms_match_the_saturated_route(field):
    """One basis of the homogenized generators gives the same initial-form
    ideal as the saturated route, on seeded ideals with inhomogeneous
    generators (unit ideals among them) and block = all variables."""
    rng = random.Random(16)
    R3 = RingDescriptor.graded("x,y,z", field=field)
    block = range(3)
    checked = 0
    for _ in range(15):
        gens = [_random_polynomial(rng, R3) for _ in range(rng.randint(1, 3))]
        I = IdealHandle(R3, gens)
        # the drawn generators, since a unit ideal's handle keeps only 1
        if I.is_zero() or all(g.is_homogeneous() for g in gens):
            continue
        forms = initial_forms_ideal(I, block)
        assert forms.equals(_saturated_initial_forms(I, tuple(block)))
        checked += 1
    assert checked >= 10


def test_initial_forms_of_assoc_graded_match_the_saturated_route():
    """On the x-block of gr_I(S/J) for seeded pairs with J + I inside m,
    so proper, the one-basis route and the saturated route give the same
    ideal, and on most pairs that ideal is not gr_I(S/J)'s own."""
    rng = random.Random(61)
    R2 = RingDescriptor.graded("x,y")
    checked = changed = 0
    while checked < 10:
        J = IdealHandle(R2, [_random_polynomial(rng, R2, min_deg=1)
                             for _ in range(rng.randint(0, 2))])
        I = IdealHandle(R2, [_random_polynomial(rng, R2, max_deg=2, min_deg=1)
                             for _ in range(rng.randint(1, 2))])
        if I.is_zero():
            continue
        gr = assoc_graded(J, I)
        block = gr.ring.x_block
        forms = initial_forms_ideal(gr.ideal, block)
        assert forms.equals(_saturated_initial_forms(gr.ideal, tuple(block)))
        changed += not forms.equals(gr.ideal)
        checked += 1
    assert changed >= 5


def test_unit_initial_forms_ideal_is_generated_by_one():
    """For J = (-x*y - 3x) and I = (-x + 1) in Q[x,y], J + I is proper
    (both vanish at x = 0) but the x-block forms of gr_I(S/J)'s ideal
    generate the unit ideal; a basis element of top t-degree is a nonzero
    constant, and the handle lists (1) alone, not (1, 1/3*x*y + x^2).
    gr_I's own ideal L = Rees kernel + I + J receives both x*y + 3x (from
    the kernel) and -x*y - 3x (from J), and its handle keeps the first."""
    R2 = RingDescriptor.graded("x,y")
    gr = assoc_graded(IdealHandle(R2, ["-x*y - 3*x"]),
                      IdealHandle(R2, ["-x + 1"]))
    assert repr(gr.ideal) == "(-x + 1, x*y + 3*x)"
    forms = initial_forms_ideal(gr.ideal, gr.ring.x_block)
    assert forms.gens == (gr.ring.one(),)
    assert repr(forms) == "(1)"
    assert forms.is_unit()


def test_initial_forms_take_one_basis(R, monkeypatch):
    """initial_forms_ideal runs Buchberger once: no saturation and no
    elimination."""
    x, y = R.gens()
    calls = []
    buchberger = groebner_mod.buchberger

    def counted(*args, **kw):
        calls.append(1)
        return buchberger(*args, **kw)
    monkeypatch.setattr(groebner_mod, "buchberger", counted)
    forms = initial_forms_ideal(IdealHandle(R, [x ** 2 + y ** 3, x * y]),
                                range(2))
    assert len(calls) == 1
    assert forms.equals(IdealHandle(R, [x ** 2, x * y, y ** 4]))


def test_unit_pair_is_an_input_error(R):
    """J + I = (1) makes gr_I(S/J) zero: the dimension gate reports it as
    an input outside the theory, not as an internal inconsistency."""
    x, y = R.gens()
    for J, I in ((IdealHandle(R, [x ** 2 * y]),
                  IdealHandle(R, [-2 * x * y ** 2 - 1])),
                 (IdealHandle(R, []), IdealHandle(R, [R.one()]))):
        with pytest.raises(UnsupportedInputError, match=r"J \+ I"):
            gg_presentation(J, I)


def test_substitution_check_runs(R):
    x, y = R.gens()
    rk = rees_kernel(IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R))
    assert rk.substitution_check()


def _maps_into_j(rees, g):
    """Reference route: y_j -> t*f_j into S[t] by Polynomial.substitute,
    then membership in J*S[t]."""
    S = rees.J.ring
    St = extended_ring(S, fresh_names(S, "t_", 1))
    t = St.gen(S.nvars)
    images = St.gens()[:S.nvars] + [t * inject(f, St) for f in rees.maps]
    JSt = IdealHandle(St, [inject(h, St) for h in rees.J.gens])
    return JSt.contains(g.substitute(St, images))


def _with_kernel(rees, gens):
    return ReesPresentation(rees.J, rees.extended,
                            IdealHandle(rees.extended, gens), rees.maps,
                            rees.y_indices)


def test_substitution_check_catches_a_generator_outside_the_kernel(R):
    x, y = R.gens()
    rk = rees_kernel(IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R))
    gg = rk.extended
    q1 = gg.gen(rk.y_indices[0])
    # the image of q1 - f_1 is (t - 1)*f_1: zero at t = 1, not in (S/J)[t]
    for extra in (q1 - gg.gen(0), q1 - inject(rk.maps[0], gg)):
        bad = _with_kernel(rk, list(rk.kernel.gens) + [extra])
        assert not _maps_into_j(bad, extra)
        with pytest.raises(InternalConsistencyError):
            bad.substitution_check()


def test_substitution_check_agrees_with_substitution_into_s_t():
    """On seeded homogeneous J in Q[x,y,z], with I = m or a random monomial
    ideal, the check against J passes and raises together with the
    reference route, on the kernel itself and with one generator
    perturbed by a term q_j*x_i."""
    rng = random.Random(15)
    R3 = RingDescriptor.graded("x,y,z")

    def rand_form(d):
        mons = [(a, b, d - a - b) for a in range(d + 1) for b in range(d + 1 - a)]
        return sum((R3.monomial(rng.choice(mons), rng.randint(1, 3))
                    for _ in range(rng.randint(1, 3))), R3.zero())

    raised = 0
    for k in range(20):
        J = IdealHandle(R3, [rand_form(rng.randint(2, 3))
                             for _ in range(rng.randint(1, 2))])
        I = maximal_ideal(R3) if k % 2 == 0 else IdealHandle(R3, [
            R3.monomial(tuple(rng.randint(0, 2) for _ in range(3)))
            for _ in range(rng.randint(1, 2))])
        rk = rees_kernel(J, I)                  # runs the check: passes
        assert all(_maps_into_j(rk, g) for g in rk.kernel.gens)
        gg = rk.extended
        gens = list(rk.kernel.gens)
        pick = rng.randrange(len(gens))
        gens[pick] = gens[pick] + (gg.gen(rng.choice(rk.y_indices))
                                   * gg.gen(rng.randrange(3)))
        bad = _with_kernel(rk, gens)
        reference = all(_maps_into_j(bad, g) for g in bad.kernel.gens)
        try:
            passed = bad.substitution_check()
        except InternalConsistencyError:
            passed = False
        assert passed == reference
        raised += not passed
    assert 0 < raised < 20
