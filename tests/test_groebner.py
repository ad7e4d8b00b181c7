"""Groebner engine: bases, normal forms, and ideal arithmetic.

The elimination examples are checked against independent oracles: a
Sylvester resultant for the 2-variable lex basis and a lattice-kernel
enumeration for the toric kernel.
"""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from arithdeg.errors import ResourceLimitError, RingMismatchError
from arithdeg.fields import GF, QQ, PrimeFieldElement
from arithdeg.groebner import (_POLY, IdealHandle, _divide, _divide_pair,
                               _int_form, _Packer, _poly_sort_key, _Slots,
                               _s_element, buchberger, eliminate,
                               ideal_product, ideal_sum, maximal_ideal,
                               normal_form, s_polynomial)
from arithdeg.orders import BlockOrder, DegRevLex, Lex
from arithdeg.rings import (Polynomial, RingDescriptor, parse_polynomial,
                            terms_key)

from helpers import WeightedDegRevLex, intersect, saturate


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


def sylvester_resultant_in_y(f, g, R):
    """Res_x of two polynomials in Q[x,y], an independent elimination oracle.

    Builds the Sylvester matrix over Q[y] and expands the determinant by
    brute force (fine at this size)."""
    x_index = 0

    def coeffs_in_x(p):
        byx = {}
        for m, c in p.terms.items():
            byx.setdefault(m[x_index], {})[m] = c
        degx = max(byx)
        out = []
        for e in range(degx + 1):
            terms = {(0, m[1]): c for m, c in byx.get(e, {}).items()}
            out.append(terms)
        return out

    fc, gc = coeffs_in_x(f), coeffs_in_x(g)
    n, m = len(fc) - 1, len(gc) - 1
    size = n + m
    rows = []
    for i in range(m):
        row = [{} for _ in range(size)]
        for k, c in enumerate(reversed(fc)):
            row[i + k] = c
        rows.append(row)
    for i in range(n):
        row = [{} for _ in range(size)]
        for k, c in enumerate(reversed(gc)):
            row[i + k] = c
        rows.append(row)

    def poly_mul(a, b):
        out = {}
        for ma, ca in a.items():
            for mb, cb in b.items():
                key = (0, ma[1] + mb[1])
                out[key] = out.get(key, Fraction(0)) + ca * cb
        return {k: v for k, v in out.items() if v}

    def det(mat):
        k = len(mat)
        if k == 1:
            return mat[0][0]
        total = {}
        for j in range(k):
            entry = mat[0][j]
            if not entry:
                continue
            minor = [row[:j] + row[j + 1:] for row in mat[1:]]
            sub = det(minor)
            prod = poly_mul(entry, sub)
            sign = 1 if j % 2 == 0 else -1
            for key, val in prod.items():
                total[key] = total.get(key, Fraction(0)) + sign * val
        return {k2: v for k2, v in total.items() if v}

    from arithdeg.rings import Polynomial
    return Polynomial(R, det(rows))


def test_lex_basis_matches_resultant_oracle(R):
    x, y = R.gens()
    f, g = x ** 2 - y, x * y - 1
    basis = buchberger([f, g], Lex())
    res = sylvester_resultant_in_y(f, g, R)
    # the resultant generates the elimination ideal here: y^3 - 1
    assert res == y ** 3 - 1 or res == -(y ** 3 - 1)
    assert any(p == y ** 3 - 1 for p in basis)


def test_monomial_input_minimalized(R):
    x, y = R.gens()
    basis = IdealHandle(R, [x ** 2, x ** 3, x * y]).groebner_basis()
    assert set(repr(p) for p in basis) == {"x^2", "x*y"}


def test_zero_ideal(R):
    assert IdealHandle(R, []).groebner_basis() == ()


def test_normal_form_examples(R):
    x, y = R.gens()
    order = DegRevLex()
    assert normal_form(x ** 2, [x ** 2 - y], order) == y
    # membership by construction: g = a1 g1 + a2 g2
    g1, g2 = x ** 2 + y, x * y - 1
    g = (x + y) * g1 + (y ** 2 - 3) * g2
    I = IdealHandle(R, [g1, g2])
    assert I.contains(g)
    assert not I.contains(x)
    # idempotence
    f = x ** 3 + y ** 3 + x
    basis = list(I.groebner_basis())
    nf = normal_form(f, basis, order)
    assert normal_form(nf, basis, order) == nf


@pytest.mark.parametrize("order", [DegRevLex(), Lex()])
def test_normal_form_given_leads_matches_computed(order):
    """Passing each divisor's (lead, coefficient) gives the remainder that
    computing them does, for random non-monic divisors."""
    import random
    R3 = RingDescriptor.graded("x,y,z")
    rng = random.Random(606)

    def rand_poly():
        f = R3.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 3) for _ in range(3))
            f = f + R3.monomial(exps, rng.randint(-5, 5))
        return f

    for _ in range(40):
        basis = [g for g in (rand_poly() for _ in range(rng.randint(1, 4))) if g]
        f = rand_poly() * rand_poly() + rand_poly()
        leads = [g.leading_term(order) for g in basis]
        assert (normal_form(f, basis, order, leads)
                == normal_form(f, basis, order))


def test_saturation(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    # x^2 is a generator, so 1*x^2 lies in I: the saturation is the whole ring
    S = saturate(I, x)
    assert S.is_unit()
    # a proper saturation: (x^2*y, x^3) : y^inf = (x^2)
    J = IdealHandle(R, [x ** 2 * y, x ** 3])
    SJ = saturate(J, y)
    assert SJ.equals(IdealHandle(R, [x ** 2]))


def test_saturation_strips_primary_component(R):
    x, y = R.gens()
    # (x^2, xy) = (x) cap (x^2, y): saturating by y leaves the x-component
    I = IdealHandle(R, [x ** 2, x * y])
    assert saturate(I, y).equals(IdealHandle(R, [x]))


def test_eliminate_trivial():
    R = RingDescriptor.graded("t,x,y")
    t, x, y = R.gens()
    E = eliminate(IdealHandle(R, [y - t * x]), [0])
    assert E.is_zero()
    I = IdealHandle(R, [x * y - 1])
    assert eliminate(I, []) is I


def lattice_kernel_oracle(exponent_images, nvars_src, box=4):
    """All binomial relations u - v with image(u) = image(v), as exponent
    pairs over a brute-force box; an independent toric-kernel oracle."""
    from collections import defaultdict
    images = defaultdict(list)
    ranges = [range(box + 1)] * nvars_src
    for e in itertools.product(*ranges):
        img = tuple(sum(a * b for a, b in zip(e, col)) for col in exponent_images)
        images[img].append(e)
    relations = []
    for group in images.values():
        for a, b in itertools.combinations(group, 2):
            relations.append((a, b))
    return relations


def test_eliminate_toric_kernel():
    # kernel of q1 -> t*x^2, q2 -> t*x^3 inside Q[x, q1, q2]
    R = RingDescriptor.graded("x,q1,q2,t")
    x, q1, q2, t = R.gens()
    I = IdealHandle(R, [q1 - t * x ** 2, q2 - t * x ** 3])
    E = eliminate(I, [3])
    small = RingDescriptor.graded("x,q1,q2")
    from arithdeg.groebner import project
    K = IdealHandle(small, [project(g, small) for g in E.gens])
    # oracle: x -> (1, 0), q1 -> (2, 1), q2 -> (3, 1) in (x-weight, t-weight)
    relations = lattice_kernel_oracle([(1, 2, 3), (0, 1, 1)], 3, box=3)
    nontrivial = [(u, v) for u, v in relations if u != v]
    assert nontrivial
    for u, v in nontrivial:
        mu = small.monomial(u)
        mv = small.monomial(v)
        assert K.contains(mu - mv)
    # and the kernel generators are genuine relations under substitution
    big = RingDescriptor.graded("x,q1,q2,t")
    xb, ab, bb, tb = big.gens()
    for g in K.gens:
        img = g.substitute(big, [xb, tb * xb ** 2, tb * xb ** 3])
        assert img.is_zero


def test_intersect_examples(R):
    x, y = R.gens()
    A = IdealHandle(R, [x])
    B = IdealHandle(R, [y])
    assert intersect(A, B).equals(IdealHandle(R, [x * y]))
    # principal-ideal lcm oracle on polynomial inputs
    f, g = x + y, x - y
    got = intersect(IdealHandle(R, [f]), IdealHandle(R, [g]))
    assert got.equals(IdealHandle(R, [f * g]))
    I = IdealHandle(R, [x ** 2 - y ** 3])
    assert intersect(I, I).equals(I)
    assert intersect(I, IdealHandle(R, [R.one()])).equals(I)


def test_buchberger_criterion_spot(R):
    x, y = R.gens()
    order = DegRevLex()
    basis = list(IdealHandle(R, [x ** 3 - y, x * y ** 2 - x, y ** 4 - 1]).groebner_basis(order))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert not normal_form(s_polynomial(basis[i], basis[j], order), basis, order)


def test_resource_caps(R):
    x, y = R.gens()
    # the lex basis of (x^2 - y, xy - 1) reaches y^3 - 1, beyond this cap
    with pytest.raises(ResourceLimitError):
        IdealHandle(R, [x ** 2 - y, x * y - 1],
                    max_degree=2).groebner_basis(Lex())


def test_determinism(R):
    x, y = R.gens()
    gens = [x ** 2 + 3 * y, y ** 3 - x, x * y - 2]
    b1 = IdealHandle(R, gens).groebner_basis()
    b2 = IdealHandle(R, list(reversed(gens))).groebner_basis()
    assert [repr(p) for p in b1] == [repr(p) for p in b2]


def test_prime_field_basis():
    from arithdeg.fields import GF
    Rp = RingDescriptor.graded("x,y", field=GF(32003))
    x, y = Rp.gens()
    order = DegRevLex()
    basis = IdealHandle(Rp, [x ** 2 - y, x * y - 1]).groebner_basis(order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            assert not normal_form(s_polynomial(basis[i], basis[j], order),
                                   list(basis), order)
    # same leading staircase as over Q at this size
    RQ = RingDescriptor.graded("x,y")
    xq, yq = RQ.gens()
    bq = IdealHandle(RQ, [xq ** 2 - yq, xq * yq - 1]).groebner_basis(order)
    assert [g.leading_monomial(order) for g in basis] == \
        [g.leading_monomial(order) for g in bq]


def test_monomial_ideal_product_matches_polynomial_products():
    """The exponent-tuple route of ideal_product gives the generators that
    multiplying the generators as polynomials gives; a monomial times a
    non-monomial ideal still multiplies polynomials; different rings are
    refused."""
    import random
    rng = random.Random(808)
    for _ in range(60):
        n = rng.randint(1, 5)
        R = RingDescriptor.graded(["v%d" % k for k in range(n)])

        def rand_monomial_ideal():
            return IdealHandle(R, [R.monomial([rng.randint(0, 3)
                                               for _ in range(n)])
                                   for _ in range(rng.randint(0, 6))])

        I, J = rand_monomial_ideal(), rand_monomial_ideal()
        product = ideal_product(I, J)
        expected = IdealHandle(R, [f * g for f in I.gens for g in J.gens])
        assert product.gens == expected.gens
        assert all(list(g.terms.values()) == [1] for g in product.gens)
    R = RingDescriptor.graded("x,y")
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    J = IdealHandle(R, [2 * x + 3 * y, y ** 2 - x])
    for a, b in ((I, J), (J, I)):
        assert ideal_product(a, b).gens == IdealHandle(
            R, [f * g for f in a.gens for g in b.gens]).gens
    other = RingDescriptor.graded("x,y,z")
    for K in (IdealHandle(other, ["x^2"]), IdealHandle(other, ["x + y"])):
        with pytest.raises(RingMismatchError):
            ideal_product(I, K)
        with pytest.raises(RingMismatchError):
            ideal_product(K, J)


def test_ideal_sum_and_product_keep_the_smallest_caps(R):
    """A sum or product of capped handles, and the maximal ideal built for
    them, take the smallest max_basis and the smallest max_degree among
    them, on the monomial route and the polynomial route, so a basis runs
    under the operands' caps.  A maximal ideal built for no handle keeps
    the default caps."""
    mono = IdealHandle(R, ["x^2", "x*y"], max_basis=7, max_degree=30)
    poly = IdealHandle(R, ["x^2 - y", "x*y - 1"], max_basis=50, max_degree=3)
    free = IdealHandle(R, ["y^3"])
    for I, J in ((mono, free), (free, mono), (mono, poly), (poly, mono),
                 (poly, free)):
        caps = (min(I.max_basis, J.max_basis),
                min(I.max_degree, J.max_degree))
        for K in (ideal_sum(I, J), ideal_product(I, J)):
            assert (K.max_basis, K.max_degree) == caps
    assert (ideal_sum(free, mono, poly).max_basis,
            ideal_sum(free, mono, poly).max_degree) == (7, 3)
    for sources, caps in (((free, mono, poly), (7, 3)), ((poly,), (50, 3)),
                          ((), (free.max_basis, free.max_degree))):
        m = maximal_ideal(R, *sources)
        assert (m.max_basis, m.max_degree) == caps
    with pytest.raises(ResourceLimitError):
        ideal_product(free, poly).groebner_basis()


def test_intersect_takes_the_smallest_caps_in_either_order(R):
    """intersect(I, J) and intersect(J, I) get the same caps, the smallest
    of each among the operands, on the monomial route, the elimination
    route and the containment shortcut, and the elimination runs under
    them."""
    mono = IdealHandle(R, ["x^2", "x*y"], max_basis=7, max_degree=30)
    other = IdealHandle(R, ["y^3"], max_basis=60, max_degree=9)
    poly = IdealHandle(R, ["x^2 - y", "x*y - 1"], max_basis=50, max_degree=40)
    line = IdealHandle(R, ["x + y - 1"])
    # outer contains inner, so the containment shortcut answers
    outer = IdealHandle(R, ["x - y^2", "x*y"], max_basis=9, max_degree=3)
    inner = IdealHandle(R, ["x^2 - x*y^2", "x^2*y"])
    for I, J in ((mono, other), (poly, line), (mono, line), (outer, inner)):
        caps = (min(I.max_basis, J.max_basis),
                min(I.max_degree, J.max_degree))
        for K in (intersect(I, J), intersect(J, I)):
            assert (K.max_basis, K.max_degree) == caps
    low = IdealHandle(R, ["x*y - 1"], max_degree=2)
    with pytest.raises(ResourceLimitError):
        intersect(IdealHandle(R, ["x^2 - y"]), low)


@pytest.mark.parametrize("order", [DegRevLex(), Lex()])
def test_ideal_handle_normal_form_keeps_remainders(order):
    """IdealHandle.normal_form, which reuses the basis leads it caches,
    gives the remainders of dividing by its basis with leads recomputed."""
    import random
    R3 = RingDescriptor.graded("x,y,z")
    rng = random.Random(909)
    I = IdealHandle(R3, ["x^2 - 3*y*z", "2*x*y + z^2", "y^3 - x"])
    basis = list(I.groebner_basis(order))
    for _ in range(30):
        f = R3.zero()
        for _ in range(rng.randint(1, 6)):
            f = f + R3.monomial([rng.randint(0, 4) for _ in range(3)],
                                rng.randint(-5, 5))
        assert I.normal_form(f, order) == normal_form(f, basis, order)


def _divide_reference(terms, basis, leads, key, ops, quotients=None):
    """The division loop as a max over the pending terms at every step."""
    remainder = {}
    work = dict(terms)
    while work:
        t = max(work, key=key)
        c = work.pop(t)
        for k, (gt, gc) in enumerate(leads):
            q = ops.div(t, gt)
            if q is not None:
                break
        else:
            remainder[t] = c
            continue
        ratio = c / gc
        if quotients is not None:
            quotients[(k, q)] = quotients.get((k, q), 0) + ratio
        for t2, c2 in basis[k].terms.items():
            if t2 == gt:
                continue
            tt = ops.mul(q, t2)
            s = work.get(tt, 0) - ratio * c2
            if s:
                work[tt] = s
            else:
                del work[tt]
    return remainder


def _assert_divides_like_reference(terms, basis, order, ops, leads):
    quotients, expected_quotients = {}, {}
    remainder = _divide(terms, basis, leads, order, ops, quotients)
    expected = _divide_reference(terms, basis, leads, order.key, ops,
                                 expected_quotients)
    assert remainder == expected
    assert list(remainder) == list(expected)
    assert quotients == expected_quotients


def test_divide_matches_max_reference():
    """The sorted pending list picks the term that a max over the pending
    terms picks at every step: same remainders, in the same order, and the
    same quotients, for polynomials under four term orders and vectors
    under the position-over-term and Schreyer orders."""
    import random
    from arithdeg.modules import _VEC, PositionOverTerm, SchreyerOrder, Vec
    rng = random.Random(1212)
    R3 = RingDescriptor.graded("x,y,z")

    def rand_terms(make_term, count):
        return {make_term(): Fraction(rng.choice((-3, -2, -1, 1, 2, 3)),
                                      rng.randint(1, 3))
                for _ in range(count)}

    def rand_mono():
        return tuple(rng.randint(0, 3) for _ in range(3))

    orders = [Lex(), DegRevLex(), WeightedDegRevLex([1, 2, 3]),
              BlockOrder([0], 3)]
    for trial in range(200):
        order = orders[trial % len(orders)]
        basis = [Polynomial(R3, rand_terms(rand_mono, rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))]
        f = Polynomial(R3, rand_terms(rand_mono, rng.randint(1, 6)))
        f = f * Polynomial(R3, rand_terms(rand_mono, rng.randint(1, 3))) + f
        _assert_divides_like_reference(
            f.terms, basis, order, _POLY,
            [g.leading_term(order) for g in basis])

    for trial in range(200):
        rank = rng.randint(1, 3)

        def rand_term():
            return (rng.randrange(rank), rand_mono())

        if trial % 2:
            morder = PositionOverTerm(orders[trial % 4])
        else:
            morder = SchreyerOrder(PositionOverTerm(),
                                   [rand_term() for _ in range(rank)])
        basis = [Vec(R3, rank, rand_terms(rand_term, rng.randint(1, 4)))
                 for _ in range(rng.randint(1, 4))]
        v = rand_terms(rand_term, rng.randint(1, 8))
        _assert_divides_like_reference(
            v, basis, morder, _VEC,
            [g.leading_term(morder) for g in basis])


def test_divide_term_cancelled_then_created_again(monkeypatch):
    """A pending term that cancels to zero and comes back later in the same
    division is divided once, and every term is packed once: -x^2*z^2
    cancels y*z, and -y^2*z^2 brings it back.  Only the dividend's terms,
    the leads and the divisors' other terms are packed; products are not."""
    R3 = RingDescriptor.graded("x,y,z")
    order = DegRevLex()
    f = parse_polynomial(R3, "-x^2*z^2 - y^2*z^2 + y*z")
    basis = [parse_polynomial(R3, "x^2*z^2 - y*z"),
             parse_polynomial(R3, "-y^2*z^2 - y*z")]
    leads = [g.leading_term(order) for g in basis]
    packed = []
    pack = _Packer.pack

    def counting_pack(self, t):
        packed.append(t)
        return pack(self, t)

    monkeypatch.setattr(_Packer, "pack", counting_pack)
    quotients = {}
    remainder = _divide(f.terms, basis, leads, order, _POLY, quotients)
    assert remainder == {(0, 1, 1): 1}
    assert quotients == {(0, (0, 0, 0)): -1, (1, (0, 0, 0)): 1}
    assert sorted(packed) == sorted(list(f.terms) + [t for t, _ in leads]
                                    + [(0, 1, 1), (0, 1, 1)])
    _assert_divides_like_reference(f.terms, basis, order, _POLY, leads)


def test_packed_terms_sort_like_the_order_keys():
    """For each of the six orders, packed ints sort random monomials and
    vector terms as order.key does, unpack to the terms they pack, and add
    like the terms multiply, with exponents up to the width's bound."""
    import random
    from arithdeg.modules import PositionOverTerm, SchreyerOrder
    rng = random.Random(1515)
    n, rank = 4, 3
    E = _Packer(DegRevLex(), n).bound

    def mono(top=E):
        return tuple(rng.choice((0, 1, rng.randint(0, top), top))
                     for _ in range(n))

    pot = PositionOverTerm(WeightedDegRevLex([2, 1, 3, 1]))
    schreyer = SchreyerOrder(pot, [(rng.randrange(rank), mono())
                                   for _ in range(rank)])
    polynomial_orders = [Lex(), DegRevLex(), WeightedDegRevLex([3, 1, 2, 1]),
                         BlockOrder([1, 3], n),
                         BlockOrder([0, 2], n, Lex(), Lex())]
    vector_orders = [pot, schreyer,
                     SchreyerOrder(schreyer, [(rng.randrange(rank), mono())
                                              for _ in range(rank)])]
    for order in polynomial_orders + vector_orders:
        vectors = order in vector_orders
        packer = _Packer(order, n, rank if vectors else None)

        def term():
            return (rng.randrange(rank), mono()) if vectors else mono()

        terms = {term() for _ in range(300)}
        packed = {t: packer.pack(t) for t in terms}
        assert sorted(terms, key=packed.get) == sorted(terms, key=order.key)
        assert all(packer.unpack(packed[t]) == t for t in terms)
        # multiplying by q adds one int, which unpacks to q
        q = mono(E // 2)
        steps = set()
        for t in terms:
            c, m = t if vectors else (None, t)
            qm = tuple(a + b for a, b in zip(q, m))
            if max(qm) <= E:
                steps.add(packer.pack(qm if c is None else (c, qm))
                          - packed[t])
        assert len(steps) == 1
        assert packer.unpack(steps.pop()) == ((0, q) if vectors else q)


def test_lex_division_outgrowing_the_width_restarts_wider():
    """Under lex, x - y^100 turns x^3 into y^300: a product overflows the
    first width (exponents up to 127), and the division starts again at
    twice the width, with the reference loop's remainder and quotients.
    The ring keeps the wider packer, and an input exponent beyond even
    that width widens it again, with no product outgrowing it."""
    order = Lex()
    R3 = RingDescriptor.graded("x,y,z")
    basis = [parse_polynomial(R3, "x - 3*y^100"),
             parse_polynomial(R3, "z^2 - 1/2*y")]
    leads = [g.leading_term(order) for g in basis]
    f = parse_polynomial(R3, "x^3 + 2*x*y*z^3 - z")
    assert R3.memo.get(("packer", order, None)) is None
    _assert_divides_like_reference(f.terms, basis, order, _POLY, leads)
    assert R3.memo[("packer", order, None)].width == 16
    big = parse_polynomial(R3, "z^70000 + x*z")
    forms = _Slots([None] * len(basis))
    assert (_divide(big.terms, basis, leads, order, _POLY, None, forms)
            == _divide_reference(big.terms, basis, leads, order.key, _POLY))
    assert R3.memo[("packer", order, None)].width == 32
    assert all(slot[0] is R3.memo[("packer", order, None)] for slot in forms)


def test_divide_by_monomials_matches_reference():
    """A basis of single terms takes no division steps: the remainder and
    the quotients are the reference loop's, in the same order, for
    polynomials and vectors over Q and Z/p, and no slot is filled."""
    import random
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    rng = random.Random(1616)
    for field in (QQ, GF(7)):
        R3 = RingDescriptor.graded("x,y,z", field=field)

        def coeff():
            return field.coerce(Fraction(rng.choice((-3, -1, 2, 5)),
                                         rng.randint(1, 3)))

        def mono():
            return tuple(rng.randint(0, 3) for _ in range(3))

        for trial in range(120):
            if trial % 2:
                order, ops, rank = DegRevLex(), _POLY, None
                make = mono
            else:
                order, ops = PositionOverTerm(Lex()), _VEC
                rank = rng.randint(1, 3)

                def make():
                    return (rng.randrange(rank), mono())
            basis = []
            for _ in range(rng.randint(1, 4)):
                terms = {make(): coeff()}
                basis.append(Polynomial(R3, terms) if rank is None
                             else Vec(R3, rank, terms))
            terms = {make(): coeff() for _ in range(rng.randint(0, 8))}
            leads = [g.leading_term(order) for g in basis]
            forms = _Slots([None] * len(basis))
            quotients, expected_quotients = {}, {}
            remainder = _divide(terms, basis, leads, order, ops, quotients,
                                forms)
            expected = _divide_reference(terms, basis, leads, order.key, ops,
                                         expected_quotients)
            assert remainder == expected
            assert list(remainder) == list(expected)
            assert quotients == expected_quotients
            assert forms == [None] * len(basis)


def _poly_sort_key_reference(f, order=DegRevLex()):
    return (order.key(f.leading_monomial(order)), terms_key(f.terms))


def test_poly_sort_key_matches_reference():
    """The single-term shortcut of the generator sort key gives the key the
    lead-and-terms_key route gives, on monomial and non-monomial
    generators with and without unit coefficients."""
    import random
    rng = random.Random(1313)
    R3 = RingDescriptor.graded("x,y,z")
    gens = []
    for _ in range(300):
        f = R3.zero()
        for _ in range(rng.choice((1, 1, 2, 4))):
            f = f + R3.monomial([rng.randint(0, 3) for _ in range(3)],
                                Fraction(rng.randint(-4, 4),
                                         rng.randint(1, 3)))
        if f:
            gens.append(f)
    assert any(g.is_monomial() for g in gens)
    assert not all(g.is_monomial() for g in gens)
    for g in gens:
        assert _poly_sort_key(g) == _poly_sort_key_reference(g)
    assert (sorted(gens, key=_poly_sort_key)
            == sorted(gens, key=_poly_sort_key_reference))


@pytest.mark.parametrize("order", [
    Lex(), DegRevLex(), WeightedDegRevLex([3, 1, 2, 1]), BlockOrder([1, 2], 4)],
    ids=["lex", "degrevlex", "wdegrevlex", "block"])
def test_monomial_handle_basis_matches_buchberger(order):
    """A monomial handle's basis, read off its generators, is the reduced
    basis buchberger computes from them, in the same order; the zero and
    unit ideals included."""
    import random
    rng = random.Random(1414)
    R4 = RingDescriptor.graded("a,b,c,d")
    handles = [IdealHandle(R4, []), IdealHandle(R4, [R4.one()]),
               IdealHandle(R4, ["3*a^2*b", "-c*d", "a^2*b*c"])]
    for _ in range(60):
        handles.append(IdealHandle(R4, [
            R4.monomial([rng.randint(0, 3) for _ in range(4)],
                        rng.choice((1, 2, -5)))
            for _ in range(rng.randint(1, 8))]))
    for I in handles:
        assert I.is_monomial()
        assert I.groebner_basis(order) == tuple(buchberger(I.gens, order))


_MONO = st.tuples(*[st.integers(0, 3)] * 3)
_COEFF = st.builds(Fraction, st.integers(-9, 9).filter(bool),
                   st.integers(1, 6))


@st.composite
def _division_inputs(draw):
    """(terms, basis, order, ops) over Q[x,y,z] or Z/p[x,y,z] for p = 3, 7
    or 32003: polynomials, or vectors of rank 1-3.  Over Q coefficients
    have denominators up to 6, and each basis element is scaled by a/b
    with a >= 2, so most leads are not monic; over Z/p they are nonzero
    residues of -9..9 and the scale is a residue of 2..9, and the small
    primes make numerators wrap to zero.  The dividend mixes random terms
    with term multiples of the basis, so steps both divide and leave
    remainders."""
    from arithdeg.modules import _VEC, PositionOverTerm, SchreyerOrder, Vec
    field = draw(st.one_of(st.just(QQ),
                           st.sampled_from([GF(3), GF(7), GF(32003)])))
    R3 = RingDescriptor.graded("x,y,z", field=field)
    if field.characteristic:
        coeff = st.integers(-9, 9).map(field).filter(bool)
        scales = st.integers(2, 9).map(field).filter(bool)
    else:
        coeff = _COEFF
        scales = st.builds(Fraction, st.integers(2, 9), st.integers(1, 7))
    orders = [Lex(), DegRevLex(), WeightedDegRevLex([1, 2, 3]),
              BlockOrder([0], 3)]
    rank = draw(st.sampled_from([None, 1, 2, 3]))
    if rank is None:
        term, ops = _MONO, _POLY
        order = draw(st.sampled_from(orders))

        def make(terms):
            return Polynomial(R3, terms)
    else:
        term, ops = st.tuples(st.integers(0, rank - 1), _MONO), _VEC
        order = draw(st.sampled_from(
            [PositionOverTerm(o) for o in orders]
            + [SchreyerOrder(PositionOverTerm(),
                             draw(st.lists(term, min_size=rank,
                                           max_size=rank)))]))

        def make(terms):
            return Vec(R3, rank, terms)
    basis = []
    for _ in range(draw(st.integers(1, 4))):
        scale = draw(scales)
        g = make({t: scale * c for t, c in draw(
            st.dictionaries(term, coeff, min_size=1, max_size=4)).items()})
        if g:
            basis.append(g)
    terms = dict(draw(st.dictionaries(term, coeff, max_size=4)))
    for g in basis:
        for m, c in draw(st.dictionaries(_MONO, coeff, max_size=2)).items():
            for t, v in g.terms.items():
                t = ops.mul(m, t)
                terms[t] = terms.get(t, 0) + c * v
    return {t: c for t, c in terms.items() if c}, basis, order, ops


@seed(31337)
@settings(max_examples=300, deadline=None)
@given(_division_inputs(), st.booleans(), st.booleans())
def test_divide_matches_reference_over_q_and_zp(inputs, with_quotients,
                                                forms_given):
    """The division works on ints: over Q on numerators over a common
    denominator, over Z/p on residues.  It gives the max-based reference
    loop's remainder, term for term and in the same order, as Fractions
    over Q and PrimeFieldElements over Z/p, and the same quotients, on
    non-monic divisors with non-unit denominators, for polynomials and
    vectors, with the integer forms made per call or kept by the caller."""
    terms, basis, order, ops = inputs
    leads = [g.leading_term(order) for g in basis]
    forms = _Slots([None] * len(basis)) if forms_given else None
    quotients = {} if with_quotients else None
    expected_quotients = {} if with_quotients else None
    remainder = _divide(terms, basis, leads, order, ops, quotients, forms)
    expected = _divide_reference(terms, basis, leads, order.key, ops,
                                 expected_quotients)
    assert remainder == expected
    assert list(remainder) == list(expected)
    value_type = (PrimeFieldElement if basis[0].ring.field.characteristic
                  else Fraction)
    assert all(type(c) is value_type for c in remainder.values())
    assert quotients == expected_quotients
    if forms_given:
        # kept forms are reused: a second division builds none
        filled = list(forms)
        assert _divide(terms, basis, leads, order, ops, None,
                       forms) == expected
        assert all(a is b for a, b in zip(forms, filled))


@seed(4242)
@settings(max_examples=60, deadline=None)
@given(st.dictionaries(_MONO, _COEFF, min_size=1, max_size=4),
       st.dictionaries(_MONO, _COEFF, min_size=1, max_size=4))
def test_exact_divide_over_q_recovers_factor(h_terms, f_terms):
    """Dividing h*f by f alone with quotients leaves no remainder and
    recovers h as the quotient, for non-monic f with non-unit
    denominators."""
    R3 = RingDescriptor.graded("x,y,z")
    h, f = Polynomial(R3, h_terms), Polynomial(R3, f_terms)
    for order in (DegRevLex(), Lex()):
        quotients = {}
        assert not _divide((h * f).terms, [f], [f.leading_term(order)], order,
                           _POLY, quotients)
        assert Polynomial(R3, {q: c for (_, q), c in quotients.items()}) == h


def _assert_pair_divides_like_reference(i, j, basis, order, ops, forms=None):
    """_divide_pair of basis[i] and basis[j] gives the quotients that
    _divide gives on the Fraction S-element, and its remainder made monic,
    term for term and in the same order, with a slot holding the packed
    lead and the _int_form of that monic remainder.  Returns the pair
    route's result."""
    leads = [g.leading_term(order) for g in basis]
    quotients, expected_quotients = {}, {}
    got = _divide_pair(i, j, basis, leads, order, ops, quotients, forms)
    expected = _divide(_s_element(basis[i], basis[j], order, ops), basis,
                       leads, order, ops, expected_quotients)
    assert quotients == expected_quotients
    if not expected:
        assert got is None
        return got
    terms, (packer, lead, form) = got
    monic = ops.make(basis[i], expected).monic(order)
    assert terms == monic.terms
    assert list(terms) == list(monic.terms)
    assert lead == packer.pack(monic.leading_term(order)[0])
    assert form == _int_form(monic, monic.leading_term(order), packer.pack)
    return got


@st.composite
def _pair_inputs(draw):
    """(basis, order, ops) over Q, Z/7 or Z/32003: 2-4 polynomials in
    Q[x,y,z], or vectors of rank 2 or 3 under PositionOverTerm.  Each
    element is scaled by a/b with a >= 2 over Q (a residue of 2..9 over
    Z/p), so leads are not monic and an element's L differs from its d;
    the elements share a factor often enough that some S-elements reduce
    to zero."""
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    R3 = RingDescriptor.graded("x,y,z", field=field)
    if field.characteristic:
        coeff = st.integers(-9, 9).map(field).filter(bool)
        scales = st.integers(2, 9).map(field)
    else:
        coeff = _COEFF
        scales = st.builds(Fraction, st.integers(2, 9), st.integers(1, 7))
    inner = draw(st.sampled_from([Lex(), DegRevLex(),
                                  WeightedDegRevLex([1, 2, 3])]))
    rank = draw(st.sampled_from([None, 2, 3]))
    if rank is None:
        term, ops, order = _MONO, _POLY, inner

        def make(terms):
            return Polynomial(R3, terms)
    else:
        term, ops = st.tuples(st.integers(0, rank - 1), _MONO), _VEC
        order = PositionOverTerm(inner)

        def make(terms):
            return Vec(R3, rank, terms)
    common = draw(st.dictionaries(term, coeff, min_size=1, max_size=3))
    basis = []
    for _ in range(draw(st.integers(2, 4))):
        terms = draw(st.dictionaries(term, coeff, min_size=1, max_size=3))
        if draw(st.booleans()):
            # a multiple of one shared element
            m = draw(_MONO)
            terms = {ops.mul(m, t): c for t, c in common.items()}
        scale = draw(scales)
        g = make({t: scale * c for t, c in terms.items()})
        if g:
            basis.append(g)
    return basis, order, ops


@seed(1717)
@settings(max_examples=200, deadline=None)
@given(_pair_inputs())
def test_pair_route_matches_the_fraction_s_element(inputs):
    """Every same-component pair, divided by _divide_pair with its slots
    kept across pairs, leaves the remainder and the quotients (the
    Schreyer quotients for vectors) of _divide on the Fraction S-element,
    over Q, Z/7 and Z/32003, on non-monic leads."""
    basis, order, ops = inputs
    leads = [g.leading_term(order) for g in basis]
    forms = _Slots([None] * len(basis))
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if ops.lcm(leads[i][0], leads[j][0]) is not None:
                _assert_pair_divides_like_reference(i, j, basis, order, ops,
                                                    forms)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)],
                         ids=["Q", "Zp7", "Zp32003"])
def test_pair_route_scales_by_l_not_d(field):
    """2*x^2 + 3*y and 5*x*y + 7 have d = 1 and L = 2, 5 over Q (over Z/p,
    L = 1 and d is the inverse of the lead): a pair scaled by d would leave
    the wrong remainder.  Their S-element does not reduce to zero."""
    R2 = RingDescriptor.graded("x,y", field=field)
    order = DegRevLex()
    basis = [parse_polynomial(R2, "2*x^2 + 3*y"),
             parse_polynomial(R2, "5*x*y + 7")]
    packer = _Packer(order, 2)
    for g in basis:
        _, L, d = _int_form(g, g.leading_term(order), packer.pack)
        assert L != d
    assert _assert_pair_divides_like_reference(0, 1, basis, order, _POLY)


@pytest.mark.parametrize("field", [QQ, GF(7), GF(32003)],
                         ids=["Q", "Zp7", "Zp32003"])
def test_pair_route_work_cancelling_to_zero(field):
    """2*x*(x + y) and 3*y*(x + y): y*f/2 - x*g/3 cancels term by term, so
    the pair's work is all zeros, with no remainder and no quotient; the
    same for the rank-2 vectors that carry them in component 1 and
    another such pair in component 0."""
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    R2 = RingDescriptor.graded("x,y", field=field)
    x, y = R2.gens()
    f, g = 2 * x * (x + y), 3 * y * (x + y)
    assert _assert_pair_divides_like_reference(0, 1, [f, g], DegRevLex(),
                                               _POLY) is None
    zero = R2.zero()
    vecs = [Vec.from_polys(R2, (zero, f)), Vec.from_polys(R2, (zero, g)),
            Vec.from_polys(R2, (x * f, f)), Vec.from_polys(R2, (x * g, g))]
    morder = PositionOverTerm()
    for i, j in ((0, 1), (2, 3)):
        assert _assert_pair_divides_like_reference(i, j, vecs, morder,
                                                   _VEC) is None


def test_lex_pair_outgrowing_the_width_restarts_wider():
    """Under lex the pair of x^2 - 3*y^100 and 2*x*y^50 + z has the lcm
    x^2*y^50, and y^50 times y^100 outgrows the first width (exponents up
    to 127) while the work is built: the pair route starts again at twice
    the width, with the reference's remainder and quotients."""
    order = Lex()
    R3 = RingDescriptor.graded("x,y,z")
    basis = [parse_polynomial(R3, "x^2 - 3*y^100"),
             parse_polynomial(R3, "2*x*y^50 + z")]
    assert R3.memo.get(("packer", order, None)) is None
    leads = [g.leading_term(order) for g in basis]
    forms = _Slots([None] * len(basis))
    assert _divide_pair(0, 1, basis, leads, order, _POLY, None, forms)
    assert R3.memo[("packer", order, None)].width == 16
    assert all(slot[0] is R3.memo[("packer", order, None)] for slot in forms)
    _assert_pair_divides_like_reference(0, 1, basis, order, _POLY)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Zp7"])
def test_generators_with_a_nonzero_constant_give_the_unit_ideal(field):
    """A generator list holding a nonzero constant is the unit ideal, kept
    as the one generator 1; a zero generator is still dropped."""
    R2 = RingDescriptor.graded("x,y", field=field)
    x, y = R2.gens()
    unit = IdealHandle(R2, [x ** 2 + y, R2.one() * 3, x * y])
    assert unit.gens == (R2.one(),)
    assert unit.is_unit() and repr(unit) == "(1)"
    assert IdealHandle(R2, [R2.zero(), x]).gens == (x,)


@pytest.mark.parametrize("field", [QQ, GF(7)], ids=["Q", "Zp7"])
def test_handle_drops_scalar_multiples_of_a_generator(field):
    """A generator that is a scalar multiple of an earlier one is dropped,
    the first kept; generators of one support that are not proportional,
    and proportional monomials, are kept as before."""
    R2 = RingDescriptor.graded("x,y", field=field)
    x, y = R2.gens()
    f = x * y + 3 * x
    assert IdealHandle(R2, [-f, f, 2 * f, x + y ** 2]).gens == (x + y ** 2, -f)
    kept = IdealHandle(R2, [x + y, x - y]).gens
    assert len(kept) == 2 and x + y in kept and x - y in kept
    assert IdealHandle(R2, [x * y, 2 * x * y, y ** 2 - x]).gens == (
        y ** 2 - x, x * y)


def _interreduce_reference(G, order, ops, nf):
    """The final interreduction as a separate pass, through the public
    normal forms: leads recomputed, an element dropped when an earlier
    lead divides its lead, each kept element divided by the others with
    nf and made monic."""
    heads = sorted(((f.leading_term(order), f) for f in G),
                   key=lambda head: order.key(head[0][0]))
    leads, minimal = [], []
    for lead, f in heads:
        if all(ops.div(lead[0], s) is None for s, _ in leads):
            leads.append(lead)
            minimal.append(f)
    reduced = []
    for k, f in enumerate(minimal):
        if len(f.terms) > 1 and len(minimal) > 1:
            f = nf(f, minimal[:k] + minimal[k + 1:], order)
        reduced.append(f.monic(order))
    return reduced


def _schreyer_reference(G, morder):
    """Schreyer syzygies of G over every i < j, skipping pairs in two
    components, each from the Fraction S-vector and _divide's quotients,
    minimalized on leads recomputed under the Schreyer order."""
    from arithdeg.modules import _VEC, SchreyerOrder, Vec
    leads = [g.leading_term(morder) for g in G]
    sorder = SchreyerOrder(morder, [t for t, _ in leads])
    one = G[0].ring.field.one
    syz = []
    for i in range(len(G)):
        for j in range(i + 1, len(G)):
            lcm = _VEC.lcm(leads[i][0], leads[j][0])
            if lcm is None:
                continue
            quotients = {}
            assert not _divide(_s_element(G[i], G[j], morder, _VEC), G, leads,
                               morder, _VEC, quotients)
            cof = {(i, _VEC.div(lcm, leads[i][0])): one / leads[i][1],
                   (j, _VEC.div(lcm, leads[j][0])): -(one / leads[j][1])}
            for key, val in quotients.items():
                cof[key] = cof.get(key, 0) - val
            syz.append(Vec(G[0].ring, len(G), cof))
    heads = sorted(syz, key=lambda v: sorder.key(v.leading_term(sorder)[0]))
    kept = []
    for v in heads:
        t = v.leading_term(sorder)[0]
        if all(_VEC.div(t, s.leading_term(sorder)[0]) is None for s in kept):
            kept.append(v)
    return kept, sorder


@st.composite
def _basis_inputs(draw):
    """(gens, order, ops) over Q, Z/7 or Z/32003 under lex, degrevlex or
    weighted degrevlex: 2-3 polynomials in x, y, z of degree at most 2, or
    vectors of rank 2 or 3 under PositionOverTerm, with coefficients that
    make most leads non-monic."""
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    field = draw(st.sampled_from([QQ, GF(7), GF(32003)]))
    R3 = RingDescriptor.graded("x,y,z", field=field)
    coeff = (st.integers(-9, 9).map(field).filter(bool)
             if field.characteristic else _COEFF)
    mono = st.tuples(*[st.integers(0, 2)] * 3).filter(lambda m: sum(m) <= 2)
    inner = draw(st.sampled_from([Lex(), DegRevLex(),
                                  WeightedDegRevLex([1, 2, 3])]))
    rank = draw(st.sampled_from([None, 2, 3]))
    if rank is None:
        term, ops, order = mono, _POLY, inner

        def make(terms):
            return Polynomial(R3, terms)
    else:
        term, ops = st.tuples(st.integers(0, rank - 1), mono), _VEC
        order = PositionOverTerm(inner)

        def make(terms):
            return Vec(R3, rank, terms)
    gens = [make(draw(st.dictionaries(term, coeff, min_size=1, max_size=3)))
            for _ in range(draw(st.integers(2, 3)))]
    return [g for g in gens if g], order, ops


@seed(1818)
@settings(max_examples=120, deadline=None)
@given(_basis_inputs())
def test_engine_bases_match_the_separate_interreduction(inputs):
    """buchberger and module_buchberger, whose interreduction reuses the
    loop's leads and forms slots and divides each tail once by the whole
    minimal basis, return what the separate interreduction through the
    public normal forms returns on the same unreduced basis, term for term
    and in order; every pair made carries the lcm of its two leads, that
    lcm's key, the sugar rule's value and the lcm's packed exponent
    fields; and for vectors,
    schreyer_syzygies over each component's elements returns what the
    all-pairs loop returns, with the leads of what it returns."""
    from unittest import mock
    from arithdeg.modules import (module_buchberger, module_normal_form,
                                  schreyer_syzygies)
    import arithdeg.groebner as groebner_mod
    gens, order, ops = inputs
    unreduced = []
    reduce, update = groebner_mod._reduce, groebner_mod._update_pairs

    def recording_reduce(G, leads, order, ops, forms=None):
        if forms is not None:
            unreduced.append(list(G))
        return reduce(G, leads, order, ops, forms)

    def checked_update(P, members, forms, leads, sugar, n, order, ops, deg):
        update(P, members, forms, leads, sugar, n, order, ops, deg)
        packer = forms.packer
        for comp, pairs in P.items():
            assert pairs
            for (i, j), (s, key, pi, pj, lcm, packed) in pairs.items():
                ti, tj = leads[i][0], leads[j][0]
                assert (pi, pj) == (i, j) and i < j <= n
                assert lcm == ops.lcm(ti, tj) and ops.comp(lcm) == comp
                assert key == order.key(lcm)
                assert s == max(sugar[i] + deg(ops.div(lcm, ti)),
                                sugar[j] + deg(ops.div(lcm, tj)))
                assert packed == packer.pack(lcm) & packer.fields

    build, nf = ((buchberger, normal_form) if ops is _POLY
                 else (module_buchberger, module_normal_form))
    with mock.patch.object(groebner_mod, "_reduce", recording_reduce), \
            mock.patch.object(groebner_mod, "_update_pairs", checked_update):
        try:
            basis = build(gens, order, max_basis=60, max_degree=12)
        except ResourceLimitError:
            return
    expected = _interreduce_reference(unreduced[-1], order, ops, nf)
    assert basis == expected
    assert [list(f.terms) for f in basis] == [list(f.terms) for f in expected]
    if ops is not _POLY and basis:
        syz, sorder, syz_leads = schreyer_syzygies(basis, order)
        ref, ref_order = _schreyer_reference(basis, order)
        assert sorder.signature() == ref_order.signature()
        assert syz == ref
        assert [list(v.terms) for v in syz] == [list(v.terms) for v in ref]
        assert syz_leads == [v.leading_term(sorder) for v in syz]


def test_slots_keep_the_component_index_across_divisions():
    """A basis's _Slots build the index of packed leads by component once:
    a second division reuses it, an appended element is indexed on the
    next division, and a wider packer packs every slot again and starts
    an empty divisor memo.  Each component lists its elements in basis
    order, so the first dividing head is the one a scan over the whole
    basis would find."""
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    zero = R2.zero()
    order = PositionOverTerm()
    basis = [Vec.from_polys(R2, (x + y, zero, zero)),
             Vec.from_polys(R2, (zero, y, x)),
             Vec.from_polys(R2, (x * y, zero, y)),
             Vec.from_polys(R2, (zero, zero, x + 1))]
    leads = [g.leading_term(order) for g in basis]
    forms = _Slots([None] * len(basis))
    dividend = Vec.from_polys(R2, (x ** 2 * y, x * y, x ** 2)).terms
    first = _divide(dividend, basis, leads, order, _VEC, None, forms)
    packer, index = forms.packer, forms.index
    assert forms.indexed == len(basis)
    by_comp = {}
    for k, (t, _) in enumerate(leads):
        by_comp.setdefault(t[0], []).append(k)
    assert {c: [k for k, _ in heads] for c, heads in index.items()} == by_comp
    divisor = forms.divisor
    assert divisor
    assert _divide(dividend, basis, leads, order, _VEC, None, forms) == first
    assert forms.index is index and forms.packer is packer
    assert forms.divisor is divisor
    assert first == _divide_reference(dividend, basis, leads, order.key, _VEC)
    extra = Vec.from_polys(R2, (zero, x ** 2, zero))
    basis.append(extra)
    leads.append(extra.leading_term(order))
    forms.append(None)
    assert _divide(dividend, basis, leads, order, _VEC, None, forms) == (
        _divide_reference(dividend, basis, leads, order.key, _VEC))
    assert forms.index is index and forms.indexed == len(basis)
    assert forms.divisor is divisor
    wider = _Packer(order, 2, 3, 16)
    heads = forms.heads(wider, leads)
    assert forms.packer is wider and heads is not index
    assert forms.divisor == {} and forms.divisor is not divisor
    assert all(slot[0] is wider for slot in forms)
    assert sorted(k for ks in heads.values() for k, _ in ks) == list(
        range(len(basis)))


def _assert_divisor_memo_is_first_head(forms, leads, ops):
    """Each entry of the slots' divisor memo names the first lead in basis
    order that divides its term, or, for ~c, the first c leads of its
    component divide none of it."""
    packer = forms.packer
    for t, k in forms.divisor.items():
        term = packer.unpack(t)
        same = [j for j, (s, _) in enumerate(leads)
                if ops.comp(s) == ops.comp(term)]
        dividing = [j for j in same if ops.div(term, leads[j][0]) is not None]
        if k >= 0:
            assert dividing and k == dividing[0]
        else:
            assert ~k <= len(same)
            assert not set(dividing) & set(same[:~k])


def test_divisor_memo_over_a_growing_basis():
    """The divisor memo the slots keep across divisions leaves every
    division as the reference loop gives it: seeded draws over Q and Z/7,
    polynomials and vectors, with and without quotients, divide several
    dividends by a basis that gains an element between rounds (so misses
    resume their scans on the grown component lists), and every memo
    entry names the first dividing head in basis order."""
    import random
    from arithdeg.modules import _VEC, PositionOverTerm, Vec
    rng = random.Random(2929)
    hits = resumed = 0
    for trial in range(160):
        field = (QQ, GF(7))[trial % 2]
        R3 = RingDescriptor.graded("x,y,z", field=field)
        rank = (None, 2, 3)[trial % 3]
        inner = rng.choice([DegRevLex(), Lex()])
        if rank is None:
            order, ops = inner, _POLY
        else:
            order, ops = PositionOverTerm(inner), _VEC

        def term():
            m = tuple(rng.randint(0, 3) for _ in range(3))
            return m if rank is None else (rng.randrange(rank), m)

        def element(size):
            terms = {term(): field.coerce(Fraction(rng.choice((-3, -1, 2, 5)),
                                                   rng.randint(1, 3)))
                     for _ in range(size)}
            return (Polynomial(R3, terms) if rank is None
                    else Vec(R3, rank, terms))

        basis = [g for g in (element(rng.randint(2, 3)) for _ in range(2))
                 if g]
        if not basis:
            continue
        leads = [g.leading_term(order) for g in basis]
        forms = _Slots([None] * len(basis))
        dividends = [element(rng.randint(1, 6)).terms for _ in range(3)]
        for _ in range(3):
            for terms in dividends:
                quotients = {} if rng.random() < 0.5 else None
                expected_quotients = None if quotients is None else {}
                before = dict(forms.divisor)
                remainder = _divide(terms, basis, leads, order, ops,
                                    quotients, forms)
                assert remainder == _divide_reference(
                    terms, basis, leads, order.key, ops, expected_quotients)
                assert quotients == expected_quotients
                _assert_divisor_memo_is_first_head(forms, leads, ops)
                hits += sum(k >= 0 for k in before.values())
                resumed += sum(k < 0 and forms.divisor[t] != k
                               for t, k in before.items())
            extra = element(rng.randint(1, 3))
            if extra:
                basis.append(extra)
                leads.append(extra.leading_term(order))
                forms.append(None)
    # the sweep reaches both kinds of memo reuse
    assert hits and resumed


def _check_update_against_reference(seen_widths):
    """An _update_pairs that runs the tuple reference on copies of P and
    members and asserts the packed update left the same pairs, records
    included, with each packed lcm the lcm's packed exponent fields."""
    from unittest import mock
    import arithdeg.groebner as groebner_mod
    from helpers import update_pairs_reference
    update = groebner_mod._update_pairs

    def checked(P, members, forms, leads, sugar, n, order, ops, deg):
        ref_P = {c: dict(pairs) for c, pairs in P.items()}
        ref_members = {c: list(ks) for c, ks in members.items()}
        update_pairs_reference(ref_P, ref_members, leads, sugar, n, order,
                               ops, deg)
        update(P, members, forms, leads, sugar, n, order, ops, deg)
        assert members == ref_members
        assert ({c: {ij: rec[:5] for ij, rec in pairs.items()}
                 for c, pairs in P.items()}
                == {c: {ij: rec[:5] for ij, rec in pairs.items()}
                    for c, pairs in ref_P.items()})
        packer = forms.packer
        assert all(rec[5] == packer.pack(rec[4]) & packer.fields
                   for pairs in P.values() for rec in pairs.values())
        seen_widths.append(packer.width)
    return mock.patch.object(groebner_mod, "_update_pairs", checked)


def test_packed_update_matches_the_tuple_reference():
    """Gebauer-Moeller on packed exponent fields keeps the pairs the
    tuple reference keeps, with the same records, on seeded polynomial
    and vector runs over Q and Z/7 under several orders, and on Lex and
    block-order runs whose packer widens mid-Buchberger, where every
    stored pair's packed lcm is made again for the wider packer."""
    import random
    from arithdeg.modules import PositionOverTerm, Vec, module_buchberger
    rng = random.Random(3030)
    orders = [Lex(), DegRevLex(), WeightedDegRevLex([1, 2, 3]),
              BlockOrder([0], 3)]
    for trial in range(60):
        field = (QQ, GF(7))[trial % 2]
        R3 = RingDescriptor.graded("x,y,z", field=field)
        rank = (None, None, 2)[trial % 3]
        order = rng.choice(orders)

        def element():
            terms = {}
            for _ in range(rng.randint(1, 3)):
                m = tuple(rng.randint(0, 2) for _ in range(3))
                c = field.coerce(rng.choice((-2, -1, 1, 3)))
                terms[m if rank is None else (rng.randrange(rank), m)] = c
            return (Polynomial(R3, terms) if rank is None
                    else Vec(R3, rank, terms))

        gens = [g for g in (element() for _ in range(rng.randint(2, 4))) if g]
        widths = []
        with _check_update_against_reference(widths):
            try:
                if rank is None:
                    buchberger(gens, order, max_basis=60, max_degree=12)
                else:
                    module_buchberger(gens, PositionOverTerm(order),
                                      max_basis=60, max_degree=12)
            except ResourceLimitError:
                pass
    for order, gens in ((Lex(), ["x^2 - z^70", "x*y - z^70"]),
                        (BlockOrder([0, 1], 3),
                         ["x*y - z^60", "x^2 + y^2 - z^65", "y^3 - x*z"])):
        R3 = RingDescriptor.graded("x,y,z")
        widths = []
        with _check_update_against_reference(widths):
            basis = buchberger([parse_polynomial(R3, f) for f in gens],
                               order, max_degree=400)
        assert widths[0] == 8 and widths[-1] == 16
        assert basis == buchberger([parse_polynomial(R3, f) for f in gens],
                                   order, max_degree=400)


def _katsura(n):
    """Katsura-n in u0..un: the sum over l of u_|l|*u_|m-l| is u_m for
    m < n, and u0 + 2*(u1 + ... + un) = 1."""
    R = RingDescriptor.graded(",".join("u%d" % i for i in range(n + 1)))

    def u(i):
        return R.gen(abs(i)) if abs(i) <= n else R.zero()
    polys = []
    for m in range(n):
        f = R.zero() - u(m)
        for l in range(-n, n + 1):
            f = f + u(l) * u(m - l)
        polys.append(f)
    f = u(0) - R.one()
    for i in range(1, n + 1):
        f = f + u(i) + u(i)
    return R, polys + [f]


def _cyclic(n):
    """Cyclic-n in x0..x(n-1)."""
    R = RingDescriptor.graded(",".join("x%d" % i for i in range(n)))
    polys = []
    for k in range(1, n):
        f = R.zero()
        for start in range(n):
            mono = [0] * n
            for j in range(k):
                mono[(start + j) % n] += 1
            f = f + R.monomial(mono)
        polys.append(f)
    return R, polys + [R.monomial([1] * n) - R.one()]


def _homogenized(R, polys):
    """The polynomials homogenized by a trailing variable h."""
    H = RingDescriptor.graded(",".join(R.names + ("h",)))
    out = []
    for f in polys:
        top = max(sum(m) for m in f.terms)
        out.append(Polynomial(H, {m + (top - sum(m),): c
                                  for m, c in f.terms.items()}))
    return H, out


@pytest.mark.parametrize("system, homogenize, divided, zero", [
    ("katsura4", False, 28, 18), ("katsura4", True, 28, 18),
    ("cyclic5", False, 112, 75), ("cyclic5", True, 112, 75)])
def test_buchberger_pair_sequence_is_pinned(system, homogenize, divided,
                                            zero):
    """The Buchberger loop divides the same pairs, in the same order, with
    the same zero remainders, under the packed Gebauer-Moeller update and
    under the tuple reference: on Katsura-4 and cyclic-5 and their
    homogenizations, through an ideal handle, it divides 28 pairs with 18
    zero remainders and 112 with 75."""
    from unittest import mock
    import arithdeg.groebner as groebner_mod
    from helpers import update_pairs_reference
    R, polys = _katsura(4) if system == "katsura4" else _cyclic(5)
    if homogenize:
        R, polys = _homogenized(R, polys)
    divide_pair, log = groebner_mod._divide_pair, []

    def logged(i, j, *args):
        got = divide_pair(i, j, *args)
        log.append((i, j, got is None))
        return got

    def reference_update(P, members, forms, leads, sugar, n, order, ops,
                         deg):
        update_pairs_reference(P, members, leads, sugar, n, order, ops, deg)
        packer = forms.packer
        for pairs in P.values():
            for ij, rec in pairs.items():
                if len(rec) == 5:
                    pairs[ij] = rec + (packer.pack(rec[4]) & packer.fields,)

    runs = []
    for update in (groebner_mod._update_pairs, reference_update):
        log = []
        with mock.patch.object(groebner_mod, "_divide_pair", logged), \
                mock.patch.object(groebner_mod, "_update_pairs", update):
            basis = IdealHandle(R, polys).groebner_basis()
        runs.append((log, basis))
    (log, basis), (ref_log, ref_basis) = runs
    assert log == ref_log and basis == ref_basis
    assert (len(log), sum(z for _, _, z in log)) == (divided, zero)
