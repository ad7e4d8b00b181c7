"""Module engine: syzygies, free resolutions, Ext presentations."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

import arithdeg.modules as modules_mod
from arithdeg.errors import (AlgebraError, InternalConsistencyError,
                             RingMismatchError)
from arithdeg.fields import GF, QQ
from arithdeg.groebner import IdealHandle
from arithdeg.hilbert import (as_presentation, dimension, hilbert_value,
                              hilbert_value_bruteforce, monomials_of_degree)
from arithdeg.modules import (ChainComplex, ModulePresentation, Vec,
                              ext_presentation, free_resolution,
                              schreyer_syzygies, syzygies_of,
                              module_buchberger, PositionOverTerm)
from arithdeg.numerical import binom
from arithdeg.rings import Polynomial, RingDescriptor, mono_mul

from helpers import is_zero_module, ranks


def term_mul(v, mono, coeff):
    """The vector v times the term coeff*mono."""
    return Vec(v.ring, v.rank, {(c, mono_mul(m, mono)): a * coeff
                                for (c, m), a in v.terms.items()})


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


def test_koszul_syzygy(R):
    x, y = R.gens()
    syz = syzygies_of([Vec.from_polys(R, (x,)), Vec.from_polys(R, (y,))], R, 1)
    assert len(syz) == 1
    (v,) = syz
    a, b = v.to_polys()
    # +-(y, -x)
    assert a * x + b * y == R.zero()
    assert {repr(a), repr(b)} <= {"y", "-y", "x", "-x"}


def test_single_nonzerodivisor_no_syzygies(R):
    x, _ = R.gens()
    assert syzygies_of([Vec.from_polys(R, (x ** 2 - 1,))], R, 1) == []


def test_syzygy_x2_xy(R):
    x, y = R.gens()
    syz = syzygies_of([Vec.from_polys(R, (x ** 2,)),
                       Vec.from_polys(R, (x * y,))], R, 1)
    assert syz
    for v in syz:
        a, b = v.to_polys()
        assert a * x ** 2 + b * x * y == R.zero()
    # (y, -x) lies in the syzygy module
    target = Vec.from_polys(R, (y, -x))
    morder = PositionOverTerm()
    gb = module_buchberger(syz, morder)
    from arithdeg.modules import module_normal_form
    assert not module_normal_form(target, gb, morder)


def test_resolution_principal(R):
    x, _ = R.gens()
    M = ModulePresentation.from_ideal(IdealHandle(R, [x]))
    res = free_resolution(M, 5)
    assert ranks(res) == [1, 1]
    assert res.complete


def test_resolution_residue_field(R):
    x, y = R.gens()
    M = ModulePresentation.from_ideal(IdealHandle(R, [x, y]))
    res = free_resolution(M, 5)
    assert ranks(res) == [1, 2, 1]
    assert res.complete
    assert res.level_shifts[0] == (1, 1)
    assert res.level_shifts[1] == (2,)


def test_resolution_x2_xy_euler(R):
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    M = ModulePresentation.from_ideal(I)
    res = free_resolution(M, 5)
    assert ranks(res) == [1, 2, 1]
    # Euler characteristic against the Hilbert function of S/I
    for d in range(6):
        total = 0
        sign = 1
        shifts = [res.base_shifts] + res.level_shifts
        for level, rank in enumerate(ranks(res)):
            for c in range(rank):
                s = shifts[level][c]
                total += sign * binom(d - s + R.nvars - 1, R.nvars - 1) * (1 if d >= s else 0)
            sign = -sign
        assert total == hilbert_value(I, d)


def test_complex_property_enforced(R):
    x, y = R.gens()
    with pytest.raises(InternalConsistencyError):
        ChainComplex(R, 1, (0,),
                     [[Vec.from_polys(R, (x,))], [Vec.from_polys(R, (y,))]],
                     [(1,), (2,)], True)


def _koszul_xyz(ring, flip=False, scales=None):
    """Differentials of the Koszul complex of (x, y, z), as Vec columns;
    flip negates one entry of d2.  scales, when given, is one list of
    column factors per differential: column j of d_k is multiplied by
    scales[k-1][j] and its entry in row t divided by scales[k-2][t], so
    the maps still compose to zero."""
    x, y, z = ring.gens()
    o = ring.zero()

    def cols(*entries):
        return [Vec.from_polys(ring, e) for e in entries]

    d1 = cols((x,), (y,), (z,))
    d2 = cols((y if flip else -y, x, o), (-z, o, x), (o, -z, y))
    d3 = cols((z, -y, x))
    diffs = [d1, d2, d3]
    if scales:
        rows = [[1]] + scales
        diffs = [[Vec(ring, col.rank, {(t, m): v * a / rows[k][t]
                                       for (t, m), v in col.terms.items()})
                  for col, a in zip(d, scales[k])]
                 for k, d in enumerate(diffs)]
    return diffs


def test_complex_checks_products_across_columns():
    """Each d1*d2 product cancels only across different columns of d1,
    so the check has to sum over them; one flipped sign is caught."""
    R3 = RingDescriptor.graded("x,y,z", field=GF(7))
    shifts = [(1, 1, 1), (2, 2, 2), (3,)]
    koszul = ChainComplex(R3, 1, (0,), _koszul_xyz(R3), shifts, True)
    assert ranks(koszul) == [1, 3, 3, 1]
    with pytest.raises(InternalConsistencyError):
        ChainComplex(R3, 1, (0,), _koszul_xyz(R3, flip=True), shifts, True)


def test_complex_check_over_q_with_denominators():
    """Over Q the check brings each map's columns to ints by their own
    denominators and weighs the lower map's columns by P/D_t: the Koszul
    complex with columns scaled by non-unit fractions passes, and one
    flipped sign still raises."""
    R3 = RingDescriptor.graded("x,y,z")
    scales = [[Fraction(1, 2), Fraction(2, 3), Fraction(-5, 4)],
              [Fraction(3, 7), Fraction(1, 6), Fraction(9, 2)],
              [Fraction(-2, 5)]]
    shifts = [(1, 1, 1), (2, 2, 2), (3,)]
    koszul = ChainComplex(R3, 1, (0,), _koszul_xyz(R3, scales=scales),
                          shifts, True)
    assert any(c.denominator > 1 for d in koszul.differentials for col in d
               for c in col.terms.values())
    with pytest.raises(InternalConsistencyError):
        ChainComplex(R3, 1, (0,), _koszul_xyz(R3, flip=True, scales=scales),
                     shifts, True)


def test_presentation_rejects_bad_columns(R):
    x, _ = R.gens()
    with pytest.raises(AlgebraError):
        ModulePresentation(R, 2, [Vec.from_polys(R, (x,))])
    other = RingDescriptor.graded("x,y,z")
    with pytest.raises(RingMismatchError):
        ModulePresentation(R, 1, [Vec.from_polys(other, (other.gens()[0],))])


def test_schreyer_syzygies_generate(R):
    x, y = R.gens()
    morder = PositionOverTerm()
    gb = module_buchberger([Vec.from_polys(R, (x ** 2,)),
                            Vec.from_polys(R, (x * y,)),
                            Vec.from_polys(R, (y ** 3,))], morder)
    syz, sorder, _leads = schreyer_syzygies(gb, morder)
    for v in syz:
        total = Vec(R, 1, {})
        for k, g in enumerate(gb):
            coeffs = {m: c for (comp, m), c in v.terms.items() if comp == k}
            for m, c in coeffs.items():
                total = total + term_mul(g, m, c)
        assert not total


def test_schreyer_levels_carry_their_leads():
    """Each Schreyer step returns its basis's leads under its own order,
    and the next step given those leads returns what it returns when it
    computes them itself, level after level of the resolution of
    S/(x^2, xy, yz + z^2, z^3) in Q[x,y,z]."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    pot = PositionOverTerm()
    G, order, leads = list(as_presentation(IdealHandle(
        R3, [x ** 2, x * y, y * z + z ** 2, z ** 3])).gb()), pot, None
    levels = 0
    while G:
        carried = schreyer_syzygies(G, order, leads)
        assert carried == schreyer_syzygies(G, order)
        G, order, leads = carried
        assert leads == [g.leading_term(order) for g in G]
        levels += 1
    assert levels >= 3


def test_schreyer_rejects_non_basis(R):
    """An S-vector that leaves a remainder means G was no Groebner basis."""
    x, y = R.gens()
    G = [Vec.from_polys(R, (x * y,)), Vec.from_polys(R, (x ** 2 - y ** 2,))]
    with pytest.raises(InternalConsistencyError):
        schreyer_syzygies(G, PositionOverTerm())


def test_ext_free_module(R):
    S_free = ModulePresentation(R, 1, [])
    E0 = ext_presentation(S_free, 0)
    assert E0.rank == 1 and not E0.columns
    assert is_zero_module(ext_presentation(S_free, 1))


def test_ext_residue_field(R):
    x, y = R.gens()
    k_mod = ModulePresentation.from_ideal(IdealHandle(R, [x, y]))
    E2 = ext_presentation(k_mod, 2)
    # Koszul self-duality: Ext^2(k, S) = k up to shift
    assert dimension(E2) == 0
    assert hilbert_value(E2, -2) == 1
    assert sum(hilbert_value(E2, d) for d in range(-4, 4)) == 1
    assert is_zero_module(ext_presentation(k_mod, 1))
    assert is_zero_module(ext_presentation(k_mod, 0))


def test_ext_hypersurface(R):
    x, y = R.gens()
    f = x ** 2 - y ** 2
    Mf = ModulePresentation.from_ideal(IdealHandle(R, [f]))
    E1 = ext_presentation(Mf, 1)
    # Ext^1(S/f, S) = S/f shifted by deg f
    assert E1.rank == 1
    assert [hilbert_value(E1, d) for d in range(-2, 3)] == \
        [hilbert_value(IdealHandle(R, [f]), d + 2) for d in range(-2, 3)]
    assert is_zero_module(ext_presentation(Mf, 0))


def test_ext_euler_characteristic(R):
    """Hilbert alternating sum of Ext^j equals the one of the dualized
    complex (cohomology preserves Euler characteristics)."""
    x, y = R.gens()
    I = IdealHandle(R, [x ** 2, x * y])
    M = ModulePresentation.from_ideal(I)
    res = free_resolution(M, R.nvars + 1)
    shifts = [res.base_shifts] + res.level_shifts
    exts = [ext_presentation(M, j) for j in range(len(ranks(res)))]
    for d in range(-3, 4):
        lhs = 0
        sign = 1
        for E in exts:
            lhs += sign * hilbert_value(E, d)
            sign = -sign
        rhs = 0
        sign = 1
        for level in range(len(ranks(res))):
            for s in shifts[level]:
                e = d + s   # dual generator sits in degree -s
                rhs += sign * (binom(e + R.nvars - 1, R.nvars - 1) if e >= 0 else 0)
            sign = -sign
        assert lhs == rhs


def test_ext_rejects_a_kernel_basis_short_of_one_generator(monkeypatch):
    """Each column of the transposed d_j must divide by the kernel basis K
    of the transposed d_(j+1) with remainder zero.  With one generator of
    K dropped, a column of S/(x^2, xy, xz)'s Ext^2 is left over, and
    ext_presentation raises."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    pres = as_presentation(IdealHandle(R3, [x ** 2, x * y, x * z]))
    assert ext_presentation(pres, 2).rank == 3
    syzygies = modules_mod.syzygies_of
    monkeypatch.setattr(modules_mod, "syzygies_of",
                        lambda *args, **kw: syzygies(*args, **kw)[:-1])
    with pytest.raises(InternalConsistencyError):
        ext_presentation(pres, 2)


def _ext_reference(pres, j):
    """Ext^j(coker(pres), S) by the augmented route: generators K, the
    kernel of the transposed d_(j+1) from syzygies_of (the unit vectors
    at the top of a complete resolution), and as relations the K-block of
    the syzygies of K together with the columns of the transposed d_j,
    from a second syzygies_of."""
    from arithdeg.modules import (_negate_shift, _transpose, _vec_degree,
                                  resolution_for)
    ring = pres.ring
    res = resolution_for(pres, j + 1)
    ranks = [pres.rank] + [len(d) for d in res.differentials]
    if j > res.length or ranks[j] == 0:
        return ModulePresentation(ring, 0, [])
    if j == res.length:
        K = [Vec(ring, ranks[j], {(c, ring.zero_mono()): ring.field.one})
             for c in range(ranks[j])]
    else:
        K = syzygies_of(_transpose(ring, res.differentials[j], ranks[j]),
                        ring, ranks[j + 1])
    if not K:
        return ModulePresentation(ring, 0, [])
    psi = _transpose(ring, res.differentials[j - 1], ranks[j - 1]) if j else []
    s = len(K)
    rels = [Vec(ring, s, {t: v for t, v in r.terms.items() if t[0] < s})
            for r in syzygies_of(K + psi, ring, ranks[j])]
    dual = [_negate_shift(a) for a in ([pres.shifts] + res.level_shifts)[j]]
    return ModulePresentation(ring, s, rels,
                              shifts=[_vec_degree(ring, dual, k) for k in K])


@st.composite
def _graded_modules(draw):
    """A graded module over Q or Z/7 in x, y, z: S/I for 2-4 homogeneous
    generators of degree 1-3, or a rank-2 presentation with shifts (0, a)
    and 2-4 homogeneous columns; a form of positive degree has 2 or 3
    terms with fractional coefficients, so the input is not monomial."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    R3 = RingDescriptor.graded("x,y,z", field=field)
    coeff = st.builds(Fraction, st.integers(-5, 5).filter(bool),
                      st.integers(1, 3))

    def form(d):
        mons = list(monomials_of_degree(3, d))
        return Polynomial(R3, draw(st.dictionaries(
            st.sampled_from(mons), coeff, min_size=min(2, len(mons)),
            max_size=3)))
    if draw(st.booleans()):
        return as_presentation(IdealHandle(
            R3, [form(draw(st.integers(1, 3)))
                 for _ in range(draw(st.integers(2, 4)))]))
    shifts = (0, draw(st.integers(0, 1)))
    cols = []
    for _ in range(draw(st.integers(2, 4))):
        d = draw(st.integers(1, 3))
        cols.append(Vec.from_polys(R3, [
            form(d - a) if draw(st.booleans()) else R3.zero()
            for a in shifts]))
    return ModulePresentation(R3, 2, cols, shifts=shifts)


@seed(2020)
@settings(max_examples=40, deadline=None)
@given(_graded_modules())
def test_ext_matches_the_augmented_route(pres):
    """For every j in 0..n, Ext^j from the division by K and K's Schreyer
    syzygies (coker(d_L^T) at the top) has the generators and the Hilbert
    function of the augmented route's, on degrees -12..2."""
    for j in range(pres.ring.nvars + 1):
        got, ref = ext_presentation(pres, j), _ext_reference(pres, j)
        assert (got.rank, got.shifts) == (ref.rank, ref.shifts)
        assert ([hilbert_value(got, d) for d in range(-12, 3)]
                == [hilbert_value(ref, d) for d in range(-12, 3)])


def test_resolution_length_bound():
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    I = IdealHandle(R3, [x * y, y * z, x * z, x ** 2 - y ** 2])
    res = free_resolution(ModulePresentation.from_ideal(I), R3.nvars + 1)
    assert res.complete
    assert res.length <= R3.nvars


def _no_module_buchberger(*args, **kwargs):
    raise AssertionError("module_buchberger called on S/I")


def test_quotient_reuses_ideal_basis(monkeypatch):
    """After I.groebner_basis(), S/I needs no Groebner basis of its own."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    I = IdealHandle(R3, [x ** 2 - y * z, x * y - z ** 2])
    basis = I.groebner_basis()
    monkeypatch.setattr(modules_mod, "module_buchberger", _no_module_buchberger)
    assert dimension(I) == 1
    for d in range(6):
        assert hilbert_value(I, d) == hilbert_value_bruteforce(I, d)
    res = free_resolution(as_presentation(I), R3.nvars + 1)
    assert res.differentials[0] == [Vec.from_polys(R3, (g,)) for g in basis]
    assert res.complete


def test_quotient_basis_matches_module_engine():
    """The basis S/I takes from its ideal is the one the module engine
    computes from the raw generators."""
    R3 = RingDescriptor.graded("x,y,z")
    rng = random.Random(4242)
    for _ in range(30):
        gens = []
        for _ in range(rng.randint(1, 3)):
            f = R3.zero()
            for _ in range(rng.randint(1, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + R3.monomial(exps, rng.randint(-3, 3))
            gens.append(f)
        pres = as_presentation(IdealHandle(R3, gens))
        expected = module_buchberger(pres.columns, PositionOverTerm())
        assert list(pres.gb()) == expected


def test_no_product_criterion_above_rank_one(R):
    """Coprime leads x*e1 and y*e1 still leave the S-vector y*e2."""
    x, y = R.gens()
    morder = PositionOverTerm()
    gb = module_buchberger([Vec.from_polys(R, (x, R.one())),
                            Vec.from_polys(R, (y, R.zero()))], morder)
    assert (1, (0, 1)) in [g.leading_term(morder)[0] for g in gb]


def _s_vector(f, g, morder):
    (cf, mf), af = f.leading_term(morder)
    (cg, mg), ag = g.leading_term(morder)
    lcm = tuple(max(a, b) for a, b in zip(mf, mg))
    qf = tuple(a - b for a, b in zip(lcm, mf))
    qg = tuple(a - b for a, b in zip(lcm, mg))
    return term_mul(f, qf, 1 / af) - term_mul(g, qg, 1 / ag)


def _divides(s, t):
    return s[0] == t[0] and all(a <= b for a, b in zip(s[1], t[1]))


@pytest.mark.parametrize("rank", [2, 3])
@pytest.mark.parametrize("schreyer", [False, True])
def test_random_submodule_bases(rank, schreyer):
    """Random submodules of S^2 and S^3: the returned basis satisfies the
    Buchberger criterion, contains every input and is reduced."""
    from arithdeg.modules import SchreyerOrder, module_normal_form
    R3 = RingDescriptor.graded("x,y,z")
    morder = PositionOverTerm()
    if schreyer:
        leads = [(0, (1, 0, 0)), (1, (0, 0, 0)), (0, (0, 1, 1))][:rank]
        morder = SchreyerOrder(morder, leads)
    rng = random.Random(100 * rank + schreyer)

    def rand_poly():
        f = R3.zero()
        for _ in range(rng.randint(0, 2)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            f = f + R3.monomial(exps, rng.randint(-3, 3))
        return f

    for _ in range(8):
        vecs = [Vec.from_polys(R3, [rand_poly() for _ in range(rank)])
                for _ in range(rng.randint(1, 3))]
        gb = module_buchberger(vecs, morder)
        for i, f in enumerate(gb):
            for g in gb[i + 1:]:
                if f.leading_term(morder)[0][0] == g.leading_term(morder)[0][0]:
                    assert not module_normal_form(_s_vector(f, g, morder),
                                                  gb, morder)
        for v in vecs:
            assert not module_normal_form(v, gb, morder)
        leads = [g.leading_term(morder) for g in gb]
        assert all(c == 1 for _, c in leads)
        for i, g in enumerate(gb):
            for j, (t, _) in enumerate(leads):
                if j != i:
                    assert not any(_divides(t, u) for u in g.terms)


@pytest.mark.parametrize("schreyer", [False, True])
def test_module_normal_form_given_leads_matches_computed(schreyer):
    """Passing each divisor's (lead, coefficient) gives the remainder that
    computing them does, for random non-monic vectors in S^3."""
    from arithdeg.modules import SchreyerOrder, module_normal_form
    R3 = RingDescriptor.graded("x,y,z")
    morder = PositionOverTerm()
    if schreyer:
        morder = SchreyerOrder(morder, [(0, (1, 0, 0)), (1, (0, 0, 0)),
                                        (0, (0, 1, 1))])
    rng = random.Random(707 + schreyer)

    def rand_vec():
        polys = []
        for _ in range(3):
            f = R3.zero()
            for _ in range(rng.randint(0, 3)):
                exps = tuple(rng.randint(0, 2) for _ in range(3))
                f = f + R3.monomial(exps, rng.randint(-5, 5))
            polys.append(f)
        return Vec.from_polys(R3, polys)

    for _ in range(40):
        basis = [g for g in (rand_vec() for _ in range(rng.randint(1, 4))) if g]
        v = rand_vec()
        leads = [g.leading_term(morder) for g in basis]
        assert (module_normal_form(v, basis, morder, leads)
                == module_normal_form(v, basis, morder))


def test_resolution_extended_level_by_level(monkeypatch):
    """adeg_graded at i = 2, 1, 0 on S/(x^2, xy, xz) asks for resolutions
    of length 2, 3 and 4.  The cached one is extended, so Schreyer
    syzygies run once per level, on the bases of ranks 3, 3 and 1 (the
    last finds the fourth level empty), and it ends equal to a resolution
    built in one go.  Only the Schreyer steps that extend the resolution
    are counted, not those the Ext modules take of their own kernels."""
    from arithdeg.adeg import adeg_graded
    R3 = RingDescriptor.graded("x,y,z")
    gens = ["x^2", "x*y", "x*z"]
    expected = {i: adeg_graded(IdealHandle(R3, gens), i) for i in (2, 1, 0)}
    seen, extending = [], []
    schreyer, extend = modules_mod.schreyer_syzygies, ChainComplex.extend

    def counted(G, morder, leads=None):
        if extending:
            seen.append(len(G))
        return schreyer(G, morder, leads)

    def extend_counted(self, max_length):
        extending.append(True)
        try:
            return extend(self, max_length)
        finally:
            extending.pop()

    monkeypatch.setattr(modules_mod, "schreyer_syzygies", counted)
    monkeypatch.setattr(ChainComplex, "extend", extend_counted)
    I = IdealHandle(R3, gens)
    assert {i: adeg_graded(I, i) for i in (2, 1, 0)} == expected
    assert seen == [3, 3, 1]
    res = as_presentation(I)._cache["resolution"]
    fresh = free_resolution(as_presentation(IdealHandle(R3, gens)), 4)
    assert res.complete and fresh.complete
    assert res.differentials == fresh.differentials
    assert res.level_shifts == fresh.level_shifts


def test_extended_resolution_checks_new_maps(R, monkeypatch):
    """A level added by extension is checked against the one before it."""
    x, y = R.gens()
    pres = as_presentation(IdealHandle(R, [x ** 2, x * y]))
    res = free_resolution(pres, 1)
    bogus = [Vec.from_polys(R, (y, R.zero()))]
    monkeypatch.setattr(modules_mod, "schreyer_syzygies",
                        lambda G, morder, leads: (bogus, morder, None))
    with pytest.raises(InternalConsistencyError):
        res.extend(2)
