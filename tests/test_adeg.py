"""Arithmetic degrees (all flavors) and the verification harness."""

import math
import random
import re
import warnings

import pytest
from hypothesis import given, seed, settings, strategies as st

import arithdeg.adeg as adeg_mod
import arithdeg.constructions as constructions_mod
from arithdeg.adeg import (adeg_graded, adeg_report_ext, adeg_report_monomial,
                           cached_gg, gmult, ladeg,
                           prune_coordinate_variables, verify)
from arithdeg.errors import (HomogeneityError, InternalConsistencyError,
                             ResourceLimitError, TheoremViolationError,
                             UnsupportedInputError)
from arithdeg.fields import GF, QQ
from arithdeg.groebner import (IdealHandle, ideal_power, ideal_sum,
                               maximal_ideal)
from arithdeg.hilbert import (artinian_length, classical_multiplicity,
                              dimension, monomials_of_degree)
from arithdeg.monomials import decompose
from arithdeg.numerical import MultiplicityVector
from arithdeg.rings import Polynomial, RingDescriptor
from arithdeg.runner import execute_script
from arithdeg.session import parse_session

from helpers import full_ring_prime_gmult, interpolate_poly1


@pytest.fixture
def R():
    return RingDescriptor.graded("x,y")


@pytest.fixture
def R1():
    return RingDescriptor.graded("x")


def test_adeg_free(R):
    assert adeg_report_ext(IdealHandle(R, [])).table() == {0: 0, 1: 0, 2: 1}


def test_adeg_matches_oracle(R):
    x, y = R.gens()
    for gens in ([x ** 2, x * y], [x * y], [x ** 3, x ** 2 * y], [x, y]):
        I = IdealHandle(R, gens)
        assert adeg_report_ext(I).table() == adeg_report_monomial(I).table()


def test_adeg_expected_values(R):
    x, y = R.gens()
    assert adeg_graded(IdealHandle(R, [x ** 2, x * y]), 1) == 1
    assert adeg_graded(IdealHandle(R, [x ** 2, x * y]), 0) == 1
    assert adeg_graded(IdealHandle(R, [x * y]), 1) == 2
    assert adeg_graded(IdealHandle(R, [x * y]), 0) == 0


def test_gmult_worked(R1):
    x, = R1.gens()
    assert gmult(IdealHandle(R1, []), IdealHandle(R1, [x ** 2]), 1) == \
        MultiplicityVector(1, (2, 0))


def samuel_wrt_ideal(J, I, max_n=10):
    """Independent Samuel multiplicity for m-primary I: interpolate the
    lengths l(S/(J + I^(n+1))) and read the top coefficient."""
    values = [artinian_length(ideal_sum(J, ideal_power(I, n + 1)))
              for n in range(max_n)]
    n = J.ring.nvars
    for start in range(max_n - n - 3):
        pts = values[start:start + n + 1]
        poly = interpolate_poly1(pts, start)
        window = values[start:start + n + 4]
        if all(poly(start + k) == window[k] for k in range(len(window))):
            return poly.coefficient(poly.degree), poly.degree
    raise AssertionError("Samuel function did not stabilize")


def test_prop_clad_degeneration(R):
    """For m-primary I: (gmult)_0 = e(I; A), other components vanish."""
    x, y = R.gens()
    J = IdealHandle(R, [])
    cases = [
        IdealHandle(R, [x, y]),
        IdealHandle(R, [x ** 2, x * y, y ** 2]),
        IdealHandle(R, [x ** 2, y ** 2]),
        IdealHandle(R, [x ** 3, x * y, y ** 2]),
    ]
    for I in cases:
        d = dimension(J)
        vec = gmult(J, I, d)
        e, deg = samuel_wrt_ideal(J, I)
        assert deg == d
        assert vec.components[0] == e
        assert all(c == 0 for c in vec.components[1:])


def test_prop_clad_on_quotient(R1):
    x, = R1.gens()
    J = IdealHandle(R1, [])
    I = IdealHandle(R1, [x ** 2])
    vec = gmult(J, I, 1)
    e, deg = samuel_wrt_ideal(J, I)
    assert (e, deg) == (2, 1)
    assert vec == MultiplicityVector(1, (2, 0))


def test_prop_sum(R):
    """e_i(gr_I M) = sum_k (gmult_i)_k."""
    x, y = R.gens()
    cases = [
        (IdealHandle(R, []), IdealHandle(R, [x ** 2, x * y])),
        (IdealHandle(R, [x ** 2, x * y]), maximal_ideal(R)),
        (IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R)),
        (IdealHandle(R, [x * y]), IdealHandle(R, [x ** 2, x * y, y ** 2])),
    ]
    for J, I in cases:
        gg = cached_gg(J, I)
        gr = IdealHandle(gg.gr.ring, list(gg.gr.ideal.groebner_basis()))
        pruned = prune_coordinate_variables(gr)
        d = dimension(pruned)
        for i in range(d + 1):
            e_i = classical_multiplicity(pruned, i)
            assert e_i == gmult(J, I, i).total()


def test_ladeg_worked(R):
    x, y = R.gens()
    I1 = IdealHandle(R, [x ** 2, x * y])
    m = maximal_ideal(R)
    assert ladeg(I1, m, 0) == MultiplicityVector(0, (1,))
    assert ladeg(I1, m, 1) == MultiplicityVector(1, (1, 0))
    # prime input: ladeg_dim = gmult_dim
    cusp = IdealHandle(R, [y ** 2 - x ** 3])
    assert ladeg(cusp, m, 1, meta={"prime": True}) == gmult(cusp, m, 1)
    assert ladeg(cusp, m, 0, meta={"prime": True}).is_zero()
    # no associated primes in this dimension
    assert ladeg(I1, m, 2).is_zero()


def test_ladeg_unsupported(R):
    x, y = R.gens()
    bad = IdealHandle(R, [x ** 2 * y - x ** 4])
    with pytest.raises(UnsupportedInputError):
        ladeg(bad, maximal_ideal(R), 1)


def test_ladeg_remark_identity_cyclic(R):
    """ladeg_i = gmult_i(I, M_{<=i}) where M_{<=i} is cyclically presentable:
    (x^2, xy) at i = 0 gives M_{<=0} = (x)/(x^2,xy) = S/(x,y) up to shift."""
    x, y = R.gens()
    I1 = IdealHandle(R, [x ** 2, x * y])
    m = maximal_ideal(R)
    # M_{<=0} = (x)/(x^2, xy) = S/((x^2,xy):x) = S/(x,y)
    quot = IdealHandle(R, [x, y])
    assert ladeg(I1, m, 0) == gmult(quot, m, 0)


# ---------------------------------------------------------------------------
# GG(S/p) of a coordinate prime over S/p = k[x_k : x_k not in p]

@st.composite
def _monomial_pairs(draw):
    """Monomial J of 1-3 generators of degree 1-3 in 2-4 variables over Q
    or Z/7, with I of 1-2 generators: monomials of degree 1-2, or 1-2 terms
    of degree 1-2 (x + y^2 among them), whose image mod p is not I's
    generators."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(2, 4))
    ring = RingDescriptor.graded(",".join("xyzw"[:n]), field=field)
    mons = [m for d in (1, 2) for m in monomials_of_degree(n, d)]
    J = [ring.monomial(draw(st.sampled_from(list(monomials_of_degree(
        n, draw(st.integers(1, 3)))))))
         for _ in range(draw(st.integers(1, 3)))]
    size = 1 if draw(st.booleans()) else 2
    I = [Polynomial(ring, draw(st.dictionaries(
        st.sampled_from(mons), st.integers(-3, 3).filter(bool),
        min_size=1, max_size=size)))
         for _ in range(draw(st.integers(1, 2)))]
    return IdealHandle(ring, J), IdealHandle(ring, I)


@seed(2525)
@settings(max_examples=40, deadline=None)
@given(_monomial_pairs())
def test_prime_gg_over_the_coordinate_ring(pair):
    """ee_i(GG(S/p)) over the coordinate ring equals the full ring's, on
    every associated prime p of S/J."""
    J, I = pair
    n = J.ring.nvars
    for supp in decompose(J).associated_primes:
        i = n - len(supp)
        assert (gmult(*adeg_mod._prime_pair(J, I, supp), i)
                == full_ring_prime_gmult(J, I, supp, i)), (J, I, sorted(supp))


def test_prime_gg_fallbacks(R):
    """p = m, and I inside p, keep the full ring: no variable survives, or
    every generator of I maps to 0."""
    x, y = R.gens()
    cases = [(IdealHandle(R, [x ** 2, x * y, y ** 2]), maximal_ideal(R),
              frozenset({0, 1})),
             (IdealHandle(R, [x * y]), IdealHandle(R, [x]), frozenset({0}))]
    for J, I, supp in cases:
        P, I2 = adeg_mod._prime_pair(J, I, supp)
        assert P.ring is R and I2 is I
        assert P.gens == IdealHandle(R, [R.gen(k) for k in supp]).gens
        i = 2 - len(supp)
        assert gmult(P, I2, i) == full_ring_prime_gmult(J, I, supp, i)
    assert ladeg(cases[0][0], cases[0][1], 0) == MultiplicityVector(0, (3,))
    # (x) gives ee_1 = (0, 1) in the full ring, (y) gives (1, 0) over Q[x]
    assert ladeg(cases[1][0], cases[1][1], 1) == MultiplicityVector(1, (1, 1))


def test_prime_gg_drops_p_and_maps_i():
    """For p = (x) in Q[x,y,z] and I = (x + y^2, xz, z), the coordinate ring
    is Q[y,z] and I's image is (y^2, z)."""
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    J = IdealHandle(R3, [x * y, x * z], max_basis=500, max_degree=30)
    I = IdealHandle(R3, [x + y ** 2, x * z, z], max_basis=400, max_degree=20)
    P, I2 = adeg_mod._prime_pair(J, I, frozenset({0}))
    assert P.ring.names == ("y", "z") and P.is_zero()
    assert [repr(g) for g in I2.gens] == ["z", "y^2"]
    assert (P.max_basis, P.max_degree) == (500, 30)
    assert (I2.max_basis, I2.max_degree) == (400, 20)


@pytest.mark.parametrize("ideal_i", ["x, y", "x^2 + y^2, x*y"])
def test_ladeg_gg_builds_take_the_script_caps(monkeypatch, ideal_i):
    """A script's max_degree and max_basis reach every ideal handle and
    every Groebner basis of verify, the GG builds of ladeg's primes
    included (the homogenized work ring of gr_I's initial forms runs at
    twice the degree cap).
    With I = m and monomial J no basis runs at all, so the caps of the
    handles the build creates are what the test reads there."""
    import arithdeg.groebner as groebner_mod
    from arithdeg.runner import execute_script
    from arithdeg.session import parse_session
    caps, handles = set(), set()
    buchberger = groebner_mod.buchberger
    init = IdealHandle.__init__

    def recorded(gens, order, max_basis=groebner_mod.DEFAULT_MAX_BASIS,
                 max_degree=groebner_mod.DEFAULT_MAX_DEGREE):
        caps.add((max_basis, max_degree))
        return buchberger(gens, order, max_basis, max_degree)

    def recorded_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        handles.add((self.max_basis, self.max_degree))
    monkeypatch.setattr(groebner_mod, "buchberger", recorded)
    monkeypatch.setattr(IdealHandle, "__init__", recorded_init)
    script = parse_session(
        "ring S = Q[x,y];\nideal J = x^2, x*y;\nideal I = %s;\n"
        "option max_degree 30;\noption max_basis 500;\ntask verify J I;\n"
        % ideal_i)
    execute_script(script)
    assert handles and handles <= {(500, 30), (500, 60)}, sorted(handles)
    assert caps <= {(500, 30), (500, 60)}, sorted(caps)


CAPS_SCRIPTS = [
    "ring S = Q[x,y];\nideal J = y^2 - x^3;\nideal M = x, y;\nmeta J prime;\n"
    "%stask gmult J M;\ntask ladeg J M;\ntask verify J M;\n",
    "ring S = Q[x,y];\nideal J = y^2 - x^3;\nideal I = x + y^2;\n%stask gg J I;\n",
    "ring S = Q[x,y,z];\nideal J = x^2, x*y;\nideal M = x, y, z;\n"
    "%stask adeg J;\ntask ladeg J M;\ntask verify J M;\n",
    "ring S = Q[x,y,z];\nideal J = x*y, y^2*z;\nideal I = x^2, y, z;\n"
    "%stask verify J I;\n",
]


def test_every_derived_handle_takes_the_script_caps(monkeypatch):
    """Every IdealHandle and ModulePresentation that a script's tasks build
    carries the script's caps, except the handles over the one kind of work
    ring, the homogenized ring of the initial forms (gr_I's among them),
    which run at twice the degree cap; ``_homogenized_basis``, the first
    step of initial_forms_ideal, is the only function that makes one.
    The scripts cover the Samuel, standard-pair, Ext and certificate
    routes, the GG gate's handle walk and its initial-forms route, and
    ladeg's prime GGs."""
    import sys
    import arithdeg.constructions as constructions_mod
    from arithdeg.modules import ModulePresentation
    from arithdeg.runner import execute_script
    from arithdeg.session import parse_session
    built, work, makers = [], [], set()

    def record(cls):
        init = cls.__init__

        def wrapped(self, *args, **kwargs):
            init(self, *args, **kwargs)
            built.append((cls.__name__, self.ring,
                          (self.max_basis, self.max_degree)))
        monkeypatch.setattr(cls, "__init__", wrapped)
    record(IdealHandle)
    record(ModulePresentation)
    extend = constructions_mod.extended_ring

    def work_ring(ring, names):
        makers.add(sys._getframe(1).f_code.co_name)
        work.append(extend(ring, names))
        return work[-1]
    monkeypatch.setattr(constructions_mod, "extended_ring", work_ring)
    caps = "option max_degree 250;\noption max_basis 5000;\n"
    for text in CAPS_SCRIPTS:
        execute_script(parse_session(text % caps))
    wrong = [(kind, ring, got) for kind, ring, got in built
             if got != ((5000, 500) if any(ring is w for w in work)
                        else (5000, 250))]
    assert built and not wrong, wrong
    assert makers == {"_homogenized_basis"}


def test_verify_strict_case(R1):
    x, = R1.gens()
    rec = verify(IdealHandle(R1, []), IdealHandle(R1, [x ** 2]), label="strict")
    assert rec.passed
    assert rec.lhs[1] == 2 and rec.rhs[1] == 2
    assert rec.cor1_gr[1] == 2 and rec.cor1_a[1] == 1   # strict


def test_verify_equality_case(R):
    x, y = R.gens()
    rec = verify(IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R),
                 meta={"prime": True}, label="cusp")
    assert rec.passed
    assert rec.cor1_gr[1] == 2 and rec.cor1_a[1] == 2   # equality


def test_verify_builds_one_tangent_cone_per_germ(R, monkeypatch):
    """verify on a curve germ with I = m reads J* twice, for gr_m(S/J) and
    for the Samuel multiplicity of corollary 1: both take the one cached
    on J's handle, so the initial forms run once."""
    x, y = R.gens()
    calls = []
    initial_forms_ideal = constructions_mod.initial_forms_ideal

    def counted(I, block):
        calls.append(I)
        return initial_forms_ideal(I, block)
    monkeypatch.setattr(constructions_mod, "initial_forms_ideal", counted)
    J = IdealHandle(R, [y ** 2 - x ** 3])
    rec = verify(J, maximal_ideal(R), meta={"prime": True}, label="cusp")
    assert rec.passed and rec.cor1_a[1] == 2
    assert calls == [J]


def test_verify_graded_fixed_point(R):
    x, y = R.gens()
    I1 = IdealHandle(R, [x ** 2, x * y])
    rec = verify(I1, maximal_ideal(R), label="graded")
    assert rec.passed
    assert rec.lhs == rec.rhs
    assert rec.embedded_a == [0]
    assert rec.embedded_checked


def _monomial_verify_scripts(rng, count):
    """Seeded `verify J I` scripts: random monomial J and monomial I != m
    in 2-3 variables, I equigenerated or of mixed degrees."""
    for _ in range(count):
        names = "xyz"[:rng.randint(2, 3)]
        n = len(names)

        def monomials(low, high, k):
            return sorted({"*".join("%s^%d" % (v, e)
                                    for v, e in zip(names, exps) if e)
                           for exps in (rng.choice(list(monomials_of_degree(
                               n, rng.randint(low, high))))
                               for _ in range(k))})
        J = monomials(2, 3, rng.randint(1, 3))
        I = m = ["%s^1" % v for v in names]
        while I == m:
            low, high = rng.choice([(1, 1), (2, 2), (1, 3)])
            I = monomials(low, high, rng.randint(1, 4))
        yield ("ring S = Q[%s];\nideal J = %s;\nideal I = %s;\n"
               "task verify J I;\n" % (",".join(names), ", ".join(J),
                                        ", ".join(I)))


def _germ_verify_scripts():
    """`verify J M` for the curve germs y^a - x^b with gcd(a, b) = 1, at the
    origin with I = m."""
    for a in range(2, 6):
        for b in range(2, 8):
            if math.gcd(a, b) == 1:
                yield ("ring S = Q[x,y];\nideal J = y^%d - x^%d;\n"
                       "ideal M = x, y;\nmeta J prime;\n"
                       "meta J origin_certified;\ntask verify J M;\n" % (a, b))


def test_verify_fuzz_sweep(monkeypatch):
    """`verify` end to end on 120 seeded monomial pairs and 15 curve germs,
    which take the GG gate's walk on IdealHandles.  A theorem violation or
    a failed internal consistency check fails the test with its script; a
    resource cap is counted and reported as a warning; pairs whose gr_I is
    not total-degree graded are counted as unsupported."""
    walk = constructions_mod.cell_lengths
    walked = []

    def counted(J, I, rect):
        walked.append(J)
        return walk(J, I, rect)
    monkeypatch.setattr(constructions_mod, "cell_lengths", counted)
    rng = random.Random(34)
    germs = list(_germ_verify_scripts())
    verified, unsupported, capped = 0, 0, []
    for script in list(_monomial_verify_scripts(rng, 120)) + germs:
        try:
            result = execute_script(parse_session(script))
        except (TheoremViolationError, InternalConsistencyError) as exc:
            pytest.fail("%s: %s\n%s" % (type(exc).__name__, exc, script))
        except ResourceLimitError as exc:
            capped.append((script, str(exc)))
            continue
        except UnsupportedInputError:
            unsupported += 1
            continue
        assert result["results"][0]["result"]["passed"], script
        verified += 1
    if capped:
        warnings.warn("verify sweep: %d of %d pairs hit a resource cap:\n%s"
                      % (len(capped), 120 + len(germs),
                         "\n".join("%s# %s" % c for c in capped)))
    assert len(germs) == 15 and len({repr(J) for J in walked}) == 15
    assert verified >= 120, (verified, unsupported, len(capped))


def test_adeg_invariants(R):
    x, y = R.gens()
    rep = adeg_report_ext(IdealHandle(R, [x ** 2, x * y]))
    assert rep.check_invariants(1, True)
    assert all(v >= 0 for v in rep.entries.values())


def test_top_adeg_is_top_multiplicity():
    """adeg_dim equals the length-weighted count over top-dimensional
    minimal primes (monomial primes have multiplicity one)."""
    from arithdeg.monomials import decompose, local_length_by_pairs
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    for gens in ([x * y, y ** 2 * z], [x ** 2, x * y], [x ** 2 * y],
                 [x * y, x * z]):
        I = IdealHandle(R3, gens)
        d = dimension(I)
        dec = decompose(I)
        n = R3.nvars
        expected = sum(local_length_by_pairs(I, supp)
                       for supp in dec.minimal_primes if n - len(supp) == d)
        assert adeg_graded(I, d) == expected


def test_prune_coordinate_variables(R):
    x, y = R.gens()
    I = IdealHandle(R, [x, y ** 2])
    pruned = prune_coordinate_variables(I)
    assert pruned.ring.nvars == 1
    assert dimension(pruned) == dimension(I)
    # pruning is invisible to adeg
    assert adeg_report_ext(pruned).value(0) == adeg_report_ext(I).value(0)
    # a bigraded ideal with nothing to prune comes back graded totally
    B = RingDescriptor.bigraded("x", "y")
    bx, by = B.gens()
    G = IdealHandle(B, [bx * by, by ** 2 + bx ** 2])
    flat = prune_coordinate_variables(G)
    assert not flat.ring.is_bigraded
    assert flat.ring.names == B.names
    assert [g.terms for g in flat.gens] == [g.terms for g in G.gens]


def test_cached_gg_lives_on_the_handles(R):
    """One GG presentation per pair of handles, and none shared across
    handles: a handle with the same generators, with or without other
    caps, gets its own."""
    x, y = R.gens()
    J = IdealHandle(R, [x * y])
    I = IdealHandle(R, [x ** 2, y])
    gg = cached_gg(J, I)
    assert cached_gg(J, I) is gg
    assert cached_gg(J, IdealHandle(R, I.gens)) is not gg
    capped = IdealHandle(R, I.gens, max_degree=I.max_degree + 1)
    assert cached_gg(J, capped) is not gg


def test_cached_gg_honours_caps():
    """A capped run fails the same whether or not an uncapped run of the
    same pair came first: GG presentations live on the ideal handles, which
    carry their caps.  The cap is on the basis size: the cusp's run passes
    under every degree cap from 1 on, since the degree cap spares
    generators."""
    from arithdeg.errors import ResourceLimitError
    from arithdeg.runner import execute_script
    from arithdeg.session import parse_session
    text = ("ring S=Q[x,y];\nideal J=y^2-x^3;\nideal M=x,y;\nmeta J prime;\n"
            "%stask verify J M;\n")
    capped = parse_session(text % "option max_basis 3;\n")
    with pytest.raises(ResourceLimitError):
        execute_script(capped)
    execute_script(parse_session(text % ""))
    with pytest.raises(ResourceLimitError):
        execute_script(capped)


@pytest.mark.parametrize("case", ["monomial", "cusp"])
def test_verify_builds_one_ext_route(R, monkeypatch, case):
    """verify runs the Ext route once: corollary 1's gr_I side is GG's own
    ideal handle, so it reads the theorem's table.  J = xy with
    I = (x^2, y^2) takes standard pairs for A, and the cusp with I = m
    takes Samuel, so the one call is GG's."""
    import arithdeg.adeg as adeg_mod
    x, y = R.gens()
    if case == "monomial":
        J, I, meta = IdealHandle(R, [x * y]), IdealHandle(R, [x ** 2, y ** 2]), {}
    else:
        J, I, meta = (IdealHandle(R, [y ** 2 - x ** 3]), maximal_ideal(R),
                      {"prime": True})
    calls = []
    report = adeg_mod.adeg_report_ext

    def counted(M):
        calls.append(M)
        return report(M)
    monkeypatch.setattr(adeg_mod, "adeg_report_ext", counted)
    record = verify(J, I, meta=meta, label=case)
    assert record.passed
    assert len(calls) == 1
    assert record.cor1_gr == record.lhs
    gg = cached_gg(J, I)
    assert gg.ideal is gg.gr.ideal


def test_verify_falls_back_to_gr_when_the_bases_differ(R, monkeypatch):
    """For the cusp J = (y^2 - x^3), marked prime, and I = (x + y^2), gr_I's
    reduced basis (y^2 + x, x^3 + x) is not GG's (x, y^2): gr_I is not
    bigraded, so GG is built by initial forms, and verify rejects gr_I as
    not totally graded right after the GG build: the theorem's LHS table is
    never computed."""
    import arithdeg.adeg as adeg_mod
    x, y = R.gens()
    J, I = IdealHandle(R, [y ** 2 - x ** 3]), IdealHandle(R, [x + y ** 2])
    gg = cached_gg(J, I)
    assert gg.gr.ideal.groebner_basis() != gg.ideal.groebner_basis()
    seen = []
    graded = adeg_mod._adeg_of_graded_ideal

    def recorded(ideal):
        seen.append(ideal)
        return graded(ideal)
    monkeypatch.setattr(adeg_mod, "_adeg_of_graded_ideal", recorded)
    with pytest.raises(UnsupportedInputError,
                       match="^arithmetic degree of an inhomogeneous "
                             "presentation: the corpus restricts to pairs "
                             "whose graded sides are total-degree graded$"):
        verify(J, I, meta={"prime": True}, label="cusp-fallback")
    assert seen == []


# ---------------------------------------------------------------------------
# the Cohen-Macaulay certificate ahead of the Ext route

@st.composite
def _homogeneous_ideals(draw):
    """2-3 homogeneous generators of degree 1-3 in 2-4 variables over Q or
    Z/7: monomials, or forms of 2-3 terms."""
    field = draw(st.sampled_from([QQ, GF(7)]))
    n = draw(st.integers(2, 4))
    ring = RingDescriptor.graded(",".join("xyzw"[:n]), field=field)
    size = 1 if draw(st.booleans()) else 3
    gens = []
    for _ in range(draw(st.integers(2, 3))):
        mons = list(monomials_of_degree(n, draw(st.integers(1, 3))))
        gens.append(Polynomial(ring, draw(st.dictionaries(
            st.sampled_from(mons), st.integers(-3, 3).filter(bool),
            min_size=min(size, 2), max_size=size))))
    return IdealHandle(ring, gens)


@seed(2121)
@settings(max_examples=120, deadline=None)
@given(_homogeneous_ideals())
def test_certificate_agrees_with_the_ext_route(I):
    """A certified table is the Ext route's, and no module whose Ext route
    has a nonzero adeg below its dimension is certified."""
    table, ext = adeg_mod._cohen_macaulay_table(I), adeg_mod._ext_table(I)
    if table is not None:
        assert table == ext
    if any(ext[i] for i in range(dimension(I))):
        assert table is None


def test_certificate_misses_every_draw_over_f3(monkeypatch):
    """Every linear form over F_3 divides xy(x+y)(x-y), so no draw gives an
    Artinian quotient and the Ext route answers."""
    F3 = RingDescriptor.graded("x,y", field=GF(3))
    x, y = F3.gens()
    J = IdealHandle(F3, [x * y * (x + y) * (x - y)])
    drawn = []
    draws = adeg_mod._linear_draws

    def recorded(ring, d):
        for z in draws(ring, d):
            drawn.append(z)
            yield z

    def unreachable(K):
        raise AssertionError("a draw that misses has no length")
    monkeypatch.setattr(adeg_mod, "_linear_draws", recorded)
    monkeypatch.setattr(adeg_mod, "artinian_length", unreachable)
    assert adeg_mod._cohen_macaulay_table(J) is None
    assert len(drawn) == adeg_mod.CM_DRAWS
    assert adeg_report_ext(J).table() == {0: 0, 1: 4, 2: 0}


def test_certificate_falls_back_when_the_length_exceeds_e(monkeypatch):
    """(x^2, xy) has the h-vector 1 + t - t^2, so no draw is made; the
    h-vector 1 + 2t of (x^2, xy, xw, yw^2) is no obstruction, and its
    draw gives λ = 4 > e = 3.  The Ext route answers both."""
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    I = IdealHandle(R2, [x ** 2, x * y])
    assert adeg_mod._cohen_macaulay_table(I) is None
    assert adeg_report_ext(I).table() == {0: 1, 1: 1, 2: 0}
    R4 = RingDescriptor.graded("x,y,z,w")
    x, y, z, w = R4.gens()
    J = IdealHandle(R4, [x ** 2, x * y, x * w, y * w ** 2])
    lengths = []
    length = adeg_mod.artinian_length
    monkeypatch.setattr(adeg_mod, "artinian_length",
                        lambda K: lengths.append(length(K)) or lengths[-1])
    assert adeg_mod._cohen_macaulay_table(J) is None
    assert lengths == [4] and classical_multiplicity(J, 2) == 3
    assert adeg_report_ext(J).table() == {0: 0, 1: 1, 2: 3, 3: 0, 4: 0}


def test_certificate_leaves_other_gradings_to_the_ext_route():
    """Inhomogeneous and bigraded input gets no certificate: the Ext route
    answers, or raises what it raises."""
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    B = RingDescriptor.bigraded("x", "y")
    bx, by = B.gens()
    for I, text in ((IdealHandle(R2, [x ** 2 - y]), "<x^2 - y>"),
                    (IdealHandle(B, [bx ** 2 - bx * by]), "<-x*y + x^2>")):
        assert adeg_mod._cohen_macaulay_table(I) is None
        with pytest.raises(HomogeneityError,
                           match="^vector %s is not homogeneous$"
                           % re.escape(text)):
            adeg_report_ext(I)
    I = IdealHandle(B, [bx * by])
    assert adeg_mod._cohen_macaulay_table(I) is None
    assert adeg_report_ext(I).table() == {0: 0, 1: 2, 2: 0}


def test_verify_on_a_cohen_macaulay_side_builds_no_resolution(monkeypatch):
    """J = xy with I = m^2 in Q[x,y,z]: the GG side is Cohen-Macaulay, so
    neither the theorem's LHS nor corollary 1 resolves anything."""
    import arithdeg.modules as modules_mod

    def unreachable(*args, **kwargs):
        raise AssertionError("the certificate holds; no resolution is built")
    monkeypatch.setattr(modules_mod, "resolution_for", unreachable)
    R3 = RingDescriptor.graded("x,y,z")
    x, y, z = R3.gens()
    record = verify(IdealHandle(R3, [x * y]),
                    ideal_power(maximal_ideal(R3), 2), label="cm")
    assert record.passed
    assert {i: v for i, v in record.lhs.items() if v} == {2: 8}
