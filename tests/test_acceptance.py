"""Acceptance suite: one test per criterion, each printing its pass line
and enforcing the stated runtime budget.  Exact arithmetic everywhere, so
every comparison is on-the-nose equality.
"""

import hashlib
import json
import random
import time

import pytest

from arithdeg.adeg import (_cohen_macaulay_table, _ext_table, _prime_pair,
                           adeg_report_ext, adeg_report_monomial, cached_gg,
                           gmult, prune_coordinate_variables)
from arithdeg.groebner import (IdealHandle, buchberger, ideal_power,
                               ideal_sum, normal_form, s_polynomial)
from arithdeg.hilbert import (artinian_length, as_presentation,
                              classical_multiplicity, dimension,
                              h11_polynomial, hilbert_polynomial,
                              hilbert_value, hilbert_value_bruteforce)
from arithdeg.corpus import build_corpus
from arithdeg.modules import ext_presentation
from arithdeg.monomials import decompose
from arithdeg.numerical import NumericalPoly2
from arithdeg.orders import DegRevLex
from arithdeg.rings import RingDescriptor

from helpers import (full_ring_prime_gmult, h11_direct, h11_table,
                     interpolate_poly1, is_unit, is_zero_module)


CORPUS_JSON_SHA256 = (
    "2608f716c851c128bd625b6684537898bb3d1eb384f5f4eaee800a3b7edfa783")


def _report(name, elapsed, budget):
    line = "ACCEPTANCE %-38s PASS  (%.1fs < %ds)" % (name, elapsed, budget)
    print(line)
    assert elapsed < budget, "%s exceeded its %ds budget (%.1fs)" % (
        name, budget, elapsed)


def _random_ideal(rng, ring, max_gens=4, max_deg=4, max_terms=3):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        poly = ring.zero()
        for k in range(rng.randint(1, max_terms)):
            # keep the first term nonconstant so no generator is a unit
            d = rng.randint(1 if k == 0 else 0, max_deg)
            exps = [0] * ring.nvars
            for _ in range(d):
                exps[rng.randrange(ring.nvars)] += 1
            poly = poly + ring.monomial(exps, rng.randint(-5, 5))
        if poly and not poly.is_constant():
            gens.append(poly)
    return gens


def _random_monomial_ideal(rng, ring, max_gens=4, max_deg=4):
    gens = []
    for _ in range(rng.randint(1, max_gens)):
        d = rng.randint(1, max_deg)
        exps = [0] * ring.nvars
        for _ in range(d):
            exps[rng.randrange(ring.nvars)] += 1
        gens.append(ring.monomial(exps))
    return gens


@pytest.fixture(scope="module")
def corpus_pairs():
    """The (J, I) pair of every corpus verify task, with its GG presentation
    and double-sum polynomial built up front (shared corpus setup; each
    criterion's budget clocks only its own work)."""
    pairs = []
    for entry in build_corpus():
        script = entry.script()
        handles = {name: IdealHandle(script.ring, script.ideals[name])
                   for name in script.ideal_order}
        for task in script.tasks:
            if task[0] == "verify":
                meta = {f: True for f in script.metas.get(task[1], ())}
                J, I = handles[task[1]], handles[task[2]]
                gg = cached_gg(J, I)
                P11 = h11_polynomial(gg.ideal)
                pairs.append((entry.identifier, J, I, meta, gg, P11))
    return pairs


def test_criterion_1_groebner_soundness():
    started = time.monotonic()
    rng = random.Random(1001)
    order = DegRevLex()
    checked = 0
    while checked < 200:
        n = rng.randint(1, 4)
        ring = RingDescriptor.graded(",".join("xyzw"[:n]))
        gens = _random_ideal(rng, ring)
        if not gens:
            continue
        basis = buchberger(gens, order)
        for i in range(len(basis)):
            for j in range(i + 1, len(basis)):
                s = s_polynomial(basis[i], basis[j], order)
                assert not normal_form(s, basis, order)
        if basis:
            f = gens[0] * gens[-1] + ring.one()
            nf = normal_form(f, basis, order)
            assert normal_form(nf, basis, order) == nf
        checked += 1
    _report("1 Groebner soundness (200 ideals)", time.monotonic() - started, 60)


def test_criterion_2_hilbert_oracle_equivalence():
    started = time.monotonic()
    rng = random.Random(2002)
    modules = []
    for _ in range(26):
        n = rng.randint(2, 4)
        ring = RingDescriptor.graded(",".join("xyzw"[:n]))
        gens = _random_monomial_ideal(rng, ring)
        modules.append(IdealHandle(ring, gens))
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    modules += [
        IdealHandle(R2, [x ** 2 - y ** 2, x * y]),
        IdealHandle(R2, [x ** 3 - y ** 3]),
        IdealHandle(R2, [x ** 2 + x * y + y ** 2]),
        IdealHandle(R2, []),
    ]
    assert len(modules) >= 30
    for I in modules:
        _, threshold = hilbert_polynomial(I)
        for d in range(0, 2 * threshold + 1):
            assert hilbert_value(I, d) == hilbert_value_bruteforce(I, d)
    _report("2 Hilbert oracle equivalence (%d modules)" % len(modules),
            time.monotonic() - started, 30)


def test_criterion_3_difference_calculus(corpus_pairs):
    started = time.monotonic()
    rng = random.Random(3003)
    for _ in range(100):
        coeffs = {(rng.randint(0, 4), rng.randint(0, 4)): rng.randint(-9, 9)
                  for _ in range(rng.randint(1, 10))}
        P = NumericalPoly2(coeffs)
        r, s, m, n = (rng.randint(0, 3) for _ in range(4))
        assert P.difference(m, n).difference(r, s) == P.difference(r + m, s + n)
    # Lemma leadcoef on every bigraded corpus module (the GG presentations)
    count = 0
    for identifier, J, I, _meta, gg, P11 in corpus_pairs:
        d = P11.total_degree
        if d < 0:
            continue
        for t in range(d + 1):
            s = d - t
            delta = P11.difference(t, s)
            assert delta == NumericalPoly2({(0, 0): P11.coefficient(t, s)})
        count += 1
    assert count >= 20
    _report("3 difference calculus + leadcoef", time.monotonic() - started, 5)


def test_criterion_4_adeg_cross_pipeline():
    started = time.monotonic()
    rng = random.Random(4004)
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    ideals = [IdealHandle(R2, [x ** 2, x * y]), IdealHandle(R2, [x * y])]
    while len(ideals) < 50:
        n = rng.randint(2, 4)
        ring = RingDescriptor.graded(",".join("xyzw"[:n]))
        gens = _random_monomial_ideal(rng, ring)
        I = IdealHandle(ring, gens)
        if is_unit(I) or I.is_zero():
            continue
        ideals.append(I)
    for I in ideals:
        assert adeg_report_ext(I) == adeg_report_monomial(I)
    expect = adeg_report_monomial(ideals[0])
    assert expect[1] == 1 and expect[0] == 1
    assert adeg_report_monomial(ideals[1])[1] == 2
    _report("4 adeg Ext == standard pairs (50 ideals)",
            time.monotonic() - started, 120)


def _criterion_4_ideals():
    """Criterion 4's 50 ideals: (x^2, xy), (xy) and 48 seeded random
    monomial ideals in 2-4 variables."""
    rng = random.Random(4004)
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    ideals = [IdealHandle(R2, [x ** 2, x * y]), IdealHandle(R2, [x * y])]
    while len(ideals) < 50:
        n = rng.randint(2, 4)
        ring = RingDescriptor.graded(",".join("xyzw"[:n]))
        I = IdealHandle(ring, _random_monomial_ideal(rng, ring))
        if is_unit(I) or I.is_zero():
            continue
        ideals.append(I)
    return ideals


def test_criterion_4_ext_route_alone():
    """Criterion 4 with the Cohen-Macaulay certificate out of the way: the
    Ext route alone against the standard pairs on the same 50 ideals,
    among them the ones the certificate would answer."""
    certified = 0
    for I in _criterion_4_ideals():
        table = adeg_report_monomial(I)
        assert _ext_table(I) == table
        certificate = _cohen_macaulay_table(I)
        if certificate is not None:
            assert certificate == table
            certified += 1
    assert 0 < certified < 50


def test_certificate_agrees_with_ext_on_the_corpus(corpus_pairs):
    """On every corpus GG side (read as verify reads it) and every corpus
    adeg task, a certified table is the Ext route's; both branches occur."""
    sides = []
    for _identifier, _J, _I, _meta, gg, _P11 in corpus_pairs:
        L = IdealHandle(gg.ideal.ring, list(gg.ideal.groebner_basis()))
        sides.append(prune_coordinate_variables(L))
    for entry in build_corpus():
        script = entry.script()
        sides += [IdealHandle(script.ring, script.ideals[task[1]])
                  for task in script.tasks if task[0] == "adeg"]
    outcomes = []
    for L in sides:
        assert L.is_homogeneous()
        table = _cohen_macaulay_table(L)
        if table is not None:
            assert table == _ext_table(L), L
        outcomes.append(table is not None)
    assert any(outcomes) and not all(outcomes)


# two complete intersections of three dense quadrics in Q[x,y,z,w]
DENSE_QUADRIC_CIS = (
    ("-4*x^2 - x*y - x*z - 3*x*w - 2*y^2 + 3*y*z - 2*y*w - 3*z^2 + z*w - 4*w^2",
     "-x^2 + 2*x*y + 3*x*z - 3*x*w + y^2 - 4*y*z + 3*y*w + z^2 - 2*z*w + 2*w^2",
     "-2*x^2 - x*y - 4*x*z - 2*x*w + 2*y^2 + 2*y*z + 2*y*w - 2*z^2 - 2*z*w - 2*w^2"),
    ("-4*x^2 + x*y - 3*x*z - 3*x*w + 2*y^2 + 3*y*z - 4*y*w - 2*z^2 + z*w + 2*w^2",
     "3*x^2 + 2*x*y + 2*x*z - 4*x*w - y^2 - y*z + 2*y*w + 2*z^2 - z*w - w^2",
     "x^2 + 4*x*y + 2*x*z + 2*x*w + 4*y^2 + 3*y*z - 2*y*w - 2*z^2 + 4*z*w - 3*w^2"),
)


def test_grade_bound_ext_vanishes_below_codimension():
    """Ext^j(S/I, S) = 0 for j < codim = n - dim, built the long way, on
    criterion 4's 50 ideals and two dense quadric complete intersections;
    Ext^codim is nonzero, so the bound is sharp."""
    R4 = RingDescriptor.graded("x,y,z,w")
    cis = [IdealHandle(R4, list(gens)) for gens in DENSE_QUADRIC_CIS]
    assert [dimension(I) for I in cis] == [1, 1]
    for I in _criterion_4_ideals() + cis:
        pres = as_presentation(I)
        n, d = I.ring.nvars, dimension(I)
        for i in range(d + 1, n + 1):
            assert is_zero_module(ext_presentation(pres, n - i)), (I, i)
        assert not is_zero_module(ext_presentation(pres, n - d)), I


def _samuel_wrt_ideal(J, I, max_n=10):
    values = [artinian_length(ideal_sum(J, ideal_power(I, n + 1)))
              for n in range(max_n)]
    n = J.ring.nvars
    for start in range(max_n - n - 3):
        poly = interpolate_poly1(values[start:start + n + 1], start)
        window = values[start:start + n + 4]
        if all(poly(start + k) == window[k] for k in range(len(window))):
            return poly.coefficient(poly.degree), poly.degree
    raise AssertionError("Samuel function did not stabilize")


def test_criterion_5_prop_clad():
    started = time.monotonic()
    R1 = RingDescriptor.graded("x")
    x1, = R1.gens()
    R2 = RingDescriptor.graded("x,y")
    x, y = R2.gens()
    cases = [
        (IdealHandle(R1, []), IdealHandle(R1, [x1 ** 2])),
        (IdealHandle(R2, []), IdealHandle(R2, [x, y])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 2, x * y, y ** 2])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 2, y ** 2])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 3, x * y, y ** 3])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 2, x * y, y ** 3])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 3, y ** 2])),
        (IdealHandle(R2, [x * y]), IdealHandle(R2, [x ** 2, x * y, y ** 2])),
        (IdealHandle(R2, [x ** 2, x * y]), IdealHandle(R2, [x, y])),
        (IdealHandle(R2, [y ** 2 - x ** 3]), IdealHandle(R2, [x, y])),
        (IdealHandle(R2, []), IdealHandle(R2, [x ** 2 + y ** 2, x * y])),
    ]
    assert len(cases) >= 10
    for J, I in cases:
        d = dimension(J)
        vec = gmult(J, I, d)
        e, deg = _samuel_wrt_ideal(J, I)
        assert deg == d
        assert vec.components[0] == e
        assert all(c == 0 for c in vec.components[1:])
    k1 = cases[0]
    assert gmult(k1[0], k1[1], 1).components == (2, 0)
    assert _samuel_wrt_ideal(*k1)[0] == 2
    _report("5 m-primary degeneration (%d ideals)" % len(cases),
            time.monotonic() - started, 60)


def test_criterion_6_prop_sum(corpus_pairs):
    started = time.monotonic()
    for identifier, J, I, _meta, gg, _P11 in corpus_pairs:
        gr = IdealHandle(gg.gr.ring, list(gg.gr.groebner_basis()))
        pruned = prune_coordinate_variables(gr)
        d = dimension(pruned)
        for i in range(d + 1):
            assert classical_multiplicity(pruned, i) == gmult(J, I, i).total()
    _report("6 Prop Sum on %d corpus pairs" % len(corpus_pairs),
            time.monotonic() - started, 60)


def test_criterion_7_theorem_and_corollaries():
    started = time.monotonic()
    from arithdeg.cli import main
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "corpus.json")
        rc = main(["corpus", "--json", out])
        assert rc == 0
        data = json.loads(open(out).read())
        assert data["provenance"]["summary"]["failed"] == 0
        by_id = {e["id"]: e["output"] for e in data["results"]}
        strict = by_id["wx-kx-x2"]["results"][-1]["result"]
        assert strict["theorem_lhs"]["1"] == 2
        assert strict["corollary1_gr"]["1"] == 2
        assert strict["corollary1_a"]["1"] == 1
        cusp = by_id["wx-cusp3"]["results"][-1]["result"]
        assert cusp["corollary1_gr"]["1"] == 2
        assert cusp["corollary1_a"]["1"] == 2
        for entry in data["results"]:
            for r in entry["output"]["results"]:
                if "passed" in r["result"]:
                    assert r["result"]["passed"] is True
    _report("7 theorem + corollaries (full corpus)",
            time.monotonic() - started, 600)


def test_criterion_8_gg_consistency(corpus_pairs):
    started = time.monotonic()
    checked = 0
    for identifier, J, I, _meta, gg, _P11 in corpus_pairs:
        # gg construction itself gates hilbert values against the
        # bifiltration derivative; here the double sums are compared
        d = max(dimension(J), 0)
        rect = min(d + 2, 3)
        table = h11_table(gg.ideal, rect, rect)
        for i in range(rect + 1):
            for j in range(rect + 1):
                assert table[(i, j)] == h11_direct(J, I, i, j)
        checked += 1
    assert checked == len(corpus_pairs)
    _report("8 GG double-sum consistency (%d pairs)" % checked,
            time.monotonic() - started, 120)


def test_gg_and_gr_bases_agree_on_corpus_pairs(corpus_pairs):
    """gr_I's ideal L is bigraded on every corpus pair, so GG's ideal is
    L's own handle: verify's corollary 1 reads the theorem's table on it.
    L is (x) + J*(y) for I = m, J* the tangent cone's ideal, and the
    lowest y-forms of J + (y_j - f_j) otherwise."""
    for identifier, _J, _I, _meta, gg, _P11 in corpus_pairs:
        assert gg.ideal is gg.gr, identifier
        assert gg.ideal.is_bihomogeneous(), identifier


def test_corpus_builds_no_initial_forms(monkeypatch):
    """A serial corpus pass builds every GG without the x-block initial
    forms of gr_I's ideal, the GG collapse step.  The tangent cones of the
    curve germs, over S, and the y-block forms over the bigraded ring that
    gr_I is read off are not GG steps."""
    import os
    import tempfile
    import arithdeg.adeg as adeg_mod
    import arithdeg.constructions as constructions_mod
    from arithdeg.cli import main
    built = []
    gg_presentation = constructions_mod.gg_presentation
    initial_forms_ideal = constructions_mod.initial_forms_ideal

    def counted(J, I):
        built.append(1)
        return gg_presentation(J, I)

    def no_x_block(I, block):
        if I.ring.is_bigraded and tuple(block) == I.ring.x_block:
            pytest.fail("x-block initial forms built over a bigraded ring")
        return initial_forms_ideal(I, block)
    monkeypatch.setattr(adeg_mod, "gg_presentation", counted)
    monkeypatch.setattr(constructions_mod, "initial_forms_ideal", no_x_block)
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["corpus", "--json", os.path.join(tmp, "c.json")]) == 0
    assert len(built) >= 40


def test_prime_gg_over_the_coordinate_ring_on_corpus_pairs(corpus_pairs):
    """On every associated prime p of every monomial-J corpus pair, GG(S/p)
    over S/p = k[x_k : x_k not in p] has the full ring's ee vector."""
    checked = 0
    for identifier, J, I, _meta, _gg, _P11 in corpus_pairs:
        if not J.is_monomial() or J.is_zero():
            continue
        n = J.ring.nvars
        for supp in decompose(J).associated_primes:
            i = n - len(supp)
            assert (gmult(*_prime_pair(J, I, supp), i)
                    == full_ring_prime_gmult(J, I, supp, i)), identifier
            checked += 1
    assert checked >= 40


def test_corpus_builds_prime_ggs_over_the_coordinate_ring(monkeypatch):
    """In a serial corpus pass, ladeg builds the GG of a coordinate prime p
    in the full ring only when p = m or I lies in p."""
    import os
    import tempfile
    import arithdeg.adeg as adeg_mod
    import arithdeg.runner as runner_mod
    from arithdeg.cli import main
    gg_presentation, ladeg = adeg_mod.gg_presentation, adeg_mod.ladeg
    rings = []                                  # J's ring per open ladeg
    counts = {"coordinate": 0, "fallback": 0}

    def counted_ladeg(J, *args, **kw):
        rings.append(J.ring)
        try:
            return ladeg(J, *args, **kw)
        finally:
            rings.pop()

    def counted_gg(P, I):
        if not rings:
            pass
        elif P.ring is not rings[-1]:
            assert P.is_zero() and P.ring.nvars < rings[-1].nvars
            counts["coordinate"] += 1
        elif P.gens and all(sum(next(iter(g.terms))) == 1 for g in P.gens):
            assert (len(P.gens) == P.ring.nvars
                    or all(P.contains(f) for f in I.gens)), (P, I)
            counts["fallback"] += 1
        return gg_presentation(P, I)
    monkeypatch.setattr(adeg_mod, "gg_presentation", counted_gg)
    monkeypatch.setattr(adeg_mod, "ladeg", counted_ladeg)
    monkeypatch.setattr(runner_mod, "ladeg", counted_ladeg)
    with tempfile.TemporaryDirectory() as tmp:
        assert main(["corpus", "--json", os.path.join(tmp, "c.json")]) == 0
    assert counts == {"coordinate": 48, "fallback": 10}


def test_criterion_9_determinism():
    started = time.monotonic()
    from arithdeg.cli import main
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        a = os.path.join(tmp, "a.json")
        b = os.path.join(tmp, "b.json")
        assert main(["corpus", "--json", a]) == 0
        assert main(["corpus", "--json", b]) == 0
        assert open(a).read() == open(b).read()
        # The corpus JSON, the same under any PYTHONHASHSEED.  A change
        # that alters corpus output on purpose updates this digest and says
        # so in CHANGES.md.
        with open(a, "rb") as fh:
            digest = hashlib.sha256(fh.read()).hexdigest()
        assert digest == CORPUS_JSON_SHA256
    _report("9 corpus determinism (byte-identical)",
            time.monotonic() - started, 1200)
