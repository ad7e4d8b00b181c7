"""Corpus structure: every entry parses, families are present, and the
metadata contracts hold."""

import arithdeg.adeg as adeg_mod
import arithdeg.constructions as constructions_mod
import arithdeg.hilbert as hilbert_mod
import arithdeg.monomials as monomials_mod
import arithdeg.runner as runner_mod
from arithdeg.cli import main
from arithdeg.corpus import build_corpus, lookup
from arithdeg.groebner import IdealHandle
from arithdeg.runner import execute_script
from arithdeg.session import parse_session

from helpers import (ReferenceDecomposition, reference_dimension,
                     reference_monomial_cell_lengths, samuel_multiplicity)


def test_corpus_size_and_unique_ids():
    entries = build_corpus()
    assert len(entries) >= 38
    ids = [e.identifier for e in entries]
    assert len(set(ids)) == len(ids)


def test_every_entry_parses_and_resolves():
    for entry in build_corpus():
        script = entry.script()
        assert script.tasks
        for task in script.tasks:
            for name in task[1:]:
                assert name in script.ideals


def test_families_present():
    ids = [e.identifier for e in build_corpus()]
    assert "wx-kx-x2" in ids            # strict worked example
    assert "wx-cusp3" in ids            # equality worked example
    assert "wx-x2xy-m" in ids
    assert any(i.startswith("emb-") for i in ids)
    assert any(i.startswith("cusp-") for i in ids)
    assert sum(1 for i in ids if i.startswith("rnd-")) >= 15
    assert any(i.startswith("eqg-") for i in ids)


def test_expected_values_carry_provenance():
    for entry in build_corpus():
        for exp in entry.expected:
            assert exp["provenance"].strip()
            assert exp["task"]
            assert exp["path"]


def test_origin_certificates():
    """gg/verify tasks need the origin certificate: monomial ideals carry it
    implicitly (all associated primes are coordinate primes), anything else
    must be flagged."""
    for entry in build_corpus():
        script = entry.script()
        for task in script.tasks:
            if task[0] not in ("gg", "gmult", "ladeg", "verify"):
                continue
            name = task[1]
            J = IdealHandle(script.ring, script.ideals[name])
            implicit = J.is_monomial() or J.is_zero()
            flagged = "origin_certified" in script.metas.get(name, set())
            assert implicit or flagged, entry.identifier


def test_lookup():
    e = lookup("wx-cusp3")
    assert "y^2 - x^3" in e.script_text
    try:
        lookup("missing-entry")
    except KeyError:
        pass
    else:
        raise AssertionError("lookup should fail for unknown ids")


def test_random_family_is_reproducible():
    a = [e.script_text for e in build_corpus() if e.identifier.startswith("rnd-")]
    b = [e.script_text for e in build_corpus() if e.identifier.startswith("rnd-")]
    assert a == b


# entries with non-monomial J and I (so Groebner, GG and Ext all do work
# over the field), a monomial one with embedded primes, and random ones
ZP_CROSS_ENTRIES = ("wx-x2xy-m", "wx-cusp3", "wx-parabola", "emb-3var",
                    "cusp-5", "rnd-05", "rnd-10")
INTEGER_INVARIANTS = ("adeg", "theorem_lhs", "theorem_rhs", "corollary1_gr",
                      "corollary1_a")


def _invariants(script_text):
    result = execute_script(parse_session(script_text))
    return [{k: r["result"][k] for k in INTEGER_INVARIANTS if k in r["result"]}
            for r in result["results"]]


def test_prime_field_gives_the_same_invariants():
    """Over Zp(32003) the corpus invariants equal those over Q: a
    cross-field check on every layer they pass through."""
    for ident in ZP_CROSS_ENTRIES:
        text = lookup(ident).script_text
        assert text.startswith("ring S = Q[")
        over_q = _invariants(text)
        assert any(over_q), ident
        assert _invariants(text.replace("Q[", "Zp(32003)[", 1)) == over_q, ident


def _results(script):
    return [r["result"] for r in execute_script(script)["results"]]


def test_task_order_does_not_change_results():
    """Every corpus script of several tasks gives each task the same result
    with its tasks run in reverse, on fresh handles: GG and gr_I share one
    handle and its caches, whichever task builds them."""
    checked = 0
    for entry in build_corpus():
        script = entry.script()
        if len(script.tasks) < 2:
            continue
        forward = _results(script)
        script.tasks.reverse()
        assert _results(script) == forward[::-1], entry.identifier
        checked += 1
    assert checked >= 8


def test_gg_and_verify_in_either_order():
    """gg and verify on J = xy, I = (x^2, y^2, z^2) give the same payloads
    whichever runs first."""
    text = ("ring S = Q[x,y,z];\nideal J = x*y;\nideal I = x^2, y^2, z^2;\n"
            "task %s J I;\ntask %s J I;\n")
    forward = _results(parse_session(text % ("gg", "verify")))
    backward = _results(parse_session(text % ("verify", "gg")))
    assert backward == forward[::-1]
    assert forward[0]["generators"] == [
        "q2*q3", "y*q3", "x*q2", "z^2", "y^2", "x*y", "x^2"]


def test_every_dimension_of_a_corpus_pass_matches_the_subset_walk(
        monkeypatch, tmp_path):
    """Each dimension a corpus run asks for (ideals, GG sides, Ext modules)
    equals the subset walk over its initial leads."""
    dimension = hilbert_mod.dimension
    checked = []

    def checked_dimension(M):
        d = dimension(M)
        assert d == reference_dimension(M), M
        checked.append(d)
        return d

    for mod in (adeg_mod, constructions_mod, hilbert_mod, runner_mod):
        monkeypatch.setattr(mod, "dimension", checked_dimension)
    assert main(["corpus", "--json", str(tmp_path / "corpus.json")]) == 0
    assert len(checked) > 300 and set(checked) >= {-1, 0, 1, 2, 3}


def test_every_decomposition_of_a_corpus_pass_matches_the_reference(
        monkeypatch, tmp_path):
    """Each monomial decomposition a corpus run asks for has the primes of
    the irreducible decomposition, in the same order."""
    decompose = monomials_mod.decompose
    checked = []

    def checked_decompose(J):
        dec = decompose(J)
        ref = ReferenceDecomposition(J)
        assert dec.associated_primes == ref.associated_primes, J
        assert dec.minimal_primes == ref.minimal_primes, J
        assert dec.embedded_primes == ref.embedded_primes, J
        checked.append(dec)
        return dec

    for mod in (adeg_mod, monomials_mod):
        monkeypatch.setattr(mod, "decompose", checked_decompose)
    assert main(["corpus", "--json", str(tmp_path / "corpus.json")]) == 0
    assert len(checked) > 100
    assert any(dec.embedded_primes for dec in checked)


def test_every_monomial_gate_walk_of_a_corpus_pass_matches_the_reference(
        monkeypatch, tmp_path):
    """Each cell the GG gate counts for a monomial pair in a corpus run has
    the length read off the staircase numerators of its upper and lower
    ideals."""
    walk = constructions_mod.monomial_cell_lengths
    checked = []

    def checked_walk(J, I, rect):
        cells = list(walk(J, I, rect))
        assert cells == list(reference_monomial_cell_lengths(J, I, rect)), \
            (J, I, rect)
        checked.append(len(cells))
        return cells

    monkeypatch.setattr(constructions_mod, "monomial_cell_lengths",
                        checked_walk)
    assert main(["corpus", "--json", str(tmp_path / "corpus.json")]) == 0
    assert len(checked) > 50 and sum(checked) > 1000


def test_every_samuel_table_of_a_corpus_pass_matches_the_reference(
        monkeypatch, tmp_path):
    """Each "samuel" table a corpus run builds (the Samuel multiplicity of
    a prime inhomogeneous quotient, off its tangent cone) holds the
    reference's interpolated (e, d): e at d and 0 elsewhere."""
    quotient = adeg_mod._adeg_of_ring_quotient
    checked = []

    def checked_quotient(J, meta):
        table, provenance = quotient(J, meta)
        if provenance == "samuel":
            e, d, _cert = samuel_multiplicity(J)
            assert table == {i: e if i == d else 0 for i in table}, J
            assert table[d] == e, J
            checked.append((e, d))
        return table, provenance

    for mod in (adeg_mod, runner_mod):
        monkeypatch.setattr(mod, "_adeg_of_ring_quotient", checked_quotient)
    assert main(["corpus", "--json", str(tmp_path / "corpus.json")]) == 0
    assert len(checked) >= 5 and {e for e, _ in checked} >= {1, 2}
