"""CLI behavior: exit codes, JSON shape, determinism of run output."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from arithdeg.cli import main
from arithdeg.runner import execute_script
from arithdeg.session import parse_session


SRC = str(Path(__file__).resolve().parent.parent / "src")


def _child_env():
    """This environment with the checkout's src first on PYTHONPATH, so a
    child process imports the package under test without an install."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC, env.get("PYTHONPATH")) if p)
    return env


SCRIPT = """ring S = Q[x,y];
ideal J = x^2, x*y;
task adeg J;
"""


def test_run_adeg_json(tmp_path):
    src = tmp_path / "s.ses"
    src.write_text(SCRIPT)
    out = tmp_path / "out.json"
    rc = main(["run", "-i", str(src), "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    assert list(data.keys()) == ["ring", "tasks", "results", "timings", "provenance"]
    (res,) = data["results"]
    assert res["result"]["adeg"] == {"0": 1, "1": 1}
    assert res["result"]["provenance"] == "standard-pairs"


def test_run_verify_json(tmp_path):
    src = tmp_path / "v.ses"
    src.write_text("ring S=Q[x];\nideal J=0;\nideal I=x^2;\ntask verify J I;\n")
    out = tmp_path / "v.json"
    rc = main(["run", "-i", str(src), "--json", str(out)])
    assert rc == 0
    data = json.loads(out.read_text())
    record = data["results"][0]["result"]
    assert record["passed"] is True
    assert record["theorem_lhs"]["1"] == 2
    assert record["corollary1_a"]["1"] == 1


def test_run_gg_json(tmp_path):
    """GG of (J, I) = (0, (x^2)) over Q[x]: Q[x; q1]/(x^2), whose Hilbert
    function is 1 in x-degrees 0 and 1 at every q-degree, 0 beyond."""
    src = tmp_path / "gg.ses"
    src.write_text("ring S=Q[x]; ideal J=0; ideal I=x^2; task gg J I;\n")
    out = tmp_path / "gg.json"
    assert main(["run", "-i", str(src), "--json", str(out)]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result["ring"] == "Q[x;q1]"
    assert result["generators"] == ["x^2"]
    assert result["hilbert"] == {"%d,%d" % (i, j): int(i <= 1)
                                 for i in range(4) for j in range(4)}


def test_parse_error_exit_code(tmp_path):
    src = tmp_path / "bad.ses"
    src.write_text("ring S = Q[x,y]\nideal J = x;\ntask gb J;")
    assert main(["run", "-i", str(src)]) == 1


@pytest.mark.parametrize("option", ["order foo", "order wdegrevlex",
                                    "max_degree abc", "max_basis 2x"])
def test_bad_option_value_is_a_parse_error(tmp_path, option):
    """An option value the session cannot use fails at parse time, with a
    position, rather than as a traceback from the run."""
    src = tmp_path / "bad.ses"
    src.write_text("ring S = Q[x,y];\nideal J = x;\noption %s;\ntask gb J;\n"
                   % option)
    proc = subprocess.run([sys.executable, "-m", "arithdeg.cli", "run", "-i",
                           str(src)], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 1
    assert "parse error" in proc.stderr
    assert "line 3" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_unit_pair_is_an_input_error(tmp_path):
    """J + I = (1) is reported as an input error, exit code 1, with the
    condition named on stderr."""
    src = tmp_path / "unit.ses"
    src.write_text("ring S = Q[x,y];\nideal J = x^2*y;\n"
                   "ideal I = -2*x*y^2 - 1;\ntask gg J I;\n")
    proc = subprocess.run([sys.executable, "-m", "arithdeg.cli", "run", "-i",
                           str(src)], capture_output=True, text=True,
                          env=_child_env())
    assert proc.returncode == 1
    assert "J + I is the unit ideal" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_missing_file_exit_code(tmp_path):
    assert main(["run", "-i", str(tmp_path / "absent.ses")]) == 1


def test_unknown_flag_exit_code():
    assert main(["run", "--frobnicate"]) == 1


def test_resource_cap_exit_code(tmp_path):
    src = tmp_path / "cap.ses"
    src.write_text("ring S=Q[x,y];\nideal J=x^2-y, x*y-1;\n"
                   "option order lex;\noption max_degree 2;\ntask gb J;\n")
    assert main(["run", "-i", str(src)]) == 3


def _violating_verify(monkeypatch):
    """Make the first verify task raise TheoremViolationError; later ones
    run the real verify."""
    import arithdeg.runner as runner_mod
    from arithdeg.errors import TheoremViolationError
    real = runner_mod.verify
    calls = []

    def verify(J, I, **kwargs):
        calls.append(J)
        if len(calls) == 1:
            raise TheoremViolationError("adeg_1 inequality fails (forced)")
        return real(J, I, **kwargs)

    monkeypatch.setattr(runner_mod, "verify", verify)


def test_theorem_violation_exit_code(tmp_path, monkeypatch, capsys):
    """A theorem violation in `run` exits 2 and writes its reproducer, the
    error line and then the script, into the current directory."""
    script = "ring S=Q[x];\nideal J=0;\nideal I=x^2;\ntask verify J I;\n"
    src = tmp_path / "v.ses"
    src.write_text(script)
    monkeypatch.chdir(tmp_path)
    _violating_verify(monkeypatch)
    assert main(["run", "-i", str(src)]) == 2
    reproducer = tmp_path / "theorem-violation-run.ses"
    assert reproducer.read_text() == (
        "# reproducer: adeg_1 inequality fails (forced)\n" + script)
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "theorem violation (implementation bug): adeg_1 inequality fails "
        "(forced)\nreproducer written to theorem-violation-run.ses\n")


def test_corpus_theorem_violation_exit_code(tmp_path, monkeypatch, capsys):
    """A theorem violation in one corpus entry exits 2, writes that entry's
    reproducer into the current directory, and leaves the other entries
    reported in the JSON and CSV."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import build_corpus
    subset = build_corpus()[:3]
    first = subset[0]
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: subset)
    monkeypatch.chdir(tmp_path)
    _violating_verify(monkeypatch)
    rc = main(["corpus", "--json", "out.json", "--csv", "out.csv"])
    assert rc == 2
    reproducer = tmp_path / ("theorem-violation-%s.ses" % first.identifier)
    assert reproducer.read_text() == (
        "# reproducer: adeg_1 inequality fails (forced)\n" + first.script_text)
    captured = capsys.readouterr()
    assert captured.out == (
        "corpus: 3 entries, 2 passed, 1 failed\n"
        "  FAIL %s: adeg_1 inequality fails (forced)\n" % first.identifier)
    assert captured.err == (
        "theorem violation in %s (bug); reproducer at "
        "theorem-violation-%s.ses\n" % (first.identifier, first.identifier))
    results = json.loads((tmp_path / "out.json").read_text())["results"]
    assert results[0] == {"id": first.identifier,
                          "error": "adeg_1 inequality fails (forced)"}
    assert [r["id"] for r in results[1:]] == [e.identifier for e in subset[1:]]
    assert all("output" in r for r in results[1:])
    table = (tmp_path / "out.csv").read_text().splitlines()
    assert table[1] == ("%s,error,,adeg_1 inequality fails (forced),fail"
                        % first.identifier)
    for entry in subset[1:]:
        assert "%s,verify J M,,ok,pass" % entry.identifier in table


CUSP_SCRIPT = ("ring S = Q[x,y];\nideal J = y^2 - x^3;\nideal M = x, y;\n"
               "meta J prime;\nmeta J origin_certified;\ntask verify J M;\n")
GATE_ERROR = "GG Hilbert gate fails at (1,1): presentation 1, direct 0"


def _wrong_gg_cell(monkeypatch):
    """A GG presentation off by one at (1, 1), where the cusp's GG for
    I = m is 0: its Hilbert gate fails there."""
    from arithdeg.constructions import BigradedPresentation
    right = BigradedPresentation.hilbert
    monkeypatch.setattr(BigradedPresentation, "hilbert",
                        lambda gg, i, j: right(gg, i, j) + ((i, j) == (1, 1)))


def test_gate_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A failed GG gate in `run` (two routes to the same Hilbert function
    disagree) is an implementation bug: exit 2, and the reproducer named
    after it is written into the current directory."""
    src = tmp_path / "cusp.ses"
    src.write_text(CUSP_SCRIPT)
    monkeypatch.chdir(tmp_path)
    _wrong_gg_cell(monkeypatch)
    assert main(["run", "-i", str(src)]) == 2
    reproducer = tmp_path / "internal-consistency-failure-run.ses"
    assert reproducer.read_text() == (
        "# reproducer: %s\n%s" % (GATE_ERROR, CUSP_SCRIPT))
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "internal consistency failure (implementation bug): %s\n"
        "reproducer written to internal-consistency-failure-run.ses\n"
        % GATE_ERROR)


def test_corpus_gate_failure_exit_code(tmp_path, monkeypatch, capsys):
    """A failed GG gate in a corpus entry exits 2, not 1 as a failed
    expected value does, and writes that entry's reproducer."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import lookup
    cusp = lookup("wx-cusp3")
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: [cusp])
    monkeypatch.chdir(tmp_path)
    _wrong_gg_cell(monkeypatch)
    assert main(["corpus"]) == 2
    reproducer = tmp_path / "internal-consistency-failure-wx-cusp3.ses"
    assert reproducer.read_text() == (
        "# reproducer: %s\n%s" % (GATE_ERROR, cusp.script_text))
    captured = capsys.readouterr()
    assert captured.out == ("corpus: 1 entries, 0 passed, 1 failed\n"
                            "  FAIL wx-cusp3: %s\n" % GATE_ERROR)
    assert captured.err == (
        "internal consistency failure in wx-cusp3 (bug); reproducer at "
        "internal-consistency-failure-wx-cusp3.ses\n")


def _gone_cwd(tmp_path, monkeypatch):
    """Change into a directory and delete it, so that no file can be
    written into the current directory."""
    gone = tmp_path / "gone"
    gone.mkdir()
    monkeypatch.chdir(gone)
    gone.rmdir()


def test_unwritable_reproducer_still_exits_2(tmp_path, monkeypatch, capsys):
    """A theorem violation whose reproducer cannot be written still exits
    2, in `run` and in `corpus`, and says that no reproducer was
    written."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import build_corpus
    src = tmp_path / "v.ses"
    src.write_text("ring S=Q[x];\nideal J=0;\nideal I=x^2;\ntask verify J I;\n")
    first = build_corpus()[0]
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: [first])
    _gone_cwd(tmp_path, monkeypatch)
    for argv, label, tail in (
            (["run", "-i", str(src)], "run",
             "theorem violation (implementation bug): adeg_1 inequality "
             "fails (forced)\nno reproducer written\n"),
            (["corpus"], first.identifier,
             "theorem violation in %s (bug); no reproducer written\n"
             % first.identifier)):
        _violating_verify(monkeypatch)
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert err.startswith("cannot write theorem-violation-%s.ses: "
                              % label), err
        assert err.endswith(tail), err
        assert err.count("\n") == tail.count("\n") + 1


def test_run_unwritable_json_exits_1(tmp_path, capsys):
    """`run --json` into a directory that does not exist says so and exits
    1, with no traceback."""
    src = tmp_path / "s.ses"
    src.write_text(SCRIPT)
    out = tmp_path / "absent" / "out.json"
    assert main(["run", "-i", str(src), "--json", str(out)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("cannot write %s: " % out)
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("flag", ["--json", "--csv"])
def test_corpus_unwritable_output_exits_1(tmp_path, monkeypatch, capsys,
                                          flag):
    """`corpus --json` or `--csv` into a directory that does not exist
    says so and exits 1, after the run's summary; the other output is
    still written."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import build_corpus
    first = build_corpus()[0]
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: [first])
    bad = tmp_path / "absent" / "out"
    good = tmp_path / "out"
    other = "--csv" if flag == "--json" else "--json"
    assert main(["corpus", flag, str(bad), other, str(good)]) == 1
    captured = capsys.readouterr()
    assert captured.out == "corpus: 1 entries, 1 passed, 0 failed\n"
    assert captured.err.startswith("cannot write %s: " % bad)
    assert captured.err.count("\n") == 1
    assert good.read_text()


def test_max_deg_zero_is_a_cap(tmp_path):
    """--max-deg 0 caps the run at degree 0, as `option max_degree 0;`
    does, rather than leaving it uncapped; a negative cap is rejected when
    the command line is parsed."""
    src = tmp_path / "cap.ses"
    src.write_text("ring S=Q[x,y];\nideal J=x^2-y, x*y-1;\ntask gb J;\n")

    def run(*flags):
        return subprocess.run([sys.executable, "-m", "arithdeg.cli", "run",
                               "-i", str(src), *flags],
                              capture_output=True, text=True,
                              env=_child_env())

    assert run().returncode == 0
    capped = run("--max-deg", "0")
    assert capped.returncode == 3
    assert "degree cap 0 exceeded" in capped.stderr
    for flag in ("--max-deg", "--max-basis"):
        proc = run(flag, "-1")
        assert proc.returncode == 1
        assert "cannot be negative" in proc.stderr
        assert "Traceback" not in proc.stderr


GATE_SCRIPT = ("ring S = Q[x,y];\nideal J = x*y^40 - y^41;\nideal I = x;\n"
               "%stask gg J I;\n")


@pytest.mark.parametrize("raise_cap", ["option", "flag"])
def test_raised_degree_cap_reaches_the_gg_gate(tmp_path, raise_cap):
    """The GG gate's own m and (1) take the pair's caps, so a degree cap
    raised to 60 by `option max_degree 60;` or by --max-deg 60 lets the
    gate past y^41 (it used to clamp the cap back to the default 40)."""
    src = tmp_path / "gate.ses"
    out = tmp_path / "gate.json"
    option = "option max_degree 60;\n" if raise_cap == "option" else ""
    flags = ["--max-deg", "60"] if raise_cap == "flag" else []
    src.write_text(GATE_SCRIPT % option)
    assert main(["run", "-i", str(src), "--json", str(out), *flags]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result["generators"] == ["x", "y^41"]


def test_default_degree_cap_still_binds_the_gg_gate(tmp_path, capsys):
    src = tmp_path / "gate.ses"
    src.write_text(GATE_SCRIPT % "")
    assert main(["run", "-i", str(src)]) == 3
    assert "Groebner degree cap 40 exceeded" in capsys.readouterr().err


LOCAL_SCRIPT = ("ring S = Q[x,y];\nideal J = x - x^2, y - x*y;\n"
                "ideal I = %s;\ntask gg J I;\n")


@pytest.mark.parametrize("ideal_i", ["x, y", "x^2, y"])
def test_gg_of_a_germ_smaller_than_its_ring(tmp_path, ideal_i):
    """J = (x - x^2, y - x*y) is the origin plus the line x = 1, of
    dimension 1, and gr_I(S/J) sees only the origin, of dimension 0: the
    dimension gate asks for equality only when J and I are homogeneous,
    so `task gg J I` exits 0 with GG = (x, y, q1, q2)."""
    src = tmp_path / "germ.ses"
    out = tmp_path / "germ.json"
    src.write_text(LOCAL_SCRIPT % ideal_i)
    assert main(["run", "-i", str(src), "--json", str(out)]) == 0
    result = json.loads(out.read_text())["results"][0]["result"]
    assert result["generators"] == ["q2", "q1", "y", "x"]
    assert {cell for cell, length in result["hilbert"].items()
            if length} == {"0,0"}


def test_option_max_degree_caps_hilbert(tmp_path):
    """An ideal's own degree cap governs the Hilbert data of S/I."""
    text = "ring S=Q[x,y,z];\nideal J=x^2-y*z, x*y-z^2;\ntask hilbert J;\n"
    src = tmp_path / "h.ses"
    src.write_text(text)
    assert main(["run", "-i", str(src)]) == 0
    src.write_text(text.replace("task", "option max_degree 2;\ntask"))
    assert main(["run", "-i", str(src)]) == 3


def test_option_max_degree_reaches_ext_bases(monkeypatch):
    """The Ext route builds its module Groebner bases under the ideal's
    caps.  (x^2 - xy, xz) = (x) ∩ (x - y, z) cuts out a hyperplane and a
    plane, so S/J is not Cohen-Macaulay and the Ext route runs."""
    import arithdeg.modules as modules
    from arithdeg.groebner import DEFAULT_MAX_BASIS, DEFAULT_MAX_DEGREE
    seen = []
    build = modules.module_buchberger

    def recording(vecs, morder, max_basis=DEFAULT_MAX_BASIS,
                  max_degree=DEFAULT_MAX_DEGREE):
        seen.append((max_basis, max_degree))
        return build(vecs, morder, max_basis, max_degree)
    monkeypatch.setattr(modules, "module_buchberger", recording)
    script = parse_session("ring S=Q[x,y,z,w];\n"
                           "ideal J=x^2-x*y, x*z;\n"
                           "option max_degree 3;\noption max_basis 500;\n"
                           "task adeg J;\n")
    execute_script(script)
    assert seen and set(seen) == {(500, 3)}


def test_option_max_degree_reaches_certificate_bases(monkeypatch):
    """The Cohen-Macaulay certificate builds the bases of J and of J plus
    its linear forms under the ideal's caps; S/J is Cohen-Macaulay here,
    so no module basis is built."""
    import arithdeg.groebner as groebner_mod
    import arithdeg.modules as modules
    seen = []
    build = groebner_mod.buchberger

    def recording(gens, order, max_basis, max_degree):
        seen.append((max_basis, max_degree))
        return build(gens, order, max_basis, max_degree)

    def unreachable(*args, **kwargs):
        raise AssertionError("the certificate holds; no module basis is built")
    monkeypatch.setattr(groebner_mod, "buchberger", recording)
    monkeypatch.setattr(modules, "module_buchberger", unreachable)
    script = parse_session("ring S=Q[x,y,z,w];\n"
                           "ideal J=x^2-y*z, x*y-z*w, y^2-x*w;\n"
                           "option max_degree 3;\noption max_basis 500;\n"
                           "task adeg J;\n")
    result = execute_script(script)["results"][0]["result"]
    assert result == {"adeg": {"2": 3}, "provenance": "ext"}
    assert len(seen) >= 2 and set(seen) == {(500, 3)}


def test_run_determinism(tmp_path):
    src = tmp_path / "s.ses"
    src.write_text("ring S=Q[x,y];\nideal J=x^2,x*y;\nideal M=x,y;\n"
                   "task gb J;\ntask adeg J;\ntask gmult J M;\n")
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    assert main(["run", "-i", str(src), "--json", str(out1)]) == 0
    assert main(["run", "-i", str(src), "--json", str(out2)]) == 0
    assert out1.read_text() == out2.read_text()


def test_execute_script_gb_and_hilbert():
    script = parse_session(
        "ring S=Q[x,y]; ideal J=x^2,x*y; task gb J; task hilbert J; task stdpairs J;")
    result = execute_script(script)
    by_task = {r["task"]: r["result"] for r in result["results"]}
    assert by_task["gb J"]["basis"] == ["x*y", "x^2"]
    assert by_task["hilbert J"]["dimension"] == 1
    assert by_task["hilbert J"]["binomial_coefficients"] == [1]
    pairs = by_task["stdpairs J"]["pairs"]
    assert {"monomial": "1", "variables": ["y"]} in pairs
    assert {"monomial": "x", "variables": []} in pairs


def test_console_entry_point():
    proc = subprocess.run([sys.executable, "-m", "arithdeg.cli", "--help"],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert "arithdeg" in proc.stdout


CHECK_LINES = [
    "ring axioms: ok (50 random triples)",
    "Buchberger criterion: ok (10 random ideals)",
    "Buchberger criterion: ok (10 random submodules of S^2)",
    "difference composition: ok (25 random polynomials)",
    "oracle equivalence on (x^2, xy): ok",
    "Buchberger criterion over Zp(7): ok (5 random ideals)",
    "signature loop = sugar loop: ok (10 random ideals over Q, 5 over Zp(7))",
    "Betti/Euler oracle: ok (5 random resolutions, degrees 0-6)",
    "Ext Euler oracle: ok (5 random ideals, degrees -10 to 2)",
    "series oracle: ok (5 random ideals, sums up to the threshold)",
    "GG gate walks: ok (5 random monomial pairs, antichains = handles)",
    "GG gate handle walk: ok (3 random inhomogeneous J with I = m, "
    "tangent-cone Hilbert function; gr_m = the general route's)",
    "gr_I substitution: ok (5 random J with I = m, every homogenized basis "
    "element into S[t]; gr_m = the general route's)",
    "GG = gr_I: ok (10 random bigraded pairs, initial forms agree)",
    "prime GG over S/p: ok (9 associated primes of 5 random monomial J, "
    "5 over a smaller ring)",
    "check: all good",
]


def test_check_command(capsys):
    """check prints every one of its step lines, in order, and nothing
    else: an oracle step cannot drop out unseen."""
    assert main(["check"]) == 0
    assert capsys.readouterr().out.splitlines() == CHECK_LINES


def test_spot_checks_catch_a_pair_route_that_drops_remainders(monkeypatch):
    """The Buchberger-criterion checks form their S-elements on Fractions
    (s_polynomial, s_vector), not on the engine's pair route: when that
    route starts every pair's division from a zero S-element, in the sugar
    loop and the signature loop alike, the bases it leaves are not
    Groebner bases, and both checks raise."""
    import arithdeg.cli as cli_mod
    import arithdeg.groebner as groebner_mod
    from arithdeg.groebner import IdealHandle
    from arithdeg.modules import PositionOverTerm, Vec
    from arithdeg.rings import RingDescriptor
    R = RingDescriptor.graded("x,y")
    x, y = R.gens()
    vecs = [Vec.from_polys(R, (x, y)), Vec.from_polys(R, (y, x))]
    gens = [x ** 2 + y, x * y + 1]
    cli_mod._spot_check_module_basis(vecs, PositionOverTerm())
    cli_mod._spot_check_basis(IdealHandle(R, gens))
    monkeypatch.setattr(groebner_mod, "_pair_start",
                        lambda *args: lambda packer, forms: ({}, 1))
    with pytest.raises(AssertionError):
        cli_mod._spot_check_module_basis(vecs, PositionOverTerm())
    with pytest.raises(AssertionError):
        cli_mod._spot_check_basis(IdealHandle(R, gens))


def test_spot_checks_catch_an_interreduction_that_skips_tails(monkeypatch):
    """The spot checks also assert that a basis is reduced, on plain term
    tuples: when the final interreduction keeps the minimal elements but
    skips their tail division, the signature basis (x^2 + y^2, y^2 - x)
    of (x^2 + y^2, x^2 + x) and the vectors (x, y), (0, y) keep a tail
    term divisible by another lead.  Those bases still pass the Buchberger
    criterion, and both checks raise."""
    import arithdeg.cli as cli_mod
    import arithdeg.groebner as groebner_mod
    from arithdeg.groebner import IdealHandle
    from arithdeg.modules import PositionOverTerm, Vec
    from arithdeg.rings import RingDescriptor
    R = RingDescriptor.graded("x,y")
    x, y = R.gens()
    vecs = [Vec.from_polys(R, (x, y)), Vec.from_polys(R, (R.zero(), y))]
    gens = [x ** 2 + y ** 2, x ** 2 + x]
    assert cli_mod._spot_check_module_basis(vecs, PositionOverTerm()) == [
        Vec.from_polys(R, (R.zero(), y)), Vec.from_polys(R, (x, R.zero()))]
    cli_mod._spot_check_basis(IdealHandle(R, gens))
    reduce = groebner_mod._reduce

    def minimal_only(G, leads, order, ops, forms=None):
        return reduce(G, leads, order, ops)
    monkeypatch.setattr(groebner_mod, "_reduce", minimal_only)
    with pytest.raises(AssertionError, match="divisible by another"):
        cli_mod._spot_check_module_basis(vecs, PositionOverTerm())
    with pytest.raises(AssertionError, match="divisible by another"):
        cli_mod._spot_check_basis(IdealHandle(R, gens))


def test_corpus_reports_errors(tmp_path, monkeypatch, capsys):
    """Entries that raise are reported in entry order, and the run goes on:
    a resource cap exits 3 with its CSV row, and a session syntax error is
    a failed entry."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import CorpusEntry, build_corpus
    capped = CorpusEntry(
        "capped", "ring S=Q[x,y,z];\nideal J=x^2-y*z, x*y-z^2;\n"
                  "option max_degree 2;\ntask hilbert J;\n")
    broken = CorpusEntry("broken", "ring S = Q[x,y]\nideal J = x;\ntask gb J;")
    first = build_corpus()[0]
    monkeypatch.setattr(cli_mod, "build_corpus",
                        lambda: [first, capped, broken])
    out, csv = tmp_path / "out.json", tmp_path / "out.csv"
    rc = main(["corpus", "--json", str(out), "--csv", str(csv)])
    printed = capsys.readouterr()
    assert rc == 3
    assert "capped,error,,Groebner degree cap 2 exceeded,fail" in csv.read_text()
    assert "FAIL broken:" in printed.out
    assert printed.err == ("resource cap exceeded in capped: Groebner degree "
                           "cap 2 exceeded\n")
    assert [r["id"] for r in json.loads(out.read_text())["results"]] == [
        first.identifier, "capped", "broken"]


def test_corpus_reports_expected_value_failures(tmp_path, monkeypatch,
                                               capsys):
    """An entry whose run disagrees with an expected value, or lacks an
    expected task, fails: exit code 1, a FAIL line naming both, and one
    CSV row each."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import CorpusEntry, _expected
    entry = CorpusEntry(
        "off", "ring S=Q[x];\nideal J=0;\nideal I=x^2;\ntask verify J I;\n",
        expected=[_expected("verify J I", ["theorem_lhs", "1"], 3, "wrong"),
                  _expected("gb J", ["basis"], [], "not a task here")])
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: [entry])
    csv = tmp_path / "out.csv"
    assert main(["corpus", "--csv", str(csv)]) == 1
    assert ("  FAIL off: expected verify J I at theorem_lhs/1 = 3, got 2 "
            "(wrong); expected task 'gb J' missing\n"
            in capsys.readouterr().out)
    assert csv.read_text().splitlines()[-2:] == [
        "off,expected,,expected verify J I at theorem_lhs/1 = 3; got 2 "
        "(wrong),fail",
        "off,expected,,expected task 'gb J' missing,fail"]


def test_corpus_rejects_parallel():
    """corpus runs in one process; --parallel is not an option."""
    assert main(["corpus", "--parallel", "2"]) == 1


def test_corpus_rows_carry_resource_diagnostics(tmp_path, monkeypatch):
    """A capped entry's CSV rows carry the cap's diagnostics after the
    error message, and its JSON record carries them beside the error; an
    error without diagnostics has no such key."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import CorpusEntry
    capped = CorpusEntry(
        "capped", "ring S = Q[x,y,z];\nideal J = x^2 - y*z, x*y - z^2;\n"
                  "option max_basis 2;\ntask gb J;\n")
    wrong = CorpusEntry("wrong", "ring S = Q[x,y];\nideal J = x;\ntask adeg K;\n")
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: [capped, wrong])
    csv, out = tmp_path / "capped.csv", tmp_path / "capped.json"
    assert main(["corpus", "--csv", str(csv), "--json", str(out)]) == 3
    assert csv.read_text().splitlines()[1:] == [
        "capped,error,,Groebner basis size cap 2 exceeded,fail",
        "capped,diagnostics,,basis_size=3,fail",
        "wrong,error,,task adeg refers to undeclared ideal 'K',fail"]
    assert json.loads(out.read_text())["results"] == [
        {"id": "capped", "error": "Groebner basis size cap 2 exceeded",
         "diagnostics": "basis_size=3"},
        {"id": "wrong", "error": "task adeg refers to undeclared ideal 'K'"}]


def test_corpus_spot_check_shares_the_task_basis(monkeypatch):
    """The corpus spot check tests the basis the tasks then reuse: one
    Buchberger run per ideal, not two."""
    import arithdeg.cli as cli_mod
    import arithdeg.groebner as groebner_mod
    from arithdeg.corpus import CorpusEntry
    calls = []
    original = groebner_mod.buchberger

    def counting(*args, **kwargs):
        calls.append(args[0])
        return original(*args, **kwargs)

    monkeypatch.setattr(groebner_mod, "buchberger", counting)
    entry = CorpusEntry("one-basis",
                        "ring S=Q[x,y,z];\nideal J=x^2-y*z, x*y-z^2;\ntask gb J;\n")
    cli_mod._run_entry(entry)
    assert len(calls) == 1


def test_corpus_timings_flag(tmp_path, monkeypatch):
    """corpus --timings keys the JSON timings by entry id; without the
    flag they stay empty and the JSON is otherwise the same."""
    import arithdeg.cli as cli_mod
    from arithdeg.corpus import build_corpus
    subset = build_corpus()[:3]
    monkeypatch.setattr(cli_mod, "build_corpus", lambda: subset)
    plain, timed = tmp_path / "plain.json", tmp_path / "timed.json"
    assert main(["corpus", "--json", str(plain)]) == 0
    assert main(["corpus", "--timings", "--json", str(timed)]) == 0
    plain, timed = json.loads(plain.read_text()), json.loads(timed.read_text())
    assert plain["timings"] == {}
    assert list(timed["timings"]) == [e.identifier for e in subset]
    assert all(isinstance(t, float) and t >= 0
               for t in timed["timings"].values())
    timed["timings"] = {}
    assert timed == plain
