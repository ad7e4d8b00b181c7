"""Command-line frontend.

    arithdeg run -i script.ses [--json out.json] [--order degrevlex|lex]
                 [--max-deg N] [--max-basis N] [--timings]
    arithdeg corpus [--json out.json] [--csv out.csv] [--timings]
    arithdeg check

``corpus`` runs its entries one after another, in entry order.
``--timings`` fills the JSON ``timings`` with wall-clock seconds: per task
for ``run``, per entry for ``corpus``.

Exit codes: 0 success, 1 usage or parse errors or a file that cannot be
read or written, 2 theorem violation or internal consistency failure (two
independent routes disagreed, or a value the theory rules out came out):
either is an implementation bug, and a reproducer script,
theorem-violation-<label>.ses or internal-consistency-failure-<label>.ses,
is written into the current directory when it can be; 3 resource cap
exceeded.
"""

import argparse
import json
import sys
import time

from .corpus import build_corpus
from .errors import (AlgebraError, InternalConsistencyError,
                     NameResolutionError, ResourceLimitError,
                     SessionSyntaxError, TheoremViolationError)
from .runner import execute_script, ideal_handles
from .orders import ORDERS
from .session import parse_session

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_THEOREM = 2
EXIT_RESOURCE = 3


def _write_text(path, text):
    """Write text to the file path; False, said on stderr, when it cannot."""
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as exc:
        print("cannot write %s: %s" % (path, exc), file=sys.stderr)
        return False
    return True


def _dump_json(data, path):
    """Write data as JSON to the file path, or to stdout for "-"."""
    text = json.dumps(data, indent=2, sort_keys=False) + "\n"
    if path == "-":
        sys.stdout.write(text)
        return True
    return _write_text(path, text)


# the errors that signal an implementation bug
BUGS = (TheoremViolationError, InternalConsistencyError)


def _bug_name(err):
    return ("theorem violation" if isinstance(err, TheoremViolationError)
            else "internal consistency failure")


def _write_reproducer(script_text, label, err):
    """The reproducer's path, or None when it cannot be written: named
    after the kind of bug, theorem-violation-<label>.ses or
    internal-consistency-failure-<label>.ses."""
    path = "%s-%s.ses" % (_bug_name(err).replace(" ", "-"),
                          label.replace("/", "_").replace(",", "-"))
    text = "# reproducer: %s\n%s" % (err, script_text)
    return path if _write_text(path, text) else None


def cmd_run(args):
    try:
        with open(args.input) as fh:
            text = fh.read()
    except OSError as exc:
        print("cannot read %s: %s" % (args.input, exc), file=sys.stderr)
        return EXIT_USAGE
    try:
        script = parse_session(text)
    except (SessionSyntaxError, NameResolutionError) as exc:
        print("parse error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    if args.max_deg is not None:
        script.options["max_degree"] = str(args.max_deg)
    if args.max_basis is not None:
        script.options["max_basis"] = str(args.max_basis)
    try:
        result = execute_script(script, order_name=args.order,
                                collect_timings=args.timings)
    except BUGS as exc:
        path = _write_reproducer(text, "run", exc)
        print("%s (implementation bug): %s" % (_bug_name(exc), exc),
              file=sys.stderr)
        print("reproducer written to %s" % path if path else
              "no reproducer written", file=sys.stderr)
        return EXIT_THEOREM
    except ResourceLimitError as exc:
        print("resource cap exceeded: %s %r" % (exc, exc.diagnostics), file=sys.stderr)
        return EXIT_RESOURCE
    except AlgebraError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK if _dump_json(result, args.json or "-") else EXIT_USAGE


def _assert_reduced(basis, order, div):
    """Assert that basis is reduced: every lead coefficient is 1 and no
    term of an element, its lead included, is divisible by another
    element's lead.  div is rings.mono_div or modules._vec_div, on the
    plain term tuples, apart from the engine's packed terms."""
    leads = [g.leading_term(order) for g in basis]
    if any(c != g.ring.field.one for g, (_, c) in zip(basis, leads)):
        raise AssertionError("a returned basis element is not monic")
    for k, g in enumerate(basis):
        for i, (s, _) in enumerate(leads):
            if i != k and any(div(u, s) is not None for u in g.terms):
                raise AssertionError("a term of a returned basis element is "
                                     "divisible by another element's lead")


def _spot_check_basis(I):
    """Assert the Buchberger criterion on the ideal's degrevlex basis, and
    that the basis is reduced.  It runs with every corpus entry, whose
    tasks then reuse the basis, so no corpus run ships an unsound cache;
    ``check`` runs it on random ideals."""
    from .groebner import s_polynomial
    from .orders import DegRevLex
    from .rings import mono_div
    order = DegRevLex()
    basis = I.groebner_basis(order)
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if I.normal_form(s_polynomial(basis[i], basis[j], order), order):
                raise AssertionError("S-polynomial of a returned basis did not "
                                     "reduce to zero")
    _assert_reduced(basis, order, mono_div)


def _spot_check_module_basis(vecs, morder):
    """The module basis of vecs, after asserting that it is reduced and
    the Buchberger criterion on it with the Fraction S-vectors of every
    same-component pair; the engine's own pair route (which
    schreyer_syzygies also takes) is not used to check itself."""
    from .modules import (_vec_div, module_buchberger, module_normal_form,
                          s_vector)
    basis = module_buchberger(vecs, morder)
    comps = [g.leading_term(morder)[0][0] for g in basis]
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if comps[i] == comps[j] and module_normal_form(
                    s_vector(basis[i], basis[j], morder), basis, morder):
                raise AssertionError("S-vector of a returned basis did not "
                                     "reduce to zero")
    _assert_reduced(basis, morder, _vec_div)
    return basis


def _run_entry(entry):
    script = entry.script()
    handles = ideal_handles(script)
    if script.ideal_order:
        _spot_check_basis(handles[script.ideal_order[0]])
    result = execute_script(script, handles=handles)
    failures = []
    for exp in entry.expected:
        got = None
        for r in result["results"]:
            if r["task"] == exp["task"]:
                got = r["result"]
                break
        if got is None:
            failures.append("expected task %r missing" % exp["task"])
            continue
        node = got
        ok = True
        for key in exp["path"]:
            if isinstance(node, dict) and key in node:
                node = node[key]
            else:
                ok = False
                break
        if not ok or node != exp["value"]:
            failures.append("expected %s at %s = %r, got %r (%s)"
                            % (exp["task"], "/".join(map(str, exp["path"])),
                               exp["value"], node if ok else "<missing>",
                               exp["provenance"]))
    return result, failures


def cmd_corpus(args):
    entries = build_corpus()
    violation = None
    resource = None
    rows = []
    summary = {"entries": [], "passed": 0, "failed": 0}
    all_results = []
    timings = {}
    for entry in entries:
        identifier = entry.identifier
        started = time.monotonic()
        error = None
        diagnostics = ""
        try:
            result, failures = _run_entry(entry)
        except BUGS as exc:
            error = str(exc)
            if violation is None:
                violation = (entry, exc)
        except ResourceLimitError as exc:
            error = str(exc)
            diagnostics = " ".join("%s=%s" % kv
                                   for kv in sorted(exc.diagnostics.items()))
            if resource is None:
                resource = (entry, error)
        except Exception as exc:  # any other failure is reported per entry
            error = str(exc)
        if args.timings:
            timings[identifier] = round(time.monotonic() - started, 6)
        if error is not None:
            summary["failed"] += 1
            summary["entries"].append({"id": identifier, "passed": False,
                                       "error": error})
            record = {"id": identifier, "error": error}
            if diagnostics:
                record["diagnostics"] = diagnostics
            all_results.append(record)
            rows.append((identifier, "error", "", error, "fail"))
            if diagnostics:
                rows.append((identifier, "diagnostics", "", diagnostics,
                             "fail"))
            continue
        passed = not failures
        verify_ok = all(
            r["result"].get("passed", True)
            for r in result["results"] if r["task"].startswith("verify"))
        passed = passed and verify_ok
        summary["passed" if passed else "failed"] += 1
        summary["entries"].append({
            "id": identifier,
            "passed": passed,
            "expected_failures": failures,
        })
        all_results.append({"id": identifier, "output": result})
        for r in result["results"]:
            res = r["result"]
            if "adeg" in res:
                for i, v in sorted(res["adeg"].items()):
                    rows.append((identifier, r["task"], i, v, "pass"))
            if "passed" in res:
                rows.append((identifier, r["task"], "",
                             "ok" if res["passed"] else "violation",
                             "pass" if res["passed"] else "fail"))
        for f in failures:
            rows.append((identifier, "expected", "", f, "fail"))

    payload = {
        "ring": "corpus",
        "tasks": [e.identifier for e in entries],
        "results": all_results,
        "timings": timings,
        "provenance": {"summary": {"passed": summary["passed"],
                                   "failed": summary["failed"]}},
    }
    written = not args.json or _dump_json(payload, args.json)
    if args.csv:
        lines = ["entry,task,i,value,status"] + [
            ",".join(str(c).replace(",", ";") for c in row) for row in rows]
        written = _write_text(args.csv, "\n".join(lines) + "\n") and written
    print("corpus: %d entries, %d passed, %d failed"
          % (len(entries), summary["passed"], summary["failed"]))
    for e in summary["entries"]:
        if not e["passed"]:
            print("  FAIL %s: %s" % (e["id"], e.get("error")
                                     or "; ".join(e["expected_failures"])))
    if violation is not None:
        entry, exc = violation
        path = _write_reproducer(entry.script_text, entry.identifier, exc)
        print("%s in %s (bug); %s"
              % (_bug_name(exc), entry.identifier,
                 "reproducer at %s" % path if path else
                 "no reproducer written"), file=sys.stderr)
        return EXIT_THEOREM
    if resource is not None:
        print("resource cap exceeded in %s: %s"
              % (resource[0].identifier, resource[1]), file=sys.stderr)
        return EXIT_RESOURCE
    return EXIT_OK if written and summary["failed"] == 0 else EXIT_USAGE


def cmd_check(args):
    """Abbreviated invariant suite: ring axioms, Groebner soundness, the
    signature loop's bases against the sugar loop's, difference calculus,
    one oracle equivalence, Euler characteristics of
    free resolutions against Hilbert functions and of Ext modules against
    their dualised resolutions, the numerator's sum
    transform against brute-force counts, the GG gate's two walks against
    each other, the handle walk with I = m against the tangent cone's
    Hilbert function, gr_I's homogenized basis against the substitution
    into S[t], gr_m(S/J) as (x) + J*(y) against the general route, GG
    against gr_I's initial forms, and ladeg's GG of a coordinate prime over
    the coordinate ring against its build in S."""
    import random
    from .groebner import (_POLY, IdealHandle, _caps, _groebner,
                           extended_ring, fresh_names, inject, maximal_ideal)
    from .orders import DegRevLex
    from .hilbert import (as_presentation, count_monomials,
                          cumulative_polynomial, ee_vector, hilbert_polynomial,
                          hilbert_value, hilbert_value_bruteforce,
                          monomials_of_degree)
    from .modules import (PositionOverTerm, Vec, ext_presentation,
                          free_resolution, resolution_for, schreyer_syzygies)
    from .monomials import decompose
    from .fields import GF
    from .rings import RingDescriptor
    from .numerical import NumericalPoly2
    from .adeg import _ext_table, _prime_pair, adeg_report_monomial
    from .constructions import (_top_forms, assoc_graded, cell_lengths,
                                gate_rectangle, gg_presentation,
                                initial_forms_ideal, monomial_cell_lengths,
                                rees_kernel)

    rng = random.Random(7)
    R = RingDescriptor.graded("x,y,z")

    def rand_poly(ring=R, rng=rng):
        out = ring.zero()
        for _ in range(rng.randint(1, 4)):
            exps = tuple(rng.randint(0, 2) for _ in range(3))
            out = out + ring.monomial(exps, rng.randint(-3, 3))
        return out

    for _ in range(50):
        f, g, h = rand_poly(), rand_poly(), rand_poly()
        assert (f + g) + h == f + (g + h)
        assert f * (g + h) == f * g + f * h
        assert f * g == g * f
    print("ring axioms: ok (50 random triples)")

    ideals = [IdealHandle(R, [rand_poly() for _ in range(rng.randint(1, 3))])
              for _ in range(10)]
    for I in ideals:
        _spot_check_basis(I)
    print("Buchberger criterion: ok (10 random ideals)")

    morder = PositionOverTerm()
    for _ in range(10):
        vecs = [Vec.from_polys(R, (rand_poly(), rand_poly()))
                for _ in range(rng.randint(1, 3))]
        # raises unless every same-component S-vector reduces to zero, on
        # Fractions and on the engine's pair route
        schreyer_syzygies(_spot_check_module_basis(vecs, morder), morder)
    print("Buchberger criterion: ok (10 random submodules of S^2)")

    for _ in range(25):
        P = NumericalPoly2({(rng.randint(0, 3), rng.randint(0, 3)):
                            rng.randint(-4, 4) for _ in range(4)})
        r, s, m, n = (rng.randint(0, 2) for _ in range(4))
        assert P.difference(m, n).difference(r, s) == P.difference(r + m, s + n)
    print("difference composition: ok (25 random polynomials)")

    R2 = RingDescriptor.graded("x,y")
    gx, gy = R2.gens()
    I = IdealHandle(R2, [gx**2, gx * gy])
    assert _ext_table(I) == adeg_report_monomial(I)
    print("oracle equivalence on (x^2, xy): ok")

    # its own random stream, so the draws of the steps above stay the same
    zp_rng = random.Random(11)
    Rp = RingDescriptor.graded("x,y,z", field=GF(7))
    for _ in range(5):
        ideals.append(IdealHandle(Rp, [rand_poly(Rp, zp_rng) for _ in
                                       range(zp_rng.randint(1, 3))]))
        _spot_check_basis(ideals[-1])
    print("Buchberger criterion over Zp(7): ok (5 random ideals)")

    # the signature loop's bases against the sugar loop's, which module
    # bases take, on the same ideals
    for I in ideals:
        assert list(I.groebner_basis()) == _groebner(
            list(I.gens), DegRevLex(), _POLY, I.max_basis, I.max_degree)
    print("signature loop = sugar loop: ok (10 random ideals over Q, "
          "5 over Zp(7))")

    def rand_homogeneous(rng):
        gens = []
        for _ in range(rng.randint(2, 4)):
            mons = list(monomials_of_degree(R.nvars, rng.randint(2, 3)))
            gens.append(sum((R.monomial(rng.choice(mons), rng.randint(1, 3))
                             for _ in range(rng.randint(1, 3))), R.zero()))
        return IdealHandle(R, gens)

    # a stream of its own too; homogeneous generators, so that the
    # resolution is graded and its alternating sum of graded ranks is the
    # Hilbert function of S/I
    euler_rng = random.Random(13)
    for _ in range(5):
        I = rand_homogeneous(euler_rng)
        # a Schreyer frame can be longer than a minimal resolution
        res = free_resolution(as_presentation(I), 2 * R.nvars)
        assert res.complete
        levels = [res.base_shifts] + res.level_shifts
        for d in range(7):
            euler = sum((-1) ** k * count_monomials(R.nvars, d - a)
                        for k, shifts in enumerate(levels) for a in shifts)
            assert euler == hilbert_value(I, d)
    print("Betti/Euler oracle: ok (5 random resolutions, degrees 0-6)")

    # Ext has the Euler characteristic of the dualised frame: the
    # alternating sum over j of Ext^j's Hilbert function against the one
    # of the dual shifts -a (Ext^j vanishes for j > n); a stream of its own
    ext_rng = random.Random(29)
    for _ in range(5):
        pres = as_presentation(rand_homogeneous(ext_rng))
        exts = [ext_presentation(pres, j) for j in range(R.nvars + 1)]
        res = resolution_for(pres, 2 * R.nvars)
        assert res.complete
        levels = [res.base_shifts] + res.level_shifts
        for d in range(-10, 3):
            euler = sum((-1) ** k * count_monomials(R.nvars, d + a)
                        for k, shifts in enumerate(levels) for a in shifts)
            assert euler == sum((-1) ** j * hilbert_value(E, d)
                                for j, E in enumerate(exts))
    print("Ext Euler oracle: ok (5 random ideals, degrees -10 to 2)")

    # the series expansion against linear algebra that never sees a
    # numerator, summed up to the Hilbert polynomial's threshold
    series_rng = random.Random(17)
    for _ in range(5):
        I = rand_homogeneous(series_rng)
        k = hilbert_polynomial(I)[1]
        assert cumulative_polynomial(I)(k) == sum(
            hilbert_value_bruteforce(I, u) for u in range(k + 1))
    print("series oracle: ok (5 random ideals, sums up to the threshold)")

    def rand_monomial_ideal(rng):
        return IdealHandle(R, [
            R.monomial(tuple(rng.randint(0, 2) for _ in range(R.nvars)))
            for _ in range(rng.randint(1, 3))])

    # the GG gate's walk on antichains against its walk on IdealHandles,
    # cell by cell on the default rectangle
    gate_rng = random.Random(19)
    for _ in range(5):
        J, I = rand_monomial_ideal(gate_rng), rand_monomial_ideal(gate_rng)
        rect = gate_rectangle(J)
        assert (list(monomial_cell_lengths(J, I, rect))
                == list(cell_lengths(J, I, rect)))
    print("GG gate walks: ok (5 random monomial pairs, antichains = handles)")

    # gr_m(S/J) as (x) + J*(y), a basis in n + 1 variables, against the
    # general route's L = in_y(J + (y_j - x_j)), one in 2n + 1: one reduced
    # degrevlex basis
    m = maximal_ideal(R)

    def same_gr(J, general):
        return (assoc_graded(J, m).groebner_basis()
                == _top_forms(*general).groebner_basis())

    # the handle walk for I = m against the tangent cone: gr_m(S/J)_j is
    # (J + m^j)/(J + m^(j+1)), the Hilbert function of S/J* at j for J*
    # the ideal of lowest forms, at (0, j); 0 at i > 0
    cone_rng = random.Random(43)
    origin = R.zero_mono()

    def rand_origin_poly(rng):
        f = rand_poly(R, rng)
        return f - R.monomial(origin, f.coefficient(origin))
    for _ in range(3):
        J = IdealHandle(R, [])
        while J.is_homogeneous():
            J = IdealHandle(R, [rand_origin_poly(cone_rng)
                                for _ in range(cone_rng.randint(1, 2))])
        cone = initial_forms_ideal(J, range(R.nvars))
        assert all(length == (hilbert_value(cone, j) if i == 0 else 0)
                   for (i, j), length in cell_lengths(J, m, gate_rectangle(J)))
        assert same_gr(J, rees_kernel(J, m))
    print("GG gate handle walk: ok (3 random inhomogeneous J with I = m, "
          "tangent-cone Hilbert function; gr_m = the general route's)")

    # the substitution gate (run inside rees_kernel, against J) against the
    # substitution y_j -> t*f_j, t -> t into S[t] modulo J*S[t], on every
    # element of the general route's homogenized basis
    subst_rng = random.Random(23)
    St = extended_ring(R, fresh_names(R, "t_", 1))
    t = St.gen(R.nvars)
    for _ in range(5):
        J = rand_homogeneous(subst_rng)
        JSt = IdealHandle(St, [inject(g, St) for g in J.gens], **_caps(J))
        general = rees_kernel(J, m)
        images = (St.gens()[:R.nvars] + [t * inject(f, St) for f in m.gens]
                  + [t])
        assert all(JSt.contains(g.substitute(St, images))
                   for g in general[1])
        assert same_gr(J, general)
    print("gr_I substitution: ok (5 random J with I = m, every homogenized "
          "basis element into S[t]; gr_m = the general route's)")

    # GG is gr_I's own handle when gr_I is bigraded; the x-block initial
    # forms of gr_I's ideal, which build GG otherwise, stay its oracle
    gg_rng = random.Random(31)

    def rand_monomials(rng, low, high):
        return [R.monomial(rng.choice(list(monomials_of_degree(
            R.nvars, rng.randint(low, high))))) for _ in range(rng.randint(1, 3))]
    pairs = [(rand_homogeneous(gg_rng), maximal_ideal(R)) for _ in range(5)]
    for _ in range(5):
        J = IdealHandle(R, rand_monomials(gg_rng, 1, 3))
        d = gg_rng.randint(1, 2)
        pairs.append((J, IdealHandle(R, rand_monomials(gg_rng, d, d))))
    for J, I in pairs:
        gg = gg_presentation(J, I)
        assert gg.ideal is gg.gr
        forms = initial_forms_ideal(gg.gr, gg.ring.x_block)
        assert forms.groebner_basis() == gg.ideal.groebner_basis()
    print("GG = gr_I: ok (10 random bigraded pairs, initial forms agree)")

    # ladeg's GG(S/p) over S/p = k[x_k : x_k not in p] against the build in
    # S, on every associated prime of random monomial J with monomial I:
    # equal Hilbert functions on the gate rectangle (d + 2, d + 2), equal ee
    # vectors
    prime_rng = random.Random(41)
    primes = smaller = 0
    for _ in range(5):
        J = IdealHandle(R, rand_monomials(prime_rng, 2, 3))
        I = IdealHandle(R, rand_monomials(prime_rng, 1, 2))
        for supp in decompose(J).associated_primes:
            P, I_p = _prime_pair(J, I, supp)
            small = gg_presentation(P, I_p)
            p = IdealHandle(R, [R.gen(k) for k in supp], **_caps(J))
            full = gg_presentation(p, I)
            d = R.nvars - len(supp)
            assert all(small.hilbert(i, j) == full.hilbert(i, j)
                       for i in range(d + 3) for j in range(d + 3))
            assert ee_vector(small.ideal, d) == ee_vector(full.ideal, d)
            primes += 1
            smaller += P.ring is not R
    print("prime GG over S/p: ok (%d associated primes of 5 random monomial "
          "J, %d over a smaller ring)" % (primes, smaller))
    print("check: all good")
    return EXIT_OK


def _cap(text):
    """A cap given on the command line: an integer of 0 or more."""
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("a cap cannot be negative")
    return value


def build_parser():
    parser = argparse.ArgumentParser(
        prog="arithdeg",
        description="arithmetic-degree toolkit: Groebner engine, Hilbert "
                    "functions, standard pairs, associated graded rings, and "
                    "the multiplicity-inequality verification corpus")
    sub = parser.add_subparsers(dest="command")

    p_run = sub.add_parser("run", help="execute a session script")
    p_run.add_argument("-i", "--input", required=True)
    p_run.add_argument("--json", help="write results to this file")
    p_run.add_argument("--order", default=None, choices=ORDERS)
    p_run.add_argument("--max-deg", type=_cap, default=None)
    p_run.add_argument("--max-basis", type=_cap, default=None)
    p_run.add_argument("--timings", action="store_true",
                       help="include wall-clock timings (breaks byte-for-byte "
                            "reproducibility)")

    p_corpus = sub.add_parser("corpus", help="run the bundled corpus")
    p_corpus.add_argument("--json", help="write full results to this file")
    p_corpus.add_argument("--csv", help="write the summary table to this file")
    p_corpus.add_argument("--timings", action="store_true",
                          help="include each entry's wall-clock time (breaks "
                               "byte-for-byte reproducibility)")

    sub.add_parser("check", help="run the abbreviated invariant suite")
    return parser


def main(argv=None):
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    if args.command == "run":
        return cmd_run(args)
    if args.command == "corpus":
        return cmd_corpus(args)
    if args.command == "check":
        return cmd_check(args)
    parser.print_usage(sys.stderr)
    return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
