"""Session-script parsing: grammar, error positions, round trips."""

import random

import pytest

from arithdeg.errors import NameResolutionError, SessionSyntaxError
from arithdeg.fields import GF, QQ
from arithdeg.session import parse_session


GOOD = "ring S=Q[x,y]; ideal J=x^2,x*y; task adeg J;"


def test_parse_minimal():
    script = parse_session(GOOD)
    assert script.ring_name == "S"
    assert script.ring.names == ("x", "y")
    assert script.ring.field == QQ
    assert script.ideal_order == ["J"]
    assert len(script.ideals["J"]) == 2
    assert script.tasks == [("adeg", "J")]


def test_parse_prime_field():
    script = parse_session("ring S = Zp(32003)[x,y]; ideal J = x; task gb J;")
    assert script.ring.field == GF(32003)
    assert parse_session("ring S = Zp(7)[x];").ring.field.p == 7


def test_large_prime_field_parses_fast():
    """p = 2^61 - 1 is decided without trial division up to sqrt(p)."""
    import time
    started = time.monotonic()
    script = parse_session("ring S = Zp(2305843009213693951)[x];")
    assert script.ring.field.p == 2 ** 61 - 1
    assert time.monotonic() - started < 0.5


def test_primality_matches_trial_division():
    from arithdeg.fields import _is_prime
    assert [n for n in range(3000) if _is_prime(n)] == [
        n for n in range(2, 3000) if all(n % d for d in range(2, n))]


def test_missing_semicolon_position():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("ring S = Q[x,y];\nideal J = x^2, x*y\ntask adeg J;")
    assert err.value.line >= 2


@pytest.mark.parametrize("text", [
    "ring S = Zp(4)[x];",
    "ring S = Zp(561)[x];",                 # a Carmichael number
    # 151*751*28351, a strong pseudoprime to the bases 2, 3, 5 and 7
    "ring S = Zp(3215031751)[x];",
    # above the bound below which the Miller-Rabin bases are exact
    "ring S = Zp(3317044064679887385961997)[x];",
    "ring S = Q[x]; ideal J = 1/0*x;",
    "ring S = Zp(101)[x]; ideal J = x + 1/101;",
])
def test_bad_field_values_are_syntax_errors(text):
    """A field that is not an odd prime field, or a zero denominator in
    the script's field, is a syntax error rather than a bare traceback."""
    with pytest.raises(SessionSyntaxError):
        parse_session(text)


def test_unknown_task():
    with pytest.raises(SessionSyntaxError):
        parse_session("ring S=Q[x]; ideal J=x; task frobnicate J;")


def test_undeclared_name():
    with pytest.raises(NameResolutionError):
        parse_session("ring S=Q[x,y]; ideal J=x^2; task verify J I;")


def test_duplicate_names():
    with pytest.raises(SessionSyntaxError):
        parse_session("ring S=Q[x]; ideal J=x; ideal J=x^2; task gb J;")


def test_unknown_variable_in_ideal():
    with pytest.raises(SessionSyntaxError):
        parse_session("ring S=Q[x]; ideal J=z^2; task gb J;")


def test_comments_and_whitespace():
    text = """
    # comment line
    ring S = Q[x, y];   # trailing comment
    ideal J = x^2 ,
              x*y;
    task adeg J;
    """
    script = parse_session(text)
    assert script.tasks == [("adeg", "J")]


def test_meta_flags():
    script = parse_session(
        "ring S=Q[x,y]; ideal J=y^2-x^3; meta J prime; task verify J J;")
    assert script.metas["J"] == {"prime"}
    with pytest.raises(SessionSyntaxError):
        parse_session("ring S=Q[x]; ideal J=x; meta J sparkly;")


def test_options():
    script = parse_session(
        "ring S=Q[x]; ideal J=x; option order lex; option max_degree 20; task gb J;")
    assert script.options == {"order": "lex", "max_degree": "20"}
    with pytest.raises(SessionSyntaxError):
        parse_session("ring S=Q[x]; ideal J=x; option color blue;")


def test_round_trip():
    for text in (
        GOOD,
        "ring S=Q[x,y]; ideal J=y^2-x^3; ideal M=x,y; meta J prime; "
        "task verify J M; task gg J M;",
        "ring S=Zp(101)[a,b]; ideal K=a^2-b; option order lex; task gb K;",
        "ring S=Q[x]; ideal Z=0; task hilbert Z;",
    ):
        script = parse_session(text)
        again = parse_session(script.emit())
        assert script == again
        assert script.emit() == again.emit()


def test_zero_ideal_parses():
    script = parse_session("ring S=Q[x]; ideal Z=0; task hilbert Z;")
    assert script.ideals["Z"] == []


def test_comment_inside_a_multiline_ideal_body():
    script = parse_session("ring S = Q[x,y];\n"
                           "ideal J = x^2,   # the first\n"
                           "          x*y;   # the second\n"
                           "task gb J;\n")
    x, y = script.ring.gens()
    assert script.ideals["J"] == [x ** 2, x * y]


def test_unknown_variable_position_is_its_token():
    with pytest.raises(SessionSyntaxError) as err:
        parse_session("ring S = Q[x,y];\nideal J = x^2,\n   x*z + y;\ntask gb J;")
    assert (err.value.line, err.value.column) == (3, 6)
    assert "'z'" in str(err.value)


def _random_script_text(rng):
    """A random script with comments and line breaks wherever whitespace
    may sit, ideal bodies included."""
    def gap():
        return rng.choice([" ", "", "\n  ", "  # note\n ", "\t"])

    def poly(names):
        text = rng.choice(["", "-"])
        for k in range(rng.randint(1, 3)):
            if k:
                text += gap() + rng.choice("+-") + gap()
            text += rng.choice(["", "3*", "1/2*", "7 "]) + "*".join(
                "%s^%d" % (rng.choice(names), rng.randint(1, 3))
                for _ in range(rng.randint(1, 2)))
        return text

    names = ["x", "y", "z_1", "w2"][:rng.randint(1, 4)]
    field = rng.choice(["Q", "Zp(101)", "Zp%s(%s32003%s)" % (gap(), gap(), gap())])
    parts = ["ring S%s=%s%s[%s];" % (gap(), gap(), field,
                                     ("," + gap()).join(names))]
    ideals = ["J", "I_2", "M"][:rng.randint(1, 3)]
    for name in ideals:
        body = ("," + gap()).join(poly(names) for _ in range(rng.randint(1, 3)))
        parts.append("ideal %s =%s%s%s;" % (name, gap(), body, gap()))
    if rng.random() < 0.5:
        parts.append("meta %s prime;" % ideals[0])
    parts.append("option order %s;" % rng.choice(["lex", "degrevlex"]))
    parts.append("option max_degree%s%d;" % (gap() or " ", rng.randint(0, 99)))
    parts.append("task gb %s;" % rng.choice(ideals))
    parts.append("task verify %s %s;" % (rng.choice(ideals), rng.choice(ideals)))
    return gap().join(p + gap() for p in parts)


def test_seeded_round_trip_with_comments():
    rng = random.Random(20041)
    for _ in range(60):
        script = parse_session(_random_script_text(rng))
        again = parse_session(script.emit())
        assert again == script
        assert again.emit() == script.emit()
