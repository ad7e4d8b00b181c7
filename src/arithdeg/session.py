"""Session scripts: the text input format of the toolkit.

Grammar (whitespace-insensitive, '#' comments):

    ring  S = Q[x,y,z];            # or Zp(32003)[x,y]
    ideal J = x^2, x*y;
    meta  J prime;                 # optional flags: prime, equidimensional
    option order degrevlex;        # order degrevlex|lex, max_degree N,
                                   # max_basis N
    task  adeg J;                  # gb | hilbert | stdpairs | adeg
    task  verify J I;              # gg | gmult | ladeg | verify take J I

Scripts are read by the scanner ``rings`` shares with parse_polynomial: a
comment may sit wherever whitespace may, ideal bodies included.  Parsing
is deterministic; unknown tasks and undeclared names fail with line/column
positions.
"""

from .errors import (AlgebraError, NameResolutionError, SessionSyntaxError)
from .fields import GF, QQ
from .orders import ORDERS
from .rings import RingDescriptor, _Tokens, poly_text, terms_key

ONE_NAME_TASKS = ("gb", "hilbert", "stdpairs", "adeg")
TWO_NAME_TASKS = ("gg", "gmult", "ladeg", "verify")
KNOWN_OPTIONS = ("order", "max_degree", "max_basis")
KNOWN_FLAGS = ("prime", "equidimensional", "origin_certified")


class SessionScript:
    """Parsed session: one ring, named ideals, tasks, options, metadata."""

    def __init__(self, ring_name, ring, ideal_order, ideals, tasks, options, metas):
        self.ring_name = ring_name
        self.ring = ring
        self.ideal_order = list(ideal_order)
        self.ideals = dict(ideals)            # name -> list of Polynomial
        self.tasks = list(tasks)              # (kind, names...)
        self.options = dict(options)
        self.metas = dict(metas)              # name -> set of flags

    def emit(self):
        """Canonical text form; emit(parse(s)) reparses to an equal script."""
        lines = []
        field = self.ring.field
        if field == QQ:
            fs = "Q"
        else:
            fs = "Zp(%d)" % field.p
        lines.append("ring %s = %s[%s];" % (self.ring_name, fs,
                                            ",".join(self.ring.names)))
        for name in self.ideal_order:
            gens = self.ideals[name]
            body = ", ".join(poly_text(g) for g in gens) if gens else "0"
            lines.append("ideal %s = %s;" % (name, body))
            for flag in sorted(self.metas.get(name, ())):
                lines.append("meta %s %s;" % (name, flag))
        for key in sorted(self.options):
            lines.append("option %s %s;" % (key, self.options[key]))
        for task in self.tasks:
            lines.append("task %s;" % " ".join(task))
        return "\n".join(lines) + "\n"

    def signature(self):
        return (self.ring_name, self.ring.signature(),
                tuple(self.ideal_order),
                tuple((n, tuple(terms_key(g.terms) for g in self.ideals[n]))
                      for n in self.ideal_order),
                tuple(self.tasks),
                tuple(sorted(self.options.items())),
                tuple(sorted((n, tuple(sorted(f))) for n, f in self.metas.items())))

    def __eq__(self, other):
        return isinstance(other, SessionScript) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())


class _Script(_Tokens):
    """The shared scanner, raising SessionSyntaxError with the line and
    column of the current token."""

    def error(self, message):
        line = self.text.count("\n", 0, self.offset) + 1
        column = self.offset - self.text.rfind("\n", 0, self.offset)
        raise SessionSyntaxError(message, line, column)


def parse_session(text):
    """Parse a session script into a SessionScript."""
    tokens = _Script(text)
    ring_name = None
    ring = None
    ideal_order = []
    ideals = {}
    tasks = []
    options = {}
    metas = {}
    while tokens.kind != "end":
        word = tokens.name()
        if word == "ring":
            if ring is not None:
                tokens.error("duplicate ring declaration")
            ring_name = tokens.name()
            tokens.expect("=")
            ring = _parse_ring_body(tokens)
        elif word == "ideal":
            if ring is None:
                tokens.error("ideal before ring declaration")
            name = tokens.name()
            if name in ideals or name == ring_name:
                tokens.error("duplicate name %r" % name)
            tokens.expect("=")
            gens = tokens.separated(lambda: tokens.polynomial(ring))
            tokens.expect(";")
            ideal_order.append(name)
            ideals[name] = [g for g in gens if g]
        elif word == "meta":
            name = tokens.name()
            if name not in ideals:
                raise NameResolutionError("meta for undeclared ideal %r" % name)
            flag = tokens.name()
            if flag not in KNOWN_FLAGS:
                tokens.error("unknown meta flag %r" % flag)
            tokens.expect(";")
            metas.setdefault(name, set()).add(flag)
        elif word == "option":
            key = tokens.name()
            if key not in KNOWN_OPTIONS:
                tokens.error("unknown option %r" % key)
            value = tokens.value
            if not (value in ORDERS if key == "order" else tokens.kind == "num"):
                tokens.error("bad value %r for option %s" % (value, key))
            tokens.advance()
            tokens.expect(";")
            options[key] = value
        elif word == "task":
            kind = tokens.name()
            if kind in ONE_NAME_TASKS:
                names = (tokens.name(),)
            elif kind in TWO_NAME_TASKS:
                names = (tokens.name(), tokens.name())
            else:
                tokens.error("unknown task %r" % kind)
            tokens.expect(";")
            for n in names:
                if n not in ideals:
                    raise NameResolutionError(
                        "task %s refers to undeclared ideal %r" % (kind, n))
            tasks.append((kind,) + names)
        else:
            tokens.error("unknown statement %r" % word)
    if ring is None:
        raise SessionSyntaxError("script declares no ring", 1, 1)
    return SessionScript(ring_name, ring, ideal_order, ideals, tasks, options, metas)


def _parse_ring_body(tokens):
    word = tokens.name()
    if word == "Q":
        field = QQ
    elif word == "Zp":
        tokens.expect("(")
        p = tokens.integer("prime expected in Zp(...)")
        try:
            field = GF(p)
        except ValueError as exc:
            tokens.error(str(exc))
        tokens.expect(")")
    else:
        tokens.error("unknown field %r (use Q or Zp(p))" % word)
    tokens.expect("[")
    names = tokens.separated(tokens.name)
    tokens.expect("]")
    tokens.expect(";")
    try:
        return RingDescriptor(tuple(names), field=field)
    except AlgebraError as exc:
        tokens.error(str(exc))
