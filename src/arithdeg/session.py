"""Session scripts: the text input format of the toolkit.

Grammar (whitespace-insensitive, '#' comments):

    ring  S = Q[x,y,z];            # or Zp(32003)[x,y]
    ideal J = x^2, x*y;
    meta  J prime;                 # optional flags: prime, equidimensional
    option order degrevlex;        # order degrevlex|lex, max_degree N,
                                   # max_basis N
    task  adeg J;                  # gb | hilbert | stdpairs | adeg
    task  verify J I;              # gg | gmult | ladeg | verify take J I

Parsing is deterministic; unknown tasks and undeclared names fail with
line/column positions.
"""

from .errors import (AlgebraError, NameResolutionError, SessionSyntaxError)
from .fields import GF, QQ
from .rings import RingDescriptor, parse_polynomial, terms_key

ONE_NAME_TASKS = ("gb", "hilbert", "stdpairs", "adeg")
TWO_NAME_TASKS = ("gg", "gmult", "ladeg", "verify")
KNOWN_OPTIONS = ("order", "max_degree", "max_basis")
ORDER_NAMES = ("degrevlex", "lex")
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
            body = ", ".join(_poly_text(g) for g in gens) if gens else "0"
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


def _poly_text(g):
    text = repr(g)
    return text.replace(" ", "")


class _Cursor:
    def __init__(self, text):
        self.text = text
        self.pos = 0
        self.line = 1
        self.col = 1

    def error(self, message):
        raise SessionSyntaxError(message, self.line, self.col)

    def skip_space(self):
        while self.pos < len(self.text):
            ch = self.text[self.pos]
            if ch == "#":
                while self.pos < len(self.text) and self.text[self.pos] != "\n":
                    self.pos += 1
            elif ch in " \t\r\n":
                if ch == "\n":
                    self.line += 1
                    self.col = 0
                self.pos += 1
                self.col += 1
            else:
                break

    def eof(self):
        self.skip_space()
        return self.pos >= len(self.text)

    def take_word(self):
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and (self.text[self.pos].isalnum()
                                             or self.text[self.pos] == "_"):
            self.pos += 1
            self.col += 1
        if start == self.pos:
            self.error("expected a name")
        return self.text[start:self.pos]

    def expect(self, token):
        self.skip_space()
        if not self.text.startswith(token, self.pos):
            self.error("expected %r" % token)
        self.pos += len(token)
        self.col += len(token)

    def peek(self):
        self.skip_space()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def until_semicolon(self):
        self.skip_space()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] != ";":
            if self.text[self.pos] == "\n":
                self.line += 1
                self.col = 0
            self.pos += 1
            self.col += 1
        if self.pos >= len(self.text):
            self.error("missing semicolon")
        body = self.text[start:self.pos]
        self.pos += 1
        self.col += 1
        return body


def parse_session(text):
    """Parse a session script into a SessionScript."""
    cur = _Cursor(text)
    ring_name = None
    ring = None
    ideal_order = []
    ideals = {}
    tasks = []
    options = {}
    metas = {}
    while not cur.eof():
        word = cur.take_word()
        if word == "ring":
            if ring is not None:
                cur.error("duplicate ring declaration")
            ring_name = cur.take_word()
            cur.expect("=")
            ring = _parse_ring_body(cur)
        elif word == "ideal":
            if ring is None:
                cur.error("ideal before ring declaration")
            name = cur.take_word()
            if name in ideals or name == ring_name:
                cur.error("duplicate name %r" % name)
            cur.expect("=")
            body = cur.until_semicolon()
            gens = []
            if body.strip() and body.strip() != "0":
                for chunk in body.split(","):
                    try:
                        gens.append(parse_polynomial(ring, chunk))
                    except AlgebraError as exc:
                        cur.error("bad polynomial %r: %s" % (chunk.strip(), exc))
            ideal_order.append(name)
            ideals[name] = gens
        elif word == "meta":
            name = cur.take_word()
            if name not in ideals:
                raise NameResolutionError("meta for undeclared ideal %r" % name)
            flag = cur.take_word()
            if flag not in KNOWN_FLAGS:
                cur.error("unknown meta flag %r" % flag)
            cur.expect(";")
            metas.setdefault(name, set()).add(flag)
        elif word == "option":
            key = cur.take_word()
            if key not in KNOWN_OPTIONS:
                cur.error("unknown option %r" % key)
            value = cur.take_word()
            if not (value in ORDER_NAMES if key == "order"
                    else value.isascii() and value.isdigit()):
                cur.error("bad value %r for option %s" % (value, key))
            cur.expect(";")
            options[key] = value
        elif word == "task":
            kind = cur.take_word()
            if kind in ONE_NAME_TASKS:
                names = (cur.take_word(),)
            elif kind in TWO_NAME_TASKS:
                names = (cur.take_word(), cur.take_word())
            else:
                cur.error("unknown task %r" % kind)
            cur.expect(";")
            for n in names:
                if n not in ideals:
                    raise NameResolutionError(
                        "task %s refers to undeclared ideal %r" % (kind, n))
            tasks.append((kind,) + names)
        else:
            cur.error("unknown statement %r" % word)
    if ring is None:
        raise SessionSyntaxError("script declares no ring", 1, 1)
    return SessionScript(ring_name, ring, ideal_order, ideals, tasks, options, metas)


def _parse_ring_body(cur):
    word = cur.take_word()
    if word == "Q":
        field = QQ
    elif word == "Zp":
        cur.expect("(")
        p = cur.take_word()
        if not p.isdigit():
            cur.error("prime expected in Zp(...)")
        field = GF(int(p))
        cur.expect(")")
    else:
        cur.error("unknown field %r (use Q or Zp(p))" % word)
    cur.expect("[")
    names = []
    while True:
        names.append(cur.take_word())
        if cur.peek() == ",":
            cur.expect(",")
            continue
        break
    cur.expect("]")
    cur.expect(";")
    try:
        return RingDescriptor(tuple(names), field=field)
    except AlgebraError as exc:
        cur.error(str(exc))
