"""Polynomial rings with graded or bigraded variables, and exact polynomials.

Monomials are plain exponent tuples (dense, at most 12 variables); the
helpers below implement the semigroup operations on them.  A Polynomial is
an immutable map from exponent tuple to nonzero field element over a fixed
RingDescriptor.
"""

import re
from operator import add, le, sub

from .errors import (AlgebraError, NotBigradedError, RingMismatchError,
                     ZeroPolynomialError)
from .fields import QQ

MAX_VARIABLES = 12
_NAME = r"[A-Za-z_][A-Za-z_0-9]*"      # variable names; the scanner's names


# ---------------------------------------------------------------------------
# monomial helpers

def mono_mul(a, b):
    return tuple(map(add, a, b))

def mono_divides(a, b):
    """True when a | b componentwise."""
    return all(map(le, a, b))

def mono_div(a, b):
    """a / b, or None when b does not divide a."""
    q = tuple(map(sub, a, b))
    return None if min(q) < 0 else q

def mono_lcm(a, b):
    return tuple(map(max, a, b))

def minimal_monomials(monos):
    """The minimal elements under divisibility, in ascending lex order.  A
    proper divisor has strictly lower total degree, so the distinct
    monomials are taken degree by degree and each is tested only against
    those kept from lower degrees: an equigenerated input costs just the
    deduplication."""
    by_degree = {}
    for m in set(monos):
        by_degree.setdefault(sum(m), []).append(m)
    kept = []
    for d in sorted(by_degree):
        kept += [m for m in by_degree[d]
                 if not any(mono_divides(p, m) for p in kept)]
    return tuple(sorted(kept))

def terms_key(terms):
    """Canonical, hashable and sortable form of a map from terms to
    coefficients: its (term, str(coefficient)) pairs in ascending order."""
    return tuple(sorted((t, str(c)) for t, c in terms.items()))

def deg_add(a, b):
    """Sum of two degrees: integers, or (i, j) pairs on bigraded rings."""
    if isinstance(a, tuple):
        return (a[0] + b[0], a[1] + b[1])
    return a + b


class RingDescriptor:
    """Named variables plus a grading tag and a coefficient field.

    The grading is either standard (every variable of degree 1) or a
    bidegree tag (1,0)/(0,1) per variable (bigraded case, partitioning the
    variables into an x-block and a y-block, each standard graded).
    ``memo`` holds results that depend only on the ring and its grading,
    such as Hilbert numerators of monomial ideals; it lives and dies with
    the ring.
    """

    __slots__ = ("names", "field", "bidegrees",
                 "x_block", "y_block", "memo")

    def __init__(self, names, field=QQ, bidegrees=None):
        names = tuple(names)
        if not names:
            raise AlgebraError("a ring needs at least one variable")
        if len(names) > MAX_VARIABLES:
            raise AlgebraError("at most %d variables supported, got %d"
                               % (MAX_VARIABLES, len(names)))
        if len(set(names)) != len(names):
            raise AlgebraError("duplicate variable names: %r" % (names,))
        for n in names:
            if not re.fullmatch(_NAME, n):
                raise AlgebraError("bad variable name %r" % (n,))
        self.names = names
        self.field = field
        self.memo = {}
        self.bidegrees = self.x_block = self.y_block = None
        if bidegrees is not None:
            bidegrees = tuple(tuple(b) for b in bidegrees)
            if len(bidegrees) != len(names):
                raise AlgebraError("one bidegree tag per variable required")
            if any(b not in ((1, 0), (0, 1)) for b in bidegrees):
                raise AlgebraError("bidegree tags must be (1,0) or (0,1)")
            self.bidegrees = bidegrees
            self.x_block = tuple(i for i, b in enumerate(bidegrees) if b == (1, 0))
            self.y_block = tuple(i for i, b in enumerate(bidegrees) if b == (0, 1))
            if not self.x_block or not self.y_block:
                raise AlgebraError("bigraded ring needs both an x-block and a y-block")

    @classmethod
    def graded(cls, names, field=QQ):
        if isinstance(names, str):
            names = [n.strip() for n in names.split(",") if n.strip()]
        return cls(names, field=field)

    @classmethod
    def bigraded(cls, x_names, y_names, field=QQ):
        if isinstance(x_names, str):
            x_names = [n.strip() for n in x_names.split(",") if n.strip()]
        if isinstance(y_names, str):
            y_names = [n.strip() for n in y_names.split(",") if n.strip()]
        names = tuple(x_names) + tuple(y_names)
        tags = [(1, 0)] * len(x_names) + [(0, 1)] * len(y_names)
        return cls(names, field=field, bidegrees=tags)

    @property
    def nvars(self):
        return len(self.names)

    @property
    def is_bigraded(self):
        return self.bidegrees is not None

    def degree(self, m):
        """Total degree of an exponent tuple."""
        return sum(m)

    def bidegree(self, m):
        if not self.is_bigraded:
            raise NotBigradedError("ring %r carries no bidegree tags" % (self,))
        i = sum(m[k] for k in self.x_block)
        j = sum(m[k] for k in self.y_block)
        return (i, j)

    def zero_mono(self):
        return (0,) * self.nvars

    def gen(self, i):
        e = [0] * self.nvars
        e[i] = 1
        return Polynomial(self, {tuple(e): self.field.one})

    def gens(self):
        return [self.gen(i) for i in range(self.nvars)]

    def zero(self):
        return Polynomial(self, {})

    def one(self):
        return Polynomial(self, {self.zero_mono(): self.field.one})

    def constant(self, c):
        c = self.field.coerce(c)
        if not c:
            return self.zero()
        return Polynomial(self, {self.zero_mono(): c})

    def monomial(self, exps, coeff=1):
        exps = tuple(int(e) for e in exps)
        if len(exps) != self.nvars or any(e < 0 for e in exps):
            raise AlgebraError("bad exponent vector %r" % (exps,))
        c = self.field.coerce(coeff)
        if not c:
            return self.zero()
        return Polynomial(self, {exps: c})

    def signature(self):
        return (self.names, repr(self.field), self.bidegrees)

    def __eq__(self, other):
        return self is other or (isinstance(other, RingDescriptor)
                                 and self.signature() == other.signature())

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        if self.is_bigraded:
            xs = ",".join(self.names[i] for i in self.x_block)
            ys = ",".join(self.names[i] for i in self.y_block)
            return "%s[%s;%s]" % (self.field, xs, ys)
        return "%s[%s]" % (self.field, ",".join(self.names))


class Polynomial:
    """Exact multivariate polynomial: map from exponent tuple to coefficient."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms, _clean=True):
        self.ring = ring
        if _clean:
            clean = {}
            for m, c in terms.items():
                c = ring.field.coerce(c)
                if c:
                    clean[m] = c
            self.terms = clean
        else:
            self.terms = terms

    # -- predicates -------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __bool__(self):
        return bool(self.terms)

    def is_monomial(self):
        return len(self.terms) == 1

    def is_constant(self):
        return not self.terms or (len(self.terms) == 1
                                  and self.ring.zero_mono() in self.terms)

    def is_homogeneous(self):
        degs = {self.ring.degree(m) for m in self.terms}
        return len(degs) <= 1

    def is_bihomogeneous(self):
        degs = {self.ring.bidegree(m) for m in self.terms}
        return len(degs) <= 1

    # -- arithmetic -------------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatchError("operands over %r and %r" % (self.ring, other.ring))

    def __add__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms = dict(self.terms)
            for m, c in other.terms.items():
                s = terms.get(m, 0) + c
                if s:
                    terms[m] = s
                elif m in terms:
                    del terms[m]
            return Polynomial(self.ring, terms, _clean=False)
        return self + self.ring.constant(other)

    __radd__ = __add__

    def __neg__(self):
        return Polynomial(self.ring, {m: -c for m, c in self.terms.items()}, _clean=False)

    def __sub__(self, other):
        if isinstance(other, Polynomial):
            return self + (-other)
        return self + self.ring.constant(-self.ring.field.coerce(other))

    def __rsub__(self, other):
        return (-self) + self.ring.constant(other)

    def __mul__(self, other):
        if isinstance(other, Polynomial):
            self._check(other)
            terms = {}
            for m1, c1 in self.terms.items():
                for m2, c2 in other.terms.items():
                    m = mono_mul(m1, m2)
                    s = terms.get(m, 0) + c1 * c2
                    if s:
                        terms[m] = s
                    elif m in terms:
                        del terms[m]
            return Polynomial(self.ring, terms, _clean=False)
        c = self.ring.field.coerce(other)
        if not c:
            return self.ring.zero()
        return Polynomial(self.ring, {m: v * c for m, v in self.terms.items()}, _clean=False)

    __rmul__ = __mul__

    def __pow__(self, n):
        if n < 0:
            raise AlgebraError("negative polynomial power")
        result = self.ring.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def __eq__(self, other):
        if isinstance(other, Polynomial):
            return self.ring == other.ring and self.terms == other.terms
        if isinstance(other, int):
            return self == self.ring.constant(other)
        return NotImplemented

    __hash__ = None

    # -- structure --------------------------------------------------------

    def leading_term(self, order):
        """The order-maximal (monomial, coefficient) pair; errors on zero."""
        if not self.terms:
            raise ZeroPolynomialError("leading term of the zero polynomial")
        m = max(self.terms, key=order.key)
        return m, self.terms[m]

    def leading_monomial(self, order):
        return self.leading_term(order)[0]

    def degree(self):
        """Total degree; -1 for the zero polynomial."""
        if not self.terms:
            return -1
        return max(self.ring.degree(m) for m in self.terms)

    def coefficient(self, m):
        return self.terms.get(tuple(m), self.ring.field.zero)

    def monic(self, order):
        _, c = self.leading_term(order)
        if c == self.ring.field.one:
            return self
        return self * (self.ring.field.one / c)

    def substitute(self, target_ring, images):
        """Evaluate under variable -> polynomial-in-target-ring assignments."""
        if len(images) != self.ring.nvars:
            raise AlgebraError("need one image per variable")
        result = target_ring.zero()
        for m, c in self.terms.items():
            term = target_ring.constant(c)
            for i, e in enumerate(m):
                if e:
                    term = term * images[i] ** e
            result = result + term
        return result

    # -- display ----------------------------------------------------------

    def _mono_str(self, m):
        parts = []
        for name, e in zip(self.ring.names, m):
            if e == 1:
                parts.append(name)
            elif e > 1:
                parts.append("%s^%d" % (name, e))
        return "*".join(parts)

    def __repr__(self):
        if not self.terms:
            return "0"
        order_key = lambda m: (-sum(m), m)
        chunks = []
        for m in sorted(self.terms, key=order_key):
            c = self.terms[m]
            ms = self._mono_str(m)
            cs = str(c)
            neg = cs.startswith("-")
            if neg:
                cs = cs[1:]
            if ms and cs == "1":
                body = ms
            elif ms:
                body = "%s*%s" % (cs, ms)
            else:
                body = cs
            if not chunks:
                chunks.append("-" + body if neg else body)
            else:
                chunks.append(("- " if neg else "+ ") + body)
        return " ".join(chunks)


# ---------------------------------------------------------------------------
# the scanner shared by parse_polynomial and session scripts

_TOKEN = re.compile(r"(?:\s|#.*)*(?:(?P<num>[0-9]+)|(?P<name>%s)"
                    r"|(?P<op>[-+*^()/,;=\[\]])|(?P<end>\Z)|(?P<bad>.))"
                    % _NAME)


class _Tokens:
    """The toolkit's one scanner: a text read as num, name and op tokens,
    then end; whitespace and '#' comments are skipped.  kind, value and
    offset describe the current token, and error() raises at it."""

    def __init__(self, text):
        self.text = text
        self._end = 0
        self.kind = self.value = None
        self.advance()

    def error(self, message):
        raise AlgebraError("%s at offset %d in %r"
                           % (message, self.offset, self.text))

    def advance(self):
        """Move to the next token; returns the (kind, value) moved past."""
        token = (self.kind, self.value)
        m = _TOKEN.match(self.text, self._end)
        self.kind = m.lastgroup
        self.value = m.group(self.kind)
        self.offset = m.start(self.kind)
        self._end = m.end()
        if self.kind == "bad":
            self.error("unexpected character %r" % self.value)
        return token

    def accept(self, op):
        """Move past the operator op when it is the current token."""
        if self.kind == "op" and self.value == op:
            self.advance()
            return True
        return False

    def expect(self, op):
        if not self.accept(op):
            self.error("expected %r" % op)

    def name(self):
        if self.kind != "name":
            self.error("expected a name")
        return self.advance()[1]

    def integer(self, message):
        if self.kind != "num":
            self.error(message)
        return int(self.advance()[1])

    def separated(self, read):
        """One or more items read by read(), separated by commas."""
        items = [read()]
        while self.accept(","):
            items.append(read())
        return items

    def polynomial(self, ring):
        """Read a sum of terms: '+', '-', '*' or juxtaposition, '^',
        parentheses, integers and a/b rationals."""
        if self.accept("-"):
            acc = -self._product(ring)
        else:
            self.accept("+")
            acc = self._product(ring)
        while self.kind == "op" and self.value in ("+", "-"):
            op = self.advance()[1]
            term = self._product(ring)
            acc = acc + term if op == "+" else acc - term
        return acc

    def _product(self, ring):
        acc = self._power(ring)
        while (self.accept("*") or self.kind in ("num", "name")
               or (self.kind, self.value) == ("op", "(")):
            acc = acc * self._power(ring)
        return acc

    def _power(self, ring):
        base = self._atom(ring)
        while self.accept("^"):
            base = base ** self.integer("exponent must be an integer")
        return base

    def _atom(self, ring):
        if self.kind == "num":
            c = int(self.advance()[1])
            if self.accept("/"):
                d = ring.field.coerce(self.integer("expected integer denominator"))
                if d == 0:
                    self.error("zero denominator")
                return ring.constant(ring.field.coerce(c) / d)
            return ring.constant(c)
        if self.kind == "name":
            if self.value not in ring.names:
                self.error("no variable %r in ring %r" % (self.value, ring))
            return ring.gen(ring.names.index(self.advance()[1]))
        if self.accept("("):
            inner = self.polynomial(ring)
            self.expect(")")
            return inner
        self.error("unexpected token %r" % self.value)


def parse_polynomial(ring, text):
    """Parse '+', '-', '*', '^', parentheses, integers and a/b rationals."""
    tokens = _Tokens(text)
    result = tokens.polynomial(ring)
    if tokens.kind != "end":
        tokens.error("trailing input")
    return result


def poly_text(g):
    """g as compact text that parse_polynomial reads back."""
    return repr(g).replace(" ", "")
