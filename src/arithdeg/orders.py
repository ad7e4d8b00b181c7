"""Global term orders on exponent vectors.

Every order exposes ``key(m)``: a tuple that sorts monomials ascending, so
``max(monomials, key=order.key)`` is the leading monomial.  All orders here
are multiplicative and global (the constant monomial is minimal), which the
property suite checks on random triples.

Every key is a nested tuple of one shape whose entries are integer linear
forms in the exponents, so every order is a matrix order: the division loop
in ``groebner`` reads the weight rows off the keys of the unit vectors and
folds them into one int key with key(q*u) = key(q) + key(u).
"""

from operator import neg


class TermOrder:
    def key(self, m):
        raise NotImplementedError

    def signature(self):
        """Hashable identity used by Groebner-basis caches."""
        raise NotImplementedError

    def __eq__(self, other):
        return isinstance(other, TermOrder) and self.signature() == other.signature()

    def __hash__(self):
        return hash(self.signature())

    def __repr__(self):
        return str(self.signature())


class Lex(TermOrder):
    def key(self, m):
        return m

    def signature(self):
        return ("lex",)


class DegRevLex(TermOrder):
    def key(self, m):
        return (sum(m), tuple(map(neg, reversed(m))))

    def signature(self):
        return ("degrevlex",)


class BlockOrder(TermOrder):
    """Elimination order: the block variables dominate.

    Monomials compare first by the outer order on the block part, then by
    the inner order on the remaining variables.  A Groebner basis w.r.t.
    this order intersected with the block-free part generates the
    elimination ideal.
    """

    def __init__(self, block, nvars, outer=None, inner=None):
        self.block = tuple(sorted(set(block)))
        self.rest = tuple(i for i in range(nvars) if i not in set(block))
        self.nvars = nvars
        self.outer = outer if outer is not None else DegRevLex()
        self.inner = inner if inner is not None else DegRevLex()

    def key(self, m):
        mb = tuple(m[i] for i in self.block)
        mr = tuple(m[i] for i in self.rest)
        return (self.outer.key(mb), self.inner.key(mr))

    def signature(self):
        return ("block", self.block, self.nvars,
                self.outer.signature(), self.inner.signature())


# the orders a session option or the CLI may name
ORDERS = {"degrevlex": DegRevLex, "lex": Lex}


def order_from_name(name):
    """The term order a session option or the CLI names."""
    if name not in ORDERS:
        raise ValueError("unknown term order %r" % (name,))
    return ORDERS[name]()
