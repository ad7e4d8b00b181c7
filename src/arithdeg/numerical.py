"""Integer-valued polynomials in binomial basis, difference calculus, and
multiplicity vectors.

A one-variable numerical polynomial is sum a_i * C(m, i); a two-variable
one is sum a_{i,j} * C(m, i) * C(n, j).  Binomials use the falling-factorial
extension, so negative arguments evaluate the polynomial correctly and all
basis changes stay over the integers.
"""

from math import factorial

from .errors import AlgebraError


def binom(n, k):
    """C(n, k) extended to arbitrary integer n (falling factorial over k!)."""
    if k < 0:
        return 0
    num = 1
    for i in range(k):
        num *= n - i
    return num // factorial(k)


def _shift_coeffs(t, i, limit):
    """Expansion C(m - t, i) = sum_l C(-t, i - l) * C(m, l) for l = 0..limit."""
    return {l: binom(-t, i - l) for l in range(min(i, limit) + 1)}


class NumericalPoly1:
    """One-variable numerical polynomial: coefficients w.r.t. C(m, i)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        coeffs = [int(c) for c in coeffs]
        while coeffs and coeffs[-1] == 0:
            coeffs.pop()
        self.coeffs = tuple(coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1

    def __call__(self, m):
        return sum(c * binom(m, i) for i, c in enumerate(self.coeffs))

    def coefficient(self, i):
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __repr__(self):
        if not self.coeffs:
            return "NumericalPoly1(0)"
        return "NumericalPoly1(%s)" % (list(self.coeffs),)


class NumericalPoly2:
    """Two-variable numerical polynomial: finite map (i, j) -> a_{i,j}."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = {k: int(v) for k, v in coeffs.items() if int(v) != 0}

    @property
    def total_degree(self):
        """Max i+j over the support; -1 for zero."""
        if not self.coeffs:
            return -1
        return max(i + j for i, j in self.coeffs)

    def coefficient(self, i, j):
        return self.coeffs.get((i, j), 0)

    def __eq__(self, other):
        return isinstance(other, NumericalPoly2) and self.coeffs == other.coeffs

    def difference(self, t, s):
        """Delta^(t,s): coefficients shift down and re-expand, using
        Delta^(t,s) P = sum a_{i,j} C(m-t, i-t) C(n-s, j-s)."""
        if t < 0 or s < 0:
            raise AlgebraError("difference orders must be non-negative")
        out = {}
        for (i, j), a in self.coeffs.items():
            if i < t or j < s:
                continue
            row = _shift_coeffs(t, i - t, i - t)
            col = _shift_coeffs(s, j - s, j - s)
            for l, wl in row.items():
                if not wl:
                    continue
                for r, wr in col.items():
                    w = wl * wr
                    if w:
                        out[(l, r)] = out.get((l, r), 0) + a * w
        return NumericalPoly2(out)

    def top_coefficients(self, q):
        """The vector (c_{0,q}, ..., c_{t,q-t}, ..., c_{q,0})."""
        return tuple(self.coefficient(t, q - t) for t in range(q + 1))

    def __repr__(self):
        if not self.coeffs:
            return "NumericalPoly2(0)"
        inner = ", ".join("(%d,%d): %d" % (i, j, a)
                          for (i, j), a in sorted(self.coeffs.items()))
        return "NumericalPoly2({%s})" % inner


class MultiplicityVector:
    """Level q plus the q+1 components (c_{0,q}, ..., c_{q,0})."""

    __slots__ = ("level", "components")

    def __init__(self, level, components):
        components = tuple(int(c) for c in components)
        if len(components) != level + 1:
            raise AlgebraError("level-%d vector needs %d components"
                               % (level, level + 1))
        self.level = level
        self.components = components

    @classmethod
    def zero(cls, level):
        return cls(level, (0,) * (level + 1))

    def total(self):
        return sum(self.components)

    def __add__(self, other):
        if self.level != other.level:
            raise AlgebraError("adding multiplicity vectors of different levels")
        return MultiplicityVector(
            self.level, tuple(a + b for a, b in zip(self.components, other.components)))

    def scale(self, k):
        return MultiplicityVector(self.level, tuple(k * c for c in self.components))

    def __eq__(self, other):
        return (isinstance(other, MultiplicityVector)
                and self.level == other.level
                and self.components == other.components)

    def __repr__(self):
        return "ee_%d(%s)" % (self.level, ", ".join(map(str, self.components)))

