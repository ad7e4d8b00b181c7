"""Coefficient fields: exact rationals and prime fields Z/p.

Rational coefficients are plain ``fractions.Fraction`` values (always in
lowest terms with positive denominator).  Prime-field elements are thin
wrappers storing a representative in [0, p).  Both support the operator
set the polynomial layer relies on: +, -, *, /, unary -, ==, bool, hash.
The Groebner division loop works on Python ints for both kinds and builds
its results by calling the field on a numerator and a denominator.
"""

from fractions import Fraction

from .errors import RingMismatchError


class RationalField:
    """The field Q; calling it builds a Fraction."""

    characteristic = 0

    def __call__(self, num, den=1):
        return Fraction(num, den)

    @property
    def zero(self):
        return Fraction(0)

    @property
    def one(self):
        return Fraction(1)

    def coerce(self, value):
        if isinstance(value, Fraction):
            return value
        if isinstance(value, int):
            return Fraction(value)
        raise TypeError("cannot coerce %r into Q" % (value,))

    def __repr__(self):
        return "Q"

    def __eq__(self, other):
        return isinstance(other, RationalField)

    def __hash__(self):
        return hash("RationalField")


QQ = RationalField()


# Miller-Rabin with the primes up to 41 as bases decides primality exactly
# below this bound (Sorenson and Webster, Strong pseudoprimes to twelve
# prime bases, Math. Comp. 86 (2017))
PRIME_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
PRIME_BOUND = 3317044064679887385961981


def _is_prime(n):
    """Primality of 0 <= n < PRIME_BOUND by deterministic Miller-Rabin."""
    if n < 2:
        return False
    for p in PRIME_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in PRIME_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


class PrimeFieldElement:
    __slots__ = ("value", "field")

    def __init__(self, value, field):
        self.value = value % field.p
        self.field = field

    def _match(self, other):
        if isinstance(other, PrimeFieldElement):
            if other.field.p != self.field.p:
                raise RingMismatchError("elements of Z/%d and Z/%d mixed"
                                        % (self.field.p, other.field.p))
            return other.value
        if isinstance(other, int):
            return other % self.field.p
        return NotImplemented

    def __add__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value + v, self.field)

    __radd__ = __add__

    def __sub__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value - v, self.field)

    def __rsub__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(v - self.value, self.field)

    def __mul__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * v, self.field)

    __rmul__ = __mul__

    def __truediv__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(self.value * pow(v, -1, self.field.p), self.field)

    def __rtruediv__(self, other):
        v = self._match(other)
        if v is NotImplemented:
            return NotImplemented
        return PrimeFieldElement(v * pow(self.value, -1, self.field.p), self.field)

    def __neg__(self):
        return PrimeFieldElement(-self.value, self.field)

    def __eq__(self, other):
        if isinstance(other, PrimeFieldElement):
            return self.field.p == other.field.p and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.field.p
        return NotImplemented

    def __bool__(self):
        return self.value != 0

    def __hash__(self):
        return hash((self.value, self.field.p))

    def __str__(self):
        return str(self.value)

    def __repr__(self):
        return "%d#%d" % (self.value, self.field.p)


class PrimeField:
    """The prime field Z/p for an odd prime p."""

    def __init__(self, p):
        if p >= PRIME_BOUND:
            raise ValueError("prime field needs p below %d, got %d"
                             % (PRIME_BOUND, p))
        if not _is_prime(p) or p == 2:
            raise ValueError("prime field needs an odd prime, got %r" % (p,))
        self.p = p
        self.characteristic = p

    def __call__(self, num, den=1):
        return PrimeFieldElement(num * pow(den, -1, self.p), self)

    @property
    def zero(self):
        return PrimeFieldElement(0, self)

    @property
    def one(self):
        return PrimeFieldElement(1, self)

    def coerce(self, value):
        if isinstance(value, PrimeFieldElement):
            if value.field.p != self.p:
                raise RingMismatchError("element of Z/%d used in Z/%d"
                                        % (value.field.p, self.p))
            return value
        if isinstance(value, int):
            return PrimeFieldElement(value, self)
        if isinstance(value, Fraction):
            return PrimeFieldElement(value.numerator, self) / PrimeFieldElement(value.denominator, self)
        raise TypeError("cannot coerce %r into Z/%d" % (value, self.p))

    def __repr__(self):
        return "Zp(%d)" % self.p

    def __eq__(self, other):
        return isinstance(other, PrimeField) and other.p == self.p

    def __hash__(self):
        return hash(("PrimeField", self.p))


def GF(p):
    """The prime field Z/p; sessions name it ``Zp(p)``.  It serves as a
    cross-field check of results over Q (``Zp(32003)``), not as a faster
    substitute for Q."""
    return PrimeField(p)
