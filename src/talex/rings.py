"""Exact coefficient rings.

Three coefficient rings are enough for everything in this library:

* ``ZZ`` -- arbitrary-precision integers (plain Python ints),
* ``QuotientRing(m)`` -- Z[z]/(m(z)) for a monic integer polynomial m,
  whose elements represent integer polynomials in an algebraic number
  (the root of m) reduced to degree < deg m,
* ``GFp(p)`` -- the prime field Z/p, used only by the explicit mod-p
  reduction steps, never inside the trusted exact pipeline.

A ring object bundles the element operations so that polynomials and
matrices can stay generic over their coefficients.  All elements are
immutable (ints and tuples), so everything here is safe to share
between threads.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm


class NonExactDivision(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder.

    ``remainder`` carries whatever partial evidence the division site
    had (a ring element, a polynomial, or None); it exists for
    diagnostics, e.g. telling a theory violation from a transcription
    bug.
    """

    def __init__(self, message, remainder=None):
        super().__init__(message)
        self.remainder = remainder


class RingMismatch(TypeError):
    """Operands live over different coefficient rings."""


class IntegerRing:
    """The ring of ordinary integers; elements are Python ints."""

    zero = 0
    one = 1

    @staticmethod
    def add(a, b):
        return a + b

    @staticmethod
    def sub(a, b):
        return a - b

    @staticmethod
    def mul(a, b):
        return a * b

    @staticmethod
    def neg(a):
        return -a

    @staticmethod
    def is_zero(a):
        return a == 0

    @staticmethod
    def from_int(n):
        return n

    @staticmethod
    def divider(b):
        """The map a -> a / b for one divisor b used many times; each call
        raises NonExactDivision unless b divides its argument."""
        if b == 0:
            raise ZeroDivisionError("division by zero")

        def divide(a):
            q, r = divmod(a, b)
            if r:
                raise NonExactDivision(f"{a} is not divisible by {b}", remainder=r)
            return q

        return divide

    @staticmethod
    def is_negative(a):
        return a < 0

    @staticmethod
    def size_hint(a):
        return abs(a).bit_length()

    def __repr__(self):
        return "ZZ"


ZZ = IntegerRing()


class QuotientRing:
    """Z[z]/(m(z)) for a monic m with integer coefficients.

    Elements are tuples of ``degree`` integers, the coefficients of the
    residue in ascending powers of z.  When m is irreducible (the
    Eisenstein-shaped minimal polynomials used throughout, and the
    cyclotomic ones) this is an integral domain and nonzero elements
    are invertible over Q, which is what ``divider`` relies on.
    """

    def __init__(self, modulus):
        modulus = tuple(int(c) for c in modulus)
        if len(modulus) < 2:
            raise ValueError("modulus must have degree >= 1")
        if modulus[-1] != 1:
            raise ValueError("modulus must be monic")
        self.modulus = modulus
        d = self.degree = len(modulus) - 1
        self.zero = (0,) * d
        self.one = self.from_int(1)
        # z**s mod m for s = 0 .. 2d-2, the exponents that a product of
        # two residues reaches: z**(s+1) is z**s shifted up, with z**d
        # replaced by -(m_0 + m_1 z + ... + m_{d-1} z**(d-1))
        powers = [tuple(int(r == s) for r in range(d)) for s in range(d)]
        for _ in range(d - 1):
            prev = powers[-1]
            top = prev[-1]
            powers.append(
                tuple((prev[r - 1] if r else 0) - top * modulus[r] for r in range(d))
            )
        self.z_powers = tuple(powers)
        # the largest sum of |z**s mod m| over s in one coordinate: folding
        # unreduced product coefficients of size at most c leaves reduced
        # ones of size at most c * fold_norm
        self.fold_norm = max(sum(abs(w[r]) for w in powers) for r in range(d))

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("QuotientRing", self.modulus))

    def __repr__(self):
        return f"Z[z]/({self.modulus})"

    def from_int(self, n):
        return (int(n),) + (0,) * (self.degree - 1)

    def from_coeffs(self, coeffs):
        """Reduce an integer polynomial (ascending coeffs) mod the modulus."""
        work = list(coeffs)
        d = self.degree
        m = self.modulus
        for k in range(len(work) - 1, d - 1, -1):
            c = work[k]
            if c:
                work[k] = 0
                for j in range(d):
                    work[k - d + j] -= c * m[j]
        work = work[:d] + [0] * (d - len(work))
        return tuple(work[:d])

    def gen(self):
        """The residue class of z."""
        if self.degree == 1:
            return (-self.modulus[0],)
        return self.from_coeffs([0, 1])

    def add(self, a, b):
        return tuple(x + y for x, y in zip(a, b))

    def sub(self, a, b):
        return tuple(x - y for x, y in zip(a, b))

    def neg(self, a):
        return tuple(-x for x in a)

    def mul(self, a, b):
        d = self.degree
        if d == 1:
            return (a[0] * b[0],)
        prod = [0] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        prod[i + j] += x * y
        return self.from_coeffs(prod)

    def pow(self, a, n):
        result = self.one
        base = a
        while n:
            if n & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            n >>= 1
        return result

    def is_zero(self, a):
        return not any(a)

    def is_negative(self, a):
        for x in a:
            if x:
                return x < 0
        return False

    def size_hint(self, a):
        return sum(abs(x).bit_length() for x in a)

    def inv_rational(self, a):
        """Inverse of a in Q[z]/(m), as a tuple of Fractions.

        Extended Euclid against the modulus; fails (raises
        ZeroDivisionError) when a is zero or shares a factor with a
        reducible modulus.
        """
        if self.is_zero(a):
            raise ZeroDivisionError("inverting zero residue")
        r0 = [Fraction(c) for c in self.modulus]
        r1 = [Fraction(c) for c in a]
        s0 = [Fraction(0)]
        s1 = [Fraction(1)]

        def trim(p):
            while p and not p[-1]:
                p.pop()
            return p

        r0, r1 = trim(r0), trim(r1)
        while True:
            if not r1:
                raise ZeroDivisionError("residue not invertible in quotient ring")
            if len(r1) == 1:
                inv = 1 / r1[0]
                out = [c * inv for c in s1]
                out += [Fraction(0)] * (self.degree - len(out))
                return tuple(out[: self.degree])
            # divmod r0 by r1 over Q
            q = [Fraction(0)] * (len(r0) - len(r1) + 1) if len(r0) >= len(r1) else []
            rem = r0[:]
            for k in range(len(rem) - len(r1), -1, -1):
                c = rem[k + len(r1) - 1] / r1[-1]
                if c:
                    q[k] = c
                    for j, y in enumerate(r1):
                        rem[k + j] -= c * y
            rem = trim(rem)
            # s_next = s0 - q*s1
            s_next = s0[:] + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
            for i, qc in enumerate(q):
                if qc:
                    for j, sc in enumerate(s1):
                        if i + j >= len(s_next):
                            s_next += [Fraction(0)] * (i + j - len(s_next) + 1)
                        s_next[i + j] -= qc * sc
            r0, r1 = r1, rem
            s0, s1 = s1, trim(s_next)

    def divider(self, b):
        """The map a -> a / b for one divisor b used many times.

        b is inverted over Q once, as an integer residue adj over a
        positive common denominator L (1/b = adj/L), so each call is one
        integer product a*adj and a divmod by L per coordinate; it raises
        NonExactDivision exactly when a/b is not integral."""
        inv = self.inv_rational(b)
        den = lcm(*(c.denominator for c in inv))
        adj = tuple(int(c * den) for c in inv)

        def divide(a):
            out = []
            for c in self.mul(a, adj):
                q, r = divmod(c, den)
                if r:
                    raise NonExactDivision(
                        "quotient-ring division is not integral", remainder=a
                    )
                out.append(q)
            return tuple(out)

        return divide


class GFp:
    """The prime field Z/p; elements are ints in range(p)."""

    def __init__(self, p):
        if p < 2:
            raise ValueError("p must be a prime >= 2")
        self.p = p
        self.zero = 0
        self.one = 1 % p

    def __eq__(self, other):
        return isinstance(other, GFp) and self.p == other.p

    def __hash__(self):
        return hash(("GFp", self.p))

    def __repr__(self):
        return f"GF({self.p})"

    def from_int(self, n):
        return n % self.p

    def add(self, a, b):
        return (a + b) % self.p

    def sub(self, a, b):
        return (a - b) % self.p

    def mul(self, a, b):
        return (a * b) % self.p

    def neg(self, a):
        return (-a) % self.p

    def is_zero(self, a):
        return a % self.p == 0

    def inv(self, a):
        if a % self.p == 0:
            raise ZeroDivisionError("inverting 0 mod p")
        return pow(a, self.p - 2, self.p)

    def divider(self, b):
        """The map a -> a / b for one divisor b used many times."""
        inv, p = self.inv(b), self.p
        return lambda a: (a * inv) % p

    @staticmethod
    def is_negative(a):
        return False

    @staticmethod
    def size_hint(a):
        return 1
