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


class NonExactDivision(ArithmeticError):
    """Raised when an exact division leaves a nonzero remainder."""


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
                raise NonExactDivision(f"{a} is not divisible by {b}")
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
    cyclotomic ones) this is an integral domain and every nonzero b has
    a nonzero norm N(b), which is what ``divider`` relies on.  All
    arithmetic stays in the integers and reads one table, z**s mod m.
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
        # Tr(z**i), the trace of multiplication by z**i: column j of its
        # matrix is z**(i+j) mod m
        self.traces = tuple(sum(powers[i + j][j] for j in range(d)) for i in range(d))

    def __eq__(self, other):
        return isinstance(other, QuotientRing) and self.modulus == other.modulus

    def __hash__(self):
        return hash(("QuotientRing", self.modulus))

    def __repr__(self):
        return f"Z[z]/({self.modulus})"

    def from_int(self, n):
        return (int(n),) + (0,) * (self.degree - 1)

    def gen(self):
        """The residue class of z."""
        if self.degree == 1:
            return (-self.modulus[0],)
        return self.z_powers[1]

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
        for s in range(d, 2 * d - 1):
            v = prod[s]
            if v:
                for r, w in enumerate(self.z_powers[s]):
                    if w:
                        prod[r] += w * v
        return tuple(prod[:d])

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

    def divider(self, b):
        """The map a -> a / b for one divisor b used many times.

        b is inverted once, as an integer residue adj over L = |N(b)|
        (1/b = adj/L), by Faddeev-LeVerrier in the algebra (Cohen, A
        Course in Computational Algebraic Number Theory, 2.2): e_1 = 1,
        then e_(k+1) = b e_k + c_(d-k) with c_(d-k) = -Tr(b e_k)/k, an
        exact division that yields the characteristic polynomial of
        multiplication by b, so b e_d = -c_0 = +-N(b).  Each call is then
        one integer product a*adj and a divmod by L per coordinate; it
        raises NonExactDivision exactly when a/b is not integral, and
        the setup raises ZeroDivisionError when b is zero or a zero
        divisor (N(b) = 0)."""
        if self.is_zero(b):
            raise ZeroDivisionError("inverting zero residue")
        traces = self.traces
        e = self.one
        for k in range(1, self.degree + 1):
            adj = e
            g = self.mul(b, e)
            c = -sum(x * tr for x, tr in zip(g, traces)) // k
            e = (g[0] + c,) + g[1:]
        if not c:
            raise ZeroDivisionError("residue not invertible in quotient ring")
        den = abs(c)
        if c > 0:
            adj = self.neg(adj)

        def divide(a):
            out = []
            for c in self.mul(a, adj):
                q, r = divmod(c, den)
                if r:
                    raise NonExactDivision("quotient-ring division is not integral")
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
