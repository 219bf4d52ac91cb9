"""Exact Laurent polynomials over a pluggable coefficient ring.

A ``LaurentPoly`` is a finitely supported map from integer exponents of
t to coefficients: ``coeffs[i]`` holds the coefficient of
``t**(min_deg + i)``, with the first and last stored coefficients
nonzero (the zero polynomial stores nothing and has min_deg 0).
Negative exponents are first-class.

Everything is exact; there is no floating point anywhere.  Large
integer-coefficient multiplications and exact divisions are routed
through Kronecker substitution (packing the coefficient vector into a
single Python bigint), which is what keeps the census-scale
computations within budget.  Z[omega]-coefficient products of every
size go coordinate-wise: each of the d integer coordinate vectors is
packed once, each pair of coordinates takes one bigint product, and
the unreduced slots fold mod the modulus while still packed, so no
ring product runs per coefficient.  GF(p) products pack the
nonnegative residues as arrays of machine words and reduce the product
mod p.

Packed digits are whole bytes wide and balanced (-2**(w-1) <= digit <
2**(w-1) at width w), so packing and unpacking are byte joins and
slices, linear in the packed size.  Both go through one bias constant
that holds 2**(w-1) in every digit: a pack joins the bytes of the
biased, nonnegative digits and subtracts the constant; an unpack adds
it, so that every digit of the sum is nonnegative, and slices
``to_bytes``.

The mod-p layer divides through one kernel on dense ascending
coefficient lists: ``_gf_divmod``, for a prime l and a Hensel modulus
p^k alike, serves ``gf_exact_div``, ``gf_xgcd``, the Hensel step and the
distinct- and equal-degree factorizations of ``intfactor``.
"""

from __future__ import annotations

from .rings import ZZ, GFp, NonExactDivision, QuotientRing, RingMismatch

import os
import sys
from array import array

_SCHOOLBOOK_CUTOFF = 24


class DegreeLimitExceeded(RuntimeError):
    """Raised when a polynomial outgrows the TALEX_MAX_DEGREE guard."""


class PreconditionError(ValueError):
    """An input outside the paper's hypotheses: a malformed fraction, p
    not an odd prime dividing alpha, q < 1 or gcd(q, p) > 1 for N(q,p),
    no K-metacyclic representation at (p, k), or a malformed
    TALEX_MAX_DEGREE.  The one way talex reports an invalid input."""


def _degree_cap():
    cap = os.environ.get("TALEX_MAX_DEGREE")
    if not cap:
        return None
    if not (cap.isascii() and cap.isdigit()):
        raise PreconditionError(f"TALEX_MAX_DEGREE={cap!r} is not a nonnegative integer")
    return int(cap)


def _check_span(span):
    """Raise DegreeLimitExceeded for a product of span ``span`` above the
    cap.  Only products, powers and the determinant's degree bound can
    outgrow their inputs, so only they read the cap."""
    cap = _degree_cap()
    if cap is not None and span > cap:
        raise DegreeLimitExceeded(
            f"polynomial span {span} exceeds TALEX_MAX_DEGREE={cap}"
        )


def _byte_width(bits):
    """A digit width of at least ``bits`` bits, rounded up to whole bytes."""
    return (bits + 7) & ~7


def _bias(width, count):
    """The integer whose ``count`` digits of ``width`` bits are all
    2**(width-1); ``width`` is a multiple of 8."""
    return int.from_bytes(
        (1 << (width - 1)).to_bytes(width >> 3, "little") * count, "little"
    )


def _pack(coeffs, width):
    """Pack balanced digits into one bigint, sum of c_i * 2**(i*width).

    ``width`` is a multiple of 8 and -2**(width-1) <= c_i < 2**(width-1).
    Each biased digit c_i + 2**(width-1) is nonnegative and fits its
    bytes, so the biased digits are one byte join; subtracting the bias
    constant leaves the packing.
    """
    size = width >> 3
    half = 1 << (width - 1)
    biased = b"".join([(c + half).to_bytes(size, "little") for c in coeffs])
    return int.from_bytes(biased, "little") - _bias(width, len(coeffs))


def _unpack(value, width, count):
    """The ``count`` lowest balanced digits of ``value``: the unique d_i
    with -2**(width-1) <= d_i < 2**(width-1) and
    value == sum of d_i * 2**(i*width) modulo 2**(count*width).

    This inverts _pack; a value that overflows ``count`` digits decodes
    to the same digits as a digit-by-digit division would (exact
    division relies on that).  ``width`` is a multiple of 8.  Adding the
    bias constant makes every digit nonnegative, so after masking to
    ``count`` digits they are plain byte slices of ``to_bytes``.
    """
    size = width >> 3
    half = 1 << (width - 1)
    total = size * count
    biased = (value + _bias(width, count)) & ((1 << (8 * total)) - 1)
    buf = biased.to_bytes(total, "little")
    return [
        int.from_bytes(buf[i : i + size], "little") - half
        for i in range(0, total, size)
    ]


def _kron_mul_int(a, b):
    amax = max(abs(c) for c in a)
    bmax = max(abs(c) for c in b)
    bound = amax * bmax * min(len(a), len(b))
    width = _byte_width(bound.bit_length() + 2)
    prod = _pack(a, width) * _pack(b, width)
    return _unpack(prod, width, len(a) + len(b) - 1)


def _kron_div_int(num, den):
    """Exact quotient of integer coefficient vectors, or None.

    Exactness of the polynomial division implies the packed integers
    divide exactly at every width, so a nonzero bigint remainder is a
    definitive "not divisible".  A zero remainder only proves the
    quotient after the decoded candidate passes re-multiplication
    (the decode is ambiguous when the width is too small for the true
    quotient coefficients, hence the doubling loop).
    """
    nq = len(num) - len(den) + 1
    if nq <= 0:
        return None
    width = _byte_width(
        max(max(abs(c) for c in num), max(abs(c) for c in den)).bit_length() + 8
    )
    cap = width + len(num) + 64
    while True:
        q, r = divmod(_pack(num, width), _pack(den, width))
        if r != 0:
            return None
        qc = _unpack(q, width, nq)
        while qc and qc[-1] == 0:
            qc.pop()
        if qc and _kron_mul_int(qc, den) == list(num):
            return qc
        if not qc and not any(num):
            return [0]
        width *= 2
        if width > max(1 << 22, 16 * cap):
            return None


def _word_code(bound):
    """The array type code of unsigned machine words that hold every
    integer in range(bound), or None above 64 bits."""
    return "I" if bound < 1 << 32 else "Q" if bound < 1 << 64 else None


def _pack_words(digits, code):
    """sum of d_i * 2**(i*w) for nonnegative digits that fit the words of
    array type ``code`` (w bits each): one array conversion."""
    words = array(code, digits)
    if sys.byteorder == "big":
        words.byteswap()
    return int.from_bytes(words.tobytes(), "little")


def _unpack_words(value, code, count):
    """The ``count`` lowest w-bit digits of a nonnegative value (inverse
    of _pack_words)."""
    words = array(code)
    words.frombytes(value.to_bytes(count * words.itemsize, "little"))
    if sys.byteorder == "big":
        words.byteswap()
    return words


def _kron_mul_gf(a, b, p):
    """The product of coefficient vectors with entries in range(p),
    reduced mod p.  The product's digits are nonnegative, so when they
    fit 32 or 64 bits the packing and unpacking are machine-word array
    conversions instead of per-digit byte joins."""
    code = _word_code((p - 1) ** 2 * min(len(a), len(b)) + 1)
    if code is None:
        return [c % p for c in _kron_mul_int(a, b)]
    prod = _pack_words(a, code) * _pack_words(b, code)
    return [c % p for c in _unpack_words(prod, code, len(a) + len(b) - 1)]


def _quot_mul(a, b, ring):
    """The product of coefficient vectors over ring = Z[z]/(m), coordinate
    by coordinate: each of the d integer coordinate vectors of a and b
    is packed once, each pair of coordinates (i, j) takes one bigint
    product into the unreduced slot i + j, and slots d .. 2d-2 fold into
    slots 0 .. d-1 through the table z**s mod m while still packed.  The
    width bounds the reduced coefficients, so one unpack per coordinate
    finishes the product."""
    d = ring.degree
    cols_a = list(zip(*a))
    cols_b = list(zip(*b))
    amax = max(max(max(c), -min(c)) for c in cols_a)
    bmax = max(max(max(c), -min(c)) for c in cols_b)
    bound = amax * bmax * min(len(a), len(b)) * d * ring.fold_norm
    width = _byte_width(bound.bit_length() + 2)
    packed_b = [_pack(c, width) if any(c) else 0 for c in cols_b]
    slots = [0] * (2 * d - 1)
    for i, c in enumerate(cols_a):
        if any(c):
            x = _pack(c, width)
            for j, y in enumerate(packed_b):
                if y:
                    slots[i + j] += x * y
    powers = ring.z_powers
    for s in range(d, 2 * d - 1):
        v = slots[s]
        if v:
            for r, w in enumerate(powers[s]):
                if w:
                    slots[r] += w * v
    count = len(a) + len(b) - 1
    return list(
        zip(*[_unpack(v, width, count) if v else [0] * count for v in slots[:d]])
    )


class LaurentPoly:
    """A Laurent polynomial in t over ``ring``."""

    __slots__ = ("ring", "min_deg", "coeffs")

    def __init__(self, ring, min_deg, coeffs, *, _trusted=False):
        if _trusted:
            self.ring = ring
            self.min_deg = min_deg
            self.coeffs = tuple(coeffs)
            return
        coeffs = list(coeffs)
        lo = 0
        hi = len(coeffs)
        while hi > lo and ring.is_zero(coeffs[hi - 1]):
            hi -= 1
        while lo < hi and ring.is_zero(coeffs[lo]):
            lo += 1
        if lo == hi:
            self.ring = ring
            self.min_deg = 0
            self.coeffs = ()
            return
        self.ring = ring
        self.min_deg = min_deg + lo
        self.coeffs = tuple(coeffs[lo:hi])

    # -- constructors ------------------------------------------------

    @classmethod
    def zero(cls, ring=ZZ):
        return cls(ring, 0, (), _trusted=True)

    @classmethod
    def const(cls, value, ring=ZZ):
        return cls(ring, 0, [ring.from_int(value) if isinstance(value, int) else value])

    @classmethod
    def one(cls, ring=ZZ):
        return cls.const(1, ring)

    @classmethod
    def t_power(cls, k, ring=ZZ):
        return cls(ring, k, [ring.one], _trusted=True)

    @classmethod
    def from_int_coeffs(cls, coeffs, min_deg=0):
        return cls(ZZ, min_deg, [ZZ.from_int(c) for c in coeffs])

    @classmethod
    def from_dict(cls, d, ring=ZZ):
        if not d:
            return cls.zero(ring)
        lo = min(d)
        hi = max(d)
        coeffs = [d.get(k, ring.zero) for k in range(lo, hi + 1)]
        return cls(ring, lo, coeffs)

    # -- basic queries -----------------------------------------------

    @property
    def is_zero(self):
        return not self.coeffs

    @property
    def degree(self):
        """Largest exponent with a nonzero coefficient (0 for the zero poly)."""
        if not self.coeffs:
            return 0
        return self.min_deg + len(self.coeffs) - 1

    def coeff(self, k):
        i = k - self.min_deg
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return self.ring.zero

    def support(self):
        return [
            self.min_deg + i
            for i, c in enumerate(self.coeffs)
            if not self.ring.is_zero(c)
        ]

    def __eq__(self, other):
        return (
            isinstance(other, LaurentPoly)
            and self.ring == other.ring
            and self.min_deg == other.min_deg
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.min_deg, self.coeffs))

    def _check_ring(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    # -- arithmetic --------------------------------------------------

    def __add__(self, other):
        self._check_ring(other)
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        ring = self.ring
        lo = min(self.min_deg, other.min_deg)
        hi = max(self.degree, other.degree)
        out = [ring.zero] * (hi - lo + 1)
        for i, c in enumerate(self.coeffs):
            out[self.min_deg - lo + i] = c
        for i, c in enumerate(other.coeffs):
            j = other.min_deg - lo + i
            out[j] = ring.add(out[j], c)
        return LaurentPoly(ring, lo, out)

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        ring = self.ring
        return LaurentPoly(
            ring, self.min_deg, tuple(ring.neg(c) for c in self.coeffs), _trusted=True
        )

    def __mul__(self, other):
        self._check_ring(other)
        ring = self.ring
        if self.is_zero or other.is_zero:
            return LaurentPoly.zero(ring)
        a, b = self.coeffs, other.coeffs
        _check_span(len(a) + len(b) - 2)
        lo = self.min_deg + other.min_deg
        if ring is ZZ and len(a) + len(b) > _SCHOOLBOOK_CUTOFF:
            return LaurentPoly(ZZ, lo, _kron_mul_int(a, b))
        if isinstance(ring, QuotientRing):
            return LaurentPoly(ring, lo, _quot_mul(a, b, ring))
        if isinstance(ring, GFp) and len(a) + len(b) > _SCHOOLBOOK_CUTOFF:
            return LaurentPoly(ring, lo, _kron_mul_gf(a, b, ring.p))
        out = [ring.zero] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if ring.is_zero(x):
                continue
            for j, y in enumerate(b):
                if not ring.is_zero(y):
                    out[i + j] = ring.add(out[i + j], ring.mul(x, y))
        return LaurentPoly(ring, lo, out)

    def scale(self, c):
        ring = self.ring
        if ring.is_zero(c):
            return LaurentPoly.zero(ring)
        return LaurentPoly(
            ring, self.min_deg, [ring.mul(c, x) for x in self.coeffs]
        )

    def shift(self, k):
        """Multiply by t**k."""
        if self.is_zero:
            return self
        return LaurentPoly(self.ring, self.min_deg + k, self.coeffs, _trusted=True)

    def __pow__(self, n):
        if n < 0:
            raise ValueError("negative power of a polynomial")
        _check_span(n * max(len(self.coeffs) - 1, 0))
        result = LaurentPoly.one(self.ring)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    def negate_t(self):
        """The substitution t -> -t (degree-k coefficient times (-1)**k)."""
        ring = self.ring
        out = []
        for i, c in enumerate(self.coeffs):
            if (self.min_deg + i) % 2:
                out.append(ring.neg(c))
            else:
                out.append(c)
        return LaurentPoly(ring, self.min_deg, out, _trusted=True)

    def eval_int(self, x):
        """Evaluate at an integer (ZZ coefficients, nonnegative min_deg)."""
        if self.ring is not ZZ:
            raise RingMismatch("eval_int needs integer coefficients")
        if self.is_zero:
            return 0
        if self.min_deg < 0:
            raise ValueError("eval_int needs a genuine polynomial")
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc * x ** self.min_deg

    # -- division ----------------------------------------------------

    def divmod_poly(self, den):
        """Polynomial division by ``den`` whose leading coefficient is a unit.

        Works over any coefficient ring by dividing exactly by the
        leading coefficient (inverted once, through ring.divider);
        raises NonExactDivision if a leading division fails (caller
        falls back or reports).
        Returns (quotient, remainder) with deg(remainder) < deg(den).
        """
        self._check_ring(den)
        ring = self.ring
        if den.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        if self.is_zero:
            return LaurentPoly.zero(ring), LaurentPoly.zero(ring)
        shift = self.min_deg - den.min_deg
        rem = list(self.coeffs)
        dc = den.coeffs
        lead = dc[-1]
        nq = len(rem) - len(dc) + 1
        if nq <= 0:
            return LaurentPoly.zero(ring), self
        q = [ring.zero] * nq
        divide = ring.divider(lead)
        for k in range(nq - 1, -1, -1):
            c = rem[k + len(dc) - 1]
            if ring.is_zero(c):
                continue
            qc = divide(c)
            q[k] = qc
            for j, y in enumerate(dc):
                if not ring.is_zero(y):
                    rem[k + j] = ring.sub(rem[k + j], ring.mul(qc, y))
        quot = LaurentPoly(ring, shift, q)
        remainder = LaurentPoly(ring, self.min_deg, rem[: len(dc) - 1])
        return quot, remainder

    def exact_div(self, den):
        """The exact quotient self/den; NonExactDivision otherwise."""
        self._check_ring(den)
        ring = self.ring
        if den.is_zero:
            raise ZeroDivisionError("exact_div by zero polynomial")
        if self.is_zero:
            return LaurentPoly.zero(ring)
        shift = self.min_deg - den.min_deg
        if ring is ZZ and len(self.coeffs) + len(den.coeffs) > _SCHOOLBOOK_CUTOFF:
            qc = _kron_div_int(list(self.coeffs), list(den.coeffs))
            if qc is not None:
                return LaurentPoly(ZZ, shift, qc)
            raise NonExactDivision("inexact polynomial division")
        try:
            quot, rem = self.divmod_poly(den)
        except NonExactDivision:
            # a leading-coefficient division failed: the quotient is not
            # integral, so the division cannot be exact over this ring
            raise NonExactDivision("inexact polynomial division")
        if not rem.is_zero:
            raise NonExactDivision("inexact polynomial division")
        return quot

    # -- normalization ----------------------------------------------

    def canonical(self):
        """Normalize modulo units +-t**k.

        Shift min_deg to 0, then flip the global sign so the lowest
        nonzero coefficient is positive (for quotient-ring
        coefficients: its first nonzero integer coordinate).
        """
        if self.is_zero:
            return LaurentPoly.zero(self.ring)
        p = LaurentPoly(self.ring, 0, self.coeffs, _trusted=True)
        if self.ring.is_negative(p.coeffs[0]):
            return -p
        return p

    # -- presentation ------------------------------------------------

    def __str__(self):
        if self.is_zero:
            return "0"
        parts = []
        for i, c in enumerate(self.coeffs):
            if self.ring.is_zero(c):
                continue
            k = self.min_deg + i
            if self.ring is ZZ:
                body = f"{abs(c)}" if k == 0 else (
                    f"{abs(c)}*t" if k == 1 else f"{abs(c)}*t^{k}"
                )
                sign = "-" if c < 0 else "+"
            else:
                body = f"({c})" if k == 0 else (
                    f"({c})*t" if k == 1 else f"({c})*t^{k}"
                )
                sign = "+"
            if not parts:
                parts.append(body if sign == "+" else f"-{body}")
            else:
                parts.append(f"{sign} {body}")
        return " ".join(parts)

    def __repr__(self):
        return f"LaurentPoly({self})"

    # -- JSON wire format ---------------------------------------------

    def to_json(self):
        """{"min_deg": int, "coeffs": [decimal strings]} (integer coefficients)."""
        if self.ring is not ZZ:
            raise RingMismatch("JSON encoding is defined for integer coefficients")
        return {"min_deg": self.min_deg, "coeffs": [str(c) for c in self.coeffs]}

    # -- mod-p views ---------------------------------------------------

    def reduce_mod(self, p):
        """Image in (Z/p)[t^{+-1}] as a LaurentPoly over GFp(p)."""
        if self.ring is not ZZ:
            raise RingMismatch("mod-p reduction starts from integer coefficients")
        gf = GFp(p)
        return LaurentPoly(gf, self.min_deg, [c % p for c in self.coeffs])


# ---------------------------------------------------------------------------
# the dense kernel over Z/m: ascending coefficient lists, no trailing zeros
# ---------------------------------------------------------------------------


def _dense(poly):
    """The ascending coefficient list of a polynomial (min_deg >= 0)."""
    return [0] * poly.min_deg + list(poly.coeffs)


def _trim(a):
    while a and a[-1] == 0:
        a.pop()
    return a


def _gf_mul(a, b, ell):
    if not a or not b:
        return []
    return _trim(_kron_mul_gf(a, b, ell))


def _gf_monic(a, ell):
    inv = pow(a[-1], -1, ell)
    return [c * inv % ell for c in a]


def _gf_divmod(a, b, m):
    """(q, r) with a = q*b + r mod m and deg r < deg b, for a nonzero b
    whose leading coefficient is a unit mod m: schoolbook division (von
    zur Gathen & Gerhard, Modern Computer Algebra, Alg. 2.5) over Z/m,
    for a prime l or a Hensel modulus p^k alike.

    a may hold any integers; q and r come reduced into range(m) and
    trimmed.  Only each quotient digit and the remainder are reduced:
    the updates in between stay unreduced, which at a several-hundred-bit
    m saves one bigint remainder per update."""
    db = len(b) - 1
    inv = pow(b[-1], -1, m)
    r = list(a)
    q = [0] * max(0, len(r) - db)
    for k in range(len(q) - 1, -1, -1):
        c = r[k + db] * inv % m
        if c:
            q[k] = c
            for j, y in enumerate(b, k):
                r[j] -= c * y
    return _trim(q), _trim([x % m for x in r[:db]])


def modp_unit_equal(a, b, p):
    """Equality in (Z/p)[t^{+-1}] up to units c*t^k, c nonzero mod p."""
    fa = a.reduce_mod(p) if a.ring is ZZ else a
    fb = b.reduce_mod(p) if b.ring is ZZ else b
    if fa.is_zero or fb.is_zero:
        return fa.is_zero and fb.is_zero
    gf = fa.ring
    if len(fa.coeffs) != len(fb.coeffs):
        return False
    scale = gf.mul(fb.coeffs[0], gf.inv(fa.coeffs[0]))
    return all(
        gf.mul(scale, x) == y for x, y in zip(fa.coeffs, fb.coeffs)
    )


def gf_exact_div(num, den):
    """Exact division in (Z/p)[t]; NonExactDivision on failure."""
    num._check_ring(den)
    if den.is_zero:
        raise ZeroDivisionError("polynomial division by zero")
    gf = num.ring
    q, r = _gf_divmod(num.coeffs, den.coeffs, gf.p)
    if r:
        raise NonExactDivision("inexact division mod p")
    return LaurentPoly(gf, num.min_deg - den.min_deg, q)


def gf_xgcd(a, b):
    """(s, t) with s*a + t*b = 1 in (Z/p)[t], deg s < deg b and
    deg t < deg a; ValueError when a and b are not coprime.

    a and b are read as ordinary polynomials (nonnegative exponents),
    so a power of t is a common factor like any other."""
    gf = a.ring
    if gf != b.ring or not isinstance(gf, GFp):
        raise RingMismatch("gf_xgcd needs two polynomials over one GF(p)")
    if a.min_deg < 0 or b.min_deg < 0:
        raise ValueError("gf_xgcd needs polynomials, not Laurent polynomials")
    p = gf.p

    def sub_mul(x, q, y):
        # x - q*y over GF(p)
        out = x + [0] * (len(q) + len(y) - 1 - len(x))
        for i, c in enumerate(q):
            if c:
                for j, d in enumerate(y, i):
                    out[j] = (out[j] - c * d) % p
        return _trim(out)

    r0, r1 = _dense(a), _dense(b)
    s0, s1 = [1], []
    t0, t1 = [], [1]
    while r1:
        q, r = _gf_divmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, sub_mul(s0, q, s1)
        t0, t1 = t1, sub_mul(t0, q, t1)
    if len(r0) != 1:
        raise ValueError("gf_xgcd: the polynomials are not coprime")
    inv = pow(r0[0], -1, p)
    return (
        LaurentPoly(gf, 0, [c * inv % p for c in s0]),
        LaurentPoly(gf, 0, [c * inv % p for c in t0]),
    )


def cyclotomic_poly(m):
    """The m-th cyclotomic polynomial over the integers.

    z**m - 1 divided by the cyclotomic polynomials of the proper
    divisors of m; the divisions are exact by construction.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    num = LaurentPoly.from_int_coeffs([-1] + [0] * (m - 1) + [1])
    for d in range(1, m):
        if m % d == 0:
            num = num.exact_div(cyclotomic_poly(d))
    return num
