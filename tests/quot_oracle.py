"""The former Z[z]/(m) arithmetic of ``talex``: independent oracles for the
coordinate-wise product ``talex.laurent._quot_mul``, the product
``QuotientRing.mul`` and the integer ``QuotientRing.divider``.

None of them reads the ring's table of z**s mod m or its traces.
``reduce`` reduces an integer polynomial mod m by long division;
``rational_inverse`` inverts a residue over Q by the extended Euclidean
algorithm against m.  ``schoolbook_mul`` multiplies term by term, each
pair of residues as an integer polynomial product reduced by
``reduce``; ``kron_mul`` packs both operands bivariately, d coordinates
per 2d-1 digit slot, takes one bigint product and reduces each output
block by ``reduce``; ``fraction_divider`` multiplies by the rational
inverse and checks that every coordinate of the result is an integer.
The products take and return plain coefficient lists (residue tuples),
like ``_quot_mul``.
"""

from fractions import Fraction

from talex.laurent import _byte_width, _pack, _unpack
from talex.rings import NonExactDivision


def reduce(coeffs, ring):
    """An integer (or rational) polynomial, ascending coeffs, mod m."""
    work = list(coeffs)
    d = ring.degree
    m = ring.modulus
    for k in range(len(work) - 1, d - 1, -1):
        c = work[k]
        if c:
            work[k] = 0
            for j in range(d):
                work[k - d + j] -= c * m[j]
    work = work[:d] + [0] * (d - len(work))
    return tuple(work[:d])


def residue_mul(x, y, ring):
    prod = [0] * (len(x) + len(y) - 1)
    for i, a in enumerate(x):
        for j, b in enumerate(y):
            prod[i + j] += a * b
    return reduce(prod, ring)


def rational_inverse(a, ring):
    """Inverse of a in Q[z]/(m), as a tuple of Fractions; ZeroDivisionError
    when a is zero or shares a factor with a reducible modulus."""
    if not any(a):
        raise ZeroDivisionError("inverting zero residue")

    def trim(p):
        while p and not p[-1]:
            p.pop()
        return p

    r0 = trim([Fraction(c) for c in ring.modulus])
    r1 = trim([Fraction(c) for c in a])
    s0, s1 = [Fraction(0)], [Fraction(1)]
    while True:
        if not r1:
            raise ZeroDivisionError("residue not invertible in quotient ring")
        if len(r1) == 1:
            inv = 1 / r1[0]
            out = [c * inv for c in s1]
            out += [Fraction(0)] * (ring.degree - len(out))
            return tuple(out[: ring.degree])
        # divmod r0 by r1 over Q
        q = [Fraction(0)] * max(0, len(r0) - len(r1) + 1)
        rem = r0[:]
        for k in range(len(rem) - len(r1), -1, -1):
            c = rem[k + len(r1) - 1] / r1[-1]
            if c:
                q[k] = c
                for j, y in enumerate(r1):
                    rem[k + j] -= c * y
        # s_next = s0 - q*s1
        s_next = s0 + [Fraction(0)] * max(0, len(q) + len(s1) - 1 - len(s0))
        for i, qc in enumerate(q):
            for j, sc in enumerate(s1):
                s_next[i + j] -= qc * sc
        r0, r1 = r1, trim(rem)
        s0, s1 = s1, trim(s_next)


def schoolbook_mul(a, b, ring):
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not ring.is_zero(y):
                out[i + j] = ring.add(out[i + j], residue_mul(x, y, ring))
    return out


def kron_mul(a, b, ring):
    d = ring.degree
    slot = 2 * d - 1
    amax = max(max(abs(x) for x in c) if any(c) else 0 for c in a)
    bmax = max(max(abs(x) for x in c) if any(c) else 0 for c in b)
    bound = max(amax, 1) * max(bmax, 1) * min(len(a), len(b)) * d
    width = _byte_width(bound.bit_length() + 2)

    def pack(coeffs):
        digits = []
        pad = (0,) * (slot - d)
        for c in coeffs:
            digits.extend(c)
            digits.extend(pad)
        return _pack(digits, width)

    prod = pack(a) * pack(b)
    count = (len(a) + len(b) - 1) * slot
    digits = _unpack(prod, width, count)
    return [
        reduce(digits[k * slot : (k + 1) * slot], ring)
        for k in range(len(a) + len(b) - 1)
    ]


def fraction_divider(ring, b):
    """a -> a / b through the rational inverse of b, one Fraction per
    coordinate product; NonExactDivision unless the quotient is integral."""
    inv = rational_inverse(b, ring)

    def divide(a):
        out = []
        for c in residue_mul(a, inv, ring):
            if c.denominator != 1:
                raise NonExactDivision("quotient-ring division is not integral")
            out.append(int(c))
        return tuple(out)

    return divide
