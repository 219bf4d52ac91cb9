"""The former Z[z]/(m) arithmetic of ``talex``: independent oracles for the
coordinate-wise product ``talex.laurent._quot_mul`` and the integer
``QuotientRing.divider``.

``schoolbook_mul`` multiplies term by term through ``QuotientRing.mul``
(each pair reduced by ``from_coeffs``); ``kron_mul`` packs both operands
bivariately, d coordinates per 2d-1 digit slot, takes one bigint
product and reduces each output block by ``from_coeffs``;
``fraction_divider`` multiplies by the rational inverse and checks that
every coordinate of the result is an integer.  All take and return
plain coefficient lists (residue tuples), like ``_quot_mul``.
"""

from fractions import Fraction

from talex.laurent import _byte_width, _pack, _unpack
from talex.rings import NonExactDivision


def schoolbook_mul(a, b, ring):
    out = [ring.zero] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if ring.is_zero(x):
            continue
        for j, y in enumerate(b):
            if not ring.is_zero(y):
                out[i + j] = ring.add(out[i + j], ring.mul(x, y))
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
        ring.from_coeffs(digits[k * slot : (k + 1) * slot])
        for k in range(len(a) + len(b) - 1)
    ]


def fraction_divider(ring, b):
    """a -> a / b through the rational inverse of b, one Fraction per
    coordinate product; NonExactDivision unless the quotient is integral."""
    inv = ring.inv_rational(b)
    d = ring.degree
    m = ring.modulus

    def divide(a):
        prod = [Fraction(0)] * (2 * d - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(inv):
                    if y:
                        prod[i + j] += x * y
        for k in range(len(prod) - 1, d - 1, -1):
            c = prod[k]
            if c:
                prod[k] = Fraction(0)
                for j in range(d):
                    prod[k - d + j] -= c * m[j]
        out = []
        for c in prod[:d]:
            if c.denominator != 1:
                raise NonExactDivision(
                    "quotient-ring division is not integral", remainder=a
                )
            out.append(int(c))
        return tuple(out)

    return divide
