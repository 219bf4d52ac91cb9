"""Digit-by-digit Kronecker packing: an independent oracle for the
byte-sliced ``talex.laurent._pack``/``_unpack``.

``pack`` shifts one bigint once per coefficient and ``unpack`` peels
one balanced digit at a time, so both are quadratic in the packed size
but work at any width, byte-aligned or not.
"""


def pack(coeffs, width):
    """sum of coeffs[i] * 2**(i*width)."""
    v = 0
    for c in reversed(coeffs):
        v = (v << width) + c
    return v


def unpack(value, width, count):
    """The ``count`` lowest digits of ``value`` in [-2**(width-1), 2**(width-1))."""
    mask = (1 << width) - 1
    half = 1 << (width - 1)
    out = []
    for _ in range(count):
        d = value & mask
        if d >= half:
            d -= 1 << width
        value = (value - d) >> width
        out.append(d)
    return out
