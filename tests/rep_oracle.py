"""Per-coefficient evaluation of an ImageSum: an oracle for
``talex.words.rep_evaluate``.

Every coefficient c of every poly_g is lifted into the coefficient ring
with ``from_int``, multiplied by each entry of M(g) with the ring's
``mul`` (which reduces mod m(z) over Z[z]/(m)) and added with its
``add``.  The fast path adds integer multiples of integer vectors per
coordinate and never calls the ring, so agreement certifies that an
integer times a residue needs no reduction and that the coordinate
bookkeeping is right.

``eta_rep`` and ``pi0_rep`` build the integer reps eta and pi0, whose
images the library keeps only as the two sides of the U_n conjugacy;
the tests walk words through them as two more integer representations.
The Wada invariant of pi0 is the dihedral total D(t) computed without
Z[omega] or the gamma substitution, so it is the oracle of that route.
At p = 3, where pi0 is 2x2 over the integers, it is also the faster of
the two.

``exhaustive_exponents`` is the oracle of the library's meridian solve:
it tries the exponent tuples one at a time in lexicographic order and
multiplies the generator images along each relator, reading no image
table.
"""

from itertools import product

from talex.laurent import LaurentPoly
from talex.matrices import PolyRing, RingMatrix
from talex.representations import _eta_images, _pi0_images, search_assignment


def eta_rep(pres, p):
    """The 2n-dimensional integer rep eta (xi with omega -> C_n), found by
    the meridian solve that every dihedral rep takes."""
    x, y = _eta_images(p)
    return search_assignment(pres, x, x.inverse() * y, p)


def pi0_rep(pres, p):
    """The 2n-dimensional irreducible integer rep pi0, conjugate to eta by
    U_n, found by the same meridian solve."""
    x, y = _pi0_images(p)
    return search_assignment(pres, x, x.inverse() * y, p)


def exhaustive_exponents(pres, s_img, a_img, a_order):
    """The first exponents (0, e_1, ..., e_{k-1}), not all equal, in
    lexicographic order under which every relator of ``pres`` maps to the
    identity when generator i maps to s_img * a_img^e_i; None when no
    tuple does.  Up to a_order^(k-1) tuples, each relator's image taken
    as a running matrix product."""
    identity = RingMatrix.identity(a_img.ring, a_img.rows)
    images = [s_img]
    for _ in range(1, a_order):
        images.append(images[-1] * a_img)
    inverses = [m.inverse() for m in images]

    def image(rel, exponents):
        mat = identity
        for c in rel.codes:
            mat = mat * (images[exponents[c - 1]] if c > 0 else inverses[exponents[-c - 1]])
        return mat

    for tail in product(range(a_order), repeat=pres.num_gens - 1):
        exponents = (0,) + tail
        if len(set(exponents)) > 1 and all(
            image(rel, exponents) == identity for rel in pres.relators
        ):
            return exponents
    return None


def evaluate(s):
    """Sum of M(g) * poly_g(t) over the terms of ``s``, one ring
    operation per coefficient and matrix entry."""
    rep = s.rep
    ring = rep.coeff_ring
    n = rep.dim
    poly_ring = PolyRing(ring)
    if not s.terms:
        return RingMatrix.zeros(poly_ring, n)
    lo = min(poly.min_deg for poly in s.terms.values())
    hi = max(poly.degree for poly in s.terms.values())
    zero = ring.zero
    add, mul, from_int = ring.add, ring.mul, ring.from_int
    cells = [[None] * n for _ in range(n)]
    for g, poly in s.terms.items():
        mat = rep.element(g)
        base = poly.min_deg - lo
        for i, row in enumerate(mat.entries):
            for j, v in enumerate(row):
                if ring.is_zero(v):
                    continue
                cell = cells[i][j]
                if cell is None:
                    cell = cells[i][j] = [zero] * (hi - lo + 1)
                for k, c in enumerate(poly.coeffs, base):
                    cell[k] = add(cell[k], mul(from_int(c), v))
    out = [
        [
            LaurentPoly(ring, lo, cell) if cell is not None else LaurentPoly.zero(ring)
            for cell in row
        ]
        for row in cells
    ]
    return RingMatrix(poly_ring, out)
