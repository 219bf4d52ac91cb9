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
"""

from talex.laurent import LaurentPoly
from talex.matrices import PolyRing, RingMatrix
from talex.representations import _eta_images, _pi0_images, search_assignment


def eta_rep(pres, p):
    """The 2n-dimensional integer rep eta (xi with omega -> C_n), found by
    the meridian search that every dihedral rep takes."""
    x, y = _eta_images(p)
    return search_assignment(pres, x, x.inverse() * y, p)


def pi0_rep(pres, p):
    """The 2n-dimensional irreducible integer rep pi0, conjugate to eta by
    U_n, found by the same meridian search."""
    x, y = _pi0_images(p)
    return search_assignment(pres, x, x.inverse() * y, p)


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
