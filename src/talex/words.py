"""Free-group words and Fox free differential calculus.

Words are stored freely reduced at all times as tuples of nonzero
signed letter codes: ``+k`` is the k-th generator (1-based), ``-k`` its
inverse.  Generator names live on the enclosing presentation; the text
syntax maps ``x y z`` to codes 1 2 3 and uppercase to inverses, so
``xyxYXY`` is the trefoil relator.

Every twisted polynomial only needs a Fox derivative after it is pushed
forward along a representation rho: G -> GL(n), that is, as an element
of Z[G][t^+-1] with G the (finite) image group.  ``fox_derivative(r, j,
rep)`` computes exactly that in a single walk over letters of r,
keeping a running t-exponent and the id of the current prefix's image
in the multiplication table of the image group (shared by every rep
with the same generator images, and read inline: a matrix product is
taken only on a table miss), and accumulating one integer Laurent
polynomial per element: O(L) time and memory for a relator of length
L, where materializing the L prefix words costs O(L^2) of both.  A
relator u a u^-1 c (a and c letters), the form of every Wirtinger
relator here, is walked along u only: once the table shows that r maps
to 1, the derivative of the u^-1 half is the left translate of that of
u by the image of c^-1, read off the table without a matrix product.
``rep_evaluate`` then applies each distinct image once, adding integer
multiples of the integer Laurent polynomials coordinate by coordinate,
so no coefficient-ring product is taken; the augmentation (the sum
over G) is the abelianized psi-image that gives the Alexander
polynomial.
"""

from __future__ import annotations

from operator import neg

from .laurent import LaurentPoly
from .matrices import PolyRing, RingMatrix
from .rings import ZZ, QuotientRing

ALPHABET = ("x", "y", "z", "u", "v", "w")


def _reduce(codes):
    out = []
    for c in codes:
        if c == 0:
            raise ValueError("letter code 0 is not a generator")
        if out and out[-1] == -c:
            out.pop()
        else:
            out.append(c)
    return tuple(out)


class FreeWord:
    """A freely reduced word in the free group on named generators."""

    __slots__ = ("codes",)

    def __init__(self, codes=()):
        self.codes = _reduce(codes)

    @classmethod
    def _trusted(cls, codes):
        w = object.__new__(cls)
        w.codes = codes
        return w

    @classmethod
    def from_text(cls, text):
        """Parse juxtaposed letters; uppercase means inverse."""
        index = {name: i + 1 for i, name in enumerate(ALPHABET)}
        codes = []
        for ch in text:
            if ch.isspace():
                continue
            low = ch.lower()
            if low not in index:
                raise ValueError(f"unknown generator letter {ch!r}")
            codes.append(index[low] if ch == low else -index[low])
        return cls(codes)

    @classmethod
    def generator(cls, i):
        return cls._trusted((i + 1,))

    def to_text(self):
        out = []
        for c in self.codes:
            name = ALPHABET[abs(c) - 1]
            out.append(name if c > 0 else name.upper())
        return "".join(out)

    def __len__(self):
        return len(self.codes)

    def __eq__(self, other):
        return isinstance(other, FreeWord) and self.codes == other.codes

    def __hash__(self):
        return hash(self.codes)

    def __repr__(self):
        return f"FreeWord({self.to_text()!r})"

    def __mul__(self, other):
        a, b = self.codes, other.codes
        i = len(a)
        j = 0
        while i > 0 and j < len(b) and a[i - 1] == -b[j]:
            i -= 1
            j += 1
        return FreeWord._trusted(a[:i] + b[j:])

    def inverse(self):
        return FreeWord._trusted(tuple(-c for c in reversed(self.codes)))

    def exponent_sum(self):
        """Total exponent over all letters (the abelianization degree)."""
        return sum(1 if c > 0 else -1 for c in self.codes)


class ImageSum:
    """An element of Z[G][t^+-1], G the image group of a MatrixRep:
    ``terms`` maps element ids of the rep's table to nonzero integer
    Laurent polynomials."""

    __slots__ = ("rep", "terms")

    def __init__(self, rep, terms):
        self.rep = rep
        self.terms = {g: poly for g, poly in terms.items() if not poly.is_zero}

    @classmethod
    def of_word(cls, word, rep):
        """t^(exponent sum) times the image of ``word``."""
        rep.require_letters(word.codes)
        return cls(
            rep, {rep.walk(word.codes): LaurentPoly.t_power(word.exponent_sum())}
        )

    def augmentation(self):
        """The sum of the coefficients over G: the psi-image, an integer
        Laurent polynomial."""
        acc = LaurentPoly.zero()
        for poly in self.terms.values():
            acc = acc + poly
        return acc


def _conjugator_length(codes):
    """len(u) when ``codes`` spells u a u^-1 c with a and c single
    letters, else None; the comparison runs on C-level slices."""
    m, odd = divmod(len(codes) - 2, 2)
    if m < 0 or odd or tuple(map(neg, codes[2 * m : m : -1])) != codes[:m]:
        return None
    return m


def _walk(letters, target, table, cells, g, e):
    """Accumulate the Fox-derivative terms of ``letters`` read from the
    prefix with image id ``g`` and t-exponent ``e`` into ``cells``
    (element id -> {t-exponent: coefficient}); the final (g, e)."""
    successors = table.successors
    step = table.step
    for c in letters:
        if c == target:
            cell = cells.setdefault(g, {})
            cell[e] = cell.get(e, 0) + 1
        h = successors[g][c]
        g = step(g, c) if h is None else h
        e += 1 if c > 0 else -1
        if c == -target:
            cell = cells.setdefault(g, {})
            cell[e] = cell.get(e, 0) - 1
    return g, e


def fox_derivative(relator, gen_index, rep):
    """The Fox free derivative of a word with respect to generator
    ``gen_index`` (0-based), pushed forward into the image group of
    ``rep``: an ImageSum, computed without forming any prefix.

    Standard axioms: d(uv) = du + u dv, dg/dg = 1, dg^-1/dg = -g^-1,
    and dh^{+-1}/dg = 0 for h != g.  The word is differentiated in its
    freely reduced form (Fox derivatives are invariant under free
    reduction).

    A word u a u^-1 c (a, c letters; every Wirtinger relator here) is
    walked only along u when its graded image Phi is 1, i.e. when a and
    c have opposite signs and u a and c^-1 u have one image on the
    table.  Then Phi(u a u^-1) = Phi(c)^-1 and
    Phi(dr) = (1 - Phi(c)^-1) Phi(du) + Phi(u) Phi(da) + Phi(c)^-1 Phi(dc),
    the last two terms being the letters a and c walked from the
    prefixes u and c^-1.  Any other word is walked letter by letter.
    """
    target = gen_index + 1
    table = rep.table
    codes = relator.codes
    if not any(relator is r for r in rep.pres.relators):
        rep.require_letters(codes)
    cells = {}  # element id -> {t-exponent: coefficient}
    m = _conjugator_length(codes)
    if m is None:
        _walk(codes, target, table, cells, 0, 0)
        return _image_sum(rep, cells)
    g, e = _walk(codes[:m], target, table, cells, 0, 0)
    a, c = codes[m], codes[-1]
    inv_c = table.step(0, -c)
    if a * c > 0 or table.step(g, a) != table.left(inv_c, g):
        _walk(codes[m:], target, table, cells, g, e)
        return _image_sum(rep, cells)
    shift = 1 if a > 0 else -1  # the t-degree of c^-1
    out = {h: dict(cell) for h, cell in cells.items()}
    for h, cell in cells.items():
        dst = out.setdefault(table.left(inv_c, h), {})
        for x, v in cell.items():
            dst[x + shift] = dst.get(x + shift, 0) - v
    _walk((a,), target, table, out, g, e)
    _walk((c,), target, table, out, inv_c, shift)
    return _image_sum(rep, out)


def _image_sum(rep, cells):
    return ImageSum(rep, {h: LaurentPoly.from_dict(cell) for h, cell in cells.items()})


def rep_evaluate(s):
    """Evaluate an ImageSum under its representation.

    Returns sum of M(g) * poly_g(t) over the image elements g as a
    matrix of Laurent polynomials over the representation's
    coefficient ring, ZZ or Z[z]/(m); each distinct image is applied
    once.  An integer times a residue needs no reduction mod m, so each
    cell is accumulated as plain integer coefficient vectors, one per
    integer coordinate of the ring (one for ZZ, deg m for Z[z]/(m)),
    and turned into residues once at the end.
    """
    rep = s.rep
    ring = rep.coeff_ring
    n = rep.dim
    poly_ring = PolyRing(ring)
    scalar = ring is ZZ
    if not scalar and not isinstance(ring, QuotientRing):
        raise TypeError(f"cannot evaluate over {ring}")
    if not s.terms:
        return RingMatrix.zeros(poly_ring, n)
    lo = min(poly.min_deg for poly in s.terms.values())
    width = max(poly.degree for poly in s.terms.values()) - lo + 1
    coords = 1 if scalar else ring.degree
    zero = ring.zero
    cells = [[None] * n for _ in range(n)]
    for g, poly in s.terms.items():
        coeffs = poly.coeffs
        base = poly.min_deg - lo
        end = base + len(coeffs)
        for i, row in enumerate(rep.element(g).entries):
            cell_row = cells[i]
            for j, v in enumerate(row):
                if v == zero:
                    continue
                for r, x in enumerate((v,) if scalar else v):
                    if not x:
                        continue
                    cell = cell_row[j]
                    if cell is None:
                        cell = cell_row[j] = [[0] * width for _ in range(coords)]
                    vec = cell[r]
                    vec[base:end] = [a + x * c for a, c in zip(vec[base:end], coeffs)]
    empty = LaurentPoly.zero(ring)
    out = [
        [
            empty
            if cell is None
            else LaurentPoly(ring, lo, cell[0] if scalar else zip(*cell))
            for cell in row
        ]
        for row in cells
    ]
    return RingMatrix(poly_ring, out)
