"""Free-group words, group-ring sums, and Fox free differential calculus.

Words are stored freely reduced at all times as tuples of nonzero
signed letter codes: ``+k`` is the k-th generator (1-based), ``-k`` its
inverse.  Generator names live on the enclosing presentation; the text
syntax maps ``x y z`` to codes 1 2 3 and uppercase to inverses, so
``xyxYXY`` is the trefoil relator.

Every twisted polynomial only needs a Fox derivative after it is pushed
forward along a representation rho: G -> GL(n), that is, as an element
of Z[G][t^+-1] with G the (finite) image group.  ``fox_derivative(r, j,
rep)`` computes exactly that in one pass over the letters of r, keeping
a running t-exponent and the id of the current prefix's image in the
rep's multiplication table, and accumulating one integer Laurent
polynomial per element: O(L) time and memory for a relator of length L,
where materializing the L prefix words costs O(L^2) of both.
``rep_evaluate`` then applies each distinct image once, and the
augmentation (the sum over G) is the abelianized psi-image that gives
the Alexander polynomial.  Without a rep, ``fox_derivative`` returns the
free-group ``GroupRingSum``, which ``psi_evaluate`` and ``rep_evaluate``
still accept: that path is the independent oracle of the tests.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .matrices import PolyRing, RingMatrix

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
    def from_text(cls, text, alphabet=ALPHABET):
        """Parse juxtaposed letters; uppercase means inverse."""
        index = {name: i + 1 for i, name in enumerate(alphabet)}
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

    def to_text(self, alphabet=ALPHABET):
        out = []
        for c in self.codes:
            name = alphabet[abs(c) - 1]
            out.append(name if c > 0 else name.upper())
        return "".join(out)

    @property
    def letters(self):
        """(generator index 0-based, exponent +-1) pairs."""
        return [(abs(c) - 1, 1 if c > 0 else -1) for c in self.codes]

    @property
    def is_identity(self):
        return not self.codes

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

    def __pow__(self, n):
        if n == 0:
            return FreeWord()
        base = self if n > 0 else self.inverse()
        out = base
        for _ in range(abs(n) - 1):
            out = out * base
        return out

    def exponent_sum(self):
        """Total exponent over all letters (the abelianization degree)."""
        return sum(1 if c > 0 else -1 for c in self.codes)

    def max_generator(self):
        return max((abs(c) for c in self.codes), default=0)


def abelianize(word):
    return word.exponent_sum()


class GroupRingSum:
    """A formal Z-linear combination of free-group words."""

    __slots__ = ("terms",)

    def __init__(self, terms=None):
        clean = {}
        if terms:
            for word, coef in terms.items():
                if coef:
                    clean[word] = clean.get(word, 0) + coef
        self.terms = {w: c for w, c in clean.items() if c}

    @classmethod
    def from_word(cls, word, coef=1):
        return cls({word: coef})

    @classmethod
    def one(cls):
        return cls({FreeWord(): 1})

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return isinstance(other, GroupRingSum) and self.terms == other.terms

    def __repr__(self):
        if not self.terms:
            return "GroupRingSum(0)"
        bits = []
        for w in sorted(self.terms, key=lambda w: (len(w.codes), w.codes)):
            c = self.terms[w]
            name = w.to_text() or "1"
            bits.append(f"{c:+d}*{name}")
        return f"GroupRingSum({' '.join(bits)})"

    def __add__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return GroupRingSum(out)

    def __sub__(self, other):
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return GroupRingSum(out)

    def __neg__(self):
        return GroupRingSum({w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        out = {}
        for wa, ca in self.terms.items():
            for wb, cb in other.terms.items():
                w = wa * wb
                out[w] = out.get(w, 0) + ca * cb
        return GroupRingSum(out)

    def scale(self, n):
        return GroupRingSum({w: n * c for w, c in self.terms.items()})


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


def fox_derivative(relator, gen_index, rep=None):
    """The Fox free derivative of a word with respect to generator
    ``gen_index`` (0-based).

    Standard axioms: d(uv) = du + u dv, dg/dg = 1, dg^-1/dg = -g^-1,
    and dh^{+-1}/dg = 0 for h != g.  The word is differentiated in its
    freely reduced form (Fox derivatives are invariant under free
    reduction).  Without ``rep`` the result is a GroupRingSum of prefix
    words; with a MatrixRep it is the ImageSum pushed forward into the
    rep's image group, computed in one pass without forming any prefix.
    """
    target = gen_index + 1
    codes = relator.codes
    if rep is not None:
        return _fox_walk(codes, target, rep)
    out = {}
    for i, c in enumerate(codes):
        if c == target:
            prefix = FreeWord._trusted(codes[:i])
            out[prefix] = out.get(prefix, 0) + 1
        elif c == -target:
            prefix = FreeWord._trusted(codes[: i + 1])
            out[prefix] = out.get(prefix, 0) - 1
    return GroupRingSum(out)


def _fox_walk(codes, target, rep):
    step = rep.step
    cells = {}  # element id -> {t-exponent: coefficient}
    g = 0
    e = 0
    for c in codes:
        if c == target:
            cell = cells.setdefault(g, {})
            cell[e] = cell.get(e, 0) + 1
        g = step(g, c)
        e += 1 if c > 0 else -1
        if c == -target:
            cell = cells.setdefault(g, {})
            cell[e] = cell.get(e, 0) - 1
    return ImageSum(rep, {h: LaurentPoly.from_dict(cell) for h, cell in cells.items()})


def fox_matrix(relators, num_gens):
    """All Fox derivatives of a presentation's relators."""
    return [
        [fox_derivative(r, j) for j in range(num_gens)] for r in relators
    ]


def psi_evaluate(s):
    """Abelianized evaluation: sum of coeff * t^(exponent sum of word)."""
    acc = {}
    for w, c in s.terms.items():
        d = w.exponent_sum()
        acc[d] = acc.get(d, 0) + c
    return LaurentPoly.from_dict(acc)


def rep_evaluate(s, rep):
    """Evaluate a group-ring sum under a matrix representation.

    Returns sum of coeff * M(word) * t^(abelianization degree) as a
    matrix of Laurent polynomials over the representation's
    coefficient ring.  An ImageSum already carries one polynomial per
    image element, so each distinct image is applied once.  A free
    GroupRingSum (the test oracle) is walked in sorted word order with
    a stack of shared prefix products, so families of prefixes cost
    one matrix product per distinct letter edge instead of one per
    (word, letter) pair.
    """
    if isinstance(s, ImageSum):
        return _image_evaluate(s, rep)
    ring = rep.coeff_ring
    n = rep.dim
    poly_ring = PolyRing(ring)
    if s.is_zero:
        return RingMatrix.zeros(poly_ring, n)
    cells = [[dict() for _ in range(n)] for _ in range(n)]
    identity = RingMatrix.identity(ring, n)
    stack = [identity]
    prev = ()
    for word in sorted(s.terms, key=lambda w: w.codes):
        codes = word.codes
        coef = s.terms[word]
        common = 0
        limit = min(len(prev), len(codes))
        while common < limit and prev[common] == codes[common]:
            common += 1
        del stack[common + 1 :]
        for c in codes[common:]:
            stack.append(stack[-1] * rep.image_of_code(c))
        prev = codes
        mat = stack[-1]
        deg = word.exponent_sum()
        for i in range(n):
            row = mat.entries[i]
            for j in range(n):
                v = row[j]
                if not ring.is_zero(v):
                    cell = cells[i][j]
                    prior = cell.get(deg)
                    cell[deg] = (
                        ring.mul(ring.from_int(coef), v)
                        if prior is None
                        else ring.add(prior, ring.mul(ring.from_int(coef), v))
                    )
    zero = ring.zero
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            cell = {k: v for k, v in cells[i][j].items() if not ring.is_zero(v)}
            row.append(LaurentPoly.from_dict(cell, ring) if cell else LaurentPoly.zero(ring))
        out.append(row)
    return RingMatrix(poly_ring, out)


def _image_evaluate(s, rep):
    if s.rep is not rep:
        raise ValueError("the ImageSum was walked through another representation")
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
