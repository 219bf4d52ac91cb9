"""Dense exact matrices over a coefficient ring or a polynomial ring.

``RingMatrix`` is generic over an "element ring" object: either one of
the coefficient rings from :mod:`talex.rings` or a ``PolyRing`` wrapper
whose elements are LaurentPoly values.  Determinants use cofactor
expansion up to 3x3 and fraction-free Bareiss elimination (with row
pivoting; every interior division is exact by construction) beyond
that, which keeps all arithmetic in the ring.
"""

from __future__ import annotations

from fractions import Fraction

from .laurent import LaurentPoly
from .rings import ZZ, NonExactDivision, QuotientRing, RingMismatch


class PolyRing:
    """Element-ring adapter making LaurentPoly values usable as entries."""

    def __init__(self, coeff_ring=ZZ):
        self.coeff_ring = coeff_ring
        self.zero = LaurentPoly.zero(coeff_ring)
        self.one = LaurentPoly.one(coeff_ring)

    def __eq__(self, other):
        return isinstance(other, PolyRing) and self.coeff_ring == other.coeff_ring

    def __hash__(self):
        return hash(("PolyRing", self.coeff_ring))

    def __repr__(self):
        return f"{self.coeff_ring}[t^+-1]"

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
        return a.is_zero

    def from_int(self, n):
        return LaurentPoly.const(n, self.coeff_ring)

    @staticmethod
    def divexact(a, b):
        return a.exact_div(b)

    @staticmethod
    def is_negative(a):
        if a.is_zero:
            return False
        return a.ring.is_negative(a.coeffs[0])

    @staticmethod
    def size_hint(a):
        return len(a.coeffs) + 1


ZZ_POLY = PolyRing(ZZ)


class RingMatrix:
    """An immutable dense rows x cols matrix over an element ring."""

    __slots__ = ("ring", "rows", "cols", "entries")

    def __init__(self, ring, entries):
        entries = tuple(tuple(row) for row in entries)
        if not entries or not entries[0]:
            raise ValueError("empty matrix")
        cols = len(entries[0])
        if any(len(row) != cols for row in entries):
            raise ValueError("ragged rows")
        self.ring = ring
        self.rows = len(entries)
        self.cols = cols
        self.entries = entries

    # -- constructors -------------------------------------------------

    @classmethod
    def identity(cls, ring, n):
        z, o = ring.zero, ring.one
        return cls(ring, [[o if i == j else z for j in range(n)] for i in range(n)])

    @classmethod
    def zeros(cls, ring, rows, cols=None):
        cols = rows if cols is None else cols
        z = ring.zero
        return cls(ring, [[z] * cols for _ in range(rows)])

    @classmethod
    def from_int_rows(cls, rows, ring=ZZ):
        return cls(ring, [[ring.from_int(c) for c in row] for row in rows])

    @classmethod
    def block(cls, blocks):
        """Assemble from a 2D grid of conformal RingMatrix blocks."""
        ring = blocks[0][0].ring
        rows = []
        for brow in blocks:
            for i in range(brow[0].rows):
                row = []
                for b in brow:
                    row.extend(b.entries[i])
                rows.append(row)
        return cls(ring, rows)

    # -- basics --------------------------------------------------------

    def __eq__(self, other):
        return (
            isinstance(other, RingMatrix)
            and self.ring == other.ring
            and self.entries == other.entries
        )

    def __hash__(self):
        return hash(self.entries)

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i][j]

    def __repr__(self):
        return f"RingMatrix({self.rows}x{self.cols} over {self.ring})"

    @property
    def is_square(self):
        return self.rows == self.cols

    def map_entries(self, fn, ring=None):
        return RingMatrix(
            ring if ring is not None else self.ring,
            [[fn(e) for e in row] for row in self.entries],
        )

    def transpose(self):
        return RingMatrix(
            self.ring,
            [[self.entries[i][j] for i in range(self.rows)] for j in range(self.cols)],
        )

    # -- arithmetic ----------------------------------------------------

    def _check(self, other):
        if self.ring != other.ring:
            raise RingMismatch(f"{self.ring} vs {other.ring}")

    def __add__(self, other):
        self._check(other)
        r = self.ring
        return RingMatrix(
            r,
            [
                [r.add(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __sub__(self, other):
        self._check(other)
        r = self.ring
        return RingMatrix(
            r,
            [
                [r.sub(a, b) for a, b in zip(ra, rb)]
                for ra, rb in zip(self.entries, other.entries)
            ],
        )

    def __neg__(self):
        r = self.ring
        return RingMatrix(r, [[r.neg(a) for a in row] for row in self.entries])

    def __mul__(self, other):
        self._check(other)
        if self.cols != other.rows:
            raise ValueError("shape mismatch")
        r = self.ring
        bt = other.entries
        out = []
        for row in self.entries:
            nz = [(k, a) for k, a in enumerate(row) if not r.is_zero(a)]
            orow = [r.zero] * other.cols
            for k, a in nz:
                brow = bt[k]
                for j, b in enumerate(brow):
                    if not r.is_zero(b):
                        orow[j] = r.add(orow[j], r.mul(a, b))
            out.append(orow)
        return RingMatrix(r, out)

    def scale(self, c):
        r = self.ring
        return RingMatrix(r, [[r.mul(c, a) for a in row] for row in self.entries])

    def __pow__(self, n):
        if not self.is_square:
            raise ValueError("powers need a square matrix")
        if n < 0:
            return self.inverse() ** (-n)
        result = RingMatrix.identity(self.ring, self.rows)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def tensor(self, other):
        """Kronecker product: block (i,j) is entries[i][j] * other."""
        self._check(other)
        r = self.ring
        out = []
        for i in range(self.rows):
            for k in range(other.rows):
                row = []
                for j in range(self.cols):
                    a = self.entries[i][j]
                    if r.is_zero(a):
                        row.extend([r.zero] * other.cols)
                    else:
                        row.extend(r.mul(a, b) for b in other.entries[k])
                out.append(row)
        return RingMatrix(r, out)

    # -- determinants ---------------------------------------------------

    def det(self):
        if not self.is_square:
            raise ValueError("determinant of a non-square matrix")
        r = self.ring
        e = self.entries
        n = self.rows
        if n == 1:
            return e[0][0]
        if n == 2:
            return r.sub(r.mul(e[0][0], e[1][1]), r.mul(e[0][1], e[1][0]))
        if n == 3:
            total = r.zero
            for j in range(3):
                rest = [
                    [e[i][k] for k in range(3) if k != j] for i in (1, 2)
                ]
                minor = r.sub(
                    r.mul(rest[0][0], rest[1][1]), r.mul(rest[0][1], rest[1][0])
                )
                term = r.mul(e[0][j], minor)
                total = r.add(total, term) if j % 2 == 0 else r.sub(total, term)
            return total
        return self._bareiss()

    def _bareiss(self):
        """Fraction-free elimination with row pivoting; exact divisions only."""
        r = self.ring
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = r.one
        size = getattr(r, "size_hint", None)
        for k in range(n - 1):
            pivot_row = -1
            best = None
            for i in range(k, n):
                if not r.is_zero(m[i][k]):
                    if size is None:
                        pivot_row = i
                        break
                    s = size(m[i][k])
                    if best is None or s < best:
                        best = s
                        pivot_row = i
            if pivot_row < 0:
                return r.zero
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            pivot = m[k][k]
            for i in range(k + 1, n):
                rik = m[i][k]
                rik_zero = r.is_zero(rik)
                for j in range(k + 1, n):
                    a = r.mul(pivot, m[i][j])
                    if not rik_zero and not r.is_zero(m[k][j]):
                        a = r.sub(a, r.mul(rik, m[k][j]))
                    m[i][j] = r.divexact(a, prev) if k else a
                m[i][k] = r.zero
            prev = pivot
        d = m[n - 1][n - 1]
        return d if sign > 0 else r.neg(d)

    # -- inverses -------------------------------------------------------

    def inverse(self):
        """Exact inverse; requires the determinant to be a unit.

        Small matrices go through the adjugate; larger integer matrices
        (the permutation-flavored representation images, det +-1) go
        through rational elimination with an integrality check.
        """
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        r = self.ring
        n = self.rows
        if r is ZZ and self._is_permutation():
            return self.transpose()
        if n <= 3:
            d = self.det()
            adj = self._adjugate_small()
            return adj.map_entries(lambda e: r.divexact(e, d))
        if r is ZZ:
            return self._inverse_int()
        raise NotImplementedError(f"inverse over {r} for size {n}")

    def _is_permutation(self):
        seen = set()
        for row in self.entries:
            hot = [j for j, c in enumerate(row) if c != 0]
            if len(hot) != 1 or row[hot[0]] != 1 or hot[0] in seen:
                return False
            seen.add(hot[0])
        return True

    def _adjugate_small(self):
        r = self.ring
        n = self.rows
        if n == 1:
            return RingMatrix(r, [[r.one]])
        cof = []
        for i in range(n):
            row = []
            for j in range(n):
                rows = [a for a in range(n) if a != i]
                cols = [b for b in range(n) if b != j]
                if n == 2:
                    minor = self.entries[rows[0]][cols[0]]
                else:
                    m = [[self.entries[a][b] for b in cols] for a in rows]
                    minor = r.sub(
                        r.mul(m[0][0], m[1][1]), r.mul(m[0][1], m[1][0])
                    )
                row.append(minor if (i + j) % 2 == 0 else r.neg(minor))
            cof.append(row)
        return RingMatrix(r, cof).transpose()

    def _inverse_int(self):
        n = self.rows
        aug = [
            [Fraction(c) for c in row] + [Fraction(int(i == j)) for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        for k in range(n):
            pivot_row = next(
                (i for i in range(k, n) if aug[i][k] != 0), None
            )
            if pivot_row is None:
                raise ZeroDivisionError("singular matrix")
            aug[k], aug[pivot_row] = aug[pivot_row], aug[k]
            pv = aug[k][k]
            aug[k] = [c / pv for c in aug[k]]
            for i in range(n):
                if i != k and aug[i][k]:
                    f = aug[i][k]
                    aug[i] = [c - f * d for c, d in zip(aug[i], aug[k])]
        out = []
        for row in aug:
            back = row[n:]
            if any(c.denominator != 1 for c in back):
                raise NonExactDivision(
                    "matrix inverse is not integral", remainder=None
                )
            out.append([int(c) for c in back])
        return RingMatrix(ZZ, out)


def companion_matrix(p):
    """Column companion of a monic integer polynomial: subdiagonal ones,
    negated coefficients in the last column; p(C) = 0."""
    if p.ring is not ZZ:
        raise RingMismatch("companion matrix needs integer coefficients")
    if p.is_zero or p.min_deg != 0 or p.degree < 1:
        raise ValueError("companion matrix needs degree >= 1 and min_deg 0")
    if p.coeffs[-1] != 1:
        raise ValueError("companion matrix needs a monic polynomial")
    d = p.degree
    rows = [[0] * d for _ in range(d)]
    for i in range(1, d):
        rows[i][i - 1] = 1
    for i in range(d):
        rows[i][d - 1] = -p.coeffs[i]
    return RingMatrix(ZZ, rows)


def _companion_poly_matrix(C, terms):
    """The integer matrix polynomial sum of coef * C**e * t**k over the
    (k, e, coef) triples of ``terms``."""
    n = C.rows
    powers = [RingMatrix.identity(ZZ, n)]
    cells = [[dict() for _ in range(n)] for _ in range(n)]
    for k, e, coef in terms:
        while len(powers) <= e:
            powers.append(powers[-1] * C)
        for i, row in enumerate(powers[e].entries):
            for j, v in enumerate(row):
                if v:
                    cell = cells[i][j]
                    cell[k] = cell.get(k, 0) + coef * v
    return RingMatrix(
        ZZ_POLY, [[LaurentPoly.from_dict(cell) for cell in row] for row in cells]
    )


def gamma_substitute(p, C):
    """Substitute the companion matrix C for the quotient generator.

    Each coefficient residue r(omega) of ``p`` (a LaurentPoly over a
    QuotientRing) becomes the integer matrix r(C); the result is a
    matrix with integer LaurentPoly entries.  Scalars map to multiples
    of the identity.
    """
    ring = p.ring
    if not isinstance(ring, QuotientRing):
        raise RingMismatch("gamma substitution starts from quotient coefficients")
    mod_comp = companion_matrix(LaurentPoly.from_int_coeffs(ring.modulus))
    if mod_comp.entries != C.entries:
        raise ValueError("companion matrix does not match the coefficient modulus")
    terms = (
        (p.min_deg + idx, e, coef)
        for idx, residue in enumerate(p.coeffs)
        for e, coef in enumerate(residue)
        if coef
    )
    return _companion_poly_matrix(C, terms)


def cyclic_product(P, m):
    """Product of P(zeta * t) over all roots zeta of the monic integer
    polynomial m, with multiplicity, computed exactly as det P(t*C_m).

    P may be Laurent; m(0) must be a unit so that C_m is invertible.
    """
    if P.ring is not ZZ or m.ring is not ZZ:
        raise RingMismatch("cyclic_product works over integer coefficients")
    if m.is_zero or m.coeffs[-1] != 1 or m.min_deg != 0:
        raise ValueError("m must be monic with min_deg 0")
    C = companion_matrix(m)
    d = C.rows
    if P.is_zero:
        return LaurentPoly.zero()
    shift = P.min_deg
    base = P.shift(-shift)
    if shift and abs(m.coeffs[0]) != 1:
        raise ValueError("Laurent input needs m(0) to be a unit")
    terms = ((k, k, coef) for k, coef in enumerate(base.coeffs) if coef)
    result = _companion_poly_matrix(C, terms).det()
    if shift:
        # each root contributes (zeta*t)^shift; the product of the roots
        # is det(C), a unit here, so the correction is det(C)^shift * t^(d*shift)
        det_c = C.det()
        unit = -1 if (det_c == -1 and shift % 2) else 1
        result = result.shift(shift * d)
        if unit == -1:
            result = -result
    return result
