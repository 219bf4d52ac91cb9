"""Dense exact matrices over a coefficient ring or a polynomial ring.

``RingMatrix`` is generic over an "element ring" object: either one of
the coefficient rings from :mod:`talex.rings` or a ``PolyRing`` wrapper
whose elements are LaurentPoly values.  ``RingMatrix.det`` is the one
determinant entry point, with three routes and one reduction:

* cofactor expansion up to 3x3, over any ring;
* the t-grading, for integer Laurent matrices from 4x4 on: when
  A = diag(t^r) A'(t^s) diag(t^c) for some s > 1 (potentials r_i, c_j
  from a spanning forest of the nonzero entries, s the gcd of every
  exponent's offset e - r_i - c_j, so maximal), det A is
  t^(sum r + sum c) det A'(y) at y = t^s, and A' takes the route choice
  below with a degree bound about s times smaller.  The N(q,p) Fox
  matrices are graded with s = 2q: twisting by the abelianization's
  order-2q character gives an equivalent representation.  The degree
  bound in t, s * D' for a bound D' of A', is checked once against
  TALEX_MAX_DEGREE before either route runs;
* for integer Laurent matrices from 8x8 on with at least two nonzero
  entries per unit of the degree bound D, a modular route: shift each
  row to a polynomial, evaluate at x = 0..D modulo one m above twice a
  Hadamard coefficient bound, eliminate mod m, Newton-interpolate and
  lift symmetrically, which is exact, not probabilistic;
* fraction-free Bareiss elimination (with row pivoting; every interior
  division is exact by construction) otherwise, which keeps all
  arithmetic in the ring and is the test oracle for the modular route.

``RingMatrix.inverse`` is the same elimination carried on to Gauss-Jordan
form, over every ring and size (integer permutation matrices are
transposed instead).
"""

from __future__ import annotations

from math import gcd, isqrt

from .laurent import DegreeLimitExceeded, LaurentPoly, _degree_cap
from .rings import ZZ, QuotientRing, RingMismatch


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

    @staticmethod
    def divider(b):
        return lambda a: a.exact_div(b)

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
        """Cofactors up to 3x3; over Z[t^+-1] the t-grading, then the
        modular route or Bareiss (see the module docstring)."""
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
        if r != ZZ_POLY:
            return self._bareiss()
        s, shift, e = _t_grading(e) or (1, 0, e)
        shape = _row_shape(e)
        if shape is None:
            return ZZ_POLY.zero
        lows, degree, nonzero = shape
        # one guard before either route, at the bound in t: s * D' for a
        # bound D' in y = t^s
        cap = _degree_cap()
        if cap is not None and s * degree > cap:
            raise DegreeLimitExceeded(
                f"determinant degree bound {s * degree} exceeds TALEX_MAX_DEGREE={cap}"
            )
        # the modular route pays one elimination per evaluation point,
        # D + 1 of them, so it is taken from two nonzero entries per unit
        # of D on.  A sweep (min of 3 runs) finds the rule right on some
        # matrices and about 2x off on others: it rightly sends the 11x11
        # kmeta_total numerators of 1/95 at p = 11 (D = 1034, 77 nonzeros)
        # to Bareiss, 0.29-0.39 s against 0.86-1.02 s modular, but it also
        # sends there the kmeta_total numerators of 7/45 at p = 11 and 13
        # (D 88-104, 115-163 nonzeros; 42-81 ms against 19-36 ms) and the
        # 8x8 cyclic products over t^8 - 1 (D 28-44, 32 nonzeros; 3.8-6.0
        # ms against 2.2-4.2 ms)
        if n >= 8 and nonzero >= 2 * degree:
            det = _modular_det(e, lows, degree)
        else:
            det = RingMatrix(ZZ_POLY, e)._bareiss()
        return det if s == 1 else _inflate(det, s, shift)

    def _bareiss(self):
        """Fraction-free elimination with row pivoting; exact divisions only."""
        r = self.ring
        n = self.rows
        m = [list(row) for row in self.entries]
        sign = 1
        prev = r.one
        for k in range(n - 1):
            pivot_row = _pivot_row(m, k, r)
            if pivot_row is None:
                return r.zero
            if pivot_row != k:
                m[k], m[pivot_row] = m[pivot_row], m[k]
                sign = -sign
            pivot = m[k][k]
            divide = r.divider(prev) if k else None
            for i in range(k + 1, n):
                rik = m[i][k]
                rik_zero = r.is_zero(rik)
                for j in range(k + 1, n):
                    a = r.mul(pivot, m[i][j])
                    if not rik_zero and not r.is_zero(m[k][j]):
                        a = r.sub(a, r.mul(rik, m[k][j]))
                    m[i][j] = divide(a) if k else a
                m[i][k] = r.zero
            prev = pivot
        d = m[n - 1][n - 1]
        return d if sign > 0 else r.neg(d)

    # -- inverses -------------------------------------------------------

    def inverse(self):
        """The exact inverse: ZeroDivisionError for a singular matrix,
        NonExactDivision when the determinant is not a unit.

        Integer permutation matrices are transposed.  Every other matrix
        takes fraction-free Gauss-Jordan elimination on [A | I] (Bareiss,
        Math. Comp. 22, 1968): each division by the previous pivot is
        exact, and the elimination ends at [d*I | d*A^-1] with d = +-det A,
        so one division by d finishes."""
        if not self.is_square:
            raise ValueError("inverse of a non-square matrix")
        r = self.ring
        n = self.rows
        if r is ZZ and self._is_permutation():
            return self.transpose()
        m = [
            list(row) + [r.one if i == j else r.zero for j in range(n)]
            for i, row in enumerate(self.entries)
        ]
        prev = r.one
        for k in range(n):
            pivot_row = _pivot_row(m, k, r)
            if pivot_row is None:
                raise ZeroDivisionError("singular matrix")
            m[k], m[pivot_row] = m[pivot_row], m[k]
            pivot = m[k][k]
            divide = r.divider(prev) if k else lambda a: a
            for i, row in enumerate(m):
                if i != k:
                    f = row[k]
                    m[i] = [
                        divide(r.sub(r.mul(pivot, x), r.mul(f, y)))
                        for x, y in zip(row, m[k])
                    ]
            prev = pivot
        divide = r.divider(prev)
        return RingMatrix(r, [[divide(x) for x in row[n:]] for row in m])

    def _is_permutation(self):
        seen = set()
        for row in self.entries:
            hot = [j for j, c in enumerate(row) if c != 0]
            if len(hot) != 1 or row[hot[0]] != 1 or hot[0] in seen:
                return False
            seen.add(hot[0])
        return True


def _pivot_row(m, k, ring):
    """The row i >= k with the smallest nonzero entry in column k by
    ring.size_hint (the first such row on ties), or None when there is
    none."""
    hot = [i for i in range(k, len(m)) if not ring.is_zero(m[i][k])]
    return min(hot, key=lambda i: ring.size_hint(m[i][k]), default=None)


# -- the t-grading of a matrix over Z[t^+-1] --------------------------------


def _t_grading(entries):
    """(s, shift, A') with A = diag(t^r) A'(t^s) diag(t^c) and s > 1
    maximal, shift = sum(r) + sum(c); None when s = 1.

    Walks a spanning forest of the bipartite graph of nonzero entries
    (row i -- column j), fixing r_i + c_j to the lowest exponent of each
    tree edge; s is the gcd of e - r_i - c_j over every monomial t^e of
    every entry.  Any factorization with step s' has potentials that
    agree with these mod s' up to a constant per component (added to
    rows, taken from columns), so s' divides s: s is maximal, whatever
    the forest."""
    n = len(entries)
    rows = [None] * n
    cols = [None] * n
    for root in range(n):
        if rows[root] is not None:
            continue
        rows[root] = 0
        stack = [root]
        while stack:
            # a row index i >= 0, or a column j pushed as ~j < 0
            v = stack.pop()
            if v >= 0:
                for j, e in enumerate(entries[v]):
                    if e.coeffs and cols[j] is None:
                        cols[j] = e.min_deg - rows[v]
                        stack.append(~j)
            else:
                for i, row in enumerate(entries):
                    e = row[~v]
                    if e.coeffs and rows[i] is None:
                        rows[i] = e.min_deg - cols[~v]
                        stack.append(i)
    cols = [0 if c is None else c for c in cols]
    s = 0
    for row, r in zip(entries, rows):
        for e, c in zip(row, cols):
            base = e.min_deg - r - c
            for k, a in enumerate(e.coeffs):
                if a:
                    s = gcd(s, base + k)
                    if s == 1:
                        return None
    # s = 0: every entry is one monomial t^(r_i + c_j), so A' is an
    # integer matrix and any s > 1 serves
    s = s or 2
    compressed = [
        [
            LaurentPoly(ZZ, (e.min_deg - r - c) // s, e.coeffs[::s], _trusted=True)
            if e.coeffs
            else e
            for e, c in zip(row, cols)
        ]
        for row, r in zip(entries, rows)
    ]
    return s, sum(rows) + sum(cols), compressed


def _inflate(p, s, shift):
    """p(t^s) * t^shift."""
    if p.is_zero:
        return p
    coeffs = [0] * (s * (len(p.coeffs) - 1) + 1)
    coeffs[::s] = p.coeffs
    return LaurentPoly(ZZ, s * p.min_deg + shift, coeffs, _trusted=True)


# -- the modular determinant over Z[t^+-1] ----------------------------------


def _row_shape(entries):
    """(row shifts lo_i, degree bound D, nonzero entries) of a square
    matrix over Z[t^+-1], or None when a row is zero.

    Row i is multiplied by t**-lo_i, lo_i its lowest exponent, so the
    determinant is t**sum(lo_i) times a polynomial of degree at most D,
    the sum of the shifted row degrees."""
    lows = []
    degree = 0
    nonzero = 0
    for row in entries:
        hot = [e for e in row if e.coeffs]
        if not hot:
            return None
        lo = min(e.min_deg for e in hot)
        lows.append(lo)
        degree += max(e.degree for e in hot) - lo
        nonzero += len(hot)
    return lows, degree, nonzero


def _coefficient_bound(entries):
    """B = floor(prod_i sqrt(sum_j |a_ij|_1^2)) bounds every coefficient
    of det A: on |z| = 1 each entry is at most its l1 norm, Hadamard's
    inequality bounds |det A(z)|, and a coefficient is a mean of
    det A(z) z^-k over the circle."""
    square_norms = 1
    for row in entries:
        square_norms *= sum(sum(map(abs, e.coeffs)) ** 2 for e in row)
    return isqrt(square_norms)


def _is_strong_probable_prime(n):
    """Miller-Rabin to base 2.  The modular determinant stays exact for a
    composite modulus; a prime only makes a non-unit pivot unlikely."""
    if n % 2 == 0:
        return n == 2
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    x = pow(2, d, n)
    if x == 1 or x == n - 1:
        return True
    for _ in range(s - 1):
        x = x * x % n
        if x == n - 1:
            return True
    return False


def _eliminated_det(rows, m):
    """det of a square matrix of residues mod m by Gaussian elimination.

    Every pivot is inverted with pow(x, -1, m), which raises ValueError
    for a non-unit, so the result is exact over Z/m for any m.  Rows
    shrink by their pivot column as the elimination proceeds, and the
    updates are reduced mod m only when a row becomes the pivot row."""
    det = 1
    n = len(rows)
    for k in range(n):
        for i in range(k, n):
            pivot = rows[i][0] % m
            if pivot:
                break
        else:
            return 0
        if i != k:
            rows[i], rows[k] = rows[k], rows[i]
            det = -det
        det = det * pivot % m
        scale = pow(-pivot, -1, m)
        tail = [y * scale % m for y in rows[k][1:]]
        for i in range(k + 1, n):
            row = rows[i]
            f = row[0] % m
            rows[i] = [x + f * y for x, y in zip(row[1:], tail)] if f else row[1:]
    return det % m


def _modular_det_coeffs(entries, lows, degree, m):
    """The coefficients of det(t**-lo_i * row_i), lifted into (-m/2, m/2).

    Evaluates the shifted entries at x = 0..degree mod m, takes each
    determinant by elimination, Newton-interpolates and lifts
    symmetrically.  Exact when ``degree`` bounds the degree and m
    exceeds twice every coefficient; raises ValueError when a pivot or
    an interpolation denominator is not a unit mod m."""
    points = range(degree + 1)
    values = {}
    grid = []
    for row, lo in zip(entries, lows):
        cells = []
        for e in row:
            key = (e.min_deg - lo, e.coeffs) if e.coeffs else (0, ())
            v = values.get(key)
            if v is None:
                offset, coeffs = key
                v = []
                for x in points:
                    acc = 0
                    for c in reversed(coeffs):
                        acc = (acc * x + c) % m
                    v.append(acc * pow(x, offset, m) % m if offset else acc)
                values[key] = v
            cells.append(v)
        grid.append(cells)
    c = [_eliminated_det([[v[x] for v in cells] for cells in grid], m) for x in points]
    # divided differences over the points 0..degree divide only by 1..degree
    for j in range(1, degree + 1):
        inv = pow(j, -1, m)
        c[j:] = [(a - b) * inv % m for a, b in zip(c[j:], c[j - 1 : -1])]
    # Newton form to monomials: p = c_0 + x*(c_1 + (x-1)*(c_2 + ...))
    poly = [c[degree]]
    for j in range(degree - 1, -1, -1):
        poly = (
            [(c[j] - j * poly[0]) % m]
            + [(a - j * b) % m for a, b in zip(poly, poly[1:])]
            + [poly[-1]]
        )
    half = m // 2
    return [a - m if a > half else a for a in poly]


def _modular_det(entries, lows, degree):
    """det over Z[t^+-1] modulo one modulus m > max(2B, D): the first
    base-2 strong probable prime there, or the next one after a non-unit."""
    m = max(2 * _coefficient_bound(entries), degree) + 1
    while True:
        while not _is_strong_probable_prime(m):
            m += 1
        try:
            coeffs = _modular_det_coeffs(entries, lows, degree, m)
        except ValueError:
            m += 1
            continue
        return LaurentPoly(ZZ, sum(lows), coeffs)


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


def gamma_substitute(p):
    """Substitute the companion matrix C of the coefficient modulus for
    the quotient generator.

    Each coefficient residue r(omega) of ``p`` (a LaurentPoly over a
    QuotientRing) becomes the integer matrix r(C); the result is a
    matrix with integer LaurentPoly entries.  Scalars map to multiples
    of the identity.
    """
    ring = p.ring
    if not isinstance(ring, QuotientRing):
        raise RingMismatch("gamma substitution starts from quotient coefficients")
    C = companion_matrix(LaurentPoly.from_int_coeffs(ring.modulus))
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

    P is a polynomial (min_deg 0), as every canonical total is.
    """
    if P.ring is not ZZ or m.ring is not ZZ:
        raise RingMismatch("cyclic_product works over integer coefficients")
    if P.min_deg != 0:
        raise ValueError("cyclic_product needs min_deg 0")
    C = companion_matrix(m)
    if P.is_zero:
        return LaurentPoly.zero()
    terms = ((k, k, coef) for k, coef in enumerate(P.coeffs) if coef)
    return _companion_poly_matrix(C, terms).det()
