"""Matrix representations of dihedral and metacyclic knot-group targets.

Builds, exactly over the integers or over Z[omega] = Z[z]/(theta_n(z)):

* the permutation representation ``pi`` of the dihedral group D_p
  (p = 2n+1),
* the 2x2 representation ``xi`` over Z[omega], where omega is a root of
  the minimal polynomial theta_n,
* the conjugating matrix U_n from the degree-2n irreducible integer
  representation ``pi0`` to the integer form ``eta`` of xi (omega -> the
  companion matrix C_n), whose images serve only as the two sides of
  that conjugacy,
* the square root V_n of 4E_n + C_n built from the alternating Catalan
  series (the engine behind the f(t)f(-t) factorization),
* binary dihedral (trace-free 2x2 over the p-th cyclotomic ring),
  N(q,p) maximum-permutation (2pq-dimensional integer), and
  K-metacyclic (p-dimensional permutation) representations.

Every constructed representation checks that the relators of its
presentation map to the identity matrix; the U_n and V_n constructors
verify their defining identities on the spot.

A ``MatrixRep`` reads the multiplication table of its image group,
built lazily as words are walked and shared by every rep with the same
generator images, so the relator checks of later knots at the same p
and of the torus knot K(1/p) reuse the products of the first; an
assignment that fails its relators keeps no table.  Every image here is
finite (at most 2p elements for D_p, 4p for the binary dihedral group,
2pq for N(q,p)), so walking a relator of length L costs L table lookups
plus at most |G| * 2k matrix products per assignment tried, whatever L
is.  ``talex.words`` walks Fox derivatives through this table and
takes its left products along the parent edges the table records.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import comb, gcd

from .laurent import LaurentPoly, PreconditionError, cyclotomic_poly
from .matrices import RingMatrix, companion_matrix
from .rings import ZZ, QuotientRing


class NoValidAssignment(PreconditionError):
    """No meridian assignment maps all relators to the identity."""


def is_prime(n):
    if n < 2:
        return False
    f = 2
    while f * f <= n:
        if n % f == 0:
            return False
        f += 1
    return True


def require_odd_prime(p):
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise PreconditionError(f"p={p} is not an odd prime")


def require_prime_divisor(f, p):
    """The paper's standing hypothesis on K(beta/alpha) at p: p = 2n+1 an
    odd prime dividing alpha, so that D_p-representations exist."""
    require_odd_prime(p)
    if f.alpha % p != 0:
        raise PreconditionError(f"p={p} does not divide alpha={f.alpha}")


def require_q(q):
    if q < 1:
        raise PreconditionError(f"q={q} must be >= 1")


# ---------------------------------------------------------------------------
# theta_n and the omega arithmetic
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def theta(n):
    """The minimal polynomial of omega: sum of c_k z^k with
    c_k = C(n+k, 2k) + 2*C(n+k, 2k+1)."""
    if n < 1:
        raise ValueError("n must be >= 1")
    return LaurentPoly.from_int_coeffs(
        [comb(n + k, 2 * k) + 2 * comb(n + k, 2 * k + 1) for k in range(n + 1)]
    )


@lru_cache(maxsize=None)
def omega_ring(n):
    return QuotientRing(theta(n).coeffs)


@lru_cache(maxsize=None)
def omega_companion(n):
    return companion_matrix(theta(n))


# ---------------------------------------------------------------------------
# dihedral generator images
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def dihedral_pi(p):
    """The faithful p-dimensional permutation images (x, y) of D_p."""
    require_odd_prime(p)
    x = [[0] * p for _ in range(p)]
    x[0][0] = 1
    for i in range(1, p):
        x[i][p - i] = 1
    y = [[0] * p for _ in range(p)]
    y[0][1] = 1
    y[1][0] = 1
    for i in range(2, p):
        y[i][p + 1 - i] = 1
    return RingMatrix(ZZ, x), RingMatrix(ZZ, y)


@lru_cache(maxsize=None)
def _pi0_images(p):
    """The degree-2n irreducible integer images (x, y) of D_p, the source
    side of the U_n conjugacy (p = 2n+1 need not be prime there)."""
    m = p - 1
    x = [[0] * m for _ in range(m)]
    for i in range(m):
        x[i][m - 1 - i] = 1
    y = [[0] * m for _ in range(m)]
    for i in range(m):
        y[i][0] = -1
    for i in range(1, m):
        y[i][m - i] = 1
    return RingMatrix(ZZ, x), RingMatrix(ZZ, y)


@lru_cache(maxsize=None)
def dihedral_xi(p):
    """The 2x2 images (X, Y) over Z[omega], omega a root of theta_n."""
    require_odd_prime(p)
    ring = omega_ring((p - 1) // 2)
    w = ring.gen()
    one, zero = ring.one, ring.zero
    neg = ring.neg(one)
    X = RingMatrix(ring, [[neg, one], [zero, one]])
    Y = RingMatrix(ring, [[neg, zero], [w, one]])
    return X, Y


@lru_cache(maxsize=None)
def _eta_images(p):
    """The integer 2n-dimensional images of eta = xi followed by the
    companion substitution omega -> C_n."""
    n = (p - 1) // 2
    C = omega_companion(n)
    E = RingMatrix.identity(ZZ, n)
    Z = RingMatrix.zeros(ZZ, n)
    x = RingMatrix.block([[-E, E], [Z, E]])
    y = RingMatrix.block([[-E, Z], [C, E]])
    return x, y


# ---------------------------------------------------------------------------
# the (XY)^k table
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class XYPowerTable:
    """Entries (a_k, b_k, c_k, d_k) of (XY)^k over Z[omega], k = 0..p."""

    p: int
    rows: tuple

    def a(self, k):
        return self.rows[k % self.p][0]

    def b(self, k):
        return self.rows[k % self.p][1]

    def c(self, k):
        return self.rows[k % self.p][2]

    def d(self, k):
        return self.rows[k % self.p][3]


@lru_cache(maxsize=None)
def xy_power_table(p):
    require_odd_prime(p)
    X, Y = dihedral_xi(p)
    ring = X.ring
    XY = X * Y
    rows = []
    M = RingMatrix.identity(ring, 2)
    for _ in range(p + 1):
        rows.append((M[0, 0], M[0, 1], M[1, 0], M[1, 1]))
        M = M * XY
    w = ring.gen()
    two_plus = ring.from_int(2)
    a = [r[0] for r in rows]
    b = [r[1] for r in rows]
    c = [r[2] for r in rows]
    d = [r[3] for r in rows]
    add, sub, mul = ring.add, ring.sub, ring.mul
    for k in range(2, p + 1):
        if not (
            a[k] == sub(mul(add(two_plus, w), a[k - 1]), a[k - 2])
            and mul(w, b[k]) == sub(mul(add(ring.one, w), a[k - 1]), a[k - 2])
        ):
            raise AssertionError(f"(XY)^{k} breaks the three-term recurrence at p={p}")
    running = ring.zero
    for k in range(1, p + 1):
        wb = mul(w, b[k])
        running = add(running, a[k - 1])
        if not (
            wb == sub(a[k], a[k - 1])
            and wb == c[k]
            and a[k] == add(wb, d[k])
            and d[k] == a[k - 1]
            and b[k] == add(b[k - 1], a[k - 1])
            and add(c[k], d[k]) == a[k]
            and running == b[k]
        ):
            raise AssertionError(f"(XY)^{k} breaks the entry identities at p={p}")
    return XYPowerTable(p, tuple(rows))


# ---------------------------------------------------------------------------
# appendix tables: a_{j,k}, b_{j,k}, U_n; Catalan series, d_{k,l}, V_n
# ---------------------------------------------------------------------------


def a_jk(j, k):
    # row 0 follows the empty-product convention a_{0,0} = 1, a_{0,k} = 0,
    # which the b_{j,k} = a_{j-1,k-1} + b_{j,k-1} recursion needs at j = 1
    if j == 0:
        return 1 if k == 0 else 0
    if k < j:
        return 0
    return comb(j + k - 1, 2 * j - 1)


def b_jk(j, k):
    if k < j:
        return 0
    if j == 0:
        return 0
    return comb(j + k - 2, 2 * j - 2)


@lru_cache(maxsize=None)
def u_matrix(n):
    """The 2n x 2n integer matrix conjugating pi0 to eta, assembled from
    the binomial tables; the conjugacy identity is verified on
    construction.  The construction is purely combinatorial, so
    composite 2n+1 is allowed (the printed U_4 and V_4 live at 2n+1 = 9)."""
    p = 2 * n + 1
    if n < 1:
        raise ValueError("n must be >= 1")
    A = [[a_jk(i, n - j + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    A_star = [[-a_jk(i, j - 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    B = [[b_jk(i, n - j + 1) for j in range(1, n + 1)] for i in range(1, n + 1)]
    B_star = [[b_jk(i, j) for j in range(1, n + 1)] for i in range(1, n + 1)]
    U = RingMatrix.block(
        [
            [RingMatrix(ZZ, A), RingMatrix(ZZ, A_star)],
            [RingMatrix(ZZ, B), RingMatrix(ZZ, B_star)],
        ]
    )
    x0, y0 = _pi0_images(p)
    ex, ey = _eta_images(p)
    if U * x0 != ex * U or U * y0 != ey * U:
        raise AssertionError(f"U_{n} does not conjugate pi0 to eta")
    if U.det() not in (1, -1):
        raise AssertionError(f"U_{n} is not unimodular")
    return U


@lru_cache(maxsize=None)
def catalan_b(k):
    """The k-th coefficient of the alternating Catalan series:
    (-1)^k / (k+2) * C(2k+2, k+1)."""
    if k < 0:
        return 0
    value = comb(2 * k + 2, k + 1) // (k + 2)
    return -value if k % 2 else value


@lru_cache(maxsize=None)
def f_n_coeff(n, k):
    """Coefficient a_k^(n) of f_n(x) = x^n theta_n(1/x); equals the
    theta coefficient c_{n-k}."""
    if k < 0 or k > n:
        return 0
    if n == 0:
        return 1 if k == 0 else 0
    return theta(n).coeff(n - k)


def d_kl(n, k, ell):
    return sum(f_n_coeff(n, i) * catalan_b(k + ell - i) for i in range(k + 1))


@lru_cache(maxsize=None)
def v_matrix(n):
    """The integer square root V_n of 4E_n + C_n, built from the
    alternating Catalan series; V_n^2 = 4E_n + C_n and V_n C_n = C_n V_n
    are verified on construction.  The second follows from the first,
    but the split determinants rely on it directly: every gamma image is
    a polynomial in C_n, so it commutes with V_n."""
    if n < 1:
        raise ValueError("n must be >= 1")
    V = RingMatrix(
        ZZ,
        [
            [d_kl(n, n - j, k - 1) for k in range(1, n + 1)]
            for j in range(1, n + 1)
        ],
    )
    C = omega_companion(n)
    expected = RingMatrix.identity(ZZ, n).scale(4) + C
    if V * V != expected:
        raise AssertionError(f"V_{n}^2 != 4E + C")
    if V * C != C * V:
        raise AssertionError(f"V_{n} does not commute with C_{n}")
    return V


def f_value(n, m):
    """F(n, m) = sum_j a_{n-j}^(n) b_{m+j}."""
    return sum(f_n_coeff(n, n - j) * catalan_b(m + j) for j in range(n + 1))


def h_value(n, k):
    """H_k^(n), the appendix double sum; identically zero (tested)."""
    first = sum(f_n_coeff(n, j) * f_value(n - 1, n + k - 2 - j) for j in range(k + 1))
    second = sum(
        f_n_coeff(n - 1, j) * f_value(n, n + k - 3 - j) for j in range(k - 1)
    )
    return first - second


# ---------------------------------------------------------------------------
# binary dihedral, N(q,p), K-metacyclic generator images
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def binary_dihedral(p):
    """Trace-free 2x2 images (x, y) over Z[v]/(1 + v + ... + v^{p-1})."""
    require_odd_prime(p)
    ring = QuotientRing(cyclotomic_poly(p).coeffs)
    v = ring.gen()
    v_inv = ring.pow(v, p - 1)
    one, zero = ring.one, ring.zero
    x = RingMatrix(ring, [[zero, one], [ring.neg(one), zero]])
    y = RingMatrix(ring, [[zero, v], [ring.neg(v_inv), zero]])
    return x, y


@lru_cache(maxsize=None)
def nqp_images(q, p):
    """N(q,p) maximum-permutation images: x -> pi(x) (x) C and
    y -> pi(y) (x) C with C the transpose of the companion of t^{2q}-1."""
    require_odd_prime(p)
    require_q(q)
    if gcd(q, p) != 1:
        raise PreconditionError(f"N(q,p) needs gcd(q, p) = 1, got q={q}, p={p}")
    shift = companion_matrix(
        LaurentPoly.from_int_coeffs([-1] + [0] * (2 * q - 1) + [1])
    ).transpose()
    px, py = dihedral_pi(p)
    return px.tensor(shift), py.tensor(shift)


def _perm_matrix(images):
    """Row i carries a 1 in column images[i] (right-action convention,
    so that the matrix of a product is the product of the matrices)."""
    n = len(images)
    rows = [[0] * n for _ in range(n)]
    for i, j in enumerate(images):
        rows[i][j] = 1
    return RingMatrix(ZZ, rows)


@lru_cache(maxsize=None)
def kmeta_images(p, k):
    """K-metacyclic permutation images (sigma(s), sigma(a)) on p points.

    sigma(a) is the p-cycle i -> i+1; sigma(s) fixes 0 and multiplies
    the nonzero residues by k^-1, so that conjugation by s raises a to
    the k-th power.  k must have multiplicative order >= 2 mod p.
    """
    require_odd_prime(p)
    k = k % p
    if k in (0, 1):
        raise PreconditionError(f"k must differ from 0 and 1 mod p={p}")
    k_inv = pow(k, p - 2, p)
    sigma_s = _perm_matrix([(i * k_inv) % p for i in range(p)])
    sigma_a = _perm_matrix([(i + 1) % p for i in range(p)])
    return sigma_s, sigma_a


def multiplicative_order(k, p):
    k %= p
    if k == 0:
        raise ValueError("order of 0 is undefined")
    m = 1
    acc = k
    while acc != 1:
        acc = (acc * k) % p
        m += 1
    return m


# ---------------------------------------------------------------------------
# MatrixRep and assignment search
# ---------------------------------------------------------------------------


class _ImageTable:
    """The multiplication table of the group generated by fixed images.

    Element ids map to image matrices (id 0 is the identity) and
    ``successors[g]`` is a row indexed by letter code (a negative code
    indexes from the end) holding the id of element g times that
    letter's image, or None while unknown.  Rows are lists, not dicts:
    hash(-1) == hash(-2) in CPython, and a dict holding both codes pays
    a slow collision probe on every lookup of the later one.  The table
    grows lazily, one matrix product per miss, and each edge g -> h it
    finds also gives h -> g under the inverse letter at no cost.
    ``parents[h]`` is the edge (g, code) that first reached id h (None
    for the identity), so following parents from h back to 0 spells a
    word whose image is element h.  Once registered the table is shared
    by every rep with the same images in generator order
    (``_image_table``), so threads may grow it at once: an id is
    published in ``successors`` only after its matrix, its parent edge
    and its own successor row are stored, under a lock.
    """

    def __init__(self, images):
        self.images = images
        self.inverses = tuple(m.inverse() for m in images)
        identity = RingMatrix.identity(images[0].ring, images[0].rows)
        self.elements = [identity]
        self.ids = {identity.entries: 0}
        self._width = 2 * len(images) + 1
        self.successors = [[None] * self._width]
        self.parents = [None]
        self._left = {}  # (k, g) -> the id of element k times element g
        self._grow = threading.Lock()

    def image_of_code(self, code):
        return self.images[code - 1] if code > 0 else self.inverses[-code - 1]

    def step(self, g, code):
        """The id of element ``g`` times the image of letter ``code``."""
        h = self.successors[g][code]
        if h is not None:
            return h
        m = self.elements[g] * self.image_of_code(code)
        with self._grow:
            h = self.ids.get(m.entries)
            if h is None:
                h = len(self.elements)
                self.ids[m.entries] = h
                self.elements.append(m)
                self.parents.append((g, code))
                self.successors.append([None] * self._width)
            self.successors[g][code] = h
            self.successors[h][-code] = g
        return h

    def left(self, k, g):
        """The id of element ``k`` times element ``g``: the table steps
        from k along the letters of g's parent path, each memoised, so
        no matrix product is taken beyond the table misses of those
        steps."""
        memo = self._left
        path = []
        while g and (k, g) not in memo:
            path.append(g)
            g = self.parents[g][0]
        x = memo[k, g] if g else k
        for h in reversed(path):
            x = self.step(x, self.parents[h][1])
            memo[k, h] = x
        return x


# the table of every tuple of generator images (in generator order) that
# satisfies the relators of some presentation; a meridian search tries up
# to p^(k-1) tuples, and the tables of those that fail are not kept
_TABLES = {}


def _image_table(images):
    """The registered table of a tuple of generator images, or a fresh
    one that ``MatrixRep`` registers once the relators hold."""
    table = _TABLES.get(images)
    return _ImageTable(images) if table is None else table


class MatrixRep:
    """An assignment generator -> invertible matrix, with t-degree 1 per
    Wirtinger generator; relators are checked at construction.

    The multiplication table of the image group G (``table``) is shared
    by every rep whose coefficient ring and generator images, in
    generator order, are equal, and built lazily: element ids map to
    image matrices (id 0 is the identity) and (id, letter code) to the
    id of the product.  A matrix product is taken only on a table miss,
    so once the at most |G| * 2k edges are known (k generators) a word
    of any length is walked by dictionary lookups alone, and a second
    rep with the same images (another knot at the same p) takes no
    product at all.  A table is shared only once every relator holds on
    it, so a failed assignment leaves nothing behind.  The images of
    every representation here generate a finite group; an infinite image
    keeps the walk correct, only not faster.  A relator holds when its
    walk ends at id 0.
    """

    def __init__(self, pres, images):
        gens = pres.gens
        if set(images) != set(gens):
            raise ValueError("assignment must cover exactly the generators")
        first = images[gens[0]]
        self.coeff_ring = first.ring
        self.dim = first.rows
        for m in images.values():
            if not m.is_square or m.rows != self.dim or m.ring != self.coeff_ring:
                raise ValueError("all images must be square of equal size")
        self.pres = pres
        self.gens = tuple(gens)
        key = tuple(images[g] for g in gens)
        self.table = _image_table(key)
        for rel in pres.relators:
            if self.walk(rel.codes) != 0:
                raise NoValidAssignment(
                    f"relator {rel.to_text()} does not map to the identity"
                )
        self.table = _TABLES.setdefault(key, self.table)

    def image_of_code(self, code):
        return self.table.image_of_code(code)

    def require_letters(self, codes):
        """Raise IndexError unless every letter code names a generator.
        The table's rows are indexed by code, so a foreign code would
        read another letter's entry; the relators of ``pres`` passed this
        check when the presentation was built."""
        k = len(self.gens)
        if codes and (max(codes) > k or min(codes) < -k or 0 in codes):
            raise IndexError(f"a letter code names no generator of {self.gens}")

    def walk(self, codes):
        """The id of the image of the word with letter codes ``codes``,
        which must name generators (``require_letters``)."""
        successors = self.table.successors
        step = self.table.step
        g = 0
        for c in codes:
            h = successors[g][c]
            g = step(g, c) if h is None else h
        return g

    def element(self, g):
        """The image matrix of element id ``g``."""
        return self.table.elements[g]


@lru_cache(maxsize=None)
def _pair_image(s_img, a_img, e):
    return s_img * a_img ** e if e else s_img


def rep_from_pair(pres, s_img, a_img, exponents):
    """Assignment generator_i -> s_img * a_img^exponents[i]."""
    images = {g: _pair_image(s_img, a_img, e) for g, e in zip(pres.gens, exponents)}
    return MatrixRep(pres, images)


def search_assignment(pres, s_img, a_img, a_order):
    """The rep generator_i -> s_img * a_img^e_i for the first exponents
    under which every relator maps to the identity.

    Tries the lexicographic tuples with the first generator pinned to
    s_img, one at a time; for two generators the first one tried is
    (0, 1).  All-equal tuples are skipped: they give abelian images,
    never a genuine metacyclic representation.
    """
    k = len(pres.gens)
    for tail in product(range(a_order), repeat=k - 1):
        cand = (0,) + tail
        if len(set(cand)) == 1:
            continue
        try:
            return rep_from_pair(pres, s_img, a_img, cand)
        except NoValidAssignment:
            continue
    raise NoValidAssignment(
        f"no meridian assignment works for {pres.gens} (order-{a_order} rotation)"
    )


@lru_cache(maxsize=None)
def _rotation(x, y):
    """x^-1 y, which generates the image group together with x, built
    once per pair of images; for the dihedral and N(q,p) images x is a
    reflection and this is the rotation xy."""
    return x.inverse() * y


def dihedral_rep(pres, p, flavor="xi"):
    """A dihedral representation of the presentation.

    flavor 'xi': 2x2 over Z[omega], the paper's irreducible one; 'pi':
    the p-dimensional permutation one.  x maps to the printed x-image and
    y to the printed y-image when that satisfies the relators (it always
    does for 2-bridge knots with p | alpha); otherwise the
    conjugate-assignment search kicks in.
    """
    if flavor == "xi":
        X, Y = dihedral_xi(p)
    elif flavor == "pi":
        X, Y = dihedral_pi(p)
    else:
        raise ValueError(f"unknown dihedral flavor {flavor!r}")
    return search_assignment(pres, X, _rotation(X, Y), p)


def binary_dihedral_rep(pres, p):
    x, y = binary_dihedral(p)
    return search_assignment(pres, x, _rotation(x, y), p)


def nqp_rep(pres, q, p):
    x, y = nqp_images(q, p)
    return search_assignment(pres, x, _rotation(x, y), p)


def kmeta_rep(pres, p, k):
    sigma_s, sigma_a = kmeta_images(p, k)
    return search_assignment(pres, sigma_s, sigma_a, p)


def trivial_rep(pres):
    """The trivial 1-dimensional representation (every generator -> [1])."""
    one = RingMatrix(ZZ, [[1]])
    return MatrixRep(pres, {g: one for g in pres.gens})
