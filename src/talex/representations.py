"""Matrix representations of dihedral and metacyclic knot-group targets.

Builds, exactly over the integers or over Z[omega] = Z[z]/(theta_n(z)):

* the permutation representation ``pi`` and the degree-2n irreducible
  integer representation ``pi0`` of the dihedral group D_p (p = 2n+1),
* the 2x2 representation ``xi`` over Z[omega], where omega is a root of
  the minimal polynomial theta_n,
* its integer form ``eta`` obtained by substituting the companion
  matrix C_n for omega, together with the conjugating matrix U_n,
* the square root V_n of 4E_n + C_n built from the alternating Catalan
  series (the engine behind the f(t)f(-t) factorization),
* binary dihedral (trace-free 2x2 over the p-th cyclotomic ring),
  N(q,p) maximum-permutation (2pq-dimensional integer), and
  K-metacyclic (p-dimensional permutation) representations.

Every constructed representation checks that the relators of its
presentation map to the identity matrix; the U_n and V_n constructors
verify their defining identities on the spot.

A ``MatrixRep`` also owns the multiplication table of its image group,
built lazily as words are walked.  Every image here is finite (at most
2p elements for D_p, 4p for the binary dihedral group, 2pq for N(q,p)),
so walking a relator of length L costs L table lookups plus at most
|G| * 2k matrix products, whatever L is.  ``talex.words`` walks Fox
derivatives through this table.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from math import comb, gcd

from .laurent import LaurentPoly, cyclotomic_poly
from .matrices import RingMatrix, companion_matrix
from .rings import ZZ, QuotientRing


class NoValidAssignment(ValueError):
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


def _require_odd_prime(p):
    if p < 3 or p % 2 == 0 or not is_prime(p):
        raise ValueError(f"p must be an odd prime, got {p}")


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
    _require_odd_prime(p)
    return _pi_images(p)


@lru_cache(maxsize=None)
def _pi_images(p):
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
def dihedral_pi0(p):
    """The degree-2n irreducible integer images (x, y) of D_p."""
    _require_odd_prime(p)
    return _pi0_images(p)


@lru_cache(maxsize=None)
def _pi0_images(p):
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
    _require_odd_prime(p)
    ring = omega_ring((p - 1) // 2)
    w = ring.gen()
    one, zero = ring.one, ring.zero
    neg = ring.neg(one)
    X = RingMatrix(ring, [[neg, one], [zero, one]])
    Y = RingMatrix(ring, [[neg, zero], [w, one]])
    return X, Y


@lru_cache(maxsize=None)
def dihedral_eta(p):
    """The integer 2n-dimensional images of eta = xi followed by the
    companion substitution omega -> C_n."""
    _require_odd_prime(p)
    return _eta_images(p)


@lru_cache(maxsize=None)
def _eta_images(p):
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
    _require_odd_prime(p)
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
        assert a[k] == sub(mul(add(two_plus, w), a[k - 1]), a[k - 2])
        assert mul(w, b[k]) == sub(
            mul(add(ring.one, w), a[k - 1]), a[k - 2]
        )
    running = ring.zero
    for k in range(1, p + 1):
        assert mul(w, b[k]) == sub(a[k], a[k - 1])
        assert mul(w, b[k]) == c[k]
        assert a[k] == add(mul(w, b[k]), d[k])
        assert d[k] == a[k - 1]
        assert b[k] == add(b[k - 1], a[k - 1])
        assert add(c[k], d[k]) == a[k]
        running = add(running, a[k - 1])
        assert running == b[k]
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
    alternating Catalan series; V_n^2 = 4E_n + C_n is verified on
    construction."""
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
    _require_odd_prime(p)
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
    _require_odd_prime(p)
    if q < 1 or gcd(q, p) != 1:
        raise ValueError("need q >= 1 and gcd(q, p) = 1")
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
    _require_odd_prime(p)
    k = k % p
    if k in (0, 1):
        raise ValueError("k must differ from 0 and 1 mod p")
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


class MatrixRep:
    """An assignment generator -> invertible matrix, with t-degree 1 per
    Wirtinger generator; relators are checked at construction.

    The rep owns the multiplication table of its image group G, built
    lazily: element ids map to image matrices (id 0 is the identity) and
    (id, letter code) to the id of the product.  A matrix product is
    taken only on a table miss, so once the at most |G| * 2k edges are
    known (k generators) a word of any length is walked by dictionary
    lookups alone.  The images of every representation here generate a
    finite group; an infinite image keeps the walk correct, only not
    faster.  A relator holds when its walk ends at id 0.
    """

    def __init__(self, pres, images, t_degrees=None):
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
        self.images = dict(images)
        self.t_degrees = dict(t_degrees or {g: 1 for g in gens})
        self._inverses = {g: m.inverse() for g, m in self.images.items()}
        identity = RingMatrix.identity(self.coeff_ring, self.dim)
        self._elements = [identity]
        self._ids = {identity.entries: 0}
        self._next = [{}]
        self._grow = threading.Lock()
        for rel in pres.relators:
            if self.walk(rel.codes) != 0:
                raise NoValidAssignment(
                    f"relator {rel.to_text()} does not map to the identity"
                )

    def image_of_code(self, code):
        name = self.gens[abs(code) - 1]
        return self.images[name] if code > 0 else self._inverses[name]

    def step(self, g, code):
        """The id of element ``g`` times the image of letter ``code``."""
        h = self._next[g].get(code)
        if h is not None:
            return h
        m = self._elements[g] * self.image_of_code(code)
        # threads may share a rep: an id must name the matrix stored under it
        with self._grow:
            h = self._ids.get(m.entries)
            if h is None:
                h = len(self._elements)
                self._ids[m.entries] = h
                self._elements.append(m)
                self._next.append({})
            self._next[g][code] = h
        return h

    def walk(self, codes):
        """The id of the image of the word with letter codes ``codes``."""
        table = self._next
        g = 0
        for c in codes:
            h = table[g].get(c)
            g = self.step(g, c) if h is None else h
        return g

    def element(self, g):
        """The image matrix of element id ``g``."""
        return self._elements[g]

    def word_image(self, word):
        return self._elements[self.walk(word.codes)]


def rep_from_pair(pres, s_img, a_img, exponents):
    """Assignment generator_i -> s_img * a_img^exponents[i]."""
    images = {}
    for g, e in zip(pres.gens, exponents):
        images[g] = s_img * a_img ** e if e else s_img
    return MatrixRep(pres, images)


def search_assignment(pres, s_img, a_img, a_order, preferred=None):
    """Find exponents so every relator maps to the identity.

    Tries ``preferred`` first (when given), then the default (0,1,...)
    meridian pattern, then lexicographic tuples with the first
    generator pinned to s_img.  All-equal tuples are skipped: they give
    abelian images, never a genuine metacyclic representation.
    """
    k = len(pres.gens)
    candidates = []
    if preferred is not None:
        candidates.append(tuple(preferred))
    candidates.append((0,) + (1,) * (k - 1))

    def lex(rest):
        if not rest:
            yield ()
            return
        for e in range(a_order):
            for tail in lex(rest - 1):
                yield (e,) + tail

    for tail in lex(k - 1):
        candidates.append((0,) + tail)
    seen = set()
    for cand in candidates:
        if cand in seen or len(set(cand)) == 1:
            continue
        seen.add(cand)
        try:
            return rep_from_pair(pres, s_img, a_img, cand), cand
        except NoValidAssignment:
            continue
    raise NoValidAssignment(
        f"no meridian assignment works for {pres.gens} (order-{a_order} rotation)"
    )


def dihedral_rep(pres, p, flavor="xi", assignment=None):
    """A dihedral representation of the presentation.

    flavor 'xi': 2x2 over Z[omega]; 'pi0': integer 2n; 'pi': integer p.
    x maps to the printed x-image and y to the printed y-image when
    that satisfies the relators (it always does for 2-bridge knots with
    p | alpha); otherwise the conjugate-assignment search kicks in.
    """
    if flavor == "xi":
        X, Y = dihedral_xi(p)
    elif flavor == "pi0":
        X, Y = dihedral_pi0(p)
    elif flavor == "pi":
        X, Y = dihedral_pi(p)
    elif flavor == "eta":
        X, Y = dihedral_eta(p)
    else:
        raise ValueError(f"unknown dihedral flavor {flavor!r}")
    a_img = X * Y  # the rotation xy of D_p
    rep, _ = search_assignment(pres, X, a_img, p, preferred=assignment)
    return rep


def binary_dihedral_rep(pres, p, assignment=None):
    x, y = binary_dihedral(p)
    rep, _ = search_assignment(pres, x, x.inverse() * y, p, preferred=assignment)
    return rep


def nqp_rep(pres, q, p, assignment=None):
    x, y = nqp_images(q, p)
    px, py = dihedral_pi(p)
    a_img = (px * py).tensor(RingMatrix.identity(ZZ, 2 * q))
    rep, _ = search_assignment(pres, x, a_img, p, preferred=assignment)
    return rep


def kmeta_rep(pres, p, k, assignment=None):
    sigma_s, sigma_a = kmeta_images(p, k)
    rep, _ = search_assignment(pres, sigma_s, sigma_a, p, preferred=assignment)
    return rep


def trivial_rep(pres):
    """The trivial 1-dimensional representation (every generator -> [1])."""
    one = RingMatrix(ZZ, [[1]])
    return MatrixRep(pres, {g: one for g in pres.gens})
