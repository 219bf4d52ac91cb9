"""Exact matrix arithmetic: companion matrices, Bareiss and modular
determinants, the t-grading, the gamma substitution, and companion-based cyclic
products."""

import random

import pytest
import sympy
from sympy.ntheory.primetest import mr

import elim_oracle
import kron_oracle
import quot_oracle
from conftest import P, prod, random_poly
from talex import matrices
from talex.knots import TwoBridgeFraction, presentation
from talex.laurent import DegreeLimitExceeded, LaurentPoly, cyclotomic_poly
from talex.matrices import (
    PolyRing,
    RingMatrix,
    ZZ_POLY,
    _coefficient_bound,
    _eliminated_det,
    _modular_det,
    _modular_det_coeffs,
    _row_shape,
    _slot_plan,
    _t_grading,
    companion_matrix,
    cyclic_product,
    gamma_substitute,
)
from talex.representations import (
    binary_dihedral,
    _eta_images,
    _pi0_images,
    binary_dihedral_rep,
    dihedral_xi,
    is_prime,
    nqp_rep,
    omega_ring,
    theta,
)
from talex.rings import ZZ, NonExactDivision, QuotientRing
from talex.twisted import wada
from talex.words import fox_derivative, rep_evaluate


def det_cofactor(M):
    """Naive cofactor expansion: the independent determinant oracle."""
    r = M.ring

    def rec(rows, cols):
        if len(cols) == 1:
            return M.entries[rows[0]][cols[0]]
        total = r.zero
        for idx, j in enumerate(cols):
            a = M.entries[rows[0]][j]
            if r.is_zero(a):
                continue
            sub = rec(rows[1:], cols[:idx] + cols[idx + 1 :])
            term = r.mul(a, sub)
            total = r.add(total, term) if idx % 2 == 0 else r.sub(total, term)
        return total

    return rec(tuple(range(M.rows)), tuple(range(M.cols)))


def poly_of_matrix(p, C):
    """Evaluate an integer polynomial at an integer matrix (Horner)."""
    n = C.rows
    acc = RingMatrix.zeros(ZZ, n)
    for c in reversed(p.coeffs):
        acc = acc * C
        if c:
            acc = acc + RingMatrix.identity(ZZ, n).scale(c)
    return acc * C ** p.min_deg


def test_companion_of_linear():
    # theta_1(z) = z + 3 gives the 1x1 companion [-3]
    assert companion_matrix(P(3, 1)).entries == ((-3,),)


def test_companion_theta2_annihilates():
    # independent oracle: direct matrix arithmetic shows p(C) = 0
    p = P(5, 5, 1)
    C = companion_matrix(p)
    assert C.entries == ((0, -5), (1, -5))
    assert poly_of_matrix(p, C) == RingMatrix.zeros(ZZ, 2)


def test_companion_i():
    C = companion_matrix(P(1, 0, 1))
    assert C.entries == ((0, -1), (1, 0))
    assert C * C == RingMatrix.identity(ZZ, 2).scale(-1)


def test_companion_requires_monic():
    with pytest.raises(ValueError):
        companion_matrix(P(1, 2))


def test_theta_annihilated_by_companion_up_to_30():
    # theta_n(C_n) = 0 for every n <= 30 with 2n+1 prime
    for n in range(1, 31):
        if is_prime(2 * n + 1):
            t = theta(n)
            assert poly_of_matrix(t, companion_matrix(t)) == RingMatrix.zeros(ZZ, n)


def test_det_2x2_polys():
    t = LaurentPoly.t_power(1)
    one = LaurentPoly.one()
    M = RingMatrix(ZZ_POLY, [[one, t], [t, one]])
    assert M.det() == P(1, 0, -1)


def test_det_pi0_x_is_minus_one():
    x0, _ = _pi0_images(3)
    assert x0.det() == -1


def test_det_singular():
    M = RingMatrix(ZZ, [[1, 1], [1, 1]])
    assert M.det() == 0


def test_bareiss_matches_cofactor_random():
    rng = random.Random(99)
    for _ in range(60):
        n = rng.randrange(1, 6)
        M = RingMatrix(
            ZZ_POLY,
            [
                [random_poly(rng, max_deg=2, max_coef=4) for _ in range(n)]
                for _ in range(n)
            ],
        )
        assert M.det() == det_cofactor(M)


def test_bareiss_matches_sympy_integer():
    rng = random.Random(5)
    for _ in range(25):
        n = rng.randrange(2, 7)
        rows = [[rng.randrange(-9, 10) for _ in range(n)] for _ in range(n)]
        ours = RingMatrix(ZZ, rows).det()
        assert ours == int(sympy.Matrix(rows).det())


def poly_matrix(rng, n, max_deg=3, max_coef=9, density=1.0):
    """A seeded n x n matrix over Z[t^+-1]; each row is shifted by t^-3..t^3,
    so row minima are negative, zero and positive."""
    rows = []
    for _ in range(n):
        shift = rng.randrange(-3, 4)
        rows.append(
            [
                random_poly(rng, max_deg=max_deg, max_coef=max_coef).shift(shift)
                if rng.random() < density
                else LaurentPoly.zero()
                for _ in range(n)
            ]
        )
    return RingMatrix(ZZ_POLY, rows)


def modular(M):
    """The modular route on M, whatever the size rule would pick."""
    shape = _row_shape(M.entries)
    if shape is None:
        return LaurentPoly.zero()
    lows, degree, _ = shape
    return _modular_det(M.entries, lows, degree)


def graded(rng, inner, s):
    """diag(t^r) inner(t^s) diag(t^c) for random potentials r_i, c_j in
    -5..5, built monomial by monomial."""
    n = inner.rows
    r = [rng.randrange(-5, 6) for _ in range(n)]
    c = [rng.randrange(-5, 6) for _ in range(n)]
    return RingMatrix(
        ZZ_POLY,
        [
            [
                LaurentPoly.from_dict({s * k + ri + cj: e.coeff(k) for k in e.support()})
                for e, cj in zip(row, c)
            ]
            for row, ri in zip(inner.entries, r)
        ],
    )


def test_modular_det_matches_cofactor_small():
    rng = random.Random(11)
    for _ in range(60):
        M = poly_matrix(rng, rng.randrange(1, 6), density=rng.choice([0.5, 1.0]))
        assert modular(M) == det_cofactor(M)


def test_modular_det_matches_bareiss():
    rng = random.Random(12)
    for _ in range(12):
        M = poly_matrix(rng, rng.randrange(6, 13), density=rng.choice([0.3, 0.7, 1.0]))
        assert modular(M) == M.det() == M._bareiss()


def test_modular_det_bounds_hold():
    rng = random.Random(13)
    for _ in range(30):
        M = poly_matrix(rng, rng.randrange(1, 7))
        lows, degree, _ = _row_shape(M.entries)
        d = M._bareiss()
        if not d.is_zero:
            assert d.min_deg >= sum(lows) and d.degree <= sum(lows) + degree
            assert max(map(abs, d.coeffs)) <= _coefficient_bound(M.entries)


def test_modular_det_zero_rows_and_columns():
    rng = random.Random(14)
    z = LaurentPoly.zero()
    for n in (4, 9):
        M = poly_matrix(rng, n)
        rows = [list(r) for r in M.entries]
        rows[n // 2] = [z] * n
        with_zero_row = RingMatrix(ZZ_POLY, rows)
        assert with_zero_row.det() == modular(with_zero_row) == z
        cols = RingMatrix(ZZ_POLY, [r[:1] + (z,) + r[2:] for r in M.entries])
        assert modular(cols) == cols._bareiss() == z


def test_modular_det_singular():
    rng = random.Random(15)
    for n in (4, 8, 10):
        M = poly_matrix(rng, n, max_deg=2)
        rows = [list(r) for r in M.entries]
        a, b = random_poly(rng, max_deg=2), random_poly(rng, max_deg=2)
        rows[-1] = [a * x + b * y for x, y in zip(rows[0], rows[1])]
        S = RingMatrix(ZZ_POLY, rows)
        assert S.det() == modular(S) == S._bareiss() == LaurentPoly.zero()


def test_modular_det_vanishing_at_many_points():
    # row i carries (t - 3i)(t - 3i - 1)(t - 3i - 2), so the determinant
    # is zero at x = 1..3n-1, most of the evaluation points
    rng = random.Random(16)
    for n in (3, 5, 9):
        M = poly_matrix(rng, n, max_deg=1, max_coef=3)
        rows = []
        for i, row in enumerate(M.entries):
            w = prod([P(-j, 1) for j in range(3 * i, 3 * i + 3)])
            rows.append([w * e for e in row])
        V = RingMatrix(ZZ_POLY, rows)
        d = modular(V)
        assert d == V._bareiss()
        if n <= 5:
            assert d == det_cofactor(V)
        assert d.is_zero or all(d.shift(-d.min_deg).eval_int(x) == 0 for x in range(1, 3 * n))


@pytest.mark.parametrize("bits, n", [(40, 5), (44, 8)])
def test_modular_det_large_coefficients(bits, n):
    rng = random.Random(bits)
    M = poly_matrix(rng, n, max_deg=2, max_coef=1 << bits)
    bound = _coefficient_bound(M.entries)
    assert bound > 1 << 128 and (n < 8 or bound > 1 << 256)
    d = modular(M)
    assert d == M._bareiss()
    if n <= 5:
        assert d == det_cofactor(M)


def test_modular_det_composite_modulus_is_never_wrong():
    # exactness does not rest on m being prime: a non-unit pivot or
    # interpolation denominator raises ValueError, and any value returned
    # is the determinant
    rng = random.Random(17)
    q, r = 1009, (1 << 61) - 1  # primes; q exceeds every degree bound here
    for n in (4, 8):
        M = poly_matrix(rng, n, max_deg=2, max_coef=5)
        rows = [list(row) for row in M.entries]
        rows[0][0] = LaurentPoly.const(q)  # the first pivot at every point
        Q = RingMatrix(ZZ_POLY, rows)
        for A in (M, Q):
            lows, degree, _ = _row_shape(A.entries)
            assert degree < q and 2 * _coefficient_bound(A.entries) < r
            want = A._bareiss()
            for m in (q * r, 2 * r, r**2, (2**31 - 1) * r, 3 * 5 * 7 * r):
                try:
                    coeffs = _modular_det_coeffs(A.entries, lows, degree, m)
                except ValueError:
                    continue
                assert LaurentPoly(ZZ, sum(lows), coeffs) == want
        with pytest.raises(ValueError):  # the pivot q is not a unit mod q*r
            _modular_det_coeffs(Q.entries, *_row_shape(Q.entries)[:2], q * r)
        with pytest.raises(ValueError):  # nor is the denominator 2 mod 2*r
            _modular_det_coeffs(M.entries, *_row_shape(M.entries)[:2], 2 * r)
        # a composite modulus without small factors gives the determinant
        lows, degree, _ = _row_shape(M.entries)
        coeffs = _modular_det_coeffs(M.entries, lows, degree, (2**31 - 1) * r)
        assert LaurentPoly(ZZ, sum(lows), coeffs) == M._bareiss()


# the moduli the packed kernel is checked at: pseudo-Mersenne primes
# 2^k - c with small c, m = 2^(k-1) + 1 (c = 2^(k-1) - 1, the slowest
# fold), 2^k - 1 and the composite moduli of the test above
R61 = (1 << 61) - 1
KERNEL_MODULI = [
    3,
    101,
    R61,
    (1 << 127) - 1,
    (1 << 89) - 1,
    (1 << 64) - 59,
    (1 << 7) + 1,
    (1 << 63) + 1,
    (1 << 127) + 1,
    (1 << 20) - 1,
    1009 * R61,
    2 * R61,
    R61**2,
    (2**31 - 1) * R61,
    3 * 5 * 7 * R61,
]


def packed_det(rows, m):
    """``_eliminated_det`` on rows of residues, packed at the plan's width."""
    width = _slot_plan(m, len(rows))[3]
    return _eliminated_det([kron_oracle.pack(row, width) for row in rows], m, width)


def same_det(rows, m):
    """The packed kernel and the oracle agree, ValueError included."""
    try:
        want = elim_oracle.eliminated_det(rows, m)
    except ValueError:
        with pytest.raises(ValueError):
            packed_det(rows, m)
        return None
    assert packed_det(rows, m) == want
    return want


@pytest.mark.parametrize("n", [1, 2, 8, 30, 40])
def test_packed_elimination_matches_the_oracle(n):
    rng = random.Random(n)
    for m in KERNEL_MODULI:
        # a composite m may meet a non-unit pivot before a zero column
        zero = {0} if sympy.isprime(m) else {0, None}
        top = m - 1
        same_det([[rng.randrange(m) for _ in range(n)] for _ in range(n)], m)
        # every slot at its largest residue: the most slot growth, and
        # with m - 2 on the diagonal the elimination runs to the end
        assert same_det([[top] * n for _ in range(n)], m) == (top if n == 1 else 0)
        rows = [[top - (i == j) for j in range(n)] for i in range(n)]
        same_det(rows, m)
        # a zero first column in the top rows forces swaps; a zero column
        # or a repeated row gives 0
        rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
        for i in range(n // 2):
            rows[i][0] = 0
        same_det(rows, m)
        if n > 1:
            column = rng.randrange(n)
            zero_column = [row[:column] + [0] + row[column + 1 :] for row in rows]
            assert same_det(zero_column, m) in zero
            rows[-1] = list(rows[0])
            assert same_det(rows, m) in zero
    # prime moduli give the nonzero determinants that these matrices have
    assert same_det([[100 - (i == j) for j in range(n)] for i in range(n)], 101) != 0


@pytest.mark.parametrize("n", [1, 2, 8, 30])
def test_packed_elimination_raises_on_a_non_unit_pivot(n):
    rng = random.Random(100 + n)
    m = 1009 * R61
    rows = [[rng.randrange(m) for _ in range(n)] for _ in range(n)]
    rows[0][0] = 1009  # the first pivot, nonzero and not a unit mod m
    for i in range(1, n):
        rows[i][0] = 0
    with pytest.raises(ValueError):
        elim_oracle.eliminated_det(rows, m)
    with pytest.raises(ValueError):
        packed_det(rows, m)
    # a non-unit that appears only after the first step: row 1 becomes
    # (0, 15, ...) mod 15 * R61 once row 0 is eliminated
    if n >= 2:
        m = 15 * R61
        rows = [[1] * n, [1, 16] + [rng.randrange(m) for _ in range(n - 2)]]
        rows += [[rng.randrange(m) for _ in range(n)] for _ in range(n - 2)]
        with pytest.raises(ValueError):
            elim_oracle.eliminated_det(rows, m)
        with pytest.raises(ValueError):
            packed_det(rows, m)


@pytest.mark.parametrize("m", KERNEL_MODULI + [2, 4, 1 << 64])
def test_slot_plan_folds_every_slot_below_its_top(m):
    # the fold count is fixed before the elimination and finite for
    # every m >= 2, and that many folds bring every slot of a row below
    # 2^(k+2) without a carry between slots
    rng = random.Random(m)
    for n in (2, 8, 40):
        k, c, folds, width = _slot_plan(m, n)
        assert m == (1 << k) - c and 0 <= c < 1 << max(k - 1, 0)
        assert width % 8 == 0
        top = 1 << (k + 2)
        largest = (m - 1) * (1 + (n - 1) * (top - 1))
        assert largest < 1 << (width - 1)
        if 0 < c < 1 << 10 and k > 40:
            assert folds == 2
        slots = [largest] * 2 + [rng.randrange(largest + 1) for _ in range(n - 2)]
        mask = (1 << width) - 1
        ones = kron_oracle.pack([1] * n, width)
        value = kron_oracle.pack(slots, width)
        for _ in range(folds):
            value = (value & ones * ((1 << k) - 1)) + c * ((value >> k) & ones * (mask >> k))
        folded = [(value >> (j * width)) & mask for j in range(n)]
        assert value >> (n * width) == 0
        assert all(s < top for s in folded)
        assert [s % m for s in folded] == [s % m for s in slots]
    k = (m - 1).bit_length()
    if m == (1 << (k - 1)) + 1 and k > 8:
        # c = 2^(k-1) - 1 takes off about one bit a fold
        assert folds > k


def test_modular_det_takes_the_first_pseudo_mersenne_prime(monkeypatch):
    rng = random.Random(22)
    M = poly_matrix(rng, 9, max_deg=2, max_coef=5)
    lows, degree, _ = _row_shape(M.entries)
    want = M._bareiss()
    real = matrices._modular_det_coeffs

    def primes_above(floor):
        """2^k - c for c >= 2 in the search order of ``_modular_det``,
        base-2 strong probable primes only."""
        k = floor.bit_length()
        while True:
            for c in range(2, (1 << k) - floor):
                if mr((1 << k) - c, [2]):
                    yield (1 << k) - c
            k += 1

    def forged(*args):
        # a non-unit at the first modulus moves the search to the next
        tried.append(args[3])
        if len(tried) == 1:
            raise ValueError("forged non-unit")
        return real(*args)

    monkeypatch.setattr(matrices, "_modular_det_coeffs", forged)
    floor = max(2 * _coefficient_bound(M.entries), degree)
    tried = []
    assert _modular_det(M.entries, lows, degree) == want
    search = primes_above(floor)
    assert tried == [next(search), next(search)]
    assert tried[0].bit_length() == floor.bit_length()
    # 2^101 - 1 is composite and a base-2 strong probable prime, so the
    # search never takes c = 1; above a floor of 2^101 - 2 it moves on to
    # k = 102
    assert mr((1 << 101) - 1, [2]) and not sympy.isprime((1 << 101) - 1)
    monkeypatch.setattr(matrices, "_coefficient_bound", lambda entries: (1 << 100) - 1)
    tried = []
    assert _modular_det(M.entries, lows, degree) == want
    search = primes_above((1 << 101) - 2)
    assert tried == [next(search), next(search)]
    assert tried[0].bit_length() == 102


def test_modular_det_degree_guard(monkeypatch):
    rng = random.Random(18)
    M = poly_matrix(rng, 30, max_deg=1, max_coef=3)
    lows, degree, nonzero = _row_shape(M.entries)
    assert nonzero >= 2 * degree  # det() takes the modular route

    def evaluate(*args):
        raise AssertionError("evaluated past the degree guard")

    monkeypatch.setattr(matrices, "_modular_det_coeffs", evaluate)
    monkeypatch.setenv("TALEX_MAX_DEGREE", str(degree - 1))
    with pytest.raises(DegreeLimitExceeded):
        M.det()
    # a graded matrix is held to its bound in t, s * D', not to the D' of
    # its compressed form
    G = graded(rng, M, 4)
    s, _, compressed = _t_grading(G.entries)
    lows, degree, nonzero = _row_shape(compressed)
    assert s == 4 and nonzero >= 2 * degree
    monkeypatch.setenv("TALEX_MAX_DEGREE", str(s * degree - 1))
    with pytest.raises(DegreeLimitExceeded):
        G.det()
    monkeypatch.setenv("TALEX_MAX_DEGREE", str(s * degree))
    with pytest.raises(AssertionError, match="evaluated past"):
        G.det()


def test_det_size_rule(monkeypatch):
    # the modular route takes the dense Fox-shaped matrices from 8x8 on,
    # Bareiss the small and the sparse high-degree ones
    calls = []
    route = matrices._modular_det
    monkeypatch.setattr(
        matrices, "_modular_det", lambda *a: calls.append(a) or route(*a)
    )
    rng = random.Random(19)
    dense = poly_matrix(rng, 10, max_deg=1)
    assert dense.det() == dense._bareiss() and len(calls) == 1
    small = poly_matrix(rng, 7, max_deg=1)
    assert small.det() == small._bareiss() and len(calls) == 1
    # 1 + t^6 + t^7 has exponent gcd 1, so the matrix is not t-graded
    sparse = RingMatrix(
        ZZ_POLY,
        [
            [P(1, 0, 0, 0, 0, 0, 1, 1) if j in (i, (i + 1) % 9) else LaurentPoly.zero() for j in range(9)]
            for i in range(9)
        ],
    )
    assert sparse.det() == sparse._bareiss() and len(calls) == 1


@pytest.mark.parametrize("s", [2, 3, 6, 8])
def test_graded_det_matches_bareiss_on_both_routes(monkeypatch, s):
    calls = []
    route = matrices._modular_det
    monkeypatch.setattr(
        matrices, "_modular_det", lambda *a: calls.append(a) or route(*a)
    )
    rng = random.Random(40 + s)
    z = LaurentPoly.zero()
    inners = [
        poly_matrix(rng, n, max_deg=1, density=density)
        for n, density in ((4, 1.0), (6, 0.5), (9, 1.0), (10, 1.0), (10, 0.8))
    ]
    a, b = poly_matrix(rng, 3, max_deg=2), poly_matrix(rng, 6, max_deg=1)
    inners.append(  # two components
        RingMatrix.block(
            [[a, RingMatrix.zeros(ZZ_POLY, 3, 6)], [RingMatrix.zeros(ZZ_POLY, 6, 3), b]]
        )
    )
    rows = [list(row) for row in poly_matrix(rng, 8, max_deg=1).entries]
    rows[3] = [z] * 8
    inners.append(RingMatrix(ZZ_POLY, rows))  # a zero row
    rows = [list(row) for row in poly_matrix(rng, 9, max_deg=1).entries]
    x, y = random_poly(rng, max_deg=1), random_poly(rng, max_deg=1)
    rows[-1] = [x * u + y * v for u, v in zip(rows[0], rows[1])]
    inners.append(RingMatrix(ZZ_POLY, rows))  # singular
    for inner in inners:
        A = graded(rng, inner, s)
        assert _t_grading(A.entries)[0] % s == 0
        assert A.det() == A._bareiss()
    # the singular case and the zero row give 0; the dense ones go modular
    assert 0 < len(calls) < len(inners)


def test_ungraded_matrices_are_not_reduced():
    rng = random.Random(20)
    assert _t_grading(poly_matrix(rng, 6).entries) is None
    # a monomial in every entry: A' is an integer matrix
    A = graded(rng, RingMatrix(ZZ_POLY, [[P(rng.randrange(-4, 5)) for _ in range(5)] for _ in range(5)]), 1)
    assert _t_grading(A.entries)[0] > 1
    assert A.det() == A._bareiss()


def test_graded_bareiss_degree_guard_reads_t_spans(monkeypatch):
    # the bound in t, s * D' for the bound D' of the compressed matrix, is
    # checked once before the graded Bareiss runs: det() raises exactly
    # when the cap is below it, and then eliminates nothing
    rng = random.Random(21)
    A = graded(rng, poly_matrix(rng, 5, max_deg=2), 3)
    s, _, compressed = _t_grading(A.entries)
    degree = _row_shape(compressed)[1]
    assert s == 3 and degree > 0
    eliminated = []
    bareiss = RingMatrix._bareiss
    monkeypatch.setattr(
        RingMatrix, "_bareiss", lambda self: eliminated.append(self) or bareiss(self)
    )
    want = A.det()
    for cap in range(s * degree + s + 1):
        monkeypatch.setenv("TALEX_MAX_DEGREE", str(cap))
        eliminated.clear()
        if cap < s * degree:
            with pytest.raises(DegreeLimitExceeded):
                A.det()
            assert eliminated == [], cap
        else:
            assert A.det() == want and len(eliminated) == 1, cap


def fox_numerator(f, q, p):
    """The 2pq-dimensional N(q,p) Fox matrix whose det is the Wada numerator."""
    pres = presentation(f)
    rep = nqp_rep(pres, q, p)
    return RingMatrix.block(
        [
            [rep_evaluate(fox_derivative(r, m, rep)) for m in range(1, pres.num_gens)]
            for r in pres.relators
        ]
    )


def test_nqp_fox_numerators_are_graded_by_2q(monkeypatch):
    M = fox_numerator(TwoBridgeFraction(27, 5), 4, 3)
    assert _t_grading(M.entries)[0] == 8
    lows, degree, _ = _row_shape(M.entries)
    assert M.det() == _modular_det(M.entries, lows, degree)
    M = fox_numerator(TwoBridgeFraction(85, 19), 3, 5)
    assert _row_shape(M.entries)[1] == 360  # 361 eliminations ungraded
    assert _t_grading(M.entries)[0] == 6
    calls = []
    eliminate = matrices._eliminated_det
    monkeypatch.setattr(
        matrices, "_eliminated_det", lambda *a: calls.append(a) or eliminate(*a)
    )
    M.det()
    assert len(calls) <= 68


def test_gamma_substituted_binary_dihedral_matrix_is_graded():
    pres = presentation(TwoBridgeFraction(287, 1))
    quotient = wada(pres, binary_dihedral_rep(pres, 7))
    M = gamma_substitute(quotient)
    assert M.rows == 6 and _t_grading(M.entries)[0] == 2


def test_inverse_permutation_and_unimodular():
    perm = RingMatrix(ZZ, [[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert perm.inverse() == perm.transpose()
    M = RingMatrix(ZZ, [[2, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])
    inv = M.inverse()
    assert M * inv == RingMatrix.identity(ZZ, 4)


def random_unimodular(rng, ring, n, entry):
    """A product of 3n elementary matrices with off-diagonal entries
    ``entry(rng)``, times a sign on its first row."""
    M = RingMatrix.identity(ring, n)
    for _ in range(3 * n):
        i, j = rng.sample(range(n), 2)
        rows = [[ring.one if a == b else ring.zero for b in range(n)] for a in range(n)]
        rows[i][j] = entry(rng)
        M = M * RingMatrix(ring, rows)
    if rng.random() < 0.5:
        M = RingMatrix(ring, [[ring.neg(x) for x in M.entries[0]], *M.entries[1:]])
    return M


@pytest.mark.parametrize("n", range(2, 9))
def test_inverse_of_random_unimodular_integer_matrices(n):
    rng = random.Random(n)
    for _ in range(20):
        M = random_unimodular(rng, ZZ, n, lambda r: r.randrange(-3, 4))
        inv = M.inverse()
        assert M * inv == RingMatrix.identity(ZZ, n) == inv * M


@pytest.mark.parametrize("p", [3, 5, 7, 11, 13])
def test_inverse_of_the_representation_images(p):
    for images in (dihedral_xi(p), _pi0_images(p), binary_dihedral(p), _eta_images(p)):
        for M in images:
            assert M * M.inverse() == RingMatrix.identity(M.ring, M.rows)


def test_inverse_of_a_unimodular_matrix_over_z_omega():
    ring = omega_ring(2)
    w = ring.gen()
    unit = ring.add(ring.from_int(3), w)  # norm theta_2(-3) = -1
    rng = random.Random(4)
    M = random_unimodular(
        rng, ring, 4, lambda r: quot_oracle.reduce([r.randrange(-2, 3), r.randrange(-2, 3)], ring)
    )
    diagonal = [list(row) for row in RingMatrix.identity(ring, 4).entries]
    diagonal[2][2] = unit
    M = M * RingMatrix(ring, diagonal)
    inv = M.inverse()
    assert M * inv == RingMatrix.identity(ring, 4) == inv * M


def test_inverse_of_a_singular_or_non_unimodular_matrix_raises():
    with pytest.raises(ZeroDivisionError):
        RingMatrix(ZZ, [[1, 2, 3, 4], [2, 4, 6, 8], [0, 1, 0, 1], [1, 0, 1, 0]]).inverse()
    with pytest.raises(ZeroDivisionError):
        RingMatrix(omega_ring(1), [[(1,), (2,)], [(2,), (4,)]]).inverse()
    M = RingMatrix(ZZ, [[2, 1, 0, 0], [1, 1, 0, 0], [0, 0, 2, 1], [0, 0, 0, 1]])
    assert M.det() == 2
    with pytest.raises(NonExactDivision):
        M.inverse()


def test_gamma_substitute_constant_and_linear():
    ring = QuotientRing(theta(1).coeffs)  # z + 3
    # 4 + omega -> [1]
    p = LaurentPoly.const(ring.add(ring.from_int(4), ring.gen()), ring)
    assert gamma_substitute(p).entries == ((P(1),),)
    # the constant 1 -> identity
    one = LaurentPoly.one(ring)
    assert gamma_substitute(one).entries == ((P(1),),)


def test_gamma_substitute_omega_t_n2():
    ring = QuotientRing(theta(2).coeffs)  # z^2 + 5z + 5
    p = LaurentPoly(ring, 1, [ring.gen()])
    M = gamma_substitute(p)
    t = LaurentPoly.t_power(1)
    assert M.entries == (
        (LaurentPoly.zero(), P(-5).shift(1)),
        (t, P(-5).shift(1)),
    )


def test_gamma_substitute_identity_size():
    ring = QuotientRing(theta(3).coeffs)
    M = gamma_substitute(LaurentPoly.one(ring))
    assert M.rows == 3
    assert M == RingMatrix.identity(PolyRing(ZZ), 3)


def brute_cyclic_product(Ppoly, m):
    """Independent oracle: symbolic product over the exact roots of m."""
    t, z = sympy.symbols("t z")
    m_expr = sum(int(c) * z**k for k, c in enumerate(m.coeffs))
    p_expr = sum(
        int(Ppoly.coeff(k)) * t**k for k in Ppoly.support()
    )
    roots = sympy.roots(sympy.Poly(m_expr, z))
    acc = sympy.Integer(1)
    for root, mult in roots.items():
        acc *= (p_expr.subs(t, root * t)) ** mult
    return sympy.expand(acc)


def to_sympy(p):
    t = sympy.Symbol("t")
    return sympy.expand(sum(int(p.coeff(k)) * t**k for k in p.support()))


def test_cyclic_product_examples():
    assert cyclic_product(P(1, -1), P(-1, 0, 1)) == P(1, 0, -1)
    # (1 + it - t^2)(1 - it - t^2) = 1 - t^2 + t^4, by the brute-force
    # oracle below (and by hand)
    assert cyclic_product(P(1, 1, 1), P(1, 0, 1)) == P(1, 0, -1, 0, 1)
    assert cyclic_product(P(5), P(0, 0, 0, 1) + P(-1)) == P(125)


def test_cyclic_product_against_symbolic_roots():
    rng = random.Random(31)
    mods = [P(-1, 0, 1), P(1, 0, 1), P(-1, 0, 0, 1), P(-1, 0, 0, 0, 1), cyclotomic_poly(6)]
    for m in mods:
        for _ in range(4):
            p = random_poly(rng, max_deg=5, max_coef=6, laurent=False)
            assert to_sympy(cyclic_product(p, m)) == brute_cyclic_product(p, m)


def test_cyclic_product_rejects_laurent_input():
    # every caller passes a canonical total; min_deg != 0 is refused the
    # way companion_matrix refuses it
    for shift in (-1, 1):
        with pytest.raises(ValueError):
            cyclic_product(P(1, -1).shift(shift), P(-1, 0, 1))


def test_block_and_tensor():
    A = RingMatrix(ZZ, [[1, 2], [3, 4]])
    B = RingMatrix(ZZ, [[0, 1], [1, 0]])
    blk = RingMatrix.block([[A, B], [B, A]])
    assert blk.rows == 4 and blk[0, 2] == 0 and blk[0, 3] == 1
    tens = A.tensor(B)
    assert tens.rows == 4 and tens[0, 1] == 1 and tens[1, 0] == 1 and tens[0, 3] == 2
