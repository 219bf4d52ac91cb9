"""Exact matrix arithmetic: companion matrices, Bareiss determinants,
the gamma substitution, and companion-based cyclic products."""

import random

import pytest
import sympy

from conftest import P, Pstep, random_poly
from talex.laurent import LaurentPoly, cyclotomic_poly
from talex.matrices import (
    PolyRing,
    RingMatrix,
    ZZ_POLY,
    companion_matrix,
    cyclic_product,
    gamma_substitute,
)
from talex.representations import dihedral_pi0, is_prime, theta
from talex.rings import ZZ, QuotientRing


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
    x0, _ = dihedral_pi0(3)
    assert x0.det() == -1


def test_det_singular():
    M = RingMatrix.from_int_rows([[1, 1], [1, 1]])
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
        ours = RingMatrix.from_int_rows(rows).det()
        assert ours == int(sympy.Matrix(rows).det())


def test_inverse_permutation_and_unimodular():
    perm = RingMatrix.from_int_rows([[0, 1, 0], [0, 0, 1], [1, 0, 0]])
    assert perm.inverse() == perm.transpose()
    M = RingMatrix.from_int_rows([[2, 1, 1, 0], [1, 1, 0, 0], [0, 0, 1, 1], [0, 0, 1, 2]])
    inv = M.inverse()
    assert M * inv == RingMatrix.identity(ZZ, 4)


def test_gamma_substitute_constant_and_linear():
    ring = QuotientRing(theta(1).coeffs)  # z + 3
    C = companion_matrix(theta(1))
    # 4 + omega -> [1]
    p = LaurentPoly.const(ring.add(ring.from_int(4), ring.gen()), ring)
    assert gamma_substitute(p, C).entries == ((P(1),),)
    # the constant 1 -> identity
    one = LaurentPoly.one(ring)
    assert gamma_substitute(one, C).entries == ((P(1),),)


def test_gamma_substitute_omega_t_n2():
    ring = QuotientRing(theta(2).coeffs)  # z^2 + 5z + 5
    C = companion_matrix(theta(2))
    p = LaurentPoly(ring, 1, [ring.gen()])
    M = gamma_substitute(p, C)
    t = LaurentPoly.t_power(1)
    assert M.entries == (
        (LaurentPoly.zero(), P(-5).shift(1)),
        (t, P(-5).shift(1)),
    )


def test_gamma_substitute_identity_size():
    ring = QuotientRing(theta(3).coeffs)
    C = companion_matrix(theta(3))
    M = gamma_substitute(LaurentPoly.one(ring), C)
    assert M.rows == 3
    assert M == RingMatrix.identity(PolyRing(ZZ), 3)


def test_gamma_mismatch_rejected():
    ring = QuotientRing(theta(2).coeffs)
    with pytest.raises(ValueError):
        gamma_substitute(LaurentPoly.one(ring), companion_matrix(theta(3)))


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


def test_cyclic_product_laurent_shift():
    # t^-1 factors contribute (product of roots)^shift * t^(d*shift):
    # here the roots are +-1, so an extra global sign
    p = P(1, -1).shift(-1)
    m = P(-1, 0, 1)
    direct = cyclic_product(p, m)
    unshifted = cyclic_product(P(1, -1), m)
    assert direct == -(unshifted.shift(-2))


def test_block_and_tensor():
    A = RingMatrix.from_int_rows([[1, 2], [3, 4]])
    B = RingMatrix.from_int_rows([[0, 1], [1, 0]])
    blk = RingMatrix.block([[A, B], [B, A]])
    assert blk.rows == 4 and blk[0, 2] == 0 and blk[0, 3] == 1
    tens = A.tensor(B)
    assert tens.rows == 4 and tens[0, 1] == 1 and tens[1, 0] == 1 and tens[0, 3] == 2
