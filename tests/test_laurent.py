"""Exact Laurent polynomial arithmetic, including the bigint fast paths."""

import json
import random

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import P, Pstep, prod, random_poly
from talex.laurent import (
    DegreeLimitExceeded,
    LaurentPoly,
    cyclotomic_poly,
    gf_xgcd,
    modp_unit_equal,
)
from talex.rings import ZZ, GFp, NonExactDivision, QuotientRing, RingMismatch

coeff_lists = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12)
offsets = st.integers(-6, 6)


def test_zero_normal_form():
    z = LaurentPoly.from_int_coeffs([0, 0, 0], min_deg=5)
    assert z.is_zero and z.min_deg == 0 and z.coeffs == ()


def test_trimming_keeps_ends_nonzero():
    p = LaurentPoly.from_int_coeffs([0, 1, 0, 2, 0], min_deg=-3)
    assert p.min_deg == -2
    assert p.coeffs == (1, 0, 2)


def test_mul_small():
    assert P(1, 1) * P(1, -1) == P(1, 0, -1)


def test_negate_t_paper_pair():
    # the two quartic factors of the K(5/27) dihedral total are
    # t -> -t images of each other
    a = P(1, 1, -1, 1, 1)
    b = P(1, -1, -1, -1, 1)
    assert a.negate_t() == b
    assert b.negate_t() == a


def test_add_identity():
    p = P(3, -1, 2)
    assert p + LaurentPoly.zero() == p
    assert LaurentPoly.zero() + p == p


@given(coeff_lists, coeff_lists, offsets, offsets)
@settings(max_examples=150, deadline=None)
def test_mul_matches_schoolbook_reference(a, b, sa, sb):
    pa = LaurentPoly.from_int_coeffs(a, min_deg=sa)
    pb = LaurentPoly.from_int_coeffs(b, min_deg=sb)
    out = {}
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            k = sa + i + sb + j
            out[k] = out.get(k, 0) + x * y
    assert pa * pb == LaurentPoly.from_dict(out)


@given(coeff_lists, coeff_lists, offsets, offsets)
@settings(max_examples=100, deadline=None)
def test_ring_axioms(a, b, sa, sb):
    pa = LaurentPoly.from_int_coeffs(a, min_deg=sa)
    pb = LaurentPoly.from_int_coeffs(b, min_deg=sb)
    assert pa + pb == pb + pa
    assert pa * pb == pb * pa
    assert pa - pa == LaurentPoly.zero()
    assert (pa + pb).negate_t() == pa.negate_t() + pb.negate_t()
    assert (pa * pb).negate_t() == pa.negate_t() * pb.negate_t()


def test_exact_div_examples():
    assert P(1, 0, 0, 0, -1).exact_div(P(1, 0, -1)) == -P(-1, 0, -1)
    assert P(1, 0, 0, 0, 0, 0, -1).exact_div(P(1, 1) * P(1, -1)) == P(1, 0, 1, 0, 1)
    num = P(1, -1, 1) * P(1, 1)
    assert num.exact_div(P(1, 1)) == P(1, -1, 1)


def test_exact_div_kronecker_roundtrip_census():
    # 1000 random pairs, degree <= 40, coefficients <= 1e6
    rng = random.Random(1234)
    for _ in range(1000):
        a = LaurentPoly.from_int_coeffs(
            [rng.randrange(-10**6, 10**6 + 1) for _ in range(rng.randrange(1, 41))],
            min_deg=rng.randrange(-5, 6),
        )
        b = LaurentPoly.from_int_coeffs(
            [rng.randrange(-10**6, 10**6 + 1) for _ in range(rng.randrange(1, 41))],
            min_deg=rng.randrange(-5, 6),
        )
        if a.is_zero or b.is_zero:
            continue
        assert (a * b).exact_div(b) == a


def test_exact_div_failure_carries_remainder():
    with pytest.raises(NonExactDivision) as err:
        P(1, 1, 1).exact_div(P(1, 1))
    assert err.value.remainder is not None


def test_exact_div_failure_large_kronecker_path():
    num = prod([P(1, 1)] * 3) * Pstep(7, *range(1, 9)) + P(1)
    with pytest.raises(NonExactDivision):
        num.exact_div(P(1, 1))


def test_ring_mismatch_raises():
    ring = QuotientRing((3, 1))
    with pytest.raises(RingMismatch):
        P(1, 1) * LaurentPoly.const(ring.one, ring)


def test_quotient_coeff_kronecker_mul():
    ring = QuotientRing((5, 5, 1))  # z^2 + 5z + 5
    rng = random.Random(7)

    def rand():
        return LaurentPoly.from_dict(
            {
                k: (rng.randrange(-9, 10), rng.randrange(-9, 10))
                for k in range(rng.randrange(1, 26))
            },
            ring,
        )

    for _ in range(20):
        a, b = rand(), rand()
        slow = LaurentPoly.zero(ring)
        for i, x in enumerate(a.coeffs):
            if ring.is_zero(x):
                continue
            row = {
                a.min_deg + i + b.min_deg + j: ring.mul(x, y)
                for j, y in enumerate(b.coeffs)
            }
            slow = slow + LaurentPoly.from_dict(row, ring)
        assert a * b == slow


@pytest.mark.parametrize("p", [3, 5, 7, 101])
def test_gfp_kronecker_mul_matches_schoolbook(p):
    # above the schoolbook cutoff GF(p) products pack the residues as
    # integers; the reference multiplies residue by residue
    gf = GFp(p)
    rng = random.Random(p)

    def rand(span):
        return LaurentPoly(
            gf, rng.randrange(-4, 5), [rng.randrange(p) for _ in range(span)]
        )

    for _ in range(25):
        a, b = rand(rng.randrange(1, 40)), rand(rng.randrange(1, 40))
        out = {}
        for i, x in enumerate(a.coeffs):
            for j, y in enumerate(b.coeffs):
                k = a.min_deg + b.min_deg + i + j
                out[k] = gf.add(out.get(k, 0), gf.mul(x, y))
        assert a * b == LaurentPoly.from_dict(out, gf)
    # zero results: a zero factor, and coefficients that cancel mod p
    assert rand(30) * LaurentPoly.zero(gf) == LaurentPoly.zero(gf)
    ones = LaurentPoly(gf, 0, [1] * 30)
    assert ones * LaurentPoly(gf, 0, [1, p - 1]) == LaurentPoly(gf, 0, [1] + [0] * 29 + [p - 1])


def test_canonical_normalization():
    p = LaurentPoly.from_int_coeffs([-1, 0, 2], min_deg=-4)
    c = p.canonical()
    assert c.min_deg == 0 and c.coeffs == (1, 0, -2)
    assert p.canonical() == (-p.shift(17)).canonical()
    assert p.canonical() != (p + P(1)).canonical()


def test_eval_int():
    assert P(1, -1, 1).eval_int(-1) == 3
    assert Pstep(2, 1, 1).eval_int(2) == 5


def test_json_roundtrip():
    p = LaurentPoly.from_int_coeffs([12, 0, -7], min_deg=-2)
    blob = json.dumps(p.to_json())
    assert LaurentPoly.from_json(json.loads(blob)) == p


def test_cyclotomic_small():
    assert cyclotomic_poly(1) == P(-1, 1)
    assert cyclotomic_poly(4) == P(1, 0, 1)


def test_cyclotomic_against_sympy():
    t = sympy.Symbol("t")
    for m in (2, 3, 5, 6, 10, 12):
        ours = cyclotomic_poly(m)
        theirs = sympy.Poly(sympy.cyclotomic_poly(m, t), t).all_coeffs()[::-1]
        assert list(ours.coeffs) == [int(c) for c in theirs]


def test_modp_unit_equal():
    assert modp_unit_equal(P(1, 1), P(2, 2).shift(3), 5)
    assert not modp_unit_equal(P(1, 1), P(1, 2), 5)
    assert modp_unit_equal(P(5, 5), LaurentPoly.zero(), 5)


def test_degree_guard(monkeypatch):
    monkeypatch.setenv("TALEX_MAX_DEGREE", "10")
    with pytest.raises(DegreeLimitExceeded):
        Pstep(7, 1, 1) * Pstep(7, 1, 1)
    monkeypatch.delenv("TALEX_MAX_DEGREE")
    assert Pstep(7, 1, 1) * Pstep(7, 1, 1) == Pstep(7, 1, 2, 1)


def _gf_coprime(a, b, p):
    # the independent oracle: sympy's gcd over GF(p)
    x = sympy.Symbol("x")

    def to_sympy(f):
        dense = [0] * f.min_deg + list(f.coeffs)
        return sympy.Poly(dense[::-1], x, modulus=p)

    return to_sympy(a).gcd(to_sympy(b)).degree() == 0


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gf_xgcd_bezout_on_random_coprime_pairs(p):
    rng = random.Random(p)
    gf = GFp(p)

    def rand():
        deg = rng.randrange(0, 9)
        coeffs = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
        return LaurentPoly(gf, 0, coeffs)

    coprime = 0
    while coprime < 30:
        a, b = rand(), rand()
        if not _gf_coprime(a, b, p):
            with pytest.raises(ValueError):
                gf_xgcd(a, b)
            continue
        coprime += 1
        s, t = gf_xgcd(a, b)
        assert s * a + t * b == LaurentPoly.one(gf)
        assert s.is_zero or s.degree < max(b.degree, 1)
        assert t.is_zero or t.degree < max(a.degree, 1)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_gf_xgcd_rejects_pairs_that_are_not_coprime(p):
    rng = random.Random(10 + p)
    gf = GFp(p)
    for _ in range(10):
        common = LaurentPoly(gf, 0, [rng.randrange(p), rng.randrange(1, p)])
        a = common * LaurentPoly(gf, 0, [rng.randrange(1, p), 1, rng.randrange(p)])
        b = common * LaurentPoly(gf, 0, [rng.randrange(p), rng.randrange(1, p)])
        with pytest.raises(ValueError):
            gf_xgcd(a, b)
    # a power of t is a common factor of polynomials, not a unit
    with pytest.raises(ValueError):
        gf_xgcd(LaurentPoly(gf, 1, [1, 1]), LaurentPoly(gf, 2, [1]))
