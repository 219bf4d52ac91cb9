"""Exact Laurent polynomial arithmetic, including the bigint fast paths."""

import json
import random
from itertools import zip_longest

import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

import kron_oracle
from conftest import P, Pstep, from_json, prod, random_poly
from talex import laurent
from talex.laurent import (
    _SCHOOLBOOK_CUTOFF,
    DegreeLimitExceeded,
    LaurentPoly,
    PreconditionError,
    _byte_width,
    _gf_divmod,
    _pack,
    _unpack,
    cyclotomic_poly,
    gf_xgcd,
    modp_unit_equal,
)
from talex.rings import ZZ, GFp, NonExactDivision, QuotientRing, RingMismatch

coeff_lists = st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=12)
offsets = st.integers(-6, 6)


def _schoolbook(a, b):
    ring = a.ring
    out = {}
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            k = a.min_deg + b.min_deg + i + j
            out[k] = ring.add(out.get(k, ring.zero), ring.mul(x, y))
    return LaurentPoly.from_dict(out, ring)


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


def test_exact_div_failure_schoolbook_path():
    with pytest.raises(NonExactDivision):
        P(1, 1, 1).exact_div(P(1, 1))


def test_divmod_poly_inverts_the_leading_coefficient_once(monkeypatch):
    ring = QuotientRing((5, 5, 1))  # theta_2
    w = ring.gen()
    u = ring.add(ring.from_int(3), w)  # norm theta(-3) = -1: a unit
    den = LaurentPoly(ring, -1, [w, ring.from_int(-2), u])
    quot = LaurentPoly(ring, 2, [ring.from_int(k - 3) for k in range(6)] + [ring.one])
    num = quot * den
    inverted = []
    divider = QuotientRing.divider

    def recording(self, b):
        inverted.append(b)
        return divider(self, b)

    monkeypatch.setattr(QuotientRing, "divider", recording)
    q, r = num.divmod_poly(den)
    assert (q, r.is_zero) == (quot, True)
    assert inverted == [u]
    # the leading coefficient u of num is not divisible by 2
    with pytest.raises(NonExactDivision):
        num.divmod_poly(LaurentPoly(ring, 0, [ring.one, ring.from_int(2)]))


def test_exact_div_failure_large_kronecker_path():
    num = prod([P(1, 1)] * 3) * Pstep(7, *range(1, 9)) + P(1)
    with pytest.raises(NonExactDivision):
        num.exact_div(P(1, 1))


def test_pack_unpack_match_the_shift_loop_oracle():
    rng = random.Random(0xB17E)
    for _ in range(600):
        bits = rng.choice([b for b in range(2, 140) if b % 8])
        width = _byte_width(bits)
        assert width % 8 == 0 and bits < width < bits + 8
        half = 1 << (width - 1)
        edge = [0, 1, -1, half - 1, -(half - 1), -half]
        n = rng.randrange(1, 30)
        digits = [
            rng.choice(edge) if rng.random() < 0.5 else rng.randrange(-half, half)
            for _ in range(n)
        ]
        if rng.random() < 0.5:
            digits[-1] = -rng.randrange(1, half + 1)  # negative leading digit
        value = _pack(digits, width)
        assert value == kron_oracle.pack(digits, width)
        # count at, beyond and below the number of digits present
        for count in (n, n + rng.randrange(1, 5), rng.randrange(1, n + 1)):
            assert _unpack(value, width, count) == kron_oracle.unpack(value, width, count)
        assert _unpack(value, width, n) == digits
        # a value that overflows count digits: a wrong-width quotient in
        # exact division decodes like this before the width doubles
        wide = rng.randrange(-(1 << (width * (n + 3))), 1 << (width * (n + 3)))
        assert _unpack(wide, width, n) == kron_oracle.unpack(wide, width, n)


_BIG = 1 << 80


@pytest.mark.parametrize(
    "ring, coeff",
    [
        (ZZ, lambda rng: rng.randrange(-_BIG, _BIG)),
        (GFp(2**89 - 1), lambda rng: rng.randrange(2**89 - 1)),
        (
            QuotientRing((5, 5, 1)),
            lambda rng: (rng.randrange(-_BIG, _BIG), rng.randrange(-_BIG, _BIG)),
        ),
    ],
    ids=["ZZ", "GFp", "QuotientRing"],
)
def test_big_coefficient_products_match_schoolbook(ring, coeff):
    # above the schoolbook cutoff with coefficients beyond 2**64, so the
    # packed digits span many bytes
    rng = random.Random(89)
    for _ in range(6):
        spans = [rng.randrange(1, 60) for _ in range(2)]
        spans[0] = max(spans[0], _SCHOOLBOOK_CUTOFF - spans[1] + 1)
        a, b = (
            LaurentPoly(ring, rng.randrange(-5, 6), [coeff(rng) for _ in range(n)])
            for n in spans
        )
        assert len(a.coeffs) + len(b.coeffs) > _SCHOOLBOOK_CUTOFF
        assert a * b == _schoolbook(a, b)


def test_big_coefficient_exact_div_matches_schoolbook():
    rng = random.Random(64)
    for _ in range(20):
        q, d = (
            LaurentPoly.from_int_coeffs(
                [rng.randrange(-_BIG, _BIG) for _ in range(rng.randrange(12, 50))],
                min_deg=rng.randrange(-5, 6),
            )
            for _ in range(2)
        )
        assert _schoolbook(q, d).exact_div(d) == q
        with pytest.raises(NonExactDivision):
            (_schoolbook(q, d) + P(1)).exact_div(d)


def test_inexact_division_through_the_width_doubling_loop(monkeypatch):
    # num's coefficients are the balanced base-(-3) digits of a nonzero
    # multiple of 2**16 + 3, so num(-3) is that multiple; 16 bits is the
    # first width for these {-1, 0, 1} coefficients: the packed numerator is
    # divisible by den(2**16) = 2**16 + 3 although t + 3 does not divide
    # num, so the decoded candidate fails re-multiplication and the width
    # doubles to 32, where the packed remainder is nonzero
    target = (2**16 + 3) * (2**20 + 1)
    digits = []
    while target:
        r = target % 3
        r = -1 if r == 2 else r
        digits.append(r if len(digits) % 2 == 0 else -r)
        target = (target - r) // 3
    num = LaurentPoly.from_int_coeffs(digits)
    den = P(3, 1)
    assert len(num.coeffs) + len(den.coeffs) > _SCHOOLBOOK_CUTOFF
    assert num.eval_int(-3) % (2**16 + 3) == 0 and num.eval_int(-3) % (2**32 + 3)
    widths = []

    def recording_pack(coeffs, width):
        if list(coeffs) == digits:
            widths.append(width)
        return _pack(coeffs, width)

    monkeypatch.setattr(laurent, "_pack", recording_pack)
    with pytest.raises(NonExactDivision):
        num.exact_div(den)
    assert widths == [16, 32]


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
        assert a * b == _schoolbook(a, b)


@pytest.mark.parametrize("p", [3, 5, 7, 101, 65537])
def test_gfp_kronecker_mul_matches_schoolbook(p):
    # above the schoolbook cutoff GF(p) products pack the residues into
    # 32-bit words, or 64-bit ones at p = 65537; the reference multiplies
    # residue by residue
    gf = GFp(p)
    rng = random.Random(p)

    def rand(span):
        return LaurentPoly(
            gf, rng.randrange(-4, 5), [rng.randrange(p) for _ in range(span)]
        )

    for _ in range(25):
        a, b = rand(rng.randrange(1, 40)), rand(rng.randrange(1, 40))
        assert a * b == _schoolbook(a, b)
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
    assert from_json(json.loads(blob)) == p


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


@pytest.mark.parametrize("cap", ["abc", "-5", "1.5", " 7", "²"])
def test_malformed_degree_guard_is_a_precondition_error(monkeypatch, cap):
    monkeypatch.setenv("TALEX_MAX_DEGREE", cap)
    with pytest.raises(PreconditionError, match="TALEX_MAX_DEGREE"):
        Pstep(7, 1, 1) * Pstep(7, 1, 1)


def _gf_coprime(a, b, p):
    # the independent oracle: sympy's gcd over GF(p)
    x = sympy.Symbol("x")

    def to_sympy(f):
        dense = [0] * f.min_deg + list(f.coeffs)
        return sympy.Poly(dense[::-1], x, modulus=p)

    return to_sympy(a).gcd(to_sympy(b)).degree() == 0


@pytest.mark.parametrize(
    "m", [3, 7, 101, 3**2, 5**4, 7**8, 3**64, 11**256], ids=lambda m: f"m{m.bit_length()}bits"
)
def test_gf_divmod_kernel(m):
    """a = q*b + r mod m with deg r < deg b and q, r reduced, for any
    integers a and a divisor b with a unit leading coefficient, at primes
    and at the Hensel moduli p^(2^k); at a prime it agrees with
    divmod_poly over GFp (nonzero constant terms, so that the Laurent
    division aligns the same coefficients)."""
    rng = random.Random(m)
    p = next(ell for ell in (3, 5, 7, 11, 101) if m % ell == 0)
    for _ in range(40):
        lead = rng.choice([1, rng.randrange(1, p)])
        b = [rng.randrange(1, p)] + [rng.randrange(m) for _ in range(rng.randrange(0, 8))]
        b = b + [lead] if rng.randrange(4) else [lead]
        a = [rng.randrange(1, p)] + [rng.randrange(-m * m, m * m) for _ in range(rng.randrange(0, 20))]
        a = a if rng.randrange(8) else []
        q, r = _gf_divmod(a, b, m)
        assert all(0 <= c < m for c in q + r)
        assert (not q or q[-1]) and (not r or r[-1])
        assert len(r) < len(b)
        qb = [0] * (len(q) + len(b) - 1) if q else []
        for i, x in enumerate(q):
            for j, y in enumerate(b):
                qb[i + j] += x * y
        assert all((x - y - z) % m == 0 for x, y, z in zip_longest(a, qb, r, fillvalue=0))
        if m == p:
            gf = GFp(p)
            quot, rem = LaurentPoly(gf, 0, [c % p for c in a]).divmod_poly(LaurentPoly(gf, 0, b))
            assert (quot, rem) == (LaurentPoly(gf, 0, q), LaurentPoly(gf, 0, r))


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
