"""Z[z]/(m) Laurent arithmetic against the former code (``quot_oracle``).

The coordinate-wise product ``laurent._quot_mul`` is checked against
the per-pair schoolbook and the bivariate Kronecker product, and the
integer ``QuotientRing.divider`` against the ``Fraction`` divider, over
the omega-rings for n = 1..5, the cyclotomic rings of Phi_5, Phi_7,
Phi_11 and Phi_13 (at d = 12 the binary-dihedral ring at p = 13, the
largest degree the pipeline uses) and Z[z]/(z^2+5z+5): lengths 1..60
and the 329x7 shape of the census, coefficients near +-2^80, zero
coordinates, and products that cancel to zero (over a modulus with zero
divisors).
"""

import random

import pytest

import quot_oracle
from talex.laurent import _SCHOOLBOOK_CUTOFF, LaurentPoly, _quot_mul, cyclotomic_poly
from talex.representations import omega_ring
from talex.rings import NonExactDivision, QuotientRing

RINGS = {f"omega n={n}": omega_ring(n) for n in range(1, 6)}
RINGS.update(
    {f"Phi_{m}": QuotientRing(cyclotomic_poly(m).coeffs) for m in (5, 7, 11, 13)}
)
RINGS["z^2+5z+5"] = QuotientRing((5, 5, 1))

_BIG = 1 << 80


def residue(rng, ring, bound, zero_coords=0.0):
    """A random residue with coordinates in [-bound, bound], each zero
    with probability ``zero_coords``."""
    return tuple(
        0 if rng.random() < zero_coords else rng.randrange(-bound, bound + 1)
        for _ in range(ring.degree)
    )


def vector(rng, ring, length, bound, zero_coords=0.0):
    out = [residue(rng, ring, bound, zero_coords) for _ in range(length)]
    if not any(any(c) for c in out):
        out[-1] = ring.one
    return out


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_product_matches_both_former_paths(ring):
    rng = random.Random(ring.degree * 1009 + sum(ring.modulus))
    for la in range(1, 61):
        lb = rng.randrange(1, 62 - la)
        if rng.random() < 0.5:
            la, lb = lb, la
        bound = rng.choice([1, 9, 2**20, _BIG])
        zeros = rng.choice([0.0, 0.0, 0.5, 0.9])
        a = vector(rng, ring, la, bound, zeros)
        b = vector(rng, ring, lb, bound, zeros)
        got = _quot_mul(a, b, ring)
        assert got == quot_oracle.kron_mul(a, b, ring)
        if la * lb <= 40:
            assert got == quot_oracle.schoolbook_mul(a, b, ring)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_product_at_the_census_shape_near_2_80(ring):
    rng = random.Random(329 + ring.degree)
    a = vector(rng, ring, 329, _BIG)
    b = vector(rng, ring, 7, _BIG)
    a[0] = tuple(_BIG - 1 if k % 2 else -_BIG for k in range(ring.degree))
    got = _quot_mul(a, b, ring)
    assert got == quot_oracle.kron_mul(a, b, ring)
    assert _quot_mul(b, a, ring) == got


def test_product_of_zero_vectors_and_single_coordinates():
    rng = random.Random(5)
    for ring in RINGS.values():
        d = ring.degree
        zeros = [ring.zero] * rng.randrange(1, 9)
        b = vector(rng, ring, rng.randrange(1, 9), 99)
        assert _quot_mul(zeros, b, ring) == [ring.zero] * (len(zeros) + len(b) - 1)
        # one nonzero coordinate per operand: a single pair of packs
        for i in range(d):
            for j in range(d):
                x = tuple(int(k == i) for k in range(d))
                y = tuple(-7 * int(k == j) for k in range(d))
                a, b = [x, ring.zero, x], [y, y]
                assert _quot_mul(a, b, ring) == quot_oracle.schoolbook_mul(a, b, ring)


def test_products_that_cancel_to_zero():
    # z^2 - 1 and z^3 - 1 have zero divisors: (1 + z) (1 - z) = 0, and
    # (1 - z) (1 + z + z^2) = 0
    for modulus, left, right in [
        ((-1, 0, 1), (1, 1), (1, -1)),
        ((-1, 0, 0, 1), (1, -1, 0), (1, 1, 1)),
    ]:
        ring = QuotientRing(modulus)
        rng = random.Random(len(modulus))
        for _ in range(20):
            f, g = (
                LaurentPoly(ring, rng.randrange(-3, 4), vector(rng, ring, n, _BIG))
                for n in (rng.randrange(1, 30), rng.randrange(1, 30))
            )
            a = f * LaurentPoly.const(left, ring)
            b = g * LaurentPoly.const(right, ring)
            if a.is_zero or b.is_zero:
                continue
            assert (a * b).is_zero
            assert _quot_mul(a.coeffs, b.coeffs, ring) == quot_oracle.kron_mul(
                a.coeffs, b.coeffs, ring
            )
    # interior coefficients that cancel in a domain: x(1 + t) * y(1 - t)
    ring = RINGS["Phi_7"]
    rng = random.Random(1)
    x, y = residue(rng, ring, _BIG), residue(rng, ring, _BIG)
    got = LaurentPoly(ring, 0, [x, x]) * LaurentPoly(ring, 0, [y, ring.neg(y)])
    assert got.coeffs[1] == ring.zero and got.coeffs[0] == ring.mul(x, y)


def test_laurent_product_takes_no_per_coefficient_ring_product(monkeypatch):
    # below the schoolbook cutoff the former product took one
    # QuotientRing.mul per pair of terms, above it one reduction per
    # output coefficient (quot_oracle.reduce)
    shapes = [(1, 1), (3, 5), (12, 12), (20, 25), (60, 7)]
    sizes = [la + lb for la, lb in shapes]
    assert min(sizes) <= _SCHOOLBOOK_CUTOFF < max(sizes)
    calls = []
    original = QuotientRing.mul

    def counting(self, *args):
        calls.append(args)
        return original(self, *args)

    monkeypatch.setattr(QuotientRing, "mul", counting)
    rng = random.Random(24)
    for ring in RINGS.values():
        for la, lb in shapes:
            a = LaurentPoly(ring, -2, vector(rng, ring, la, 99))
            b = LaurentPoly(ring, 1, vector(rng, ring, lb, 99))
            expected = quot_oracle.kron_mul(a.coeffs, b.coeffs, ring)
            calls.clear()
            assert a * b == LaurentPoly(ring, -1, expected)
            assert calls == [], (ring, la, lb)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_power_table_reduces_z_powers(ring):
    d = ring.degree
    assert len(ring.z_powers) == 2 * d - 1
    for s, row in enumerate(ring.z_powers):
        assert row == quot_oracle.reduce([0] * s + [1], ring)
    assert ring.fold_norm == max(
        sum(abs(row[r]) for row in ring.z_powers) for r in range(d)
    )


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_traces_are_the_power_sums_of_the_roots(ring):
    # Newton's identities for m = z^d + a_1 z^(d-1) + ... + a_d:
    # p_k = -(k a_k + a_1 p_(k-1) + ... + a_(k-1) p_1)
    d = ring.degree
    a = ring.modulus[::-1]
    sums = [d]
    for k in range(1, d):
        sums.append(-(k * a[k] + sum(a[j] * sums[k - j] for j in range(1, k))))
    assert ring.traces == tuple(sums)


@pytest.mark.parametrize("ring", RINGS.values(), ids=RINGS.keys())
def test_integer_divider_matches_the_fraction_divider(ring):
    rng = random.Random(ring.degree * 31 + ring.modulus[0])
    for _ in range(8):
        b = residue(rng, ring, rng.choice([3, 99, _BIG]))
        if ring.is_zero(b):
            continue
        divide = ring.divider(b)
        oracle = quot_oracle.fraction_divider(ring, b)
        for _ in range(5):
            q = residue(rng, ring, rng.choice([5, _BIG]), zero_coords=0.3)
            integral = ring.mul(b, q)
            assert divide(integral) == oracle(integral) == q
            # a perturbed numerator: integral exactly when b divides the
            # perturbation, and the two dividers agree either way
            a = ring.add(integral, residue(rng, ring, 2, zero_coords=0.5))
            try:
                want = oracle(a)
            except NonExactDivision:
                with pytest.raises(NonExactDivision):
                    divide(a)
            else:
                assert divide(a) == want
        assert divide(ring.zero) == ring.zero


def test_integer_divider_on_units_and_non_units():
    ring = RINGS["z^2+5z+5"]
    w = ring.gen()
    unit = ring.add(ring.from_int(3), w)  # norm theta(-3) = -1
    inverse = quot_oracle.fraction_divider(ring, unit)(ring.one)
    assert ring.divider(unit)(ring.one) == inverse
    two = ring.from_int(2)
    with pytest.raises(NonExactDivision):
        ring.divider(two)(ring.one)
    assert ring.divider(two)(ring.from_int(6)) == ring.from_int(3)
    # w divides 5 = -w(w + 5) but not 1
    assert ring.divider(w)(ring.from_int(5)) == ring.neg(ring.add(w, ring.from_int(5)))
    with pytest.raises(NonExactDivision):
        ring.divider(w)(ring.one)


@pytest.mark.parametrize(
    "ring, b",
    [(ring, ring.zero) for ring in RINGS.values()]
    + [(QuotientRing((-1, 0, 1)), (-1, 1))],  # z - 1 divides z^2 - 1
    ids=[*RINGS.keys(), "z-1 mod z^2-1"],
)
def test_divider_of_zero_or_a_zero_divisor_raises(ring, b):
    with pytest.raises(ZeroDivisionError):
        ring.divider(b)
    with pytest.raises(ZeroDivisionError):
        quot_oracle.fraction_divider(ring, b)
