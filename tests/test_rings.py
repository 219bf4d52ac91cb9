"""Coefficient rings: quotient-ring arithmetic and the prime field."""

import pytest

from talex.rings import GFp, NonExactDivision, QuotientRing, ZZ


def test_int_ring_divexact():
    assert ZZ.divider(-4)(12) == -3
    with pytest.raises(NonExactDivision):
        ZZ.divider(2)(7)


def test_quotient_ring_reduction():
    ring = QuotientRing((3, 1))  # z + 3, so z = -3
    w = ring.gen()
    assert w == (-3,)
    assert ring.mul(w, w) == (9,)


def test_quotient_ring_theta2():
    ring = QuotientRing((5, 5, 1))  # z^2 + 5z + 5
    w = ring.gen()
    # w^2 = -5w - 5
    assert ring.mul(w, w) == (-5, -5)
    assert ring.pow(w, 2) == (-5, -5)
    assert ring.add(ring.pow(w, 2), ring.add(ring.mul(ring.from_int(5), w), ring.from_int(5))) == ring.zero


def test_quotient_ring_requires_monic():
    with pytest.raises(ValueError):
        QuotientRing((3, 2))


def test_quotient_divexact_unit():
    ring = QuotientRing((5, 5, 1))
    w = ring.gen()
    # 3 + w has norm theta(-3) = -1, a unit
    u = ring.add(ring.from_int(3), w)
    one = ring.divider(u)(u)
    assert one == ring.one
    inv_times = ring.divider(u)(ring.from_int(1))
    assert ring.mul(inv_times, u) == ring.one


def test_quotient_divexact_nonintegral():
    ring = QuotientRing((5, 5, 1))
    with pytest.raises(NonExactDivision):
        ring.divider(ring.from_int(2))(ring.one)


def test_quotient_is_negative_leading_coordinate():
    ring = QuotientRing((5, 5, 1))
    assert ring.is_negative((0, -2))
    assert not ring.is_negative((0, 2))
    assert not ring.is_negative(ring.zero)


def test_gfp():
    gf = GFp(7)
    assert gf.add(5, 4) == 2
    assert gf.mul(3, 5) == 1
    assert gf.inv(3) == 5
    assert gf.divider(3)(1) == 5
    with pytest.raises(ZeroDivisionError):
        gf.inv(7)
