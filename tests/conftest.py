import random

import pytest

from talex.laurent import LaurentPoly
from talex.verify import P, Pstep, prod  # noqa: F401  (re-exported to the tests)


@pytest.fixture
def rng():
    return random.Random(0xA1EC)


def from_json(obj):
    """The LaurentPoly of a ``to_json`` payload: the wire format's reader,
    which only the tests need."""
    return LaurentPoly.from_int_coeffs(
        [int(s) for s in obj["coeffs"]], min_deg=int(obj["min_deg"])
    )


def random_poly(rng, max_deg=8, max_coef=9, laurent=True):
    lo = rng.randrange(-3, 1) if laurent else 0
    n = rng.randrange(1, max_deg + 2)
    coeffs = [rng.randrange(-max_coef, max_coef + 1) for _ in range(n)]
    if not any(coeffs):
        coeffs[rng.randrange(n)] = 1
    return LaurentPoly.from_int_coeffs(coeffs, min_deg=lo)


def swinnerton_dyer(primes):
    """The Swinnerton-Dyer polynomial: the product of t + sum(+-sqrt(q))
    over all sign choices, q in ``primes``.  It is irreducible over Z of
    degree 2^k, and its factors mod every prime have degree at most 2.
    Each square root is adjoined by S(t) -> A^2 - q*B^2, where
    S(t + sqrt(q)) = A(t) + sqrt(q)*B(t)."""
    t = LaurentPoly.t_power(1)
    s = t
    for q in primes:
        a = b = LaurentPoly.zero()
        power_a, power_b = LaurentPoly.one(), LaurentPoly.zero()  # (t + sqrt q)^k
        for k in range(s.degree + 1):
            c = s.coeff(k)
            a, b = a + power_a.scale(c), b + power_b.scale(c)
            power_a, power_b = power_a * t + power_b.scale(q), power_a + power_b * t
        s = a * a - (b * b).scale(q)
    return s
