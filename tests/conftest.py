import random

import pytest

from talex.laurent import LaurentPoly
from talex.verify import P, Pstep, prod  # noqa: F401  (re-exported to the tests)


@pytest.fixture
def rng():
    return random.Random(0xA1EC)


def random_poly(rng, max_deg=8, max_coef=9, laurent=True):
    lo = rng.randrange(-3, 1) if laurent else 0
    n = rng.randrange(1, max_deg + 2)
    coeffs = [rng.randrange(-max_coef, max_coef + 1) for _ in range(n)]
    if not any(coeffs):
        coeffs[rng.randrange(n)] = 1
    return LaurentPoly.from_int_coeffs(coeffs, min_deg=lo)
