"""Knot invariance: Schubert-equivalent fractions give the same totals.

beta/alpha, beta^-1/alpha, (alpha-beta)/alpha and (alpha-beta^-1)/alpha
present the same 2-bridge knot or its mirror image, whose totals agree
up to units.  The check needs no golden values: any disagreement is a
bug in the pipeline between the fraction and the polynomial.
"""

from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from talex.knots import TwoBridgeFraction
from talex.twisted import binary_dihedral_total, dihedral_total, nqp_total


def schubert_forms(alpha, beta):
    """The distinct fractions among the four forms (beta = beta^-1 for
    torus knots and other involutions)."""
    inv = pow(beta, -1, alpha)
    return {TwoBridgeFraction(alpha, b) for b in (beta, inv, alpha - beta, alpha - inv)}


@st.composite
def knots_with_p(draw, max_alpha=300):
    p = draw(st.sampled_from([3, 5, 7]))
    alpha = p * draw(st.integers(0, (max_alpha // p - 1) // 2).map(lambda k: 2 * k + 1))
    beta = draw(st.integers(1, alpha - 1).filter(lambda b: gcd(b, alpha) == 1))
    return alpha, beta, p


@given(knots_with_p())
@settings(max_examples=40, deadline=None)
def test_dihedral_and_binary_dihedral_totals_are_knot_invariants(knot):
    alpha, beta, p = knot
    forms = schubert_forms(alpha, beta)
    assert len({dihedral_total(f, p) for f in forms}) == 1
    assert len({binary_dihedral_total(f, p) for f in forms}) == 1


@pytest.mark.parametrize("alpha, beta, q, p", [(15, 4, 2, 3), (21, 8, 2, 7), (45, 7, 2, 5)])
def test_nqp_total_is_a_knot_invariant(alpha, beta, q, p):
    assert len({nqp_total(f, q, p) for f in schubert_forms(alpha, beta)}) == 1
