"""sympy as an independent oracle for ``talex.intfactor``: its
``factor_list`` read in the contract of ``int_poly_factor`` (content,
[(irreducible primitive LaurentPoly, multiplicity), ...], in sympy's own
order), and its integer polynomial gcd."""

from math import gcd

import sympy

from talex.laurent import LaurentPoly


def sympy_int_poly_factor(p):
    base = p.shift(-p.min_deg)
    poly = sympy.Poly(dict(enumerate(base.coeffs)), sympy.Symbol("t"), domain="ZZ")
    content, raw = sympy.factor_list(poly)
    factors = [
        (LaurentPoly.from_int_coeffs([int(c) for c in q.all_coeffs()[::-1]]), int(m))
        for q, m in raw
    ]
    return int(content), factors


def sympy_gcd(a, b):
    """The primitive gcd, with positive leading coefficient, of two
    polynomials over Z."""
    t = sympy.Symbol("t")
    g = sympy.Poly(dict(enumerate(a.coeffs)), t, domain="ZZ").gcd(
        sympy.Poly(dict(enumerate(b.coeffs)), t, domain="ZZ")
    )
    coeffs = [int(c) for c in g.all_coeffs()[::-1]]
    content = gcd(*coeffs) * (1 if coeffs[-1] > 0 else -1)
    return LaurentPoly.from_int_coeffs([c // content for c in coeffs])
