"""Integer polynomial factorization behind the last-resort pairing route.

``factorization.total_pairing`` first Hensel-lifts the paper's mod-p
factor of D(t); it comes here only when that lift does not apply (the
mod-p factor and its t -> -t image share a factor, or p divides the
leading coefficient) or its candidate fails the certificate.  The
factorization itself (squarefree split, modular factorization, Hensel
lifting, recombination) is delegated to sympy's univariate machinery;
this module owns the contract: content times irreducible primitive
factors with multiplicity, reproducing the input exactly.  sympy is
imported on first use, so ``import talex`` does not load it.
"""

from __future__ import annotations

from .laurent import LaurentPoly
from .rings import ZZ


def int_poly_factor(p):
    """(content, [(irreducible primitive LaurentPoly, multiplicity), ...]).

    The t-power unit is stripped first (Laurent input), so the content
    times the product of the factors reproduces p up to its t^min_deg
    shift.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.ring is not ZZ:
        raise TypeError("int_poly_factor needs integer coefficients")
    import sympy

    base = p.shift(-p.min_deg)
    poly = sympy.Poly(dict(enumerate(base.coeffs)), sympy.Symbol("t"), domain="ZZ")
    content, raw = sympy.factor_list(poly)
    factors = [
        (LaurentPoly.from_int_coeffs([int(c) for c in q.all_coeffs()[::-1]]), int(m))
        for q, m in raw
    ]
    return int(content), factors
