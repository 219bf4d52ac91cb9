"""Mod-p structure checks that only the tests read.

``triangular_structure`` checks the mod-p shape of the eta-evaluated Fox
image that the paper's congruence proof rests on; ``nqp_variant_holds``
checks the metacyclic form of the congruence at a given q.  Neither goes
through ``talex.twisted.modp_factor``.
"""

from talex.knots import alexander, presentation
from talex.laurent import LaurentPoly, gf_exact_div, modp_unit_equal
from talex.matrices import cyclic_product
from rep_oracle import eta_rep
from talex.representations import trivial_rep
from talex.twisted import nqp_total
from talex.words import fox_derivative, rep_evaluate


def alexander_raw(pres):
    """psi(dR/dx) without normalization (2-generator presentations only);
    the triangular-structure check needs the honest sign."""
    return fox_derivative(pres.relators[0], 0, trivial_rep(pres)).augmentation()


def triangular_structure(f, p):
    """(lower, strict, diagonals) for the mod-p eta image of dR/dx: all
    four n x n blocks lower triangular, the lower-left strictly so, with
    diagonal entries Delta(-t) (upper-left) and Delta(t) (lower-right)
    mod p."""
    pres = presentation(f)
    rep = eta_rep(pres, p)
    M = rep_evaluate(fox_derivative(pres.relators[0], 0, rep))
    n = (p - 1) // 2
    delta_raw = alexander_raw(pres)
    diag_upper = delta_raw.negate_t().reduce_mod(p)
    diag_lower = delta_raw.reduce_mod(p)
    lower = True
    strict = True
    diags = True
    for bi in range(2):
        for bj in range(2):
            for i in range(n):
                for j in range(n):
                    entry = M[bi * n + i, bj * n + j].reduce_mod(p)
                    if j > i and not entry.is_zero:
                        lower = False
                    if (bi, bj) == (1, 0) and i == j and not entry.is_zero:
                        strict = False
                    if i == j and (bi, bj) == (0, 0) and entry != diag_upper:
                        diags = False
                    if i == j and (bi, bj) == (1, 1) and entry != diag_lower:
                        diags = False
    return lower, strict, diags


def nqp_variant_holds(f, q, p):
    """Does the N(q,p) total reduce mod p to {Delta~(t)/(1 - t^2q)}^p up
    to units, Delta~ the product of Delta over the 2q-th roots of unity?"""
    delta = alexander(presentation(f))
    full_cycle = LaurentPoly.from_int_coeffs([-1] + [0] * (2 * q - 1) + [1])
    cyc_delta = cyclic_product(delta, full_cycle).reduce_mod(p)
    one_minus_2q = LaurentPoly.from_int_coeffs([1] + [0] * (2 * q - 1) + [-1])
    base = gf_exact_div(cyc_delta, one_minus_2q.reduce_mod(p))
    return modp_unit_equal(nqp_total(f, q, p), base ** p, p)
