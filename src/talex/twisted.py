"""Twisted Alexander polynomials: the Wada quotient and its totals.

The Wada invariant of a deficiency-one presentation under a matrix
representation is det of the representation-evaluated Fox minor divided
by det(image of the omitted generator minus the identity).  Totals over
all Galois conjugates of omega are taken exactly by substituting the
companion matrix for omega and taking one integer determinant.

All results are canonically normalized (min degree 0, positive lowest
coefficient); twisted Alexander polynomials are only defined up to
units +-t^k, and every comparison in this package goes through that
normal form.
"""

from __future__ import annotations

from dataclasses import dataclass

from .knots import alexander, presentation
from .laurent import (
    LaurentPoly,
    cyclotomic_poly,
    gf_exact_div,
    modp_unit_equal,
)
from .matrices import RingMatrix, cyclic_product, gamma_substitute
from .representations import (
    binary_dihedral_rep,
    dihedral_rep,
    kmeta_rep,
    multiplicative_order,
    nqp_rep,
    require_prime_divisor,
    require_q,
)
from .rings import NonExactDivision
from .words import FreeWord, ImageSum, fox_derivative, rep_evaluate


class CrossCheckMismatch(AssertionError):
    """Two independent computation routes disagree."""


def wada_parts(pres, rep):
    """(numerator det, denominator det) with generator 0 omitted.

    The denominator det(X t - I), X the image of generator 0, has
    constant term det(-I) = +-1, so it is never zero."""
    mat = rep_evaluate(ImageSum.of_word(FreeWord.generator(0), rep))
    den = (mat - RingMatrix.identity(mat.ring, rep.dim)).det()
    blocks = [
        [rep_evaluate(fox_derivative(r, m, rep)) for m in range(1, pres.num_gens)]
        for r in pres.relators
    ]
    num = RingMatrix.block(blocks).det()
    return num, den


def wada(pres, rep):
    """The twisted Alexander polynomial (Wada invariant), canonical."""
    num, den = wada_parts(pres, rep)
    return num.exact_div(den).canonical()


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def gamma_total(pres, rep):
    """The total of a rep over Z[z]/(m) over every conjugate of z: the
    Wada quotient with the companion matrix of m substituted for z, and
    one integer determinant."""
    return gamma_substitute(wada(pres, rep)).det().canonical()


def dihedral_total(f, p):
    """The total dihedral twisted polynomial D(t), the gamma_total of
    the xi rep."""
    require_prime_divisor(f, p)
    pres = presentation(f)
    return gamma_total(pres, dihedral_rep(pres, p, "xi"))


def perm_dihedral_total(f, p):
    """The p-dimensional permutation-dihedral twisted polynomial; equals
    [Delta/(1-t)] times the irreducible total (tested, not assumed)."""
    require_prime_divisor(f, p)
    pres = presentation(f)
    rep = dihedral_rep(pres, p, "pi")
    return wada(pres, rep)


def binary_dihedral_total(f, p):
    """The binary dihedral total of a 2-bridge knot, the gamma_total of
    its rep over Z[v]/(1+v+...+v^{p-1}); also checks the
    product-over-(+-i) identity against the dihedral total."""
    require_prime_divisor(f, p)
    pres = presentation(f)
    total = gamma_total(pres, binary_dihedral_rep(pres, p))
    # Phi_4 = z^2 + 1: the product over +-i is the metacyclic total at q = 2
    if metacyclic_total(f, 2, p) != total:
        raise CrossCheckMismatch(
            f"binary dihedral total disagrees with the +-i product for {f}"
        )
    return total


def metacyclic_total(f, q, p):
    """Product of the dihedral total over the primitive 2q-th roots; at
    q = 1 that is D(-t), which equals D up to units (rho (x) epsilon is
    rho for the 2-dimensional dihedral representations)."""
    require_prime_divisor(f, p)
    require_q(q)
    return cyclic_product(dihedral_total(f, p), cyclotomic_poly(2 * q)).canonical()


def nqp_total(f, q, p):
    """The 2pq-dimensional N(q,p) twisted polynomial, computed directly
    and re-derived through the product formula; raises on mismatch."""
    require_prime_divisor(f, p)
    pres = presentation(f)
    rep = nqp_rep(pres, q, p)
    direct = wada(pres, rep)
    delta = alexander(pres)
    full_cycle = LaurentPoly.from_int_coeffs([-1] + [0] * (2 * q - 1) + [1])
    cyc_delta = cyclic_product(delta, full_cycle)
    cyc_dihedral = cyclic_product(dihedral_total(f, p), full_cycle)
    one_minus = LaurentPoly.from_int_coeffs([1] + [0] * (2 * q - 1) + [-1])
    formula = (cyc_delta * cyc_dihedral).exact_div(one_minus).canonical()
    if formula != direct:
        raise CrossCheckMismatch(
            f"N({q},{p}) direct and product-formula totals disagree for {f}"
        )
    return direct


@dataclass(frozen=True)
class KMetaReport:
    total: LaurentPoly
    factor: LaurentPoly | None
    period: int
    conjecture_a_holds: bool


def kmeta_total(pres, p, k):
    """The K-metacyclic twisted polynomial plus the Conjecture-A report:
    divide by Delta/(1-t) exactly and recognize the quotient as a
    polynomial in t^m, m the order of k mod p.  Raises PreconditionError
    unless p is an odd prime and k is neither 0 nor 1 mod p, and, from
    the meridian solve of ``kmeta_rep``, unless Delta(k) = 0 mod p."""
    rep = kmeta_rep(pres, p, k)
    total = wada(pres, rep)
    delta = alexander(pres)
    m = multiplicative_order(k, p)
    one_minus_t = LaurentPoly.from_int_coeffs([1, -1])
    factor = None
    period_ok = False
    try:
        factor = (total * one_minus_t).exact_div(delta).canonical()
        period_ok = all(e % m == 0 for e in factor.support())
    except NonExactDivision:
        factor = None
    return KMetaReport(
        total=total,
        factor=factor,
        period=m,
        conjecture_a_holds=factor is not None and period_ok,
    )


# ---------------------------------------------------------------------------
# the mod-p factor
# ---------------------------------------------------------------------------


def modp_factor(delta, p):
    """The paper's mod-p factor u = {Delta(t)/(1+t)}^n in GF(p)[t], n =
    (p-1)/2, for a knot with Alexander polynomial delta: shifted to a
    nonzero constant term and made monic.  None when 1+t does not divide
    Delta mod p."""
    n = (p - 1) // 2
    one_plus = LaurentPoly.from_int_coeffs([1, 1]).reduce_mod(p)
    try:
        u = gf_exact_div(delta.reduce_mod(p), one_plus) ** n
    except NonExactDivision:
        return None
    u = u.shift(-u.min_deg)
    return u.scale(u.ring.inv(u.coeffs[-1]))


def modp_congruence(f, p):
    """Does D(t) = u(t) u(-t) hold in GF(p)[t] up to units, u =
    modp_factor(Delta, p)?  That is the paper's congruence
    D = {Delta(t)/(1+t)}^n {Delta(-t)/(1-t)}^n mod p; False when u does
    not exist."""
    require_prime_divisor(f, p)
    u = modp_factor(alexander(presentation(f)), p)
    return u is not None and _modp_congruent(dihedral_total(f, p), u)


def _modp_congruent(D, u):
    """D(t) = u(t) u(-t) in GF(p)[t] up to units, for u from modp_factor."""
    return modp_unit_equal(D, u * u.negate_t(), u.ring.p)
