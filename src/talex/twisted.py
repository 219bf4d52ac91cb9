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

from .knots import alexander, alexander_raw, presentation
from .laurent import (
    LaurentPoly,
    cyclotomic_poly,
    gf_exact_div,
    modp_unit_equal,
)
from .matrices import RingMatrix, companion_matrix, cyclic_product, gamma_substitute
from .representations import (
    binary_dihedral_rep,
    dihedral_rep,
    kmeta_rep,
    multiplicative_order,
    nqp_rep,
    omega_companion,
    trivial_rep,
)
from .rings import GFp, NonExactDivision
from .words import FreeWord, ImageSum, fox_derivative, rep_evaluate


class AllDenominatorsSingular(ArithmeticError):
    """No generator has det(image * t - identity) nonzero."""


class CrossCheckMismatch(AssertionError):
    """Two independent computation routes disagree."""


def _require_divides(f, p):
    if f.alpha % p != 0:
        raise ValueError(f"p={p} does not divide alpha={f.alpha}")


def wada_parts(pres, rep):
    """(numerator det, denominator det, omitted generator index).

    The omitted generator is the first one in presentation order whose
    denominator determinant is nonzero (for invertible images it always
    is, so this is deterministic and usually index 0)."""
    k = pres.num_gens
    identity = RingMatrix.identity(rep.coeff_ring, rep.dim)
    poly_identity = None
    omit = None
    den = None
    for j in range(k):
        mat = rep_evaluate(ImageSum.of_word(FreeWord.generator(j), rep), rep)
        if poly_identity is None:
            poly_identity = RingMatrix.identity(mat.ring, rep.dim)
        cand = (mat - poly_identity).det()
        if not cand.is_zero:
            omit = j
            den = cand
            break
    if omit is None:
        raise AllDenominatorsSingular(pres.gens)
    cols = [m for m in range(k) if m != omit]
    blocks = [
        [rep_evaluate(fox_derivative(r, m, rep), rep) for m in cols]
        for r in pres.relators
    ]
    num = RingMatrix.block(blocks).det()
    return num, den, omit


def wada(pres, rep):
    """The twisted Alexander polynomial (Wada invariant), canonical."""
    num, den, _ = wada_parts(pres, rep)
    return num.exact_div(den).canonical()


# ---------------------------------------------------------------------------
# totals
# ---------------------------------------------------------------------------


def dihedral_total(f, p, assignment=None):
    """The total dihedral twisted polynomial D(t): gamma-substitute the
    omega coefficients of the xi-Wada quotient and take the
    determinant."""
    _require_divides(f, p)
    pres = presentation(f)
    rep = dihedral_rep(pres, p, "xi", assignment=assignment)
    quotient = wada(pres, rep)
    n = (p - 1) // 2
    M = gamma_substitute(quotient, omega_companion(n))
    return M.det().canonical()


def perm_dihedral_total(f, p):
    """The p-dimensional permutation-dihedral twisted polynomial; equals
    [Delta/(1-t)] times the irreducible total (tested, not assumed)."""
    _require_divides(f, p)
    pres = presentation(f)
    rep = dihedral_rep(pres, p, "pi")
    return wada(pres, rep)


def irr_dihedral_total(f, p):
    """The twisted polynomial of the 2n-dimensional irreducible integer
    representation, computed directly; equals dihedral_total by the
    pi0 ~ eta conjugacy (tested, not assumed)."""
    _require_divides(f, p)
    pres = presentation(f)
    rep = dihedral_rep(pres, p, "pi0")
    return wada(pres, rep)


def binary_dihedral_total_of(pres, p, assignment=None):
    """The binary dihedral total of an arbitrary presentation: Wada over
    Z[v]/(1+v+...+v^{p-1}), then v -> companion substitution and one
    determinant."""
    rep = binary_dihedral_rep(pres, p, assignment=assignment)
    quotient = wada(pres, rep)
    companion = companion_matrix(cyclotomic_poly(p))
    return gamma_substitute(quotient, companion).det().canonical()


def binary_dihedral_total(f, p, *, crosscheck=True):
    """The binary dihedral total of a 2-bridge knot; also checks the
    product-over-(+-i) identity against the dihedral total."""
    _require_divides(f, p)
    total = binary_dihedral_total_of(presentation(f), p)
    if crosscheck:
        z2_plus_1 = LaurentPoly.from_int_coeffs([1, 0, 1])
        alt = cyclic_product(dihedral_total(f, p), z2_plus_1).canonical()
        if alt != total:
            raise CrossCheckMismatch(
                f"binary dihedral total disagrees with the +-i product for {f}"
            )
    return total


def metacyclic_total(f, q, p):
    """Product of the dihedral total over the primitive 2q-th roots."""
    _require_divides(f, p)
    if q == 1:
        return dihedral_total(f, p)
    return cyclic_product(dihedral_total(f, p), cyclotomic_poly(2 * q)).canonical()


def nqp_total(f, q, p):
    """The 2pq-dimensional N(q,p) twisted polynomial, computed directly
    and re-derived through the product formula; raises on mismatch."""
    _require_divides(f, p)
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


def kmeta_total(pres, p, k, assignment=None):
    """The K-metacyclic twisted polynomial plus the Conjecture-A report:
    divide by Delta/(1-t) exactly and recognize the quotient as a
    polynomial in t^m, m the order of k mod p."""
    delta = alexander(pres)
    if delta.eval_int(k) % p != 0:
        raise ValueError(
            f"Delta({k}) != 0 mod {p}: no K-metacyclic representation exists"
        )
    rep = kmeta_rep(pres, p, k, assignment=assignment)
    total = wada(pres, rep)
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


def trivial_total(pres):
    """Numerator of the Wada quotient under the trivial 1-dim
    representation (the quotient itself is Delta/(t-1), not a
    polynomial); cross-checks knots.alexander."""
    num, den, _ = wada_parts(pres, trivial_rep(pres))
    return num.canonical(), den.canonical()


# ---------------------------------------------------------------------------
# mod-p structure
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class ModpReport:
    p: int
    congruence_holds: bool
    nqp_variant_holds: bool | None


def modp_congruence(f, p, q=None):
    """Check D(t) = {Delta(t)/(1+t)}^n {Delta(-t)/(1-t)}^n in (Z/p)[t]
    up to units, and optionally the metacyclic variant at a given q."""
    _require_divides(f, p)
    n = (p - 1) // 2
    D = dihedral_total(f, p)
    delta = alexander(presentation(f))
    gf = GFp(p)
    delta_p = delta.reduce_mod(p)
    one_plus = LaurentPoly.from_int_coeffs([1, 1]).reduce_mod(p)
    one_minus = LaurentPoly.from_int_coeffs([1, -1]).reduce_mod(p)
    try:
        left = gf_exact_div(delta_p, one_plus)
        right = gf_exact_div(delta_p.negate_t(), one_minus)
    except NonExactDivision:
        return ModpReport(p=p, congruence_holds=False, nqp_variant_holds=None)
    target = (left ** n) * (right ** n)
    holds = modp_unit_equal(D.reduce_mod(p), target, p)
    nqp_holds = None
    if q is not None:
        lhs = nqp_total(f, q, p).reduce_mod(p)
        full_cycle = LaurentPoly.from_int_coeffs([-1] + [0] * (2 * q - 1) + [1])
        cyc_delta = cyclic_product(delta, full_cycle).reduce_mod(p)
        one_minus_2q = LaurentPoly.from_int_coeffs(
            [1] + [0] * (2 * q - 1) + [-1]
        ).reduce_mod(p)
        base = gf_exact_div(cyc_delta, one_minus_2q)
        nqp_holds = modp_unit_equal(lhs, base ** p, p)
    return ModpReport(p=p, congruence_holds=holds, nqp_variant_holds=nqp_holds)


@dataclass(frozen=True)
class TriangularReport:
    lower_triangular: bool
    c_block_strict: bool
    diagonals_match: bool

    @property
    def holds(self):
        return self.lower_triangular and self.c_block_strict and self.diagonals_match


def modp_triangular_structure(f, p):
    """The mod-p shape of the gamma-substituted Fox image: all four n x n
    blocks lower triangular, the lower-left strictly so, with diagonal
    entries Delta(-t) (upper-left) and Delta(t) (lower-right) mod p."""
    _require_divides(f, p)
    pres = presentation(f)
    rep = dihedral_rep(pres, p, "eta")
    M = rep_evaluate(fox_derivative(pres.relators[0], 0, rep), rep)
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
    return TriangularReport(lower, strict, diags)
