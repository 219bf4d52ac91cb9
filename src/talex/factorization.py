"""The constructive f(t)f(-t) factorization of the dihedral total.

The engine: once the extra factor of the Wada numerator (relative to
the torus knot K(1/p)) is recognized as a *split* matrix polynomial --
even part scalar, odd part a multiple of x+y -- its determinant after
the companion substitution splits as det(G - V*H) * det(G + V*H) with
V the integer square root of 4E + C.  Since G is even and H odd in t,
the two determinants are f(t) and f(-t).

The extra factor itself is recovered as an exact matrix quotient
N(t) = Fox(R) * adj(Fox(R0)) / det(Fox(R0)): failure of that division
or of splitness is a first-class outcome (expected off H(p)), not a
crash.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .intfactor import int_poly_factor
from .knots import NotFoundWithinBounds, alexander, hp_expansion, presentation
from .laurent import LaurentPoly, modp_unit_equal, gf_exact_div
from .matrices import PolyRing, RingMatrix, ZZ_POLY, gamma_substitute
from .representations import (
    dihedral_rep,
    dihedral_xi,
    omega_companion,
    omega_ring,
    v_matrix,
    xy_power_table,
)
from .rings import NonExactDivision
from .twisted import dihedral_total, modp_congruence, wada
from .words import fox_derivative, rep_evaluate
from .knots import TwoBridgeFraction


class NotSplit(ValueError):
    """The candidate matrix polynomial is not split."""


class CertificateFailure(AssertionError):
    """F(t)F(-t) failed to reproduce the dihedral total exactly."""


@dataclass(frozen=True)
class SplitForm:
    """phi(t) = G(t)*1 + H(t)*(x+y) with G even and H odd in t."""

    G: LaurentPoly
    H: LaurentPoly

    def __post_init__(self):
        if any(k % 2 for k in self.G.support()):
            raise NotSplit("even part has odd-degree terms")
        if any(k % 2 == 0 for k in self.H.support()):
            raise NotSplit("odd part has even-degree terms")


def split_check(M):
    """SplitForm for a 2x2 matrix of Z[omega] Laurent polynomials, or
    None: every even-degree coefficient matrix must be scalar, every
    odd-degree one a multiple of x+y = [[-2, 1], [omega, 2]]."""
    ring = M.ring.coeff_ring
    w = ring.gen()
    m11, m12 = M[0, 0], M[0, 1]
    m21, m22 = M[1, 0], M[1, 1]
    degrees = set()
    for e in (m11, m12, m21, m22):
        degrees.update(e.support())
    g = {}
    h = {}
    for k in sorted(degrees):
        c11, c12 = m11.coeff(k), m12.coeff(k)
        c21, c22 = m21.coeff(k), m22.coeff(k)
        if k % 2 == 0:
            if not ring.is_zero(c12) or not ring.is_zero(c21) or c11 != c22:
                return None
            g[k] = c11
        else:
            beta = c12
            if (
                c11 != ring.neg(ring.add(beta, beta))
                or c22 != ring.add(beta, beta)
                or c21 != ring.mul(w, beta)
            ):
                return None
            h[k] = beta
    return SplitForm(
        G=LaurentPoly.from_dict(g, ring), H=LaurentPoly.from_dict(h, ring)
    )


def _as_matrix(form, ring):
    """Reconstruct [[G-2H, H], [omega*H, G+2H]] from a SplitForm."""
    w = LaurentPoly.const(ring.gen(), ring)
    two = LaurentPoly.const(2, ring)
    G, H = form.G, form.H
    return RingMatrix(
        PolyRing(ring),
        [[G - two * H, H], [w * H, G + two * H]],
    )


def torus_gh(p):
    """The split form of the torus-knot Wada quotient: g even with
    support through t^{2n-2}, h odd through t^{2n-1}, built from the
    (XY)-power table; g^2 - (4+omega)h^2 is verified against the Wada
    computation for K(1/p) at construction."""
    n = (p - 1) // 2
    ring = omega_ring(n)
    table = xy_power_table(p)
    g = {}
    h = {}
    for k in range(1, n):
        b = table.b(k)
        g[2 * k - 2] = ring.add(g.get(2 * k - 2, ring.zero), b)
        g[2 * k] = ring.add(g.get(2 * k, ring.zero), b)
    g[2 * n - 2] = ring.add(g.get(2 * n - 2, ring.zero), table.b(n))
    for k in range(1, n + 1):
        h[2 * k - 1] = table.b(k)
    form = SplitForm(
        G=LaurentPoly.from_dict(g, ring), H=LaurentPoly.from_dict(h, ring)
    )
    w_plus_4 = LaurentPoly.const(ring.add(ring.from_int(4), ring.gen()), ring)
    identity = form.G * form.G - w_plus_4 * form.H * form.H
    torus = TwoBridgeFraction(p, 1)
    pres = presentation(torus)
    direct = wada(pres, dihedral_rep(pres, p, "xi"))
    if identity.canonical() != direct:
        raise AssertionError(f"torus split form does not reproduce the Wada quotient at p={p}")
    return form


def extract_GH(f, p):
    """Recover the split form of the extra factor of K(r) over K(1/p).

    N(t) := Fox(R)^Phi * adj(Fox(R0)^Phi), entrywise exact-divided by
    det Fox(R0)^Phi, is split-checked (directly, then after peeling a
    y*t unit).  Raises NonExactDivision or NotSplit for knots that do
    not admit the factorization route (expected outside H(p))."""
    if f.alpha % p != 0:
        raise ValueError(f"p={p} does not divide alpha={f.alpha}")
    pres = presentation(f)
    torus_pres = presentation(TwoBridgeFraction(p, 1))
    rep = dihedral_rep(pres, p, "xi")
    torus_rep = dihedral_rep(torus_pres, p, "xi")
    A = rep_evaluate(fox_derivative(pres.relators[0], 0, rep), rep)
    B = rep_evaluate(fox_derivative(torus_pres.relators[0], 0, torus_rep), torus_rep)
    det_b = B.det()
    adj_b = RingMatrix(
        B.ring,
        [[B[1, 1], -B[0, 1]], [-B[1, 0], B[0, 0]]],
    )
    N = (A * adj_b).map_entries(lambda e: e.exact_div(det_b))
    # In this relator convention the torus knot itself gives N = identity
    # (G = 1, H = 0), so N is the split candidate directly; knots whose
    # leading partial quotient falls in the other parity class carry a
    # leftover unit y*t, which the second candidate peels off.  Either
    # way the factorization certificate downstream is the ground truth.
    form = split_check(N)
    if form is None:
        _, Y = dihedral_xi(p)
        y_poly = Y.map_entries(
            lambda e: LaurentPoly.const(e, Y.ring), ring=N.ring
        )
        twisted = (y_poly * N).map_entries(lambda e: e.shift(1))
        form = split_check(twisted)
    if form is None:
        raise NotSplit(f"matrix quotient for {f} at p={p} is not split")
    return form


def _lift_int_matrix(M):
    return M.map_entries(lambda e: LaurentPoly.const(e), ring=ZZ_POLY)


def _split_determinant(form, p):
    """det(gamma(G) - V * gamma(H)) for a split form; by parity of G and
    H this is one member of an {f(t), f(-t)} pair."""
    n = (p - 1) // 2
    C = omega_companion(n)
    V = _lift_int_matrix(v_matrix(n))
    gG = gamma_substitute(form.G, C)
    gH = gamma_substitute(form.H, C)
    if gG * V != V * gG or gH * V != V * gH:
        raise AssertionError("gamma images fail to commute with V")
    return (gG - V * gH).det()


def _lex_min_rep(poly):
    """The canonical representative of {f(t), f(-t)}: lexicographically
    smaller coefficient tuple after unit normalization."""
    a = poly.canonical()
    b = poly.negate_t().canonical()
    return a if a.coeffs <= b.coeffs else b


@dataclass(frozen=True)
class FactorizationCertificate:
    D: LaurentPoly
    q: LaurentPoly
    f: LaurentPoly
    F: LaurentPoly

    def verify(self):
        return (self.F * self.F.negate_t()).canonical() == self.D


def f_polynomial(f, p):
    """The constructive factorization D = F(t)F(-t), F = q*f, with the
    certificate checked exactly; raises CertificateFailure otherwise."""
    tor = torus_gh(p)
    extra = extract_GH(f, p)
    q = _split_determinant(tor, p)
    fp = _split_determinant(extra, p)
    F = _lex_min_rep(q * fp)
    cert = FactorizationCertificate(
        D=dihedral_total(f, p),
        q=q.canonical(),
        f=_lex_min_rep(fp),
        F=F,
    )
    if not cert.verify():
        raise CertificateFailure(f"F(t)F(-t) != D for {f} at p={p}")
    return cert


def factor_pairing(D):
    """A fallback f with f(t)f(-t) = D (up to units) via integer
    factorization and greedy pairing of each irreducible with its
    t -> -t image; None when no pairing exists."""
    D = D.canonical()
    if D.is_zero:
        return None
    content, factors = int_poly_factor(D)
    root = _integer_sqrt(abs(content))
    if root is None:
        return None
    remaining = [[q, m] for q, m in factors]
    parts = [LaurentPoly.const(root)]
    for item in remaining:
        q, mult = item
        if mult == 0:
            continue
        q_neg = q.negate_t().canonical()
        if q_neg == q.canonical():
            # self-paired: q(t) and q(-t) agree up to units
            if mult % 2:
                return None
            parts.append(q ** (mult // 2))
            item[1] = 0
            continue
        partner = next(
            (
                other
                for other in remaining
                if other is not item and other[1] and other[0].canonical() == q_neg
            ),
            None,
        )
        if partner is None or partner[1] != mult:
            return None
        parts.append(q ** mult)
        item[1] = 0
        partner[1] = 0
    f_cand = parts[0]
    for part in parts[1:]:
        f_cand = f_cand * part
    if (f_cand * f_cand.negate_t()).canonical() != D:
        return None
    return _lex_min_rep(f_cand)


def _integer_sqrt(n):
    if n < 0:
        return None
    r = isqrt(n)
    return r if r * r == n else None


@dataclass(frozen=True)
class ConjectureReport:
    fraction: TwoBridgeFraction
    p: int
    D: LaurentPoly
    q: LaurentPoly | None
    f: LaurentPoly | None
    F: LaurentPoly | None
    split: bool
    hp: str
    modp: bool
    modp_f: bool | None
    remark53: bool | None

    @property
    def factorization_exists(self):
        return self.F is not None


def torus_q_probe(p):
    """Does the torus factor q(t) have the conjectured closed form
    (1+t)^n Delta_{K(1/p)}(t)^{n-1}, up to units and the t -> -t swap?
    The "remark53" report field (a fixed wire-format key) carries the
    verdict."""
    n = (p - 1) // 2
    q = _split_determinant(torus_gh(p), p)
    delta = alexander(presentation(TwoBridgeFraction(p, 1)))
    expected = (
        LaurentPoly.from_int_coeffs([1, 1]) ** n * delta ** (n - 1)
    ).canonical()
    return q.canonical() == expected or q.negate_t().canonical() == expected


def conjecture_report(f, p, hp_bounds=None):
    """The full per-knot report: constructive factorization (with the
    integer-factorization fallback), H(p) search verdict, mod-p
    congruences, and the torus-part probe."""
    D = dihedral_total(f, p)
    n = (p - 1) // 2
    split_ok = False
    q = fpoly = F = None
    try:
        cert = f_polynomial(f, p)
        split_ok = True
        q, fpoly, F = cert.q, cert.f, cert.F
    except (NonExactDivision, NotSplit):
        fallback = factor_pairing(D)
        if fallback is not None:
            F = fallback
    verdict = hp_expansion(f, p, **(hp_bounds or {}))
    hp = "inconclusive" if isinstance(verdict, NotFoundWithinBounds) else "yes"
    modp = modp_congruence(f, p).congruence_holds
    modp_f = None
    if F is not None:
        delta_p = alexander(presentation(f)).reduce_mod(p)
        one_plus = LaurentPoly.from_int_coeffs([1, 1]).reduce_mod(p)
        try:
            base = gf_exact_div(delta_p, one_plus) ** n
        except NonExactDivision:
            base = None
        if base is None:
            modp_f = False
        else:
            # F is pinned only up to t -> -t applied independently to
            # the torus part q and the extra part f (q*f(-t) is a valid
            # F too); the congruence holds for some valid choice
            if q is not None and fpoly is not None:
                candidates = [q * fpoly, q * fpoly.negate_t()]
            else:
                candidates = [F]
            modp_f = any(
                modp_unit_equal(c.reduce_mod(p), base, p)
                or modp_unit_equal(c.negate_t().reduce_mod(p), base, p)
                for c in candidates
            )
    remark = torus_q_probe(p)
    return ConjectureReport(
        fraction=f,
        p=p,
        D=D,
        q=q,
        f=fpoly,
        F=F,
        split=split_ok,
        hp=hp,
        modp=modp,
        modp_f=modp_f,
        remark53=remark,
    )
