"""The Hensel pairing lifted all the way, as an oracle for the early stop
of ``factorization._hensel_pairing``: the factor of D over u is lifted
to the a-priori modulus above twice |lc(D)| times the Mignotte bound,
and only that one candidate is certified."""

from math import gcd

from talex.factorization import _integer_sqrt, _lex_min_rep
from talex.intfactor import _hensel_step, _mignotte_modulus
from talex.laurent import LaurentPoly, gf_xgcd
from talex.rings import ZZ


def full_lift_pairing(D, u):
    D = D.canonical()
    p = u.ring.p
    if D.is_zero or D.coeffs[-1] % p == 0:
        return None
    lc = D.coeffs[-1]
    v = u.negate_t().scale(u.ring.from_int((-1) ** u.degree))
    g0 = u.scale(lc % p)
    if D.reduce_mod(p) != g0 * v:
        return None
    try:
        s, t = gf_xgcd(g0, v)
    except ValueError:
        return None
    root = _integer_sqrt(gcd(*D.coeffs))
    if root is None:
        return None
    m = _mignotte_modulus(D, p, u.degree)
    g, h, s, t = (LaurentPoly(ZZ, x.min_deg, x.coeffs) for x in (g0, v, s, t))
    q = p
    while q < m:
        g, h, s, t = _hensel_step(D, g, h, s, t, q, last=q * q == m)
        q *= q
    half = m // 2
    lifted = [c - m if c > half else c for c in g.coeffs]
    content = gcd(*lifted)
    F = LaurentPoly(ZZ, g.min_deg, [root * c // content for c in lifted])
    if (F * F.negate_t()).canonical() != D:
        return None
    return _lex_min_rep(F)
