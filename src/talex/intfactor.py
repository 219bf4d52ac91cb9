"""Integer polynomial factorization behind the last-resort pairing route.

``factorization.total_pairing`` first Hensel-lifts the paper's mod-p
factor of D(t); it comes here only when that lift does not apply (the
mod-p factor and its t -> -t image share a factor, or p divides the
leading coefficient) or its candidate fails the certificate.

The factorizer is the classical Zassenhaus method (von zur Gathen &
Gerhard, *Modern Computer Algebra*, ch. 14 and 15), in pure Python:

* Yun's squarefree decomposition over Z, with the heuristic GCD of
  Char, Geddes and Gonnet (evaluation at a power of two, interpolation
  by the balanced Kronecker digits of ``laurent``) and a primitive PRS
  as its backup; the divisions of Yun's loop check every gcd exactly;
* an auxiliary prime l: several primes that divide neither the leading
  coefficient nor the discriminant are tried by distinct-degree
  factorization, and the one with the fewest factors is kept; the
  degrees that factors can have at every tried prime prune the
  recombination (and prove irreducibility outright when only 0 and n
  remain);
* Cantor-Zassenhaus equal-degree factorization over GF(l);
* the multifactor Hensel lift of Alg. 15.17 (a factor tree of the
  quadratic steps of Alg. 15.10) to a modulus above twice the Mignotte
  bound;
* recombination over subsets (section 15.6), pruned by degree and by
  the trailing-coefficient test, each factor confirmed by exact
  division over Z.

Every polynomial division over GF(l) and Z/p^k here is the one dense
division of ``laurent`` (``_gf_divmod``).

Recombination is exponential in the number r of modular factors, so
above ``MAX_MODULAR_FACTORS`` the factorizer raises
``FactorizationTooHard`` instead of running.  The output contract is
content times irreducible primitive factors with multiplicity,
reproducing the input exactly, in a fixed order (see int_poly_factor).
"""

from __future__ import annotations

import random
from itertools import combinations, count
from math import gcd, isqrt

from .laurent import (
    LaurentPoly,
    _byte_width,
    _dense,
    _gf_divmod,
    _gf_monic,
    _gf_mul,
    _kron_div_int,
    _pack_words,
    _trim,
    _unpack_words,
    _unpack,
    _word_code,
    gf_xgcd,
)
from .representations import is_prime
from .rings import ZZ, GFp

# recombination may try 2^(r-1) subsets of r modular factors; on the 299
# fallback knots of the off-panel survey (p | alpha <= 301) the best
# auxiliary prime leaves at most 14
MAX_MODULAR_FACTORS = 15
# auxiliary primes tried before the one with the fewest factors is kept
_PRIMES_TRIED = 5
# heuristic-gcd evaluation points tried before the PRS backup
_HEU_GCD_TRIES = 6
# Frobenius images multiplied together before one gcd in the
# distinct-degree factorization
_DDF_BLOCK = 8


class FactorizationTooHard(RuntimeError):
    """A squarefree part has more modular factors than the recombination
    cap MAX_MODULAR_FACTORS at every auxiliary prime tried."""


def int_poly_factor(p):
    """(content, [(irreducible primitive LaurentPoly, multiplicity), ...]).

    The t-power unit is stripped first (Laurent input), so the content
    times the product of the factors reproduces p up to its t^min_deg
    shift.  Every factor has a positive leading coefficient, so the
    content carries the sign.  Factors are listed by number of dense
    coefficients, then multiplicity, then dense coefficients from the
    highest degree down, the order sympy's factor_list uses.  Raises
    FactorizationTooHard above the recombination cap.
    """
    if p.is_zero:
        raise ValueError("cannot factor the zero polynomial")
    if p.ring is not ZZ:
        raise TypeError("int_poly_factor needs integer coefficients")
    f = _primitive(LaurentPoly(ZZ, 0, p.coeffs))
    content = p.coeffs[-1] // f.coeffs[-1]
    rng = random.Random(0)
    factors = [
        (q, mult)
        for part, mult in _yun(f)
        for q in _factor_squarefree(part, rng)
    ]
    factors.sort(key=lambda qm: (len(qm[0].coeffs), qm[1], qm[0].coeffs[::-1]))
    return content, factors


# ---------------------------------------------------------------------------
# integer gcds and the squarefree decomposition
# ---------------------------------------------------------------------------


def _primitive(a):
    """a divided by its content, with a positive leading coefficient."""
    c = gcd(*a.coeffs)
    if a.coeffs[-1] < 0:
        c = -c
    return LaurentPoly(ZZ, a.min_deg, [x // c for x in a.coeffs], _trusted=True)


def _derivative(a):
    """d/dt of a polynomial with min_deg 0."""
    return LaurentPoly(ZZ, 0, [k * c for k, c in enumerate(a.coeffs)][1:])


def _quotient(a, h):
    """a / h over Z for polynomials with nonzero constant terms, or None
    when h does not divide a (a cheap test: no remainder is built)."""
    q = _kron_div_int(list(a.coeffs), list(h.coeffs))
    return None if q is None else LaurentPoly(ZZ, 0, q)


def _zz_gcd(a, b):
    """The primitive gcd, with positive leading coefficient, of a (nonzero
    constant term) and b over Z."""
    if b.is_zero:
        return _primitive(a)
    # t does not divide a, so it does not divide the gcd
    b = b.shift(-b.min_deg)
    a, b = _primitive(a), _primitive(b)
    if a.degree == 0 or b.degree == 0:
        return LaurentPoly.one()
    return _heu_gcd(a, b) or _prs_gcd(a, b)


def _heu_gcd(a, b):
    """The heuristic GCD (Char, Geddes & Gonnet 1989) of primitive a and b
    with nonzero constant terms, or None when no evaluation point tried
    gives it.

    At xi = 2^w above 2*min(|a|, |b|) + 2 (max norms), the balanced
    xi-adic digits of gcd(a(xi), b(xi)) interpolate a polynomial whose
    primitive part is gcd(a, b) as soon as it divides both."""
    bound = 2 * min(max(map(abs, a.coeffs)), max(map(abs, b.coeffs))) + 2
    width = _byte_width(bound.bit_length() + 1)
    top = min(a.degree, b.degree)
    for _ in range(_HEU_GCD_TRIES):
        xi = 1 << width
        g = gcd(a.eval_int(xi), b.eval_int(xi))
        digits = _unpack(g, width, g.bit_length() // width + 2)
        h = LaurentPoly(ZZ, 0, digits)
        if not h.is_zero:
            h = _primitive(h.shift(-h.min_deg))
            if h.degree <= top and _quotient(a, h) and _quotient(b, h):
                return h
        width = _byte_width(width + width // 2)
    return None


def _prs_gcd(a, b):
    """gcd of primitive a and b over Z by the primitive PRS."""

    def primitive(r):
        c = gcd(*r)
        return [x // c for x in r]

    a, b = list(a.coeffs), list(b.coeffs)
    if len(a) < len(b):
        a, b = b, a
    while b:
        # pseudo-remainder of a by b
        lb, db = b[-1], len(b) - 1
        r = a
        while len(r) > db:
            c, k = r[-1], len(r) - 1 - db
            r = [x * lb for x in r]
            r[k:] = [x - c * y for x, y in zip(r[k:], b)]
            _trim(r)
        a, b = b, primitive(r) if r else []
    return _primitive(LaurentPoly(ZZ, 0, a))


def _yun(f):
    """Yun's squarefree decomposition of a primitive f with positive
    leading coefficient and nonzero constant term: [(a_i, i), ...] with
    f = prod a_i^i, the a_i squarefree, pairwise coprime, primitive with
    positive leading coefficient; constant a_i are left out.  Each
    exact_div raises if a gcd were wrong."""
    if f.degree == 0:
        return []
    df = _derivative(f)
    g = _zz_gcd(f, df)
    b, c = f.exact_div(g), df.exact_div(g)
    out = []
    i = 1
    while b.degree > 0:
        d = c - _derivative(b)
        a = _zz_gcd(b, d)
        if a.degree > 0:
            out.append((a, i))
        b, c = b.exact_div(a), d.exact_div(a)
        i += 1
    return out


# ---------------------------------------------------------------------------
# GF(l)[x] on the dense kernel of ``laurent``: gcd, DDF and EDF
# ---------------------------------------------------------------------------


def _gf_gcd(a, b, ell):
    """The monic gcd over GF(l) (of a nonzero a and b)."""
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        a, b = b, _gf_divmod(a, b, ell)[1]
    return _gf_monic(a, ell)


class _GFModulus:
    """Arithmetic in GF(l)[x]/(f) for a monic f of degree n >= 1: Kronecker
    products, and remainders by a precomputed inverse of the reversed f
    (two more products, no long division)."""

    def __init__(self, f, ell):
        self.f = f
        self.ell = ell
        self.n = len(f) - 1
        # 1/rev(f) mod x^(n-1) by Newton iteration; rev(f)(0) = 1
        rev = f[::-1]
        inv, prec = [1], 1
        while prec < self.n - 1:
            prec = min(2 * prec, self.n - 1)
            e = _gf_mul(rev[:prec], inv, ell)[:prec]
            e = [(-c) % ell for c in e]
            e[0] = (e[0] + 2) % ell
            inv = _gf_mul(inv, e, ell)[:prec]
        self.inv = inv

    def reduce(self, a):
        """a mod f for deg a <= 2n - 2."""
        n, ell = self.n, self.ell
        k = len(a) - n  # quotient length
        if k <= 0:
            return a
        # rev(q) = rev(a) / rev(f) mod x^k
        qr = _gf_mul(a[: n - 1 : -1], self.inv[:k], ell)[:k]
        q = ([0] * (k - len(qr)) + qr[::-1]) if qr else []
        qf = _gf_mul(q, self.f, ell)[:n]
        qf += [0] * (n - len(qf))
        return _trim([(x - y) % ell for x, y in zip(a[:n], qf)])

    def mul(self, a, b):
        return self.reduce(_gf_mul(a, b, self.ell))

    def pow(self, a, e):
        result, base = [1], a
        while e:
            if e & 1:
                result = self.mul(result, base)
            e >>= 1
            if e:
                base = self.mul(base, base)
        return result


def _x_minus(h, ell):
    """h - x over GF(l)."""
    h = h + [0] * max(0, 2 - len(h))
    h[1] = (h[1] - 1) % ell
    return _trim(h)


def _gf_squarefree(f, ell):
    df = _trim([k * c % ell for k, c in enumerate(f)][1:])
    return bool(df) and len(_gf_gcd(f, df, ell)) == 1


def _frobenius_map(mod):
    """h -> h^l mod f for the modulus f of ``mod``, as the linear map
    h^l = sum h_i x^(l*i): the rows x^(l*i) mod f are built once and
    packed as integers, so one application is n integer multiply-adds
    and one unpack."""
    n, ell = mod.n, mod.ell
    code = _word_code(n * (ell - 1) ** 2 + 1)
    x_ell = mod.pow([0, 1], ell)
    rows = [[1]]
    for _ in range(1, n):
        rows.append(mod.mul(rows[-1], x_ell))
    packed = [_pack_words(row, code) for row in rows]

    def apply(h):
        total = sum(c * row for c, row in zip(h, packed) if c)
        return _trim([c % ell for c in _unpack_words(total, code, n)])

    return apply


def _gf_ddf(f, ell):
    """Distinct-degree factorization of a monic squarefree f over GF(l):
    [(g_d, d), ...] with g_d the product of the irreducible factors of
    degree d.  The Frobenius images x^(l^d) are computed mod f; a block
    of _DDF_BLOCK of them shares one gcd, refined only when it is not 1."""
    mod = _GFModulus(f, ell)
    frobenius = _frobenius_map(mod)
    out = []
    rest = f
    h = [0, 1]
    d = 0
    while 2 * (d + 1) <= len(rest) - 1:
        block = []
        acc = [1]
        for _ in range(_DDF_BLOCK):
            d += 1
            h = frobenius(h)
            block.append((d, h))
            acc = mod.mul(acc, _x_minus(h, ell))
            if 2 * (d + 1) > len(rest) - 1:
                break
        g = _gf_gcd(rest, acc, ell)
        for dd, hh in block:
            if len(g) == 1:
                break
            gd = _gf_gcd(g, _x_minus(hh, ell), ell)
            if len(gd) > 1:
                out.append((gd, dd))
                g = _gf_divmod(g, gd, ell)[0]
                rest = _gf_divmod(rest, gd, ell)[0]
    if len(rest) > 1:
        out.append((rest, len(rest) - 1))
    return out


def _gf_edf(g, d, ell, rng):
    """The monic irreducible factors, all of degree d, of a monic
    squarefree g over GF(l) (l odd), by Cantor-Zassenhaus splitting."""
    n = len(g) - 1
    if n == d:
        return [g]
    mod = _GFModulus(g, ell)
    e = (ell**d - 1) // 2
    while True:
        a = _trim([rng.randrange(ell) for _ in range(n)])
        if len(a) < 2:
            continue
        b = mod.pow(a, e)
        h = _gf_gcd(g, _trim([(b[0] - 1) % ell] + b[1:]), ell)
        if 1 < len(h) < len(g):
            break
    return _gf_edf(h, d, ell, rng) + _gf_edf(_gf_divmod(g, h, ell)[0], d, ell, rng)


# ---------------------------------------------------------------------------
# Hensel lifting
# ---------------------------------------------------------------------------


def _reduce(poly, m):
    """Coefficients reduced into range(m)."""
    return LaurentPoly(ZZ, poly.min_deg, [c % m for c in poly.coeffs])


def _hensel_step(f, g, h, s, t, m, last):
    """One quadratic Hensel step (von zur Gathen & Gerhard, Modern
    Computer Algebra, Alg. 15.10): from f = g*h and s*g + t*h = 1 mod m,
    h monic, to the same mod m^2.  The last step skips s and t."""
    m2 = m * m
    one = LaurentPoly.one()
    e = _reduce(f - g * h, m2)
    q, r = _gf_divmod(_dense(s * e), _dense(h), m2)
    g = _reduce(g + t * e + LaurentPoly(ZZ, 0, q) * g, m2)
    h = _reduce(h + LaurentPoly(ZZ, 0, r), m2)
    if last:
        return g, h, s, t
    b = _reduce(s * g + t * h - one, m2)
    c, d = _gf_divmod(_dense(s * b), _dense(h), m2)
    s = _reduce(s - LaurentPoly(ZZ, 0, d), m2)
    t = _reduce(t - t * b - LaurentPoly(ZZ, 0, c) * g, m2)
    return g, h, s, t


def _mignotte_modulus(f, p, degree):
    """The first p^(2^k), where quadratic lifting from p stops, above
    twice |lc(f)| times the Mignotte bound 2^degree * ||f||_2 on the
    coefficients of a degree-``degree`` factor of f."""
    norm = isqrt(sum(c * c for c in f.coeffs)) + 1
    bound = 2 * abs(f.coeffs[-1]) * (norm << degree)
    m = p
    while m <= bound:
        m *= m
    return m


def _hensel_lift(f, g, h, s, t, m):
    """The lifts (g, h, q) of f = g*h mod p to f = g*h mod q, for q = p,
    p^2, p^4, ... up to m, for g, h, s, t over GF(p) with s*g + t*h = 1
    and h monic, and m a power p^(2^k) (from _mignotte_modulus).  g and h
    come as integer polynomials with coefficients in range(q).

    Each step runs only when the next lift is asked for, so a caller
    that can recognise its answer at a small q stops there: the lift of
    a coprime factorization is unique (von zur Gathen & Gerhard, Modern
    Computer Algebra, section 15.4), so the later lifts only refine it."""
    q = g.ring.p
    g, h, s, t = (LaurentPoly(ZZ, x.min_deg, x.coeffs) for x in (g, h, s, t))
    yield g, h, q
    while q < m:
        g, h, s, t = _hensel_step(f, g, h, s, t, q, last=q * q == m)
        q *= q
        yield g, h, q


def _lift_tree(f, factors, ell, m):
    """Monic lifts mod m of the monic factors mod l of f = lc(f)*prod
    factors (mod l), by halving the factor list (Alg. 15.17); m is a
    power l^(2^k) from _mignotte_modulus."""
    if len(factors) == 1:
        return [_reduce(f.scale(pow(f.coeffs[-1], -1, m)), m)]
    half = len(factors) // 2
    left = [f.coeffs[-1] % ell]
    for a in factors[:half]:
        left = _gf_mul(left, a, ell)
    right = [1]
    for a in factors[half:]:
        right = _gf_mul(right, a, ell)
    gf = GFp(ell)
    left, right = LaurentPoly(gf, 0, left), LaurentPoly(gf, 0, right)
    s, t = gf_xgcd(left, right)
    # recombination needs the lift modulo the full bound
    *_, (g, h, _) = _hensel_lift(f, left, right, s, t, m)
    return _lift_tree(g, factors[:half], ell, m) + _lift_tree(h, factors[half:], ell, m)


# ---------------------------------------------------------------------------
# the squarefree factorizer
# ---------------------------------------------------------------------------


def _factor_squarefree(f, rng):
    """The irreducible factors over Z of a squarefree primitive f with
    positive leading coefficient and nonzero constant term."""
    n = f.degree
    if n == 1:
        return [f]
    lc = f.coeffs[-1]
    whole = (1 << n) | 1
    allowed = None  # bit k: degree k is a sum of factor degrees at every prime
    tried = []
    for ell in filter(is_prime, count(3, 2)):
        if lc % ell == 0:
            continue
        fl = _gf_monic([c % ell for c in f.coeffs], ell)
        if not _gf_squarefree(fl, ell):
            continue
        ddf = _gf_ddf(fl, ell)
        degrees = [d for g, d in ddf for _ in range((len(g) - 1) // d)]
        sums = 1
        for d in degrees:
            sums |= sums << d
        allowed = sums if allowed is None else allowed & sums
        if allowed == whole:
            return [f]
        tried.append((len(degrees), ell, ddf))
        # two factors are a single trial division: no prime does better
        if len(degrees) == 2 or len(tried) == _PRIMES_TRIED:
            break
    r, ell, ddf = min(tried)
    if r > MAX_MODULAR_FACTORS:
        raise FactorizationTooHard(
            f"degree {n} squarefree part has {r} factors mod {ell}, "
            f"above the recombination cap {MAX_MODULAR_FACTORS}"
        )
    modular = [a for g, d in ddf for a in _gf_edf(g, d, ell, rng)]
    m = _mignotte_modulus(f, ell, n)
    return _recombine(f, _lift_tree(f, modular, ell, m), m, allowed)


def _recombine(f, lifted, m, allowed):
    """The irreducible factors of f from its monic factors mod m (f =
    lc(f) * prod lifted mod m, m above twice the Mignotte bound): subsets
    in order of size, skipped unless their degree is allowed and their
    trailing coefficient divides lc(f)*f(0), each candidate confirmed by
    exact division."""
    half = m // 2
    degrees = [g.degree for g in lifted]
    trailing = [g.coeff(0) for g in lifted]
    left = list(range(len(lifted)))
    found = []
    size = 1
    while 2 * size <= len(left):
        lc = f.coeffs[-1]
        target = lc * f.coeffs[0]
        for subset in combinations(left, size):
            if not allowed >> sum(degrees[i] for i in subset) & 1:
                continue
            tc = lc
            for i in subset:
                tc = tc * trailing[i] % m
            if tc > half:
                tc -= m
            if tc == 0 or target % tc:
                continue
            g = LaurentPoly.const(lc)
            for i in subset:
                g = _reduce(g * lifted[i], m)
            g = _primitive(LaurentPoly(ZZ, 0, [c - m if c > half else c for c in g.coeffs]))
            quotient = _quotient(f, g)
            if quotient is None:
                continue
            found.append(g)
            f = quotient
            left = [i for i in left if i not in subset]
            break
        else:
            size += 1
    if f.degree > 0:
        found.append(f)
    return found
