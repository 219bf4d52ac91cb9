"""The benchmark's workloads: seeded inputs, the items that call talex's
public entry points, and the checks on their outputs.

Every item calls one public top-level entry point through the package
namespace (``talex.dihedral_total`` and so on), looked up at call time,
so that the tracer's wrappers see the call and the pipeline behind it
is whatever the tree under test implements.

The panels of knots are fixed; ``--seed`` draws which Schubert form of
each knot the library receives (beta or beta^-1 mod alpha, which present
the same knot) and the order of the items.  Drawing the knots themselves
from the seed would make the cost of a pass depend on the seed far more
than on the code: item costs are heavy-tailed (in a sample of 60 census
knots the costliest took 33 times the median, and N(3,5) at alpha=85
ranges from 0.4 s to 32 s with beta), so runs on different seeds would
not be comparable.
``alpha_sweep`` is the exception: its cost depends on alpha, not on beta,
so there the seed draws beta freely.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from math import gcd

import talex
from talex import verify
from talex.laurent import LaurentPoly, gf_exact_div, modp_unit_equal
from talex.rings import NonExactDivision

# fixed once; changing it changes every pass, so it is part of the benchmark
PANEL_SEED = 2009
# the panel seed's 34th knot, 103/155 at p=5, would spend 5 s in sympy alone
# and set the spread of the whole pass; see README.md
CENSUS_SIZE = 32
CENSUS_MAX_ALPHA = 500
SWEEP_ALPHAS = (1503, 2001, 3003, 3999)
SWEEP_P = 3


@dataclass(frozen=True)
class Item:
    """One timed call: ``run()`` returns the output that ``canon`` turns
    into text for the digest and ``check`` judges (None when it holds,
    else the reason)."""

    key: str
    run: object
    canon: object
    check: object


@dataclass(frozen=True)
class Workload:
    items: tuple
    warmup: tuple
    goldens: tuple  # Items run once, untimed, after the timed passes


def poly_text(p):
    return f"{p.min_deg}:{','.join(str(c) for c in p.coeffs)}"


def digest(keyed_texts):
    """SHA-256 over (key, canonical output) pairs in key order."""
    h = hashlib.sha256()
    for key, text in sorted(keyed_texts):
        h.update(f"{key}\t{text}\n".encode())
    return h.hexdigest()


def schubert_form(rng, alpha, beta):
    """beta or beta^-1 mod alpha: two fractions of the same knot."""
    return talex.TwoBridgeFraction(alpha, rng.choice((beta, pow(beta, -1, alpha))))


def _random_beta(rng, alpha):
    while True:
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) == 1:
            return beta


def _modp_congruence_holds(D, delta, p):
    """D = {Delta(t)/(1+t)}^n {Delta(-t)/(1-t)}^n in (Z/p)[t] up to units,
    from polynomials already computed."""
    n = (p - 1) // 2
    delta_p = delta.reduce_mod(p)
    try:
        left = gf_exact_div(delta_p, LaurentPoly.from_int_coeffs([1, 1]).reduce_mod(p))
        right = gf_exact_div(
            delta_p.negate_t(), LaurentPoly.from_int_coeffs([1, -1]).reduce_mod(p)
        )
    except NonExactDivision:
        return False
    return modp_unit_equal(D.reduce_mod(p), (left**n) * (right**n), p)


def _equals(expected):
    def check(got):
        return None if got == expected.canonical() else "differs from the golden value"

    return check


# ---------------------------------------------------------------------------
# alpha_sweep: the big-knot CLI case, `talex dihedral beta/alpha 3`
# ---------------------------------------------------------------------------


def alexander_2bridge(f):
    """Delta(t) = sum_k (-1)^k t^(e_k), e_k = eps_1 + ... + eps_k, with
    eps_i = (-1)^floor(i*beta/alpha) for the odd representative of beta:
    the closed form for 2-bridge knots.  It takes O(alpha) steps and
    shares no code with the library's Fox calculus."""
    beta = f.beta if f.beta % 2 else f.beta - f.alpha
    coeffs = {}
    e = 0
    for k in range(f.alpha):
        if k:
            e += -1 if (k * beta // f.alpha) % 2 else 1
        coeffs[e] = coeffs.get(e, 0) + (-1) ** k
    return LaurentPoly.from_dict(coeffs).canonical()


def dihedral_item(f, p, check=None):
    def congruence(D):
        delta = alexander_2bridge(f)
        if abs(delta.eval_int(-1)) != f.alpha:
            return "|Delta(-1)| != alpha"
        if not _modp_congruence_holds(D, delta, p):
            return f"D(t) fails the mod-{p} congruence with Delta"
        return None

    return Item(
        key=f"D {f} p={p}",
        run=lambda: talex.dihedral_total(f, p),
        canon=poly_text,
        check=check or congruence,
    )


def alpha_sweep(seed):
    rng = random.Random(seed)
    items = [
        dihedral_item(talex.TwoBridgeFraction(a, _random_beta(rng, a)), SWEEP_P)
        for a in SWEEP_ALPHAS
    ]
    goldens = [
        dihedral_item(talex.TwoBridgeFraction(*pair), p, check=_equals(want))
        for (pair, p), want in verify.DIHEDRAL_GOLDENS.items()
    ]
    warmup = [dihedral_item(talex.TwoBridgeFraction(3, 1), SWEEP_P)]
    return Workload(tuple(items), tuple(warmup), tuple(goldens))


# ---------------------------------------------------------------------------
# nqp_det: `talex metacyclic --rep max`, the 2pq-dimensional determinant
# ---------------------------------------------------------------------------

# (alpha, beta, q, p): the two golden knots of the N(q,p) tables
NQP_PANEL = ((85, 19, 3, 5), (27, 5, 4, 3))


def nqp_item(f, q, p, expected):
    return Item(
        key=f"N({q},{p}) {f.alpha}",
        run=lambda: talex.nqp_total(f, q, p),
        canon=poly_text,
        check=_equals(expected),
    )


def nqp_det(seed):
    rng = random.Random(seed)
    items = []
    for alpha, beta, q, p in NQP_PANEL:
        f = schubert_form(rng, alpha, beta)
        items.append(nqp_item(f, q, p, verify.NQP_GOLDENS[((alpha, beta), q, p)]))
    rng.shuffle(items)
    # the torus knot 1/p; its check is never run
    warmup = [
        nqp_item(talex.TwoBridgeFraction(p, 1), q, p, None)
        for _, _, q, p in NQP_PANEL
    ]
    return Workload(tuple(items), tuple(warmup), ())


# ---------------------------------------------------------------------------
# census: `talex dihedral beta/alpha p --factor` over many small knots
# ---------------------------------------------------------------------------


def census_panel():
    """CENSUS_SIZE distinct (alpha, beta, p), p in {3,5,7}, p | alpha <= 500,
    drawn as `talex verify census` draws them."""
    rng = random.Random(PANEL_SEED)
    panel = []
    seen = set()
    while len(panel) < CENSUS_SIZE:
        p = rng.choice((3, 5, 7))
        alpha = p * rng.randrange(1, CENSUS_MAX_ALPHA // p + 1)
        if alpha % 2 == 0 or alpha < 3:
            continue
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) != 1:
            continue
        knot = (alpha, min(beta, pow(beta, -1, alpha)), p)
        if knot not in seen:
            seen.add(knot)
            panel.append(knot)
    return panel


def report_text(r):
    def opt(p):
        return "-" if p is None else poly_text(p)

    return "|".join(
        [poly_text(r.D), opt(r.q), opt(r.f), opt(r.F)]
        + [str(v) for v in (r.split, r.hp, r.modp, r.modp_f, r.remark53)]
    )


def report_check(r):
    if not r.modp:
        return "mod-p congruence fails"
    if r.F is not None and (r.F * r.F.negate_t()).canonical() != r.D:
        return "F(t)F(-t) != D"
    return None


def report_item(f, p, check=report_check):
    return Item(
        key=f"report {f} p={p}",
        run=lambda: talex.conjecture_report(f, p),
        canon=report_text,
        check=check,
    )


def _factor_golden_check(q_want, f_want):
    def check(r):
        base = report_check(r)
        if base:
            return base
        if r.q is None or r.f is None:
            return "no constructive factorization"
        if not (verify.swap_unit_equal(r.q, q_want) and verify.swap_unit_equal(r.f, f_want)):
            return "q or f differs from the golden value"
        return None

    return check


def census(seed):
    rng = random.Random(seed)
    items = [
        report_item(schubert_form(rng, alpha, beta), p)
        for alpha, beta, p in census_panel()
    ]
    rng.shuffle(items)
    goldens = [
        report_item(talex.TwoBridgeFraction(*pair), p, _factor_golden_check(q, f))
        for (pair, p), (q, f) in verify.FACTOR_GOLDENS.items()
    ]
    warmup = [report_item(talex.TwoBridgeFraction(p, 1), p) for p in (3, 5, 7)]
    return Workload(tuple(items), tuple(warmup), tuple(goldens))


WORKLOADS = {"alpha_sweep": alpha_sweep, "nqp_det": nqp_det, "census": census}
