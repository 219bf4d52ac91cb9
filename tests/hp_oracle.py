"""Brute-force H(p) expansions: an independent oracle for hp_expansion.

Every continued fraction [p*k1, 2*m1, ..., p*k_{l+1}] is built from the
right, one (2m, pk) pair at a time.  Prepending an entry a to a value
n/d with |n| <= d gives the denominator |a*d + n| >= (|a| - 1)*d, so no
entry or prefix that overshoots ``max_den`` can lead back under it: the
enumeration is exhaustive up to that denominator.  The oracle never
walks a tail window and never picks a Schubert form; it only compares
residues mod alpha.
"""

from fractions import Fraction


def _entries(step, d, max_den):
    """Nonzero multiples a of step with (|a| - 1) * d <= max_den."""
    k = 1
    while (step * k - 1) * d <= max_den:
        yield step * k
        yield -step * k
        k += 1


def hp_residues(p, max_den):
    """denominator -> set of numerators mod denominator, over every value
    of an H(p)-pattern continued fraction with denominator <= max_den."""
    frontier = [Fraction(1, a) for a in _entries(p, 1, max_den)]
    values = set(frontier)
    while frontier:
        v = frontier.pop()
        for m in _entries(2, v.denominator, max_den):
            w = 1 / (m + v)
            for a in _entries(p, w.denominator, max_den):
                u = 1 / (a + w)
                if u.denominator <= max_den and u not in values:
                    values.add(u)
                    frontier.append(u)
    residues = {}
    for v in values:
        residues.setdefault(v.denominator, set()).add(v.numerator % v.denominator)
    return residues


def knots_with_expansion(p, max_alpha):
    """Every (alpha, beta) with p | alpha <= max_alpha whose knot K(beta/alpha)
    or its mirror is the value of an H(p)-pattern continued fraction
    (b/alpha presents it iff b = +-beta^(+-1) mod alpha), and every one
    without."""
    residues = hp_residues(p, max_alpha)
    yes, no = [], []
    for alpha in range(p, max_alpha + 1, 2 * p):
        for beta in range(1, alpha):
            try:
                inv = pow(beta, -1, alpha)
            except ValueError:
                continue
            forms = {beta, alpha - beta, inv, alpha - inv}
            (yes if forms & residues.get(alpha, set()) else no).append((alpha, beta))
    return yes, no
