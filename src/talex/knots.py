"""2-bridge fractions, Wirtinger presentations, and Alexander polynomials.

A 2-bridge knot is addressed by a reduced fraction beta/alpha with
alpha odd, 0 < beta < alpha.  Its group has the standard 2-generator,
1-relator presentation with relator W x W^-1 y^-1, where the exponent
pattern of W follows the Schubert normal form
epsilon_i = (-1)^floor(i*beta/alpha).  The convention is certified
downstream by |Delta(-1)| = alpha and by the printed Alexander
polynomials it reproduces.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import cycle
from math import gcd
from operator import mul, neg

from .laurent import PreconditionError
from .matrices import ZZ_POLY, RingMatrix
from .representations import require_prime_divisor, trivial_rep
from .words import FreeWord, fox_derivative


@dataclass(frozen=True)
class TwoBridgeFraction:
    """beta/alpha with alpha odd, 0 < beta < alpha, gcd = 1."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.alpha % 2 == 0:
            raise PreconditionError("alpha must be odd and positive (knots, not links)")
        if not (0 < self.beta < self.alpha):
            raise PreconditionError("need 0 < beta < alpha")
        if gcd(self.alpha, self.beta) != 1:
            raise PreconditionError("alpha and beta must be coprime")

    @classmethod
    def parse(cls, text):
        """Parse the CLI syntax 'beta/alpha', e.g. '19/85'."""
        beta_s, _, alpha_s = text.partition("/")
        try:
            return cls(int(alpha_s), int(beta_s))
        except ValueError as e:
            raise PreconditionError(f"bad fraction {text!r}: {e}") from None

    def __str__(self):
        return f"{self.beta}/{self.alpha}"


@dataclass(frozen=True)
class Presentation:
    """A deficiency-one presentation with Wirtinger generators."""

    gens: tuple
    relators: tuple

    def __post_init__(self):
        if len(self.relators) != len(self.gens) - 1:
            raise ValueError("presentation must have deficiency one")
        for r in self.relators:
            # one C-level count per letter code; the known letters must
            # spell all of r (so no code 0 and no generator beyond gens)
            known = total = 0
            for k in range(1, len(self.gens) + 1):
                up, down = r.codes.count(k), r.codes.count(-k)
                known += up + down
                total += up - down
            if known != len(r.codes):
                raise ValueError("relator uses an unknown generator")
            if total != 0:
                raise ValueError("relators of meridian generators abelianize to 0")

    @property
    def num_gens(self):
        return len(self.gens)


def epsilon_sequence(f):
    """The Schubert exponents (-1)^floor(i*beta/alpha), i = 1..alpha-1.

    The floor formula presumes the odd representative of beta mod alpha
    (beta and beta - alpha address the same knot); with an even beta it
    would not even produce an Alexander polynomial of a knot.  The
    |Delta(-1)| = alpha and symmetry invariants certify the choice.
    """
    alpha = f.alpha
    beta = f.beta if f.beta % 2 else f.beta - alpha
    return [-1 if ((i * beta) // alpha) % 2 else 1 for i in range(1, alpha)]


def presentation(f):
    """The 2-bridge presentation <x, y | W x W^-1 y^-1>, with
    W = x^eps_1 y^eps_2 x^eps_3 ... y^eps_(alpha-1)."""
    # W alternates x and y, so it is freely reduced, and none of the
    # joins W|x, x|W^-1, W^-1|y^-1 cancels: W ends in a y-letter (alpha
    # - 1 is even), so W^-1 starts with one, and W^-1 ends in an x-letter
    w = tuple(map(mul, epsilon_sequence(f), cycle((1, 2))))
    relator = FreeWord._trusted((*w, 1, *map(neg, reversed(w)), -2))
    return Presentation(gens=("x", "y"), relators=(relator,))


def presentation_8_5():
    """The 3-generator, 2-relator presentation of the non-2-bridge knot 8_5."""
    r1 = FreeWord.from_text("XYzyxYXY" + "x" + "yxyXYZyx" + "Y")
    r2 = FreeWord.from_text("yXYZX" + "y" + "xzyxY" + "Z")
    return Presentation(gens=("x", "y", "z"), relators=(r1, r2))


PRESETS = {"8_5": presentation_8_5}


@dataclass(frozen=True)
class ContinuedFraction:
    """[a1, a2, ..., ak] evaluating to 1/(a1 + 1/(a2 + ... + 1/ak))."""

    entries: tuple

    def __post_init__(self):
        if not self.entries or any(a == 0 for a in self.entries):
            raise ValueError("entries must be nonzero and nonempty")


def cf_eval(cf):
    """Exact value of a continued fraction under the stated convention."""
    value = Fraction(0)
    for a in reversed(cf.entries):
        denom = a + value
        if denom == 0:
            raise ZeroDivisionError("continued fraction hits a zero denominator")
        value = Fraction(1) / denom
    return value


def hp_expansion(f, p):
    """A continued fraction [p*k1, 2*m1, ..., p*k_{l+1}] evaluating to one
    of the Schubert forms beta/alpha, (beta - alpha)/alpha, beta*/alpha,
    (beta* - alpha)/alpha (beta* = beta^-1 mod alpha), which certifies
    membership in H(p); None when no Schubert form has such an expansion.
    Such a fraction has a denominator divisible by p (its continuant is
    0 mod p), so p must be an odd prime dividing alpha (PreconditionError
    otherwise).  The mirror forms need no search: negating every entry
    keeps the pattern.

    Depth-first with exact tails: choosing a leading entry a turns the
    target r into 1/r - a, and since every admissible entry has
    absolute value >= 2, any genuine tail value lies in [-1, 1].  That
    window admits at most one multiple of p, and two even entries only
    when the tail is +-1, a branch that dies one level down.  Prepending
    an entry to a tail of absolute value < 1 strictly raises the
    denominator, so the search ends at depth below alpha and is
    exhaustive.
    """
    require_prime_divisor(f, p)

    def entries_at(pos, r):
        # admissible entries a with |1/r - a| <= 1
        center = Fraction(1) / r
        step = p if pos % 2 == 0 else 2
        m = ((center - 1) / step).__ceil__()
        out = []
        while m * step <= center + 1:
            if m != 0:
                out.append(m * step)
            m += 1
        return out

    def dfs(pos, r, acc):
        for a in entries_at(pos, r):
            tail = Fraction(1) / r - a
            if pos % 2 == 0 and tail == 0:
                return acc + [a]
            if tail == 0:
                continue
            found = dfs(pos + 1, tail, acc + [a])
            if found is not None:
                return found
        return None

    inv = pow(f.beta, -1, f.alpha)
    for b in (f.beta, f.beta - f.alpha, inv, inv - f.alpha):
        found = dfs(0, Fraction(b, f.alpha), [])
        if found is not None:
            cf = ContinuedFraction(tuple(found))
            if cf_eval(cf) != Fraction(b, f.alpha):
                raise AssertionError(f"H({p}) expansion {found} of {f} misevaluates")
            return cf
    return None


def alexander(pres):
    """The Alexander polynomial: the determinant of the abelianized Fox
    minor omitting the first generator's column, whose entries are the
    streamed Fox derivatives under the trivial image (a unit times the
    Alexander polynomial for Wirtinger presentations).  Canonically
    normalized.
    """
    rep = trivial_rep(pres)
    entries = [
        [fox_derivative(r, j, rep).augmentation() for j in range(1, pres.num_gens)]
        for r in pres.relators
    ]
    return RingMatrix(ZZ_POLY, entries).det().canonical()


def random_fraction(rng, p=None, max_alpha=500):
    """A uniform-ish random 2-bridge fraction, optionally with p | alpha."""
    while True:
        if p is None:
            alpha = rng.randrange(3, max_alpha + 1, 2)
        else:
            alpha = p * rng.randrange(1, max_alpha // p + 1)
            if alpha % 2 == 0 or alpha < 3:
                continue
        beta = rng.randrange(1, alpha)
        if gcd(alpha, beta) == 1:
            return TwoBridgeFraction(alpha, beta)
