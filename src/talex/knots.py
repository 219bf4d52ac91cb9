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
from math import gcd

from .representations import trivial_rep
from .words import FreeWord, fox_derivative


@dataclass(frozen=True)
class TwoBridgeFraction:
    """beta/alpha with alpha odd, 0 < beta < alpha, gcd = 1."""

    alpha: int
    beta: int

    def __post_init__(self):
        if self.alpha < 1 or self.alpha % 2 == 0:
            raise ValueError("alpha must be odd and positive (knots, not links)")
        if not (0 < self.beta < self.alpha):
            raise ValueError("need 0 < beta < alpha")
        if gcd(self.alpha, self.beta) != 1:
            raise ValueError("alpha and beta must be coprime")

    @classmethod
    def parse(cls, text):
        """Parse the CLI syntax 'beta/alpha', e.g. '19/85'."""
        beta_s, _, alpha_s = text.partition("/")
        if not alpha_s:
            raise ValueError(f"expected 'beta/alpha', got {text!r}")
        return cls(int(alpha_s), int(beta_s))

    def as_fraction(self):
        return Fraction(self.beta, self.alpha)

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
            if r.exponent_sum() != 0:
                raise ValueError("relators of meridian generators abelianize to 0")
            if r.max_generator() > len(self.gens):
                raise ValueError("relator uses an unknown generator")

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
    beta = f.beta if f.beta % 2 else f.beta - f.alpha
    return [
        -1 if ((i * beta) // f.alpha) % 2 else 1 for i in range(1, f.alpha)
    ]


def presentation(f):
    """The 2-bridge presentation <x, y | W x W^-1 y^-1>."""
    eps = epsilon_sequence(f)
    codes = []
    for i, e in enumerate(eps):
        gen = 1 if i % 2 == 0 else 2  # x at odd positions, y at even (1-based)
        codes.append(gen if e > 0 else -gen)
    w = FreeWord(codes)
    relator = w * FreeWord((1,)) * w.inverse() * FreeWord((-2,))
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


@dataclass(frozen=True)
class NotFoundWithinBounds:
    """hp_expansion is a semi-decision: absence of a result within the
    search bounds is inconclusive, not a negative certificate."""

    fraction: TwoBridgeFraction
    p: int

    def __bool__(self):
        return False


def hp_expansion(f, p, max_k=4, max_m=8, max_len=7):
    """Search for a continued fraction [p*k1, 2*m1, ..., p*k_{l+1}]
    evaluating to beta/alpha, certifying membership in H(p).

    Depth-first with exact tails: choosing a leading entry a turns the
    target r into 1/r - a, and since every admissible entry has
    absolute value >= 2, any genuine tail value lies in [-1, 1]; that
    window prunes the branching to a handful of entries per level.
    """
    if p < 3 or p % 2 == 0:
        raise ValueError("p must be an odd prime")
    target = f.as_fraction()

    def entries_at(pos, r):
        # admissible entries a with |1/r - a| <= 1
        center = Fraction(1) / r
        lo, hi = center - 1, center + 1
        step = p if pos % 2 == 0 else 2
        bound = max_k if pos % 2 == 0 else max_m
        start = (lo / step).__ceil__()
        out = []
        m = start
        while Fraction(m * step) <= hi:
            if m != 0 and abs(m) <= bound:
                out.append(m * step)
            m += 1
        return out

    def dfs(pos, r, acc):
        if pos >= max_len:
            return None
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

    found = dfs(0, target, [])
    if found is None:
        return NotFoundWithinBounds(f, p)
    cf = ContinuedFraction(tuple(found))
    assert cf_eval(cf) == target
    return cf


def alexander(pres):
    """The Alexander polynomial from the abelianized Fox matrix, whose
    entries are the streamed Fox derivatives under the trivial image.

    For two generators this is the psi-evaluated derivative of the
    relator by x; in general the determinant of the Fox minor omitting
    one generator's column (a unit times the Alexander polynomial for
    Wirtinger presentations).  Canonically normalized.
    """
    k = pres.num_gens
    rep = trivial_rep(pres)
    if k == 2:
        return _psi_fox(pres.relators[0], 0, rep).canonical()
    from .matrices import RingMatrix, ZZ_POLY

    omit = 0
    cols = [j for j in range(k) if j != omit]
    entries = [[_psi_fox(r, j, rep) for j in cols] for r in pres.relators]
    return RingMatrix(ZZ_POLY, entries).det().canonical()


def _psi_fox(relator, j, rep):
    return fox_derivative(relator, j, rep).augmentation()


def alexander_raw(pres):
    """psi(dR/dx) without normalization (2-generator presentations only);
    the mod-p triangular-structure check needs the honest sign."""
    return _psi_fox(pres.relators[0], 0, trivial_rep(pres))


def knot_determinant(f):
    """|Delta(-1)|, which equals alpha for 2-bridge knots."""
    return abs(alexander(presentation(f)).eval_int(-1))


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
