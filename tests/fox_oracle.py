"""The free-word Fox calculus: an independent oracle for the image walk.

An element of the integral group ring of the free group is a dict from
freely reduced letter-code tuples to nonzero integer coefficients.
``fox`` lists the prefix words of a Fox derivative, ``psi`` abelianizes
by exponent sums, and ``evaluate`` multiplies the generator images of
``rep`` along each word with one running matrix product.  None of them
reads the rep's multiplication table, so agreement with
``talex.words.fox_derivative``/``rep_evaluate`` certifies the walk.
"""

from talex.laurent import LaurentPoly
from talex.matrices import PolyRing, RingMatrix
from talex.words import FreeWord

ONE = {(): 1}


def word(w):
    return {w.codes: 1}


def _clean(terms):
    return {w: c for w, c in terms.items() if c}


def add(a, b, sign=1):
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, 0) + sign * c
    return _clean(out)


def mul(a, b):
    out = {}
    for wa, ca in a.items():
        for wb, cb in b.items():
            w = FreeWord(wa + wb).codes
            out[w] = out.get(w, 0) + ca * cb
    return _clean(out)


def fox(relator, j):
    """The Fox derivative of ``relator`` by generator ``j`` (0-based) as
    a sum of prefix words."""
    target = j + 1
    codes = relator.codes
    out = {}
    for i, c in enumerate(codes):
        if c == target:
            out[codes[:i]] = out.get(codes[:i], 0) + 1
        elif c == -target:
            out[codes[: i + 1]] = out.get(codes[: i + 1], 0) - 1
    return _clean(out)


def _exponent_sum(codes):
    return sum(1 if c > 0 else -1 for c in codes)


def psi(terms):
    """Sum of coefficient * t^(exponent sum of the word)."""
    acc = {}
    for w, c in terms.items():
        d = _exponent_sum(w)
        acc[d] = acc.get(d, 0) + c
    return LaurentPoly.from_dict(acc)


def evaluate(terms, rep):
    """Sum of coefficient * t^(exponent sum) * image of the word, as a
    matrix of Laurent polynomials over the rep's coefficient ring.

    Words are visited in sorted order, so the prefixes of one relator
    each extend the running product of the one before."""
    ring = rep.coeff_ring
    identity = RingMatrix.identity(ring, rep.dim)
    by_degree = {}
    prev, mat = (), identity
    for codes in sorted(terms):
        if codes[: len(prev)] != prev:
            prev, mat = (), identity
        for c in codes[len(prev) :]:
            mat = mat * rep.table.image_of_code(c)
        prev = codes
        d = _exponent_sum(codes)
        term = mat.scale(ring.from_int(terms[codes]))
        by_degree[d] = by_degree[d] + term if d in by_degree else term
    n = rep.dim
    return RingMatrix(
        PolyRing(ring),
        [
            [
                LaurentPoly.from_dict({d: m[i, j] for d, m in by_degree.items()}, ring)
                for j in range(n)
            ]
            for i in range(n)
        ],
    )
