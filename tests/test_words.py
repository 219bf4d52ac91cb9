"""Free words, Fox derivatives, and representation evaluation."""

import random

import pytest

from conftest import P
from talex.knots import TwoBridgeFraction, presentation, presentation_8_5
from talex.laurent import LaurentPoly
from talex.representations import MatrixRep, dihedral_rep, dihedral_xi, omega_ring
from talex.words import (
    FreeWord,
    GroupRingSum,
    fox_derivative,
    psi_evaluate,
    rep_evaluate,
)

W = FreeWord.from_text


def test_free_reduction():
    assert W("xyYX").is_identity
    assert W("xXx") == W("x")
    assert (W("xy") * W("Yx")) == W("xx")
    assert W("xyz").inverse() == W("ZYX")
    assert W("xy") ** 2 == W("xyxy")
    assert W("xy") ** -1 == W("YX")


def test_word_text_roundtrip():
    for text in ("xyxYXY", "zZx", "XXyy"):
        assert W(text).to_text() == W(text).to_text()
    assert W("xyxYXY").to_text() == "xyxYXY"


def test_abelianize_examples():
    assert W("xyX").exponent_sum() == 1
    assert (W("xy") ** 5).exponent_sum() == 10
    assert FreeWord().exponent_sum() == 0


def test_fox_axiom_cases():
    one = FreeWord()
    assert fox_derivative(W("x"), 0) == GroupRingSum({one: 1})
    assert fox_derivative(W("X"), 0) == GroupRingSum({W("X"): -1})
    assert fox_derivative(W("y"), 0).is_zero


def test_fox_trefoil_by_hand():
    # dR/dx for R = xyxYXY, applied by hand from the axioms:
    # 1 + xy - xyxYX
    r = W("xyxYXY")
    got = fox_derivative(r, 0)
    want = GroupRingSum({FreeWord(): 1, W("xy"): 1, W("xyxYX"): -1})
    assert got == want


def test_fox_product_rule_randomized(rng):
    gens = 2
    for _ in range(40):
        u = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 8))])
        v = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 8))])
        for g in range(gens):
            lhs = fox_derivative(u * v, g)
            rhs = fox_derivative(u, g) + GroupRingSum.from_word(u) * fox_derivative(v, g)
            assert lhs == rhs


def fundamental_identity_holds(pres):
    for r in pres.relators:
        total = GroupRingSum()
        for j in range(pres.num_gens):
            gen = GroupRingSum.from_word(FreeWord.generator(j))
            one = GroupRingSum.one()
            total = total + fox_derivative(r, j) * (gen - one)
        if total != GroupRingSum.from_word(r) - GroupRingSum.one():
            return False
    return True


def test_fox_fundamental_identity_on_presentations(rng):
    for frac in [(3, 1), (5, 1), (9, 1), (27, 5), (85, 19), (45, 13)]:
        assert fundamental_identity_holds(presentation(TwoBridgeFraction(*frac)))
    assert fundamental_identity_holds(presentation_8_5())


def test_psi_trefoil():
    s = fox_derivative(W("xyxYXY"), 0)
    assert psi_evaluate(s) == P(1, -1, 1)


def test_psi_zero_and_cancellation():
    assert psi_evaluate(GroupRingSum()).is_zero
    s = GroupRingSum({W("x"): 3, W("y"): -3})
    assert psi_evaluate(s).is_zero


def test_rep_evaluate_examples():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    ring = omega_ring(1)
    out = rep_evaluate(GroupRingSum.from_word(W("y")), rep)
    t = LaurentPoly.t_power(1, ring)
    assert out[0, 0] == t.scale(ring.from_int(-1))
    assert out[0, 1].is_zero
    assert out[1, 0] == t.scale(ring.from_int(-3))
    assert out[1, 1] == t
    ident = rep_evaluate(GroupRingSum.one(), rep)
    assert ident[0, 0] == LaurentPoly.one(ring) and ident[0, 1].is_zero
    reduced = rep_evaluate(GroupRingSum.from_word(W("xX")), rep)
    assert reduced == ident


def test_rep_evaluate_is_ring_homomorphism(rng):
    # image of a product equals the product of images
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")

    def random_sum():
        return GroupRingSum(
            {
                FreeWord(
                    [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 6))]
                ): rng.randrange(-3, 4)
                for _ in range(rng.randrange(1, 4))
            }
        )

    for _ in range(200):
        a, b = random_sum(), random_sum()
        assert rep_evaluate(a * b, rep) == rep_evaluate(a, rep) * rep_evaluate(b, rep)


def test_rep_evaluate_unassigned_generator():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    with pytest.raises(IndexError):
        rep_evaluate(GroupRingSum.from_word(W("z")), rep)
