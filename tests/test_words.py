"""Free words, and the free-word Fox calculus of the test oracle."""

import pytest

from conftest import P
from fox_oracle import ONE, add, evaluate, fox, mul, psi, word
from talex.knots import TwoBridgeFraction, presentation, presentation_8_5
from talex.laurent import LaurentPoly
from talex.representations import dihedral_rep, omega_ring
from talex.words import FreeWord, ImageSum, rep_evaluate

W = FreeWord.from_text


def test_free_reduction():
    assert W("xyYX") == FreeWord()
    assert W("xXx") == W("x")
    assert (W("xy") * W("Yx")) == W("xx")
    assert W("xyz").inverse() == W("ZYX")
    assert W("xy") * W("xy") == W("xyxy")
    assert W("xy").inverse() == W("YX")


def test_word_text_roundtrip():
    for text in ("xyxYXY", "zZx", "XXyy"):
        assert W(text).to_text() == W(text).to_text()
    assert W("xyxYXY").to_text() == "xyxYXY"


def test_abelianize_examples():
    assert W("xyX").exponent_sum() == 1
    assert W("xy" * 5).exponent_sum() == 10
    assert FreeWord().exponent_sum() == 0


def test_fox_axiom_cases():
    assert fox(W("x"), 0) == ONE
    assert fox(W("X"), 0) == {W("X").codes: -1}
    assert fox(W("y"), 0) == {}


def test_fox_trefoil_by_hand():
    # dR/dx for R = xyxYXY, applied by hand from the axioms:
    # 1 + xy - xyxYX
    want = {(): 1, W("xy").codes: 1, W("xyxYX").codes: -1}
    assert fox(W("xyxYXY"), 0) == want


def test_fox_product_rule_randomized(rng):
    for _ in range(40):
        u = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 8))])
        v = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 8))])
        for g in range(2):
            assert fox(u * v, g) == add(fox(u, g), mul(word(u), fox(v, g)))


def fundamental_identity_holds(pres):
    for r in pres.relators:
        total = {}
        for j in range(pres.num_gens):
            gen_minus_one = add(word(FreeWord.generator(j)), ONE, -1)
            total = add(total, mul(fox(r, j), gen_minus_one))
        if total != add(word(r), ONE, -1):
            return False
    return True


def test_fox_fundamental_identity_on_presentations(rng):
    for frac in [(3, 1), (5, 1), (9, 1), (27, 5), (85, 19), (45, 13)]:
        assert fundamental_identity_holds(presentation(TwoBridgeFraction(*frac)))
    assert fundamental_identity_holds(presentation_8_5())


def test_psi_trefoil():
    assert psi(fox(W("xyxYXY"), 0)) == P(1, -1, 1)


def test_psi_zero_and_cancellation():
    assert psi({}).is_zero
    assert psi({W("x").codes: 3, W("y").codes: -3}).is_zero


def test_rep_evaluate_examples():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    ring = omega_ring(1)
    out = rep_evaluate(ImageSum.of_word(W("y"), rep))
    assert out == evaluate(word(W("y")), rep)
    t = LaurentPoly.t_power(1, ring)
    assert out[0, 0] == t.scale(ring.from_int(-1))
    assert out[0, 1].is_zero
    assert out[1, 0] == t.scale(ring.from_int(-3))
    assert out[1, 1] == t
    ident = rep_evaluate(ImageSum.of_word(FreeWord(), rep))
    assert ident == evaluate(ONE, rep)
    assert ident[0, 0] == LaurentPoly.one(ring) and ident[0, 1].is_zero
    assert rep_evaluate(ImageSum.of_word(W("xX"), rep)) == ident


def test_rep_evaluate_is_ring_homomorphism(rng):
    # under the oracle, the image of a product equals the product of images
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")

    def random_sum():
        return add(
            {},
            {
                FreeWord(
                    [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(0, 6))]
                ).codes: rng.randrange(-3, 4)
                for _ in range(rng.randrange(1, 4))
            },
        )

    for _ in range(200):
        a, b = random_sum(), random_sum()
        assert evaluate(mul(a, b), rep) == evaluate(a, rep) * evaluate(b, rep)


def test_rep_evaluate_unassigned_generator():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    with pytest.raises(IndexError):
        ImageSum.of_word(W("z"), rep)
