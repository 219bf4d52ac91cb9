"""2-bridge fractions, presentations, continued fractions, Alexander."""

import random
from fractions import Fraction

import pytest

from conftest import P, prod
from hp_oracle import knots_with_expansion
from relator_oracle import relator
from talex.knots import (
    ContinuedFraction,
    Presentation,
    TwoBridgeFraction,
    alexander,
    cf_eval,
    epsilon_sequence,
    hp_expansion,
    presentation,
    presentation_8_5,
    random_fraction,
)
from talex.laurent import PreconditionError
from talex.representations import trivial_rep
from talex.words import FreeWord, fox_derivative


def test_fraction_validation():
    TwoBridgeFraction(27, 5)
    with pytest.raises(ValueError):
        TwoBridgeFraction(4, 1)  # even alpha: a link
    with pytest.raises(ValueError):
        TwoBridgeFraction(9, 3)  # not coprime
    with pytest.raises(ValueError):
        TwoBridgeFraction(9, 9)
    assert TwoBridgeFraction.parse("19/85") == TwoBridgeFraction(85, 19)


@pytest.mark.parametrize("text", ["19", "a/85", "19/85/1", "4/9x", "19/84", "0/5", "3/9"])
def test_malformed_fraction_text_is_a_precondition_error(text):
    with pytest.raises(PreconditionError, match="bad fraction"):
        TwoBridgeFraction.parse(text)


def test_epsilon_examples():
    # floor-formula oracle computed independently right here
    def oracle(alpha, beta):
        return [(-1) ** ((i * beta) // alpha) for i in range(1, alpha)]

    assert epsilon_sequence(TwoBridgeFraction(3, 1)) == [1, 1] == oracle(3, 1)
    assert epsilon_sequence(TwoBridgeFraction(5, 1)) == [1, 1, 1, 1] == oracle(5, 1)
    eps = epsilon_sequence(TwoBridgeFraction(27, 5))
    assert eps == oracle(27, 5)
    assert len(eps) == 26
    # Schubert symmetry eps_i = eps_(alpha-i)
    assert all(eps[i] == eps[25 - i] for i in range(26))


def test_presentation_examples():
    pres = presentation(TwoBridgeFraction(3, 1))
    assert pres.gens == ("x", "y")
    assert pres.relators[0] == FreeWord.from_text("xyxYXY")
    pres5 = presentation(TwoBridgeFraction(5, 1))
    w = FreeWord.from_text("xyxy")
    assert pres5.relators[0] == w * FreeWord.from_text("x") * w.inverse() * FreeWord.from_text("Y")


def test_presentation_matches_the_free_word_construction():
    # odd and even beta (the even ones take the odd representative
    # beta - alpha), alpha = 3, and seeded knots up to alpha = 9999
    rng = random.Random(24)
    fractions = [TwoBridgeFraction(3, 1), TwoBridgeFraction(3, 2)]
    fractions += [random_fraction(rng, max_alpha=9999) for _ in range(30)]
    assert {f.beta % 2 for f in fractions} == {0, 1}
    assert max(f.alpha for f in fractions) > 5000
    for f in fractions:
        pres = presentation(f)
        assert pres.relators == (relator(f),), f
        assert len(pres.relators[0]) == 2 * f.alpha


@pytest.mark.parametrize(
    "codes, message",
    [
        ((1, 2, -1), "abelianize to 0"),  # exponent sum 1
        ((-2, -2, 1), "abelianize to 0"),  # exponent sum -1
        ((1, 3, -1, -3), "unknown generator"),  # z in <x, y>
        ((1, -4, -1, 4), "unknown generator"),
        # code 0 is no generator; only a trusted word can hold it, and
        # with code 0 read as an inverse letter the exponent sum is 0
        ((1, 0), "unknown generator"),
        ((2, 0, 1, -1), "unknown generator"),
    ],
)
def test_presentation_checks_refuse_bad_relators(codes, message):
    with pytest.raises(ValueError, match=message):
        Presentation(gens=("x", "y"), relators=(FreeWord._trusted(codes),))


def test_presentation_8_5_shape():
    pres = presentation_8_5()
    assert pres.gens == ("x", "y", "z")
    assert len(pres.relators) == 2
    assert all(r.exponent_sum() == 0 for r in pres.relators)


def test_cf_eval_examples():
    # independent hand-rational oracle, nested explicitly
    assert cf_eval(ContinuedFraction((9,))) == Fraction(1, 9)
    assert cf_eval(ContinuedFraction((6, -2, 3))) == 1 / (6 + 1 / (-2 + Fraction(1, 3)))
    assert cf_eval(ContinuedFraction((6, -2, 3))) == Fraction(5, 27)
    assert cf_eval(ContinuedFraction((5, -2, 10))) == Fraction(19, 85)


def test_cf_entries_nonzero():
    with pytest.raises(ValueError):
        ContinuedFraction((3, 0, 3))


def test_hp_expansion_goldens():
    assert hp_expansion(TwoBridgeFraction(9, 1), 3).entries == (9,)
    assert hp_expansion(TwoBridgeFraction(27, 5), 3).entries == (6, -2, 3)
    assert hp_expansion(TwoBridgeFraction(85, 19), 5).entries == (5, -2, 10)
    # 328/329 expands only in the form (beta - alpha)/alpha = -1/329;
    # 7/375 needs the large leading entry 3 * 18
    assert hp_expansion(TwoBridgeFraction(329, 328), 7).entries == (-329,)
    assert hp_expansion(TwoBridgeFraction(375, 7), 3).entries == (54, -2, -3)


def test_hp_expansion_decides_no_expansion():
    # K(1/5) has no H(3) expansion: 3 does not divide det = 5, which
    # puts it outside the contract of every p-taking entry point
    with pytest.raises(PreconditionError):
        hp_expansion(TwoBridgeFraction(5, 1), 3)
    assert hp_expansion(TwoBridgeFraction(9, 4), 3) is None


@pytest.mark.parametrize("p", [1, 2, 4, 9, 15])
def test_hp_expansion_rejects_p_that_is_not_an_odd_prime(p):
    with pytest.raises(ValueError):
        hp_expansion(TwoBridgeFraction(45, 2), p)


@pytest.mark.parametrize("p", [3, 5, 7])
def test_hp_expansion_matches_brute_force_oracle(p):
    # exhaustive over every knot with p | alpha <= 120
    yes, no = knots_with_expansion(p, 120)
    assert [k for k in yes if hp_expansion(TwoBridgeFraction(*k), p) is None] == []
    assert [k for k in no if hp_expansion(TwoBridgeFraction(*k), p) is not None] == []
    assert yes


def test_hp_expansion_shape_and_roundtrip(rng):
    found = 0
    for _ in range(200):
        p = rng.choice([3, 5])
        f = random_fraction(rng, p=p, max_alpha=120)
        cf = hp_expansion(f, p)
        if cf is None:
            continue
        found += 1
        inv = pow(f.beta, -1, f.alpha)
        forms = {Fraction(b, f.alpha) for b in (f.beta, f.beta - f.alpha, inv, inv - f.alpha)}
        assert cf_eval(cf) in forms
        entries = cf.entries
        assert len(entries) % 2 == 1
        assert all(e % p == 0 and e != 0 for e in entries[0::2])
        assert all(e % 2 == 0 and e != 0 for e in entries[1::2])
    assert found >= 10


def test_hp_expansion_refuses_an_expansion_that_misevaluates(monkeypatch):
    # the search keeps its tails exact, so only a cf_eval that disagrees
    # with it can fail the re-evaluation
    import talex.knots

    monkeypatch.setattr(talex.knots, "cf_eval", lambda cf: Fraction(0))
    with pytest.raises(AssertionError, match=r"expansion .* of 19/85 misevaluates"):
        hp_expansion(TwoBridgeFraction(85, 19), 5)


def test_alexander_examples():
    assert alexander(presentation(TwoBridgeFraction(3, 1))) == P(1, -1, 1)
    want = prod([P(1, -1, 1), P(2, -2, 1, -2, 2)]).canonical()
    assert alexander(presentation(TwoBridgeFraction(27, 5))) == want
    want85 = prod(
        [P(1, -1, 1, -1, 1), P(2, -2, 2, -2, 1, -2, 2, -2, 2)]
    ).canonical()
    assert alexander(presentation(TwoBridgeFraction(85, 19))) == want85


def test_alexander_multigen_matches_two_gen_path():
    # the 2x2 Fox minor, validated on 2-bridge inputs by feeding the same
    # relator through a 3-generator presentation with a dummy relation
    # z = x
    from talex.knots import Presentation

    base = presentation(TwoBridgeFraction(27, 5))
    r1 = base.relators[0]
    dummy = FreeWord.from_text("zX")
    pres3 = Presentation(gens=("x", "y", "z"), relators=(r1, dummy))
    assert alexander(pres3) == alexander(base)


def test_alexander_is_the_psi_image_of_the_x_derivative():
    # the one Fox-minor path reads dr/dy on a 2-bridge presentation; the
    # fundamental formula gives psi(dr/dy) = -psi(dr/dx), so the column
    # of x gives the same canonical polynomial
    rng = random.Random(1000)
    for _ in range(40):
        pres = presentation(random_fraction(rng, max_alpha=1001))
        rep = trivial_rep(pres)
        by_x, by_y = (
            fox_derivative(pres.relators[0], j, rep).augmentation() for j in (0, 1)
        )
        assert by_y == -by_x
        assert alexander(pres) == by_x.canonical()


def test_alexander_invariants_random(rng):
    # Delta(1) = +-1, symmetry under t -> 1/t, and |Delta(-1)| = alpha
    for _ in range(50):
        f = random_fraction(rng, max_alpha=160)
        delta = alexander(presentation(f))
        assert delta.eval_int(1) in (1, -1)
        coeffs = delta.canonical().coeffs
        assert coeffs == coeffs[::-1]
        assert abs(delta.eval_int(-1)) == f.alpha

