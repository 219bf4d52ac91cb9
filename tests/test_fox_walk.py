"""The streamed Fox walk against the free-word oracle, and its scale.

``fox_derivative(r, j, rep)`` pushes the derivative forward into the
image group in one pass; ``rep_evaluate(fox_derivative(r, j), rep)``
materializes every prefix word and multiplies matrices along them.  The
two share no code beyond the generator images, so agreement on every
representation flavor is the correctness certificate of the walk.
"""

import time
import tracemalloc

import pytest

from talex.knots import (
    TwoBridgeFraction,
    alexander,
    presentation,
    presentation_8_5,
    random_fraction,
)
from talex.representations import (
    binary_dihedral_rep,
    dihedral_rep,
    kmeta_rep,
    nqp_rep,
    trivial_rep,
)
from talex.twisted import dihedral_total, modp_congruence
from talex.words import (
    FreeWord,
    GroupRingSum,
    ImageSum,
    fox_derivative,
    psi_evaluate,
    rep_evaluate,
)


def assert_walk_matches_oracle(pres, rep, label=""):
    for r in pres.relators:
        for j in range(pres.num_gens):
            free = fox_derivative(r, j)
            streamed = fox_derivative(r, j, rep)
            assert rep_evaluate(streamed, rep) == rep_evaluate(free, rep), (label, j)
            assert streamed.augmentation() == psi_evaluate(free), (label, j)
    for j in range(pres.num_gens):
        gen = FreeWord.generator(j)
        assert rep_evaluate(ImageSum.of_word(gen, rep), rep) == rep_evaluate(
            GroupRingSum.from_word(gen), rep
        ), (label, j)


def rep_flavors(pres, f, p):
    """One representation of every flavor that exists for K(f), p | alpha."""
    reps = {
        "trivial": trivial_rep(pres),
        "binary dihedral": binary_dihedral_rep(pres, p),
        "N(2,p)": nqp_rep(pres, 2, p),
        # Delta(-1) = +-alpha vanishes mod p, so k = -1 always qualifies
        "K-metacyclic": kmeta_rep(pres, p, p - 1),
    }
    for flavor in ("xi", "pi", "pi0", "eta"):
        reps[f"dihedral {flavor}"] = dihedral_rep(pres, p, flavor)
    delta = alexander(pres)
    for k in range(2, p - 1):
        if delta.eval_int(k) % p == 0:
            reps[f"K-metacyclic k={k}"] = kmeta_rep(pres, p, k)
    return reps


@pytest.mark.parametrize("p", [3, 5, 7])
def test_walk_matches_free_word_oracle_on_random_knots(rng, p):
    for _ in range(3):
        f = random_fraction(rng, p=p, max_alpha=200)
        pres = presentation(f)
        for name, rep in rep_flavors(pres, f, p).items():
            assert_walk_matches_oracle(pres, rep, f"{f} {name}")


def test_walk_matches_oracle_with_a_nondihedral_kmetacyclic_rep():
    # 5/9 at p=7, k=2: Delta(2) = 0 mod 7, an order-3 twist
    pres = presentation(TwoBridgeFraction(9, 5))
    assert alexander(pres).eval_int(2) % 7 == 0
    assert_walk_matches_oracle(pres, kmeta_rep(pres, 7, 2))


def test_walk_matches_oracle_on_8_5():
    # 3 generators, 2 relators: every column of every relator
    pres = presentation_8_5()
    for rep in (
        trivial_rep(pres),
        dihedral_rep(pres, 3, "pi", assignment=(0, 1, 0)),
        binary_dihedral_rep(pres, 3, assignment=(0, 1, 0)),
        kmeta_rep(pres, 7, -2, assignment=(0, 1, 0)),
        nqp_rep(pres, 2, 7, assignment=(0, 0, 1)),
    ):
        assert_walk_matches_oracle(pres, rep)


def test_word_image_reads_the_table_and_the_table_is_the_image_group(rng):
    pres = presentation(random_fraction(rng, p=5, max_alpha=200))
    bounds = (
        (dihedral_rep(pres, 5, "xi"), 10),
        (binary_dihedral_rep(pres, 5), 20),
        (nqp_rep(pres, 3, 5), 30),
    )
    for rep, order in bounds:
        for _ in range(20):
            word = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(12))])
            product = rep.element(0)
            for c in word.codes:
                product = product * rep.image_of_code(c)
            assert rep.word_image(word) == product
        assert len(rep._elements) <= order


def test_zero_derivative_evaluates_to_zero():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    s = fox_derivative(FreeWord.from_text("yY"), 0, rep)
    assert s.terms == {}
    assert rep_evaluate(s, rep) == rep_evaluate(GroupRingSum(), rep)
    assert s.augmentation().is_zero


def test_dihedral_total_at_alpha_9999_is_fast_and_certified():
    f = TwoBridgeFraction(9999, 4321)
    start = time.perf_counter()
    dihedral_total(f, 3)
    assert time.perf_counter() - start < 2.0
    assert modp_congruence(f, 3).congruence_holds
    assert abs(alexander(presentation(f)).eval_int(-1)) == f.alpha


def walk_peak_bytes(alpha):
    # beta = 1 spreads the prefix exponents over the widest range
    pres = presentation(TwoBridgeFraction(alpha, 1))
    rep = dihedral_rep(pres, 3, "xi")
    tracemalloc.start()
    try:
        fox_derivative(pres.relators[0], 0, rep)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_walk_memory_is_linear_in_alpha():
    # 4x the relator length: ~4x the peak when linear, ~16x when quadratic
    assert walk_peak_bytes(8001) < 6 * walk_peak_bytes(2001)

