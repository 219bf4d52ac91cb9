"""The Wada pipeline: quotients, totals, cross-identities, mod-p."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import talex

from conftest import P, Pstep, prod
from modp_oracle import nqp_variant_holds, triangular_structure
from rep_oracle import pi0_rep
from talex import representations
from talex.factorization import conjecture_report, extract_GH, f_polynomial
from talex.knots import (
    TwoBridgeFraction,
    alexander,
    hp_expansion,
    presentation,
    presentation_8_5,
    random_fraction,
)
from talex.laurent import LaurentPoly, PreconditionError, modp_unit_equal
from talex.matrices import RingMatrix
from talex.representations import dihedral_rep, dihedral_xi, trivial_rep
from talex.rings import NonExactDivision
from talex.twisted import (
    CrossCheckMismatch,
    binary_dihedral_total,
    dihedral_total,
    kmeta_total,
    metacyclic_total,
    modp_congruence,
    nqp_total,
    perm_dihedral_total,
    wada,
    wada_parts,
)


def F(a, b):
    return TwoBridgeFraction(a, b)


def test_wada_trefoil_xi():
    pres = presentation(F(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    got = wada(pres, rep)
    ring = got.ring
    assert got == LaurentPoly.from_dict({0: ring.one, 2: ring.neg(ring.one)}, ring)


def test_wada_trivial_rep_gives_alexander_data():
    # the 1-dim quotient Delta/(t-1) is not a polynomial: the numerator
    # carries the Alexander polynomial and the division must fail
    for frac in ((3, 1), (27, 5)):
        pres = presentation(F(*frac))
        num, den = wada_parts(pres, trivial_rep(pres))
        assert num.canonical() == alexander(pres)
        assert den.canonical() == P(1, -1).canonical()
        with pytest.raises(NonExactDivision):
            wada(pres, trivial_rep(pres))


def test_denominator_identity_all_p():
    # det(xi(y) t - I) = (1-t)(1+t) for every p
    for p in (3, 5, 7, 11, 13):
        pres = presentation(F(p, 1))
        rep = dihedral_rep(pres, p, "xi")
        _, den = wada_parts(pres, rep)
        ring = rep.coeff_ring
        want = LaurentPoly.from_dict({0: ring.one, 2: ring.neg(ring.one)}, ring)
        assert den.canonical() == want


def test_dihedral_goldens():
    assert dihedral_total(F(3, 1), 3) == P(1, 0, -1)
    want_19 = prod(
        [P(1, 0, -1), P(1, 0, 0, -1, 0, 0, 1), P(1, 0, 0, 1, 0, 0, 1)]
    ).canonical()
    assert dihedral_total(F(9, 1), 3) == want_19
    want_527 = prod(
        [P(1, 0, -1), P(1, 1, -1, 1, 1), P(1, -1, -1, -1, 1)]
    ).canonical()
    assert dihedral_total(F(27, 5), 3) == want_527


def test_dihedral_requires_divisibility():
    with pytest.raises(ValueError):
        dihedral_total(F(5, 1), 3)


INVALID_INPUTS = {
    "dihedral p=9 not prime": lambda: dihedral_total(F(9, 1), 9),
    "metacyclic q=0": lambda: metacyclic_total(F(9, 1), 0, 3),
    "nqp gcd(q, p)=3": lambda: nqp_total(F(9, 1), 3, 3),
    "nqp q=0": lambda: nqp_total(F(9, 1), 0, 3),
    "hp_expansion p=4": lambda: hp_expansion(F(9, 1), 4),
    "kmeta Delta(-2)=31 at p=7": lambda: kmeta_total(presentation(F(5, 1)), 7, -2),
    "kmeta p=9 not prime": lambda: kmeta_total(presentation(F(9, 1)), 9, 2),
    "kmeta k=1 mod p": lambda: kmeta_total(presentation(F(9, 1)), 3, 4),
    # p = 3 does not divide alpha = 5, for every public f-taking entry point
    **{
        f"{fn.__name__} 3 does not divide 5": lambda fn=fn: fn(F(5, 1), 3)
        for fn in (
            dihedral_total,
            perm_dihedral_total,
            binary_dihedral_total,
            modp_congruence,
            extract_GH,
            f_polynomial,
            conjecture_report,
            hp_expansion,
        )
    },
    "metacyclic 3 does not divide 5": lambda: metacyclic_total(F(5, 1), 2, 3),
    "nqp 3 does not divide 5": lambda: nqp_total(F(5, 1), 2, 3),
}


@pytest.mark.parametrize("case", sorted(INVALID_INPUTS))
def test_invalid_input_is_refused_before_any_determinant(monkeypatch, case):
    # no Wada quotient, no total and no Alexander polynomial is taken: the
    # Delta(k) refusal of kmeta_total comes from the meridian solve
    calls = []
    det = RingMatrix.det

    def counted_det(self):
        calls.append(1)
        return det(self)

    monkeypatch.setattr(RingMatrix, "det", counted_det)
    with pytest.raises(PreconditionError):
        INVALID_INPUTS[case]()
    assert calls == []


def test_a_failing_delta_k_is_refused_before_the_meridian_search(monkeypatch):
    # Delta(8_5)(2) = 3: at p = 101 the meridian solve refuses with the
    # Delta(k) message, and the table its unit walks grew is not
    # registered
    monkeypatch.setattr(representations, "_TABLES", {})
    with pytest.raises(PreconditionError, match=r"^Delta\(2\) != 0 mod 101"):
        kmeta_total(presentation_8_5(), 101, 2)
    assert representations._TABLES == {}


def test_perm_dihedral_cross_identity():
    # [Delta/(1-t)] route: perm total * (1-t) = Delta * dihedral total
    rng = random.Random(11)
    cases = [(F(3, 1), 3), (F(5, 1), 5), (F(9, 1), 3)]
    while len(cases) < 9:
        p = rng.choice([3, 5])
        f = random_fraction(rng, p=p, max_alpha=60)
        cases.append((f, p))
    for f, p in cases:
        perm = perm_dihedral_total(f, p)
        delta = alexander(presentation(f))
        lhs = (perm * P(1, -1)).canonical()
        rhs = (delta * dihedral_total(f, p)).canonical()
        assert lhs == rhs


def test_irr_route_matches_gamma_route():
    # conjugate representations agree: the 2n-dim integer one computes
    # the same total as the gamma-substituted xi route
    for frac, p in [((3, 1), 3), ((9, 1), 3), ((27, 5), 3), ((5, 1), 5), ((85, 19), 5)]:
        pres = presentation(F(*frac))
        assert wada(pres, pi0_rep(pres, p)) == dihedral_total(F(*frac), p)


def test_perm_dihedral_trefoil_value():
    # (1 - t + t^2)(1 + t) = 1 + t^3
    assert perm_dihedral_total(F(3, 1), 3) == P(1, 0, 0, 1)


def test_binary_dihedral_crosscheck_internal():
    # the constructor itself validates the +-i product identity
    got = binary_dihedral_total(F(9, 1), 3)
    want = prod([Pstep(2, 1, 1) ** 2, Pstep(6, 1, -1, 1) ** 2]).canonical()
    assert got == want


def test_metacyclic_q1_regression():
    # Phi_2 = z + 1 gives D(-t), and D(-t) is D up to units because
    # rho (x) epsilon is rho for the 2-dimensional dihedral representations
    rng = random.Random(19)
    cases = [(F(3, 1), 3), (F(9, 1), 3), (F(27, 5), 3)]
    for _ in range(16):
        p = rng.choice([3, 5, 7, 11])
        cases.append((random_fraction(rng, p=p, max_alpha=300), p))
    for f, p in cases:
        assert metacyclic_total(f, 1, p) == dihedral_total(f, p), (f, p)


def test_metacyclic_q2_equals_binary_dihedral():
    for frac, p in [((9, 1), 3), ((27, 5), 3), ((5, 1), 5)]:
        assert metacyclic_total(F(*frac), 2, p) == binary_dihedral_total(
            F(*frac), p
        )


def test_nqp_goldens_small():
    got = nqp_total(F(3, 1), 4, 3)
    assert got == prod([Pstep(8, 1, -1), Pstep(8, 1, 1, 1)]).canonical()
    got = nqp_total(F(3, 1), 5, 3)
    assert got == prod([Pstep(10, 1, -1), Pstep(10, 1, 1, 1)]).canonical()


def test_nqp_exponents_multiple_of_2q():
    for frac, q, p in [((9, 1), 4, 3), ((5, 1), 3, 5)]:
        total = nqp_total(F(*frac), q, p)
        assert all(e % (2 * q) == 0 for e in total.support())


def test_nqp_total_raises_on_a_forged_mismatch(monkeypatch):
    # the direct 2pq-dimensional determinant is an independent certificate
    # of the product formula: a doubled Delta reaches the formula side only
    from talex import twisted

    monkeypatch.setattr(twisted, "alexander", lambda pres: alexander(pres).scale(2))
    with pytest.raises(CrossCheckMismatch):
        nqp_total(F(27, 5), 4, 3)


def test_binary_dihedral_total_raises_on_a_forged_mismatch(monkeypatch):
    # the +-i product is read from the dihedral total, the binary dihedral
    # total from its own Wada quotient: a doubled D reaches one side only
    from talex import twisted

    monkeypatch.setattr(twisted, "dihedral_total", lambda f, p: dihedral_total(f, p).scale(2))
    with pytest.raises(CrossCheckMismatch):
        binary_dihedral_total(F(9, 1), 3)


def test_nqp_divisibility_by_metacyclic():
    # The provable form of the divisibility claim: D_tau-tilde divides
    # (1 - t^{2q}) * nqp.  The plain claim fails at q=4 even on
    # published values: dividing by 1 - t^{2q} strips one copy of each
    # primitive cyclotomic factor unless the Alexander product
    # resupplies it, so only the corrected form is provable.
    for frac, q, p in [((9, 1), 4, 3), ((27, 5), 4, 3), ((5, 1), 3, 5)]:
        total = nqp_total(F(*frac), q, p)
        meta = metacyclic_total(F(*frac), q, p)
        one_minus = LaurentPoly.from_int_coeffs([1] + [0] * (2 * q - 1) + [-1])
        (total * one_minus).exact_div(meta)  # raises if not divisible
    # the plain claim does hold at q=3, p=5 (recorded, not relied upon)
    total = nqp_total(F(5, 1), 3, 5)
    total.exact_div(metacyclic_total(F(5, 1), 3, 5))


def test_kmeta_trefoil():
    report = kmeta_total(presentation(F(3, 1)), 7, -2)
    assert report.factor == Pstep(6, 1, -1)
    assert report.period == 6
    assert report.conjecture_a_holds


def test_kmeta_5_9_family():
    pres = presentation(F(9, 5))
    assert kmeta_total(pres, 5, 2).factor == Pstep(4, 1, -1)
    assert kmeta_total(pres, 11, 2).factor == Pstep(10, 1, -1)
    iii = kmeta_total(pres, 7, 2)
    assert iii.period == 3
    assert iii.factor == (Pstep(3, 1, -1) ** 2).canonical()
    assert iii.conjecture_a_holds


def test_modp_congruence_goldens():
    assert modp_congruence(F(27, 5), 3)
    assert modp_congruence(F(85, 19), 5)
    assert modp_congruence(F(115, 21), 5)


def test_modp_congruence_with_nqp_variant():
    assert modp_congruence(F(9, 1), 3)
    assert nqp_variant_holds(F(9, 1), 2, 3)


def test_modp_f_congruence_19_85():
    # f = g^2 (mod 5) for the printed degree-16 f; f is only pinned up
    # to t -> -t, and the congruence selects that representative
    fpoly = P(1, -3, -2, 4, -1, 0, -4, -3, 7, -3, -4, 0, -1, 4, -2, -3, 1)
    g = P(2, -2, 2, -2, 1, -2, 2, -2, 2)
    assert modp_unit_equal(fpoly, g * g, 5) or modp_unit_equal(
        fpoly.negate_t(), g * g, 5
    )


def test_modp_triangular_structure(rng):
    for _ in range(8):
        p = rng.choice([3, 5, 7])
        f = random_fraction(rng, p=p, max_alpha=80)
        assert all(triangular_structure(f, p))


def test_8_5_nqp_direct_56x56_matches_tensor_factorization():
    # the heaviest direct computation: the 28-dim N(2,7) images of the
    # 3-generator presentation give a 56x56 Fox determinant; the tensor
    # structure must factor it through the 7-dim permutation route
    # evaluated at the 4th roots of unity
    from talex.representations import nqp_rep
    from talex.matrices import cyclic_product

    pres = presentation_8_5()
    rep = nqp_rep(pres, 2, 7)
    direct = wada(pres, rep)
    perm = wada(pres, dihedral_rep(pres, 7, "pi"))
    z4 = LaurentPoly.from_int_coeffs([-1, 0, 0, 0, 1])
    assert cyclic_product(perm, z4).canonical() == direct
    assert direct.degree == 140


def test_nqp_total_19_85_loads_neither_numpy_nor_sympy():
    # the 30x30 modular determinant is pure Python: a fresh interpreter
    # computes the N(3,5) golden without importing numpy or sympy
    code = """
import sys, talex
from talex.verify import NQP_GOLDENS
got = talex.nqp_total(talex.TwoBridgeFraction(85, 19), 3, 5)
assert got == NQP_GOLDENS[((85, 19), 3, 5)].canonical(), got
assert "numpy" not in sys.modules and "sympy" not in sys.modules
"""
    path = os.pathsep.join([str(Path(talex.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=path))


def test_larger_prime_routes_agree():
    # beyond the golden range: three computation routes at p = 13
    f = F(13, 1)
    pres = presentation(f)
    D = dihedral_total(f, 13)
    assert D == wada(pres, pi0_rep(pres, 13))
    assert f_polynomial(f, 13).verify()
    assert modp_congruence(F(39, 16), 13)


def test_modp_congruence_random(rng):
    for _ in range(10):
        p = rng.choice([3, 5, 7])
        f = random_fraction(rng, p=p, max_alpha=120)
        assert modp_congruence(f, p)
