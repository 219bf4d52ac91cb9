"""``rep_evaluate`` against the per-coefficient oracle (``rep_oracle``).

The fast path accumulates integer coefficient vectors per coordinate of
the coefficient ring; the oracle takes one ring product per coefficient
and matrix entry.  Seeded ImageSums cover every coefficient ring a rep
uses: ZZ (pi, pi0, eta, N(2,p)), Z[omega] (xi at p = 3, 5, 7, 11) and
Z[v]/Phi_p (binary dihedral), with coefficients near +-2^80, cells
whose terms cancel, one term and no term.
"""

import pytest

import rep_oracle
from talex.knots import TwoBridgeFraction, presentation
from talex.laurent import LaurentPoly
from talex.matrices import RingMatrix
from talex.representations import MatrixRep, binary_dihedral_rep, dihedral_rep, nqp_rep
from talex.rings import ZZ, GFp, QuotientRing
from talex.words import FreeWord, ImageSum, rep_evaluate


def reps():
    out = []
    for p in (3, 5, 7, 11):
        out.append((f"xi p={p}", dihedral_rep(presentation(TwoBridgeFraction(p, 1)), p)))
    for p in (3, 5):
        pres = presentation(TwoBridgeFraction(3 * p, 2))
        out.append((f"pi p={p}", dihedral_rep(pres, p, "pi")))
        out.append((f"pi0 p={p}", rep_oracle.pi0_rep(pres, p)))
        out.append((f"eta p={p}", rep_oracle.eta_rep(pres, p)))
        out.append((f"N(2,{p})", nqp_rep(pres, 2, p)))
        out.append((f"binary dihedral p={p}", binary_dihedral_rep(pres, p)))
    return out


REPS = reps()


def element_ids(rep, rng, count=40):
    """Ids of the images of random words, the identity first."""
    ids = [0]
    for _ in range(count):
        word = FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 16))])
        ids.append(rep.walk(word.codes))
    return sorted(set(ids))


def random_coeff(rng):
    big = rng.choice([0, 2**80, -(2**80)])
    return big + rng.randrange(-5, 6)


def random_term(rng):
    lo = rng.randrange(-12, 6)
    coeffs = [random_coeff(rng) for _ in range(rng.randrange(1, 10))]
    coeffs[-1] = coeffs[-1] or 1
    return LaurentPoly.from_int_coeffs(coeffs, min_deg=lo)


def cancelling_pair(rep, ids):
    """(g, h, sign, (i, j)) with M(g)[i, j] = sign * M(h)[i, j] != 0."""
    ring = rep.coeff_ring
    for a, g in enumerate(ids):
        for h in ids[a + 1 :]:
            mg, mh = rep.element(g), rep.element(h)
            for i in range(rep.dim):
                for j in range(rep.dim):
                    u, v = mg[i, j], mh[i, j]
                    if ring.is_zero(u):
                        continue
                    if u == v:
                        return g, h, 1, (i, j)
                    if u == ring.neg(v):
                        return g, h, -1, (i, j)
    return None


@pytest.mark.parametrize("label,rep", REPS, ids=[label for label, _ in REPS])
def test_rep_evaluate_matches_the_per_coefficient_oracle(rng, label, rep):
    ring = rep.coeff_ring
    assert ring is ZZ or isinstance(ring, QuotientRing)
    ids = element_ids(rep, rng)
    assert len(ids) > 1, label
    for _ in range(6):
        chosen = rng.sample(ids, rng.randrange(1, min(len(ids), 8) + 1))
        s = ImageSum(rep, {g: random_term(rng) for g in chosen})
        assert rep_evaluate(s) == rep_oracle.evaluate(s), label
    single = ImageSum(rep, {ids[-1]: random_term(rng)})
    assert rep_evaluate(single) == rep_oracle.evaluate(single), label
    empty = ImageSum(rep, {})
    assert rep_evaluate(empty) == rep_oracle.evaluate(empty), label
    found = cancelling_pair(rep, ids)
    if label.startswith("N("):
        # N(q,p) permutes 2pq points regularly: no two images share a cell
        assert found is None, label
        return
    assert found is not None, label
    g, h, sign, (i, j) = found
    poly = random_term(rng)
    s = ImageSum(rep, {g: poly, h: poly * LaurentPoly.const(-sign)})
    out = rep_evaluate(s)
    assert out == rep_oracle.evaluate(s), label
    assert out[i, j].is_zero, label


def test_rep_evaluate_rejects_a_ring_without_integer_coordinates():
    pres = presentation(TwoBridgeFraction(3, 1))
    one = RingMatrix(GFp(5), [[1]])
    rep = MatrixRep(pres, {g: one for g in pres.gens})
    with pytest.raises(TypeError):
        rep_evaluate(ImageSum.of_word(FreeWord.generator(0), rep))
