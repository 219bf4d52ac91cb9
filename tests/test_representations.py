"""Representation construction: theta, the (XY)^k table, the appendix
matrices U_n and V_n, the metacyclic generator images, and the meridian
solve against the exhaustive search (``rep_oracle``)."""

import random
from itertools import product

import pytest

from conftest import P
from rep_oracle import exhaustive_exponents
from talex import representations
from talex.knots import (
    TwoBridgeFraction,
    alexander,
    presentation,
    presentation_8_5,
    random_fraction,
)
from talex.laurent import LaurentPoly, PreconditionError, cyclotomic_poly
from talex.matrices import RingMatrix, companion_matrix
from talex.representations import (
    MatrixRep,
    NoValidAssignment,
    _ImageTable,
    _least_kernel_vector,
    _pi0_images,
    binary_dihedral,
    binary_dihedral_rep,
    catalan_b,
    dihedral_pi,
    dihedral_rep,
    dihedral_xi,
    f_n_coeff,
    f_value,
    h_value,
    is_prime,
    kmeta_images,
    kmeta_rep,
    multiplicative_order,
    nqp_images,
    nqp_rep,
    omega_ring,
    search_assignment,
    theta,
    u_matrix,
    v_matrix,
    xy_power_table,
)
from talex.rings import ZZ, QuotientRing


def test_theta_values():
    assert theta(1) == P(3, 1)
    assert theta(2) == P(5, 5, 1)
    # n = 3 from the binomial formula, computed independently
    from math import comb

    coeffs = [comb(3 + k, 2 * k) + 2 * comb(3 + k, 2 * k + 1) for k in range(4)]
    assert coeffs == [7, 14, 7, 1]
    assert theta(3) == P(7, 14, 7, 1)


def test_theta_eisenstein_shape():
    for n in (2, 3, 5, 6, 8):
        p = 2 * n + 1
        if not is_prime(p):
            continue
        t = theta(n)
        assert t.coeff(0) == p
        assert t.coeff(n) == 1
        assert all(t.coeff(k) % p == 0 for k in range(n))


def test_xi_images_p3():
    X, Y = dihedral_xi(3)
    ring = X.ring
    assert X.entries == ((ring.from_int(-1), ring.one), (ring.zero, ring.one))
    assert Y.entries == ((ring.from_int(-1), ring.zero), (ring.gen(), ring.one))


def test_pi0_printed_p3():
    x0, y0 = _pi0_images(3)
    assert [list(r) for r in x0.entries] == [[0, 1], [1, 0]]
    assert [list(r) for r in y0.entries] == [[-1, 0], [-1, 1]]


def test_dihedral_defining_relations():
    for p in (3, 5, 7, 11):
        for images in (dihedral_pi(p), _pi0_images(p), dihedral_xi(p)):
            X, Y = images
            ring = X.ring
            n = X.rows
            I = RingMatrix.identity(ring, n)
            assert X * X == I
            assert Y * Y == I
            assert (X * Y) ** p == I


def test_xy_power_table_symmetries_all_primes_to_31():
    # a_k palindrome and b_k antisymmetry over a full period
    from talex.rings import QuotientRing

    for p in (3, 5, 7, 11, 13, 17, 19, 23, 29, 31):
        t = xy_power_table(p)
        n = (p - 1) // 2
        ring = omega_ring(n)
        assert all(t.a(k) == t.a(2 * n - k) for k in range(2 * n + 1))
        assert t.a(2 * n + 1) == t.a(0)
        assert all(t.b(k) == ring.neg(t.b(p - k)) for k in range(2 * n + 1))
        assert t.b(p) == ring.zero
        total_a = ring.zero
        total_d = ring.zero
        for k in range(2 * n + 1):
            total_a = ring.add(total_a, t.a(k))
            total_d = ring.add(total_d, t.d(k))
        assert total_a == ring.zero and total_d == ring.zero


def test_xy_power_table_examples():
    for p in (3, 5, 7):
        table = xy_power_table(p)
        ring = omega_ring((p - 1) // 2)
        w = ring.gen()
        assert table.a(1) == ring.add(ring.one, w)
        assert table.b(1) == ring.one
        assert table.c(1) == w
        assert table.d(1) == ring.one
        n = (p - 1) // 2
        two_b = ring.add(table.b(n), table.b(n))
        assert ring.add(table.a(n), two_b) == ring.zero
        assert table.rows[p] == (ring.one, ring.zero, ring.zero, ring.one)


def test_u_matrix_printed_and_certified():
    U4 = u_matrix(4)
    assert [list(r) for r in U4.entries][0] == [4, 3, 2, 1, 0, -1, -2, -3]
    U5 = u_matrix(5)
    assert [list(r) for r in U5.entries][0] == [5, 4, 3, 2, 1, 0, -1, -2, -3, -4]
    assert [list(r) for r in U5.entries][5] == [1] * 10
    # n = 1: same block recipe, conjugacy identity checked in constructor
    U1 = u_matrix(1)
    assert U1.rows == 2


def test_u_matrix_range():
    for n in (1, 2, 3, 5, 6, 8, 9):
        u_matrix(n)


def test_v_matrix_printed():
    assert [list(r) for r in v_matrix(1).entries] == [[1]]
    assert [list(r) for r in v_matrix(2).entries] == [[3, -5], [1, -2]]
    assert [list(r) for r in v_matrix(5).entries][4] == [1, -2, 5, -14, 42]
    assert [list(r) for r in v_matrix(3).entries] == [[5, -7, 14], [5, -9, 21], [1, -2, 5]]


def test_v_matrix_certifies_lemma():
    # the constructor itself checks V^2 = 4E + C; spot-check one case here
    n = 5
    V = v_matrix(n)
    C = companion_matrix(theta(n))
    assert V * V == RingMatrix.identity(ZZ, n).scale(4) + C


def test_xy_power_table_refuses_forged_images(monkeypatch):
    # Y with omega -> omega + 1 below the diagonal: tr(XY) = 3 + omega
    # breaks the three-term recurrence.  The entry identities, the second
    # check, follow from the first: at k = 2 and 3 the recurrences pin XY
    # to [[1 + omega, 1], [omega, 1]] unless x^2 - (2 + omega)x + 1 has a
    # root in Z[omega], and its roots are the nonreal p-th roots of unity
    # (2 + omega is zeta + 1/zeta).  So no XY fails the second alone.
    import talex.representations

    X, Y = dihedral_xi(5)
    ring = X.ring
    forged = RingMatrix(ring, [[Y[0, 0], Y[0, 1]], [ring.add(Y[1, 0], ring.one), Y[1, 1]]])
    monkeypatch.setattr(talex.representations, "dihedral_xi", lambda p: (X, forged))
    with pytest.raises(AssertionError, match=r"breaks the three-term recurrence at p=5"):
        xy_power_table.__wrapped__(5)


def test_u_matrix_refuses_a_forged_binomial_table(monkeypatch):
    import talex.representations

    a_jk, b_jk = talex.representations.a_jk, talex.representations.b_jk
    # doubling b_{j,k} alone breaks the conjugacy
    monkeypatch.setattr(talex.representations, "b_jk", lambda j, k: 2 * b_jk(j, k))
    with pytest.raises(AssertionError, match=r"U_3 does not conjugate pi0 to eta"):
        u_matrix.__wrapped__(3)
    # doubling both keeps it (2U conjugates as U does) but not unimodularity
    monkeypatch.setattr(talex.representations, "a_jk", lambda j, k: 2 * a_jk(j, k))
    with pytest.raises(AssertionError, match=r"U_3 is not unimodular"):
        u_matrix.__wrapped__(3)


def test_v_matrix_refuses_a_forged_catalan_table(monkeypatch):
    # V C = C V, the second check, follows from the first: C = V^2 - 4E is
    # a polynomial in V, so no V fails the second alone
    import talex.representations

    d_kl = talex.representations.d_kl
    monkeypatch.setattr(talex.representations, "d_kl", lambda n, k, ell: d_kl(n, k, ell) + 1)
    with pytest.raises(AssertionError, match=r"V_3\^2 != 4E \+ C"):
        v_matrix.__wrapped__(3)


def test_catalan_series():
    assert [catalan_b(k) for k in range(7)] == [1, -2, 5, -14, 42, -132, 429]


def test_f_values():
    assert f_value(1, 0) == 1
    assert f_value(2, 2) == -3
    assert all(f_value(n, n - 1) == 1 for n in range(1, 21))
    assert all(f_value(n, n) == -(2 * n - 1) for n in range(1, 21))
    assert all(
        f_value(n, m) == 0 for n in range(2, 21) for m in range(0, n - 1)
    )


def test_h_values_vanish():
    assert all(h_value(n, k) == 0 for n in range(1, 13) for k in range(2, 9))


def test_binary_dihedral_images():
    for p in (3, 5, 7):
        x, y = binary_dihedral(p)
        ring = x.ring
        minus_i = RingMatrix.identity(ring, 2).scale(ring.from_int(-1))
        assert x * x == minus_i
        assert y * y == minus_i
    x, y = binary_dihedral(3)
    ring = x.ring
    v = ring.gen()
    # v^-1 = v^2 = -1 - v under v^2 + v + 1 = 0
    assert y.entries == ((ring.zero, v), (ring.neg(ring.pow(v, 2)), ring.zero))


def test_binary_dihedral_relator_check():
    pres = presentation(TwoBridgeFraction(9, 1))
    rep = binary_dihedral_rep(pres, 3)
    assert rep.dim == 2


def test_nqp_images_are_permutations():
    x, y = nqp_images(4, 3)
    assert x.rows == 24
    for M in (x, y):
        for row in M.entries:
            assert sum(row) == 1 and all(c in (0, 1) for c in row)
        for j in range(24):
            assert sum(M.entries[i][j] for i in range(24)) == 1


def test_nqp_q1_is_regular_dihedral():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = nqp_rep(pres, 1, 3)
    assert rep.dim == 6


def test_nqp_image_orders():
    x, y = nqp_images(2, 5)
    I = RingMatrix.identity(ZZ, 20)
    assert x ** 4 == I and x ** 2 != I
    assert y ** 4 == I


def test_nqp_gcd_guard():
    with pytest.raises(ValueError):
        nqp_images(3, 3)


@pytest.mark.parametrize(
    "build",
    [
        lambda: dihedral_xi(9),
        lambda: binary_dihedral(1),
        lambda: nqp_images(3, 3),
        lambda: nqp_images(0, 5),
        lambda: kmeta_images(7, 1),
        lambda: kmeta_images(7, 14),
        lambda: kmeta_images(15, 2),
    ],
)
def test_group_orders_outside_the_paper_are_precondition_errors(build):
    with pytest.raises(PreconditionError):
        build()


def test_no_valid_assignment_is_a_precondition_error():
    # Delta(-2) = 31 for K(1/5): no K-metacyclic assignment at p = 7
    pres = presentation(TwoBridgeFraction(5, 1))
    with pytest.raises(NoValidAssignment) as info:
        kmeta_rep(pres, 7, -2)
    assert isinstance(info.value, PreconditionError)


def test_kmeta_images():
    s, a = kmeta_images(7, -2)
    # sigma(a) is the 7-cycle
    assert a ** 7 == RingMatrix.identity(ZZ, 7)
    assert a ** 1 != RingMatrix.identity(ZZ, 7)
    assert s ** 6 == RingMatrix.identity(ZZ, 7)
    # conjugation relation s a s^-1 = a^k
    assert s * a * s.inverse() == a ** (5)  # -2 = 5 mod 7
    with pytest.raises(ValueError):
        kmeta_images(7, 1)


def test_kmeta_rep_trefoil():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = kmeta_rep(pres, 7, -2)
    assert rep.dim == 7


def test_kmeta_rep_rejected_when_delta_obstructs():
    # K(1/5): Delta(-2) = 31, Delta(3) = 61, neither divisible by 7
    from talex.twisted import kmeta_total

    pres = presentation(TwoBridgeFraction(5, 1))
    with pytest.raises((ValueError, NoValidAssignment)):
        kmeta_total(pres, 7, -2)


def test_multiplicative_order():
    assert multiplicative_order(-2, 7) == 6
    assert multiplicative_order(2, 7) == 3
    assert multiplicative_order(2, 5) == 4


def test_matrixrep_rejects_bad_relator():
    pres = presentation(TwoBridgeFraction(3, 1))
    x0, y0 = _pi0_images(5)  # wrong p for this knot
    with pytest.raises(NoValidAssignment):
        MatrixRep(pres, {"x": x0, "y": y0})


def test_every_constructed_rep_checks_relators():
    # every constructed MatrixRep maps every relator to the identity
    pres = presentation_8_5()
    for rep in (
        dihedral_rep(pres, 3, "pi"),
        binary_dihedral_rep(pres, 3),
        kmeta_rep(pres, 7, -2),
    ):
        I = RingMatrix.identity(rep.coeff_ring, rep.dim)
        for r in pres.relators:
            assert rep.element(rep.walk(r.codes)) == I


def solve_matches_oracle(pres, s_img, a_img, p):
    """The meridian solve's exponents, checked against the exhaustive
    search: the same images, or a refusal where the search finds none."""
    expected = exhaustive_exponents(pres, s_img, a_img, p)
    if expected is None:
        with pytest.raises(NoValidAssignment):
            search_assignment(pres, s_img, a_img, p)
    else:
        rep = search_assignment(pres, s_img, a_img, p)
        assert rep.table.images == tuple(s_img * a_img**e for e in expected), (p, expected)
    return expected


def test_the_meridian_solve_returns_the_exhaustive_search_exponents_on_8_5():
    pres = presentation_8_5()
    delta = alexander(pres)
    cases = [(p, k) for p in (3, 5, 7, 11, 13) for k in range(2, p)]
    cases += [
        (p, k) for p in (17, 19, 23) for k in range(2, p) if delta.eval_int(k) % p == 0
    ]
    found = [solve_matches_oracle(pres, *kmeta_images(p, k), p) for p, k in cases]
    assert len(cases) == 37 and sum(e is not None for e in found) == 14
    # three generators take the solve; (0, 1, 3) is not the search's first try
    assert found[cases.index((17, 5))] == (0, 1, 3)
    for p, pinned in ((3, (0, 1, 0)), (7, (0, 1, 1))):
        for x, y in (dihedral_xi(p), dihedral_pi(p), binary_dihedral(p), nqp_images(2, p)):
            assert solve_matches_oracle(pres, x, x.inverse() * y, p) == pinned


def test_the_least_kernel_vector_is_the_first_in_lexicographic_order():
    # random systems over Z/p of every rank, against enumeration
    rng = random.Random(20)
    for _ in range(300):
        p = rng.choice((2, 3, 5))
        n = rng.randrange(1, 5)
        basis = [[rng.randrange(p) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
        rows = [
            [sum(rng.randrange(p) * b[j] for b in basis) % p for j in range(n)]
            for _ in range(rng.randrange(1, 5))
        ]
        first = next(
            (
                x
                for x in product(range(p), repeat=n)
                if any(x) and all(sum(a * b for a, b in zip(r, x)) % p == 0 for r in rows)
            ),
            None,
        )
        assert _least_kernel_vector(rows, p) == first, (rows, p)


def test_a_two_generator_rep_build_walks_each_relator_once(monkeypatch):
    # (0, 1) is the one candidate, so its relator walk is the whole solve:
    # a separate solve walk would show here, on a fresh table and on the
    # registered one, and for a refusal too
    walked = []
    walk = _ImageTable.walk
    monkeypatch.setattr(
        _ImageTable, "walk", lambda table, codes: walked.append(tuple(codes)) or walk(table, codes)
    )
    monkeypatch.setattr(representations, "_TABLES", {})
    pres = presentation(TwoBridgeFraction(45, 7))
    trefoil = presentation(TwoBridgeFraction(3, 1))
    builds = [
        (pres, lambda: dihedral_rep(pres, 5, "xi")),
        (pres, lambda: dihedral_rep(pres, 5, "pi")),
        (pres, lambda: binary_dihedral_rep(pres, 5)),
        (pres, lambda: nqp_rep(pres, 2, 5)),
        (trefoil, lambda: kmeta_rep(trefoil, 7, -2)),
    ]
    for knot, build in builds + builds:
        walked.clear()
        build()
        assert walked == [r.codes for r in knot.relators]
    refused = presentation(TwoBridgeFraction(5, 1))  # Delta(-2) = 31
    walked.clear()
    with pytest.raises(NoValidAssignment):
        kmeta_rep(refused, 7, -2)
    assert walked == [r.codes for r in refused.relators]


def test_kmeta_rep_refuses_exactly_when_delta_k_is_not_zero_mod_p():
    rng = random.Random(27)
    knots = [presentation_8_5()]
    knots += [presentation(random_fraction(rng, max_alpha=300)) for _ in range(20)]
    built = refused = 0
    for pres in knots:
        delta = alexander(pres)
        for p in (5, 7, 11):
            for k in range(2, p):
                if delta.eval_int(k) % p == 0:
                    assert kmeta_rep(pres, p, k).dim == p
                    built += 1
                else:
                    with pytest.raises(NoValidAssignment, match=rf"^Delta\({k}\) != 0 mod {p}:"):
                        kmeta_rep(pres, p, k)
                    refused += 1
    assert built and refused


def test_a_solve_that_breaks_a_relator_is_a_certificate_failure(monkeypatch):
    # on 8_5 at p = 3 the solve gives (0, 1, 0); a forged (0, 0, 1) fails
    # the rep's relator walk, which is an internal error, not a refusal
    monkeypatch.setattr(representations, "_least_kernel_vector", lambda rows, p: (0, 1))
    x, y = dihedral_xi(3)
    with pytest.raises(AssertionError, match=r"\(0, 0, 1\)"):
        search_assignment(presentation_8_5(), x, x.inverse() * y, 3)
