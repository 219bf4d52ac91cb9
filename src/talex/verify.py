"""Named verification suites: golden worked-example values, algebraic identity
batteries, the appendix checks, and the randomized census.

Each suite is a list of (name, thunk) items; a thunk returns True/False.
A thunk that raises is recorded as an ``ItemError``, never as a verdict:
a crash fails the run even in an advisory item.  Census items about
conjectures are advisory: their verdicts report findings and never fail
the run; violations of proven statements do fail it.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from .factorization import (
    _conjecture_report,
    f_polynomial,
    split_check,
    torus_gh,
)
from .knots import (
    TwoBridgeFraction,
    alexander,
    hp_expansion,
    presentation,
    presentation_8_5,
    random_fraction,
)
from .laurent import LaurentPoly, modp_unit_equal
from .matrices import PolyRing, RingMatrix
from .representations import (
    a_jk,
    b_jk,
    binary_dihedral_rep,
    catalan_b,
    dihedral_rep,
    dihedral_xi,
    f_n_coeff,
    f_value,
    h_value,
    is_prime,
    omega_ring,
    theta,
    u_matrix,
    v_matrix,
    xy_power_table,
)
from .twisted import (
    binary_dihedral_total,
    dihedral_total,
    gamma_total,
    kmeta_total,
    modp_congruence,
    nqp_total,
    wada,
)
from math import comb


def P(*coeffs):
    return LaurentPoly.from_int_coeffs(coeffs)


def Pstep(step, *coeffs):
    return LaurentPoly.from_dict({k * step: c for k, c in enumerate(coeffs)})


def prod(polys):
    out = LaurentPoly.one()
    for q in polys:
        out = out * q
    return out


# ---------------------------------------------------------------------------
# frozen golden values
# ---------------------------------------------------------------------------

ONE_MINUS_T = P(1, -1)
ONE_PLUS_T = P(1, 1)

DELTA_TORUS_5 = P(1, -1, 1, -1, 1)

F_19_85 = P(1, -3, -2, 4, -1, 0, -4, -3, 7, -3, -4, 0, -1, 4, -2, -3, 1)
G_19_85 = P(2, -2, 2, -2, 1, -2, 2, -2, 2)
F_21_115 = P(4, 2, -3, -1, 0, -8, -3, 4, 0, 1, 9, 1, 0, 4, -3, -8, 0, -1, -3, 2, 4)
G_21_115 = P(2, -2, 2, -2, 2, -3, 2, -2, 2, -2, 2)

DIHEDRAL_GOLDENS = {
    # fraction, p -> expanded total
    ((3, 1), 3): P(1, 0, -1),
    ((9, 1), 3): prod([P(1, 0, -1), P(1, 0, 0, -1, 0, 0, 1), P(1, 0, 0, 1, 0, 0, 1)]),
    ((27, 5), 3): prod([P(1, 0, -1), P(1, 1, -1, 1, 1), P(1, -1, -1, -1, 1)]),
    ((5, 1), 5): prod(
        [P(1, 0, -1) ** 2, DELTA_TORUS_5, DELTA_TORUS_5.negate_t()]
    ),
    ((85, 19), 5): None,  # filled below from the K(1/5) value
    ((115, 21), 5): None,
}
DIHEDRAL_GOLDENS[((85, 19), 5)] = prod(
    [DIHEDRAL_GOLDENS[((5, 1), 5)], F_19_85, F_19_85.negate_t()]
)
DIHEDRAL_GOLDENS[((115, 21), 5)] = prod(
    [DIHEDRAL_GOLDENS[((5, 1), 5)], F_21_115, F_21_115.negate_t()]
)

BINARY_GOLDENS = {
    ((9, 1), 3): prod([Pstep(2, 1, 1) ** 2, Pstep(6, 1, -1, 1) ** 2]),
    ((27, 5), 3): prod([Pstep(2, 1, 1) ** 2, Pstep(2, 1, 3, 1, 3, 1) ** 2]),
    ((5, 1), 5): prod([Pstep(2, 1, 1) ** 4, Pstep(2, 1, -1, 1, -1, 1) ** 2]),
    ((85, 19), 5): prod(
        [
            Pstep(2, 1, 1) ** 4,
            Pstep(2, 1, -1, 1, -1, 1) ** 2,
            Pstep(2, 1, 13, 26, 20, 13, 22, 40, 33, 25, 33, 40, 22, 13, 20, 26, 13, 1)
            ** 2,
        ]
    ),
}

NQP_GOLDENS = {
    ((3, 1), 4, 3): prod([Pstep(8, 1, -1), Pstep(8, 1, 1, 1)]),
    ((9, 1), 4, 3): prod(
        [Pstep(8, 1, -1), Pstep(8, 1, 1, 1), Pstep(24, 1, 1, 1) ** 3]
    ),
    ((27, 5), 4, 3): prod(
        [
            Pstep(8, 1, -1),
            Pstep(8, 1, 1, 1),
            Pstep(8, 16, 31, 16) ** 2,
            Pstep(8, 1, -79, 129, -79, 1) ** 2,
        ]
    ),
    ((3, 1), 5, 3): prod([Pstep(10, 1, -1), Pstep(10, 1, 1, 1)]),
    ((9, 1), 5, 3): prod(
        [Pstep(10, 1, -1), Pstep(10, 1, 1, 1), Pstep(30, 1, 1, 1) ** 3]
    ),
    ((27, 5), 5, 3): prod(
        [
            Pstep(10, 1, -1),
            Pstep(10, 1, 1, 1),
            Pstep(10, 1, -228, -314, -228, 1) ** 2,
            Pstep(20, 1024, 1201, 1024),
        ]
    ),
    ((5, 1), 3, 5): prod([Pstep(6, 1, -1) ** 3, Pstep(6, 1, 1, 1, 1, 1) ** 3]),
    ((85, 19), 3, 5): prod(
        [
            Pstep(6, 1, -1) ** 3,
            Pstep(6, 1, 1, 1, 1, 1) ** 3,
            Pstep(6, 64, 64, 48, 12, 49, 12, 48, 64, 64),
            Pstep(
                6,
                1, -1243, 3335, 1570, -2423, 6320, -992, -2181, 9451,
                -2181, -992, 6320, -2423, 1570, 3335, -1243, 1,
            )
            ** 2,
        ]
    ),
}

KMETA_GOLDENS = {
    # (fraction, p, k) -> the recognized factor F with total = [Delta/(1-t)] F
    ((3, 1), 7, -2): Pstep(6, 1, -1),
    ((27, 5), 7, -2): prod([Pstep(6, 1, -1), Pstep(6, 1, -7, 9, -7, 1)]),
    ((9, 5), 5, 2): Pstep(4, 1, -1),
    ((9, 5), 11, 2): Pstep(10, 1, -1),
    ((9, 5), 7, 2): Pstep(3, 1, -1) ** 2,
}

# The published table value for K(1/9) under G(6,7|-2).  It is
# unattainable: meridians map to s^c * a^j with a common c; the classes
# c in {0,2,3,4} are obstructed arithmetically, and machine enumeration
# of both generating classes c in {1,5} yields the COMPUTED value below
# (degree 42, matching the degree count deg = 7*deg(Delta) - 7 that the
# neighboring table entries satisfy).  Kept for the faithful-failing
# acceptance item.
KMETA_K19_P7_PRINTED = prod([Pstep(6, 1, -1), Pstep(6, 1, -1, 1)])
# The cross-validated value the enumeration and the independent
# determinant oracle agree on:
KMETA_K19_P7_COMPUTED = prod([Pstep(6, 1, -1), Pstep(6, 1, 1, 1) ** 3])

# fraction, p -> (printed torus factor q, printed extra factor f); each
# is pinned only up to units and its own t -> -t swap
FACTOR_GOLDENS = {
    ((3, 1), 3): (P(1, 1), P(1)),
    ((9, 1), 3): (P(1, 1), Pstep(3, 1, 1, 1)),
    ((27, 5), 3): (P(1, 1), P(1, 1, -1, 1, 1)),
    ((5, 1), 5): (prod([P(1, 1) ** 2, DELTA_TORUS_5]), P(1)),
    ((85, 19), 5): (prod([P(1, 1) ** 2, DELTA_TORUS_5]), F_19_85),
    ((115, 21), 5): (prod([P(1, 1) ** 2, DELTA_TORUS_5]), F_21_115),
}


def swap_unit_equal(got, want):
    """Equality up to units and the t -> -t representative swap."""
    w = want.canonical()
    return got.canonical() == w or got.negate_t().canonical() == w

EIGHT5_DELTA = prod([P(1, -1, 1), P(1, -2, 1, -2, 1)])
EIGHT5_F1 = prod([P(1, 1), P(1, 1, -2, 1, 1)])
EIGHT5_F2 = prod([P(1, 1) ** 3, P(1, 2, 0, -7, -13, -13, -11, -13, -13, -7, 0, 2, 1)])
EIGHT5_RHO3 = prod([Pstep(2, 1, 1) ** 2, Pstep(2, 1, 5, 4, 5, 1) ** 2])
EIGHT5_RHO4 = prod(
    [
        Pstep(2, 1, 1) ** 6,
        Pstep(2, 1, 4, 2, 19, 13, 37, 17, 37, 13, 19, 2, 4, 1) ** 2,
    ]
)
EIGHT5_F5 = prod([Pstep(6, 1, -1), Pstep(6, 1, -72, -82, -72, 1)])

U4_PRINTED = [
    [4, 3, 2, 1, 0, -1, -2, -3],
    [10, 4, 1, 0, 0, 0, -1, -4],
    [6, 1, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1],
    [6, 3, 1, 0, 0, 1, 3, 6],
    [5, 1, 0, 0, 0, 0, 1, 5],
    [1, 0, 0, 0, 0, 0, 0, 1],
]
U5_PRINTED = [
    [5, 4, 3, 2, 1, 0, -1, -2, -3, -4],
    [20, 10, 4, 1, 0, 0, 0, -1, -4, -10],
    [21, 6, 1, 0, 0, 0, 0, 0, -1, -6],
    [8, 1, 0, 0, 0, 0, 0, 0, 0, -1],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 0],
    [1, 1, 1, 1, 1, 1, 1, 1, 1, 1],
    [10, 6, 3, 1, 0, 0, 1, 3, 6, 10],
    [15, 5, 1, 0, 0, 0, 0, 1, 5, 15],
    [7, 1, 0, 0, 0, 0, 0, 0, 1, 7],
    [1, 0, 0, 0, 0, 0, 0, 0, 0, 1],
]
V_PRINTED = {
    1: [[1]],
    2: [[3, -5], [1, -2]],
    3: [[5, -7, 14], [5, -9, 21], [1, -2, 5]],
    4: [[7, -9, 18, -45], [14, -23, 51, -132], [7, -13, 31, -84], [1, -2, 5, -14]],
    5: [
        [9, -11, 22, -55, 154],
        [30, -46, 99, -253, 715],
        [27, -47, 108, -286, 825],
        [9, -17, 41, -112, 330],
        [1, -2, 5, -14, 42],
    ],
}

HP_GOLDENS = [
    ((9, 1), 3, (9,)),
    ((27, 5), 3, (6, -2, 3)),
    ((85, 19), 5, (5, -2, 10)),
]


@dataclass(frozen=True)
class Item:
    name: str
    run: object  # thunk () -> bool
    advisory: bool = False


def _frac(pair):
    return TwoBridgeFraction(*pair)


# ---------------------------------------------------------------------------
# the golden-example suite
# ---------------------------------------------------------------------------


def paper_suite():
    items = []

    for (pair, p), expected in DIHEDRAL_GOLDENS.items():
        items.append(
            Item(
                f"dihedral total {pair[1]}/{pair[0]} p={p}",
                lambda pair=pair, p=p, e=expected: dihedral_total(_frac(pair), p)
                == e.canonical(),
            )
        )
    items.append(
        Item(
            "Delta(5/27) factorization",
            lambda: alexander(presentation(TwoBridgeFraction(27, 5)))
            == prod([P(1, -1, 1), P(2, -2, 1, -2, 2)]).canonical(),
        )
    )
    items.append(
        Item(
            "Delta(19/85) = Delta(1/5) g",
            lambda: alexander(presentation(TwoBridgeFraction(85, 19)))
            == prod([DELTA_TORUS_5, G_19_85]).canonical(),
        )
    )
    items.append(
        Item(
            "Delta(21/115) = Delta(1/5) g",
            lambda: alexander(presentation(TwoBridgeFraction(115, 21)))
            == prod([DELTA_TORUS_5, G_21_115]).canonical(),
        )
    )
    def f_congruent_g_squared(f_poly, g_poly):
        # f is pinned only up to t -> -t; the congruence picks a side
        square = g_poly * g_poly
        return modp_unit_equal(f_poly, square, 5) or modp_unit_equal(
            f_poly.negate_t(), square, 5
        )

    items.append(
        Item(
            "f = g^2 (mod 5) for 19/85",
            lambda: f_congruent_g_squared(F_19_85, G_19_85),
        )
    )
    items.append(
        Item(
            "f = g^2 (mod 5) for 21/115",
            lambda: f_congruent_g_squared(F_21_115, G_21_115),
        )
    )

    for (pair, p), expected in BINARY_GOLDENS.items():
        items.append(
            Item(
                f"binary dihedral total {pair[1]}/{pair[0]} p={p}",
                lambda pair=pair, p=p, e=expected: binary_dihedral_total(
                    _frac(pair), p
                )
                == e.canonical(),
            )
        )

    for (pair, q, p), expected in NQP_GOLDENS.items():
        items.append(
            Item(
                f"N({q},{p}) total {pair[1]}/{pair[0]}",
                lambda pair=pair, q=q, p=p, e=expected: nqp_total(_frac(pair), q, p)
                == e.canonical(),
            )
        )

    def kmeta_matches(pair, p, k, expected):
        report = kmeta_total(presentation(_frac(pair)), p, k)
        return report.factor == expected.canonical() and report.conjecture_a_holds

    for (pair, p, k), expected in KMETA_GOLDENS.items():
        items.append(
            Item(
                f"kmeta {pair[1]}/{pair[0]} p={p} k={k}",
                lambda pair=pair, p=p, k=k, e=expected: kmeta_matches(pair, p, k, e),
            )
        )
    items.append(
        Item(
            "kmeta 1/9 p=7 k=-2 [cross-validated value; the published"
            " table entry is unattainable, see notes]",
            lambda: kmeta_total(presentation(TwoBridgeFraction(9, 1)), 7, -2).factor
            == KMETA_K19_P7_COMPUTED.canonical(),
        )
    )

    pres85 = presentation_8_5()
    items.append(
        Item("Delta(8_5)", lambda: alexander(pres85) == EIGHT5_DELTA.canonical())
    )

    def rho12(p, f_factor):
        rep = dihedral_rep(pres85, p, "pi")
        expected = (
            (EIGHT5_DELTA * f_factor * f_factor.negate_t()).exact_div(ONE_MINUS_T)
        ).canonical()
        return wada(pres85, rep) == expected

    def rho34(p, expected):
        total = gamma_total(pres85, binary_dihedral_rep(pres85, p))
        return total == expected.canonical()

    items.append(Item("8_5 under D_3", lambda: rho12(3, EIGHT5_F1)))
    items.append(Item("8_5 under D_7", lambda: rho12(7, EIGHT5_F2)))
    items.append(Item("8_5 under N(2,3)", lambda: rho34(3, EIGHT5_RHO3)))
    items.append(Item("8_5 under N(2,7)", lambda: rho34(7, EIGHT5_RHO4)))

    def rho5():
        report = kmeta_total(pres85, 7, -2)
        return report.factor == EIGHT5_F5.canonical() and report.conjecture_a_holds

    items.append(Item("8_5 under G(6,7|-2)", rho5))

    for (pair, p), (q_want, f_want) in FACTOR_GOLDENS.items():
        def check(pair=pair, p=p, q_want=q_want, f_want=f_want):
            cert = f_polynomial(_frac(pair), p)
            return (
                cert.verify()
                and swap_unit_equal(cert.q, q_want)
                and swap_unit_equal(cert.f, f_want)
            )

        items.append(Item(f"factorization F for {pair[1]}/{pair[0]} p={p}", check))

    for pair, p, cf in HP_GOLDENS:
        items.append(
            Item(
                f"hp {pair[1]}/{pair[0]} in H({p})",
                lambda pair=pair, p=p, cf=cf: getattr(
                    hp_expansion(_frac(pair), p), "entries", None
                )
                == cf,
            )
        )

    for pair, p in [((27, 5), 3), ((85, 19), 5), ((115, 21), 5)]:
        items.append(
            Item(
                f"mod-p congruence {pair[1]}/{pair[0]} p={p}",
                lambda pair=pair, p=p: modp_congruence(_frac(pair), p),
            )
        )
    return items


# ---------------------------------------------------------------------------
# the identity suite (sections 3-5)
# ---------------------------------------------------------------------------


def _split_probe_matrices(p):
    """The four section-4 elements as explicit 2x2 matrix polynomials."""
    n = (p - 1) // 2
    X, Y = dihedral_xi(p)
    ring = X.ring
    poly_ring = PolyRing(ring)

    def lift(M, shift=0):
        return M.map_entries(
            lambda e: LaurentPoly(ring, shift, [e]), ring=poly_ring
        )

    I = RingMatrix.identity(poly_ring, 2)
    Xt = lift(X, 1)
    Yt = lift(Y, 1)
    YX = Y * X
    XY = X * Y

    def q_poly(k):
        acc = RingMatrix.zeros(poly_ring, 2)
        M = RingMatrix.identity(ring, 2)
        for j in range(k + 1):
            acc = acc + lift(M, 2 * j)
            M = M * YX
        return acc

    def yx_power(k, shift):
        return lift(YX ** k, shift)

    y_inv_t = lift(Y.inverse(), -1)
    one_minus_yt = I - Yt
    one_minus_xt = I - Xt

    e1 = y_inv_t * one_minus_yt * q_poly(2 * n) * Yt * one_minus_xt
    e2 = y_inv_t * (
        one_minus_yt * q_poly(n) * Yt + yx_power(n + 1, 2 * n + 2)
    ) * one_minus_xt
    e3 = y_inv_t * (
        one_minus_yt * q_poly(3 * n + 1) * Yt + yx_power(3 * n + 2, 6 * n + 4)
    ) * one_minus_xt
    # the fourth element needs the index 4n+1: splitting the sum at
    # (yx)^(2n+1) = 1 gives Q_{4n+1} = (1 + t^(2p)) Q_{2n}, which is the
    # identity the splitness rests on (at 4n the second half is one
    # term short and the element is in fact not split)
    e4 = y_inv_t * one_minus_yt * q_poly(4 * n + 1) * Yt * one_minus_xt
    return [e1, e2, e3, e4]


def identities_suite():
    rng = random.Random(20240801)
    items = []
    primes = [3, 5, 7, 11, 13]

    def base_values(p):
        table = xy_power_table(p)  # recurrences checked at construction
        ring = omega_ring((p - 1) // 2)
        w = ring.gen()
        return (
            table.a(1) == ring.add(ring.one, w)
            and table.b(1) == ring.one
            and table.c(1) == w
            and table.d(1) == ring.one
            and table.rows[p] == (ring.one, ring.zero, ring.zero, ring.one)
        )

    def palindrome_symmetry(p):
        t = xy_power_table(p)
        n = (p - 1) // 2
        ring = omega_ring(n)
        ok = all(t.a(k) == t.a(2 * n - k) for k in range(2 * n + 1))
        ok = ok and t.a(2 * n + 1) == t.a(0)
        ok = ok and all(
            t.b(k) == ring.neg(t.b(p - k)) for k in range(2 * n + 1)
        )
        return ok and t.b(p) == ring.zero

    def period_sums(p):
        t = xy_power_table(p)
        n = (p - 1) // 2
        ring = omega_ring(n)
        s = ring.zero
        for k in range(2 * n + 1):
            s = ring.add(s, t.a(k))
        ok = s == ring.zero
        s = ring.zero
        for k in range(1, 2 * n + 1):
            s = ring.add(s, t.b(k))
        ok = ok and s == ring.zero
        s = ring.zero
        for k in range(2 * n + 1):
            s = ring.add(s, t.d(k))
        ok = ok and s == ring.zero
        two_b = ring.add(t.b(n), t.b(n))
        return ok and ring.add(t.a(n), two_b) == ring.zero

    def rotation_reflection(p):
        X, Y = dihedral_xi(p)
        t = xy_power_table(p)
        ring = X.ring
        n = (p - 1) // 2
        XY, YX = X * Y, Y * X
        I = RingMatrix.identity(ring, 2)
        ok = True
        for k in range(1, n + 1):
            lhs = XY ** k + YX ** k
            ok = ok and lhs == I.scale(ring.add(t.a(k - 1), t.a(k)))
        for k in range(1, n):
            lhs = (XY ** k) * X + Y * (XY ** k)
            ok = ok and lhs == (X + Y).scale(t.a(k))
        lhs = (XY ** n) * X
        rhs = Y * (XY ** n)
        ok = ok and lhs == rhs
        return ok and lhs == (X + Y).scale(ring.neg(t.b(n)))

    for p in primes:
        items.append(Item(f"power-table base values p={p}", lambda p=p: base_values(p)))
        items.append(Item(f"power-table palindrome symmetry p={p}", lambda p=p: palindrome_symmetry(p)))
        items.append(Item(f"power-table period sums p={p}", lambda p=p: period_sums(p)))
        items.append(Item(f"rotation-reflection identities p={p}", lambda p=p: rotation_reflection(p)))

    def random_split(p, rng):
        ring = omega_ring((p - 1) // 2)
        n = ring.degree

        def rand_elem():
            return tuple(rng.randrange(-4, 5) for _ in range(n))

        g = LaurentPoly.from_dict(
            {2 * k: rand_elem() for k in range(3)}, ring
        )
        h = LaurentPoly.from_dict(
            {2 * k + 1: rand_elem() for k in range(3)}, ring
        )
        from .factorization import SplitForm, _as_matrix

        return _as_matrix(SplitForm(G=g, H=h), ring)

    def split_closure(p):
        for _ in range(10):
            A = random_split(p, rng)
            B = random_split(p, rng)
            if split_check(A + B) is None or split_check(A * B) is None:
                return False
        return True

    for p in [3, 5, 7, 11]:
        items.append(Item(f"split closure under sum/product p={p}", lambda p=p: split_closure(p)))
        items.append(
            Item(
                f"four split probe elements p={p}",
                lambda p=p: all(
                    split_check(M) is not None for M in _split_probe_matrices(p)
                ),
            )
        )

    for p in [3, 5, 7]:
        items.append(
            Item(
                f"torus split form reproduces Wada p={p}",
                lambda p=p: torus_gh(p) is not None,
            )
        )
    for n in range(1, 26):
        if is_prime(2 * n + 1):
            items.append(
                Item(f"V_{n}^2 = 4E + C", lambda n=n: v_matrix(n) is not None)
            )
    return items


# ---------------------------------------------------------------------------
# the appendix suite
# ---------------------------------------------------------------------------


def appendix_suite(max_n=20):
    items = []

    def table_recursions(n):
        c = [theta(n).coeff(k) for k in range(n + 1)]
        for k in range(n + 1):
            if c[k] != a_jk(k + 1, n + 1) + a_jk(k + 1, n):
                return False
        for j in range(1, n + 1):
            for k in range(j, n + 1):
                if b_jk(j, k) != a_jk(j, k) - a_jk(j, k - 1):
                    return False
                if b_jk(j, k) != a_jk(j - 1, k - 1) + b_jk(j, k - 1):
                    return False
        for j in range(1, n + 1):
            lhs = -2 * sum(b_jk(j, k) for k in range(j, n + 1))
            rhs = a_jk(j - 1, n) - theta(n).coeff(j - 1) + b_jk(j, n)
            if lhs != rhs:
                return False
        return True

    for n in range(2, max_n + 1):
        if is_prime(2 * n + 1):
            items.append(Item(f"binomial-table recursions n={n}", lambda n=n: table_recursions(n)))

    items.append(
        Item(
            "printed U_4 table",
            lambda: [list(r) for r in u_matrix(4).entries] == U4_PRINTED,
        )
    )
    items.append(
        Item(
            "printed U_5 table",
            lambda: [list(r) for r in u_matrix(5).entries] == U5_PRINTED,
        )
    )
    for n in range(1, max_n + 1):
        if is_prime(2 * n + 1):
            items.append(
                Item(f"U_{n} conjugates pi0 to eta", lambda n=n: u_matrix(n) is not None)
            )
    for n in range(1, 51):
        if is_prime(2 * n + 1):
            items.append(
                Item(f"V_{n} square-root identity", lambda n=n: v_matrix(n) is not None)
            )
    items.append(
        Item(
            "printed V_1..V_5 tables",
            lambda: all(
                [list(r) for r in v_matrix(n).entries] == V_PRINTED[n]
                for n in (1, 2, 3, 4, 5)
            ),
        )
    )

    def reversed_theta_recursion(max_n):
        for n in range(2, max_n + 1):
            for k in range(n + 1):
                if f_n_coeff(n, k) != (
                    f_n_coeff(n - 1, k)
                    + 2 * f_n_coeff(n - 1, k - 1)
                    - f_n_coeff(n - 2, k - 2)
                ):
                    return False
        return True

    items.append(Item("reversed-theta coefficient recursion n<=30", lambda: reversed_theta_recursion(30)))

    def f_value_recursion(max_n):
        return all(
            f_value(n, m)
            == f_value(n - 1, m + 1) + 2 * f_value(n - 1, m) - f_value(n - 2, m)
            for n in range(2, max_n + 1)
            for m in range(0, max_n)
        )

    items.append(Item("F(n,m) recursion n<=30", lambda: f_value_recursion(30)))

    def f_value_boundaries(max_n):
        ok = all(
            f_value(n, m) == 0
            for n in range(2, max_n + 1)
            for m in range(0, n - 1)
        )
        ok = ok and all(f_value(n, n - 1) == 1 for n in range(1, max_n + 1))
        ok = ok and all(f_value(n, n) == -(2 * n - 1) for n in range(1, max_n + 1))
        # the convolution identity, in the range its own induction uses
        for n in range(2, max_n + 1):
            for k in range(n + 1):
                if sum(
                    f_n_coeff(n, k - j) * catalan_b(j) for j in range(k + 1)
                ) != f_n_coeff(n - 1, k):
                    return False
        return ok

    items.append(Item("F(n,m) boundary values n<=30", lambda: f_value_boundaries(30)))
    items.append(
        Item(
            "F(n,m) small table",
            lambda: f_value(0, 0) == 1
            and f_value(1, 0) == 1
            and f_value(1, 1) == -1
            and f_value(2, 0) == 0
            and f_value(2, 1) == 1
            and f_value(2, 2) == -3,
        )
    )

    def binomial_identity(max_N):
        for N in range(max_N + 1):
            for M in range(N + 1):
                for K in range(N + 1):
                    lhs = sum(
                        (-1) ** j * comb(N - j, K - j) * comb(M, M - j)
                        for j in range(M + 1)
                        if 0 <= K - j <= N - j
                    )
                    if lhs != (comb(N - M, K) if K <= N - M else 0):
                        return False
        return True

    items.append(Item("alternating binomial identity N<=40", lambda: binomial_identity(40)))

    def h_vanishing(max_n, max_k):
        return all(
            h_value(n, k) == 0
            for n in range(1, max_n + 1)
            for k in range(2, max_k + 1)
        )

    items.append(Item("H_k^(n) vanishing, n<=20, k<=12", lambda: h_vanishing(20, 12)))
    items.append(
        Item(
            "Catalan series b_0..b_6",
            lambda: [catalan_b(k) for k in range(7)]
            == [1, -2, 5, -14, 42, -132, 429],
        )
    )
    return items


# ---------------------------------------------------------------------------
# the census suite
# ---------------------------------------------------------------------------


def census_suite(seed=7, count=50):
    rng = random.Random(seed)
    samples = []
    seen = set()
    while len(samples) < count:
        p = rng.choice([3, 5, 7])
        f = random_fraction(rng, p=p, max_alpha=500)
        if (f.alpha, f.beta, p) in seen:
            continue
        seen.add((f.alpha, f.beta, p))
        samples.append((f, p))

    def sample_items(f, p):
        built = []
        # in H(p) the paper proves the constructive factorization, so the
        # item is a theorem check; elsewhere it reports a finding
        proven = hp_expansion(f, p) is not None

        def report():
            # built by whichever of the two items runs first
            if not built:
                built.append(_conjecture_report(f, p, proven))
            return built[0]

        def factor_report():
            r = report()
            # without an expansion: record whether the fallback pairs it
            return r.split or (not proven and r.F is not None)

        return [
            Item(
                f"mod-p congruence holds for {f} p={p}",
                lambda: report().modp,
            ),
            Item(
                f"factorization finding for {f} p={p}",
                factor_report,
                advisory=not proven,
            ),
        ]

    return [item for f, p in samples for item in sample_items(f, p)]


def _given(value, default):
    return default if value is None else value


SUITES = {
    "paper": lambda **kw: paper_suite(),
    "identities": lambda **kw: identities_suite(),
    "appendix": lambda **kw: appendix_suite(max_n=_given(kw.get("max_n"), 20)),
    "census": lambda **kw: census_suite(
        seed=_given(kw.get("seed"), 7), count=_given(kw.get("max_n"), 50)
    ),
}


@dataclass(frozen=True)
class ItemError:
    """The outcome of an item that raised: falsy, so it never counts as a
    pass, and distinct from a False verdict."""

    kind: str
    message: str

    def __bool__(self):
        return False

    def __str__(self):
        return f"{self.kind}: {self.message}"


def run_suite(items):
    """Execute items in order; returns (results, all_ok).

    results: list of (name, ok, advisory), where ok is a bool verdict or
    an ItemError.  all_ok is False when a non-advisory item fails or any
    item raises.
    """
    def run_one(item):
        try:
            return bool(item.run())
        except Exception as e:
            return ItemError(type(e).__name__, str(e))

    results = [(item.name, run_one(item), item.advisory) for item in items]
    crashed = any(isinstance(ok, ItemError) for _, ok, _ in results)
    all_ok = not crashed and all(ok for _, ok, advisory in results if not advisory)
    return results, all_ok
