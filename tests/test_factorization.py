"""Split polynomials and the constructive f(t)f(-t) factorization."""

import random
from collections import Counter

import pytest

from conftest import P, Pstep, prod
from factor_oracle import sympy_int_poly_factor
from lift_oracle import full_lift_pairing
from talex.factorization import (
    CertificateFailure,
    NotSplit,
    SplitForm,
    _as_matrix,
    _hensel_pairing,
    _certified_factorization,
    _lex_min_rep,
    _split_determinant,
    _torus_factor,
    _torus_image,
    conjecture_report,
    extract_GH,
    f_polynomial,
    factor_pairing,
    torus_q_probe,
    split_check,
    torus_gh,
    total_pairing,
)
from talex.intfactor import _mignotte_modulus, int_poly_factor
from talex.knots import TwoBridgeFraction, alexander, presentation, random_fraction
from talex.laurent import LaurentPoly, gf_xgcd, modp_unit_equal
from talex.matrices import ZZ_POLY, PolyRing, RingMatrix, gamma_substitute
from talex.representations import (
    dihedral_xi,
    is_prime,
    omega_companion,
    omega_ring,
    v_matrix,
)
from talex.rings import NonExactDivision
from talex.twisted import dihedral_total, modp_factor


def F(a, b):
    return TwoBridgeFraction(a, b)


def lift_const(M, extra_shift=0):
    ring = M.ring
    return M.map_entries(
        lambda e: LaurentPoly(ring, extra_shift, [e]), ring=PolyRing(ring)
    )


def test_split_check_scalar_even():
    ring = omega_ring(1)
    poly_ring = PolyRing(ring)
    one_plus_t2 = LaurentPoly.from_dict({0: ring.one, 2: ring.one}, ring)
    M = RingMatrix.identity(poly_ring, 2).scale(one_plus_t2)
    form = split_check(M)
    assert form is not None
    assert form.G == one_plus_t2 and form.H.is_zero


def test_split_check_x_plus_y_odd():
    for p in (3, 5):
        X, Y = dihedral_xi(p)
        M = lift_const(X + Y, extra_shift=1)
        form = split_check(M)
        assert form is not None
        assert form.G.is_zero
        assert form.H == LaurentPoly.from_dict({1: X.ring.one}, X.ring)


def test_split_check_rejects_x_t():
    X, _ = dihedral_xi(3)
    assert split_check(lift_const(X, extra_shift=1)) is None


def test_split_form_parity_enforced():
    ring = omega_ring(1)
    with pytest.raises(NotSplit):
        SplitForm(
            G=LaurentPoly.from_dict({1: ring.one}, ring),
            H=LaurentPoly.zero(ring),
        )


def test_split_reconstruction_roundtrip(rng):
    # reconstruction [[G-2H, H], [wH, G+2H]] matches the source exactly
    for p in (3, 5, 7):
        ring = omega_ring((p - 1) // 2)
        for _ in range(5):
            g = LaurentPoly.from_dict(
                {2 * k: tuple(rng.randrange(-5, 6) for _ in range(ring.degree)) for k in range(3)},
                ring,
            )
            h = LaurentPoly.from_dict(
                {2 * k + 1: tuple(rng.randrange(-5, 6) for _ in range(ring.degree)) for k in range(3)},
                ring,
            )
            form = SplitForm(G=g, H=h)
            back = split_check(_as_matrix(form, ring))
            assert back is not None and back.G == g and back.H == h


def test_torus_gh_small_p():
    # p=3: g = 1, h = t, and q(t) = det[g - V h] = 1 - t, with
    # q(t)q(-t) = 1 - t^2
    form = torus_gh(3)
    ring = omega_ring(1)
    assert form.G == LaurentPoly.one(ring)
    assert form.H == LaurentPoly.from_dict({1: ring.one}, ring)
    q = _split_determinant(form, 3)
    assert (q * q.negate_t()).canonical() == P(1, 0, -1)
    assert q.canonical() == P(1, -1).canonical()


def test_torus_gh_p5_matches_total():
    form = torus_gh(5)
    q = _split_determinant(form, 5)
    assert (q * q.negate_t()).canonical() == dihedral_total(F(5, 1), 5)


def test_torus_gh_p7_two_routes():
    form = torus_gh(7)
    q = _split_determinant(form, 7)
    assert (q * q.negate_t()).canonical() == dihedral_total(F(7, 1), 7)


def test_extract_gh_torus_identity():
    for p in (3, 5):
        form = extract_GH(F(p, 1), p)
        ring = omega_ring((p - 1) // 2)
        assert form.G == LaurentPoly.one(ring)
        assert form.H.is_zero


def test_extract_gh_1_9():
    form = extract_GH(F(9, 1), 3)
    ring = omega_ring(1)
    assert form.G == LaurentPoly.from_dict({0: ring.one, 6: ring.one}, ring)
    assert form.H == LaurentPoly.from_dict({3: ring.one}, ring)


def test_f_polynomial_goldens():
    cases = {
        ((3, 1), 3): P(1, 1),
        ((9, 1), 3): prod([P(1, 1), Pstep(3, 1, 1, 1)]),
        ((27, 5), 3): prod([P(1, 1), P(1, 1, -1, 1, 1)]),
        ((5, 1), 5): prod([P(1, 1) ** 2, P(1, -1, 1, -1, 1)]),
    }
    for (pair, p), want in cases.items():
        cert = f_polynomial(F(*pair), p)
        assert cert.verify()
        w = want.canonical()
        assert cert.F == w or cert.F.negate_t().canonical() == w


def test_f_polynomial_printed_f_19_85():
    cert = f_polynomial(F(85, 19), 5)
    printed = P(1, -3, -2, 4, -1, 0, -4, -3, 7, -3, -4, 0, -1, 4, -2, -3, 1)
    assert cert.f == printed.canonical() or cert.f.negate_t().canonical() == printed.canonical()
    assert cert.verify()


def test_f_polynomial_certificate_matches_total():
    for pair, p in [((9, 1), 3), ((27, 5), 3), ((115, 21), 5)]:
        cert = f_polynomial(F(*pair), p)
        assert (cert.F * cert.F.negate_t()).canonical() == dihedral_total(F(*pair), p)


def test_factor_pairing_examples():
    paired = factor_pairing(P(1, 0, -1))
    # 1+t up to the inherent t -> -t swap (the lex-min rule picks 1-t)
    want_pair = P(1, 1).canonical()
    assert want_pair in (paired.canonical(), paired.negate_t().canonical())
    d = prod([P(1, 0, -1), Pstep(3, 1, -1, 1), Pstep(3, 1, 1, 1)])
    f = factor_pairing(d)
    want = prod([P(1, 1), Pstep(3, 1, 1, 1)]).canonical()
    assert f == want or f.negate_t().canonical() == want
    assert factor_pairing(P(1, 1, 1)) is None


def test_factor_pairing_odd_content_obstruction():
    assert factor_pairing(P(2, 0, -2)) is None


def test_factor_pairing_agrees_with_constructive():
    # uniqueness up to units and the t -> -t swap
    for pair, p in [((9, 1), 3), ((27, 5), 3)]:
        cert = f_polynomial(F(*pair), p)
        paired = factor_pairing(dihedral_total(F(*pair), p))
        assert paired is not None
        assert paired == cert.F or paired.negate_t().canonical() == cert.F


def test_gamma_images_commute_with_v():
    # v_matrix checks V_n C_n = C_n V_n once per n; every gamma image is
    # a polynomial in C_n, so on a nontrivial knot it commutes with V_n
    for n in range(1, 51):
        if is_prime(2 * n + 1):
            V, C = v_matrix(n), omega_companion(n)
            assert V * C == C * V, n
    form = extract_GH(F(85, 19), 5)
    V = v_matrix(2).map_entries(LaurentPoly.const, ring=ZZ_POLY)
    for part in (form.G, form.H):
        image = gamma_substitute(part)
        assert image * V == V * image
    assert not _split_determinant(form, 5).is_zero


@pytest.mark.parametrize("p", [3, 5, 7])
def test_f_polynomial_certifies_every_knot_with_an_expansion(p):
    # the paper's theorem on every knot in H(p) with alpha <= 120, for
    # one fraction per knot up to mirror image
    from hp_oracle import knots_with_expansion

    knots = {}
    for alpha, beta in knots_with_expansion(p, 120)[0]:
        inv = pow(beta, -1, alpha)
        knots.setdefault((alpha, min(beta, alpha - beta, inv, alpha - inv)), beta)
    for (alpha, _), beta in knots.items():
        assert f_polynomial(F(alpha, beta), p).verify()


def test_reports_off_hp_membership():
    # K(4/9) has no H(3) expansion in any Schubert form, yet the
    # factorization route empirically still certifies -- the theorem
    # only covers H(p), so both outcomes are findings.  Whatever the
    # split verdict, the mod-p congruence must hold and be internally
    # consistent.
    from talex.knots import hp_expansion

    for pair in [(9, 4), (15, 4), (21, 8)]:
        f = F(*pair)
        assert hp_expansion(f, 3) is None
        report = conjecture_report(f, 3)
        assert report.hp == "no"
        assert report.modp  # the congruence holds regardless of the factorization
        if report.split:
            assert (report.F * report.F.negate_t()).canonical() == report.D
        else:
            assert report.q is None and report.f is None


def test_torus_q_probe():
    for p in (3, 5, 7, 11):
        assert torus_q_probe(p)


@pytest.mark.parametrize(
    "pair, p, splits",
    [((85, 19), 5, True), ((7, 2), 7, False)],
    ids=["19/85 p=5 splits", "2/7 p=7 does not split"],
)
def test_conjecture_report_builds_each_input_once(monkeypatch, pair, p, splits):
    import talex.factorization
    import talex.twisted

    knot = TwoBridgeFraction(*pair)
    calls = {"D": 0, "torus": 0}
    built = {"presentation": [], "rep": []}

    def counted(key, fn):
        def wrapper(*args, **kwargs):
            calls[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    # every D(t) is built by gamma_total, dihedral_total's included
    for module in (talex.factorization, talex.twisted):
        monkeypatch.setattr(module, "gamma_total", counted("D", module.gamma_total))
    monkeypatch.setattr(
        talex.factorization, "torus_gh", counted("torus", talex.factorization.torus_gh)
    )
    build_pres = talex.factorization.presentation
    build_rep = talex.factorization.dihedral_rep

    def recording_presentation(f):
        pres = build_pres(f)
        if f == knot:
            built["presentation"].append(pres)
        return pres

    def recording_rep(pres, *args, **kwargs):
        if any(pres is q for q in built["presentation"]):
            built["rep"].append(args)
        return build_rep(pres, *args, **kwargs)

    monkeypatch.setattr(talex.factorization, "presentation", recording_presentation)
    monkeypatch.setattr(talex.factorization, "dihedral_rep", recording_rep)
    report = conjecture_report(knot, p)
    assert report.split is splits
    assert calls["D"] == 1
    assert calls["torus"] <= 1
    assert len(built["presentation"]) == 1
    assert built["rep"] == [(p, "xi")]


def test_census_suite_builds_D_once_per_sample(monkeypatch):
    import talex.factorization
    import talex.twisted
    import talex.verify

    # every D(t) is built by gamma_total, dihedral_total's included
    builds = []
    for module in (talex.factorization, talex.twisted):
        fn = module.gamma_total
        monkeypatch.setattr(
            module,
            "gamma_total",
            # the coefficient modulus theta_n of the xi rep names p
            lambda pres, rep, fn=fn: builds.append((pres, rep.coeff_ring.modulus))
            or fn(pres, rep),
        )
    _, all_ok = talex.verify.run_suite(talex.verify.census_suite(seed=7, count=20))
    assert all_ok
    assert len(builds) == 20 == len(set(builds))


def test_census_suite_decides_hp_once_per_sample(monkeypatch):
    import talex.factorization
    import talex.verify

    calls = []
    for module in (talex.factorization, talex.verify):
        fn = module.hp_expansion
        monkeypatch.setattr(
            module,
            "hp_expansion",
            lambda f, p, fn=fn: calls.append((f.alpha, f.beta, p)) or fn(f, p),
        )
    items = talex.verify.census_suite(seed=7, count=20)
    _, all_ok = talex.verify.run_suite(items)
    assert all_ok
    assert len(calls) == 20 == len(set(calls))


def test_conjecture_report_19_85():
    report = conjecture_report(F(85, 19), 5)
    assert report.split and report.F is not None
    assert report.hp == "yes"
    assert report.modp and report.modp_f
    assert report.remark53


def test_prop_4_2_closure(rng):
    for p in (3, 5, 7, 11):
        ring = omega_ring((p - 1) // 2)

        def rand_form():
            g = LaurentPoly.from_dict(
                {2 * k: tuple(rng.randrange(-4, 5) for _ in range(ring.degree)) for k in range(3)},
                ring,
            )
            h = LaurentPoly.from_dict(
                {2 * k + 1: tuple(rng.randrange(-4, 5) for _ in range(ring.degree)) for k in range(3)},
                ring,
            )
            return _as_matrix(SplitForm(G=g, H=h), ring)

        for _ in range(6):
            A, B = rand_form(), rand_form()
            assert split_check(A + B) is not None
            assert split_check(A * B) is not None


def test_prop_4_3_probes():
    from talex.verify import _split_probe_matrices

    for p in (3, 5, 7, 11):
        for M in _split_probe_matrices(p):
            assert split_check(M) is not None


# ---------------------------------------------------------------------------
# the pairing route for knots whose constructive split fails
# ---------------------------------------------------------------------------

# the knots of the benchmark's census panel whose split fails and whose
# mod-p factor u is coprime to u(-t): the lift alone pairs each of them
COPRIME_PANEL = [
    (405, 341, 5), (147, 43, 7), (7, 2, 7), (385, 64, 7), (203, 12, 7),
    (105, 52, 7), (21, 10, 7), (345, 208, 5), (399, 176, 7), (259, 25, 7),
    (161, 86, 7), (287, 222, 7), (295, 116, 5), (195, 32, 5), (155, 142, 5),
    (175, 2, 5), (475, 202, 5),
]


def does_not_split(f, p):
    try:
        f_polynomial(f, p)
    except (NotSplit, NonExactDivision):
        return True
    return False


def congruent(F, u, p):
    return modp_unit_equal(F.reduce_mod(p), u, p) or modp_unit_equal(
        F.negate_t().reduce_mod(p), u, p
    )


def pair_classes(F):
    """|content| and the irreducible factors of F, each read up to
    t -> -t, with multiplicity."""
    content, factors = int_poly_factor(F)
    classes = Counter()
    for q, m in factors:
        classes[_lex_min_rep(q)] += m
    return abs(content), classes


@pytest.fixture
def no_sympy(monkeypatch):
    # refuses the fallback pairing by integer factorization
    import talex.factorization

    def refuse(poly):
        raise AssertionError("the integer-factorization pairing ran")

    monkeypatch.setattr(talex.factorization, "int_poly_factor", refuse)


def test_hensel_pairing_agrees_with_the_sympy_oracle(monkeypatch):
    import talex.factorization

    monkeypatch.setattr(talex.factorization, "int_poly_factor", sympy_int_poly_factor)
    rng = random.Random(2009)
    lifted = 0
    while lifted < 12:
        p = rng.choice([3, 5, 7])
        f = random_fraction(rng, p=p, max_alpha=300)
        if not does_not_split(f, p):
            continue
        D = dihedral_total(f, p)
        u = modp_factor(alexander(presentation(f)), p)
        F = _hensel_pairing(D, u)
        if F is None:
            # the lift declines only where its hypotheses fail
            if D.canonical().coeffs[-1] % p:
                with pytest.raises(ValueError):
                    gf_xgcd(u, u.negate_t())
            continue
        lifted += 1
        assert (F * F.negate_t()).canonical() == D.canonical()
        assert congruent(F, u, p)
        oracle = factor_pairing(D)
        assert oracle is not None
        assert pair_classes(F) == pair_classes(oracle)


def test_coprime_panel_knots_pair_without_sympy(no_sympy):
    for alpha, beta, p in COPRIME_PANEL:
        report = conjecture_report(F(alpha, beta), p)
        assert not report.split
        assert report.F is not None, (alpha, beta, p)
        assert (report.F * report.F.negate_t()).canonical() == report.D
        assert report.modp_f


def test_103_155_pairs_by_the_lift(no_sympy):
    # a degree-204 D(t) whose sympy factorization took 6.5 s
    report = conjecture_report(F(155, 103), 5)
    assert not report.split
    assert (report.F * report.F.negate_t()).canonical() == report.D
    assert report.modp_f


@pytest.fixture
def lift_steps(monkeypatch):
    # counts intfactor's quadratic Hensel steps
    import talex.intfactor

    steps = []
    step = talex.intfactor._hensel_step
    monkeypatch.setattr(
        talex.intfactor, "_hensel_step", lambda *a, **k: steps.append(1) or step(*a, **k)
    )
    return steps


def pairing_inputs(f, p):
    return dihedral_total(f, p), modp_factor(alexander(presentation(f)), p)


def test_hensel_pairing_matches_the_full_lift(lift_steps):
    # a seeded sample, one fraction per knot up to mirror image, of the
    # knots with p | alpha <= 201: the lift stopped at its first
    # certified candidate gives what the lift to the Mignotte modulus gives
    rng = random.Random(13)
    seen = set()
    outcomes = Counter()
    while len(seen) < 150:
        p = rng.choice([3, 5, 7, 11])
        f = random_fraction(rng, p=p, max_alpha=201)
        inv = pow(f.beta, -1, f.alpha)
        key = (f.alpha, min(f.beta, f.alpha - f.beta, inv, f.alpha - inv), p)
        if key in seen:
            continue
        seen.add(key)
        D, u = pairing_inputs(f, p)
        lift_steps.clear()
        F = _hensel_pairing(D, u)
        assert F == full_lift_pairing(D, u), key
        outcomes["declined" if F is None else min(len(lift_steps), 2)] += 1
    assert outcomes["declined"] and outcomes[2], outcomes


@pytest.mark.parametrize(
    "pair, p, steps",
    [((405, 341), 5, 0), ((259, 25), 7, 2), ((295, 116), 5, 3)],
    ids=["341/405 p=5", "25/259 p=7", "116/295 p=5"],
)
def test_hensel_pairing_stops_at_the_first_certified_lift(lift_steps, pair, p, steps):
    D, u = pairing_inputs(F(*pair), p)
    pairing = _hensel_pairing(D, u)
    assert pairing is not None and len(lift_steps) == steps
    assert (pairing * pairing.negate_t()).canonical() == D.canonical()


def test_hensel_pairing_that_never_certifies_lifts_to_the_full_modulus(lift_steps):
    # D + p*t has D's image mod p, so the lift runs, but it is not even
    # in t, so no candidate F(t)F(-t) can reproduce it
    p = 5
    D, u = pairing_inputs(F(405, 341), p)
    forged = D.canonical() + LaurentPoly.t_power(1).scale(p)
    assert forged.reduce_mod(p) == D.canonical().reduce_mod(p)
    m = _mignotte_modulus(forged, p, u.degree)
    full_steps = 0
    while p ** (2**full_steps) < m:
        full_steps += 1
    assert _hensel_pairing(forged, u) is None
    assert len(lift_steps) == full_steps >= 4


def test_sympy_pairing_is_oriented_by_the_modp_factor():
    # on these knots the pairing that keeps each factor as the integer
    # factorization lists it (in sympy's order) is valid but fails the
    # congruence; oriented by u it meets it
    for pair, p in [((399, 176), 7), ((345, 208), 5)]:
        D = dihedral_total(F(*pair), p)
        u = modp_factor(alexander(presentation(F(*pair))), p)
        assert not congruent(factor_pairing(D), u, p)
        oriented = factor_pairing(D, u)
        assert (oriented * oriented.negate_t()).canonical() == D.canonical()
        assert congruent(oriented, u, p)


def test_lift_declines_and_sympy_pairs_when_u_is_not_coprime_to_its_mirror():
    # 293/469 at p=7: u and u(-t) share factors mod 7, so the lift
    # declines; the unoriented pairing is already congruent there, and
    # the orientation keeps it (the first pair fixes u versus u(-t))
    f, p = F(469, 293), 7
    delta = alexander(presentation(f))
    D = dihedral_total(f, p)
    u = modp_factor(delta, p)
    with pytest.raises(ValueError):
        gf_xgcd(u, u.negate_t())
    assert _hensel_pairing(D, u) is None
    unoriented = factor_pairing(D)
    assert congruent(unoriented, u, p)
    assert total_pairing(D, u) == unoriented


def test_forged_total_without_a_congruent_pairing(monkeypatch):
    # D = G(t)G(-t) with G irreducible and neither G nor G(-t) congruent
    # to the knot's mod-p factor: every pairing certifies, none is
    # congruent, so modp_f must read False
    import talex.factorization

    f, p = F(7, 2), 7
    u = modp_factor(alexander(presentation(f)), p)
    G = P(3, 1, 0, 1)  # t^3 + t + 3, irreducible over Z
    assert not congruent(G, u, p)
    forged = (G * G.negate_t()).canonical()
    monkeypatch.setattr(talex.factorization, "gamma_total", lambda pres, rep: forged)
    report = conjecture_report(f, p)
    assert report.D == forged and not report.split
    assert report.F is not None
    assert (report.F * report.F.negate_t()).canonical() == forged
    assert report.modp_f is False


def test_a_forged_total_fails_the_factorization_certificate():
    # F is built from the split form alone, so a doubled D(t) reaches the
    # certificate F(t)F(-t) = D only
    f = F(85, 19)
    D = dihedral_total(f, 5).scale(2)
    with pytest.raises(CertificateFailure, match=r"F\(t\)F\(-t\) != D for 19/85 at p=5"):
        _certified_factorization(f, 5, extract_GH(f, 5), D)


def test_torus_gh_refuses_a_forged_wada_quotient(monkeypatch):
    # the split form is read from the (XY)^k table, the check from the
    # Wada quotient of K(1/p): a doubled quotient reaches the check only
    import talex.factorization

    wada = talex.factorization.wada

    def doubled(pres, rep):
        got = wada(pres, rep)
        return got.scale(got.ring.from_int(2))

    monkeypatch.setattr(talex.factorization, "wada", doubled)
    with pytest.raises(AssertionError, match=r"torus split form does not reproduce"):
        torus_gh(5)


def test_torus_factor_is_built_once_per_p(monkeypatch):
    import talex.factorization

    calls = []
    build = talex.factorization.torus_gh
    monkeypatch.setattr(
        talex.factorization, "torus_gh", lambda p: calls.append(p) or build(p)
    )
    _torus_factor.cache_clear()
    torus_q_probe.cache_clear()
    try:
        for pair, p in [((85, 19), 5), ((7, 2), 7), ((9, 4), 3), ((45, 16), 5)]:
            conjecture_report(F(*pair), p)
        assert torus_q_probe(5) and torus_q_probe(7)
    finally:
        _torus_factor.cache_clear()
        torus_q_probe.cache_clear()
    assert sorted(calls) == [3, 5, 7]


def test_torus_probe_is_built_once_per_p(monkeypatch):
    # the probe needs K(1/p)'s presentation, Alexander polynomial and
    # (1+t)^n Delta^(n-1), which depend on p only
    import talex.factorization

    calls = []
    build = talex.factorization.presentation

    def recording_presentation(f):
        if f.beta == 1:
            calls.append(f.alpha)
        return build(f)

    conjecture_report(F(7, 2), 7)  # the torus image and factor, cached per p
    torus_q_probe.cache_clear()
    monkeypatch.setattr(talex.factorization, "presentation", recording_presentation)
    try:
        first = conjecture_report(F(7, 2), 7)
        second = conjecture_report(F(21, 8), 7)
    finally:
        torus_q_probe.cache_clear()
    assert first.remark53 == second.remark53
    assert calls.count(7) <= 1


def test_torus_image_is_built_once_per_p(monkeypatch):
    import talex.factorization

    calls = []
    build = talex.factorization.presentation

    def recording_presentation(f):
        if f.beta == 1:
            calls.append(f.alpha)
        return build(f)

    monkeypatch.setattr(talex.factorization, "presentation", recording_presentation)
    _torus_image.cache_clear()
    try:
        for pair, p in [((85, 19), 5), ((21, 20), 7), ((9, 4), 3), ((35, 4), 5)] * 2:
            extract_GH(F(*pair), p)
    finally:
        _torus_image.cache_clear()
    assert sorted(calls) == [3, 5, 7]


def test_census_factorization_item_pairs_through_the_lift(no_sympy):
    import talex.verify

    name = "factorization finding for 47/91 p=7"
    item = next(
        it for it in talex.verify.census_suite(seed=7, count=3) if it.name == name
    )
    assert does_not_split(F(91, 47), 7)
    assert item.run() is True
