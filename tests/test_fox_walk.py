"""The streamed Fox walk against the free-word oracle, and its scale.

``fox_derivative(r, j, rep)`` pushes the derivative forward into the
image group, walking a relator u a u^-1 c along u alone; the oracle
(``fox_oracle``) lists every prefix word and multiplies matrices along
them.  The two share no code beyond the generator images, so agreement
on every representation flavor, on relators and on words that the
walk may not fold, is the correctness certificate of the walk.
"""

import sys
import threading
import time
import tracemalloc

import pytest

import fox_oracle
from rep_oracle import eta_rep, pi0_rep
from talex import representations, words
from talex.knots import (
    TwoBridgeFraction,
    alexander,
    presentation,
    presentation_8_5,
    random_fraction,
)
from talex.matrices import RingMatrix
from talex.representations import (
    NoValidAssignment,
    _ImageTable,
    binary_dihedral_rep,
    dihedral_pi,
    dihedral_rep,
    dihedral_xi,
    kmeta_rep,
    nqp_images,
    nqp_rep,
    rep_from_pair,
    trivial_rep,
)
from talex.twisted import dihedral_total, modp_congruence
from talex.words import FreeWord, ImageSum, fox_derivative, rep_evaluate


def assert_walk_matches_oracle(pres, rep, label=""):
    for r in pres.relators:
        for j in range(pres.num_gens):
            free = fox_oracle.fox(r, j)
            streamed = fox_derivative(r, j, rep)
            assert rep_evaluate(streamed) == fox_oracle.evaluate(free, rep), (label, j)
            assert streamed.augmentation() == fox_oracle.psi(free), (label, j)
    for j in range(pres.num_gens):
        gen = FreeWord.generator(j)
        assert rep_evaluate(ImageSum.of_word(gen, rep)) == fox_oracle.evaluate(
            fox_oracle.word(gen), rep
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
    for flavor in ("xi", "pi"):
        reps[f"dihedral {flavor}"] = dihedral_rep(pres, p, flavor)
    reps["dihedral pi0"] = pi0_rep(pres, p)
    reps["dihedral eta"] = eta_rep(pres, p)
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
        dihedral_rep(pres, 3, "pi"),
        binary_dihedral_rep(pres, 3),
        kmeta_rep(pres, 7, -2),
        nqp_rep(pres, 2, 7),
    ):
        assert_walk_matches_oracle(pres, rep)


def conjugate_words(rng, count):
    """Freely reduced words u a u^-1 c, a and c single letters."""
    letters = [1, -1, 2, -2]
    out = []
    while len(out) < count:
        u = FreeWord([rng.choice(letters) for _ in range(rng.randrange(9))]).codes
        codes = (*u, rng.choice(letters), *(-c for c in reversed(u)), rng.choice(letters))
        if len(FreeWord(codes)) == len(codes):
            out.append(FreeWord._trusted(codes))
    return out


def test_words_that_do_not_fold_are_walked_in_full(rng, monkeypatch):
    # u a u^-1 c that the rep does not map to 1, the relator with one end
    # letter inverted (rho(r) is still 1 for dihedral images, since x and
    # y map to reflections, but the t-grading is not), and words of odd
    # length: each agrees with the free-word oracle at every column, and
    # only the relator itself is walked along its conjugator alone
    walked = []
    walk = words._walk

    def counting(letters, *args):
        walked.append(len(letters))
        return walk(letters, *args)

    monkeypatch.setattr(words, "_walk", counting)
    f = random_fraction(rng, p=5, max_alpha=100)
    pres = presentation(f)
    r = pres.relators[0].codes
    m = len(r) // 2 - 1
    flipped = [
        FreeWord._trusted((*r[:m], -r[m], *r[m + 1 :])),
        FreeWord._trusted((*r[:-1], -r[-1])),
    ]
    odd = [
        FreeWord([rng.choice([1, -1, 2, -2]) for _ in range(n)])
        for n in (1, 3, 7, 15, 31)
    ]
    odd = [w for w in odd if len(w) % 2]
    assert odd
    reps = {
        "xi": dihedral_rep(pres, 5, "xi"),
        "N(2,p)": nqp_rep(pres, 2, 5),
        "K-metacyclic": kmeta_rep(pres, 5, 4),
    }
    for name, rep in reps.items():
        folded = []
        for w in [pres.relators[0], *flipped, *odd, *conjugate_words(rng, 40)]:
            ones = rep.walk(w.codes) == 0 and sum(1 if c > 0 else -1 for c in w.codes) == 0
            for j in range(2):
                walked.clear()
                free = fox_oracle.fox(w, j)
                streamed = fox_derivative(w, j, rep)
                assert rep_evaluate(streamed) == fox_oracle.evaluate(free, rep), (name, w, j)
                assert streamed.augmentation() == fox_oracle.psi(free), (name, w, j)
                if ones and len(w) % 2 == 0:
                    assert walked == [len(w) // 2 - 1, 1, 1], (name, w)
                else:
                    assert sum(walked) == len(w), (name, w)
            folded.append(ones)
        assert folded[:3] == [True, False, False], name
        assert not any(folded[3 : 3 + len(odd)]), name
        # the random conjugates hit both branches
        assert True in folded[3 + len(odd) :] and False in folded[3 + len(odd) :], name


def assert_fundamental_identity(pres, rep, label=""):
    # sum_j rep(dR/dx_j) (X_j t - I) = rep(R) - I = 0 for every relator R
    gens = [
        rep_evaluate(ImageSum.of_word(FreeWord.generator(j), rep))
        for j in range(pres.num_gens)
    ]
    one = RingMatrix.identity(gens[0].ring, rep.dim)
    zero = RingMatrix.zeros(gens[0].ring, rep.dim)
    for r in pres.relators:
        total = zero
        for j, gen in enumerate(gens):
            total = total + rep_evaluate(fox_derivative(r, j, rep)) * (gen - one)
        assert total == zero, label


def test_fundamental_identity_on_the_walk(rng):
    for p in (3, 5, 7):
        f = random_fraction(rng, p=p, max_alpha=120)
        pres = presentation(f)
        for name, rep in rep_flavors(pres, f, p).items():
            assert_fundamental_identity(pres, rep, f"{f} {name}")
    pres = presentation_8_5()
    for rep in (
        dihedral_rep(pres, 3, "pi"),
        kmeta_rep(pres, 7, -2),
    ):
        assert_fundamental_identity(pres, rep)


def assert_table_consistent(table):
    # every id's matrix is the product along its edges and along the
    # parent edge that first reached it, and ids are unique
    k = len(table.images)
    for g, row in enumerate(table.successors):
        assert len(row) == 2 * k + 1 and row[0] is None
        for code in [c for i in range(1, k + 1) for c in (i, -i)]:
            h = row[code]
            if h is not None:
                assert table.elements[g] * table.image_of_code(code) == table.elements[h]
    assert table.parents[0] is None
    for h, (g, code) in enumerate(table.parents[1:], 1):
        assert g < h
        assert table.elements[h] == table.elements[g] * table.image_of_code(code)
    assert len(table.successors) == len(table.elements) == len(table.parents)
    assert {m.entries: g for g, m in enumerate(table.elements)} == table.ids


def complete_table(images):
    """A fresh table grown to the whole image group."""
    table = _ImageTable(images)
    codes = [c for i in range(len(images)) for c in (i + 1, -i - 1)]
    g = 0
    while g < len(table.elements):
        for c in codes:
            table.step(g, c)
        g += 1
    return table


@pytest.mark.parametrize(
    "images, order",
    [
        (lambda: dihedral_xi(5), 10),
        (lambda: dihedral_pi(7), 14),
        (lambda: nqp_images(3, 5), 30),
    ],
    ids=["xi p=5", "pi p=7", "N(3,5)"],
)
def test_left_product_is_the_matrix_product(images, order, monkeypatch):
    table = complete_table(images())
    assert len(table.elements) == order
    assert_table_consistent(table)
    # every edge is known, so the left products take no matrix product
    elements = list(table.elements)
    monkeypatch.setattr(RingMatrix, "__mul__", None)
    left = {(k, g): table.left(k, g) for k in range(order) for g in range(order)}
    monkeypatch.undo()
    for (k, g), h in left.items():
        assert elements[h] == elements[k] * elements[g], (k, g)


def test_word_image_reads_the_table_and_the_table_is_the_image_group(rng, monkeypatch):
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
            assert rep.element(rep.walk(word.codes)) == product
        assert len(rep.table.elements) <= order
        assert_table_consistent(rep.table)
    # 5 does not divide 7: each of the 4 candidates of the search fails
    # its relator on a table of its own, grown consistent, and none of
    # them is registered for later reps
    tried = []
    fresh = representations._image_table
    monkeypatch.setattr(representations, "_TABLES", {})
    monkeypatch.setattr(
        representations, "_image_table", lambda images: tried.append(fresh(images)) or tried[-1]
    )
    with pytest.raises(NoValidAssignment):
        dihedral_rep(presentation(TwoBridgeFraction(7, 3)), 5, "xi")
    assert len(tried) == 4 and representations._TABLES == {}
    for table in tried:
        assert len(table.elements) > 1
        assert_table_consistent(table)


def test_a_meridian_search_registers_only_the_table_it_returns(monkeypatch):
    # Delta(8_5)(11) = 0 mod 47; the search tries 67 exponent tuples and
    # only the last holds: the tables of the other 66 are not kept
    monkeypatch.setattr(representations, "_TABLES", {})
    rep = kmeta_rep(presentation_8_5(), 47, 11)
    assert list(representations._TABLES.values()) == [rep.table]


def test_reps_with_equal_images_share_one_table():
    rep = dihedral_rep(presentation(TwoBridgeFraction(15, 4)), 5)
    assert dihedral_rep(presentation(TwoBridgeFraction(45, 7)), 5).table is rep.table
    assert dihedral_rep(presentation(TwoBridgeFraction(5, 1)), 5).table is rep.table
    assert dihedral_rep(presentation(TwoBridgeFraction(15, 4)), 3).table is not rep.table
    trefoil = presentation(TwoBridgeFraction(3, 1))
    X, Y = dihedral_xi(3)
    first = rep_from_pair(trefoil, X, X.inverse() * Y, (0, 1))
    second = rep_from_pair(trefoil, X, X.inverse() * Y, (0, 2))
    assert first.table is not second.table
    assert eta_rep(trefoil, 3).table is not first.table
    assert binary_dihedral_rep(trefoil, 3).table is not first.table


def test_a_second_dihedral_rep_takes_no_matrix_product(monkeypatch):
    f = TwoBridgeFraction(45, 7)
    dihedral_rep(presentation(f), 5, "xi")
    products = []
    real = RingMatrix.__mul__

    def counting(self, other):
        products.append(1)
        return real(self, other)

    monkeypatch.setattr(RingMatrix, "__mul__", counting)
    rep = dihedral_rep(presentation(f), 5, "xi")
    fox_derivative(rep.pres.relators[0], 0, rep)
    assert products == []


def test_threads_walking_one_fresh_table_get_the_same_ids(rng):
    X, Y = dihedral_xi(11)
    words = [
        [rng.choice([1, -1, 2, -2]) for _ in range(rng.randrange(1, 30))]
        for _ in range(200)
    ]
    table = _ImageTable((X, Y))
    results = {}

    def walk_all(k):
        out = []
        for codes in words:
            g = 0
            for c in codes:
                g = table.step(g, c)
            out.append(g)
        results[k] = out

    threads = [threading.Thread(target=walk_all, args=(k,)) for k in range(4)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert len(results) == 4
    assert all(out == results[0] for out in results.values())
    assert len(table.elements) == 22
    assert_table_consistent(table)


@pytest.mark.parametrize("codes", [(1, 3, -1), (2, -3), (1, 0, -1), (5,), (-5,)])
def test_a_letter_code_outside_the_generators_is_refused(codes):
    # table rows are indexed by letter code, where 3 and -2 (and 0 and
    # the wrap of -5) would share a slot: a foreign code must raise, not
    # read another letter's entry
    rep = dihedral_rep(presentation(TwoBridgeFraction(3, 1)), 3, "xi")
    for j in range(2):
        with pytest.raises(IndexError, match="names no generator"):
            fox_derivative(FreeWord._trusted(codes), j, rep)
    with pytest.raises(IndexError, match="names no generator"):
        ImageSum.of_word(FreeWord._trusted(codes), rep)


def test_zero_derivative_evaluates_to_zero():
    pres = presentation(TwoBridgeFraction(3, 1))
    rep = dihedral_rep(pres, 3, "xi")
    s = fox_derivative(FreeWord.from_text("yY"), 0, rep)
    assert s.terms == {}
    assert rep_evaluate(s) == fox_oracle.evaluate({}, rep)
    assert s.augmentation().is_zero


def test_dihedral_total_at_alpha_9999_is_fast_and_certified():
    f = TwoBridgeFraction(9999, 4321)
    start = time.perf_counter()
    dihedral_total(f, 3)
    assert time.perf_counter() - start < 2.0
    assert modp_congruence(f, 3)
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

