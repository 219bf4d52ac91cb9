"""The command-line interface: output formats, exit codes, determinism."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import talex
from conftest import from_json, swinnerton_dyer
from talex.cli import main
from talex.laurent import LaurentPoly


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_alexander_text(capsys):
    code, out, _ = run(capsys, "alexander", "1/3")
    assert code == 0
    assert out.strip() == "alexander: 1 - 1*t + 1*t^2"


def test_dihedral_json_roundtrip(capsys):
    code, out, _ = run(capsys, "dihedral", "5/27", "-p", "3", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    poly = from_json(payload["D"])
    # re-encoding reproduces the same object
    assert poly.to_json() == payload["D"]
    assert poly == poly.canonical()


def test_dihedral_factor_json_matches_golden(capsys):
    code, out, _ = run(
        capsys, "dihedral", "5/27", "-p", "3", "--factor", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["split"] is True
    assert payload["hp"] == "yes"
    assert payload["modp"] is True
    assert payload["remark53"] is True
    F = from_json(payload["F"])
    D = from_json(payload["D"])
    q = from_json(payload["q"])
    f = from_json(payload["f"])
    assert (F * F.negate_t()).canonical() == D
    # the golden expanded total and its printed factors, up to each
    # factor's t -> -t swap
    def P(*c):
        return LaurentPoly.from_int_coeffs(c)

    want_D = (P(1, 0, -1) * P(1, 1, -1, 1, 1) * P(1, -1, -1, -1, 1)).canonical()
    assert D == want_D
    assert q.canonical() == P(1, 1).canonical() or q.negate_t().canonical() == P(1, 1).canonical()
    wf = P(1, 1, -1, 1, 1).canonical()
    assert f.canonical() == wf or f.negate_t().canonical() == wf


def test_metacyclic_max(capsys):
    code, out, _ = run(capsys, "metacyclic", "1/3", "-p", "3", "-q", "4")
    assert code == 0
    code, out, _ = run(
        capsys, "metacyclic", "1/3", "-p", "3", "-q", "4", "--rep", "max"
    )
    assert code == 0
    assert out.strip() == "D: 1 - 1*t^24"


def test_kmeta_preset(capsys):
    code, out, _ = run(
        capsys, "kmeta", "--preset", "8_5", "-p", "7", "-k", "-2", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["conjecture_a"] is True
    assert payload["period"] == 6


@pytest.mark.parametrize(
    "argv",
    [
        ["kmeta", "5/9", "--preset", "8_5", "-p", "7", "-k", "-2"],
        ["kmeta", "-p", "7", "-k", "-2"],
    ],
)
def test_kmeta_takes_exactly_one_knot(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == "error: kmeta takes one knot: a fraction or --preset\n"


def test_hp_test(capsys):
    code, out, _ = run(capsys, "hp-test", "19/85", "-p", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"hp": "yes", "cf": [5, -2, 10]}


def test_hp_test_no_expansion(capsys):
    code, out, _ = run(capsys, "hp-test", "4/9", "-p", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"hp": "no", "cf": None}


@pytest.mark.parametrize(
    "argv",
    [
        ["dihedral", "1/9", "-p", "9"],
        ["binary-dihedral", "1/9", "-p", "9"],
        ["hp-test", "1/3", "-p", "4"],
        ["hp-test", "1/9", "-p", "9"],
        ["metacyclic", "1/3", "-p", "3", "-q", "3", "--rep", "max"],
        ["metacyclic", "1/9", "-p", "3", "-q", "0"],
        ["kmeta", "1/9", "-p", "9", "-k", "2"],
    ],
)
def test_invalid_p_or_q_is_a_precondition_error(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert err.startswith("error:")
    assert "Traceback" not in out + err


def test_exit_codes(capsys):
    # 1: usage, 2: precondition, 0: success
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "dihedral", "1/5", "-p", "3")[0] == 2
    assert run(capsys, "kmeta", "1/5", "-p", "7", "-k", "-2")[0] == 2
    assert run(capsys, "alexander", "1/3")[0] == 0
    assert run(capsys, "verify", "no-such-suite")[0] == 1


def test_a_forged_construction_certificate_exits_3(capsys, monkeypatch):
    # V_n is certified once, when it is built: a forged Catalan table
    # fails that certificate inside --factor, which exits 3 with no
    # traceback, as the F(t)F(-t) certificate and the cross-checks do
    import talex.factorization
    from talex import representations

    d_kl = representations.d_kl
    monkeypatch.setattr(representations, "d_kl", lambda n, k, ell: d_kl(n, k, ell) + 1)
    monkeypatch.setattr(talex.factorization, "v_matrix", representations.v_matrix.__wrapped__)
    code, out, err = run(capsys, "dihedral", "19/85", "-p", "5", "--factor")
    assert code == 3
    assert err.startswith("certificate failure: V_2^2 != 4E + C")
    assert out == ""


def test_a_plain_value_error_is_not_reported_as_a_precondition_error(
    capsys, monkeypatch
):
    # only PreconditionError means an invalid input: any other ValueError
    # is a fault and surfaces, instead of exiting 2 like a bad input
    def broken(*args, **kw):
        raise ValueError("injected")

    monkeypatch.setattr("talex.cli.kmeta_total", broken)
    with pytest.raises(ValueError, match="injected"):
        main(["kmeta", "1/3", "-p", "3", "-k", "2"])
    assert "error:" not in capsys.readouterr().err


@pytest.mark.parametrize(
    "cap, argv, code",
    [
        ("10", ["alexander", "1/3"], 0),
        ("10", ["dihedral", "19/85", "-p", "5"], 2),
        ("10", ["verify", "paper"], 2),
        ("abc", ["dihedral", "19/85", "-p", "5"], 2),
        ("-5", ["dihedral", "19/85", "-p", "5"], 2),
        ("abc", ["alexander", "1/3"], 2),
    ],
)
def test_the_cli_runs_under_a_small_or_malformed_degree_cap(cap, argv, code):
    # a fresh interpreter, so that the cap is in force while talex.cli
    # and its imports load
    src = str(Path(talex.__file__).parents[1])
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path, TALEX_MAX_DEGREE=cap)
    run = subprocess.run(
        [sys.executable, "-m", "talex.cli", *argv],
        env=env,
        capture_output=True,
        text=True,
    )
    assert run.returncode == code, run.stderr
    assert "Traceback" not in run.stderr
    if code:
        assert run.stderr.startswith("error:")
        assert "TALEX_MAX_DEGREE" in run.stderr
    else:
        assert run.stdout.strip() == "alexander: 1 - 1*t + 1*t^2"


def test_factorization_above_the_cap_is_a_precondition_error(capsys, monkeypatch):
    # a total whose recombination would exceed the cap (S5: 16 or more
    # factors mod every prime) is refused with exit code 2, not a traceback
    import talex.factorization

    s5 = swinnerton_dyer([2, 3, 5, 7, 11])
    monkeypatch.setattr(talex.factorization, "gamma_total", lambda pres, rep: s5)
    code, _, err = run(capsys, "dihedral", "2/7", "-p", "7", "--factor")
    assert code == 2
    assert "recombination cap" in err


def test_factor_off_hp_exits_zero(capsys):
    # absence of a factorization is a finding, not an error
    code, out, _ = run(
        capsys, "dihedral", "4/9", "-p", "3", "--factor", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == "no"
    assert payload["modp"] is True


def test_verify_census_smoke(capsys):
    code, out, _ = run(capsys, "verify", "census", "--seed", "3", "--max-n", "6")
    assert code == 0
    assert "checks passed" in out


def test_verify_census_fails_a_knot_with_an_expansion_that_does_not_split(
    capsys, monkeypatch
):
    # at the default seed, 5/33 at p=3 has an H(3) expansion, so the
    # paper's theorem makes its factorization item a hard check; 53/57
    # at p=3 has none and stays a finding
    from talex import verify
    from talex.factorization import NotSplit

    def two_samples(**kw):
        keep = (" for 5/33 p=3", " for 53/57 p=3")
        return [i for i in verify.census_suite() if i.name.endswith(keep)]

    def not_split(*args, **kw):
        raise NotSplit("injected")

    monkeypatch.setattr("talex.verify.SUITES", dict(verify.SUITES, census=two_samples))
    monkeypatch.setattr("talex.factorization._extract_gh", not_split)
    code, out, _ = run(capsys, "verify", "census")
    assert code == 1
    assert "FAIL     factorization finding for 5/33 p=3" in out
    assert "REPORT+  factorization finding for 53/57 p=3" in out


def census_knots(capsys, *argv):
    code, out, _ = run(capsys, "verify", "census", "--max-n", "2", *argv)
    assert code == 0
    return [line.split(" for ")[1] for line in out.splitlines() if " for " in line]


def test_verify_census_seed_zero_is_a_seed(capsys):
    assert census_knots(capsys, "--seed", "0") != census_knots(capsys, "--seed", "7")
    assert census_knots(capsys) == census_knots(capsys, "--seed", "7")


def test_verify_census_max_n_zero_runs_no_sample(capsys):
    code, out, _ = run(capsys, "verify", "census", "--max-n", "0")
    assert code == 0
    assert out.strip() == "0/0 checks passed (0 advisory findings reported)"


def raising_suite(advisory):
    from talex.verify import Item

    def boom():
        raise ZeroDivisionError("injected")

    return [Item("holds", lambda: True), Item("crashes", boom, advisory=advisory)]


@pytest.mark.parametrize("advisory", [False, True])
def test_run_suite_records_a_crash_as_an_error(advisory):
    from talex.verify import ItemError, run_suite

    results, all_ok = run_suite(raising_suite(advisory))
    assert not all_ok
    (_, first, _), (name, outcome, adv) = results
    assert first is True
    assert (name, adv) == ("crashes", advisory)
    assert not outcome
    assert outcome == ItemError("ZeroDivisionError", "injected")


@pytest.mark.parametrize("advisory", [False, True])
def test_verify_prints_error_and_exits_nonzero(capsys, monkeypatch, advisory):
    from talex import verify

    suites = dict(verify.SUITES, boom=lambda **kw: raising_suite(advisory))
    monkeypatch.setattr("talex.verify.SUITES", suites)
    code, out, _ = run(capsys, "verify", "boom")
    assert code == 1
    assert "ERROR    crashes: ZeroDivisionError: injected" in out
    assert "PASS     holds" in out
    assert "REPORT" not in out and "FAIL" not in out
