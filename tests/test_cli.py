"""The command-line interface: output formats, exit codes, determinism."""

import json

import pytest

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
    poly = LaurentPoly.from_json(payload["D"])
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
    F = LaurentPoly.from_json(payload["F"])
    D = LaurentPoly.from_json(payload["D"])
    q = LaurentPoly.from_json(payload["q"])
    f = LaurentPoly.from_json(payload["f"])
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


def test_hp_test(capsys):
    code, out, _ = run(capsys, "hp-test", "19/85", "-p", "5", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload == {"hp": "yes", "cf": [5, -2, 10]}


def test_exit_codes(capsys):
    # 1: usage, 2: precondition, 0: success
    assert run(capsys, "nonsense")[0] == 1
    assert run(capsys, "dihedral", "1/5", "-p", "3")[0] == 2
    assert run(capsys, "kmeta", "1/5", "-p", "7", "-k", "-2")[0] == 2
    assert run(capsys, "alexander", "1/3")[0] == 0
    assert run(capsys, "verify", "no-such-suite")[0] == 1


def test_factor_off_hp_exits_zero(capsys):
    # absence of a factorization is a finding, not an error
    code, out, _ = run(
        capsys, "dihedral", "4/9", "-p", "3", "--factor", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["hp"] == "inconclusive"
    assert payload["modp"] is True


def test_verify_identities_deterministic_under_jobs(capsys):
    code1, out1, _ = run(capsys, "verify", "identities", "--jobs", "1")
    code2, out2, _ = run(capsys, "verify", "identities", "--jobs", "4")
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_census_smoke(capsys):
    code, out, _ = run(capsys, "verify", "census", "--seed", "3", "--max-n", "6")
    assert code == 0
    assert "checks passed" in out


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
    monkeypatch.setattr("talex.cli.SUITES", suites)
    code, out, _ = run(capsys, "verify", "boom")
    assert code == 1
    assert "ERROR    crashes: ZeroDivisionError: injected" in out
    assert "PASS     holds" in out
    assert "REPORT" not in out and "FAIL" not in out
