"""The integer-factorization contract behind the fallback pairing."""

import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import talex

from conftest import P, Pstep, prod, random_poly
from talex.intfactor import int_poly_factor
from talex.laurent import LaurentPoly


def reassemble(content, factors):
    out = LaurentPoly.const(content)
    for q, m in factors:
        out = out * q ** m
    return out


def test_difference_of_squares():
    content, factors = int_poly_factor(P(1, 0, -1))
    assert reassemble(content, factors) == P(1, 0, -1)
    normalized = sorted(tuple(q.canonical().coeffs) for q, _ in factors)
    # {1 - t, 1 + t} up to sign normalization
    assert normalized == [(1, -1), (1, 1)]


def test_paper_sextics_irreducible():
    # the two irreducible sextic factors of the K(1/9) dihedral total
    a = Pstep(3, 1, -1, 1)
    b = Pstep(3, 1, 1, 1)
    content, factors = int_poly_factor(a * b)
    assert content == 1
    assert sorted(m for _, m in factors) == [1, 1]
    got = sorted(tuple(q.coeffs) for q, _ in factors)
    assert got == sorted([tuple(a.coeffs), tuple(b.coeffs)])


def test_irreducible_quadratic_is_fixed_point():
    content, factors = int_poly_factor(P(1, -1, 1))
    assert content == 1 and len(factors) == 1
    assert factors[0] == (P(1, -1, 1), 1)


def test_product_reproduces_input_random(rng):
    for _ in range(30):
        parts = [random_poly(rng, max_deg=4, max_coef=5, laurent=False) for _ in range(3)]
        p = prod([q for q in parts if not q.is_zero])
        if p.is_zero:
            continue
        shifted = p.shift(-p.min_deg)
        content, factors = int_poly_factor(shifted)
        assert reassemble(content, factors) == shifted


def test_factors_certified_irreducible_by_refactoring():
    _, factors = int_poly_factor(prod([P(1, 0, -1), Pstep(3, 1, -1, 1)]))
    for q, _ in factors:
        _, sub = int_poly_factor(q)
        assert len(sub) == 1 and sub[0][1] == 1


def test_rejects_zero_and_wrong_ring():
    with pytest.raises(ValueError):
        int_poly_factor(LaurentPoly.zero())


def test_import_talex_leaves_sympy_unloaded():
    # sympy is loaded on the first factorization, not by the import
    code = """
import sys, talex
assert "sympy" not in sys.modules
P = talex.LaurentPoly.from_int_coeffs
assert talex.int_poly_factor(P([-1, 0, 1])) == (1, [(P([-1, 1]), 1), (P([1, 1]), 1)])
"""
    path = os.pathsep.join([str(Path(talex.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=path))


def test_lifted_conjecture_report_leaves_sympy_unloaded():
    # 341/405 at p=5 does not split; the Hensel lift pairs it, so the
    # report never reaches the sympy factorization
    code = """
import sys, talex
report = talex.conjecture_report(talex.TwoBridgeFraction(405, 341), 5)
assert not report.split and report.F is not None and report.modp_f
assert "sympy" not in sys.modules
"""
    path = os.pathsep.join([str(Path(talex.__file__).parents[1]), os.environ.get("PYTHONPATH", "")])
    subprocess.run([sys.executable, "-c", code], check=True, env=dict(os.environ, PYTHONPATH=path))
