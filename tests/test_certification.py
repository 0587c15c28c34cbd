"""Certificates are explicit checks: a corrupted witness raises
CertificationError, and the CLI answers the same under python -O, where
asserts are stripped."""

import json
import os
import subprocess
import sys
from fractions import Fraction

import pytest

import latmac.latimer
from latmac.cli import matrix_to_json
from latmac.errors import CertificationError
from latmac.exactla import IntMatrix, MonicIntPoly, companion
from latmac.ideal import (
    EQUIVALENT, EquivalenceResult, is_equivalent, stable_sublattices, unit_ideal,
)
from latmac.latimer import are_conjugate, ideal_to_matrix, order_for, xi_eigenvector
from latmac.order import FieldElement, Order

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
ROOT10 = MonicIntPoly((1, 0, -10))
# a conjugate of companion(X^2 - 10) by [[2, 1], [1, 1]]
ROOT10_CONJ = IntMatrix(((8, -6), (9, -8)))


def test_corrupted_real_witness_raises(monkeypatch):
    o = order_for(ROOT10)
    a, b = (x for x in stable_sublattices(o, 3) if x.norm() == 3)
    assert is_equivalent(a, b).status == EQUIVALENT
    inverse = FieldElement.inverse
    monkeypatch.setattr(FieldElement, "inverse", lambda x: inverse(x) * 2)
    with pytest.raises(CertificationError):
        is_equivalent(a, b)


# 1/2 breaks the integrality of the conjugator, 2 its determinant
@pytest.mark.parametrize("factor", [Fraction(1, 2), 2])
def test_corrupted_conjugacy_witness_raises(monkeypatch, factor):
    m = companion(ROOT10)
    true = latmac.latimer.is_equivalent

    def corrupt(a, b, budget):
        res = true(a, b, budget)
        return EquivalenceResult(res.status, res.witness * factor)

    assert are_conjugate(m, ROOT10_CONJ).status == EQUIVALENT
    monkeypatch.setattr(latmac.latimer, "is_equivalent", corrupt)
    with pytest.raises(CertificationError):
        are_conjugate(m, ROOT10_CONJ)


def test_corrupted_eigenvector_raises(monkeypatch):
    o = order_for(ROOT10)
    monkeypatch.setattr(Order, "xi", Order.one)
    with pytest.raises(CertificationError):
        xi_eigenvector(o, ROOT10_CONJ)


def test_corrupted_matrix_of_xi_raises(monkeypatch):
    o = order_for(ROOT10)
    assert ideal_to_matrix(unit_ideal(o)) == companion(ROOT10)
    monkeypatch.setattr(latmac.latimer, "charpoly", lambda m: MonicIntPoly((1, 0, -11)))
    with pytest.raises(CertificationError):
        ideal_to_matrix(unit_ideal(o))


def test_corrupted_cubic_enumeration_raises(monkeypatch):
    true = latmac.latimer._frame_solutions

    def corrupt(*args):
        lane, x, y = true(*args)
        return lane, x, y + 1

    chi = MonicIntPoly((1, 0, -1, -1))
    assert latmac.latimer.oracle_count_classes(chi, 2, 2) == 1
    monkeypatch.setattr(latmac.latimer, "_frame_solutions", corrupt)
    with pytest.raises(CertificationError):
        latmac.latimer.oracle_count_classes(chi, 2, 2)


def _run(flags, argv):
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run([sys.executable, *flags, "-m", "latmac.cli", *argv],
                          capture_output=True, env=env)
    return proc.returncode, proc.stdout


@pytest.mark.parametrize("argv", [
    ["classify", "--poly", "1,0,-79"],
    ["--format", "json", "conjugate",
     "--mat-a", json.dumps(matrix_to_json(companion(ROOT10))),
     "--mat-b", json.dumps(matrix_to_json(ROOT10_CONJ))],
    ["classify", "--poly", "1,0,71"],
    ["--format", "json", "classify", "--poly", "1,1,3,-1"],
    ["verify-example"],
])
def test_optimized_interpreter_gives_same_answers(argv):
    plain = _run([], argv)
    assert plain[0] == 0 and plain[1]
    assert _run(["-O"], argv) == plain
