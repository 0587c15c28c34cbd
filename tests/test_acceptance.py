"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line with its runtime against the stated budget."""

import json
import os
import random
import subprocess
import sys
import time
from fractions import Fraction
from itertools import product

from latmac.exactla import (
    IntMatrix, MonicIntPoly, adjugate, charpoly, det_bareiss, rank,
)
from latmac.ideal import (
    EQUIVALENT, class_monoid, default_bound, is_equivalent,
    stable_sublattices, unit_ideal,
)
from latmac.latimer import (
    classify, ideal_to_matrix, matrix_to_ideal, oracle_count_classes,
    order_for,
)
from latmac.quadratic import is_squarefree, solve_pell4, solve_pell4_scan
from latmac.surface import (
    bound_class_number, bound_max_index, bound_rank, cover_genus,
    genus2_covers, genus3_matrix, intersection_ideal, lifts_as_loop,
    standard_symplectic, transvection,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")


def _criterion(number, label, budget_s, body):
    start = time.perf_counter()
    try:
        body()
    except BaseException:
        elapsed = time.perf_counter() - start
        print(f"FAIL criterion {number:02d} ({label}) [{elapsed:.2f}s]")
        raise
    elapsed = time.perf_counter() - start
    print(f"PASS criterion {number:02d} ({label}) [{elapsed:.2f}s]")
    assert elapsed < budget_s, f"criterion {number} exceeded {budget_s}s budget"


def _random_unimodular(rng, n, steps=5, mag=3):
    while True:
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            e = rng.choice((-1, 1))
            for k in range(n):
                m[i][k] += e * m[j][k]
        if max(abs(x) for r in m for x in r) <= mag:
            return IntMatrix(tuple(tuple(r) for r in m))


def _unimodular_inverse(p):
    d = det_bareiss(p.rows)
    adj = adjugate(p)
    return adj if d == 1 else IntMatrix(tuple(tuple(-x for x in r) for r in adj.rows))


def test_criterion_01_genus3_rank():
    def body():
        m = genus3_matrix()
        assert m.rows[0] == (-2, -2, -1, -3, 4, 0)
        assert rank(m - IntMatrix.identity(6)) == 2

    _criterion(1, "genus-3 example rank(M-I6)=2", 1.0, body)


def test_criterion_02_covers_and_lifts():
    def body():
        _, cover1, cover2, lam, mu = genus2_covers()
        assert cover_genus(cover1) == 3
        assert cover_genus(cover2) == 3
        assert lifts_as_loop(lam, cover1) is True
        assert lifts_as_loop(lam, cover2) is False
        assert lifts_as_loop(mu, cover1) is True
        assert lifts_as_loop(mu, cover2) is True

    _criterion(2, "double covers via Reidemeister-Schreier", 1.0, body)


def test_criterion_03_bound_formulas():
    def body():
        assert bound_max_index(2) == 168
        big = bound_class_number(2)
        import math
        assert big == math.factorial(168) ** 4
        assert len(str(big)) == 1210  # digit count stable across runs
        assert bound_rank(2, 1) == 4

    _criterion(3, "explicit bounds at genus 2", 1.0, body)


def test_criterion_04_bijection_vs_oracle():
    cases = [
        (MonicIntPoly((1, -1, -1)), 1),
        (MonicIntPoly((1, 3, 1)), 1),
        (MonicIntPoly((1, 0, -10)), 2),
        (MonicIntPoly((1, 0, -2)), 1),
        (MonicIntPoly((1, 0, -1, -1)), 1),
    ]

    def body():
        for chi, expected in cases:
            oracle = oracle_count_classes(chi, 10, 10)
            assert oracle == expected, (chi.coeffs, oracle)
            assert classify(chi).count == oracle

    _criterion(4, "class counts match the matrix oracle", 30.0, body)


def test_criterion_05_round_trips():
    def body():
        rng = random.Random(2024)
        orders = [order_for(MonicIntPoly(c))
                  for c in ((1, 0, -10), (1, -1, -1), (1, 0, -45))]
        pools = [stable_sublattices(o, 15) for o in orders]
        for k in range(200):
            o = orders[k % 3]
            a = rng.choice(pools[k % 3])
            back = matrix_to_ideal(ideal_to_matrix(a), o)
            res = is_equivalent(back, a)
            assert res.status == EQUIVALENT
            assert back.scale(res.witness) == a
        for k in range(200):
            o = orders[k % 3]
            m = ideal_to_matrix(rng.choice(pools[k % 3]))
            p = _random_unimodular(rng, 2)
            conj = p * m * _unimodular_inverse(p)
            res = is_equivalent(matrix_to_ideal(conj, o), matrix_to_ideal(m, o))
            assert res.status == EQUIVALENT

    _criterion(5, "400 certified round trips and conjugations", 120.0, body)


def test_criterion_06_pell_minimality():
    def body():
        from math import isqrt
        for d in range(2, 101):
            if not is_squarefree(d) or isqrt(d) ** 2 == d:
                continue
            sol = solve_pell4(d)
            oracle = solve_pell4_scan(d)
            assert (sol.a, sol.b) == (oracle.a, oracle.b)
            assert sol.a * sol.a - d * sol.b * sol.b == 4

    _criterion(6, "Pell minimal solutions vs b-scan oracle", 30.0, body)


def test_criterion_07_quadratic_class_numbers():
    cases = [(5, 1), (10, 2), (65, 2), (79, 3)]

    def body():
        from latmac.quadratic import maximal_order_poly
        for d, expected in cases:
            o = order_for(maximal_order_poly(d))
            b = default_bound(o)
            doubled = class_monoid(o, 2 * b)  # oracle run at doubled bound
            assert doubled.picard_size == expected, (d, doubled.picard_size)
            cm = class_monoid(o, b)
            assert cm.picard_size == doubled.picard_size
            assert cm.size == doubled.size
            assert cm.unknown_pairs == doubled.unknown_pairs == 0

    _criterion(7, "class numbers for d in {5,10,65,79}", 300.0, body)


def test_criterion_08_intersection_ideal_equality():
    def body():
        rng = random.Random(4099)
        from latmac.exactla import is_irreducible
        done = 0
        for n in (2, 3):
            count = 0
            while count < 50:
                m = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                                    for _ in range(n)))
                if not is_irreducible(charpoly(m)):
                    continue
                assert intersection_ideal(m) == matrix_to_ideal(m)
                count += 1
                done += 1
        assert done == 100

    _criterion(8, "intersection ideal equals eigenvector span", 60.0, body)


def test_criterion_09_transvections():
    def body():
        rng = random.Random(77)
        for _ in range(100):
            g = rng.randint(1, 3)
            j = standard_symplectic(g)
            c = [0] * (2 * g)
            while not any(c):
                c = [rng.randint(-4, 4) for _ in range(2 * g)]
            t = transvection(j, c)
            assert det_bareiss(t.rows) == 1
            assert rank(t - IntMatrix.identity(2 * g)) == 1
        for _ in range(20):
            g = rng.randint(1, 2)
            j = standard_symplectic(g)
            cs = []
            while len(cs) < 2:
                c = [rng.randint(-3, 3) for _ in range(2 * g)]
                if any(c):
                    cs.append(c)
            prod = transvection(j, cs[0]) * transvection(j, cs[1])
            assert rank(prod - IntMatrix.identity(2 * g)) <= 2

    _criterion(9, "transvection determinant and rank laws", 10.0, body)


def test_criterion_10_all_small_discriminants():
    def body():
        jobs = []
        for d in range(2, 201):
            if not is_squarefree(d):
                continue
            if d % 4 == 1:
                jobs.append(MonicIntPoly((1, -1, -(d - 1) // 4)))
            elif 4 * d <= 200:
                jobs.append(MonicIntPoly((1, 0, -d)))
        for m in range(1, 201):
            if not is_squarefree(m):
                continue
            if m % 4 == 3:
                jobs.append(MonicIntPoly((1, -1, (m + 1) // 4)))
            elif 4 * m <= 200:
                jobs.append(MonicIntPoly((1, 0, m)))
        assert len(jobs) > 100
        for chi in jobs:
            o = order_for(chi)
            assert abs(o.disc) <= 200
            cm = class_monoid(o)
            assert cm.unknown_pairs == 0
            assert cm.size >= 1
            assert cm.classes[0].canonical == unit_ideal(o)

    _criterion(10, "all maximal quadratic orders |disc| <= 200", 60.0, body)


CLI_MATRIX = [
    ["classify", "--poly", "1,0,-10"],
    ["--format", "json", "classify", "--poly", "1,-1,-1"],
    ["icm", "--poly", "1,0,-45"],
    ["--format", "json", "icm", "--poly", "1,0,4"],
    ["pell", "--d", "61"],
    ["mw", "--count", "3"],
    ["bounds", "--genus", "2"],
    ["bounds", "--genus", "3"],
    ["verify-example"],
    ["cover", "--genus", "2", "--hom", "0,1,1,0"],
    ["cover", "--genus", "3", "--hom", "1,0,0,0,0,0"],
]


def test_criterion_11_cli_determinism():
    def body():
        env = dict(os.environ)
        env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")

        def run_all():
            results = []
            for argv in CLI_MATRIX:
                proc = subprocess.run(
                    [sys.executable, "-m", "latmac.cli", *argv],
                    capture_output=True, env=env)
                results.append((proc.returncode, proc.stdout))
            return results

        first = run_all()
        second = run_all()
        assert first == second
        assert all(code == 0 for code, _ in first)

    _criterion(11, "byte-identical CLI reports across runs", 120.0, body)
