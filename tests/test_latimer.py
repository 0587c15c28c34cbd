import functools
import os
import random
import subprocess
import sys
from itertools import permutations, product
from math import isqrt

import pytest

from latmac.exactla import (
    IntMatrix, MonicIntPoly, adjugate, charpoly, companion, det_bareiss, discriminant,
)
from latmac.ideal import (
    EQUIVALENT, INEQUIVALENT, ideal_from_generators, is_equivalent,
    stable_sublattices, unit_ideal,
)
from latmac.latimer import (
    are_conjugate, classify, ideal_to_matrix, matrix_to_ideal,
    oracle_count_classes, order_for, xi_eigenvector,
    _conjugation_maps, _group_2x2, _group_3x3, _matrices_with_charpoly_2,
    _matrices_with_charpoly_3, _moves_3,
)

SRC = os.path.join(os.path.dirname(__file__), "..", "src")
ROOT10 = MonicIntPoly((1, 0, -10))
GOLDEN = MonicIntPoly((1, -1, -1))


def random_unimodular(rng, n, steps=5, mag=3):
    while True:
        m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
        for _ in range(steps):
            i, j = rng.sample(range(n), 2)
            e = rng.choice((-1, 1))
            for k in range(n):
                m[i][k] += e * m[j][k]
        if max(abs(x) for r in m for x in r) <= mag:
            return IntMatrix(tuple(tuple(r) for r in m))


def unimodular_inverse(p):
    d = det_bareiss(p.rows)
    adj = adjugate(p)
    if d == 1:
        return adj
    return IntMatrix(tuple(tuple(-x for x in r) for r in adj.rows))


# ---------------------------------------------------------------------------
# matrix_to_ideal
# ---------------------------------------------------------------------------

def test_companion_maps_to_unit_ideal():
    for chi in (ROOT10, GOLDEN, MonicIntPoly((1, 0, -1, -1))):
        o = order_for(chi)
        assert matrix_to_ideal(companion(chi)) == unit_ideal(o)


def test_root10_principal_and_nonprincipal():
    o = order_for(ROOT10)
    a = matrix_to_ideal(IntMatrix(((0, 10), (1, 0))))
    assert is_equivalent(a, unit_ideal(o)).status == EQUIVALENT
    b = matrix_to_ideal(IntMatrix(((0, 2), (5, 0))))
    assert is_equivalent(b, unit_ideal(o)).status == INEQUIVALENT


def test_conjugation_preserves_ideal_class():
    rng = random.Random(83)
    for chi in (ROOT10, GOLDEN):
        m = companion(chi)
        a = matrix_to_ideal(m)
        for _ in range(10):
            p = random_unimodular(rng, 2)
            conj = p * m * unimodular_inverse(p)
            assert is_equivalent(matrix_to_ideal(conj), a).status == EQUIVALENT


# ---------------------------------------------------------------------------
# ideal_to_matrix
# ---------------------------------------------------------------------------

def test_unit_ideal_maps_to_companion():
    for chi in (ROOT10, GOLDEN, MonicIntPoly((1, 0, -1, -1))):
        o = order_for(chi)
        assert ideal_to_matrix(unit_ideal(o)) == companion(chi)


def test_prime_two_example():
    o = order_for(ROOT10)
    p2 = ideal_from_generators([o.element((2, 0)).to_field(), o.xi().to_field()])
    assert ideal_to_matrix(p2).rows == ((0, 2), (5, 0))


def test_ideal_to_matrix_charpoly_on_enumerated_ideals():
    for chi in (ROOT10, GOLDEN, MonicIntPoly((1, 0, -45))):
        o = order_for(chi)
        for a in stable_sublattices(o, 10):
            assert charpoly(ideal_to_matrix(a)) == chi


def test_round_trip_ideal_side():
    for chi in (ROOT10, MonicIntPoly((1, 0, -45))):
        o = order_for(chi)
        for a in stable_sublattices(o, 8):
            back = matrix_to_ideal(ideal_to_matrix(a))
            assert is_equivalent(back, a).status == EQUIVALENT


def test_round_trip_matrix_side():
    rng = random.Random(89)
    for chi in (ROOT10, GOLDEN):
        m0 = companion(chi)
        for _ in range(8):
            p = random_unimodular(rng, 2)
            m = p * m0 * unimodular_inverse(p)
            m_back = ideal_to_matrix(matrix_to_ideal(m))
            verdict = are_conjugate(m, m_back)
            assert verdict.status == EQUIVALENT
            w = verdict.witness
            assert w * m == m_back * w


# ---------------------------------------------------------------------------
# are_conjugate
# ---------------------------------------------------------------------------

def test_self_conjugate_identity_witness():
    m = IntMatrix(((0, 10), (1, 0)))
    v = are_conjugate(m, m)
    assert v.status == EQUIVALENT
    assert v.witness == IntMatrix.identity(2)


def test_constructed_conjugates_yield_verified_witness():
    rng = random.Random(97)
    for chi in (ROOT10, GOLDEN, MonicIntPoly((1, 0, -1, -1))):
        m = companion(chi)
        for _ in range(8):
            p = random_unimodular(rng, chi.degree)
            n = p * m * unimodular_inverse(p)
            v = are_conjugate(m, n)
            assert v.status == EQUIVALENT
            assert abs(det_bareiss(v.witness.rows)) == 1
            assert v.witness * m == n * v.witness


def literal_conjugator_scan(m, n, bound):
    """Exhaustive 2x2 search for P with P M = N P and det(P) = +-1."""
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c not in (1, -1):
            continue
        p = IntMatrix(((a, b), (c, d)))
        if p * m == n * p:
            return p
    return None


def test_inequivalent_pair_confirmed_by_literal_scan():
    m = IntMatrix(((0, 10), (1, 0)))
    n = IntMatrix(((0, 2), (5, 0)))
    assert are_conjugate(m, n).status == INEQUIVALENT
    assert literal_conjugator_scan(m, n, 10) is None


def test_charpoly_mismatch_is_immediately_inequivalent():
    m = IntMatrix(((0, 10), (1, 0)))
    n = IntMatrix(((0, 2), (1, 0)))
    assert are_conjugate(m, n).status == INEQUIVALENT


# ---------------------------------------------------------------------------
# classify and the oracle
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("chi,count", [
    (GOLDEN, 1),
    (ROOT10, 2),
    (MonicIntPoly((1, 3, 1)), 1),
])
def test_classify_counts(chi, count):
    inv = classify(chi)
    assert inv.count == count
    for cls, mat in inv.pairs:
        assert charpoly(mat) == chi
        assert is_equivalent(matrix_to_ideal(mat), cls.canonical).status == EQUIVALENT


@pytest.mark.parametrize("chi,bounds,count", [
    (GOLDEN, (5, 5), 1),
    (ROOT10, (10, 10), 2),
    (MonicIntPoly((1, 3, 1)), (5, 5), 1),
])
def test_oracle_counts_quadratic(chi, bounds, count):
    assert oracle_count_classes(chi, *bounds) == count


def test_unknown_budget_splits_conservatively():
    from latmac.ideal import SearchBudget, class_monoid
    cm = class_monoid(order_for(MonicIntPoly((1, 0, -1, -1))),
                      budget=SearchBudget(coeff_bound=0))
    assert cm.unknown_pairs > 0
    assert cm.size == 2  # unmerged pair, reported as uncertified


def naive_matrices_3(chi, h):
    e1 = -chi.coeffs[1]
    e2 = chi.coeffs[2]
    e3 = -chi.coeffs[3]
    out = set()
    rng_h = range(-h, h + 1)
    for a11, a22, a33 in product(rng_h, repeat=3):
        if a11 + a22 + a33 != e1:
            continue
        for a12, a13, a21, a23, a31, a32 in product(rng_h, repeat=6):
            if (a11 * a22 + a11 * a33 + a22 * a33
                    - a12 * a21 - a13 * a31 - a23 * a32) != e2:
                continue
            det = (a11 * a22 * a33 + a12 * a23 * a31 + a13 * a21 * a32
                   - a13 * a22 * a31 - a11 * a23 * a32 - a12 * a21 * a33)
            if det == e3:
                out.add(((a11, a12, a13), (a21, a22, a23), (a31, a32, a33)))
    return out


def enumerated_rows(chi, h):
    return {(tuple(v[:3]), tuple(v[3:6]), tuple(v[6:]))
            for v in _matrices_with_charpoly_3(chi, h).tolist()}


def test_cubic_enumeration_matches_naive_scan():
    for coeffs in ((1, 0, -1, -1), (1, 1, 3, -1), (1, 1, -2, -1)):
        chi = MonicIntPoly(coeffs)
        assert enumerated_rows(chi, 2) == naive_matrices_3(chi, 2), coeffs


def test_cubic_enumeration_is_sorted_and_unique():
    vecs = _matrices_with_charpoly_3(MonicIntPoly((1, 1, 3, -1)), 2).tolist()
    rows = list(map(tuple, vecs))
    assert rows == sorted(set(rows))


# Plain per-P conjugation over tuple-of-tuple matrices: the reference for the
# table of conjugation maps behind _group_2x2.
@functools.lru_cache(maxsize=None)
def reference_unimodular_2x2(bound):
    return [((a, b), (c, d))
            for a, b, c, d in product(range(-bound, bound + 1), repeat=4)
            if a * d - b * c in (1, -1)]


def reference_conjugate_2x2(p, m):
    (a, b), (c, d) = p
    dp = a * d - b * c
    (x, y), (z, w) = m
    # p * m
    r = ((a * x + b * z, a * y + b * w), (c * x + d * z, c * y + d * w))
    # times p^-1 = adj(p)/dp with adj = ((d, -b), (-c, a))
    (x, y), (z, w) = r
    out = ((x * d - y * c, -x * b + y * a), (z * d - w * c, -z * b + w * a))
    if dp == 1:
        return out
    return ((-out[0][0], -out[0][1]), (-out[1][0], -out[1][1]))


def reference_group_2x2(mats, conj_bound):
    todo = {m.rows for m in mats}
    ps = reference_unimodular_2x2(conj_bound)
    count = 0
    for m in sorted(todo):
        if m not in todo:
            continue
        count += 1
        for p in ps:
            todo.discard(reference_conjugate_2x2(p, m))
        todo.discard(m)
    return count


def apply_map_2x2(t, m):
    (x, y), (z, w) = m
    v = [sum(c * e for c, e in zip(t[4 * i:4 * i + 4], (x, y, z, w)))
         for i in range(4)]
    return (tuple(v[:2]), tuple(v[2:]))


def test_conjugation_maps_match_reference():
    maps = _conjugation_maps(10)
    ps = reference_unimodular_2x2(10)
    assert len(maps) == 1012 == len(ps) // 2
    rng = random.Random(7)
    for _ in range(20):
        m = tuple(tuple(rng.randint(-20, 20) for _ in range(2)) for _ in range(2))
        assert {apply_map_2x2(t, m) for t in maps} == {
            reference_conjugate_2x2(p, m) for p in ps}


IRREDUCIBLE_QUADRATICS = [
    MonicIntPoly((1, b, c)) for b in range(-10, 11) for c in range(-10, 11)
    if b * b - 4 * c < 0 or isqrt(b * b - 4 * c) ** 2 != b * b - 4 * c]


@pytest.mark.parametrize("bounds", [(6, 6), (10, 10)])
def test_group_2x2_matches_reference_loop(bounds):
    h, conj = bounds
    counts = []
    for chi in IRREDUCIBLE_QUADRATICS:
        mats = _matrices_with_charpoly_2(chi, h)
        count = _group_2x2(mats, conj)
        assert count == reference_group_2x2(mats, conj), chi.coeffs
        counts.append(count)
    assert len(counts) == 365 and sum(counts) == {6: 462, 10: 598}[h]


# the imaginary quadratics of the oracle benchmark: 7 <= |disc| <= 60 and
# coefficients at most 10
ORACLE_IMAGINARY = [(1, s, k) for s in (0, 1) for k in range(2, 11)]


@pytest.mark.parametrize("coeffs", ORACLE_IMAGINARY)
def test_oracle_matches_classify_on_imaginary_quadratics(coeffs):
    chi = MonicIntPoly(coeffs)
    assert 7 <= -discriminant(chi) <= 60
    assert oracle_count_classes(chi, 10, 10) == classify(chi).count


# Plain-Python breadth-first grouping over tuple-of-tuple matrices: the
# reference for the vectorized _group_3x3.
_PERMS3 = list(permutations(range(3)))
_SIGNS3 = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]


def reference_neighbors_3(rows, box):
    out = []
    for perm in _PERMS3:
        out.append(tuple(tuple(rows[perm[i]][perm[j]] for j in range(3))
                         for i in range(3)))
    for s in _SIGNS3:
        out.append(tuple(tuple(s[i] * rows[i][j] * s[j] for j in range(3))
                         for i in range(3)))
    for i in range(3):
        for j in range(3):
            if i == j:
                continue
            for e in (1, -1):
                cand = []
                okay = True
                for rr in range(3):
                    row = []
                    for cc in range(3):
                        val = rows[rr][cc]
                        if rr == i:
                            val += e * rows[j][cc]
                        if cc == j:
                            val -= e * rows[rr][i] + (e * e * rows[j][i] if rr == i else 0)
                        row.append(val)
                        if abs(val) > box:
                            okay = False
                    cand.append(tuple(row))
                if okay:
                    out.append(tuple(cand))
    return out


def reference_group_3x3(mats, entry_bound, margin=4):
    box = entry_bound + margin
    remaining = set(mats)
    count = 0
    for seed in sorted(remaining):
        if seed not in remaining:
            continue
        count += 1
        remaining.discard(seed)
        frontier = [seed]
        visited = {seed}
        while frontier and remaining:
            nxt = []
            for rows in frontier:
                for cand in reference_neighbors_3(rows, box):
                    if cand in visited:
                        continue
                    visited.add(cand)
                    remaining.discard(cand)
                    nxt.append(cand)
            frontier = nxt
    return count


def test_move_maps_match_reference_neighbors():
    import numpy as np
    rng = random.Random(5)
    box = 6
    for _ in range(50):
        rows = tuple(tuple(rng.randint(-box, box) for _ in range(3)) for _ in range(3))
        vec = np.array([x for r in rows for x in r], dtype=np.int64)
        moved = set()
        for t in _moves_3():
            v = (vec @ t).tolist()
            if max(map(abs, v)) <= box:
                moved.add((tuple(v[:3]), tuple(v[3:6]), tuple(v[6:])))
        assert moved | {rows} == set(reference_neighbors_3(rows, box)) | {rows}


BENCH_ORACLE_CUBICS = [
    (1, 0, -1, -1), (1, 0, -1, 1), (1, 0, 1, -1), (1, 0, 1, 1), (1, 1, -2, -1),
    (1, 1, -2, 1), (1, 1, -1, 1), (1, 1, 0, -1), (1, 1, 0, 1), (1, 1, 1, -1),
    (1, 1, 2, 1),
]


# X^3+X^2+3X-1 (disc -176) has two components at bound 2
@pytest.mark.parametrize("coeffs", BENCH_ORACLE_CUBICS + [(1, 1, 3, -1)])
def test_group_3x3_matches_reference_bfs(coeffs):
    vecs = _matrices_with_charpoly_3(MonicIntPoly(coeffs), 2)
    mats = {(tuple(v[:3]), tuple(v[3:6]), tuple(v[6:])) for v in vecs.tolist()}
    count = _group_3x3(vecs, 2)
    assert count == reference_group_3x3(mats, 2)
    assert count == (2 if coeffs == (1, 1, 3, -1) else 1)


def test_oracle_imports_nothing_from_ideal_or_order(monkeypatch):
    import latmac.ideal
    import latmac.latimer
    import latmac.order

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the ideal machinery")

    for name, value in list(vars(latmac.latimer).items()):
        if getattr(value, "__module__", None) in (latmac.ideal.__name__,
                                                  latmac.order.__name__):
            monkeypatch.setattr(latmac.latimer, name, forbidden)
    monkeypatch.setattr(latmac.latimer, "order_for", forbidden)
    assert oracle_count_classes(ROOT10, 10, 10) == 2
    assert oracle_count_classes(MonicIntPoly((1, 1, 3, -1)), 2, 2) == 2


def test_quadratic_oracle_does_not_import_numpy():
    code = ("import sys, latmac; "
            "latmac.oracle_count_classes(latmac.MonicIntPoly((1, 0, 5)), 6, 6); "
            "print('numpy' in sys.modules)")
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, env=env, check=True).stdout
    assert out.strip() == "False"


def test_order_for_cache_is_bounded():
    assert order_for.cache_info().maxsize is not None


def test_matrix_to_ideal_rejects_reducible_charpoly():
    from latmac.errors import ReduciblePolynomial
    with pytest.raises(ReduciblePolynomial):
        matrix_to_ideal(IntMatrix(((1, 0), (0, 2))))


def test_explicit_conjugation_certificates_confirmed_by_ideal_route():
    # any pair linked by an explicit unimodular witness must come back
    # equivalent through the ideal machinery: guards against false
    # inequivalence in either quadratic signature
    rng = random.Random(211)
    ps = [((1, 1), (0, 1)), ((1, 0), (1, 1)), ((0, 1), (-1, 0)),
          ((2, 1), (1, 1)), ((3, -2), (1, -1))]
    for chi in (ROOT10, MonicIntPoly((1, -2, 12)), MonicIntPoly((1, -6, -10)),
                MonicIntPoly((1, 0, 11))):
        o = order_for(chi)
        mats = _matrices_with_charpoly_2(chi, 8)
        for _ in range(10):
            m = rng.choice(mats).rows
            n = reference_conjugate_2x2(rng.choice(ps), m)
            res = is_equivalent(matrix_to_ideal(IntMatrix(m), o),
                                matrix_to_ideal(IntMatrix(n), o))
            assert res.status == EQUIVALENT


def test_eigenvector_is_primitive_and_exact():
    from math import gcd
    rng = random.Random(101)
    o = order_for(ROOT10)
    for _ in range(10):
        p = random_unimodular(rng, 2)
        m = p * companion(ROOT10) * unimodular_inverse(p)
        v = xi_eigenvector(o, m)
        g = 0
        for e in v.entries:
            for c in e.coords:
                g = gcd(g, c)
        assert g == 1
