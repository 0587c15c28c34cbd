import math
import random
from fractions import Fraction
from itertools import islice, product

import pytest

from latmac.errors import DegreeCapExceeded, RankDeficient
from latmac.exactla import (
    HNFBasis, IntMatrix, MonicIntPoly, charpoly, companion, det_bareiss,
    det_cofactor, discriminant, factors_mod_p, hnf, is_irreducible,
    kernel_mod_p, kernel_rational, poly_from_string, poly_gcd_rational,
    primes, rank, snf, _poly_divmod_monic,
)


def lattice_points(rows, window, coeff_range=6):
    """Brute-force membership oracle: all integer combinations of the rows
    landing inside the window."""
    n = len(rows[0])
    pts = set()
    for coeffs in product(range(-coeff_range, coeff_range + 1), repeat=len(rows)):
        v = tuple(sum(c * r[i] for c, r in zip(coeffs, rows)) for i in range(n))
        if all(abs(x) <= window for x in v):
            pts.add(v)
    return pts


def random_unimodular(rng, n, steps=6):
    m = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        e = rng.choice((-1, 1))
        for k in range(n):
            m[i][k] += e * m[j][k]
    return IntMatrix(tuple(tuple(r) for r in m))


# ---------------------------------------------------------------------------
# HNF
# ---------------------------------------------------------------------------

def test_hnf_identity():
    assert hnf([(1, 0, 0), (0, 1, 0), (0, 0, 1)]).rows == (
        (1, 0, 0), (0, 1, 0), (0, 0, 1))


def test_hnf_standard_example():
    # oracle: the two generating sets span the same points in a [-4, 4] window
    gens = [(2, 0), (0, 2), (1, 1)]
    basis = hnf(gens)
    assert basis.rows == ((1, 1), (0, 2))
    assert lattice_points(gens, 4) == lattice_points(basis.rows, 4)


def test_hnf_reorders_pivots():
    assert hnf([(0, 10), (1, 0)]).rows == ((1, 0), (0, 10))


def test_hnf_rank_deficient():
    with pytest.raises(RankDeficient):
        hnf([(1, 2), (2, 4)])


def test_hnf_idempotent_and_span_preserving():
    rng = random.Random(7)
    for _ in range(60):
        n = rng.randint(1, 4)
        rows = [tuple(rng.randint(-10, 10) for _ in range(n))
                for _ in range(n + rng.randint(0, 2))]
        try:
            basis = hnf(rows)
        except RankDeficient:
            continue
        assert hnf(basis.rows).rows == basis.rows
        for r in rows:
            assert basis.contains(r)
        again = hnf(list(rows) + list(basis.rows))
        assert again.rows == basis.rows


def test_hnf_shape_validation():
    with pytest.raises(ValueError):
        HNFBasis(((2, 5), (0, 3)))  # 5 not reduced mod 3
    with pytest.raises(ValueError):
        HNFBasis(((-1, 0), (0, 1)))  # negative pivot


# ---------------------------------------------------------------------------
# SNF
# ---------------------------------------------------------------------------

def minor_gcd(rows, k):
    """gcd of all k x k minors: d_1 ... d_k, the independent SNF oracle."""
    from itertools import combinations
    from math import gcd
    n = len(rows)
    g = 0
    for rs in combinations(range(n), k):
        for cs in combinations(range(n), k):
            sub = [[rows[i][j] for j in cs] for i in rs]
            g = gcd(g, det_bareiss(sub))
    return g


def snf_invariants(a):
    res = snf(a)
    assert abs(det_bareiss(res.u.rows)) == 1
    assert abs(det_bareiss(res.v.rows)) == 1
    prod = res.u * a * res.v
    n = a.n
    for i in range(n):
        for j in range(n):
            expected = res.diagonal[i] if i == j else 0
            assert prod.rows[i][j] == expected
    for d1, d2 in zip(res.diagonal, res.diagonal[1:]):
        if d2:
            assert d1 != 0 and d2 % d1 == 0
    return res


def test_snf_identity():
    assert snf(IntMatrix.identity(4)).diagonal == (1, 1, 1, 1)


def test_snf_diag_4_6():
    res = snf_invariants(IntMatrix(((4, 0), (0, 6))))
    assert res.diagonal == (2, 12)
    assert res.diagonal[0] * res.diagonal[1] == abs(det_bareiss(((4, 0), (0, 6))))


def snf_inputs(rng):
    """Random square matrices: full, rank deficient (rows drawn from a
    smaller span), and shaped like cover_genus's relation matrices (two
    nonzero rows padded with zero rows, sizes up to 7)."""
    for _ in range(40):
        n = rng.randint(1, 4)
        yield [[rng.randint(-6, 6) for _ in range(n)] for _ in range(n)]
    for _ in range(30):
        n = rng.randint(2, 5)
        span = [[rng.randint(-4, 4) for _ in range(n)]
                for _ in range(rng.randint(0, n - 1))]
        yield [[sum(rng.randint(-3, 3) * b[j] for b in span) for j in range(n)]
               for _ in range(n)]
    for _ in range(30):
        n = rng.randint(2, 7)
        yield ([[rng.randint(-2, 2) for _ in range(n)] for _ in range(2)]
               + [[0] * n for _ in range(n - 2)])


def test_snf_matches_minor_gcd_oracle():
    rng = random.Random(11)
    for rows in snf_inputs(rng):
        a = IntMatrix(tuple(tuple(r) for r in rows))
        n = a.n
        res = snf_invariants(a)
        acc = 1
        for k in range(1, n + 1):
            g = minor_gcd(a.rows, k)
            prod = 1
            for d in res.diagonal[:k]:
                prod *= d
            assert prod == g or (g == 0 and 0 in res.diagonal[:k])
            acc = g
        assert rank(a) == sum(1 for d in res.diagonal if d)


def test_snf_zero_matrix():
    assert snf(IntMatrix(((0, 0), (0, 0)))).diagonal == (0, 0)


# ---------------------------------------------------------------------------
# charpoly
# ---------------------------------------------------------------------------

def charpoly_cofactor(m):
    """Independent oracle: cofactor determinant of XI - M over Z[X].

    Polynomials are coefficient lists, lowest degree first.
    """
    n = m.n

    def pmul(p, q):
        out = [0] * (len(p) + len(q) - 1)
        for i, a in enumerate(p):
            for j, b in enumerate(q):
                out[i + j] += a * b
        return out

    def padd(p, q):
        out = [0] * max(len(p), len(q))
        for i, a in enumerate(p):
            out[i] += a
        for i, b in enumerate(q):
            out[i] += b
        return out

    def pdet(rows):
        if len(rows) == 1:
            return rows[0][0]
        total = [0]
        for j, entry in enumerate(rows[0]):
            minor = [r[:j] + r[j + 1:] for r in rows[1:]]
            term = pmul(entry, pdet(minor))
            if j % 2:
                term = [-c for c in term]
            total = padd(total, term)
        return total

    rows = [[[ -m.rows[i][j] ] if i != j else [-m.rows[i][j], 1]
             for j in range(n)] for i in range(n)]
    coeffs = pdet(rows)
    coeffs = coeffs + [0] * (n + 1 - len(coeffs))
    return MonicIntPoly(tuple(reversed(coeffs)))


def test_charpoly_examples():
    assert charpoly(IntMatrix(((-3, -1), (1, 0)))) == MonicIntPoly((1, 3, 1))
    assert charpoly(IntMatrix.identity(2)) == MonicIntPoly((1, -2, 1))
    p = MonicIntPoly((1, 0, -1, -1))
    assert charpoly(companion(p)) == p


def test_charpoly_matches_cofactor_oracle():
    rng = random.Random(3)
    for _ in range(40):
        n = rng.randint(1, 4)
        m = IntMatrix(tuple(tuple(rng.randint(-8, 8) for _ in range(n))
                            for _ in range(n)))
        assert charpoly(m) == charpoly_cofactor(m)


def test_charpoly_conjugation_invariant():
    rng = random.Random(5)
    for _ in range(30):
        n = rng.randint(2, 4)
        m = IntMatrix(tuple(tuple(rng.randint(-5, 5) for _ in range(n))
                            for _ in range(n)))
        p = random_unimodular(rng, n)
        dp = det_bareiss(p.rows)
        from latmac.exactla import adjugate
        p_inv = adjugate(p) if dp == 1 else IntMatrix(
            tuple(tuple(-x for x in r) for r in adjugate(p).rows))
        assert charpoly(p * m * p_inv) == charpoly(m)


def test_companion_roundtrip_all_degrees():
    rng = random.Random(9)
    for deg in range(1, 7):
        coeffs = (1,) + tuple(rng.randint(-9, 9) for _ in range(deg))
        p = MonicIntPoly(coeffs)
        assert charpoly(companion(p)) == p


# ---------------------------------------------------------------------------
# irreducibility and discriminant
# ---------------------------------------------------------------------------

def test_is_irreducible_examples():
    assert is_irreducible(MonicIntPoly((1, -1, -1)))
    assert not is_irreducible(MonicIntPoly((1, 0, -1)))
    assert is_irreducible(MonicIntPoly((1, 3, 1)))
    assert is_irreducible(MonicIntPoly((1, 0, -1, -1)))
    assert not is_irreducible(MonicIntPoly((1, 0, 0, 0)))  # X^3
    assert not is_irreducible(MonicIntPoly((1, -2, -1, 2)))  # (X-2)(X-1)(X+1)
    assert is_irreducible(MonicIntPoly((1, 0, 0, 0, 0, 0, -2)))  # X^6 - 2


def test_is_irreducible_quartic_with_quadratic_factors():
    # (X^2 + 1)(X^2 + 2) has no rational roots
    assert not is_irreducible(MonicIntPoly((1, 0, 3, 0, 2)))
    assert is_irreducible(MonicIntPoly((1, 0, 0, 0, 1)))  # X^4 + 1


def test_degree_cap():
    p = MonicIntPoly((1, 0, 0, 0, 0, 0, 0, -2))
    with pytest.raises(DegreeCapExceeded):
        is_irreducible(p)


def test_discriminant_quadratics_hand_formula():
    rng = random.Random(13)
    for _ in range(30):
        b, c = rng.randint(-10, 10), rng.randint(-10, 10)
        assert discriminant(MonicIntPoly((1, b, c))) == b * b - 4 * c
    assert discriminant(MonicIntPoly((1, -1, -1))) == 5
    assert discriminant(MonicIntPoly((1, 0, -10))) == 40
    assert discriminant(MonicIntPoly((1, 3, 1))) == 5


def test_discriminant_zero_iff_repeated_root():
    rng = random.Random(17)
    for _ in range(40):
        deg = rng.randint(2, 4)
        p = MonicIntPoly((1,) + tuple(rng.randint(-4, 4) for _ in range(deg)))
        g = poly_gcd_rational(p.coeffs, p.derivative())
        assert (discriminant(p) == 0) == (len(g) > 1)
    # forced repeated root
    assert discriminant(MonicIntPoly((1, -2, 1))) == 0


# ---------------------------------------------------------------------------
# rank / det / kernel
# ---------------------------------------------------------------------------

def test_det_examples_and_cross_check():
    assert det_bareiss(IntMatrix.identity(5).rows) == 1
    rng = random.Random(21)
    for _ in range(30):
        n = rng.randint(1, 5)
        rows = tuple(tuple(rng.randint(-9, 9) for _ in range(n)) for _ in range(n))
        assert det_bareiss(rows) == det_cofactor([list(r) for r in rows])


def test_kernel_rational():
    a = IntMatrix(((1, 2, 3), (2, 4, 6), (1, 1, 1)))
    basis = kernel_rational(a)
    assert len(basis) == a.n - rank(a)
    for v in basis:
        out = a.mul_vec(v)
        assert all(x == 0 for x in out)
    assert kernel_rational(IntMatrix.identity(3)) == []


def test_poly_from_string():
    assert poly_from_string("1,-1,-1") == MonicIntPoly((1, -1, -1))
    with pytest.raises(ValueError):
        poly_from_string("2,1")


# ---------------------------------------------------------------------------
# arithmetic mod a prime
# ---------------------------------------------------------------------------

def test_prime_stream_against_trial_division():
    # 80,000 integers span three sieve segments of 2^15
    expected = [q for q in range(2, 80000)
                if all(q % r for r in range(2, math.isqrt(q) + 1))]
    assert list(islice(primes(), len(expected))) == expected


def test_kernel_mod_p_counts_every_solution():
    rng = random.Random(83)
    for _ in range(60):
        p = rng.choice((2, 3, 5))
        n = rng.randint(1, 3)
        rows = [[rng.randint(-6, 6) for _ in range(n)]
                for _ in range(rng.randint(1, 3))]
        basis = kernel_mod_p(rows, p)
        for v in basis:
            assert all(sum(a * x for a, x in zip(r, v)) % p == 0 for r in rows)
        solutions = sum(
            1 for v in product(range(p), repeat=n)
            if all(sum(a * x for a, x in zip(r, v)) % p == 0 for r in rows))
        assert solutions == p ** len(basis)


def _divides_mod_p(g, f, p):
    return not any(x % p for x in _poly_divmod_monic(f, g)[1])


def test_factors_mod_p_against_brute_force():
    rng = random.Random(89)
    for _ in range(60):
        p = rng.choice((2, 3, 5, 7))
        n = rng.randint(1, 6)
        f = MonicIntPoly((1, *(rng.randint(-9, 9) for _ in range(n))))
        bound = 130
        got = factors_mod_p(f, p, bound)
        expected = []
        for d in range(1, n + 1):
            if p ** d > bound:
                break
            for tail in product(range(p), repeat=d):
                g = (1, *tail)
                irreducible = not any(
                    _divides_mod_p(h, g, p)
                    for e in range(1, d) for h in
                    ((1, *t) for t in product(range(p), repeat=e)))
                if irreducible and _divides_mod_p(g, f.coeffs, p):
                    expected.append(g)
        assert got == expected


def test_factors_mod_p_respect_the_bound():
    x6_minus_2 = MonicIntPoly((1, 0, 0, 0, 0, 0, -2))
    assert factors_mod_p(x6_minus_2, 3, 9) == [(1, 0, 1)]  # (X^2+1)^3
    assert factors_mod_p(x6_minus_2, 3, 8) == []
    assert factors_mod_p(x6_minus_2, 2, 1222) == [(1, 0)]
    # the 7th cyclotomic polynomial is the product of both cubics mod 2
    phi7 = MonicIntPoly((1, 1, 1, 1, 1, 1, 1))
    assert factors_mod_p(phi7, 2, 8) == [(1, 0, 1, 1), (1, 1, 0, 1)]
    # X^4+1 splits into two quadratics mod 3, and mod 17 has the roots
    # 2, 8, 9 and 15, the factors X + 15, X + 9, X + 8 and X + 2
    x4_plus_1 = MonicIntPoly((1, 0, 0, 0, 1))
    assert factors_mod_p(x4_plus_1, 3, 9) == [(1, 1, 2), (1, 2, 2)]
    assert factors_mod_p(x4_plus_1, 17, 17) == [(1, 2), (1, 8), (1, 9), (1, 15)]
