"""Property tests for the exact core: the adjugate eigenvector against a
reference Gauss-Jordan solve over K, the charpoly guard, the HNF triangular
solve and idempotence, field inversion, the one Bareiss elimination against
cofactor and Fraction Gauss-Jordan references, real root isolation against
the former largest-root bisection, the discriminant as a norm against the
Sylvester resultant, the stable-sublattice descent against a brute-force HNF
scan, and the colon and product laws of ideals."""

from fractions import Fraction
from itertools import product
from math import gcd

import pytest
from hypothesis import assume, given, settings, strategies as st

from latmac.errors import RankDeficient, ReduciblePolynomial
from latmac.exactla import (
    HNFBasis, IntMatrix, MonicIntPoly, _poly_divmod_monic, adjugate,
    det_bareiss, det_cofactor, discriminant, hnf, is_irreducible,
    kernel_rational, rank, real_roots,
)
from latmac.ideal import colon, mul_ideals, stable_sublattices
from latmac.latimer import ideal_to_matrix, xi_eigenvector
from latmac.order import FieldElement, Order

PROPERTY = settings(derandomize=True, deadline=None, max_examples=60)

# irreducible polynomials that are not Eisenstein, degrees 2-4
FIXED = [
    (1, -1, -1), (1, 0, 5), (1, 1, 3), (1, 0, -10), (1, 0, -1, -1),
    (1, 0, -2, -5), (1, 1, 3, -1), (1, 1, -2, -1), (1, 0, 0, -2),
    (1, 0, 0, -1, -1), (1, 1, 1, 1, 1), (1, 0, -1, 0, -1),
]


@st.composite
def eisenstein(draw, degrees):
    """Monic p-Eisenstein polynomials, hence irreducible, for p in (2, 3)."""
    n = draw(st.sampled_from(degrees))
    p = draw(st.sampled_from((2, 3)))
    mid = draw(st.lists(st.integers(-2, 2), min_size=n - 1, max_size=n - 1))
    unit = draw(st.integers(-3, 3).filter(lambda u: u % p))
    return Order(MonicIntPoly((1, *(p * a for a in mid), p * unit)), check=False)


def orders(degrees):
    fixed = [Order(MonicIntPoly(c), check=False)
             for c in FIXED if len(c) - 1 in degrees]
    return st.one_of(st.sampled_from(fixed), eisenstein(degrees))


@st.composite
def conjugated_ideal_matrix(draw):
    """(order, U M U^-1) for M the matrix of xi on a small stable lattice."""
    o = draw(orders((2, 3, 4)))
    n = o.n
    ideals = stable_sublattices(o, {2: 12, 3: 6, 4: 3}[n])
    rows = [list(r) for r in ideal_to_matrix(draw(st.sampled_from(ideals))).rows]
    moves = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                      st.sampled_from((-2, -1, 1, 2)))
    for i, j, c in draw(st.lists(moves, max_size=6)):
        if i == j:
            continue
        # conjugate by E = I + c e_ij: row i += c row j, then col j -= c col i
        rows[i] = [x + c * y for x, y in zip(rows[i], rows[j])]
        for r in rows:
            r[j] -= c * r[i]
    return o, IntMatrix(tuple(tuple(r) for r in rows))


def _reference_inverse(x):
    """Extended Euclid of x against chi over Q, coefficients low first."""
    n = x.order.n
    r0 = [Fraction(c) for c in reversed(x.order.chi.coeffs)]
    r1 = list(x.coords) + [Fraction(0)]
    s0, s1 = [Fraction(0)], [Fraction(1)]

    def deg(p):
        return max((i for i, c in enumerate(p) if c), default=-1)

    while deg(r1) > 0:
        d0, d1 = deg(r0), deg(r1)
        quot = [Fraction(0)] * (d0 - d1 + 1)
        rem = list(r0)
        for k in range(d0 - d1, -1, -1):
            c = rem[d1 + k] / r1[d1]
            quot[k] = c
            for i in range(d1 + 1):
                rem[i + k] -= c * r1[i]
        news = s0 + [Fraction(0)] * (len(quot) + len(s1))
        for i, a in enumerate(quot):
            for j, b in enumerate(s1):
                news[i + j] -= a * b
        r0, r1, s0, s1 = r1, rem, s1, news
    c = r1[0]
    inv = [a / c for a in s1] + [Fraction(0)] * n
    return FieldElement(x.order, tuple(inv[:n]))


def _reference_eigenvector(o, m):
    """Gauss-Jordan on M - xi I over K, then entry 0 scaled to 1, denominators
    cleared and the content divided out."""
    n = o.n
    zero = (Fraction(0),) * n

    def const(c):
        return FieldElement(o, (Fraction(c),) + zero[1:])

    xi = FieldElement(o, tuple(Fraction(int(k == 1)) for k in range(n)))
    rows = [[const(m.rows[i][j]) - (xi if i == j else const(0))
             for j in range(n)] for i in range(n)]
    pivots = {}
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = _reference_inverse(rows[r][col])
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ReduciblePolynomial("eigenspace dimension is not 1")
    vec = [const(0) for _ in range(n)]
    vec[free[0]] = const(1)
    for col, prow in pivots.items():
        vec[col] = -rows[prow][free[0]]
    inv0 = _reference_inverse(vec[0])
    vec = [e * inv0 for e in vec]
    den = 1
    for e in vec:
        for c in e.coords:
            den = den * c.denominator // gcd(den, c.denominator)
    ints = [[int(c * den) for c in e.coords] for e in vec]
    g = 0
    for row in ints:
        for x in row:
            g = gcd(g, x)
    return tuple(tuple(x // g for x in row) for row in ints)


@PROPERTY
@given(conjugated_ideal_matrix())
def test_adjugate_eigenvector_matches_gauss_jordan(case):
    o, m = case
    v = xi_eigenvector(o, m)
    assert tuple(e.coords for e in v.entries) == _reference_eigenvector(o, m)


@PROPERTY
@given(conjugated_ideal_matrix(), st.integers(0, 3), st.sampled_from((-2, -1, 1, 2)))
def test_wrong_charpoly_raises_reducible(case, pos, shift):
    """Shifting a diagonal entry by s changes the charpoly by -s times a monic
    principal minor, so xi is no eigenvalue of the shifted matrix."""
    o, m = case
    i = pos % o.n
    rows = [list(r) for r in m.rows]
    rows[i][i] += shift
    bad = IntMatrix(tuple(tuple(r) for r in rows))
    with pytest.raises(ReduciblePolynomial):
        _reference_eigenvector(o, bad)
    with pytest.raises(ReduciblePolynomial):
        xi_eigenvector(o, bad)


@st.composite
def lattices(draw):
    n = draw(st.integers(1, 4))
    gens = draw(st.lists(st.lists(st.integers(-6, 6), min_size=n, max_size=n),
                         min_size=n, max_size=n + 2))
    try:
        return hnf(gens)
    except RankDeficient:
        assume(False)


@PROPERTY
@given(lattices(), st.data())
def test_hnf_coordinates_round_trip(basis, data):
    n = basis.n
    coeffs = data.draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    v = [sum(c * r[k] for c, r in zip(coeffs, basis.rows)) for k in range(n)]
    assert basis.coordinates(v) == tuple(coeffs)
    assert basis.contains(v)
    # off the lattice: w is in it iff w . adj(B) is divisible by det(B)
    w = data.draw(st.lists(st.integers(-20, 20), min_size=n, max_size=n))
    adj = adjugate(IntMatrix(basis.rows))
    d = det_bareiss(basis.rows)
    member = all(sum(w[k] * adj.rows[k][j] for k in range(n)) % d == 0
                 for j in range(n))
    coords = basis.coordinates(w)
    assert (coords is not None) == member == basis.contains(w)
    if coords is not None:
        assert [sum(c * r[k] for c, r in zip(coords, basis.rows))
                for k in range(n)] == w


@PROPERTY
@given(orders((2, 3, 4, 5, 6)), st.data())
def test_inverse_times_self_is_one(o, data):
    n = o.n
    coords = data.draw(st.lists(
        st.fractions(min_value=-20, max_value=20, max_denominator=12),
        min_size=n, max_size=n))
    x = FieldElement(o, tuple(coords))
    assume(not x.is_zero())
    inv = x.inverse()
    assert x * inv == FieldElement(o, (1,) + (0,) * (n - 1))
    assert inv == _reference_inverse(x)


@PROPERTY
@given(lattices())
def test_hnf_is_idempotent(basis):
    assert hnf(basis.rows) == basis


# References for the elimination: the cofactor adjugate and the Fraction
# Gauss-Jordan kernel it replaced.

def _reference_adjugate(rows):
    n = len(rows)
    if n == 1:
        return ((1,),)
    cof = [[(-1) ** (i + j) * det_cofactor(
        [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i])
        for j in range(n)] for i in range(n)]
    return tuple(zip(*cof))


def _reference_kernel(rows):
    n = len(rows)
    m = [[Fraction(x) for x in row] for row in rows]
    pivots = {}
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if m[i][col]), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        inv = 1 / m[r][col]
        m[r] = [x * inv for x in m[r]]
        for i in range(n):
            if i != r and m[i][col]:
                f = m[i][col]
                m[i] = [x - f * y for x, y in zip(m[i], m[r])]
        pivots[col] = r
        r += 1
    basis = []
    for fc in (c for c in range(n) if c not in pivots):
        vec = [Fraction(0)] * n
        vec[fc] = Fraction(1)
        for col, prow in pivots.items():
            vec[col] = -m[prow][fc]
        basis.append(tuple(vec))
    return basis


@st.composite
def square_matrices(draw):
    """Integer matrices of size 1-6; a third are products n x r times r x n
    with r < n, so rank-deficient."""
    n = draw(st.integers(1, 6))
    entries = st.integers(-9, 9)
    if n > 1 and draw(st.integers(0, 2)) == 0:
        r = draw(st.integers(0, n - 1))
        left = draw(st.lists(st.lists(entries, min_size=r, max_size=r),
                             min_size=n, max_size=n))
        right = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                              min_size=r, max_size=r))
        rows = [[sum(x * y for x, y in zip(row, col)) for col in zip(*right)]
                if r else [0] * n for row in left]
    else:
        rows = draw(st.lists(st.lists(entries, min_size=n, max_size=n),
                             min_size=n, max_size=n))
    return IntMatrix(tuple(tuple(r) for r in rows))


@PROPERTY
@given(square_matrices())
def test_elimination_matches_references(m):
    rows = [list(r) for r in m.rows]
    d = det_bareiss(m.rows)
    kernel = kernel_rational(m)
    assert d == det_cofactor(rows)
    assert kernel == _reference_kernel(rows)
    assert rank(m) == m.n - len(kernel)
    assert (d == 0) == bool(kernel)
    if d:
        assert adjugate(m).rows == _reference_adjugate(rows)
    else:
        with pytest.raises(ZeroDivisionError):
            adjugate(m)


# Reference for real_roots: the largest-root bisection it replaced.

def _reference_sturm_chain(p):
    chain = [[Fraction(c) for c in p.coeffs]]
    chain.append([Fraction(c) for c in p.derivative()])
    while True:
        a, b = chain[-2], chain[-1]
        _, rem = _poly_divmod_monic(a, [c / b[0] for c in b])
        while rem and rem[0] == 0:
            rem.pop(0)
        if not rem:
            break
        chain.append([-c for c in rem])
    return chain


def _reference_variations(chain, x):
    signs = []
    for poly in chain:
        acc = Fraction(0)
        for c in poly:
            acc = acc * x + c
        if acc:
            signs.append(1 if acc > 0 else -1)
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def _reference_largest_real_root(p, width):
    chain = _reference_sturm_chain(p)
    bound = 1 + max(abs(c) for c in p.coeffs)
    lo, hi = Fraction(-bound), Fraction(bound)
    if _reference_variations(chain, lo) - _reference_variations(chain, hi) < 1:
        return None
    while hi - lo > width:
        mid = (lo + hi) / 2
        if _reference_variations(chain, mid) - _reference_variations(chain, hi) >= 1:
            lo = mid
        else:
            hi = mid
        if _reference_variations(chain, lo) - _reference_variations(chain, hi) == 1 \
                and p(lo) != 0 and p(lo) * p(hi) < 0:
            break
    while hi - lo > width:
        mid = (lo + hi) / 2
        v = p(mid)
        if v == 0:
            return mid, mid
        if p(lo) * v < 0:
            hi = mid
        else:
            lo = mid
    return lo, hi


def sylvester_discriminant(p: MonicIntPoly) -> int:
    """Reference: (-1)^(n(n-1)/2) res(p, p'), the resultant as the
    determinant of the (2n-1)x(2n-1) Sylvester matrix."""
    n, dp = p.degree, p.derivative()
    if n == 1:
        return 1
    rows = [[0] * i + list(p.coeffs) + [0] * (n - 2 - i) for i in range(n - 1)]
    rows += [[0] * i + list(dp) + [0] * (n - 1 - i) for i in range(n)]
    return (-1) ** (n * (n - 1) // 2) * det_bareiss(rows)


@PROPERTY
@given(st.integers(1, 7).flatmap(lambda n: st.lists(
    st.integers(-6, 6), min_size=n, max_size=n)), st.integers(-3, 3))
def test_discriminant_matches_sylvester_resultant(tail, root):
    p = MonicIntPoly((1, *tail))
    assert discriminant(p) == sylvester_discriminant(p)
    # (X - root)^2 p has a repeated root
    x2p, xp, p1 = (*p.coeffs, 0, 0), (0, *p.coeffs, 0), (0, 0, *p.coeffs)
    sq = MonicIntPoly(tuple(a - 2 * root * b + root * root * c
                            for a, b, c in zip(x2p, xp, p1)))
    assert discriminant(sq) == sylvester_discriminant(sq) == 0


@st.composite
def squarefree_polys(draw):
    """Monic integer polynomials of degree 1-5 without multiple roots."""
    n = draw(st.integers(1, 5))
    tail = draw(st.lists(st.integers(-9, 9), min_size=n, max_size=n))
    p = MonicIntPoly((1, *tail))
    assume(discriminant(p) != 0)
    return p


@PROPERTY
@given(squarefree_polys(), st.sampled_from((Fraction(1, 10 ** 8), Fraction(1, 7))))
def test_real_roots_isolate_every_root(p, width):
    roots = real_roots(p, width)
    chain = _reference_sturm_chain(p)

    def count(lo, hi):
        return _reference_variations(chain, lo) - _reference_variations(chain, hi)

    bound = 1 + max(abs(c) for c in p.coeffs)
    assert len(roots) == count(Fraction(-bound), Fraction(bound))
    for (_, hi), (lo2, hi2) in zip(roots, roots[1:]):
        assert hi < lo2 or hi == lo2 < hi2  # (lo, hi] sets, (x, x) = {x}
    for lo, hi in roots:
        assert 0 <= hi - lo <= width
        assert p(lo) == 0 if lo == hi else count(lo, hi) == 1
    assert (roots[-1] if roots else None) == _reference_largest_real_root(p, width)


def test_real_roots_at_multiple_roots():
    # X^2 (X - 1): every Sturm term vanishes at the double root 0, which the
    # former largest-root bisection reported instead of the root 1
    assert real_roots(MonicIntPoly((1, -1, 0, 0)), Fraction(1, 4)) == [
        (Fraction(-1, 4), Fraction(0)), (Fraction(3, 4), Fraction(1))]
    # (X^2 - 2)^2: two double roots, with no sign change at either
    roots = real_roots(MonicIntPoly((1, 0, -4, 0, 4)))
    assert [round(float(hi), 6) for _, hi in roots] == [-1.414214, 1.414214]
    assert real_roots(MonicIntPoly((1, 0, 1))) == []


# ---------------------------------------------------------------------------
# stable sublattices: descent against the HNF scan
# ---------------------------------------------------------------------------

def _divisor_chains(m, k):
    """All k-tuples of positive integers with product m."""
    if k == 1:
        yield (m,)
        return
    for d in range(1, m + 1):
        if m % d == 0:
            for rest in _divisor_chains(m // d, k - 1):
                yield (d,) + rest


def hnf_scan(order, max_index):
    """HNF rows of every xi-stable sublattice of index <= max_index, by
    scanning every HNF matrix: diagonal divisor chains times reduced
    off-diagonal entries, filtered by stability of each basis row."""
    n = order.n
    found = []
    for m in range(1, max_index + 1):
        for diag in _divisor_chains(m, n):
            ranges = [range(diag[j]) for i in range(n) for j in range(i + 1, n)]
            for offs in product(*ranges):
                rows = [[0] * n for _ in range(n)]
                k = 0
                for i in range(n):
                    rows[i][i] = diag[i]
                    for j in range(i + 1, n):
                        rows[i][j] = offs[k]
                        k += 1
                basis = HNFBasis(tuple(tuple(r) for r in rows))
                if all(basis.contains(order.xi_times(r)) for r in basis.rows):
                    found.append(basis.rows)
    return found


@st.composite
def small_irreducible(draw, degrees):
    n = draw(st.sampled_from(degrees))
    tail = draw(st.lists(st.integers(-5, 5), min_size=n, max_size=n))
    chi = MonicIntPoly((1, *tail))
    assume(is_irreducible(chi))
    return Order(chi, check=False)


@PROPERTY
@given(st.one_of(orders((2, 3, 4)), small_irreducible((2, 3, 4))))
def test_descent_matches_hnf_scan(o):
    bound = {2: 30, 3: 12, 4: 8}[o.n]
    descent = [a.lattice.rows for a in stable_sublattices(o, bound)]
    scan = hnf_scan(o, bound)
    assert descent == sorted(scan, key=lambda rows: (
        HNFBasis(rows).determinant(), rows))


# ---------------------------------------------------------------------------
# colon and mul_ideals: the laws of (a : b) and a b
# ---------------------------------------------------------------------------

def _subset(a, b):
    """Every basis element of the ideal a lies in the ideal b."""
    return all(b.contains(x) for x in a.basis_elements())


@st.composite
def ideal_pairs(draw):
    """Two stable lattices of a small quadratic or cubic order, the second
    scaled by a random nonzero field element so that it may be fractional."""
    o = draw(orders((2, 3)))
    ideals = stable_sublattices(o, {2: 12, 3: 6}[o.n])
    a, b = draw(st.sampled_from(ideals)), draw(st.sampled_from(ideals))
    nums = draw(st.lists(st.integers(-3, 3), min_size=o.n, max_size=o.n))
    assume(any(nums))
    den = draw(st.integers(1, 4))
    return a, b.scale(FieldElement(o, tuple(Fraction(x, den) for x in nums)))


@PROPERTY
@given(ideal_pairs())
def test_colon_and_product_laws(pair):
    a, b = pair
    assert _subset(mul_ideals(colon(a, b), b), a)
    assert _subset(a, colon(mul_ideals(a, b), b))
    for c in (a, b):
        assert c.ring == colon(c, c)
        assert c.ring.contains(c.order.one().to_field())
