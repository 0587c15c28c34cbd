"""Matrix <-> ideal correspondence: conjugacy classes of integer matrices with
a fixed irreducible characteristic polynomial against ideal classes of Z[xi].

matrix_to_ideal sends M to the Z-span of the entries of an integral
xi-eigenvector; ideal_to_matrix writes multiplication by xi on an ideal
basis.  are_conjugate decides conjugacy through ideal equivalence and
reconstructs a verified unimodular witness.  oracle_count_classes is the
independent brute-force check: it never touches the ideal machinery.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import permutations, product
from math import gcd

from .errors import BudgetExceeded, CertificationError, ReduciblePolynomial
from .exactla import IntMatrix, MonicIntPoly, adjugate, charpoly, det_bareiss
from .ideal import (
    DEFAULT_BUDGET, EQUIVALENT, INEQUIVALENT, ClassMonoid, FracIdeal,
    IdealClass, SearchBudget, class_monoid, is_equivalent, make_ideal,
)
from .order import FieldElement, Order, OrderElement


@lru_cache(maxsize=None)
def order_for(chi: MonicIntPoly, degree_cap: int | None = None) -> Order:
    """Cached order construction (irreducibility is checked once)."""
    return Order(chi, degree_cap=degree_cap)


@dataclass(frozen=True)
class Eigenvector:
    """Primitive integral eigenvector v with M v = xi v, entries in Z[xi]."""

    order: Order
    entries: tuple[OrderElement, ...]


@dataclass(frozen=True)
class ConjugacyVerdict:
    status: str
    witness: IntMatrix | None = None

    @property
    def is_equivalent(self) -> bool:
        return self.status == EQUIVALENT


@dataclass(frozen=True)
class ClassInventory:
    chi: MonicIntPoly
    pairs: tuple[tuple[IdealClass, IntMatrix], ...]
    monoid: ClassMonoid
    oracle_count: int | None = None

    @property
    def count(self) -> int:
        return len(self.pairs)


def xi_eigenvector(order: Order, m: IntMatrix) -> Eigenvector:
    """Solve (M - xi I) v = 0 over K and scale to a primitive integral vector."""
    n = order.n
    if m.n != n:
        raise ValueError("matrix size does not match the order degree")
    zero = Fraction(0)
    xi = tuple(Fraction(1) if i == 1 else zero for i in range(n))

    def fe(c):
        return FieldElement(order, c)

    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            coords = [Fraction(m.rows[i][j]) if k == 0 else zero for k in range(n)]
            if i == j:
                coords = [c - x for c, x in zip(coords, xi)]
            row.append(fe(tuple(coords)))
        rows.append(row)

    pivots = {}
    r = 0
    for col in range(n):
        piv = next((i for i in range(r, n) if not rows[i][col].is_zero()), None)
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        inv = rows[r][col].inverse()
        rows[r] = [x * inv for x in rows[r]]
        for i in range(n):
            if i != r and not rows[i][col].is_zero():
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots[col] = r
        r += 1
    free = [c for c in range(n) if c not in pivots]
    if len(free) != 1:
        raise ReduciblePolynomial(
            "eigenspace dimension is not 1; characteristic polynomial reducible")
    fc = free[0]
    vec = [fe((zero,) * n) for _ in range(n)]
    vec[fc] = fe(tuple(Fraction(1) if k == 0 else zero for k in range(n)))
    for col, prow in pivots.items():
        vec[col] = -rows[prow][fc]
    # normalize so the first entry is 1 (nonzero since 1, xi, ..., xi^(n-1)
    # are Q-independent); the companion matrix then maps to the unit ideal
    inv0 = vec[0].inverse()
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
    entries = tuple(OrderElement(order, tuple(x // g for x in row)) for row in ints)
    xi_el = order.xi()
    for i in range(n):
        acc = order.zero()
        for j in range(n):
            if m.rows[i][j]:
                acc = acc + entries[j] * m.rows[i][j]
        assert acc == xi_el * entries[i]
    return Eigenvector(order, entries)


def matrix_to_ideal(m: IntMatrix, order: Order | None = None) -> FracIdeal:
    """Ideal class representative of M: the Z-span of its eigenvector entries."""
    if order is None:
        order = order_for(charpoly(m))
    v = xi_eigenvector(order, m)
    rows = [e.coords for e in v.entries]
    return make_ideal(order, rows, 1)


def ideal_to_matrix(a: FracIdeal) -> IntMatrix:
    """Matrix of multiplication by xi on the HNF basis of a.

    Row i holds the integer coefficients of xi * w_i over the basis (w_j).
    """
    o = a.order
    n = o.n
    w = IntMatrix(a.lattice.rows)
    x_rows = [tuple(o.xi_times(r)) for r in a.lattice.rows]
    adj = adjugate(w)
    d = a.lattice.determinant()
    out = []
    for r in x_rows:
        prod_row = []
        for j in range(n):
            s = sum(r[k] * adj.rows[k][j] for k in range(n))
            assert s % d == 0
            prod_row.append(s // d)
        out.append(tuple(prod_row))
    m = IntMatrix(tuple(out))
    assert charpoly(m) == o.chi
    return m


def are_conjugate(m: IntMatrix, n_mat: IntMatrix,
                  budget: SearchBudget = DEFAULT_BUDGET) -> ConjugacyVerdict:
    """Decide GL_n(Z)-conjugacy of two matrices with irreducible charpoly.

    A charpoly mismatch is immediately Inequivalent.  On Equivalent the
    unimodular witness P satisfies P * M * P^-1 = N exactly.
    """
    chi_m = charpoly(m)
    chi_n = charpoly(n_mat)
    if chi_m != chi_n:
        return ConjugacyVerdict(INEQUIVALENT)
    o = order_for(chi_m)
    v_m = xi_eigenvector(o, m)
    v_n = xi_eigenvector(o, n_mat)
    a_m = make_ideal(o, [e.coords for e in v_m.entries], 1)
    a_n = make_ideal(o, [e.coords for e in v_n.entries], 1)
    res = is_equivalent(a_m, a_n, budget)
    if res.status != EQUIVALENT:
        return ConjugacyVerdict(res.status)
    z = res.witness
    n = o.n
    # scale z so that z * v_m has integral entries spanning the same lattice
    w_entries = [z * e.to_field() for e in v_m.entries]
    den = 1
    for e in w_entries:
        for c in e.coords:
            den = den * c.denominator // gcd(den, c.denominator)
    ww = [[int(c * den) for c in e.coords] for e in w_entries]
    wn = [list(e.coords) for e in v_n.entries]
    # solve ww = P * wn over Z; den divides out because both span z*a_m scaled
    adj = adjugate(IntMatrix(tuple(tuple(r) for r in wn)))
    d = det_bareiss(wn)
    p_rows = []
    for r in ww:
        row = []
        for j in range(n):
            s = sum(r[k] * adj.rows[k][j] for k in range(n))
            if s % (d * den):
                raise CertificationError("conjugator is not integral")
            row.append(s // (d * den))
        p_rows.append(tuple(row))
    p = IntMatrix(tuple(p_rows))
    dp = det_bareiss(p.rows)
    if dp not in (1, -1):
        raise CertificationError(f"conjugator has determinant {dp}")
    p_inv = adjugate(p) if dp == 1 else IntMatrix(
        tuple(tuple(-x for x in r) for r in adjugate(p).rows))
    witness = p_inv  # witness * M * witness^-1 = N
    if witness * m != n_mat * witness:
        raise CertificationError("witness fails W * M = N * W")
    return ConjugacyVerdict(EQUIVALENT, witness)


def classify(chi: MonicIntPoly, bound_override: int | None = None,
             budget: SearchBudget = DEFAULT_BUDGET,
             oracle_bounds: tuple[int, int] | None = None,
             degree_cap: int | None = None) -> ClassInventory:
    """One matrix representative per ideal class of Z[X]/(chi).

    With oracle_bounds = (entry_bound, conj_bound) the brute-force count is
    run alongside and recorded in the inventory.
    """
    o = order_for(chi, degree_cap)
    cm = class_monoid(o, bound_override, budget)
    pairs = []
    for cls in cm.classes:
        rep = ideal_to_matrix(cls.canonical)
        pairs.append((cls, rep))
    oracle = None
    if oracle_bounds is not None:
        oracle = oracle_count_classes(chi, *oracle_bounds)
    return ClassInventory(chi, tuple(pairs), cm, oracle)


# ---------------------------------------------------------------------------
# Brute-force oracle
# ---------------------------------------------------------------------------

def _matrices_with_charpoly_2(chi: MonicIntPoly, h: int):
    tr = -chi.coeffs[1]
    dt = chi.coeffs[2]
    out = []
    for a in range(-h, h + 1):
        d = tr - a
        if abs(d) > h:
            continue
        m = a * d - dt
        if m == 0:
            out.extend(IntMatrix(((a, b), (0, d))) for b in range(-h, h + 1))
            out.extend(IntMatrix(((a, 0), (c, d))) for c in range(-h, h + 1) if c)
            continue
        for b in range(-h, h + 1):
            if b == 0 or m % b:
                continue
            c = m // b
            if abs(c) <= h:
                out.append(IntMatrix(((a, b), (c, d))))
    return out


def _unimodular_2x2(bound: int):
    mats = []
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        if a * d - b * c in (1, -1):
            mats.append(((a, b), (c, d)))
    return mats


def _conjugate_2x2(p, m):
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


def _group_2x2(mats, conj_bound: int) -> int:
    todo = {m.rows for m in mats}
    ps = _unimodular_2x2(conj_bound)
    count = 0
    for m in sorted(todo):
        if m not in todo:
            continue
        count += 1
        for p in ps:
            todo.discard(_conjugate_2x2(p, m))
        todo.discard(m)
    return count


def _matrices_with_charpoly_3(chi: MonicIntPoly, h: int):
    """All 3x3 integer matrices with the given charpoly, entries in [-h, h].

    Enumerates the diagonal and the (12, 21, 13, 31) frame, then solves for
    (a23, a32) from the product and determinant constraints in closed form.
    The heavy inner elimination runs vectorized over int64; the value bounds
    are checked up front so no intermediate can overflow.
    """
    import numpy as np

    e1 = -chi.coeffs[1]
    e2 = chi.coeffs[2]
    e3 = -chi.coeffs[3]
    if h > 30 or max(abs(e1), abs(e2), abs(e3)) > 10 ** 6:
        raise BudgetExceeded("oracle bounds too large for exact int64 lanes")
    h2 = h * h
    rng = np.arange(-h, h + 1, dtype=np.int64)
    a13g, a31g = np.meshgrid(rng, rng, indexing="ij")
    a13v = a13g.ravel()
    a31v = a31g.ravel()
    vprod = a13v * a31v

    pair_cache = {}

    def pairs(m):
        if m in pair_cache:
            return pair_cache[m]
        out = []
        if m == 0:
            out.extend((0, y) for y in range(-h, h + 1))
            out.extend((x, 0) for x in range(-h, h + 1) if x)
        else:
            for x in range(-h, h + 1):
                if x and m % x == 0 and abs(m // x) <= h:
                    out.append((x, m // x))
        pair_cache[m] = out
        return out

    found = []
    for a11 in range(-h, h + 1):
        for a22 in range(-h, h + 1):
            a33 = e1 - a11 - a22
            if abs(a33) > h:
                continue
            diagsym = a11 * a22 + a11 * a33 + a22 * a33
            base = a11 * a22 * a33
            p_total = diagsym - e2
            for a12 in range(-h, h + 1):
                for a21 in range(-h, h + 1):
                    u = a12 * a21
                    w = p_total - u - vprod
                    ok = np.abs(w) <= h2
                    if not ok.any():
                        continue
                    r = (e3 - base) + a11 * w + a22 * vprod + u * a33
                    alpha = a12 * a31v
                    beta = a13v * a21
                    an = alpha != 0
                    bn = beta != 0

                    # generic lane: alpha, beta nonzero -> quadratic in a23
                    lane = ok & an & bn
                    if lane.any():
                        disc = r * r - 4 * alpha * beta * w
                        lane &= disc >= 0
                        if lane.any():
                            s = np.sqrt(np.maximum(disc, 0)).astype(np.int64)
                            s = np.where(s * s > disc, s - 1, s)
                            s = np.where((s + 1) * (s + 1) <= disc, s + 1, s)
                            lane &= s * s == disc
                            two_a = np.where(alpha == 0, 1, 2 * alpha)
                            for sign in (1, -1):
                                num = r + sign * s
                                good = lane & (num % two_a == 0)
                                if sign == -1:
                                    good &= s != 0
                                if not good.any():
                                    continue
                                x23 = np.where(good, num // two_a, 0)
                                good &= np.abs(x23) <= h
                                rem = r - alpha * x23
                                good &= rem % np.where(bn, beta, 1) == 0
                                x32 = np.where(good, rem // np.where(beta == 0, 1, beta), 0)
                                good &= (np.abs(x32) <= h) & (x23 * x32 == w)
                                for idx in np.nonzero(good)[0]:
                                    found.append((
                                        (a11, a12, int(a13v[idx])),
                                        (a21, a22, int(x23[idx])),
                                        (int(a31v[idx]), int(x32[idx]), a33)))

                    # alpha == 0, beta != 0: a32 = r / beta, a23 from product
                    lane = ok & ~an & bn
                    for idx in np.nonzero(lane)[0]:
                        bb = int(beta[idx])
                        rr = int(r[idx])
                        ww = int(w[idx])
                        if rr % bb:
                            continue
                        y = rr // bb
                        if abs(y) > h:
                            continue
                        if y == 0:
                            if ww == 0:
                                for x in range(-h, h + 1):
                                    found.append((
                                        (a11, a12, int(a13v[idx])),
                                        (a21, a22, x),
                                        (int(a31v[idx]), 0, a33)))
                            continue
                        if ww % y:
                            continue
                        x = ww // y
                        if abs(x) <= h:
                            found.append((
                                (a11, a12, int(a13v[idx])),
                                (a21, a22, x),
                                (int(a31v[idx]), y, a33)))

                    # alpha != 0, beta == 0: symmetric
                    lane = ok & an & ~bn
                    for idx in np.nonzero(lane)[0]:
                        aa = int(alpha[idx])
                        rr = int(r[idx])
                        ww = int(w[idx])
                        if rr % aa:
                            continue
                        x = rr // aa
                        if abs(x) > h:
                            continue
                        if x == 0:
                            if ww == 0:
                                for y in range(-h, h + 1):
                                    found.append((
                                        (a11, a12, int(a13v[idx])),
                                        (a21, a22, 0),
                                        (int(a31v[idx]), y, a33)))
                            continue
                        if ww % x:
                            continue
                        y = ww // x
                        if abs(y) <= h:
                            found.append((
                                (a11, a12, int(a13v[idx])),
                                (a21, a22, x),
                                (int(a31v[idx]), y, a33)))

                    # alpha == beta == 0: need r == 0, any factor pair of w
                    lane = ok & ~an & ~bn & (r == 0)
                    for idx in np.nonzero(lane)[0]:
                        for x, y in pairs(int(w[idx])):
                            found.append((
                                (a11, a12, int(a13v[idx])),
                                (a21, a22, x),
                                (int(a31v[idx]), y, a33)))
    mats = sorted(set(found))
    for rows in mats[:20]:
        assert charpoly(IntMatrix(rows)) == chi
    return [IntMatrix(rows) for rows in mats]


_PERMS3 = list(permutations(range(3)))
_SIGNS3 = [(1, 1, 1), (1, 1, -1), (1, -1, 1), (-1, 1, 1)]


def _neighbors_3(rows, box):
    """Conjugates of a 3x3 matrix by elementary, permutation and sign matrices,
    restricted to entries within the box."""
    out = []
    for perm in _PERMS3:
        cand = tuple(tuple(rows[perm[i]][perm[j]] for j in range(3)) for i in range(3))
        out.append(cand)
    for s in _SIGNS3:
        cand = tuple(tuple(s[i] * rows[i][j] * s[j] for j in range(3)) for i in range(3))
        out.append(cand)
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


def _group_3x3(mats, entry_bound, margin=4) -> int:
    """Group by conjugacy via breadth-first closure over elementary moves.

    Intermediate conjugates may wander up to entry_bound + margin before
    returning to the enumerated box; unreached matrices seed new groups.
    """
    box = entry_bound + margin
    remaining = {m.rows for m in mats}
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
                for cand in _neighbors_3(rows, box):
                    if cand in visited:
                        continue
                    visited.add(cand)
                    remaining.discard(cand)
                    nxt.append(cand)
            frontier = nxt
    return count


def oracle_count_classes(chi: MonicIntPoly, entry_bound: int,
                         conj_bound: int) -> int:
    """Count conjugacy classes among all bounded matrices with charpoly chi.

    Independent of the ideal machinery.  The value is trustworthy exactly
    when the bounds are adequate, which callers assert per test case.
    """
    n = chi.degree
    if n == 2:
        mats = _matrices_with_charpoly_2(chi, entry_bound)
        if not mats:
            raise BudgetExceeded("entry bound excludes every matrix")
        return _group_2x2(mats, conj_bound)
    if n == 3:
        mats = _matrices_with_charpoly_3(chi, entry_bound)
        if not mats:
            raise BudgetExceeded("entry bound excludes every matrix")
        return _group_3x3(mats, entry_bound)
    raise ValueError("oracle supports degree 2 and 3 only")
