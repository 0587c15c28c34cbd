"""Matrix <-> ideal correspondence: conjugacy classes of integer matrices with
a fixed irreducible characteristic polynomial against ideal classes of Z[xi].

matrix_to_ideal sends M to the Z-span of the entries of an integral
xi-eigenvector, read off column 0 of adj(xi I - M) by integer mat-vecs;
ideal_to_matrix writes multiplication by xi on an ideal basis by the
triangular solve against its HNF.  are_conjugate decides conjugacy through
ideal equivalence and reconstructs a verified unimodular witness.
oracle_count_classes is the independent brute-force check: it never touches
the ideal machinery.  In degree 2 it removes each seed's conjugates through a
table of linear maps on the entries, one per unimodular +-P in the conjugator
box, built once per bound in plain Python.  In degree 3 it enumerates every
matrix with the charpoly and entries in [-h, h] and returns the number of
components of the conjugation-move graph on the box [-(h + 4), h + 4] that
meet them.  That count is never below the number of classes met, and equals
it when the box holds a path between any two conjugate matrices.  Its numpy
kernels import numpy on first use only.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product
from math import gcd

from .errors import BudgetExceeded, CertificationError, ReduciblePolynomial
from .exactla import IntMatrix, MonicIntPoly, charpoly, det_bareiss, solve
from .ideal import (
    DEFAULT_BUDGET, EQUIVALENT, INEQUIVALENT, ClassMonoid, FracIdeal,
    IdealClass, SearchBudget, class_monoid, is_equivalent, make_ideal,
)
from .order import FieldElement, Order, OrderElement, clear_denominators


@lru_cache(maxsize=1024)
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

    @property
    def count(self) -> int:
        return len(self.pairs)


def xi_eigenvector(order: Order, m: IntMatrix) -> Eigenvector:
    """Column 0 of adj(xi I - M), scaled to a primitive integral vector.

    adj(X I - M) = sum_k B_k X^k with B_{n-1} = I and B_{k-1} = M B_k + c_k I,
    chi = X^n + ... + c_1 X + c_0 (Taussky, Canad. J. Math. 1, 1949).  So
    b_k = B_k e_0 costs n - 1 integer mat-vecs, and entry i of the column has
    power-basis coordinates (b_0[i], ..., b_{n-1}[i]).  Its xi^(n-1)
    coordinate is b_{n-1}[0] = 1, so the column is never zero.  The closing
    step M b_0 + c_0 e_0 = chi(M) e_0 vanishes iff charpoly(M) = chi, since
    chi is irreducible.  Scaling makes entry 0 equal 1 (the companion matrix
    then maps to the unit ideal), clears denominators and divides out the
    content.
    """
    n = order.n
    if m.n != n:
        raise ValueError("matrix size does not match the order degree")
    low = order.chi.coeffs[::-1]  # c_0, ..., c_{n-1}, 1
    cols = [(1,) + (0,) * (n - 1)]  # b_{n-1}, b_{n-2}, ..., b_0
    for k in range(n - 1, 0, -1):
        b = m.mul_vec(cols[-1])
        cols.append((b[0] + low[k],) + b[1:])
    closing = m.mul_vec(cols[-1])
    if closing[0] + low[0] or any(closing[1:]):
        raise ReduciblePolynomial(
            "xi is not an eigenvalue of M: its charpoly is not chi")
    cols.reverse()
    vec = [FieldElement(order, tuple(b[i] for b in cols)) for i in range(n)]
    inv0 = vec[0].inverse()
    ints, _ = clear_denominators([(e * inv0).coords for e in vec])
    g = gcd(*(x for row in ints for x in row))
    entries = tuple(OrderElement(order, tuple(x // g for x in row)) for row in ints)
    xi_el = order.xi()
    for i in range(n):
        acc = order.zero()
        for j in range(n):
            if m.rows[i][j]:
                acc = acc + entries[j] * m.rows[i][j]
        if acc != xi_el * entries[i]:
            raise CertificationError("eigenvector fails M v = xi v")
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
    out = []
    for w in a.lattice.rows:
        row = a.lattice.coordinates(o.xi_times(w))
        if row is None:
            raise CertificationError("xi * a is not integral on the basis of a")
        out.append(row)
    m = IntMatrix(tuple(out))
    if charpoly(m) != o.chi:
        raise CertificationError("matrix of xi has the wrong charpoly")
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
    # The rows of ww / den = z * v_m and of wn = v_n both span z * a_m = a_n,
    # and W = den * wn * ww^-1 is the witness: one solve of
    # ww^T W^T = den * wn^T, then exact checks.
    ww, den = clear_denominators([(z * e.to_field()).coords for e in v_m.entries])
    wn = [e.coords for e in v_n.entries]
    d, wt = solve(tuple(zip(*ww)), [[den * x for x in col] for col in zip(*wn)])
    if any(x % d for r in wt for x in r):
        raise CertificationError("conjugator is not integral")
    witness = IntMatrix(tuple(zip(*([x // d for x in r] for r in wt))))
    dw = det_bareiss(witness.rows)
    if dw not in (1, -1):
        raise CertificationError(f"conjugator has determinant {dw}")
    if witness * m != n_mat * witness:
        raise CertificationError("witness fails W * M = N * W")
    return ConjugacyVerdict(EQUIVALENT, witness)


def classify(chi: MonicIntPoly, bound_override: int | None = None,
             budget: SearchBudget = DEFAULT_BUDGET,
             degree_cap: int | None = None) -> ClassInventory:
    """One matrix representative per ideal class of Z[X]/(chi)."""
    o = order_for(chi, degree_cap)
    cm = class_monoid(o, bound_override, budget)
    pairs = []
    for cls in cm.classes:
        rep = ideal_to_matrix(cls.canonical)
        pairs.append((cls, rep))
    return ClassInventory(chi, tuple(pairs), cm)


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


@lru_cache(maxsize=4)
def _conjugation_maps(bound: int) -> frozenset:
    """M -> P M P^-1 for every unimodular P with entries in [-bound, bound],
    as 16 coefficients: four rows, one per entry of P M P^-1, of a linear
    map on the entries (x, y, z, w) of M.  For P = [[a, b], [c, d]] with
    e = det P, P^-1 = e adj(P) gives the rows below; P and -P give one map.
    """
    maps = set()
    for a, b, c, d in product(range(-bound, bound + 1), repeat=4):
        e = a * d - b * c
        if e in (1, -1):
            maps.add(tuple(e * t for t in (a * d, -a * c, b * d, -b * c,
                                           -a * b, a * a, -b * b, a * b,
                                           c * d, -c * c, d * d, -c * d,
                                           -b * c, a * c, -b * d, a * d)))
    return frozenset(maps)


def _group_2x2(mats, conj_bound: int) -> int:
    """Classes met by mats: each seed left, in sorted order, removes its own."""
    todo = {m.rows for m in mats}
    maps = _conjugation_maps(conj_bound)
    count = 0
    for m in sorted(todo):
        if m not in todo:
            continue
        count += 1
        (x, y), (z, w) = m
        todo.difference_update(
            ((a * x + b * y + c * z + d * w, e * x + f * y + g * z + h * w),
             (i * x + j * y + k * z + l * w, p * x + q * y + r * z + s * w))
            for a, b, c, d, e, f, g, h, i, j, k, l, p, q, r, s in maps)
        todo.discard(m)
    return count


def _isqrt(n):
    """Floor square roots of an int64 array n >= 0; exact for n < 2**52."""
    import numpy as np

    s = np.sqrt(n).astype(np.int64)
    s -= s * s > n
    s += (s + 1) * (s + 1) <= n
    return s


def _frame_solutions(alpha, beta, r, w, h):
    """Every (lane, x, y) with x*y = w, alpha*x + beta*y = r and |x|, |y| <= h.

    Candidates come from closed forms, one per zero pattern of (alpha, beta).
    A final exact filter keeps only true solutions, so a candidate built from
    an inexact floor division never gets through.
    """
    import numpy as np

    span = np.arange(-h, h + 1, dtype=np.int64)

    def fan(lanes):  # every lane paired with every value in [-h, h]
        return np.repeat(lanes, len(span)), np.tile(span, len(lanes))

    an, bn = alpha != 0, beta != 0
    cands = []
    # alpha, beta nonzero: x is a root of alpha x^2 - r x + beta w = 0
    i = np.flatnonzero(an & bn)
    disc = r[i] * r[i] - 4 * alpha[i] * beta[i] * w[i]
    i, disc = i[disc >= 0], disc[disc >= 0]
    s = _isqrt(disc)
    square = s * s == disc
    i, s = i[square], s[square]
    for num in (r[i] + s, r[i] - s):
        x = num // (2 * alpha[i])
        cands.append((i, x, (r[i] - alpha[i] * x) // beta[i]))
    # one of alpha, beta zero: the nonzero one fixes its unknown t = r / c;
    # t fixes the other unknown as w / t, or frees it when t = w = 0
    for lanes, c, t_is_y in ((~an & bn, beta, True), (an & ~bn, alpha, False)):
        i = np.flatnonzero(lanes)
        t = r[i] // c[i]
        j, free = fan(i[(t == 0) & (w[i] == 0)])
        i, t = i[t != 0], t[t != 0]
        for k, tv, other in ((i, t, w[i] // t), (j, np.zeros_like(j), free)):
            cands.append((k, other, tv) if t_is_y else (k, tv, other))
    # alpha = beta = 0: r must vanish and (x, y) is any factor pair of w
    i = np.flatnonzero(~an & ~bn & (r == 0))
    j, x = fan(i)
    cands.append((j, x, w[j] // np.where(x == 0, 1, x)))
    j, y = fan(i[w[i] == 0])
    cands.append((j, np.zeros_like(j), y))
    lane, x, y = (np.concatenate(part) for part in zip(*cands))
    ok = ((np.abs(x) <= h) & (np.abs(y) <= h) & (x * y == w[lane])
          & (alpha[lane] * x + beta[lane] * y == r[lane]))
    return lane[ok], x[ok], y[ok]


def _check_charpoly_3(vecs, e1, e2, e3):
    """Raise unless every row-major matrix in vecs has trace e1, principal
    2x2 minor sum e2 and determinant e3 (exact in int64 for h <= 30)."""
    a = vecs.T
    minors = (a[0] * a[4] - a[1] * a[3] + a[0] * a[8] - a[2] * a[6]
              + a[4] * a[8] - a[5] * a[7])
    det = (a[0] * (a[4] * a[8] - a[5] * a[7]) - a[1] * (a[3] * a[8] - a[5] * a[6])
           + a[2] * (a[3] * a[7] - a[4] * a[6]))
    bad = (a[0] + a[4] + a[8] != e1) | (minors != e2) | (det != e3)
    if bad.any():
        raise CertificationError(
            f"enumerated matrix {vecs[bad][0].tolist()} has the wrong charpoly")


def _matrices_with_charpoly_3(chi: MonicIntPoly, h: int):
    """All 3x3 integer matrices with the given charpoly, entries in [-h, h].

    Returns their row-major entries as the lexicographically sorted rows of
    an (N, 9) int64 array.  For each diagonal (a11, a22) the trace fixes a33,
    and the whole (a12, a21, a13, a31) frame runs as int64 lanes.  On each
    lane the second coefficient fixes w = a23 * a32 and the determinant
    fixes alpha * a23 + beta * a32 = r, which _frame_solutions solves in
    closed form.  Here w, r and the discriminant r^2 - 4 alpha beta w depend
    on the frame only through (u, v) = (a12 a21, a13 a31), as alpha beta =
    u v.  So the frame is grouped by (u, v), and only the lanes of pairs with
    |w| <= h^2 and, when u v != 0, a square discriminant are solved.  The
    value bounds are checked up front so no intermediate can overflow, and
    every matrix's charpoly is checked on the way out.
    """
    import numpy as np

    e1 = -chi.coeffs[1]
    e2 = chi.coeffs[2]
    e3 = -chi.coeffs[3]
    if h > 30 or max(abs(e1), abs(e2), abs(e3)) > 10 ** 6:
        raise BudgetExceeded("oracle bounds too large for exact int64 lanes")
    span = np.arange(-h, h + 1, dtype=np.int8)
    frame = np.stack([g.ravel() for g in np.meshgrid(span, span, span, span,
                                                     indexing="ij")])
    wide = frame.astype(np.int32)
    u, v = wide[0] * wide[1], wide[2] * wide[3]
    del wide
    order = np.lexsort((v, u))
    frame, u, v = frame[:, order], u[order], v[order]
    starts = np.flatnonzero(np.diff(u, prepend=u[:1] - 1) | np.diff(v, prepend=0))
    sizes = np.diff(starts, append=len(u))
    pu, pv = u[starts].astype(np.int64), v[starts].astype(np.int64)
    del u, v
    blocks = []
    for a11 in range(-h, h + 1):
        for a22 in range(-h, h + 1):
            a33 = e1 - a11 - a22
            if abs(a33) > h:
                continue
            w = a11 * a22 + a11 * a33 + a22 * a33 - e2 - pu - pv
            r = (e3 - a11 * a22 * a33) + a11 * w + a22 * pv + a33 * pu
            disc = r * r - 4 * pu * pv * w
            s = _isqrt(np.maximum(disc, 0))
            live = np.flatnonzero((np.abs(w) <= h * h)
                                  & ((pu * pv == 0) | (s * s == disc)))
            count = sizes[live]
            first = np.cumsum(count) - count
            lanes = np.repeat(starts[live] - first, count) + np.arange(count.sum())
            a12, a21, a13, a31 = frame[:, lanes].astype(np.int64)
            pair = np.repeat(live, count)
            lane, x, y = _frame_solutions(a12 * a31, a13 * a21, r[pair], w[pair], h)
            diag = np.ones_like(lane)
            blocks.append(np.stack([
                a11 * diag, a12[lane], a13[lane],
                a21[lane], a22 * diag, x,
                a31[lane], y, a33 * diag], axis=1))
    vecs = np.unique(np.concatenate(blocks) if blocks
                     else np.empty((0, 9), dtype=np.int64), axis=0)
    _check_charpoly_3(vecs, e1, e2, e3)
    return vecs


@lru_cache(maxsize=1)
def _moves_3():
    """The 20 non-identity conjugations of _group_3x3 as 9x9 integer maps.

    With M as its row-major entry vector m, P M P^-1 is m @ kron(P^T, P^-1).
    P runs over the 5 other permutation matrices, the 3 sign changes with one
    -1, and the 12 elementary matrices I +- E_ij (i != j).
    """
    import numpy as np

    eye = np.eye(3, dtype=np.int64)
    pairs = [(eye[list(p)], eye[list(p)].T)
             for p in permutations(range(3)) if p != (0, 1, 2)]
    for k in range(3):
        s = eye.copy()
        s[k, k] = -1
        pairs.append((s, s))
    for i, j in permutations(range(3), 2):
        for e in (1, -1):
            p = eye.copy()
            p[i, j] = e
            pairs.append((p, 2 * eye - p))
    return tuple(np.kron(p.T, p_inv) for p, p_inv in pairs)


def _sorted_find(table, keys):
    """Positions of keys in the sorted array table, and which are present."""
    pos = table.searchsorted(keys)
    found = pos < len(table)
    found[found] = table[pos[found]] == keys[found]
    return pos, found


# how far _group_3x3's box reaches beyond the enumerated entries
_BOX_MARGIN = 4


def _group_3x3(vecs, entry_bound) -> int:
    """Count the conjugacy classes met by the enumerated matrices vecs.

    Invariant: the count is the number of connected components that meet
    vecs, in the graph whose nodes are the matrices with entries in
    [-box, box], box = entry_bound + _BOX_MARGIN, and whose edges are the
    moves of _moves_3.  Every move's inverse is a move, so the graph is
    undirected.  A class whose members are joined only through entries
    beyond the box counts once per component, so the count is at least the
    class count.

    Each seed, in sorted order, that no earlier search reached starts a
    breadth-first search.  It runs one frontier at a time on int64 keys that
    hold the entries as base 2*box+1 digits (69**9 < 2**63 at h = 30), and
    applies one move at a time to the whole frontier, held as a (9, F)
    array.  A key is linear in the entries, so a move maps the frontier
    straight to keys.  Only the entries that are not +-1 times one old entry
    can leave the box; they are bound-checked in float64, exact for such
    small integers.  In an undirected graph the next layer is what the moves
    reach outside the current and previous layers.  The search stops once
    every enumerated matrix is reached.
    """
    import numpy as np

    box = entry_bound + _BOX_MARGIN
    radix = 2 * box + 1
    place = radix ** np.arange(8, -1, -1, dtype=np.int64)
    offset = box * int(place.sum())
    moves = [(t[:, np.abs(t).sum(axis=0) > 1].T.astype(np.float64), t @ place)
             for t in _moves_3()]
    seeds = vecs @ place + offset    # sorted, since vecs is
    left = np.ones(len(seeds), dtype=bool)
    n_left = len(seeds)
    count = 0
    for s in range(len(seeds)):
        if not left[s]:
            continue
        count += 1
        left[s] = False
        n_left -= 1
        previous, layer = seeds[:0], seeds[s:s + 1]
        while len(layer) and n_left:
            frontier = layer // place[:, None] % radix - box
            real = frontier.astype(np.float64)
            keys = []
            for wide, to_key in moves:
                inside = (np.abs(wide @ real) <= box).all(axis=0)
                keys.append(to_key @ frontier[:, inside] + offset)
            keys = np.sort(np.concatenate(keys))
            keys = keys[np.diff(keys, prepend=-1) != 0]
            keys = keys[~_sorted_find(layer, keys)[1]]
            previous, layer = layer, keys[~_sorted_find(previous, keys)[1]]
            pos, found = _sorted_find(seeds, layer)
            pos = pos[found]
            n_left -= np.count_nonzero(left[pos])
            left[pos] = False
    return count


def oracle_count_classes(chi: MonicIntPoly, entry_bound: int,
                         conj_bound: int) -> int:
    """Count conjugacy classes among all bounded matrices with charpoly chi.

    Independent of the ideal machinery.  The value is trustworthy exactly
    when the bounds are adequate, which callers assert per test case.
    For degree 3, conj_bound is unused: _group_3x3 walks elementary moves
    inside a box of entry_bound + 4.
    """
    n = chi.degree
    if n == 2:
        mats = _matrices_with_charpoly_2(chi, entry_bound)
        if not mats:
            raise BudgetExceeded("entry bound excludes every matrix")
        return _group_2x2(mats, conj_bound)
    if n == 3:
        vecs = _matrices_with_charpoly_3(chi, entry_bound)
        if not len(vecs):
            raise BudgetExceeded("entry bound excludes every matrix")
        return _group_3x3(vecs, entry_bound)
    raise ValueError("oracle supports degree 2 and 3 only")
