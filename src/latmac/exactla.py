"""Exact integer and rational linear algebra plus integer polynomial arithmetic.

Everything here is arbitrary precision.  One fraction-free elimination runs
every solve: _bareiss, a forward Bareiss pass on [A | B], then exact integer
back-substitution.  det_bareiss, rank, kernel_rational (Fractions only in its
output), solve, adjugate and discriminant go through it, and so do field
inverses, colon lattices and conjugacy witnesses elsewhere; det_cofactor
stays as an independent cross-check.  One integer lattice elimination,
the xgcd step _echelon_insert, builds both normal forms: hnf inserts the
generators once, and snf alternates row and column echelon forms.  The
triangular solve against an HNF basis is HNFBasis.coordinates.  One
remainder sequence over Q gives poly_gcd_rational and the Sturm sequence
behind real_roots, which isolates every real root in certified rational
intervals.  Over F_p, kernel_mod_p is a Gauss-Jordan kernel and
factors_mod_p finds small irreducible factors by distinct- and equal-degree
factorization; with the prime stream primes() they drive the
stable-sublattice descent.  The lattice normal form used throughout the
package is row-style Hermite normal form: upper triangular, positive pivots,
entries above a pivot reduced modulo it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import product

from .errors import (
    BudgetExceeded, CertificationError, DegreeCapExceeded, RankDeficient,
)

DEGREE_CAP = 6
# candidate factors is_irreducible may try; X^6-30X-50 needs 10,721,988
FACTOR_CANDIDATE_CAP = 5 * 10 ** 7


def xgcd(a: int, b: int) -> tuple[int, int, int]:
    """Return (g, x, y) with g = gcd(a, b) >= 0 and x*a + y*b = g."""
    x, next_x = 1, 0
    y, next_y = 0, 1
    g, next_g = a, b
    while next_g:
        q = g // next_g
        x, next_x = next_x, x - q * next_x
        y, next_y = next_y, y - q * next_y
        g, next_g = next_g, g - q * next_g
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


# ---------------------------------------------------------------------------
# Polynomials
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MonicIntPoly:
    """Monic integer polynomial, coefficients highest degree first."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("degree must be at least 1")
        if self.coeffs[0] != 1:
            raise ValueError("leading coefficient must be 1")
        object.__setattr__(self, "coeffs", tuple(int(c) for c in self.coeffs))

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __call__(self, x):
        acc = 0
        for c in self.coeffs:
            acc = acc * x + c
        return acc

    def derivative(self) -> tuple[int, ...]:
        n = self.degree
        return tuple((n - i) * c for i, c in enumerate(self.coeffs[:-1]))

    def __str__(self):
        parts = []
        n = self.degree
        for i, c in enumerate(self.coeffs):
            if c == 0:
                continue
            e = n - i
            if e == 0:
                term = str(abs(c))
            else:
                xe = "X" if e == 1 else f"X^{e}"
                term = xe if abs(c) == 1 else f"{abs(c)}{xe}"
            parts.append(("- " if c < 0 else "+ ") + term)
        s = " ".join(parts)
        return s[2:] if s.startswith("+ ") else "-" + s[2:]


def poly_from_string(text: str) -> MonicIntPoly:
    """Parse comma-separated coefficients, highest degree first."""
    return MonicIntPoly(tuple(int(t.strip()) for t in text.split(",")))


def _poly_divmod_monic(num, den):
    """Divide by a monic polynomial; coefficients highest degree first."""
    num = list(num)
    dn = len(den) - 1
    quot = []
    while len(num) - 1 >= dn:
        lead = num[0]
        quot.append(lead)
        if lead:
            for i in range(1, len(den)):
                num[i] -= lead * den[i]
        num.pop(0)
    return quot, num


def _trim(a):
    """The coefficient list a without its leading zeros."""
    return a[next((i for i, c in enumerate(a) if c), len(a)):]


def _remainder_sequence(a, b):
    """[a, b, -rem(a, b), ...] over Q, each further term minus the remainder
    of the two before it, up to the last nonzero one: a constant multiple of
    gcd(a, b).  For b = a' it is the Sturm sequence of a.  Terms are lists of
    Fractions without leading zeros."""
    seq = [_trim([Fraction(c) for c in a]), _trim([Fraction(c) for c in b])]
    while seq[-1]:
        _, rem = _poly_divmod_monic(seq[-2], [c / seq[-1][0] for c in seq[-1]])
        seq.append(_trim([-c for c in rem]))
    return seq[:-1]


def poly_gcd_rational(a, b):
    """Monic gcd over Q of two integer polynomial coefficient sequences."""
    g = _remainder_sequence(a, b)[-1]
    return [c / g[0] for c in g]


def _sign_changes(seq, x) -> int:
    """Sign changes along the values of the polynomials seq at x, zeros
    dropped."""
    signs = []
    for p in seq:
        acc = 0
        for c in p:
            acc = acc * x + c
        if acc:
            signs.append(acc > 0)
    return sum(1 for s, t in zip(signs, signs[1:]) if s != t)


def real_roots(p: MonicIntPoly, width: Fraction = Fraction(1, 10 ** 8)):
    """Certified intervals (lo, hi] of length <= width, one around each
    distinct real root of p, in ascending order.

    Sturm counts bisect (-B, B], B = 1 + max |c|, until a half holds one
    root.  If p changes sign over it, bisection on the sign of p refines it,
    returning (x, x) when it meets the root x; otherwise (a multiple root,
    or one at the upper end) Sturm bisection goes on down to width.
    """
    seq = _remainder_sequence(p.coeffs, p.derivative())
    # dividing out gcd(p, p') = seq[-1] keeps the counts right at a
    # multiple root, where every term of seq vanishes
    g = [c / seq[-1][0] for c in seq[-1]]
    seq = [_poly_divmod_monic(t, g)[0] for t in seq]
    out = []

    def isolate(lo, hi, vlo, vhi):
        mid = (lo + hi) / 2
        vmid = _sign_changes(seq, mid)
        for a, b, va, vb in ((lo, mid, vlo, vmid), (mid, hi, vmid, vhi)):
            if va - vb == 1 and (b - a <= width or p(a) * p(b) < 0):
                while b - a > width:
                    x = (a + b) / 2
                    v = p(x)
                    if v == 0:
                        a = b = x
                    elif p(a) * v < 0:
                        b = x
                    else:
                        a = x
                out.append((a, b))
            elif va > vb:
                isolate(a, b, va, vb)

    bound = Fraction(1 + max(abs(c) for c in p.coeffs))
    vlo, vhi = _sign_changes(seq, -bound), _sign_changes(seq, bound)
    if vlo > vhi:
        isolate(-bound, bound, vlo, vhi)
    return out


# ---------------------------------------------------------------------------
# Integer matrices
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IntMatrix:
    """Square matrix of arbitrary-precision integers."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        if any(len(r) != len(rows) for r in rows):
            raise ValueError("matrix must be square")
        object.__setattr__(self, "rows", rows)

    @property
    def n(self) -> int:
        return len(self.rows)

    @classmethod
    def identity(cls, n: int) -> "IntMatrix":
        return cls(tuple(tuple(1 if i == j else 0 for j in range(n)) for i in range(n)))

    def __mul__(self, other: "IntMatrix") -> "IntMatrix":
        n = self.n
        ot = tuple(zip(*other.rows))
        return IntMatrix(tuple(
            tuple(sum(a * b for a, b in zip(row, col)) for col in ot)
            for row in self.rows))

    def __add__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a + b for a, b in zip(r, s))
                               for r, s in zip(self.rows, other.rows)))

    def __sub__(self, other: "IntMatrix") -> "IntMatrix":
        return IntMatrix(tuple(tuple(a - b for a, b in zip(r, s))
                               for r, s in zip(self.rows, other.rows)))

    def transpose(self) -> "IntMatrix":
        return IntMatrix(tuple(zip(*self.rows)))

    def mul_vec(self, v):
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.rows)


def _bareiss(a, ncols: int):
    """Fraction-free forward elimination on the list of integer rows a.

    Pivots run left to right over the first ncols <= len(a) columns, with
    row swaps; a column with no pivot left is free, and later columns ride
    along.  Each step updates the trailing columns of the rows below its
    pivot and divides by the previous pivot.  Every entry stays a minor of
    the input, so each division is exact (Bareiss, Math. Comp. 22, 1968);
    entries left of a row's pivot go stale.  The first pivot step copies the
    rows it writes, so the rows passed in are never modified.  Returns the
    free columns and the sign of the row permutation; that sign times the
    last pivot is the determinant of the pivot rows on the pivot columns.
    """
    n = len(a)
    sign = prev = 1
    free = []
    for k in range(ncols):
        r = k - len(free)
        top = a[r]
        if top[k] == 0:
            for i in range(r + 1, n):
                if a[i][k]:
                    a[r], a[i] = a[i], top
                    top = a[r]
                    sign = -sign
                    break
            else:
                free.append(k)
                continue
        p = top[k]
        for i in range(r + 1, n):
            a[i] = row = a[i] if r else [*a[i]]
            f = row[k]
            for j in range(k + 1, len(row)):
                row[j] = (row[j] * p - f * top[j]) // prev
        prev = p
    return free, sign


def _back_substitute(a, pivots, cols, d):
    """y[i][c] = d * x[pivots[i]], for x the solution of the echelon system
    that _bareiss left in a, restricted to the pivot columns, with column
    cols[c] as its right-hand side.  Each division is exact when d * x is
    integral, as it is for d = +-(last pivot) by Cramer's rule."""
    y = []
    for i in range(len(pivots) - 1, -1, -1):
        row = a[i]
        later = list(zip(pivots[i + 1:], y))
        y.insert(0, [(d * row[col] - sum(row[p] * z[c] for p, z in later))
                     // row[pivots[i]] for c, col in enumerate(cols)])
    return y


def solve(a_rows, b_rows):
    """(det A, det A * A^-1 B) for a square integer A and an integer B with as
    many rows: one Bareiss pass on [A | B], then back-substitution, all in
    integers.  Raises ZeroDivisionError when A is singular."""
    n = len(a_rows)
    m = [(*r, *s) for r, s in zip(a_rows, b_rows)]
    free, sign = _bareiss(m, n)
    if free:
        raise ZeroDivisionError("singular matrix")
    d = sign * m[-1][n - 1]
    return d, _back_substitute(m, range(n), range(n, len(m[0])), d)


def det_bareiss(rows) -> int:
    """Fraction-free Bareiss determinant of a square integer matrix."""
    a = list(rows)
    free, sign = _bareiss(a, len(a) - 1)  # the last pivot is the last entry
    return 0 if free else sign * a[-1][-1]


def det_cofactor(rows) -> int:
    """Cofactor-expansion determinant, used as an independent cross-check."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    first = rows[0]
    rest = rows[1:]
    for j, c in enumerate(first):
        if c == 0:
            continue
        minor = [r[:j] + r[j + 1:] for r in [list(x) for x in rest]]
        total += (-1) ** j * c * det_cofactor(minor)
    return total


def rank(a: IntMatrix) -> int:
    """Exact rank over Q: the number of Bareiss pivots."""
    return a.n - len(_bareiss(list(a.rows), a.n)[0])


def kernel_rational(a: IntMatrix):
    """Basis of the right kernel of a over Q, as tuples of Fractions.

    One vector per free column f, with entry 1 at f, 0 at the other free
    columns and its pivot entries from back-substitution: the reduced row
    echelon basis.
    """
    n = a.n
    m = list(a.rows)
    free, _ = _bareiss(m, n)
    pivots = [c for c in range(n) if c not in free]
    d = m[len(pivots) - 1][pivots[-1]] if pivots else 1
    y = _back_substitute(m, pivots, free, d)
    basis = []
    for c, f in enumerate(free):
        vec = [Fraction(int(j == f)) for j in range(n)]
        for col, yc in zip(pivots, y):
            vec[col] = Fraction(-yc[c], d)
        basis.append(tuple(vec))
    return basis


def adjugate(a: IntMatrix) -> IntMatrix:
    """Adjugate det(a) * a^-1 of a nonsingular matrix, by solve(a, I)."""
    return IntMatrix(solve(a.rows, IntMatrix.identity(a.n).rows)[1])


def charpoly(m: IntMatrix) -> MonicIntPoly:
    """Characteristic polynomial det(XI - M) by the Faddeev-LeVerrier scheme.

    All intermediate divisions are exact over Z.
    """
    n = m.n
    coeffs = [1]
    work = IntMatrix.identity(n)
    for k in range(1, n + 1):
        work = m * work
        tr = sum(work.rows[i][i] for i in range(n))
        if tr % k:
            raise CertificationError("Faddeev-LeVerrier trace is not divisible")
        c = -tr // k
        coeffs.append(c)
        if k < n:
            work = work + IntMatrix(tuple(
                tuple(c if i == j else 0 for j in range(n)) for i in range(n)))
    return MonicIntPoly(tuple(coeffs))


def companion(p: MonicIntPoly) -> IntMatrix:
    """Matrix C with C * (1, t, ..., t^(n-1))^T = t * (1, t, ..., t^(n-1))^T."""
    n = p.degree
    low_first = list(reversed(p.coeffs))  # c0, c1, ..., c_{n-1}, 1
    rows = []
    for i in range(n - 1):
        rows.append(tuple(1 if j == i + 1 else 0 for j in range(n)))
    rows.append(tuple(-low_first[j] for j in range(n)))
    return IntMatrix(tuple(rows))


def discriminant(p: MonicIntPoly) -> int:
    """Integer discriminant, (-1)^(n(n-1)/2) * N(p'(xi)) for xi a root of p.

    Row k of the matrix of multiplication by p'(xi) is X^k p' mod p.  Its
    columns run highest degree first, which reverses the power basis and
    contributes exactly the sign (-1)^(n(n-1)/2)."""
    d = p.derivative()
    return det_bareiss([_poly_divmod_monic(d + (0,) * k, p.coeffs)[1]
                        for k in range(p.degree)])


def _norm2_ceil(coeffs) -> int:
    return math.isqrt(sum(c * c for c in coeffs)) + 1


def _divisors_signed(m: int, cap: int):
    out = []
    for d in range(1, min(abs(m), cap) + 1):
        if m % d == 0:
            out.append(d)
            out.append(-d)
    return out


def is_irreducible(p: MonicIntPoly, degree_cap: int = DEGREE_CAP) -> bool:
    """Decide irreducibility over Z by bounded exhaustive factor search.

    Candidate monic factors of degree d have coefficients bounded by the
    Landau-Mignotte bound 2^d * ||p||_2; constant terms must divide p(0) and
    candidate values at 1 and -1 must divide p(1) and p(-1).  The candidates
    of one constant term are tried as a block; BudgetExceeded is raised
    before a block that would take the count tried past
    FACTOR_CANDIDATE_CAP.
    """
    n = p.degree
    if n > degree_cap:
        raise DegreeCapExceeded(f"degree {n} above cap {degree_cap}")
    if n == 1:
        return True
    p0 = p(0)
    if p0 == 0:
        return False
    p1 = p(1)
    pm1 = p(-1)
    if p1 == 0 or pm1 == 0:
        return False
    norm2 = _norm2_ceil(p.coeffs)
    tried = 0
    for d in range(1, n // 2 + 1):
        bound = (1 << d) * norm2
        mid_range = range(-bound, bound + 1)
        block = len(mid_range) ** (d - 1)
        for const in _divisors_signed(p0, bound):
            tried += block
            if tried > FACTOR_CANDIDATE_CAP:
                raise BudgetExceeded(f"irreducibility test of {p} needs more "
                                     f"than {FACTOR_CANDIDATE_CAP} candidates")
            for mid in product(mid_range, repeat=d - 1):
                g = (1,) + mid + (const,)
                g1 = sum(g)
                if g1 == 0 or p1 % g1 != 0:
                    continue
                gm1 = sum(c if (d - i) % 2 == 0 else -c for i, c in enumerate(g))
                if gm1 == 0 or pm1 % gm1 != 0:
                    continue
                _, rem = _poly_divmod_monic(p.coeffs, g)
                if not any(rem):
                    return False
    return True


# ---------------------------------------------------------------------------
# Hermite and Smith normal forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class HNFBasis:
    """Row Hermite normal form basis of a full-rank sublattice of Z^n."""

    rows: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        rows = tuple(tuple(int(x) for x in r) for r in self.rows)
        object.__setattr__(self, "rows", rows)
        n = len(rows)
        for i, r in enumerate(rows):
            if len(r) != n:
                raise ValueError("HNF basis must be square")
            if r[i] <= 0:
                raise ValueError("HNF pivots must be positive")
            if any(r[j] != 0 for j in range(i)):
                raise ValueError("HNF basis must be upper triangular")
        for j in range(n):
            for i in range(j):
                if not 0 <= rows[i][j] < rows[j][j]:
                    raise ValueError("entries above a pivot must be reduced")

    @property
    def n(self) -> int:
        return len(self.rows)

    def determinant(self) -> int:
        out = 1
        for i in range(self.n):
            out *= self.rows[i][i]
        return out

    def contains(self, vec) -> bool:
        """Membership: vec has integer coordinates in this basis."""
        return self.coordinates(vec) is not None

    def coordinates(self, vec):
        """Integer coordinates of vec in this basis, or None.

        Triangular solve: step i zeroes entry i of the residual and touches
        only later entries, so the divisibility checks decide membership.
        """
        v = list(vec)
        n = self.n
        coords = []
        for i, row in enumerate(self.rows):
            q, r = divmod(v[i], row[i])
            if r:
                return None
            coords.append(q)
            if q:
                for j in range(i + 1, n):
                    v[j] -= q * row[j]
        return tuple(coords)


def _echelon_insert(basis, vec):
    """Insert vec into an echelon list of rows, returning nothing.

    basis maps pivot column -> row; rows are not yet sign- or
    above-pivot-normalized.
    """
    v = list(vec)
    n = len(v)
    j = 0
    while j < n:
        if v[j] == 0:
            j += 1
            continue
        if j not in basis:
            basis[j] = v
            return
        row = basis[j]
        a, b = row[j], v[j]
        if b % a == 0:
            q = b // a
            for k in range(j, n):
                v[k] -= q * row[k]
        else:
            g, x, y = xgcd(a, b)
            ag, bg = a // g, b // g
            for k in range(j, n):
                rk, vk = row[k], v[k]
                row[k] = x * rk + y * vk
                v[k] = ag * vk - bg * rk
        # v[j] is now 0; continue with the next column
        j += 1


def hnf(rows) -> HNFBasis:
    """Row HNF basis of the lattice spanned by the given integer vectors.

    Raises RankDeficient when the span has rank below the ambient dimension.
    """
    rows = [list(r) for r in rows]
    if not rows:
        raise RankDeficient("no generators")
    n = len(rows[0])
    basis = {}
    for r in rows:
        if len(r) != n:
            raise ValueError("generators must share a common length")
        _echelon_insert(basis, r)
    if len(basis) != n:
        raise RankDeficient(f"rank {len(basis)} < {n}")
    out = [basis[j] for j in range(n)]
    for i in range(n):
        if out[i][i] < 0:
            out[i] = [-x for x in out[i]]
    for j in range(n):
        for i in range(j):
            q = out[i][j] // out[j][j]
            if q:
                for k in range(j, n):
                    out[i][k] -= q * out[j][k]
    return HNFBasis(tuple(tuple(r) for r in out))


@dataclass(frozen=True)
class SNFResult:
    """Diagonal d_1 | d_2 | ... | d_n with unimodular U, V, U*A*V = diag."""

    diagonal: tuple[int, ...]
    u: IntMatrix
    v: IntMatrix


def _echelon_pass(s, t):
    """Row echelon form of [S | T] by _echelon_insert, split back into the
    square S and T.  [S | T] must have full row rank, so no row is lost."""
    basis = {}
    for r, w in zip(s, t):
        _echelon_insert(basis, r + w)
    n = len(s)
    rows = [basis[j] for j in sorted(basis)]
    return [r[:n] for r in rows], [r[n:] for r in rows]


def snf(a: IntMatrix) -> SNFResult:
    """Smith normal form with transformation matrices.

    Alternates the row echelon forms of [S | U] and of [S^T | V^T], starting
    from S = A and U = V = I, until S is diagonal (Kannan-Bachem, SIAM J.
    Comput. 8, 1979; Cohen, GTM 138, 2.4.4).  Each pass is a unimodular
    transform of the rows, so U A V = S throughout.  While some d_i does
    not divide a later d_j, row j is added to row i and the passes resume:
    the next column pass replaces d_i by gcd(d_i, d_j).  Last, rows with a
    negative d_i are negated.
    """
    n = a.n
    s = [list(r) for r in a.rows]
    u = [list(r) for r in IntMatrix.identity(n).rows]
    vt = [list(r) for r in IntMatrix.identity(n).rows]
    while True:
        s, u = _echelon_pass(s, u)
        st, vt = _echelon_pass([list(c) for c in zip(*s)], vt)
        s = [list(r) for r in zip(*st)]
        if any(s[i][j] for i in range(n) for j in range(n) if i != j):
            continue
        # the nonzero d_i come first: each pass sorts zero rows last
        bad = next(((i, j) for i in range(n) for j in range(i + 1, n)
                    if s[i][i] and s[j][j] % s[i][i]), None)
        if bad is None:
            break
        i, j = bad
        s[i] = [x + y for x, y in zip(s[i], s[j])]
        u[i] = [x + y for x, y in zip(u[i], u[j])]
    for i in range(n):
        if s[i][i] < 0:
            s[i] = [-x for x in s[i]]
            u[i] = [-x for x in u[i]]
    return SNFResult(tuple(s[i][i] for i in range(n)),
                     IntMatrix(tuple(tuple(r) for r in u)),
                     IntMatrix(tuple(zip(*vt))))


# ---------------------------------------------------------------------------
# Arithmetic mod a prime
# ---------------------------------------------------------------------------

def primes():
    """The primes in increasing order, without end: a sieve of Eratosthenes
    run on one segment of 2^15 integers at a time."""
    found = []
    lo, size = 2, 1 << 15
    while True:
        hi = lo + size
        seg = bytearray([1]) * size
        for q in found:
            if q * q >= hi:
                break
            start = max(q * q, -(-lo // q) * q) - lo
            seg[start::q] = bytes(len(range(start, size, q)))
        for i in range(size):
            if seg[i]:
                q = lo + i
                found.append(q)
                yield q
                if q * q < hi:  # its multiples later in this segment
                    start = q * q - lo
                    seg[start::q] = bytes(len(range(start, size, q)))
        lo = hi


def kernel_mod_p(rows, p: int):
    """Basis of the right kernel over F_p of the integer matrix with these
    rows, entries in [0, p).

    Gauss-Jordan to reduced row echelon form; one vector per free column f,
    with entry 1 at f, 0 at the other free columns.
    """
    m = [[x % p for x in r] for r in rows]
    ncols = len(m[0])
    pivots = []
    for c in range(ncols):
        r = len(pivots)
        top = next((i for i in range(r, len(m)) if m[i][c]), None)
        if top is None:
            continue
        m[r], m[top] = m[top], m[r]
        inv = pow(m[r][c], -1, p)
        pivot_row = m[r] = [x * inv % p for x in m[r]]
        for i, row in enumerate(m):
            f = row[c]
            if f and i != r:
                m[i] = [(x - f * y) % p for x, y in zip(row, pivot_row)]
        pivots.append(c)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = [0] * ncols
        vec[f] = 1
        for i, c in enumerate(pivots):
            vec[c] = -m[i][f] % p
        basis.append(tuple(vec))
    return basis


# Polynomials over F_p below are lists, highest degree first, entries in
# [0, p), without leading zeros: [] is zero.

def _add_mod_p(a, b, p):
    if len(a) < len(b):
        a, b = b, a
    k = len(a) - len(b)
    return _trim(a[:k] + [(x + y) % p for x, y in zip(a[k:], b)])


def _rem_mod_p(a, m, p):
    """Remainder of a by the monic m."""
    a = [x % p for x in a]
    dm = len(m) - 1
    for i in range(len(a) - dm):
        c = a[i]
        if c:
            for j in range(1, len(m)):
                a[i + j] = (a[i + j] - c * m[j]) % p
    return _trim(a[max(0, len(a) - dm):])


def _mul_mod_p(a, b, m, p):
    """a * b reduced by the monic m."""
    if not a or not b:
        return []
    prod = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                prod[i + j] += x * y
    return _rem_mod_p(prod, m, p)


def _pow_mod_p(a, e: int, m, p):
    """a^e reduced by the monic m, by repeated squaring."""
    out, a = _rem_mod_p([1], m, p), _rem_mod_p(a, m, p)
    while e:
        if e & 1:
            out = _mul_mod_p(out, a, m, p)
        e >>= 1
        if e:
            a = _mul_mod_p(a, a, m, p)
    return out


def _monic_gcd_mod_p(a, b, p):
    while b:
        inv = pow(b[0], -1, p)
        b = [x * inv % p for x in b]
        a, b = b, _rem_mod_p(a, b, p)
    return a


def _quot_mod_p(a, m, p):
    """a / m for a monic m that divides a."""
    return [x % p for x in _poly_divmod_monic(a, m)[0]]


def _equal_degree_split(g, d: int, p: int, rng):
    """The monic irreducible factors of g, a product of distinct ones of
    degree d over F_p (Cantor-Zassenhaus; Cohen, GTM 138, 3.4.6-3.4.7).

    For random a of degree < deg g, gcd(b, g) is a proper factor of g about
    half the time, with b = a^((p^d - 1)/2) - 1 for odd p and the trace
    a + a^2 + ... + a^(2^(d-1)) for p = 2.
    """
    if len(g) - 1 == d:
        return [tuple(g)]
    while True:
        a = _trim([rng.randrange(p) for _ in range(len(g) - 1)])
        if p == 2:
            b = t = a
            for _ in range(d - 1):
                t = _mul_mod_p(t, t, g, p)
                b = _add_mod_p(b, t, p)
        else:
            b = _add_mod_p(_pow_mod_p(a, (p ** d - 1) // 2, g, p), [p - 1], p)
        s = _monic_gcd_mod_p(g, b, p)
        if 1 < len(s) < len(g):
            return (_equal_degree_split(s, d, p, rng)
                    + _equal_degree_split(_quot_mod_p(g, s, p), d, p, rng))


def factors_mod_p(poly: MonicIntPoly, p: int, bound: int):
    """The distinct monic irreducible factors g of poly mod p with
    p^deg(g) <= bound, coefficients in [0, p), highest degree first, in
    (degree, coefficients) order.

    Distinct-degree factorization: once the factors of degree < d are
    divided out of f, gcd(x^(p^d) - x, f) is the product of the distinct
    factors of degree d, which equal-degree splitting separates.  The
    splitting draws from a generator seeded with p; only its running time
    depends on the draws.
    """
    f = [c % p for c in poly.coeffs]
    rng = random.Random(p)
    out = []
    h = [1, 0]  # x^(p^d) mod f, for d = 0, 1, ...
    d = 1
    while p ** d <= bound and len(f) > d:
        h = _pow_mod_p(h, p, f, p)
        g = _monic_gcd_mod_p(f, _add_mod_p(h, [p - 1, 0], p), p)
        if len(g) > 1:
            found = sorted(_equal_degree_split(g, d, p, rng))
            out.extend(found)
            for q in found:
                while not any(x % p for x in _poly_divmod_monic(f, q)[1]):
                    f = _quot_mod_p(f, q, p)
        d += 1
    return out
