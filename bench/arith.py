"""The benchmark's own integer arithmetic, independent of latmac.

Input generation and output checks use only this module, so a defect in the
package cannot hide itself by also corrupting the reference values.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt


def is_square(n: int) -> bool:
    return n >= 0 and isqrt(n) ** 2 == n


def poly_disc(coeffs) -> int:
    """Discriminant of a monic quadratic or cubic, highest degree first."""
    if len(coeffs) == 3:
        _, b, c = coeffs
        return b * b - 4 * c
    _, a, b, c = coeffs
    return (a * a * b * b - 4 * b ** 3 - 4 * a ** 3 * c - 27 * c * c
            + 18 * a * b * c)


def is_irreducible(coeffs) -> bool:
    """Irreducibility over Q of a monic quadratic or cubic."""
    if len(coeffs) == 3:
        return not is_square(poly_disc(coeffs))
    c0 = coeffs[-1]
    if c0 == 0:
        return False
    roots = {d for d in range(1, abs(c0) + 1) if c0 % d == 0}
    return not any(_eval(coeffs, r) == 0 or _eval(coeffs, -r) == 0 for r in roots)


def _eval(coeffs, x):
    acc = 0
    for c in coeffs:
        acc = acc * x + c
    return acc


def form_class_number(d: int) -> int:
    """Number of reduced primitive positive definite forms of discriminant d < 0."""
    count = 0
    a = 1
    while 3 * a * a <= -d:
        for b in range(-a + 1, a + 1):
            num = b * b - d
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a or (c == a and b < 0):
                continue
            if gcd(gcd(a, b), c) == 1:
                count += 1
        a += 1
    return count


def monoid_size_imag(d: int) -> int:
    """Ideal classes of the imaginary quadratic order of discriminant d.

    Every fractional ideal of a quadratic order is invertible over its ring
    of multipliers, so the class monoid is the disjoint union of the Picard
    groups of the orders containing it: one for each square f^2 dividing d
    with d / f^2 again a discriminant.
    """
    total = 0
    f = 1
    while f * f <= -d:
        if d % (f * f) == 0 and (d // (f * f)) % 4 in (0, 1):
            total += form_class_number(d // (f * f))
        f += 1
    return total


def quad_lattice_count(coeffs, bound: int) -> int:
    """Number of xi-stable sublattices of Z[xi] with index at most bound,
    for xi a root of the monic quadratic X^2 + bX + c.

    The sublattice with row basis (d1, off), (0, d2) is stable when xi times
    each basis row has integer coordinates over the basis.
    """
    _, b, c = coeffs
    count = 0
    for d1 in range(1, bound + 1):
        for d2 in range(1, bound // d1 + 1):
            if c * d2 % d1:
                continue
            cd = c * d2 // d1
            for off in range(d2):
                if c * off % d1 or cd * off % d2:
                    continue
                if (d1 - b * off + c * off * off // d1) % d2 == 0:
                    count += 1
    return count


def cf_period(d: int) -> int:
    """Period of the continued fraction of (d % 2 + sqrt(d)) / 2, d > 0 non-square."""
    s = isqrt(d)
    p, q = d % 2, 2
    seen = {}
    step = 0
    while (p, q) not in seen:
        seen[(p, q)] = step
        a = (p + s) // q
        p = a * q - p
        q = (d - p * p) // q
        step += 1
    return step - seen[(p, q)]


# ---------------------------------------------------------------------------
# Integer matrices as tuples of row tuples
# ---------------------------------------------------------------------------

def mat_mul(a, b):
    cols = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(r, c)) for c in cols) for r in a)


def det(m) -> int:
    if len(m) == 2:
        return m[0][0] * m[1][1] - m[0][1] * m[1][0]
    return sum((-1) ** j * m[0][j] * det(tuple(r[:j] + r[j + 1:] for r in m[1:]))
               for j in range(len(m)))


def charpoly(m) -> tuple[int, ...]:
    """Characteristic polynomial det(X - M), highest degree first."""
    n = len(m)
    tr = sum(m[i][i] for i in range(n))
    if n == 2:
        return (1, -tr, det(m))
    minors = sum(m[i][i] * m[j][j] - m[i][j] * m[j][i]
                 for i in range(3) for j in range(i + 1, 3))
    return (1, -tr, minors, -det(m))


def identity(n):
    return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))


def random_unimodular(rng, n, steps):
    """A random P in GL_n(Z) with its inverse, from elementary row operations."""
    p, p_inv = [list(r) for r in identity(n)], [list(r) for r in identity(n)]
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        k = rng.choice((-2, -1, 1, 2))
        # P <- E P with E = I + k e_ij; P^-1 <- P^-1 E^-1
        p[i] = [x + k * y for x, y in zip(p[i], p[j])]
        for row in p_inv:
            row[j] -= k * row[i]
        if rng.random() < 0.25:
            p[i] = [-x for x in p[i]]
            for row in p_inv:
                row[i] = -row[i]
    return tuple(map(tuple, p)), tuple(map(tuple, p_inv))


def _xi_times(coeffs, v):
    """Coordinates (low degree first) of xi * v in Z[X]/(chi)."""
    low = list(reversed(coeffs[1:]))  # c0, ..., c_{n-1} of a monic chi
    head = v[-1]
    return tuple(([0] + list(v[:-1]))[i] - head * low[i] for i in range(len(v)))


def _hnf_solve(basis, v):
    """Integer coordinates of v over an upper triangular basis, or None."""
    v = list(v)
    out = []
    for i, row in enumerate(basis):
        if v[i] % row[i]:
            return None
        q = v[i] // row[i]
        out.append(q)
        v = [x - q * y for x, y in zip(v, row)]
    return tuple(out) if not any(v) else None


def sublattice_matrices(coeffs, max_index):
    """Matrices of multiplication by xi on the xi-stable sublattices of Z[xi]
    with index at most max_index, one matrix per sublattice.

    Each has characteristic polynomial chi; different sublattices reach
    different GL_n(Z)-conjugacy classes, which makes them inputs whose
    conjugacy is not known in advance.
    """
    n = len(coeffs) - 1
    out = []
    for m in range(1, max_index + 1):
        for diag in _chains(m, n):
            offs = [range(diag[j]) for i in range(n) for j in range(i + 1, n)]
            for choice in product(*offs):
                rows = [[0] * n for _ in range(n)]
                it = iter(choice)
                for i in range(n):
                    rows[i][i] = diag[i]
                    for j in range(i + 1, n):
                        rows[i][j] = next(it)
                mat = [_hnf_solve(rows, _xi_times(coeffs, r)) for r in rows]
                if all(r is not None for r in mat):
                    out.append(tuple(mat))
    return out


def _chains(m, k):
    if k == 1:
        yield (m,)
        return
    for d in range(1, m + 1):
        if m % d == 0:
            for rest in _chains(m // d, k - 1):
                yield (d,) + rest

