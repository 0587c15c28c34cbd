"""Arithmetic in the monogenic order Z[xi] = Z[X]/(chi) and its fraction field.

Elements live on the power basis 1, xi, ..., xi^(n-1).  OrderElement carries
integer coordinates, FieldElement rational ones; both reduce products through
the same precomputed table of xi-power coordinates.  Order.mul_matrix is the
matrix of multiplication by an element.  Norms and inverses read off it,
cleared of denominators by clear_denominators: the norm is its Bareiss
determinant and the inverse is one exact integer solve (exactla.solve), so
no polynomial Euclid runs over Q.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import ReduciblePolynomial
from .exactla import (
    MonicIntPoly, det_bareiss, discriminant, is_irreducible, solve,
)


def clear_denominators(rows):
    """(int_rows, den): den is the least positive integer that makes every
    entry of rows integral, and int_rows is den * rows as lists of ints."""
    den = lcm(*(c.denominator for r in rows for c in r))
    return [[c.numerator * (den // c.denominator) for c in r] for r in rows], den


class Order:
    """The ring Z[xi] for xi a root of a monic irreducible polynomial."""

    __slots__ = ("chi", "n", "disc", "_xi_powers")

    def __init__(self, chi: MonicIntPoly, *, check=True, degree_cap=None):
        if check:
            kwargs = {} if degree_cap is None else {"degree_cap": degree_cap}
            if not is_irreducible(chi, **kwargs):
                raise ReduciblePolynomial(f"{chi} is reducible over Z")
        self.chi = chi
        self.n = chi.degree
        self.disc = discriminant(chi)
        # coordinates of xi^k for k = 0 .. 2n-2, low-degree-first
        n = self.n
        low = list(reversed(chi.coeffs))  # c0, ..., c_{n-1}, 1
        powers = [[1 if i == k else 0 for i in range(n)] for k in range(n)]
        for _ in range(n - 1):
            prev = powers[-1]
            shifted = [0] + prev[:-1]
            head = prev[-1]
            if head:
                shifted = [s - head * low[i] for i, s in enumerate(shifted)]
            powers.append(shifted)
        self._xi_powers = tuple(tuple(row) for row in powers)

    def __eq__(self, other):
        return isinstance(other, Order) and self.chi == other.chi

    def __hash__(self):
        return hash(self.chi)

    def __repr__(self):
        return f"Order({self.chi})"

    def reduce_product(self, a, b):
        """Coordinates of the product of two coordinate vectors mod chi."""
        n = self.n
        conv = [0] * (2 * n - 1)
        for i, x in enumerate(a):
            if x:
                for j, y in enumerate(b):
                    if y:
                        conv[i + j] += x * y
        out = [0] * n
        for k, c in enumerate(conv):
            if c:
                pk = self._xi_powers[k]
                for i in range(n):
                    if pk[i]:
                        out[i] += c * pk[i]
        return out

    def xi_times(self, coords):
        """Coordinates of xi * element."""
        n = self.n
        head = coords[-1]
        out = [0] + list(coords[:-1])
        if head:
            pk = self._xi_powers[n]
            out = [o + head * p for o, p in zip(out, pk)]
        return out

    def mul_matrix(self, coords):
        """Rows k = coordinates of element * xi^k, for the element with the
        given coordinates: x -> x . rows is multiplication by it."""
        rows = [tuple(coords)]
        for _ in range(self.n - 1):
            rows.append(tuple(self.xi_times(rows[-1])))
        return rows

    def zero(self) -> "OrderElement":
        return OrderElement(self, (0,) * self.n)

    def one(self) -> "OrderElement":
        return OrderElement(self, (1,) + (0,) * (self.n - 1))

    def xi(self) -> "OrderElement":
        return OrderElement(self, tuple(1 if i == 1 else 0 for i in range(self.n)))

    def element(self, coords) -> "OrderElement":
        return OrderElement(self, tuple(int(c) for c in coords))


@dataclass(frozen=True)
class OrderElement:
    """Element of Z[xi] with integer power-basis coordinates."""

    order: Order
    coords: tuple[int, ...]

    def __post_init__(self):
        if len(self.coords) != self.order.n:
            raise ValueError("coordinate length mismatch")

    def __add__(self, other):
        return OrderElement(self.order, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return OrderElement(self.order, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return OrderElement(self.order, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, int):
            return OrderElement(self.order, tuple(a * other for a in self.coords))
        if self.order is not other.order and self.order != other.order:
            raise ValueError("elements of different orders")
        return OrderElement(self.order, tuple(self.order.reduce_product(self.coords, other.coords)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)

    def to_field(self) -> "FieldElement":
        return FieldElement(self.order, tuple(Fraction(c) for c in self.coords))

    def norm(self):
        return self.to_field().norm()

    def __repr__(self):
        return f"OrderElement{self.coords}"


@dataclass(frozen=True)
class FieldElement:
    """Element of K = Q[X]/(chi) with rational power-basis coordinates."""

    order: Order
    coords: tuple[Fraction, ...]

    def __post_init__(self):
        if len(self.coords) != self.order.n:
            raise ValueError("coordinate length mismatch")
        object.__setattr__(self, "coords", tuple(Fraction(c) for c in self.coords))

    def __add__(self, other):
        return FieldElement(self.order, tuple(a + b for a, b in zip(self.coords, other.coords)))

    def __sub__(self, other):
        return FieldElement(self.order, tuple(a - b for a, b in zip(self.coords, other.coords)))

    def __neg__(self):
        return FieldElement(self.order, tuple(-a for a in self.coords))

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return FieldElement(self.order, tuple(a * other for a in self.coords))
        return FieldElement(self.order, tuple(self.order.reduce_product(self.coords, other.coords)))

    __rmul__ = __mul__

    def is_zero(self) -> bool:
        return not any(self.coords)

    def norm(self) -> Fraction:
        """Determinant of multiplication by self on the power basis."""
        int_rows, den = clear_denominators(self.order.mul_matrix(self.coords))
        return Fraction(det_bareiss(int_rows), den ** self.order.n)

    def trace(self) -> Fraction:
        rows = self.order.mul_matrix(self.coords)
        return sum(rows[i][i] for i in range(self.order.n))

    def inverse(self) -> "FieldElement":
        """Multiplicative inverse y: y . R = e_0 for R = mul_matrix(self).

        With A = den * R its cleared integer matrix, A^T y^T = den * e_0, so
        solve gives det(A) * y; a singular A means self shares a factor with
        chi and raises ZeroDivisionError.
        """
        if self.is_zero():
            raise ZeroDivisionError("zero has no inverse")
        int_rows, den = clear_denominators(self.order.mul_matrix(self.coords))
        rhs = [(den,)] + [(0,)] * (self.order.n - 1)
        d, y = solve(tuple(zip(*int_rows)), rhs)
        return FieldElement(self.order, tuple(Fraction(v, d) for v, in y))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        return self * other.inverse()

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coords)

    def __repr__(self):
        return f"FieldElement{tuple(str(c) for c in self.coords)}"
