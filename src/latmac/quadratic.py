"""Real quadratic machinery: the Pell equation a^2 - d b^2 = 4, the
4n^2 + 1 family, and class numbers of maximal quadratic orders computed
through the ideal class monoid enumerator.

The Pell solver goes through the continued fraction of (b0 + sqrt(D))/2,
which produces the fundamental unit of the quadratic order of discriminant
D; a naive b-scan stays available as the test oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isqrt

from .errors import BudgetExceeded, CertificationError, InvalidD
from .exactla import IntMatrix, MonicIntPoly, charpoly
from .ideal import cf_period, class_monoid
from .latimer import order_for

# continued-fraction steps fundamental_unit allows before giving up
_UNIT_STEP_CAP = 10 ** 6


def is_squarefree(d: int) -> bool:
    if d % 4 == 0:
        return False
    f = 3
    while f * f <= d:
        if d % (f * f) == 0:
            return False
        f += 2
    return True


@dataclass(frozen=True)
class PellSolution:
    d: int
    a: int
    b: int
    minimal: bool = True

    def __post_init__(self):
        if self.a * self.a - self.d * self.b * self.b != 4:
            raise CertificationError(
                f"a^2 - d b^2 != 4 for (d, a, b) = ({self.d}, {self.a}, {self.b})")


@dataclass(frozen=True)
class QuadOrderInfo:
    d: int
    maximal_order_disc: int
    class_number: int
    matrix: IntMatrix


def fundamental_unit(disc: int) -> tuple[int, int, int]:
    """Fundamental unit (t + u sqrt(disc))/2 of the real quadratic order of
    the given discriminant: returns (t, u, norm) with t^2 - disc u^2 = 4*norm.

    Runs the continued fraction of x0 = (b0 + sqrt(disc))/2 until the (P, Q)
    state recurs, then applies the pure-period convergent formula to the
    period's partial quotients: the resulting number stabilizes the lattice
    Z + Z*x_m, whose multiplicator ring is exactly the order of this
    discriminant.
    """
    if disc <= 0 or disc % 4 not in (0, 1):
        raise InvalidD(f"{disc} is not a positive quadratic discriminant")
    s = isqrt(disc)
    if s * s == disc:
        raise InvalidD(f"{disc} is a perfect square")
    try:
        trail, start = cf_period(disc % 2, 2, disc, _UNIT_STEP_CAP)
    except BudgetExceeded:
        raise InvalidD(f"continued fraction for disc {disc} did not cycle") from None
    period = trail[start:]
    q_prev_conv, q_conv = 1, 0
    for _, _, a in period:
        q_prev_conv, q_conv = q_conv, a * q_conv + q_prev_conv
    # unit = q_conv * x_m + q_prev_conv with x_m = (pm + sqrt(disc))/qm
    pm, qm, _ = period[0]
    t, t_rem = divmod(2 * (q_conv * pm + q_prev_conv * qm), qm)
    u, u_rem = divmod(2 * q_conv, qm)
    t, u = abs(t), abs(u)
    norm = -1 if len(period) % 2 else 1
    if t_rem or u_rem or t * t - disc * u * u != 4 * norm:
        raise CertificationError(f"fundamental unit check fails for disc {disc}")
    return t, u, norm


def solve_pell4(d: int) -> PellSolution:
    """Minimal positive solution of a^2 - d b^2 = 4.

    For d = 1 mod 4 this is the smallest norm-one unit of the maximal order
    written over sqrt(d); otherwise twice the fundamental solution of the
    unit Pell equation x^2 - d y^2 = 1.
    """
    if d <= 0:
        raise InvalidD("d must be positive")
    if isqrt(d) ** 2 == d:
        raise InvalidD(f"{d} is a perfect square")
    if d % 4 == 1:
        t, u, norm = fundamental_unit(d)
        if norm == -1:
            t, u = (t * t + d * u * u) // 2, t * u
        return PellSolution(d, t, u)
    t, u, norm = fundamental_unit(4 * d)
    if norm == -1:
        t, u = (t * t + 4 * d * u * u) // 2, t * u
    # (t + u sqrt(4d))/2 = t/2 + u sqrt(d); a = t, b = 2u over sqrt(d)
    return PellSolution(d, t, 2 * u)


def solve_pell4_scan(d: int, b_cap: int = 2 * 10 ** 7) -> PellSolution:
    """Brute-force b-scan oracle for the minimal solution.

    Scans b = 1, 2, ... and reports the first b with d b^2 + 4 a perfect
    square.  Candidate squares are screened in vectorized int64 chunks; every
    hit is re-verified in exact Python integers before being returned.
    """
    if d <= 0 or isqrt(d) ** 2 == d:
        raise InvalidD(f"invalid d = {d}")
    if d * b_cap * b_cap + 4 >= 1 << 62:
        raise InvalidD("scan range too large for int64 screening")
    import numpy as np

    chunk = 1 << 17
    lo = 1
    while lo <= b_cap:
        hi = min(lo + chunk, b_cap + 1)
        bs = np.arange(lo, hi, dtype=np.int64)
        val = d * bs * bs + 4
        root = np.sqrt(val.astype(np.float64)).astype(np.int64)
        hit = np.zeros(len(bs), dtype=bool)
        for ds in (-2, -1, 0, 1, 2):
            cand = root + ds
            hit |= cand * cand == val
        for idx in np.nonzero(hit)[0]:
            b = int(bs[idx])
            a2 = d * b * b + 4
            a = isqrt(a2)
            if a * a == a2:
                return PellSolution(d, a, b)
        lo = hi
    raise InvalidD(f"no solution with b <= {b_cap}")


def mw_family(count: int) -> list[int]:
    """First squarefree integers of the form 4 n^2 + 1."""
    if count < 1:
        raise ValueError("count must be positive")
    out = []
    n = 1
    while len(out) < count:
        d = 4 * n * n + 1
        if is_squarefree(d):
            out.append(d)
        n += 1
    return out


def maximal_order_poly(d: int) -> MonicIntPoly:
    """Monic defining polynomial of the maximal order of Q(sqrt(d))."""
    if d % 4 == 1:
        return MonicIntPoly((1, -1, -(d - 1) // 4))
    return MonicIntPoly((1, 0, -d))


def quad_class_number(d: int) -> QuadOrderInfo:
    """Class number of the maximal order of Q(sqrt(d)) via ICM enumeration,
    paired with the Pell solution matrix [[-a, -1], [1, 0]]."""
    if d <= 1 or not is_squarefree(d):
        raise InvalidD(f"d = {d} must be squarefree and > 1")
    chi = maximal_order_poly(d)
    disc = d if d % 4 == 1 else 4 * d
    order = order_for(chi)
    if order.disc != disc:
        raise CertificationError(f"order discriminant {order.disc}, expected {disc}")
    cm = class_monoid(order)
    pell = solve_pell4(d)
    mat = IntMatrix(((-pell.a, -1), (1, 0)))
    if charpoly(mat) != MonicIntPoly((1, pell.a, 1)):
        raise CertificationError("Pell matrix has the wrong charpoly")
    return QuadOrderInfo(d, disc, cm.picard_size, mat)


def mw_comparison_value(d: int) -> float:
    """Display-only growth comparison sqrt(d) loglog(d) / log(d)."""
    import math

    return math.sqrt(d) * math.log(math.log(d)) / math.log(d)


def growth_report(count: int):
    """Rows (d, class_number, comparison value) for the 4n^2+1 family.

    Class numbers are exact; the comparison column is a float for display
    and no per-row inequality is asserted.
    """
    rows = []
    for d in mw_family(count):
        info = quad_class_number(d)
        rows.append((d, info.class_number, mw_comparison_value(d)))
    return rows
