"""Cross-validation of the class-monoid enumerator against independent
sources: reduced binary quadratic forms (imaginary), published class-number
tables (both signatures), and hand-checked cubic fields."""

from fractions import Fraction
from math import gcd, isqrt

import pytest

from latmac.exactla import MonicIntPoly
from latmac.ideal import SearchBudget, class_monoid
from latmac.latimer import order_for
from latmac.quadratic import quad_class_number


def reduced_form_count(disc):
    """Primitive reduced positive definite forms of the given discriminant.

    (a, b, c) with b^2 - 4ac = disc, |b| <= a <= c, and b >= 0 when |b| = a
    or a = c.  Classical and fully independent of the lattice machinery.
    """
    assert disc < 0 and disc % 4 in (0, 1)
    count = 0
    a = 1
    while 3 * a * a <= -disc:
        for b in range(-a + 1, a + 1):
            num = b * b - disc
            if num % (4 * a):
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            if gcd(gcd(a, abs(b)), c) == 1:
                count += 1
        a += 1
    return count


def poly_for_disc(disc):
    if disc % 4 == 0:
        return MonicIntPoly((1, 0, -disc // 4))
    return MonicIntPoly((1, -1, (1 - disc) // 4))


IMAGINARY_TABLE = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -15: 2, -20: 2, -23: 3, -24: 2,
    -31: 3, -35: 2, -39: 4, -40: 2, -47: 5, -56: 4, -68: 4, -71: 7,
    -84: 4, -95: 8, -104: 6, -116: 6, -120: 4, -136: 4, -152: 6,
    -155: 4, -184: 4, -199: 9,
}

REAL_TABLE = {
    5: 1, 13: 1, 17: 1, 21: 1, 29: 1, 33: 1, 37: 1, 41: 1, 53: 1, 57: 1,
    61: 1, 65: 2, 69: 1, 73: 1, 77: 1, 85: 2, 89: 1, 93: 1, 97: 1,
    101: 1, 105: 2, 109: 1, 113: 1, 145: 4, 185: 2, 197: 1,
}


def is_fundamental(d):
    if d % 4 == 1:
        m = d
    elif d % 16 in (8, 12):
        m = d // 4
    else:
        return False
    return all(m % (p * p) for p in range(2, isqrt(m) + 1))


def kronecker(d, p):
    """Kronecker symbol (d/p) for a prime p."""
    if p == 2:
        return 0 if d % 2 == 0 else (1 if d % 8 in (1, 7) else -1)
    r = pow(d, (p - 1) // 2, p)
    return -1 if r == p - 1 else r


def unit_scan(disc):
    """Fundamental unit (t + u sqrt(disc))/2: the least u > 0 with
    t^2 - disc u^2 = -4 or 4, by a plain scan."""
    u = 1
    while True:
        for n in (-4, 4):
            t = isqrt(disc * u * u + n)
            if t * t == disc * u * u + n:
                return t, u
        u += 1


def unit_index(d_k, f):
    """[O_K^x : O_f^x]: the least k with eps^k in Z + f O_K, which for
    eps^k = (t + u sqrt(d_K))/2 means f | u."""
    t1, u1 = unit_scan(d_k)
    t, u, k = t1, u1, 1
    while u % f:
        t, u, k = (t * t1 + d_k * u * u1) // 2, (t * u1 + u * t1) // 2, k + 1
    return k


NONMAXIMAL_REAL = [(f * f * d_k, d_k, f)
                   for d_k in range(5, 101) if is_fundamental(d_k)
                   for f in range(2, isqrt(400 // d_k) + 1)]


@pytest.mark.parametrize("disc,d_k,f", NONMAXIMAL_REAL)
def test_nonmaximal_real_picard_matches_conductor_formula(disc, d_k, f):
    h_k = class_monoid(order_for(poly_for_disc(d_k))).picard_size
    order = order_for(poly_for_disc(disc))
    assert order.disc == disc
    euler = Fraction(f)
    for p in range(2, f + 1):
        if f % p == 0 and all(p % r for r in range(2, p)):
            euler *= 1 - Fraction(kronecker(d_k, p), p)
    assert class_monoid(order).picard_size == h_k * euler / unit_index(d_k, f)


@pytest.mark.parametrize("disc,h", sorted(IMAGINARY_TABLE.items()))
def test_imaginary_class_numbers_match_forms_oracle(disc, h):
    assert reduced_form_count(disc) == h
    order = order_for(poly_for_disc(disc))
    assert order.disc == disc
    cm = class_monoid(order)
    assert cm.picard_size == h
    assert cm.unknown_pairs == 0


@pytest.mark.parametrize("d,h", sorted(REAL_TABLE.items()))
def test_real_class_numbers_match_published_table(d, h):
    assert quad_class_number(d).class_number == h


def test_cubic_fields_certified():
    for coeffs, expected in [((1, 0, 0, -2), 1), ((1, 0, 1, -1), 1)]:
        cm = class_monoid(order_for(MonicIntPoly(coeffs)))
        assert cm.size == expected
        assert cm.unknown_pairs == 0


def test_cubic_class_number_two_best_effort():
    # smallest complex cubic field with class number 2 (disc -283); the two
    # classes separate correctly but inequivalence of degree-3 ideals with a
    # common multiplicator ring stays Unknown, so the result is flagged
    cm = class_monoid(order_for(MonicIntPoly((1, 0, 4, -1))),
                      budget=SearchBudget(coeff_bound=6))
    assert cm.size == 2
    assert cm.picard_size == 2
    assert cm.unknown_pairs > 0
