import random
from fractions import Fraction

import pytest

from latmac.errors import ReduciblePolynomial
from latmac.exactla import MonicIntPoly
from latmac.order import FieldElement, Order, OrderElement

GOLDEN = MonicIntPoly((1, -1, -1))
ROOT10 = MonicIntPoly((1, 0, -10))
CUBIC = MonicIntPoly((1, 0, -1, -1))


def naive_mul(order, a, b):
    """Oracle: schoolbook polynomial product followed by long division by chi."""
    n = order.n
    conv = [0] * (2 * n - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            conv[i + j] += x * y
    # divide by chi, highest degree first
    chi_low = list(reversed(order.chi.coeffs))
    for k in range(len(conv) - 1, n - 1, -1):
        lead = conv[k]
        if lead:
            for i in range(n + 1):
                conv[k - n + i] -= lead * chi_low[i]
    return tuple(conv[:n])


def test_reducible_rejected():
    with pytest.raises(ReduciblePolynomial):
        Order(MonicIntPoly((1, 0, -1)))


def test_companion_has_right_charpoly():
    from latmac.exactla import charpoly, companion
    for chi in (GOLDEN, ROOT10, CUBIC):
        o = Order(chi)
        assert charpoly(companion(o.chi)) == chi
        assert o.disc != 0


def test_mul_examples():
    o = Order(GOLDEN)
    assert (o.xi() * o.xi()).coords == (1, 1)
    a = o.element((3, -2))
    assert (o.one() * a) == a
    o10 = Order(ROOT10)
    assert (o10.element((1, 1)) * o10.element((1, -1))).coords == (-9, 0)


def test_mul_matches_naive_division_oracle():
    rng = random.Random(23)
    for chi in (GOLDEN, ROOT10, CUBIC, MonicIntPoly((1, 0, 0, -1, -1))):
        o = Order(chi)
        for _ in range(25):
            a = tuple(rng.randint(-10, 10) for _ in range(o.n))
            b = tuple(rng.randint(-10, 10) for _ in range(o.n))
            assert (o.element(a) * o.element(b)).coords == naive_mul(o, a, b)


def test_ring_axioms_random():
    rng = random.Random(29)
    for chi in (GOLDEN, CUBIC, MonicIntPoly((1, 1, 0, -2, 3))):
        o = Order(chi)
        for _ in range(20):
            a = o.element([rng.randint(-10, 10) for _ in range(o.n)])
            b = o.element([rng.randint(-10, 10) for _ in range(o.n)])
            c = o.element([rng.randint(-10, 10) for _ in range(o.n)])
            assert (a * b) * c == a * (b * c)
            assert a * b == b * a
            assert a * (b + c) == a * b + a * c


def test_inverse_examples():
    o10 = Order(ROOT10)
    assert o10.one().to_field().inverse().coords == (1, 0)
    assert o10.xi().to_field().inverse().coords == (0, Fraction(1, 10))
    o = Order(GOLDEN)
    assert o.xi().to_field().inverse().coords == (-1, 1)
    with pytest.raises(ZeroDivisionError):
        o.zero().to_field().inverse()


def test_inverse_random():
    rng = random.Random(31)
    for chi in (GOLDEN, ROOT10, CUBIC):
        o = Order(chi)
        for _ in range(20):
            coords = tuple(Fraction(rng.randint(-8, 8), rng.randint(1, 5))
                           for _ in range(o.n))
            x = FieldElement(o, coords)
            if x.is_zero():
                continue
            assert (x * x.inverse()).coords == (Fraction(1),) + (Fraction(0),) * (o.n - 1)


def test_norm_examples():
    o10 = Order(ROOT10)
    assert o10.one().norm() == 1
    assert o10.xi().norm() == -10
    o = Order(GOLDEN)
    assert o.element((2, 1)).norm() == 5


def test_norm_multiplicative_and_integer_power():
    rng = random.Random(37)
    for chi in (GOLDEN, ROOT10, CUBIC):
        o = Order(chi)
        for _ in range(20):
            a = o.element([rng.randint(-6, 6) for _ in range(o.n)]).to_field()
            b = o.element([rng.randint(-6, 6) for _ in range(o.n)]).to_field()
            assert (a * b).norm() == a.norm() * b.norm()
        m = rng.randint(-9, 9)
        coords = (m,) + (0,) * (o.n - 1)
        assert o.element(coords).norm() == Fraction(m) ** o.n


def newton_power_sums(chi, count):
    """Power sums of the roots via the Newton identities."""
    n = chi.degree
    # e_k with signs: chi = X^n + c_{n-1} X^{n-1} + ...; e_k = (-1)^k c_{n-k}
    e = [Fraction(1)] + [Fraction((-1) ** k * chi.coeffs[k]) for k in range(1, n + 1)]
    p = [Fraction(n)]
    for k in range(1, count + 1):
        acc = Fraction(0)
        for i in range(1, min(k - 1, n) + 1):
            acc += (-1) ** (i - 1) * e[i] * p[k - i]
        if k <= n:
            acc += (-1) ** (k - 1) * k * e[k]
        p.append(acc)
    return p


def test_trace_matches_power_sum_recursion():
    for chi in (GOLDEN, ROOT10, CUBIC, MonicIntPoly((1, -2, 0, 1, 7))):
        o = Order(chi)
        p = newton_power_sums(chi, o.n - 1)
        for k in range(o.n):
            coords = tuple(1 if i == k else 0 for i in range(o.n))
            assert o.element(coords).to_field().trace() == p[k]


def test_mul_matrix_det_is_norm():
    rng = random.Random(41)
    from latmac.exactla import det_bareiss
    for chi in (GOLDEN, CUBIC):
        o = Order(chi)
        for _ in range(15):
            a = o.element([rng.randint(-5, 5) for _ in range(o.n)]).to_field()
            rows = [[int(c) for c in r] for r in a.order.mul_matrix(a.coords)]
            assert det_bareiss(rows) == a.norm()
