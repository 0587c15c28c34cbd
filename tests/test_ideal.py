import random
from fractions import Fraction

import pytest

from latmac.errors import ZeroIdeal
from latmac.exactla import MonicIntPoly
from latmac.ideal import (
    EQUIVALENT, INEQUIVALENT, UNKNOWN, class_monoid, colon, default_bound,
    ideal_from_generators, ideal_norm, is_equivalent, is_invertible,
    SearchBudget, make_ideal, mul_ideals, multiplicator_ring, principal_ideal,
    stable_sublattices, unit_ideal,
)
from latmac.order import FieldElement, Order

O10 = Order(MonicIntPoly((1, 0, -10)))
OGOLD = Order(MonicIntPoly((1, -1, -1)))
OGAUSS = Order(MonicIntPoly((1, 0, 1)))
O45 = Order(MonicIntPoly((1, 0, -45)))
OCUBIC = Order(MonicIntPoly((1, 0, -1, -1)))


def random_element(rng, order, span=6):
    while True:
        coords = tuple(rng.randint(-span, span) for _ in range(order.n))
        if any(coords):
            return order.element(coords).to_field()


def random_stable_ideal(rng, order, max_index=12):
    ideals = stable_sublattices(order, max_index)
    return rng.choice(ideals)


# ---------------------------------------------------------------------------
# construction and multiplication
# ---------------------------------------------------------------------------

def test_from_generators_examples():
    one = ideal_from_generators([O10.one().to_field()])
    assert one == unit_ideal(O10)
    p2 = ideal_from_generators([O10.element((2, 0)).to_field(),
                                O10.xi().to_field()])
    assert p2.den == 1 and p2.lattice.rows == ((2, 0), (0, 1))
    assert ideal_norm(p2) == 2
    half = ideal_from_generators([FieldElement(O10, (Fraction(1, 2), Fraction(0)))])
    assert half.den == 2 and half.lattice.rows == ((1, 0), (0, 1))
    with pytest.raises(ZeroIdeal):
        ideal_from_generators([O10.zero().to_field()])


def test_mul_unit_and_prime_square():
    p2 = ideal_from_generators([O10.element((2, 0)).to_field(),
                                O10.xi().to_field()])
    assert mul_ideals(p2, unit_ideal(O10)) == p2
    two = principal_ideal(O10.element((2, 0)).to_field())
    assert mul_ideals(p2, p2) == two


def test_mul_principals_random():
    rng = random.Random(43)
    for order in (O10, OGOLD, OCUBIC):
        for _ in range(10):
            x = random_element(rng, order)
            y = random_element(rng, order)
            assert mul_ideals(principal_ideal(x), principal_ideal(y)) == \
                principal_ideal(x * y)


def test_colon_examples():
    one = unit_ideal(O10)
    rng = random.Random(47)
    for _ in range(10):
        x = random_element(rng, O10)
        assert colon(one, principal_ideal(x)) == principal_ideal(x.inverse())
    # colon(a, a) contains the whole order
    a = ideal_from_generators([O10.element((2, 0)).to_field(), O10.xi().to_field()])
    mr = colon(a, a)
    for r in one.lattice.rows:
        assert mr.contains(FieldElement(O10, tuple(Fraction(v) for v in r)))
    # p invertible: (1 : p) * p = (1)
    assert mul_ideals(colon(one, a), a) == one


def test_ideal_norm_examples():
    assert ideal_norm(unit_ideal(O10)) == 1
    p2 = ideal_from_generators([O10.element((2, 0)).to_field(), O10.xi().to_field()])
    assert ideal_norm(p2) == 2
    rng = random.Random(53)
    for order in (O10, OGOLD, OCUBIC):
        for _ in range(10):
            x = random_element(rng, order)
            assert ideal_norm(principal_ideal(x)) == abs(x.norm())


def test_xi_stability_enforced():
    with pytest.raises(ValueError):
        # Z + 3Z*xi is not an ideal of Z[sqrt(10)]
        make_ideal(O10, [(1, 0), (0, 3)], 1)


# ---------------------------------------------------------------------------
# equivalence
# ---------------------------------------------------------------------------

def test_equivalent_reflexive():
    a = ideal_from_generators([O10.element((2, 0)).to_field(), O10.xi().to_field()])
    res = is_equivalent(a, a)
    assert res.status == EQUIVALENT
    assert res.witness.coords == (Fraction(1), Fraction(0))


def test_scaled_principal_equivalent():
    rng = random.Random(59)
    for order in (O10, OGOLD, OGAUSS):
        one = unit_ideal(order)
        for _ in range(8):
            x = random_element(rng, order)
            res = is_equivalent(principal_ideal(x), one)
            assert res.status == EQUIVALENT
            assert principal_ideal(x).scale(res.witness) == one


def test_scaling_invariance_random_lambda():
    rng = random.Random(61)
    for order in (O10, OGOLD, OGAUSS):
        for _ in range(6):
            a = random_stable_ideal(rng, order)
            lam = random_element(rng, order)
            res = is_equivalent(a.scale(lam), a)
            assert res.status == EQUIVALENT


def test_unit_vs_nonprincipal_inequivalent():
    p2 = ideal_from_generators([O10.element((2, 0)).to_field(), O10.xi().to_field()])
    assert is_equivalent(unit_ideal(O10), p2).status == INEQUIVALENT
    assert is_equivalent(p2, unit_ideal(O10)).status == INEQUIVALENT


def test_equivalence_symmetry_and_transitivity_witnesses():
    rng = random.Random(67)
    for order in (O10, OGOLD):
        for _ in range(6):
            a = random_stable_ideal(rng, order)
            b = a.scale(random_element(rng, order))
            c = b.scale(random_element(rng, order))
            ab = is_equivalent(a, b)
            ba = is_equivalent(b, a)
            ac = is_equivalent(a, c)
            assert ab.status == ba.status == ac.status == EQUIVALENT
            # witness inversion and composition also carry a to b to c
            assert b.scale(ab.witness.inverse()) == a
            assert a.scale(ab.witness * is_equivalent(b, c).witness) == c
            assert a.scale(ac.witness) == c


def test_no_unknown_for_quadratic():
    rng = random.Random(71)
    for order in (O10, OGOLD, OGAUSS, O45, Order(MonicIntPoly((1, 0, 4)))):
        ideals = stable_sublattices(order, 10)
        for _ in range(15):
            a, b = rng.choice(ideals), rng.choice(ideals)
            assert is_equivalent(a, b).status in (EQUIVALENT, INEQUIVALENT)


def test_imaginary_equivalence_exact():
    # Z[2i]: the maximal-order lattice is not equivalent to (1)
    o4 = Order(MonicIntPoly((1, 0, 4)))
    zi = make_ideal(o4, [(2, 0), (0, 1)], 2)  # Z + Z*(xi/2) = Z[i]
    assert is_equivalent(zi, unit_ideal(o4)).status == INEQUIVALENT
    res = is_equivalent(zi.scale(o4.element((3, 1)).to_field()), zi)
    assert res.status == EQUIVALENT


# ---------------------------------------------------------------------------
# invertibility
# ---------------------------------------------------------------------------

def test_invertible_examples():
    assert is_invertible(unit_ideal(O10))
    rng = random.Random(73)
    for order in (O10, OGOLD, OCUBIC):
        x = random_element(rng, order)
        assert is_invertible(principal_ideal(x))


def test_non_invertible_exists_in_nonmaximal_order():
    ideals = stable_sublattices(O45, 20)
    flags = [is_invertible(a) for a in ideals]
    assert not all(flags)
    cm = class_monoid(O45)
    assert cm.size > cm.picard_size


# ---------------------------------------------------------------------------
# class monoid
# ---------------------------------------------------------------------------

def test_class_monoid_golden():
    cm = class_monoid(OGOLD)
    assert cm.size == 1 and cm.picard_size == 1
    assert cm.classes[0].canonical == unit_ideal(OGOLD)


def test_class_monoid_root10():
    cm = class_monoid(O10)
    assert cm.size == 2 and cm.picard_size == 2
    assert cm.unknown_pairs == 0


def test_class_monoid_stability_at_doubled_bound():
    for order in (OGOLD, O10, O45, OGAUSS, OCUBIC):
        b = default_bound(order)
        cm1 = class_monoid(order, b)
        cm2 = class_monoid(order, 2 * b)
        assert cm1.size == cm2.size
        assert [c.canonical for c in cm1.classes] == [c.canonical for c in cm2.classes]


def test_class_monoid_deterministic():
    a = class_monoid(O45)
    b = class_monoid(O45)
    assert a.classes == b.classes


def overorder_discs(disc):
    """Discriminants f'^2 * d0 of the orders containing the one given."""
    sign = 1 if disc > 0 else -1
    mag = abs(disc)
    f = 1
    for g in range(1, mag + 1):
        if g * g > mag:
            break
        if mag % (g * g) == 0:
            cand = disc // (g * g)
            if cand % 4 in (0, 1):
                f = max(f, g)
    d0 = disc // (f * f)
    return [d0 * (k * k) for k in range(1, f + 1) if f % k == 0]


def poly_for_disc(disc):
    if disc % 4 == 1:
        return MonicIntPoly((1, -1, -(disc - 1) // 4))
    return MonicIntPoly((1, 0, -disc // 4))


@pytest.mark.parametrize("chi,expected_total", [
    (MonicIntPoly((1, 0, -45)), 4),
    (MonicIntPoly((1, 0, -40)), 4),
    (MonicIntPoly((1, 0, 4)), 2),
])
def test_icm_is_union_of_overorder_picard_groups(chi, expected_total):
    order = Order(chi)
    cm = class_monoid(order)
    total = 0
    for disc in overorder_discs(order.disc):
        over = Order(poly_for_disc(disc))
        assert over.disc == disc
        total += class_monoid(over).picard_size
    assert cm.size == total == expected_total


def test_picard_classes_form_a_group():
    for order in (O10, O45):
        cm = class_monoid(order)
        invertibles = [c.canonical for c in cm.classes if c.invertible]
        one = unit_ideal(order)
        for a in invertibles:
            inverses = 0
            for b in invertibles:
                prod = mul_ideals(a, b)
                matches = [c for c in cm.classes
                           if is_equivalent(prod, c.canonical).status == EQUIVALENT]
                assert len(matches) == 1
                assert matches[0].invertible
                if is_equivalent(prod, one).status == EQUIVALENT:
                    inverses += 1
            assert inverses >= 1  # the inverse class is in the enumerated set


def test_enumeration_budget_guard():
    from latmac.errors import BudgetExceeded
    with pytest.raises(BudgetExceeded):
        stable_sublattices(O10, 50, max_count=10)


@pytest.mark.parametrize("coeffs, count", [
    ((1, 0, -2, -5), 32),
    ((1, -1, -4, 4, 1), 13),
    ((1, 0, 0, -3, -1), 28),
    ((1, 0, 0, 0, 0, -2), 186),
])
def test_lattice_counts_at_default_bound(coeffs, count):
    order = Order(MonicIntPoly(coeffs))
    ideals = stable_sublattices(order, default_bound(order))
    assert len(ideals) == count
    keys = [(a.lattice.determinant(), a.lattice.rows) for a in ideals]
    assert keys == sorted(set(keys))


@pytest.mark.parametrize("coeffs, size", [
    # every pair of X^3-2X-5 tries at most 364 candidates, so a per-pair cap
    # of 1000 never bites; the pairs together try more than 1000
    ((1, 0, -2, -5), 1000),
    # X^2+5000 has 321 ideals in 111 classes: far more than 1000 pair tests
    ((1, 0, 5000), 1000),
])
def test_class_monoid_shares_one_search_budget(coeffs, size):
    from latmac.errors import BudgetExceeded
    order = Order(MonicIntPoly(coeffs))
    with pytest.raises(BudgetExceeded):
        class_monoid(order, budget=SearchBudget(max_candidates=size))


def test_multiplicator_ring_is_class_invariant():
    rng = random.Random(79)
    for order in (O45, O10):
        for _ in range(5):
            a = random_stable_ideal(rng, order)
            lam = random_element(rng, order)
            assert multiplicator_ring(a) == multiplicator_ring(a.scale(lam))
