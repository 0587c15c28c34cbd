import random
from fractions import Fraction
from itertools import product
from math import factorial

import pytest

from latmac.errors import (
    InvalidGenus, InvalidHom, NotPrimitive, ReduciblePolynomial,
    SwitchViolation, ZeroVector,
)
from latmac.exactla import (
    IntMatrix, MonicIntPoly, charpoly, det_bareiss, is_irreducible, poly_gcd_rational,
    rank, real_roots,
)
from latmac.ideal import EQUIVALENT, is_equivalent
from latmac.latimer import matrix_to_ideal
from latmac.surface import (
    GroupPresentation, LinearForm, TrainTrack, TwoCover, bound_class_number,
    bound_max_index, bound_rank, bound_subgroups, cover_genus, free_reduce,
    genus2_covers, genus3_matrix, intersection, intersection_ideal,
    lifts_as_loop, standard_symplectic,
    surface_presentation, traintrack_class, transvection, verify_genus3,
)


# ---------------------------------------------------------------------------
# bounds
# ---------------------------------------------------------------------------

def test_bound_values_at_genus_two():
    assert bound_max_index(2) == 168
    assert bound_class_number(2) == factorial(168) ** 4
    assert bound_rank(2, 1) == 4


def test_bound_composition_identity():
    for g in range(2, 11):
        assert bound_class_number(g) == bound_subgroups(bound_max_index(g), g)
        assert bound_rank(g, 1) == 2 * g


def test_bound_rank_decreases_in_degree():
    assert bound_rank(3, 2) == Fraction(4)
    assert bound_rank(3, 4) == Fraction(3)
    assert bound_rank(5, 8) == Fraction(3)


def test_invalid_genus():
    with pytest.raises(InvalidGenus):
        bound_max_index(1)
    with pytest.raises(InvalidGenus):
        bound_rank(0, 1)


# ---------------------------------------------------------------------------
# genus-3 example
# ---------------------------------------------------------------------------

def test_genus3_matrix_first_row():
    assert genus3_matrix().rows[0] == (-2, -2, -1, -3, 4, 0)


def test_genus3_rank_claim():
    m = genus3_matrix()
    assert rank(m - IntMatrix.identity(6)) == 2
    rep = verify_genus3()
    assert rep.rank_m_minus_i == 2
    assert rep.det_cross_checked
    assert rep.det_m == det_bareiss(m.rows)


def test_genus3_smith_form_has_two_nonzero_entries():
    from latmac.exactla import snf
    diff = genus3_matrix() - IntMatrix.identity(6)
    diag = snf(diff).diagonal
    assert sum(1 for d in diag if d) == 2


# ---------------------------------------------------------------------------
# transvections
# ---------------------------------------------------------------------------

def test_transvection_basis_example():
    j = standard_symplectic(1)
    t = transvection(j, (1, 0))
    assert t == IntMatrix(((1, -1), (0, 1)))


def test_transvection_properties_random():
    rng = random.Random(107)
    for _ in range(100):
        g = rng.randint(1, 3)
        j = standard_symplectic(g)
        c = [0] * (2 * g)
        while not any(c):
            c = [rng.randint(-4, 4) for _ in range(2 * g)]
        t = transvection(j, c)
        assert det_bareiss(t.rows) == 1
        assert rank(t - IntMatrix.identity(2 * g)) == 1


def test_transvection_composition_rank():
    rng = random.Random(109)
    for _ in range(30):
        g = rng.randint(1, 3)
        j = standard_symplectic(g)
        c1 = [0] * (2 * g)
        c2 = [0] * (2 * g)
        while not any(c1):
            c1 = [rng.randint(-3, 3) for _ in range(2 * g)]
        while not any(c2):
            c2 = [rng.randint(-3, 3) for _ in range(2 * g)]
        prod = transvection(j, c1) * transvection(j, c2)
        assert rank(prod - IntMatrix.identity(2 * g)) <= 2


def test_transvection_errors():
    j = standard_symplectic(1)
    with pytest.raises(ZeroVector):
        transvection(j, (0, 0))
    with pytest.raises(ValueError):
        transvection(IntMatrix(((1, 0), (0, 1))), (1, 0))


# ---------------------------------------------------------------------------
# covers
# ---------------------------------------------------------------------------

def test_example_covers_have_genus_three():
    _, cover1, cover2, lam, mu = genus2_covers()
    assert cover_genus(cover1) == 3
    assert cover_genus(cover2) == 3
    assert lifts_as_loop(lam, cover1) is True
    assert lifts_as_loop(lam, cover2) is False
    assert lifts_as_loop(mu, cover1) is True
    assert lifts_as_loop(mu, cover2) is True


def test_riemann_hurwitz_for_all_z2_covers():
    for g in (2, 3, 4):
        pres = surface_presentation(g)
        k = 2 * g
        for hom in product((0, 1), repeat=k):
            if not any(hom):
                continue
            assert cover_genus(TwoCover(pres, hom)) == 2 * g - 1


def test_parity_is_multiplicative_on_concatenation():
    rng = random.Random(113)
    _, cover1, _, _, _ = genus2_covers()
    for _ in range(40):
        w1 = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        w2 = tuple(rng.choice((1, -1)) * rng.randint(1, 4) for _ in range(rng.randint(0, 6)))
        assert lifts_as_loop(w1 + w2, cover1) == (
            lifts_as_loop(w1, cover1) == lifts_as_loop(w2, cover1))


def test_invalid_hom_rejected():
    pres = surface_presentation(2)
    with pytest.raises(InvalidHom):
        TwoCover(pres, (0, 0, 0, 0))
    with pytest.raises(InvalidHom):
        TwoCover(pres, (1, 0, 0))
    bad = GroupPresentation(("x", "y"), ((1, 2),))
    with pytest.raises(InvalidHom):
        TwoCover(bad, (1, 0))


def test_free_reduction():
    assert free_reduce((1, 2, -2, -1, 3)) == (3,)
    assert free_reduce(()) == ()


# ---------------------------------------------------------------------------
# intersection forms
# ---------------------------------------------------------------------------

def test_intersection_examples():
    assert intersection(LinearForm((1, 0)), (3, 5)) == 3
    assert LinearForm((2, 4)).weight == 2
    with pytest.raises(ZeroVector):
        LinearForm((0, 0))


def test_intersection_ideal_equals_matrix_ideal_examples():
    m = IntMatrix(((0, 10), (1, 0)))
    assert intersection_ideal(m) == matrix_to_ideal(m)


def random_irreducible_matrix(rng, n, span=5):
    while True:
        m = IntMatrix(tuple(tuple(rng.randint(-span, span) for _ in range(n))
                            for _ in range(n)))
        if is_irreducible(charpoly(m)):
            return m


def test_intersection_ideal_equals_matrix_ideal_random():
    rng = random.Random(127)
    for n in (2, 3):
        for _ in range(25):
            m = random_irreducible_matrix(rng, n)
            assert intersection_ideal(m) == matrix_to_ideal(m)


# ---------------------------------------------------------------------------
# train tracks
# ---------------------------------------------------------------------------

def test_golden_mean_track():
    tt = TrainTrack(2, IntMatrix(((1, 1), (1, 0))))
    result = traintrack_class(tt)
    assert result.chi == MonicIntPoly((1, -1, -1))
    assert result.ideal == matrix_to_ideal(tt.transition)
    assert result.stretch_high - result.stretch_low <= Fraction(1, 10 ** 8)
    assert abs(result.stretch - 1.6180339887) < 1e-6


def test_traintrack_class_is_conjugation_invariant():
    base = IntMatrix(((1, 1), (1, 0)))
    cls_base = traintrack_class(TrainTrack(2, base)).ideal
    # conjugating by the swap keeps the entries nonnegative
    p = IntMatrix(((0, 1), (1, 0)))
    conj = p * base * p
    assert all(x >= 0 for r in conj.rows for x in r)
    cls_conj = traintrack_class(TrainTrack(2, conj)).ideal
    assert is_equivalent(cls_base, cls_conj).status == EQUIVALENT


def test_traintrack_errors():
    with pytest.raises(ReduciblePolynomial):
        traintrack_class(TrainTrack(2, IntMatrix(((2, 0), (0, 2)))))
    with pytest.raises(NotPrimitive):
        traintrack_class(TrainTrack(2, IntMatrix(((0, 2), (1, 0)))))
    with pytest.raises(ValueError):
        TrainTrack(2, IntMatrix(((1, -1), (1, 0))))


def test_traintrack_switches():
    m = IntMatrix(((1, 1), (1, 0)))
    # weights w satisfy w0 = golden ratio * w1; only trivial balances hold
    ok = TrainTrack(2, m, (((0, 1), (1, 0)),))
    assert traintrack_class(ok).chi == MonicIntPoly((1, -1, -1))
    bad = TrainTrack(2, m, (((0,), (1,)),))
    with pytest.raises(SwitchViolation):
        traintrack_class(bad)


def test_distinct_charpolys_have_distinct_stretch():
    # distinct monic irreducibles are coprime, so they share no root at all
    t1 = traintrack_class(TrainTrack(2, IntMatrix(((1, 1), (1, 0)))))
    t2 = traintrack_class(TrainTrack(2, IntMatrix(((2, 1), (1, 0)))))
    assert t1.chi != t2.chi
    g = poly_gcd_rational(t1.chi.coeffs, t2.chi.coeffs)
    assert len(g) == 1  # gcd is constant
    assert not (t1.stretch_low <= t2.stretch_high
                and t2.stretch_low <= t1.stretch_high)


def test_largest_real_root_certification():
    lo, hi = real_roots(MonicIntPoly((1, -1, -1)))[-1]
    assert hi - lo <= Fraction(1, 10 ** 8)
    phi = (1 + 5 ** 0.5) / 2
    assert float(lo) <= phi <= float(hi) + 1e-15
    lo, hi = real_roots(MonicIntPoly((1, 0, -2)))[-1]
    assert abs(float((lo + hi) / 2) - 2 ** 0.5) < 1e-8
