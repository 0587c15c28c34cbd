"""Fractional ideals of Z[xi] as xi-stable lattices, equivalence, and the
ideal class monoid.

An ideal is (1/den) * L for a full-rank sublattice L of Z^n in power-basis
coordinates, stored in row HNF with den minimal.  Two ideals are equivalent
when one is a K*-multiple of the other.

For quadratic orders the equivalence decision is exact in both signatures:

* real (disc > 0): the basis ratio theta = w2/w1 is a quadratic irrational
  (p + sqrt(Delta))/q, with Delta the discriminant of its primitive form.
  Its continued fraction under a fixed real embedding runs on integer (P, Q)
  states over Delta and is eventually periodic; two lattices are
  K*-homothetic exactly when they share Delta and the periodic cycle
  (Serret).  The convergents of the partial quotients yield the scaling
  witness.
* imaginary (disc < 0): the norm form is positive definite, so all candidate
  witnesses of the required norm in the colon lattice can be enumerated.

Degree >= 3 falls back to a bounded witness search with a three-valued
verdict; Unknown is a value, not an error.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import count, product
from math import gcd, isqrt

from .errors import BudgetExceeded, CertificationError, ZeroIdeal
from .exactla import (
    HNFBasis, IntMatrix, adjugate, det_bareiss, factors_mod_p, hnf, kernel_mod_p,
    primes,
)
from .order import FieldElement, Order, clear_denominators

EQUIVALENT = "equivalent"
INEQUIVALENT = "inequivalent"
UNKNOWN = "unknown"

_CF_STEP_CAP = 20000


@dataclass(frozen=True)
class SearchBudget:
    """Caps for the degree >= 3 witness search.

    max_candidates caps the witness candidates of one search, and in
    class_monoid the pairwise tests and candidates of all pairs together.
    """

    coeff_bound: int = 4
    max_candidates: int = 500000

    def __post_init__(self):
        if self.coeff_bound < 0:
            raise ValueError(f"search budget must be >= 0, got {self.coeff_bound}")


DEFAULT_BUDGET = SearchBudget()


@dataclass(frozen=True)
class EquivalenceResult:
    status: str
    witness: FieldElement | None = None

    @property
    def is_equivalent(self) -> bool:
        return self.status == EQUIVALENT


@dataclass(frozen=True)
class FracIdeal:
    """Fractional ideal (1/den) * L with L in row HNF and den minimal."""

    order: Order
    den: int
    lattice: HNFBasis

    def __post_init__(self):
        if self.den < 1:
            raise ValueError("denominator must be positive")
        rows = self.lattice.rows
        g = 0
        for r in rows:
            for x in r:
                g = gcd(g, x)
        if gcd(self.den, g) != 1:
            raise ValueError("denominator not minimal against lattice content")
        o = self.order
        for r in rows:
            if not self.lattice.contains(o.xi_times(r)):
                raise ValueError("lattice is not xi-stable")

    @property
    def n(self) -> int:
        return self.order.n

    def norm(self) -> Fraction:
        return Fraction(self.lattice.determinant(), self.den ** self.n)

    def is_integral(self) -> bool:
        return self.den == 1

    def basis_elements(self):
        """Lattice rows as FieldElements, including the 1/den factor."""
        d = Fraction(1, self.den)
        return [FieldElement(self.order, tuple(Fraction(x) * d for x in r))
                for r in self.lattice.rows]

    def contains(self, x: FieldElement) -> bool:
        scaled = [c * self.den for c in x.coords]
        if any(c.denominator != 1 for c in scaled):
            return False
        return self.lattice.contains([int(c) for c in scaled])

    def scale(self, z: FieldElement) -> "FracIdeal":
        """The ideal z * self for nonzero z."""
        if z.is_zero():
            raise ZeroIdeal("scaling by zero")
        o = self.order
        int_rows, den = clear_denominators(
            [o.reduce_product(z.coords, r) for r in self.lattice.rows])
        return make_ideal(o, int_rows, den * self.den)

    @cached_property
    def ring(self) -> "FracIdeal":
        """colon(self, self), computed once per ideal; see multiplicator_ring."""
        return colon(self, self)

    def __repr__(self):
        return f"FracIdeal(den={self.den}, rows={self.lattice.rows})"


def make_ideal(order: Order, rows, den: int = 1) -> FracIdeal:
    """HNF-reduce generators and normalize the denominator."""
    basis = hnf(rows)
    g = 0
    for r in basis.rows:
        for x in r:
            g = gcd(g, x)
    g = gcd(g, den)
    if g > 1:
        basis = HNFBasis(tuple(tuple(x // g for x in r) for r in basis.rows))
        den //= g
    return FracIdeal(order, den, basis)


def unit_ideal(order: Order) -> FracIdeal:
    return FracIdeal(order, 1, HNFBasis(IntMatrix.identity(order.n).rows))


def ideal_from_generators(gens) -> FracIdeal:
    """Smallest fractional ideal containing the given field elements."""
    gens = [g for g in gens if not g.is_zero()]
    if not gens:
        raise ZeroIdeal("all generators are zero")
    o = gens[0].order
    int_rows, den = clear_denominators(
        [r for g in gens for r in o.mul_matrix(g.coords)])
    return make_ideal(o, int_rows, den)


def principal_ideal(x: FieldElement) -> FracIdeal:
    return ideal_from_generators([x])


def mul_ideals(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """Product ideal, generated by pairwise products of basis elements."""
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    o = a.order
    rows = []
    for r in a.lattice.rows:
        for s in b.lattice.rows:
            rows.append(o.reduce_product(r, s))
    return make_ideal(o, rows, a.den * b.den)


def ideal_norm(a: FracIdeal) -> Fraction:
    return a.norm()


def colon(a: FracIdeal, b: FracIdeal) -> FracIdeal:
    """The lattice {z in K : z*b subset of a}, by the dual-lattice method.

    With A the HNF basis of a and R_j the integer matrix of multiplication
    by the basis row beta_j of b, z*b lies in a iff z . a.den R_j adj(A) is
    divisible by q = det(A) * b.den for every j.  So z/q lies in the dual of
    the lattice H spanned by the columns of the a.den R_j adj(A): the rows
    of adj(H^T) / det(H).
    """
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    o = a.order
    adj_a = adjugate(IntMatrix(a.lattice.rows))
    cols = []
    for beta in b.lattice.rows:
        g = IntMatrix(o.mul_matrix(beta)) * adj_a
        cols.extend([a.den * x for x in col] for col in zip(*g.rows))
    h = hnf(cols)
    q = a.lattice.determinant() * b.den
    dual = adjugate(IntMatrix(tuple(zip(*h.rows))))
    return make_ideal(o, [[q * x for x in r] for r in dual.rows], h.determinant())


def multiplicator_ring(a: FracIdeal) -> FracIdeal:
    """colon(a, a): the largest order for which a is a module.  It is cached
    on a as a.ring, so each ideal computes it once however many pairs use it."""
    return a.ring


def is_invertible(a: FracIdeal) -> bool:
    """True iff a * (1 : a) is the unit ideal."""
    one = unit_ideal(a.order)
    return mul_ideals(a, colon(one, a)) == one


# ---------------------------------------------------------------------------
# Equivalence: real quadratic continued-fraction cycle
# ---------------------------------------------------------------------------

def cf_period(p: int, q: int, disc: int, max_steps: int):
    """Continued fraction of (p + sqrt(disc))/q until a (p, q) state recurs.

    disc is a positive non-square and q divides disc - p^2, which every later
    state inherits (Cohen, GTM 138, 5.6-5.7).  Returns (trail, start) with
    trail[k] = (p_k, q_k, a_k), a_k the k-th partial quotient; trail[start:]
    is the period.
    """
    s = isqrt(disc)
    seen = {}
    trail = []
    for step in range(max_steps):
        if (p, q) in seen:
            return trail, seen[(p, q)]
        seen[(p, q)] = step
        a = (p + s) // q if q > 0 else (-p - s - 1) // (-q)
        trail.append((p, q, a))
        p = a * q - p
        q, r = divmod(disc - p * p, q)
        if r:
            raise CertificationError("CF step broke q | disc - p^2")
    raise BudgetExceeded("continued fraction failed to cycle within budget")


def _ratio_state(a: FracIdeal):
    """(disc, p, q) with (p + sqrt(disc))/q = w2/w1 for the basis rows of a.

    (A, B, C) = (N(w1), -Tr(w1 w2'), N(w2)) / content is the primitive form
    of the ratio theta, of discriminant disc.  Under xi -> (-b + sqrt(D))/2
    the irrational part of theta has the sign of (u1 v2 - u2 v1) / N(w1), and
    u1 v2 - u2 v1 is positive for a row HNF, so theta = (-B + sqrt(disc))/(2A)
    with no normalisation of the sign of A.
    """
    _, b, c = a.order.chi.coeffs
    (u1, v1), (u2, v2) = a.lattice.rows

    def norm(u, v):
        return u * u - b * u * v + c * v * v

    n1, n2 = norm(u1, v1), norm(u2, v2)
    cross = norm(u1 + u2, v1 + v2) - n1 - n2
    g = gcd(n1, cross, n2)
    big_a, big_b, big_c = n1 // g, -cross // g, n2 // g
    return big_b * big_b - 4 * big_a * big_c, -big_b, 2 * big_a


def _scaled_anchor(a: FracIdeal, trail, k: int) -> FieldElement:
    """w1 * (x_0 - a_0) ... (x_{k-1} - a_{k-1}) along the CF of x_0 = w2/w1.

    With convergents h/g of x_0 the product is (-1)^k (h_{k-1} w1 - g_{k-1} w2),
    an integer combination of the basis, so no field inversion is needed.
    """
    h0, h1, g0, g1 = 0, 1, 1, 0
    for _, _, q in trail[:k]:
        h0, h1 = h1, q * h1 + h0
        g0, g1 = g1, q * g1 + g0
    sign = -1 if k % 2 else 1
    (u1, v1), (u2, v2) = a.lattice.rows
    return FieldElement(a.order, (Fraction(sign * (h1 * u1 - g1 * u2), a.den),
                                  Fraction(sign * (h1 * v1 - g1 * v2), a.den)))


def cycle_key(a: FracIdeal):
    """Class invariant for real quadratic ideals: the discriminant of the
    basis ratio and the set of (p, q) states on its CF period."""
    disc, p, q = _ratio_state(a)
    trail, start = cf_period(p, q, disc, _CF_STEP_CAP)
    return disc, frozenset((p, q) for p, q, _ in trail[start:])


def _equivalent_real_quadratic(a, b):
    disc_a, p, q = _ratio_state(a)
    trail_a, start = cf_period(p, q, disc_a, _CF_STEP_CAP)
    disc_b, p, q = _ratio_state(b)
    trail_b, _ = cf_period(p, q, disc_b, _CF_STEP_CAP)
    if disc_a != disc_b:
        return EquivalenceResult(INEQUIVALENT)
    period = {(p, q): k for k, (p, q, _) in enumerate(trail_a) if k >= start}
    for k, (p, q, _) in enumerate(trail_b):
        if (p, q) in period:
            z = _scaled_anchor(b, trail_b, k) / \
                _scaled_anchor(a, trail_a, period[(p, q)])
            if a.scale(z) != b:
                raise CertificationError("real quadratic witness fails z*a = b")
            return EquivalenceResult(EQUIVALENT, z)
    return EquivalenceResult(INEQUIVALENT)


# ---------------------------------------------------------------------------
# Equivalence: imaginary quadratic definite enumeration
# ---------------------------------------------------------------------------

def _equivalent_imaginary_quadratic(a, b):
    """Enumerate all z in (b : a) with N(z) = N(b)/N(a); none means inequivalent."""
    o = a.order
    c = colon(b, a)
    t = b.norm() / a.norm()
    g1, g2 = c.basis_elements()
    q11 = g1.norm()
    q22 = g2.norm()
    q12 = (g1 + g2).norm() - q11 - q22
    [[aa, bb, cc, tt]], _ = clear_denominators([[q11, q12, q22, t]])
    disc = bb * bb - 4 * aa * cc
    if disc >= 0 or aa <= 0:
        raise CertificationError("norm form of (b : a) is not positive definite")
    ymax = isqrt(4 * aa * tt // (-disc))
    for y in range(-ymax, ymax + 1):
        dx = disc * y * y + 4 * aa * tt
        if dx < 0:
            continue
        s = isqrt(dx)
        if s * s != dx:
            continue
        for sign in ((s,) if s == 0 else (s, -s)):
            num = -bb * y + sign
            if num % (2 * aa):
                continue
            x = num // (2 * aa)
            if x == 0 and y == 0:
                continue
            z = g1 * x + g2 * y
            if a.scale(z) == b:
                return EquivalenceResult(EQUIVALENT, z)
    return EquivalenceResult(INEQUIVALENT)


# ---------------------------------------------------------------------------
# Equivalence: bounded search for degree >= 3
# ---------------------------------------------------------------------------

class _SearchPool:
    """The part of budget.max_candidates left to one class_monoid.  Each
    pairwise equivalence test and each witness candidate tried costs one;
    BudgetExceeded is raised once it is spent."""

    def __init__(self, size: int):
        self.size = self.left = size

    def spend(self):
        if not self.left:
            raise BudgetExceeded(f"more than {self.size} pairwise tests and "
                                 "witness candidates in one class monoid")
        self.left -= 1


def _combos_by_height(n: int, height: int):
    """Nonzero integer n-tuples with entries in [-height, height], in
    (max |entry|, lexicographic) order, generated lazily shell by shell.
    Of each pair +-v only the one whose first nonzero entry is positive is
    kept: -z is a witness iff z is."""
    for m in range(1, height + 1):
        for v in product(range(-m, m + 1), repeat=n):
            if (m in v or -m in v) and next(x for x in v if x) > 0:
                yield v


def _equivalent_bounded_search(a, b, budget, pool=None):
    """Try small combinations of the basis of (b : a) as witnesses.

    Without a pool the search tries at most budget.max_candidates of them
    and answers UNKNOWN when none works; with one, every candidate is
    charged to it.
    """
    shared = pool is not None
    if not shared:
        pool = _SearchPool(budget.max_candidates)
    if multiplicator_ring(a) != multiplicator_ring(b):
        return EquivalenceResult(INEQUIVALENT)
    o = a.order
    n = o.n
    c = colon(b, a)
    # z = w / c.den is a witness only if |N(w)| = c.den^n N(b) / N(a)
    target = c.den ** n * b.norm() / a.norm()
    rows = c.lattice.rows
    for combo in _combos_by_height(n, budget.coeff_bound):
        if not (pool.left or shared):
            break
        pool.spend()
        w = [0] * n
        for coef, row in zip(combo, rows):
            if coef:
                for i in range(n):
                    w[i] += coef * row[i]
        if abs(det_bareiss(o.mul_matrix(w))) != target:
            continue
        z = FieldElement(o, tuple(Fraction(x, c.den) for x in w))
        if a.scale(z) == b:
            return EquivalenceResult(EQUIVALENT, z)
    return EquivalenceResult(UNKNOWN)


def is_equivalent(a: FracIdeal, b: FracIdeal,
                  budget: SearchBudget = DEFAULT_BUDGET,
                  pool: _SearchPool | None = None) -> EquivalenceResult:
    """Decide whether z*a = b for some nonzero z in K.

    Exact (never Unknown) for n <= 2; three-valued for higher degree, where
    pool, if given, is the candidate budget shared with other pairs.
    The witness of every Equivalent verdict is verified exactly.
    """
    if a.order != b.order:
        raise ValueError("ideals of different orders")
    o = a.order
    if a == b:
        return EquivalenceResult(EQUIVALENT, o.one().to_field())
    if o.n == 1:
        z = FieldElement(o, (Fraction(b.lattice.rows[0][0] * a.den,
                                      a.lattice.rows[0][0] * b.den),))
        if a.scale(z) != b:
            raise CertificationError("degree-1 witness fails z*a = b")
        return EquivalenceResult(EQUIVALENT, z)
    if o.n == 2:
        if o.disc > 0:
            return _equivalent_real_quadratic(a, b)
        return _equivalent_imaginary_quadratic(a, b)
    return _equivalent_bounded_search(a, b, budget, pool)


# ---------------------------------------------------------------------------
# Class monoid enumeration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IdealClass:
    """Equivalence class, named by its minimal-norm integral representative."""

    canonical: FracIdeal
    invertible: bool

    def __post_init__(self):
        if not self.canonical.is_integral():
            raise ValueError("canonical representative must be integral")


@dataclass(frozen=True)
class ClassMonoid:
    order: Order
    classes: tuple[IdealClass, ...]
    picard_size: int
    bound_used: int
    unknown_pairs: int = 0

    @property
    def size(self) -> int:
        return len(self.classes)


def _simple_quotient_children(basis, t, p: int, g):
    """Generators of every xi-stable M with p L <= M < L and L/M isomorphic
    to F_p[x]/(g), for L with HNF rows basis and integer xi-matrix t.

    Such M are the annihilators of the simple submodules of the dual
    (F_p^n, u -> t u) killed by g; each is spanned by u, t u, ...,
    t^(deg g - 1) u for any nonzero u in it, and u in the kernel of g(t) mod
    p.  Scalar multiples give one submodule, so u runs over the kernel
    vectors whose first nonzero coefficient is 1, and for deg g > 1 over
    those not in a submodule already found.
    """
    n = len(t)
    d = len(g) - 1
    gt = [[0] * n for _ in range(n)]
    for c in g:
        gt = [[(sum(x * y for x, y in zip(row, col)) + (c if i == j else 0)) % p
               for j, col in enumerate(zip(*t))] for i, row in enumerate(gt)]
    kernel = kernel_mod_p(gt, p)
    covered = set()
    for lead in range(len(kernel)):
        rest = kernel[lead + 1:]
        for coeffs in product(range(p), repeat=len(rest)):
            u = list(kernel[lead])
            for c, v in zip(coeffs, rest):
                if c:
                    u = [x + c * y for x, y in zip(u, v)]
            u = tuple(x % p for x in u)
            if u in covered:
                continue
            orbit = [u]
            for _ in range(d - 1):
                orbit.append(tuple(sum(x * y for x, y in zip(row, orbit[-1])) % p
                                   for row in t))
            if d > 1:
                covered.update(
                    tuple(sum(c * v[i] for c, v in zip(cs, orbit)) % p
                          for i in range(n))
                    for cs in product(range(p), repeat=d))
            gens = [[sum(y * b[j] for y, b in zip(w, basis)) for j in range(n)]
                    for w in kernel_mod_p(orbit, p)]
            yield gens + [[p * x for x in b] for b in basis]


def stable_sublattices(order: Order, max_index: int, max_count: int = 500000):
    """All xi-stable sublattices of Z[xi] with index <= max_index, as ideals
    in (index, HNF) order.

    Descent through simple quotients, breadth first from Z[xi] (Marseglia,
    J. London Math. Soc. 2020; Cohen, GTM 138, ch. 2).  The children of a
    found lattice L are the stable M with L/M isomorphic to F_p[x]/(g), for
    each prime p and monic irreducible factor g of chi mod p with
    [Z[xi] : L] p^deg(g) <= max_index; children are deduplicated by HNF
    rows.  Complete: a stable L has a composition series from Z[xi] down to
    it whose steps are stable lattices with such simple quotients, and every
    index on the way divides [Z[xi] : L].  Each lattice is checked stable
    when its FracIdeal is built.  BudgetExceeded is raised once more than
    max_count lattices are found.
    """
    stream = primes()
    known = [next(stream)]  # primes in order, extended as the walk needs them
    factors = {}
    found = [unit_ideal(order)]
    seen = {found[0].lattice.rows}
    for lat in found:  # grows while it is walked: breadth first
        basis = lat.lattice
        index = basis.determinant()
        t = [basis.coordinates(order.xi_times(r)) for r in basis.rows]
        for k in count():
            if k == len(known):
                known.append(next(stream))
            p = known[k]
            if index * p > max_index:
                break
            if p not in factors:
                factors[p] = factors_mod_p(order.chi, p, max_index)
            for g in factors[p]:
                if index * p ** (len(g) - 1) > max_index:
                    break
                for gens in _simple_quotient_children(basis.rows, t, p, g):
                    child = hnf(gens)
                    if child.rows in seen:
                        continue
                    if len(found) == max_count:
                        raise BudgetExceeded(
                            f"more than {max_count} stable lattices")
                    seen.add(child.rows)
                    found.append(FracIdeal(order, 1, child))
    found.sort(key=lambda a: (a.lattice.determinant(), a.lattice.rows))
    return found


def default_bound(order: Order) -> int:
    """Minkowski-style enumeration bound ceil(sqrt(|disc|))."""
    d = abs(order.disc)
    s = isqrt(d)
    return s if s * s == d else s + 1


def class_monoid(order: Order, bound_override: int | None = None,
                 budget: SearchBudget = DEFAULT_BUDGET) -> ClassMonoid:
    """Enumerate the ideal class monoid from integral ideals of bounded index.

    The bound is ceil(sqrt(|disc|)); a smaller override could miss classes
    and is refused.  Ideals run in (norm, HNF) order, so the first member of
    each class is its minimal-norm representative.  Outside real
    quadratic orders classes are found by pairwise tests; all the tests and
    the witness candidates they try share budget.max_candidates, and
    BudgetExceeded is raised once it is spent.
    """
    bound = default_bound(order)
    if bound_override is not None:
        if bound_override < bound:
            raise ValueError(f"enumeration bound must be >= {bound} = "
                             f"ceil(sqrt|disc|), got {bound_override}")
        bound = bound_override
    ideals = stable_sublattices(order, bound)
    unknown_pairs = 0
    if order.n == 2 and order.disc > 0:
        first: dict[tuple, FracIdeal] = {}
        for a in ideals:
            first.setdefault(cycle_key(a), a)
        reps = list(first.values())
    else:
        reps = []
        pool = _SearchPool(budget.max_candidates)
        for a in ideals:
            for r in reps:
                pool.spend()
                status = is_equivalent(a, r, budget, pool).status
                if status == EQUIVALENT:
                    break
                if status == UNKNOWN:
                    unknown_pairs += 1
            else:
                reps.append(a)
    classes = tuple(IdealClass(r, is_invertible(r)) for r in reps)
    picard = sum(1 for c in classes if c.invertible)
    return ClassMonoid(order, classes, picard, bound, unknown_pairs)
