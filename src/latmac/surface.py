"""Surface-side verification tools: explicit bound formulas, the printed
genus-3 homology matrix and its rank claim, double covers by
Reidemeister-Schreier rewriting, homological transvections, torus
intersection forms, and train-track weight classes.  The stretch factor of a
train track is the last of exactla.real_roots of its charpoly.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd

from .errors import (
    CertificationError, InvalidGenus, InvalidHom, NotPrimitive, SwitchViolation,
    ZeroVector,
)
from .exactla import (
    IntMatrix, MonicIntPoly, charpoly, det_bareiss, det_cofactor, rank,
    real_roots, snf,
)
from .ideal import FracIdeal, ideal_from_generators
from .latimer import matrix_to_ideal, order_for, xi_eigenvector

Word = tuple[int, ...]


# ---------------------------------------------------------------------------
# Bound formulas
# ---------------------------------------------------------------------------

def bound_max_index(g: int) -> int:
    """Largest index of a genus-g surface subgroup in the ambient orbifold
    group: 168 (g - 1)."""
    if g < 2:
        raise InvalidGenus("genus must be at least 2")
    return 168 * (g - 1)


def bound_subgroups(k: int, g: int) -> int:
    """At most (k!)^(2g) subgroups of index k in a group of rank <= 2g."""
    if g < 2:
        raise InvalidGenus("genus must be at least 2")
    if k < 1:
        raise ValueError("index must be positive")
    return factorial(k) ** (2 * g)


def bound_class_number(g: int) -> int:
    """Uniform class-number bound ((168 (g-1))!)^(2g)."""
    return bound_subgroups(bound_max_index(g), g)


def bound_rank(g: int, n: int) -> Fraction:
    """Rank bound 2 + 2(g-1)/N for the degree-N quotient orbifold group."""
    if g < 2:
        raise InvalidGenus("genus must be at least 2")
    if n < 1:
        raise ValueError("degree must be positive")
    return Fraction(2) + Fraction(2 * (g - 1), n)


# ---------------------------------------------------------------------------
# The explicit genus-3 homology matrix
# ---------------------------------------------------------------------------

_GENUS3_ROWS = (
    (-2, -2, -1, -3, 4, 0),
    (9, 4, 0, 9, -6, 9),
    (9, 0, -2, 9, 0, 18),
    (6, 4, 2, 7, -8, 0),
    (9, 3, 0, 9, -5, 9),
    (0, -1, -1, 0, 2, 4),
)


def genus3_matrix() -> IntMatrix:
    """The 6x6 homology matrix of the twist acting on the genus-3 double cover."""
    return IntMatrix(_GENUS3_ROWS)


@dataclass(frozen=True)
class Genus3Report:
    rank_m_minus_i: int
    det_m: int
    det_cross_checked: bool
    charpoly_m: MonicIntPoly


def verify_genus3() -> Genus3Report:
    """Check rank(M - I) = 2 and report det and charpoly of M exactly.

    The determinant is computed by two independent algorithms (fraction-free
    elimination and cofactor expansion) which must agree.
    """
    m = genus3_matrix()
    diff = m - IntMatrix.identity(6)
    r = rank(diff)
    if r != 2:
        raise CertificationError(f"rank(M - I) = {r}, expected 2")
    d1 = det_bareiss(m.rows)
    d2 = det_cofactor([list(row) for row in m.rows])
    if d1 != d2:
        raise CertificationError(f"det(M) = {d1} by Bareiss, {d2} by cofactors")
    return Genus3Report(r, d1, d1 == d2, charpoly(m))


# ---------------------------------------------------------------------------
# Transvections
# ---------------------------------------------------------------------------

def standard_symplectic(g: int) -> IntMatrix:
    """Block form [[0, I], [-I, 0]] on 2g coordinates."""
    n = 2 * g
    rows = [[0] * n for _ in range(n)]
    for i in range(g):
        rows[i][g + i] = 1
        rows[g + i][i] = -1
    return IntMatrix(tuple(tuple(r) for r in rows))


def transvection(j: IntMatrix, c) -> IntMatrix:
    """Homological Dehn twist x -> x + <x, c> c with <x, c> = x^T J c.

    Column-vector convention; the sign of J only flips the off-diagonal
    sign, and det = 1, rank(T - I) = 1 hold either way.
    """
    n = j.n
    c = tuple(int(x) for x in c)
    if len(c) != n:
        raise ValueError("vector length mismatch")
    if not any(c):
        raise ZeroVector("twist vector must be nonzero")
    if j.transpose() != IntMatrix(tuple(tuple(-x for x in r) for r in j.rows)):
        raise ValueError("form must be skew-symmetric")
    jc = j.mul_vec(c)
    if not any(jc):
        raise ZeroVector("vector pairs trivially with the form")
    rows = []
    for i in range(n):
        rows.append(tuple((1 if i == k else 0) + c[i] * jc[k] for k in range(n)))
    return IntMatrix(tuple(rows))


# ---------------------------------------------------------------------------
# Surface group presentations and Z/2 covers
# ---------------------------------------------------------------------------

def free_reduce(word) -> Word:
    out = []
    for x in word:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


@dataclass(frozen=True)
class GroupPresentation:
    generators: tuple[str, ...]
    relators: tuple[Word, ...]

    def __post_init__(self):
        object.__setattr__(
            self, "relators",
            tuple(free_reduce(r) for r in self.relators))
        k = len(self.generators)
        for r in self.relators:
            if any(abs(x) < 1 or abs(x) > k for x in r):
                raise ValueError("relator letter out of range")


def surface_presentation(g: int) -> GroupPresentation:
    """Standard one-relator presentation of the closed genus-g surface group."""
    if g < 1:
        raise InvalidGenus("genus must be at least 1")
    gens = []
    for i in range(1, g + 1):
        gens.extend((f"a{i}", f"b{i}"))
    relator = []
    for i in range(g):
        a, b = 2 * i + 1, 2 * i + 2
        relator.extend((a, b, -a, -b))
    return GroupPresentation(tuple(gens), (tuple(relator),))


@dataclass(frozen=True)
class TwoCover:
    """Index-2 cover given by a homomorphism onto Z/2 killing every relator."""

    base: GroupPresentation
    hom: tuple[int, ...]

    def __post_init__(self):
        if len(self.hom) != len(self.base.generators):
            raise InvalidHom("one Z/2 value per generator required")
        if any(v not in (0, 1) for v in self.hom):
            raise InvalidHom("values must be 0 or 1")
        if not any(self.hom):
            raise InvalidHom("homomorphism must be nontrivial")
        for r in self.base.relators:
            if sum(self.hom[abs(x) - 1] for x in r) % 2:
                raise InvalidHom("relator not killed")


def lifts_as_loop(word, cover: TwoCover) -> bool:
    """True iff the word lies in the index-2 subgroup (even total parity)."""
    return sum(cover.hom[abs(x) - 1] for x in word) % 2 == 0


def cover_genus(cover: TwoCover) -> int:
    """Genus of the double cover via Reidemeister-Schreier and SNF.

    Schreier transversal {1, t} for t the first generator with parity 1;
    the rewritten relators abelianize to a torsion-free group of even rank.
    """
    base = cover.base
    if len(base.relators) != 1:
        raise ValueError("one-relator surface presentation required")
    hom = cover.hom
    k = len(base.generators)
    t = next(i for i, v in enumerate(hom) if v == 1)

    # subgroup generators: (coset, generator) minus the tree edge (0, t)
    index = {}
    for c in (0, 1):
        for x in range(k):
            if c == 0 and x == t:
                continue
            index[(c, x)] = len(index)

    def rewrite(word, coset):
        out = []
        for letter in word:
            x = abs(letter) - 1
            if letter > 0:
                if (coset, x) in index:
                    out.append(index[(coset, x)] + 1)
                coset = (coset + hom[x]) % 2
            else:
                coset = (coset + hom[x]) % 2
                if (coset, x) in index:
                    out.append(-(index[(coset, x)] + 1))
        return free_reduce(out), coset

    relator = base.relators[0]
    rows = []
    ngen = len(index)
    for start in (0, 1):
        word, end = rewrite(relator, start)
        if end != start:
            raise CertificationError("the relator does not close in the cover")
        row = [0] * ngen
        for letter in word:
            row[abs(letter) - 1] += 1 if letter > 0 else -1
        rows.append(row)
    # abelianization: pad the relation matrix square for the SNF
    while len(rows) < ngen:
        rows.append([0] * ngen)
    result = snf(IntMatrix(tuple(tuple(r) for r in rows)))
    nonzero = [d for d in result.diagonal if d]
    if any(abs(d) != 1 for d in nonzero):
        raise InvalidHom("unexpected torsion in the cover abelianization")
    betti = ngen - len(nonzero)
    if betti % 2:
        raise CertificationError(f"odd first Betti number {betti} of the cover")
    return betti // 2


def genus2_covers():
    """The two Z/2 covers of the genus-2 surface used by the explicit example,
    with the filling curve and the separating commutator curve.

    Generators are ordered (a1, b1, a2, b2); the curve words are written in
    those letters.
    """
    base = surface_presentation(2)
    cover1 = TwoCover(base, (0, 1, 1, 0))
    cover2 = TwoCover(base, (0, 1, 0, 0))
    lam = (3, 2, 4, 3, 2, -1, 4, 3, 2)
    mu = (1, 2, -1, -2)
    return base, cover1, cover2, lam, mu


# ---------------------------------------------------------------------------
# Torus intersection forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LinearForm:
    """Nonzero integer linear form; its weight is the gcd of the coefficients."""

    coeffs: tuple[int, ...]

    def __post_init__(self):
        if not any(self.coeffs):
            raise ZeroVector("form must be nonzero")

    @property
    def weight(self) -> int:
        g = 0
        for c in self.coeffs:
            g = gcd(g, c)
        return g


def intersection(alpha: LinearForm, v) -> int:
    """Weighted intersection number |alpha(v)| of a line with a subtorus."""
    return abs(sum(a * x for a, x in zip(alpha.coeffs, v)))


def intersection_ideal(m: IntMatrix) -> FracIdeal:
    """Ideal of all intersection numbers of the expanding eigenline with
    weighted codimension-1 subtori: generated by the eigenvector entries.

    Computed by closing the entries under the ring action, which must agree
    with the plain Z-span used by matrix_to_ideal.
    """
    order = order_for(charpoly(m))
    v = xi_eigenvector(order, m)
    return ideal_from_generators([e.to_field() for e in v.entries])


# ---------------------------------------------------------------------------
# Train tracks
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class TrainTrack:
    """Arc system with a nonnegative transition matrix and optional switch
    constraints (incoming arcs, outgoing arcs) as index tuples."""

    arcs: int
    transition: IntMatrix
    switches: tuple[tuple[tuple[int, ...], tuple[int, ...]], ...] = ()

    def __post_init__(self):
        if self.transition.n != self.arcs:
            raise ValueError("transition size must match the arc count")
        if any(x < 0 for r in self.transition.rows for x in r):
            raise ValueError("transition entries must be nonnegative")
        for ins, outs in self.switches:
            for i in (*ins, *outs):
                if not 0 <= i < self.arcs:
                    raise ValueError("switch arc index out of range")


def is_primitive(m: IntMatrix) -> bool:
    """Some power of the nonnegative matrix is strictly positive."""
    n = m.n
    reach = [[x > 0 for x in r] for r in m.rows]
    step = [row[:] for row in reach]
    limit = (n - 1) * (n - 1) + 1
    for _ in range(limit):
        if all(all(row) for row in step):
            return True
        step = [[any(step[i][k] and reach[k][j] for k in range(n))
                 for j in range(n)] for i in range(n)]
    return all(all(row) for row in step)


@dataclass(frozen=True)
class TrainTrackClass:
    chi: MonicIntPoly
    ideal: FracIdeal
    stretch_low: Fraction
    stretch_high: Fraction

    @property
    def stretch(self) -> float:
        return float((self.stretch_low + self.stretch_high) / 2)


def traintrack_class(track: TrainTrack) -> TrainTrackClass:
    """Invariants of a primitive train-track map: the characteristic
    polynomial, the ideal class of an integral weight eigenvector, and a
    certified interval around the stretch factor.

    Switch constraints, when present, are checked symbolically on the
    eigenvector weights.
    """
    m = track.transition
    chi = charpoly(m)
    order = order_for(chi)  # raises ReduciblePolynomial when not irreducible
    if not is_primitive(m):
        raise NotPrimitive("transition matrix has no strictly positive power")
    v = xi_eigenvector(order, m)
    if track.switches:
        zero = order.zero()
        for ins, outs in track.switches:
            total = zero
            for i in ins:
                total = total + v.entries[i]
            for j in outs:
                total = total - v.entries[j]
            if total != zero:
                raise SwitchViolation(f"switch {ins} -> {outs} unbalanced")
    ideal = matrix_to_ideal(m, order)
    lo, hi = real_roots(chi)[-1]  # the Perron root, as m is primitive
    return TrainTrackClass(chi, ideal, lo, hi)
