"""latmac: exact classification of integer matrices up to GL_n(Z)-conjugacy
via ideal classes of Z[xi], with Pell, class-number and surface-cover tools."""

__version__ = "0.1.0"

from .exactla import (
    HNFBasis, IntMatrix, MonicIntPoly, SNFResult, charpoly, companion,
    discriminant, hnf, is_irreducible, kernel_rational, poly_from_string,
    rank, snf,
)
from .ideal import (
    ClassMonoid, EquivalenceResult, FracIdeal, IdealClass, SearchBudget,
    class_monoid, colon, ideal_from_generators, ideal_norm, is_equivalent,
    is_invertible, mul_ideals, principal_ideal, unit_ideal,
)
from .latimer import (
    ClassInventory, ConjugacyVerdict, Eigenvector, are_conjugate, classify,
    ideal_to_matrix, matrix_to_ideal, oracle_count_classes, order_for,
    xi_eigenvector,
)
from .order import FieldElement, Order, OrderElement
from .quadratic import (
    PellSolution, QuadOrderInfo, fundamental_unit, growth_report, mw_family,
    quad_class_number, solve_pell4, solve_pell4_scan,
)
from .surface import (
    GroupPresentation, LinearForm, TrainTrack, TwoCover, bound_class_number,
    bound_max_index, bound_rank, bound_subgroups, cover_genus, genus3_matrix,
    intersection, intersection_ideal, lifts_as_loop, surface_presentation,
    traintrack_class, transvection, verify_genus3,
)
