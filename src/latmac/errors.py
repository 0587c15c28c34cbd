"""Exceptions shared across the package."""


class RankDeficient(ValueError):
    """Generators span a lattice of lower rank than the ambient space."""


class DegreeCapExceeded(ValueError):
    """Polynomial degree above the configured irreducibility cap."""


class ReduciblePolynomial(ValueError):
    """A monic irreducible polynomial was required."""


class ZeroIdeal(ValueError):
    """All generators were zero."""


class BudgetExceeded(RuntimeError):
    """An enumeration outgrew its configured resource limit."""


class CertificationError(RuntimeError):
    """A computed certificate failed its exact check: an internal fault."""


class InvalidD(ValueError):
    """Pell parameter d must be positive and not a perfect square."""


class InvalidGenus(ValueError):
    """Genus must be at least 2."""


class InvalidHom(ValueError):
    """The Z/2 assignment does not kill the relator."""


class ZeroVector(ValueError):
    """A nonzero vector was required."""


class NotPrimitive(ValueError):
    """Transition matrix has no strictly positive power."""


class SwitchViolation(ValueError):
    """A train-track switch constraint fails on the weight vector."""
