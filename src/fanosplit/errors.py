"""Exception types shared across the package."""

from __future__ import annotations


class FanoError(Exception):
    """Base class for all package-specific errors."""


class DimensionError(FanoError):
    """A matrix or vector has an incompatible shape."""


class SingularMatrixError(FanoError):
    """A square matrix that was required to be invertible has determinant 0."""


class NotUnimodularError(FanoError):
    """A lattice-basis operation met a matrix with determinant other than +-1."""

    def __init__(self, det: int, message: str | None = None):
        self.det = det
        super().__init__(message or f"matrix is not unimodular (det = {det})")


class DuplicateVertexError(FanoError):
    """The same point appears twice in a vertex list."""


class NotAVertexError(FanoError):
    """An input point is not a vertex of the convex hull of the point set."""


class NotFullDimError(FanoError):
    """The point set does not span the ambient space."""


class OriginNotInteriorError(FanoError):
    """The origin is not a strictly interior point of the polytope."""


class NotSimplicialError(FanoError):
    """Some supporting hyperplane contains more vertices than a simplex facet allows."""


class VertexIndexError(FanoError):
    """A vertex index is out of range, repeated, or not on the frame it is asked of."""


class NoNegativeVertexError(FanoError):
    """A ridge pivot found no vertex on the negative side; the origin cannot be interior."""


class NotSmoothFanoError(FanoError):
    """An operation that requires a valid smooth Fano polytope received an invalid one."""

    def __init__(self, certificate):
        self.certificate = certificate
        super().__init__(f"polytope is not smooth Fano: {certificate.failure_kind}")


class NotSpecialFacetError(FanoError):
    """The facet's cone does not contain the vertex sum."""


class UnclassifiableVertexError(FanoError):
    """A level -1 vertex fits none of the three structural types."""


class TheoremViolationError(FanoError):
    """The guaranteed hexagon count was not reached on an instance above the
    dimension threshold.  Either a library bug or a counterexample; never
    swallowed."""

    def __init__(self, dim: int, deficit: int, found: int, guaranteed: int):
        self.dim = dim
        self.deficit = deficit
        self.found = found
        self.guaranteed = guaranteed
        super().__init__(
            f"d={dim}, k={deficit}: found {found} hexagon factors, "
            f"but at least {guaranteed} are guaranteed"
        )


class SizeLimitError(FanoError):
    """The pruned canonical-form search space exceeded the configured budget."""

    def __init__(self, budget: int):
        self.budget = budget
        super().__init__(f"normal-form search exceeded budget of {budget} orderings")


class InvariantViolationError(FanoError):
    """An internal structural invariant failed; indicates a bug, surfaced loudly."""


class FanoFileError(FanoError):
    """Malformed polytope file; carries 1-based line and column of the offence."""

    def __init__(self, line: int, col: int, message: str):
        self.line = line
        self.col = col
        super().__init__(f"line {line}, column {col}: {message}")
