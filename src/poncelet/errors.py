"""Exception hierarchy for geometric degeneracies and invalid input."""


class GeometryError(Exception):
    """Base class for all errors raised by this package."""


class NonFiniteElement(GeometryError):
    """A coordinate came out NaN or infinite."""


class CoincidentElements(GeometryError):
    """Join of equal points or meet of equal lines."""


class DegenerateInput(GeometryError):
    """Input violates a general-position precondition (e.g. collinear triple)."""


class NumericalRankDeficiency(GeometryError):
    """A linear solve could not isolate a one-dimensional null space."""


class PointNotOnConic(GeometryError):
    """Operation requires the point to lie on the conic."""


class ProportionalConics(GeometryError):
    """The two conics are scalar multiples of each other."""


class DegenerateCrossRatio(GeometryError):
    """Cross ratio undefined: a denominator bracket vanishes."""


class DegenerateChain(GeometryError):
    """Next-point formula collapsed: coefficient brackets vanish."""


class TangentialDegeneracy(GeometryError):
    """Chain step stuck: the two continuation candidates coincide."""


class ConstructionDegeneracy(GeometryError):
    """An intermediate join/meet of a construction is undefined."""


class NotAHeptagonPrefix(GeometryError):
    """The six points do not satisfy the heptagon closure condition."""


class NotAnOctagonPrefix(GeometryError):
    """The given points do not satisfy the octagon point-7 condition."""


class DegeneratePencil(GeometryError):
    """Conic pencil unusable (proportional conics or collapsed intersections)."""


class NoValidLabeling(GeometryError):
    """No labeling of the doubling correspondence produced a valid polygon."""


class NotClosed(GeometryError):
    """Operation requires a closed polygon but the chain did not close."""


class DocumentError(GeometryError):
    """Scene document is malformed or has an unsupported version."""


class InseparableRoots(GeometryError):
    """Polynomial roots whose inclusion discs could not be made pairwise disjoint."""
