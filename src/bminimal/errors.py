"""Exception types raised across the package."""


class BMinError(Exception):
    """Base class for all package-specific errors."""


class NonConvergence(BMinError):
    """Eigensolver failed to reduce the off-diagonal norm within the sweep cap."""


class InvalidPattern(BMinError):
    """Block pattern is malformed (sizes must be positive and sum to n)."""


class EmptySpan(BMinError):
    """All candidate basis elements were dependent or zero."""


class SpanMismatch(BMinError):
    """Two bases do not span the same subalgebra."""


class ZeroMatrix(BMinError):
    """The zero matrix has no extremal eigenspaces to analyse."""


class NormNotTwoSided(BMinError):
    """Either +||A|| or -||A|| is missing from the spectrum.

    Carries the ``norm`` of the matrix; ``near`` is True when the deficit
    sits between one and two clustering tolerances, i.e. too close to call
    either way.
    """

    def __init__(self, message: str, norm: float, near: bool = False):
        super().__init__(message)
        self.norm = norm
        self.near = near


class NonUnitalBasis(BMinError):
    """The identity is not in the span of the basis; minimality tests need it."""


class NotOrthogonal(BMinError):
    """Support pairs require mutually orthogonal subspaces."""


class NotSupportPair(BMinError):
    """The moments of the two subspaces do not intersect."""


class PerturbationTooLarge(BMinError):
    """The rest-space perturbation exceeds the leading coefficient in norm."""


class PerturbationOverlapsSupport(BMinError):
    """The rest-space perturbation does not vanish on the support subspaces."""


class Undecided(BMinError):
    """The feasibility certificate cannot separate distance from tolerance.

    Carries the achieved ``distance`` and Frank-Wolfe ``gap`` so callers can
    retry with a larger budget.
    """

    def __init__(self, message: str, distance: float, gap: float):
        super().__init__(message)
        self.distance = distance
        self.gap = gap
