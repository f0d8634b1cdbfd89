"""Exception types shared across the package."""


class BalinesError(Exception):
    """Base class for all computation errors raised by this package."""


class NonSquarefree(BalinesError):
    """Polynomial has a repeated root (gcd with derivative is nonconstant)."""


class NoConvergence(BalinesError):
    """An iterative solver failed to reach the requested tolerance."""


class CollisionError(BalinesError):
    """Two lines of an arrangement coincide."""


class MissingExactData(BalinesError):
    """Operation requires exact rational data the configuration does not carry."""


class IllConditioned(BalinesError):
    """A numeric rank decision has insufficient margin to be trusted."""


class TailMismatch(BalinesError):
    """Stored graded dimensions violate the linear tail law."""


class InvalidOrder(BalinesError):
    """Arguments violate an ordering precondition (e.g. m < m-tilde)."""


class IdentityFailed(BalinesError):
    """An identity that must hold exactly has a nonzero difference.

    The offending difference is attached as ``.difference``.
    """

    def __init__(self, message, difference=None):
        super().__init__(message)
        self.difference = difference
