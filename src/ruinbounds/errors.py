"""Exception hierarchy shared by all modules."""


class RuinboundsError(Exception):
    """Base class for all errors raised by this package."""


class PreconditionError(RuinboundsError):
    """A mathematical precondition is violated (net profit, contraction
    modulus, bound hypothesis, wrong distribution variant)."""


class TruncationError(RuinboundsError):
    """A tail has not decayed enough for the requested computation (a grid
    function still large at its grid end), or a claim tail is not finite in
    float far out (an Erlang shape above about 520)."""


class GridMismatchError(RuinboundsError):
    """Two grid functions live on incompatible grids."""
