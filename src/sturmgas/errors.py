"""Exception types shared across the package."""


class SturmgasError(Exception):
    """Base class for all package-specific failures."""


class FieldMismatchError(SturmgasError, ValueError):
    """Two irrational operands live in different quadratic fields."""


class HorizonExceededError(SturmgasError):
    """A certified-approximation margin failed inside the requested window.

    ``first_bad_index`` is the first lattice index whose margin check failed.
    """

    def __init__(self, message: str, first_bad_index: int):
        super().__init__(message)
        self.first_bad_index = first_bad_index


class InsufficientProfileError(SturmgasError, ValueError):
    """The distance profile's horizon is too small for the requested check."""


class InvalidRotationError(SturmgasError, ValueError):
    """The rotation parameters cannot define a valid aperiodic coding."""


class UndecidableWindowError(SturmgasError):
    """The window is too poor (e.g. fewer than two particles) to decide."""


class InternalConsistencyError(SturmgasError):
    """Computed structure contradicts a property every valid rotation obeys.

    Signals a corrupted input or a bug upstream, never a borderline case.
    """


class InconclusiveError(SturmgasError):
    """A growth cap was reached before the computation could settle.

    Never used to claim nonexistence; carries whatever partial progress
    was made in ``info``.
    """

    def __init__(self, message: str, **info):
        super().__init__(message)
        self.info = info
