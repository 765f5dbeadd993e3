"""Exception types shared across the package.

Each is a computation limit (in `LIMIT_ERRORS`: CLI exit 2, an inconclusive
`verify` check), the invariant failure `InternalConsistencyError` (exit 3, a
failed check), or else a `ValueError`, a usage error (exit 1).
"""


class SturmgasError(Exception):
    """Base class for all package-specific failures."""


class FieldMismatchError(SturmgasError, ValueError):
    """Two irrational operands live in different quadratic fields."""


class HorizonExceededError(SturmgasError):
    """A certified-approximation margin failed inside the requested window.

    ``first_bad_index`` is the first lattice index whose margin check failed;
    ``info`` carries it as a limit's partial progress.
    """

    def __init__(self, message: str, first_bad_index: int):
        super().__init__(message)
        self.first_bad_index = first_bad_index
        self.info = {"first_bad_index": first_bad_index}


class InsufficientProfileError(SturmgasError, ValueError):
    """The profile's horizon is too small for the check: a limit, caught ahead of ValueError."""


class InvalidRotationError(SturmgasError, ValueError):
    """The rotation parameters cannot define a valid aperiodic coding."""


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


#: what a larger budget, horizon or window could settle; MemoryError is
#: numpy refusing an oversized window before it allocates anything
LIMIT_ERRORS = (HorizonExceededError, InconclusiveError, InsufficientProfileError, MemoryError)


def limit_info(exc: BaseException) -> dict:
    """A limit error's ``info`` ({} if none), sets of words as sorted symbol lists."""
    info = getattr(exc, "info", {})
    return {k: sorted(w.symbols for w in v) if isinstance(v, set) else v for k, v in info.items()}
