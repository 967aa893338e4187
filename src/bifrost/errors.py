"""Exception types and the photon-number domain check shared across the package."""

import numpy as np


class PureStateError(ValueError):
    """The state family is pure (or numerically indistinguishable from pure)
    at the evaluation point, where the mixed-state QFI expression degenerates."""


class DegenerateStateError(ValueError):
    """The family changes the purity of a pure normal mode at the evaluation
    point: the logarithmic derivative does not exist there and the QFI
    diverges. A pure mode that the family keeps pure is not an error."""


class NoInformationError(ValueError):
    """The QFI vanishes, so no optimal observable can be normalised."""


class NumericalInstabilityError(ArithmeticError):
    """An intermediate quantity left its mathematically guaranteed range by
    more than the configured tolerance."""


class CutoffTooSmallError(ValueError):
    """The requested Fock-space cutoff leaves too much probability mass in
    the truncated tail."""


def holds(condition) -> bool:
    """Whether a comparison of floats, or of arrays, holds everywhere; np.all
    would cost microseconds on a scalar."""
    return bool(condition.all() if isinstance(condition, np.ndarray) else condition)


# the photon-number domain: 0, where a vacuum is meant, or [N_MIN, N_MAX]
N_MIN = 1e-6
N_MAX = 1e6


def check_photon_numbers(*values) -> None:
    """Raise ValueError unless every photon number is 0 or lies in
    [N_MIN, N_MAX], for floats and numpy arrays alike; NaN fails, as every
    comparison with it does. The one owner of the photon-number domain."""
    for n in values:
        if not holds(((N_MIN <= n) & (n <= N_MAX)) | (n == 0.0)):
            raise ValueError(f"photon numbers must be 0 or lie in [{N_MIN:g}, {N_MAX:g}]")
