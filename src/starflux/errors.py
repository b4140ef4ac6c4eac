"""Exception taxonomy shared across the package, and the range rule.

Validation errors (bad user input) and numerical failures are kept in
separate branches so callers can map them to distinct exit codes.
``finite_above`` and ``finite_values`` are the one definition of a valid
run parameter and a valid boundary vector: every parameter check in the
package calls them, so NaN and infinity are rejected everywhere alike.
"""

from __future__ import annotations

import math

import numpy as np


class StarfluxError(Exception):
    """Base class for all package-specific errors."""


class ValidationError(StarfluxError):
    """Input violates a structural precondition."""


class EmptySide(ValidationError):
    """A star network needs at least one incoming and one outgoing arc."""


class NonPositiveParameter(ValidationError):
    """Lengths, speeds, viscosities, widths and steps must be positive."""


class DimensionMismatch(ValidationError):
    """Array shape does not match the network layout."""


class AssumptionViolated(ValidationError):
    """Coupling matrix fails symmetry, sign, or connectivity requirements."""


class InfeasibleTheta(ValidationError):
    """No admissible coupling magnitude exists for the requested weights."""


class InvalidGamma(ValidationError):
    """Transmission weights are negative or columns do not sum to one."""


class ConfigError(ValidationError):
    """Malformed JSON configuration; message carries file and field path."""


class NumericalError(StarfluxError):
    """A numerical procedure failed to produce a trustworthy result."""


class SingularMatrix(NumericalError):
    """Pivot collapsed during factorization of a node or boundary system."""


class NoConvergence(NumericalError):
    """An iteration hit its budget without meeting its tolerance."""


class WidthOverflow(NumericalError):
    """A smoothing transition cannot fit inside its allowed interval."""


class LinearSolveFailure(NumericalError):
    """Sparse solve returned non-finite values."""


class UnstableConfig(UserWarning):
    """Grid too coarse for the requested viscosity; results may smear."""


def finite_above(
    value: float,
    name: str,
    bound: float = 0.0,
    *,
    inclusive: bool = False,
    error: type[Exception] = NonPositiveParameter,
) -> float:
    """Return ``value`` as a float if finite and above ``bound``.

    ``inclusive`` also admits the bound; otherwise raise ``error`` with a
    message that starts with the parameter name.
    """
    x = float(value)
    if math.isfinite(x) and (x >= bound if inclusive else x > bound):
        return x
    rule = f"at least {bound:g}" if inclusive else (
        "positive" if bound == 0.0 else f"exceed {bound:g}"
    )
    raise error(f"{name}: must be finite and {rule}, got {x!r}")


def finite_values(values, m: int) -> np.ndarray:
    """Return ``values`` as a float vector of ``m`` finite entries.

    A wrong shape raises DimensionMismatch, a non-finite entry
    NonPositiveParameter.
    """
    arr = np.asarray(values, dtype=float)
    if arr.shape != (m,):
        raise DimensionMismatch(f"need {m} boundary values, got shape {arr.shape}")
    if not np.isfinite(arr).all():
        raise NonPositiveParameter(f"need {m} finite boundary values")
    return arr
